//! Micro-benchmarks for the discrete-event calendar: the hottest data
//! structure in the simulator (every flit hop schedules two events).
//!
//! The `cycle_synchronous` group models the simulator's actual access
//! pattern: per 1600 ps cycle, a batch of same-cycle arrivals is
//! scheduled one cycle ahead and the current cycle's batch is drained.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use lumen_desim::{EventQueue, Picos, Rng};
use std::hint::black_box;

fn schedule_pop_interleaved(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &pending in &[64usize, 1024, 16_384] {
        group.throughput(Throughput::Elements(1));
        group.bench_function(format!("wheel_hold_{pending}_schedule_pop"), |b| {
            let mut rng = Rng::seed_from(7);
            let mut q = EventQueue::with_capacity(pending + 1);
            for i in 0..pending {
                q.schedule(Picos::from_ps(rng.next_below(1_000_000)), i as u64);
            }
            let mut t = 1_000_000u64;
            b.iter(|| {
                t += 100;
                q.schedule(Picos::from_ps(rng.next_below(1_000_000) + t), t);
                black_box(q.pop());
            });
        });
    }
    group.finish();
}

fn drain_ordered(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_drain");
    let n = 10_000u64;
    group.throughput(Throughput::Elements(n));
    group.bench_function("wheel_drain_10k_random", |b| {
        b.iter_batched(
            || {
                let mut rng = Rng::seed_from(3);
                let mut q = EventQueue::with_capacity(n as usize);
                for i in 0..n {
                    q.schedule(Picos::from_ps(rng.next_below(1 << 40)), i);
                }
                q
            },
            |mut q| {
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// The simulator's shape: every 1600 ps cycle delivers a batch of
/// same-cycle arrivals and schedules the next batch one cycle ahead
/// (plus an occasional far-future policy event into the overflow tier).
fn cycle_synchronous(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_cycle_synchronous");
    let cycle = 1600u64;
    let batch = 64u64; // ~flit+credit arrivals per cycle at load
    group.throughput(Throughput::Elements(batch));
    group.bench_function(format!("wheel_batch_{batch}_per_cycle"), |b| {
        let mut q = EventQueue::with_capacity(4 * batch as usize);
        let mut now = 0u64;
        for i in 0..batch {
            q.schedule(Picos::from_ps(now + cycle), i);
        }
        b.iter(|| {
            now += cycle;
            let mut popped = 0u64;
            while let Some((t, id)) = q.pop_if_at_or_before(Picos::from_ps(now)) {
                black_box((t, id));
                q.schedule(Picos::from_ps(now + cycle), id);
                popped += 1;
            }
            // Rare far-future event, like a TransitionComplete.
            if now % (cycle * 512) == 0 {
                q.schedule(Picos::from_ps(now + cycle * 4096), u64::MAX);
            }
            black_box(popped);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    schedule_pop_interleaved,
    drain_ordered,
    cycle_synchronous
);
criterion_main!(benches);
