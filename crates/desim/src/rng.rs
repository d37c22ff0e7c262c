//! Deterministic pseudo-random number generation.
//!
//! Lumen simulations must be exactly reproducible from a single seed so that
//! every figure in the paper reproduction can be regenerated bit-for-bit.
//! This module implements xoshiro256** seeded through SplitMix64 — both
//! public-domain algorithms — with a [`Rng::derive`] operation that splits
//! statistically independent child streams for subsystems (traffic sources,
//! policy jitter, etc.) so that adding a consumer never perturbs the draws
//! seen by another.

use serde::{Deserialize, Serialize};

/// `2^53`: the number of distinct values [`Rng::next_f64`] draws.
const UNIT: u64 = 1 << 53;

/// One xoshiro256** step on `s`, returning the next raw value.
#[inline(always)]
fn xoshiro_step(s: &mut [u64; 4]) -> u64 {
    let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

/// `ceil(p·2^53)` for `0 < p < 1` (0 for NaN), taken in integers with no
/// libm call. `p·2^53` is exact in `f64`: a power-of-two scaling, which
/// stays normal even for subnormal `p`. Below `2^53`, its truncation and
/// the truncation's conversion back are exact too.
#[inline]
fn unit_ceil(p: f64) -> u64 {
    let x = p * UNIT as f64;
    let t = x as i64;
    (t + i64::from((t as f64) < x)) as u64
}

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** random number generator.
///
/// # Example
///
/// ```
/// use lumen_desim::Rng;
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Derived streams are independent of the parent's subsequent draws.
/// let mut child = a.derive(7);
/// let _ = child.next_u64();
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro256** must not start from the all-zero state; SplitMix64
        // cannot produce four zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s }
    }

    /// Derives an independent child stream identified by `stream_id`.
    ///
    /// Deriving the same `stream_id` from generators in identical states
    /// yields identical children; the parent state is not advanced.
    pub fn derive(&self, stream_id: u64) -> Rng {
        let mut sm = self.s[0] ^ self.s[1].rotate_left(17) ^ stream_id.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Rng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        xoshiro_step(&mut self.s)
    }

    /// A uniform value in `[0, bound)` via Lemire's multiply-shift method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening multiply rejection-free approximation is fine for
        // simulation purposes; use full rejection to keep it exactly uniform.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw with probability `p` (clamped to `[0, 1]`): true
    /// iff [`Rng::next_f64`] would fall below `p`. `p <= 0` and `p >= 1`
    /// decide without drawing.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_u64() >> 11 < unit_ceil(p)
        }
    }

    /// The exact integer threshold of [`Rng::chance`]: `ceil(p·2^53)`,
    /// clamped to `[0, 2^53]` (NaN gives 0). A draw `m·2^-53` of
    /// [`Rng::next_f64`] is below `p` iff `m < ceil(p·2^53)`.
    pub fn chance_threshold(p: f64) -> u64 {
        if p >= 1.0 {
            UNIT
        } else if p > 0.0 {
            unit_ceil(p)
        } else {
            0
        }
    }

    /// Draws Bernoulli trials with the integer `threshold` of
    /// [`Rng::chance_threshold`] until the first success or `max`
    /// failures, and returns the failure count (`max` if none succeeded).
    /// Consumes exactly the values, in the same order, that a loop of
    /// [`Rng::chance`] stopping at its first `true` would: a threshold of 0
    /// never succeeds and one of `2^53` always does, both without
    /// drawing. The generator state stays in registers for the whole run.
    pub fn failures_before_success(&mut self, threshold: u64, max: u64) -> u64 {
        if threshold >= UNIT {
            return 0;
        }
        if threshold == 0 {
            return max;
        }
        // `x >> 11 < threshold` iff `x < threshold << 11`, which cannot
        // overflow below 2^53; comparing raw values saves a shift per draw.
        let bound = threshold << 11;
        let mut s = self.s;
        let mut failures = 0;
        while failures < max && xoshiro_step(&mut s) >= bound {
            failures += 1;
        }
        self.s = s;
        failures
    }

    /// An exponentially distributed value with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        // Inverse transform; guard the log argument away from zero.
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// A geometrically distributed count of failures before a success with
    /// success probability `p` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1], got {p}");
        if p >= 1.0 {
            return 0;
        }
        let u = 1.0 - self.next_f64();
        (u.ln() / (1.0 - p).ln()) as u64
    }

    /// Chooses an index according to a slice of non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero/non-finite.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weights must sum to a positive finite value"
        );
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should diverge, {same} collisions");
    }

    #[test]
    fn derive_is_stable_and_independent() {
        let parent = Rng::seed_from(9);
        let mut c1 = parent.derive(5);
        let mut c2 = parent.derive(5);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut c3 = parent.derive(6);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn next_below_in_range() {
        let mut r = Rng::seed_from(77);
        for _ in 0..10_000 {
            assert!(r.next_below(7) < 7);
        }
        // bound of 1 always yields 0
        assert_eq!(r.next_below(1), 0);
    }

    #[test]
    fn f64_unit_interval_and_mean() {
        let mut r = Rng::seed_from(5);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_rate() {
        let mut r = Rng::seed_from(8);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    /// The reference for the run-length draw: a loop of `chance(p)`
    /// stopping at its first success.
    fn chance_loop(rng: &mut Rng, p: f64, max: u64) -> u64 {
        (0..max)
            .position(|_| rng.chance(p))
            .map_or(max, |k| k as u64)
    }

    /// Runs both draws from the same seed for `rounds` consecutive runs
    /// and asserts equal failure counts and equal final states.
    fn assert_draw_for_draw(seed: u64, p: f64, max: u64, rounds: usize) {
        let (mut fast, mut slow) = (Rng::seed_from(seed), Rng::seed_from(seed));
        let threshold = Rng::chance_threshold(p);
        for round in 0..rounds {
            let got = fast.failures_before_success(threshold, max);
            let want = chance_loop(&mut slow, p, max);
            assert_eq!(got, want, "p {p:e} max {max} seed {seed} round {round}");
            assert_eq!(
                fast, slow,
                "state after p {p:e} max {max} seed {seed} round {round}"
            );
        }
    }

    #[test]
    fn chance_threshold_is_the_exact_ceiling() {
        let unit = UNIT as f64;
        let tiny = f64::from_bits(1); // the smallest positive subnormal
        assert_eq!(Rng::chance_threshold(tiny), 1);
        assert_eq!(Rng::chance_threshold(1.0 / unit), 1);
        let k = 3u64 << 50; // p = k·2^-53 = 0.375: the threshold is an integer
        let p = k as f64 / unit;
        assert_eq!(Rng::chance_threshold(p), k);
        assert_eq!(
            Rng::chance_threshold(f64::from_bits(p.to_bits() + 1)),
            k + 1
        );
        assert_eq!(Rng::chance_threshold(f64::from_bits(p.to_bits() - 1)), k);
        assert_eq!(Rng::chance_threshold(1.0 - 1.0 / unit), UNIT - 1);
        assert_eq!(Rng::chance_threshold(1.0), UNIT);
        assert_eq!(Rng::chance_threshold(7.0), UNIT);
        assert_eq!(Rng::chance_threshold(0.0), 0);
        assert_eq!(Rng::chance_threshold(-0.5), 0);
        assert_eq!(Rng::chance_threshold(f64::NAN), 0);
        // At the boundary, `m < threshold` decides exactly as the float
        // comparison `m·2^-53 < p` does, for every draw `m` near it.
        for p in [
            p,
            f64::from_bits(p.to_bits() + 1),
            f64::from_bits(p.to_bits() - 1),
        ] {
            for m in k - 2..k + 3 {
                let float = m as f64 * (1.0 / unit) < p;
                assert_eq!(m < Rng::chance_threshold(p), float, "m {m} p {p:e}");
            }
        }
    }

    #[test]
    fn chance_matches_the_float_comparison() {
        let ps = [
            f64::from_bits(1),
            0.3 / 512.0,
            4.0 / 512.0,
            0.25,
            0.3,
            0.8,
            1.0 - 1e-16,
        ];
        for (i, &p) in ps.iter().enumerate() {
            let (mut a, mut b) = (Rng::seed_from(i as u64), Rng::seed_from(i as u64));
            for _ in 0..20_000 {
                let old = (b.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p;
                assert_eq!(a.chance(p), old, "p {p:e}");
            }
            assert_eq!(a, b);
        }
    }

    #[test]
    fn run_length_draw_matches_chance_loop() {
        let unit = UNIT as f64;
        let k = 3u64 << 50;
        let exact = k as f64 / unit;
        let cases = [
            (f64::from_bits(1), 5_000),
            (1.0 / unit, 5_000),
            (exact, 64),
            (f64::from_bits(exact.to_bits() + 1), 64),
            (f64::from_bits(exact.to_bits() - 1), 64),
            (0.3 / 512.0, 512),
            (4.0 / 512.0, 512),
            (1.0 - 1.0 / unit, 8),
        ];
        for (seed, &(p, max)) in cases.iter().enumerate() {
            assert_draw_for_draw(seed as u64, p, max, 200);
        }
        // No room to fail, and certain or impossible draws: nothing drawn.
        for p in [0.3 / 512.0, 0.5, 1.0, 2.0, 0.0, -1.0] {
            assert_draw_for_draw(9, p, 0, 3);
        }
        for p in [1.0, 2.0, f64::INFINITY] {
            let mut r = Rng::seed_from(10);
            assert_eq!(r.failures_before_success(Rng::chance_threshold(p), 512), 0);
            assert_eq!(r, Rng::seed_from(10), "p {p} must draw nothing");
            assert_draw_for_draw(10, p, 512, 3);
        }
        assert_draw_for_draw(11, 0.0, 512, 3);
    }

    /// A generator whose next raw value is `x`: xoshiro256** outputs
    /// `rotl(s1·5, 7)·9`, which inverts for `s1` (5 and 9 are odd, so
    /// invertible mod 2^64; Newton's iteration doubles the correct bits).
    fn rng_yielding(x: u64) -> Rng {
        let inv = |a: u64| {
            (0..6).fold(a, |y, _| {
                y.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(y)))
            })
        };
        let s1 = x.wrapping_mul(inv(9)).rotate_right(7).wrapping_mul(inv(5));
        Rng { s: [1, s1, 2, 3] }
    }

    #[test]
    fn draws_at_the_threshold_decide_like_chance() {
        // p = k·2^-53 exactly: the draw m = k - 1 succeeds and m = k fails,
        // whatever the 11 raw bits below m.
        let k = 3u64 << 50;
        let p = k as f64 / UNIT as f64;
        for (m, low) in [(k - 1, 0), (k - 1, 0x7ff), (k, 0), (k, 0x7ff)] {
            let x = m << 11 | low;
            let r = rng_yielding(x);
            assert_eq!(r.clone().next_u64(), x);
            let hit = r.clone().chance(p);
            assert_eq!(hit, m < k, "m {m} low {low:#x}");
            let failures = r
                .clone()
                .failures_before_success(Rng::chance_threshold(p), 1);
            assert_eq!(failures, u64::from(!hit), "m {m} low {low:#x}");
        }
    }

    proptest::proptest! {
        #[test]
        fn run_length_draw_sweep(
            seed in 0u64..1 << 40,
            log2_p in -24.0f64..0.0,
            max in 0u64..3_000,
        ) {
            let p = log2_p.exp2();
            let (mut fast, mut slow) = (Rng::seed_from(seed), Rng::seed_from(seed));
            let threshold = Rng::chance_threshold(p);
            for _ in 0..4 {
                let got = fast.failures_before_success(threshold, max);
                proptest::prop_assert_eq!(got, chance_loop(&mut slow, p, max));
                proptest::prop_assert!(
                    fast == slow,
                    "state after seed {} p {:e} max {}",
                    seed,
                    p,
                    max
                );
            }
        }
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::seed_from(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn geometric_mean() {
        let mut r = Rng::seed_from(13);
        let p: f64 = 0.25;
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| r.geometric(p)).sum();
        let mean = sum as f64 / n as f64;
        let expect = (1.0 - p) / p; // 3.0
        assert!((mean - expect).abs() < 0.1, "mean {mean}");
        assert_eq!(r.geometric(1.0), 0);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = Rng::seed_from(17);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from(19);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        let mut r = Rng::seed_from(1);
        let _ = r.next_below(0);
    }
}
