//! # lumen-dse — deterministic design-space exploration over the policy knobs
//!
//! The paper hand-picks its policy configuration: Table 1's thresholds,
//! `Tw = 1000`, a 4-window sliding average, a 6-level 5–10 Gb/s ladder,
//! a 200 µs laser controller. This crate asks the question the paper
//! leaves open — *is that point any good?* — by searching the knob space
//! per workload with a vendored, fully deterministic TPE-like optimizer
//! (no crates.io dependencies) on top of the [`lumen_core::exec`]
//! executor.
//!
//! ## Shape of a search
//!
//! 1. **Quick fidelity.** `trials` configurations are suggested by the
//!    [`tpe`] sampler and simulated at ~10×-shortened horizons, in fixed
//!    `batch`-sized generations (batch size is a search parameter, never
//!    the thread count — results are bit-identical at any `--jobs`).
//! 2. **Full fidelity.** The best `survivors` (by constrained
//!    non-domination rank over normalized power, mean latency, and p99,
//!    under a delivery-ratio floor) re-run at the paper's full horizons.
//! 3. **Report.** Everything lands in a schema-versioned
//!    [`report::DseReport`] (`lumen-dse/1`): every sampled point with its
//!    decoded knobs, derived seed, validated-finite objectives, and
//!    dominated-or-not flag, plus Table-1 and non-power-aware reference
//!    rows at both fidelities.
//!
//! Determinism is end-to-end: per-point seeds derive from the scenario's
//! base seed and comparison group exactly as every other harness's
//! points do ([`lumen_core::exec::derive_seed`]), every trial of a
//! scenario shares one comparison group (common random numbers — the
//! policies are compared under one traffic realization), and the sampler
//! draws from a seeded [`lumen_desim::Rng`]. The same seed produces a
//! byte-identical report at any thread or shard count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod pareto;
pub mod report;
pub mod space;
pub mod tpe;

pub use pareto::Goal;
pub use report::{DseReport, DSE_SCHEMA};
pub use space::{PolicyDraw, SearchSpace};
pub use tpe::Tpe;

use lumen_core::exec::derive_seed;
use lumen_core::prelude::*;
use lumen_core::results::Objectives;
use pareto::ranks;
use report::{Fidelity, ReferenceRow, ReportPoint};

/// The traffic a scenario drives, parameterized by the measure horizon so
/// phase-structured workloads keep their full shape at both fidelities.
#[derive(Debug, Clone)]
pub enum DseWorkload {
    /// Uniform-random traffic at a constant rate.
    Uniform {
        /// Offered rate, packets/cycle.
        rate: f64,
    },
    /// The Fig. 6 hotspot schedule, compressed so its 8 phases tile the
    /// measure window (both fidelities see every valley and jump).
    HotspotCompressed,
    /// Request/response datacenter traffic.
    Datacenter {
        /// Workload parameters.
        config: DatacenterConfig,
    },
}

impl DseWorkload {
    /// Whether a quick-fidelity run of this workload is a *prefix* of the
    /// full-fidelity run, so the warm-start path ([`DseConfig::warm_start`])
    /// can checkpoint the quick run and resume it to the full horizon.
    /// [`DseWorkload::HotspotCompressed`] is not: its phase schedule is a
    /// function of the measure horizon, so the two fidelities drive
    /// different traffic and survivors must re-run cold.
    pub(crate) fn warm_startable(&self) -> bool {
        !matches!(self, DseWorkload::HotspotCompressed)
    }

    /// The executable workload for a given measure horizon.
    pub fn workload(&self, noc: &NocConfig, measure_cycles: u64) -> Workload {
        let size = PacketSize::Fixed(5);
        match self {
            DseWorkload::Uniform { rate } => Workload::Uniform { rate: *rate, size },
            DseWorkload::HotspotCompressed => {
                let phase = (measure_cycles / 8).max(1);
                let rates = [1.0, 1.5, 1.0, 3.5, 4.0, 3.5, 1.5, 1.0];
                Workload::Synthetic {
                    pattern: Pattern::paper_hotspot(noc),
                    profile: RateProfile::Phases(rates.iter().map(|&r| (phase, r)).collect()),
                    size,
                }
            }
            DseWorkload::Datacenter { config } => Workload::Datacenter { config: *config },
        }
    }
}

/// One searchable scenario: a fabric + traffic + horizons.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Name (becomes the report's `scenario` field).
    pub name: String,
    /// System template: geometry, transmitter, base seed. The policy
    /// knobs are overwritten per trial; `power_aware` is forced on for
    /// trials and off for the baseline row.
    pub config: SystemConfig,
    /// The traffic family.
    pub workload: DseWorkload,
    /// Comparison group shared by every point of this scenario.
    pub group: u64,
    /// Full-fidelity warmup cycles.
    pub warmup_cycles: u64,
    /// Full-fidelity measure cycles.
    pub measure_cycles: u64,
}

/// Search hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DseConfig {
    /// Quick-fidelity trials to sample.
    pub trials: usize,
    /// Trials re-evaluated at full fidelity.
    pub survivors: usize,
    /// Suggestions per TPE generation. A *search* parameter: changing it
    /// changes the result (the model refits between generations), so it
    /// is deliberately independent of `--jobs`.
    pub batch: usize,
    /// Delivery-ratio constraint floor.
    pub min_delivery: f64,
    /// Sampler seed (the simulation seeds derive from the scenario's
    /// system seed, not this).
    pub sampler_seed: u64,
    /// Quick-fidelity divisor (horizons shrink by this, floored at the
    /// shared bench minimum of 2000 cycles).
    pub quick_divisor: u64,
    /// Warm-start the full-fidelity pass from quick-run checkpoints.
    ///
    /// When set, quick trials run the **full** warmup followed by the
    /// quick measure window and save a `lumen-ckpt/6` snapshot at their
    /// end; survivors *resume* those snapshots and only simulate the
    /// remaining `measure - quick_measure` cycles instead of re-running
    /// warmup + full measure from scratch. Because resume is
    /// bit-identical (see CHECKPOINTS.md), a warm-started survivor's
    /// full-fidelity objectives equal the unbroken full run's exactly;
    /// only the quick cohort's numbers shift (they measure after the
    /// full warmup). Workloads whose quick run is not a prefix of the
    /// full run (`DseWorkload::warm_startable`) fall back to cold
    /// full re-runs.
    pub warm_start: bool,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            trials: 24,
            survivors: 6,
            batch: 8,
            min_delivery: 0.99,
            sampler_seed: 7,
            quick_divisor: 10,
            warm_start: false,
        }
    }
}

impl DseConfig {
    /// Validates the hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics on a zero trial/batch/divisor count, more survivors than
    /// trials, or a delivery floor outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.trials >= 1, "need at least one trial");
        assert!(self.batch >= 1, "batch must be positive");
        assert!(self.quick_divisor >= 1, "quick divisor must be positive");
        assert!(
            self.survivors >= 1 && self.survivors <= self.trials,
            "survivors must be in 1..=trials"
        );
        assert!(
            (0.0..=1.0).contains(&self.min_delivery),
            "delivery floor must be in [0, 1]"
        );
    }

    /// The quick-fidelity horizons for a scenario (mirrors the bench
    /// CLI's `--quick` scaling: `full / divisor`, floored at 2000).
    pub fn quick_horizons(&self, scenario: &Scenario) -> (u64, u64) {
        let scale = |full: u64| (full / self.quick_divisor).max(2_000);
        (
            scale(scenario.warmup_cycles),
            scale(scenario.measure_cycles),
        )
    }
}

/// The goal recorded for a trial whose run could not produce objectives
/// (delivered nothing, or a metric came out non-finite): maximally
/// infeasible with large-but-finite objectives, so the sampler steers
/// away without ever holding a non-finite number.
fn failed_trial_goal() -> Goal {
    Goal {
        power: 10.0,
        avg_latency: 1e9,
        p99_latency: 1e9,
        violation: 1.0,
    }
}

/// One scenario's search outcome, before report assembly.
struct Evaluated {
    draw: PolicyDraw,
    objectives: Option<Objectives>,
    goal: Goal,
}

/// Runs one scenario's multi-fidelity search and returns its report.
///
/// # Panics
///
/// Panics on an invalid `DseConfig`, or if a *reference* run (Table 1 or
/// the non-power-aware baseline) fails to produce objectives — trial
/// failures are tolerated and steered away from, but a broken reference
/// means the scenario itself is misconfigured.
pub fn run_scenario(
    scenario: &Scenario,
    dse: &DseConfig,
    executor: &Executor,
    mut progress: impl FnMut(&str),
) -> DseReport {
    dse.validate();
    let space = SearchSpace::paper_policy();
    let (quick_warmup, quick_measure) = dse.quick_horizons(scenario);
    // Warm start only when the quick run is a strict prefix of the full
    // run: prefix-compatible workload, and the quick measure window (the
    // checkpoint cycle) inside the full horizon.
    let warm = dse.warm_start
        && scenario.workload.warm_startable()
        && quick_measure <= scenario.measure_cycles;
    let quick_warmup = if warm {
        scenario.warmup_cycles
    } else {
        quick_warmup
    };
    let warm_ckpt = |trial: usize| {
        std::env::temp_dir().join(format!(
            "lumen-dse-warm-{}-{}-{trial}.ckpt",
            std::process::id(),
            scenario.group
        ))
    };
    let base_seed = scenario.config.seed;
    let point_seed = derive_seed(base_seed, scenario.group);

    let build_point =
        |draw: &PolicyDraw, power_aware: bool, warmup: u64, measure: u64, label: String| {
            let mut config = scenario.config.clone();
            config.power_aware = power_aware;
            draw.apply(&mut config);
            let experiment = Experiment::new(config)
                .warmup_cycles(warmup)
                .measure_cycles(measure);
            let noc = &scenario.config.noc;
            Point::new(label, experiment, scenario.workload.workload(noc, measure))
                .in_group(scenario.group)
        };

    // Reference rows: Table 1 and the non-PA baseline, both fidelities.
    // They run in the same comparison group as every trial, so the whole
    // scenario is one common-random-numbers block.
    let table1 = PolicyDraw::paper_table1();
    let refs = vec![
        build_point(
            &table1,
            true,
            quick_warmup,
            quick_measure,
            "table1 quick".into(),
        ),
        build_point(
            &table1,
            true,
            scenario.warmup_cycles,
            scenario.measure_cycles,
            "table1 full".into(),
        ),
        build_point(
            &table1,
            false,
            quick_warmup,
            quick_measure,
            "non-PA quick".into(),
        ),
        build_point(
            &table1,
            false,
            scenario.warmup_cycles,
            scenario.measure_cycles,
            "non-PA full".into(),
        ),
    ];
    progress(&format!("{}: reference rows (4 runs)", scenario.name));
    let ref_results = executor.run(&refs);
    let ref_obj = |i: usize| -> Objectives {
        ref_results[i]
            .expect_ok()
            .objectives()
            .unwrap_or_else(|e| panic!("reference run `{}` unusable: {e}", refs[i].label))
    };
    let table1_row = ReferenceRow {
        quick: ref_obj(0),
        full: ref_obj(1),
    };
    let baseline_row = ReferenceRow {
        quick: ref_obj(2),
        full: ref_obj(3),
    };

    // Quick-fidelity TPE generations.
    let mut tpe = Tpe::new(space.clone(), dse.sampler_seed);
    let mut evaluated: Vec<Evaluated> = Vec::with_capacity(dse.trials);
    while evaluated.len() < dse.trials {
        let gen_size = dse.batch.min(dse.trials - evaluated.len());
        let cubes: Vec<Vec<f64>> = (0..gen_size).map(|_| tpe.suggest()).collect();
        let draws: Vec<PolicyDraw> = cubes.iter().map(|u| space.decode(u)).collect();
        let points: Vec<Point> = draws
            .iter()
            .enumerate()
            .map(|(k, draw)| {
                let trial = evaluated.len() + k;
                let mut point = build_point(
                    draw,
                    true,
                    quick_warmup,
                    quick_measure,
                    format!("{} trial {trial}", scenario.name),
                );
                if warm {
                    // Snapshot at the quick run's end; survivors resume
                    // from here instead of re-running warmup + measure.
                    point.experiment = point
                        .experiment
                        .clone()
                        .save_at(quick_warmup + quick_measure, warm_ckpt(trial));
                }
                point
            })
            .collect();
        progress(&format!(
            "{}: quick generation of {gen_size} ({} / {} trials)",
            scenario.name,
            evaluated.len() + gen_size,
            dse.trials
        ));
        let results = executor.run(&points);
        for ((cube, draw), pr) in cubes.into_iter().zip(draws).zip(&results) {
            let objectives = pr.run_result().and_then(|r| r.objectives().ok());
            let goal = match &objectives {
                Some(obj) => Goal::new(obj, dse.min_delivery),
                None => failed_trial_goal(),
            };
            tpe.observe(cube, goal);
            evaluated.push(Evaluated {
                draw,
                objectives,
                goal,
            });
        }
    }

    // Survivor selection: best constrained non-domination ranks, ties by
    // trial id (deterministic).
    let goals: Vec<Goal> = evaluated.iter().map(|e| e.goal).collect();
    let quick_ranks = ranks(&goals);
    let mut order: Vec<usize> = (0..evaluated.len()).collect();
    order.sort_by_key(|&i| (quick_ranks[i], i));
    let survivors: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| evaluated[i].objectives.is_some())
        .take(dse.survivors)
        .collect();

    // Full-fidelity re-evaluation of the survivors (resumed from their
    // quick checkpoints when warm-starting).
    let full_points: Vec<Point> = survivors
        .iter()
        .map(|&i| {
            let mut point = build_point(
                &evaluated[i].draw,
                true,
                scenario.warmup_cycles,
                scenario.measure_cycles,
                format!("{} full {}", scenario.name, i),
            );
            if warm {
                point.experiment = point.experiment.clone().resume(warm_ckpt(i));
            }
            point
        })
        .collect();
    progress(&format!(
        "{}: full fidelity ({} survivors{})",
        scenario.name,
        survivors.len(),
        if warm { ", warm-started" } else { "" }
    ));
    let full_results = executor.run(&full_points);
    if warm {
        for trial in 0..evaluated.len() {
            std::fs::remove_file(warm_ckpt(trial)).ok();
        }
    }
    let full_obj: Vec<Option<Objectives>> = full_results
        .iter()
        .map(|pr| pr.run_result().and_then(|r| r.objectives().ok()))
        .collect();

    // Report assembly: quick cohort then full cohort, each with its own
    // dominated flags.
    let mut points = Vec::new();
    for (i, e) in evaluated.iter().enumerate() {
        let Some(obj) = e.objectives else {
            // Failed trials carry no finite objectives and are omitted
            // from the report; the sampler already steered away.
            continue;
        };
        let dominated = quick_ranks[i] != 0;
        points.push(ReportPoint {
            id: i,
            fidelity: "quick".into(),
            seed: point_seed,
            params: e.draw.clone(),
            objectives: obj,
            feasible: e.goal.feasible(),
            dominated,
        });
    }
    let full_goals: Vec<Goal> = full_obj
        .iter()
        .map(|o| match o {
            Some(obj) => Goal::new(obj, dse.min_delivery),
            None => failed_trial_goal(),
        })
        .collect();
    let full_ranks = ranks(&full_goals);
    for (k, &i) in survivors.iter().enumerate() {
        let Some(obj) = full_obj[k] else { continue };
        points.push(ReportPoint {
            id: i,
            fidelity: "full".into(),
            seed: point_seed,
            params: evaluated[i].draw.clone(),
            objectives: obj,
            feasible: full_goals[k].feasible(),
            dominated: full_ranks[k] != 0,
        });
    }

    DseReport {
        schema: DSE_SCHEMA.into(),
        scenario: scenario.name.clone(),
        base_seed,
        group: scenario.group,
        min_delivery: dse.min_delivery,
        quick: Fidelity {
            warmup_cycles: quick_warmup,
            measure_cycles: quick_measure,
        },
        full: Fidelity {
            warmup_cycles: scenario.warmup_cycles,
            measure_cycles: scenario.measure_cycles,
        },
        table1: table1_row,
        baseline_non_pa: baseline_row,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario(seed: u64) -> Scenario {
        let mut config = SystemConfig::paper_default();
        config.noc = NocConfig::small_for_tests();
        config.seed = seed;
        Scenario {
            name: "tiny-uniform".into(),
            config,
            workload: DseWorkload::Uniform { rate: 0.15 },
            group: 0,
            warmup_cycles: 500,
            measure_cycles: 4_000,
        }
    }

    fn tiny_dse() -> DseConfig {
        DseConfig {
            trials: 4,
            survivors: 2,
            batch: 2,
            quick_divisor: 2,
            ..DseConfig::default()
        }
    }

    #[test]
    fn search_is_seed_deterministic_and_jobs_invariant() {
        let a = run_scenario(&tiny_scenario(3), &tiny_dse(), &Executor::new(1), |_| {});
        let b = run_scenario(&tiny_scenario(3), &tiny_dse(), &Executor::new(4), |_| {});
        assert_eq!(a.to_json(), b.to_json(), "thread count must not matter");
        let c = run_scenario(&tiny_scenario(4), &tiny_dse(), &Executor::new(1), |_| {});
        assert_ne!(a.to_json(), c.to_json(), "different seed, different search");
    }

    #[test]
    fn report_has_both_cohorts_and_valid_schema() {
        let r = run_scenario(&tiny_scenario(5), &tiny_dse(), &Executor::new(2), |_| {});
        assert_eq!(r.schema, DSE_SCHEMA);
        let quick = r.points.iter().filter(|p| p.fidelity == "quick").count();
        let full = r.full_points().count();
        assert_eq!(quick, 4);
        assert_eq!(full, 2);
        // Fault-free runs always deliver everything they resolve.
        assert!(r.points.iter().all(|p| p.objectives.delivery_ratio == 1.0));
        assert!(r.points.iter().all(|p| p.feasible));
        // The quick cohort has a non-empty Pareto front.
        assert!(r.points.iter().any(|p| !p.dominated));
    }

    #[test]
    fn reference_rows_bracket_the_trials() {
        let r = run_scenario(&tiny_scenario(6), &tiny_dse(), &Executor::new(2), |_| {});
        // The non-PA baseline pins links at max rate: normalized power 1.
        assert!((r.baseline_non_pa.full.normalized_power - 1.0).abs() < 0.2);
        // Table 1 saves real power against it.
        assert!(r.table1.full.normalized_power < r.baseline_non_pa.full.normalized_power);
    }

    #[test]
    fn warm_started_survivors_match_unbroken_full_runs() {
        let scenario = tiny_scenario(9);
        let dse = DseConfig {
            warm_start: true,
            ..tiny_dse()
        };
        let warm = run_scenario(&scenario, &dse, &Executor::new(2), |_| {});
        // Every warm-started full-fidelity point must be bit-identical to
        // an unbroken full run of the same knobs — warm start is pure
        // compute savings, never a different experiment.
        let mut checked = 0;
        for p in warm.points.iter().filter(|p| p.fidelity == "full") {
            let mut config = scenario.config.clone();
            config.power_aware = true;
            p.params.apply(&mut config);
            let exp = Experiment::new(config)
                .warmup_cycles(scenario.warmup_cycles)
                .measure_cycles(scenario.measure_cycles);
            let workload = scenario
                .workload
                .workload(&scenario.config.noc, scenario.measure_cycles);
            let r = Point::new("unbroken", exp, workload)
                .in_group(scenario.group)
                .run_at_index(0);
            assert!(!r.resumed, "the unbroken reference run is cold");
            let o = r.objectives().expect("unbroken run usable");
            assert_eq!(
                p.objectives.normalized_power.to_bits(),
                o.normalized_power.to_bits()
            );
            assert_eq!(
                p.objectives.avg_latency_cycles.to_bits(),
                o.avg_latency_cycles.to_bits()
            );
            assert_eq!(
                p.objectives.p99_latency_cycles.to_bits(),
                o.p99_latency_cycles.to_bits()
            );
            assert_eq!(
                p.objectives.delivery_ratio.to_bits(),
                o.delivery_ratio.to_bits()
            );
            checked += 1;
        }
        assert!(checked >= 1, "no full-fidelity survivors to check");
    }

    #[test]
    fn warm_start_falls_back_cold_for_horizon_shaped_workloads() {
        let mut scenario = tiny_scenario(11);
        scenario.workload = DseWorkload::HotspotCompressed;
        // The compressed hotspot schedule needs a longer horizon than the
        // uniform tiny scenario before any traffic drains on the test mesh.
        scenario.measure_cycles = 24_000;
        assert!(!scenario.workload.warm_startable());
        let dse = DseConfig {
            warm_start: true,
            ..tiny_dse()
        };
        let warm = run_scenario(&scenario, &dse, &Executor::new(2), |_| {});
        let cold = run_scenario(&scenario, &tiny_dse(), &Executor::new(2), |_| {});
        assert_eq!(
            warm.to_json(),
            cold.to_json(),
            "non-prefix workloads must ignore warm_start entirely"
        );
    }

    #[test]
    #[should_panic(expected = "survivors must be in")]
    fn config_rejects_more_survivors_than_trials() {
        let dse = DseConfig {
            trials: 2,
            survivors: 5,
            ..DseConfig::default()
        };
        dse.validate();
    }
}
