//! Run results: the metrics the paper's evaluation reports.

use crate::telemetry::TelemetryReport;
use lumen_stats::{Summary, TimeSeries};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Everything measured during one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Measured core cycles (after warmup).
    pub cycles: u64,
    /// Packets injected during measurement.
    pub packets_injected: u64,
    /// Packets delivered during measurement (created after warmup).
    pub packets_delivered: u64,
    /// Mean end-to-end packet latency, in core cycles.
    pub avg_latency_cycles: f64,
    /// 99th-percentile latency, in core cycles. When the percentile lands
    /// in the latency histogram's overflow bucket this is the overflow's
    /// lower edge (a finite lower bound, never `INFINITY`) and
    /// [`RunResult::p99_saturated`] is set.
    pub p99_latency_cycles: f64,
    /// Whether `p99_latency_cycles` saturated at the histogram's overflow
    /// edge (the true percentile is at least the reported value).
    pub p99_saturated: bool,
    /// Maximum observed latency, in core cycles.
    pub max_latency_cycles: f64,
    /// Mean network power, mW.
    pub avg_power_mw: f64,
    /// Non-power-aware baseline power (all links at max rate), mW.
    pub baseline_power_mw: f64,
    /// `avg_power_mw / baseline_power_mw` — the paper's power metric.
    pub normalized_power: f64,
    /// Bit-rate level transitions issued during the whole run.
    pub transitions: u64,
    /// Packets dropped at sinks by end-to-end corruption detection during
    /// measurement (always 0 with fault injection disabled).
    pub packets_dropped: u64,
    /// Flits belonging to dropped packets during measurement.
    pub flits_dropped: u64,
    /// Flits that reached sinks with the corruption flag set during
    /// measurement.
    pub flits_corrupted: u64,
    /// Link fault windows (outages + laser dropouts) opened during
    /// measurement.
    pub link_faults: u64,
    /// Full latency statistics.
    pub latency_summary: Summary,
    /// Mean latency per sampling bucket over time (empty unless sampled).
    pub latency_series: TimeSeries,
    /// Normalized power per sampling bucket over time.
    pub power_series: TimeSeries,
    /// Injection rate (packets/cycle) per sampling bucket over time.
    pub injection_series: TimeSeries,
    /// Telemetry record (counters + per-link window series); `None`
    /// unless the experiment enabled it via
    /// [`Experiment::telemetry`](crate::Experiment::telemetry).
    pub telemetry: Option<TelemetryReport>,
    /// Provenance: true when this run was resumed from a checkpoint
    /// ([`Experiment::resume`](crate::Experiment::resume)) instead of
    /// simulated unbroken from cycle 0. Resumed runs are bit-identical
    /// to unbroken ones; the flag only records how the result was
    /// produced (harness tables surface it).
    pub resumed: bool,
}

impl RunResult {
    /// The measured injection rate, packets per cycle network-wide.
    pub fn injection_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.packets_injected as f64 / self.cycles as f64
        }
    }

    /// The delivery (accepted-traffic) rate, packets per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.packets_delivered as f64 / self.cycles as f64
        }
    }

    /// The fraction of resolved packets that arrived intact:
    /// `delivered / (delivered + dropped)`. Packets still in flight when
    /// measurement ends are not counted against the ratio. 1.0 when
    /// nothing resolved (or faults are off and nothing is ever dropped).
    pub fn delivery_ratio(&self) -> f64 {
        let resolved = self.packets_delivered + self.packets_dropped;
        if resolved == 0 {
            1.0
        } else {
            self.packets_delivered as f64 / resolved as f64
        }
    }

    /// Latency normalized against a baseline run (the paper's
    /// "normalized average latency").
    ///
    /// # Panics
    ///
    /// Panics if the baseline saw no packets.
    pub fn normalized_latency(&self, baseline: &RunResult) -> f64 {
        assert!(
            baseline.avg_latency_cycles > 0.0,
            "baseline must have measured latency"
        );
        self.avg_latency_cycles / baseline.avg_latency_cycles
    }

    /// The paper's power-latency product, normalized against a baseline
    /// run: `normalized latency × normalized power`.
    pub fn power_latency_product(&self, baseline: &RunResult) -> f64 {
        self.normalized_latency(baseline) * self.normalized_power
    }

    /// Whether this run is saturated relative to a zero-load latency:
    /// the paper defines throughput as the injection rate at which average
    /// latency exceeds twice the zero-load latency.
    pub fn is_saturated(&self, zero_load_latency_cycles: f64) -> bool {
        self.avg_latency_cycles > 2.0 * zero_load_latency_cycles
    }

    /// Extracts the optimizer/export-facing objective vector, rejecting
    /// anything that would poison a numeric consumer: a run that delivered
    /// no packets (its latency statistics are undefined) or any non-finite
    /// metric. Every path that feeds run metrics into search objectives or
    /// serialized numeric output (the `lumen-dse` Pareto JSON, trace
    /// summaries) must go through this instead of reading the raw fields.
    pub fn objectives(&self) -> Result<Objectives, ObjectiveError> {
        if self.packets_delivered == 0 {
            return Err(ObjectiveError::NoPacketsDelivered {
                injected: self.packets_injected,
                dropped: self.packets_dropped,
            });
        }
        let obj = Objectives {
            normalized_power: self.normalized_power,
            avg_latency_cycles: self.avg_latency_cycles,
            p99_latency_cycles: self.p99_latency_cycles,
            p99_saturated: self.p99_saturated,
            delivery_ratio: self.delivery_ratio(),
        };
        for (name, value) in [
            ("normalized_power", obj.normalized_power),
            ("avg_latency_cycles", obj.avg_latency_cycles),
            ("p99_latency_cycles", obj.p99_latency_cycles),
            ("delivery_ratio", obj.delivery_ratio),
        ] {
            if !value.is_finite() {
                return Err(ObjectiveError::NonFinite {
                    metric: name,
                    value,
                });
            }
        }
        Ok(obj)
    }
}

/// The validated objective vector of one run: the metrics a design-space
/// search trades off, guaranteed finite (see [`RunResult::objectives`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Objectives {
    /// `avg_power / baseline_power` — the paper's power metric (lower is
    /// better).
    pub normalized_power: f64,
    /// Mean end-to-end packet latency, core cycles (lower is better).
    pub avg_latency_cycles: f64,
    /// 99th-percentile latency, core cycles (lower is better; a lower
    /// bound when `p99_saturated`).
    pub p99_latency_cycles: f64,
    /// Whether the p99 saturated at the histogram overflow edge.
    pub p99_saturated: bool,
    /// Fraction of resolved packets delivered intact (higher is better;
    /// typically a constraint, not an objective).
    pub delivery_ratio: f64,
}

/// Why a run's metrics cannot be used as search objectives.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectiveError {
    /// The run delivered nothing, so its latency statistics are undefined.
    NoPacketsDelivered {
        /// Packets injected during measurement.
        injected: u64,
        /// Packets dropped during measurement.
        dropped: u64,
    },
    /// A metric came out NaN or infinite.
    NonFinite {
        /// Which metric.
        metric: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ObjectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectiveError::NoPacketsDelivered { injected, dropped } => write!(
                f,
                "run delivered no packets ({injected} injected, {dropped} dropped): \
                 latency objectives are undefined"
            ),
            ObjectiveError::NonFinite { metric, value } => write!(
                f,
                "objective `{metric}` is non-finite ({value}): refusing to emit it \
                 into optimizer state or JSON"
            ),
        }
    }
}

impl std::error::Error for ObjectiveError {}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pkts, latency {:.1} cy (p99 {:.1}), power {:.1} mW ({:.1}% of baseline), {} transitions",
            self.packets_delivered,
            self.avg_latency_cycles,
            self.p99_latency_cycles,
            self.avg_power_mw,
            self.normalized_power * 100.0,
            self.transitions
        )?;
        if self.packets_dropped > 0 || self.link_faults > 0 {
            write!(
                f,
                ", {} dropped / {} faults (delivery {:.4})",
                self.packets_dropped,
                self.link_faults,
                self.delivery_ratio()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(latency: f64, norm_power: f64) -> RunResult {
        RunResult {
            cycles: 1000,
            packets_injected: 500,
            packets_delivered: 480,
            avg_latency_cycles: latency,
            p99_latency_cycles: latency * 3.0,
            p99_saturated: false,
            max_latency_cycles: latency * 5.0,
            avg_power_mw: norm_power * 1000.0,
            baseline_power_mw: 1000.0,
            normalized_power: norm_power,
            transitions: 7,
            packets_dropped: 0,
            flits_dropped: 0,
            flits_corrupted: 0,
            link_faults: 0,
            latency_summary: Summary::new(),
            latency_series: TimeSeries::new("l"),
            power_series: TimeSeries::new("p"),
            injection_series: TimeSeries::new("i"),
            telemetry: None,
            resumed: false,
        }
    }

    #[test]
    fn rates() {
        let r = result(20.0, 0.25);
        assert_eq!(r.injection_rate(), 0.5);
        assert_eq!(r.throughput(), 0.48);
    }

    #[test]
    fn normalization_against_baseline() {
        let pa = result(30.0, 0.25);
        let base = result(20.0, 1.0);
        assert!((pa.normalized_latency(&base) - 1.5).abs() < 1e-12);
        assert!((pa.power_latency_product(&base) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn saturation_definition() {
        let r = result(50.0, 1.0);
        assert!(r.is_saturated(20.0)); // 50 > 2×20
        assert!(!r.is_saturated(30.0)); // 50 < 2×30
    }

    #[test]
    fn display_is_informative() {
        let s = result(20.0, 0.25).to_string();
        assert!(s.contains("480 pkts"));
        assert!(s.contains("25.0% of baseline"));
        // Fault-free runs keep the historical single-line format.
        assert!(!s.contains("dropped"));
    }

    #[test]
    fn objectives_of_a_healthy_run_are_finite() {
        let r = result(20.0, 0.25);
        let o = r.objectives().unwrap();
        assert_eq!(o.normalized_power, 0.25);
        assert_eq!(o.avg_latency_cycles, 20.0);
        assert_eq!(o.p99_latency_cycles, 60.0);
        assert!(!o.p99_saturated);
        assert_eq!(o.delivery_ratio, 1.0);
    }

    #[test]
    fn objectives_reject_no_deliveries() {
        // Empty latency summary: nothing delivered (e.g. every packet
        // dropped by fault corruption) → objectives must refuse, not
        // return 0-latency "wins".
        let mut r = result(0.0, 0.25);
        r.packets_delivered = 0;
        r.packets_dropped = 500;
        let err = r.objectives().unwrap_err();
        assert!(matches!(
            err,
            ObjectiveError::NoPacketsDelivered { dropped: 500, .. }
        ));
        assert!(err.to_string().contains("no packets"));
    }

    #[test]
    fn objectives_reject_non_finite_metrics() {
        for (patch, metric) in [
            (
                &(|r: &mut RunResult| r.p99_latency_cycles = f64::INFINITY)
                    as &dyn Fn(&mut RunResult),
                "p99_latency_cycles",
            ),
            (
                &|r: &mut RunResult| r.avg_latency_cycles = f64::NAN,
                "avg_latency_cycles",
            ),
            (
                &|r: &mut RunResult| r.normalized_power = f64::NAN,
                "normalized_power",
            ),
        ] {
            let mut r = result(20.0, 0.25);
            patch(&mut r);
            match r.objectives() {
                Err(ObjectiveError::NonFinite { metric: m, .. }) => assert_eq!(m, metric),
                other => panic!("expected NonFinite({metric}), got {other:?}"),
            }
        }
    }

    #[test]
    fn saturated_p99_is_an_explicit_finite_bound() {
        let mut r = result(20.0, 0.25);
        r.p99_saturated = true;
        r.p99_latency_cycles = 4096.0; // the overflow edge
        let o = r.objectives().unwrap();
        assert!(o.p99_saturated);
        assert_eq!(o.p99_latency_cycles, 4096.0);
    }

    #[test]
    fn delivery_ratio_counts_only_resolved_packets() {
        let mut r = result(20.0, 0.25);
        assert_eq!(r.delivery_ratio(), 1.0);
        r.packets_dropped = 120;
        assert!((r.delivery_ratio() - 480.0 / 600.0).abs() < 1e-12);
        let s = r.to_string();
        assert!(s.contains("120 dropped"), "{s}");
        r.packets_delivered = 0;
        r.packets_dropped = 0;
        assert_eq!(r.delivery_ratio(), 1.0, "vacuous ratio is 1");
    }
}
