//! Deterministic, low-overhead tracing and metrics for power-aware runs.
//!
//! The paper's argument is about *seeing* where the power goes — Table 2's
//! component breakdown and the §3.3 policy's `Lu`/`Bu` window dynamics.
//! This module records exactly those quantities without perturbing the
//! simulation:
//!
//! - a [`MetricsRegistry`] of end-of-run counters (allocations won/lost,
//!   corrupted flits dropped, rate-ladder transitions, laser-bank
//!   switches, …), each one a sum over state the simulator already keeps;
//! - a per-link time series of [`LinkWindowRow`]s sampled at every policy
//!   window boundary: `Lu`, the predictor's smoothed `Lu`, `Bu`, the
//!   current bit rate, electrical power, energy accrued since the previous
//!   window, and the §2 component-level power breakdown;
//! - a schema-versioned JSONL/CSV exporter ([`TelemetryReport::to_jsonl`]
//!   and [`TelemetryReport::to_csv`]) used by the bench `--trace` flag.
//!
//! Telemetry is purely observational: it draws no random numbers, schedules
//! no events, and reads only values the policy path already computes, so a
//! telemetry-on run is bit-identical (packets, latency, energy) to a
//! telemetry-off run. Under sharding, each shard records rows for the links
//! it owns and the merge step concatenates them; rows are then sorted by
//! `(time, link id)`, which reproduces the sequential engine's emission
//! order exactly, so `--shards 1` and `--shards 2` traces are
//! byte-identical. See `DESIGN.md` §6d and `OBSERVABILITY.md`.

use serde::{Deserialize, Serialize, Sink, Source, Token};
use std::collections::VecDeque;
use std::io::{self, Write};

/// Version tag stamped into every trace header. Bump when a field is
/// added, removed, or changes meaning (see `OBSERVABILITY.md`).
pub const TRACE_SCHEMA: &str = "lumen-trace/1";

/// What the telemetry subsystem records. The default is fully disabled,
/// which costs one branch per policy window and nothing on the flit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Collect the end-of-run [`MetricsRegistry`].
    pub counters: bool,
    /// Record a [`LinkWindowRow`] per link per policy window.
    pub link_series: bool,
    /// Window-series retention: `Some(n)` keeps the most recent `n`
    /// policy windows at full resolution and decimates older windows
    /// with stride doubling (every window, then every 2nd, 4th, …), so
    /// collector memory stays flat (≤ `2n` windows of rows) at any run
    /// horizon. Decimated rows are flagged
    /// ([`LinkWindowRow::decimated`]) in exports. `None` (the default)
    /// keeps every window, and exports stay byte-identical to every
    /// pre-retention trace. Retained runs execute on the sequential
    /// engine (see `CHECKPOINTS.md`).
    pub retain_windows: Option<u32>,
}

impl TelemetryConfig {
    /// Everything on: counters and the per-link window series.
    pub fn full() -> Self {
        TelemetryConfig {
            counters: true,
            link_series: true,
            retain_windows: None,
        }
    }

    /// True if any recording is enabled.
    pub fn enabled(&self) -> bool {
        self.counters || self.link_series
    }
}

/// One per-link sample taken at a policy window boundary.
///
/// Rows are emitted when a window closes (every `Tw`, §3.3), plus one
/// final `closing` row per link at the end of measurement so the energy
/// column telescopes to the run's total measured energy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkWindowRow {
    /// Router-cycle index at which the window closed.
    pub cycle: u64,
    /// Simulation time of the window boundary, picoseconds.
    pub t_ps: u64,
    /// Link id (stable across shard counts).
    pub link: u32,
    /// True only for the synthetic end-of-measurement row.
    pub closing: bool,
    /// Raw link utilization `Lu` for this window (Eq. 10).
    pub lu: f64,
    /// The predictor's smoothed utilization (sliding mean of Eq. 11 or
    /// EWMA), i.e. the value the threshold comparison actually used.
    pub lu_avg: f64,
    /// Downstream buffer utilization `Bu` (DVS policy only; 0 otherwise).
    pub bu: f64,
    /// Bit rate the link is running at, Gb/s.
    pub rate_gbps: f64,
    /// Electrical power currently drawn, mW (0 when power-gated off).
    pub power_mw: f64,
    /// Energy accrued since this link's previous row, nJ. Summing this
    /// column over all rows yields the run's total measured energy.
    pub energy_nj: f64,
    /// Component-level §2 power breakdown at the link's current operating
    /// point, mW, in the order named by [`TelemetryReport::components`].
    /// Note: for an on/off-gated link this is the breakdown at the
    /// *operating point*, while `power_mw` reflects gating (0 when off).
    pub components_mw: Vec<f64>,
    /// True when window-series retention
    /// ([`TelemetryConfig::retain_windows`]) dropped neighboring windows
    /// around this row: the row is one surviving sample of a decimated
    /// stretch, not a dense series point. Always false when retention is
    /// disabled, and the field is then omitted from JSONL exports so
    /// default-config traces stay byte-identical across versions.
    pub decimated: bool,
}

/// End-of-run counters. Every field is a sum over state the simulator
/// keeps anyway; collection costs one pass at report time.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    /// Discrete events processed by the engine. **Shard-dependent**: core
    /// ticks and laser decisions are replicated per shard replica, so this
    /// is excluded from exported traces (which must be shard-invariant).
    pub events: u64,
    /// Packets delivered to sinks during measurement and warmup.
    pub packets_delivered: u64,
    /// Packets dropped (all flits lost to faults).
    pub packets_dropped: u64,
    /// Flits injected at sources.
    pub flits_injected: u64,
    /// Flits dropped at sinks.
    pub flits_dropped: u64,
    /// Corrupted flits detected and dropped at sinks (BER model, §2.2.1).
    pub flits_corrupted: u64,
    /// Flits that completed traversal of some link.
    pub flits_sent: u64,
    /// Switch allocations won (flits that traversed a crossbar).
    pub alloc_won: u64,
    /// Switch allocation requests denied (link busy or lost arbitration).
    pub alloc_lost: u64,
    /// Rate-ladder transitions actually applied to links.
    pub rate_changes: u64,
    /// DVS policy windows in which a controller made a decision (§3.3).
    pub dvs_decisions: u64,
    /// DVS decisions to step the bit rate up.
    pub dvs_ups: u64,
    /// DVS decisions to step the bit rate down.
    pub dvs_downs: u64,
    /// On/off policy: links gated off.
    pub onoff_sleeps: u64,
    /// On/off policy: links woken (each pays the relock penalty).
    pub onoff_wakes: u64,
    /// Laser source controller: expedited power increases (`Pinc`, §3.2).
    pub laser_pincs: u64,
    /// Laser source controller: lazy power decreases (`Pdec`, §3.2).
    pub laser_pdecs: u64,
    /// Link-fault events injected by the fault plan.
    pub faults_injected: u64,
}

/// A complete telemetry record for one run, embedded in `RunResult` and
/// exportable as schema-versioned JSONL or CSV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Trace schema version ([`TRACE_SCHEMA`]).
    pub schema: String,
    /// Policy window length in router cycles (`Tw`).
    pub tw_cycles: u64,
    /// Number of links in the network.
    pub links: u32,
    /// Component names, in `components_mw` column order.
    pub components: Vec<String>,
    /// Per-link window series, sorted by `(t_ps, link)`.
    pub rows: Vec<LinkWindowRow>,
    /// End-of-run counters (empty/default if `counters` was off).
    pub counters: MetricsRegistry,
    /// End-of-measurement time, picoseconds.
    pub end_t_ps: u64,
    /// Total measured energy, nJ (the same number `RunResult` reports).
    pub energy_nj: f64,
}

/// Renders a report into memory through one of its writers.
fn render(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    write(&mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("the renderers write UTF-8")
}

// Floats print in shortest-round-trip form (`{:?}`), matching the
// vendored `serde_json` printer, so traces and `RunResult` JSON agree
// bit-for-bit.
impl TelemetryReport {
    /// Renders the report as JSON Lines: a `header` record, one `window`
    /// record per row, a `counters` record, and an `end` record.
    ///
    /// The `events` counter is deliberately omitted: it depends on the
    /// shard count (replicated tick events), and exported traces are
    /// required to be byte-identical across shard counts.
    pub fn to_jsonl(&self) -> String {
        render(|out| self.write_jsonl(out))
    }

    /// Writes the [`Self::to_jsonl`] records into `out`.
    ///
    /// # Errors
    ///
    /// Fails if writing to `out` fails.
    pub fn write_jsonl<W: Write>(&self, out: &mut W) -> io::Result<()> {
        write!(
            out,
            "{{\"kind\":\"header\",\"schema\":\"{}\",\"tw_cycles\":{},\"links\":{},\"components\":[",
            self.schema, self.tw_cycles, self.links,
        )?;
        for (i, c) in self.components.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(out, "{sep}\"{c}\"")?;
        }
        writeln!(out, "]}}")?;
        for r in &self.rows {
            write!(
                out,
                "{{\"kind\":\"window\",\"cycle\":{},\"t_ps\":{},\"link\":{},\"closing\":{},\"lu\":{:?},\"lu_avg\":{:?},\"bu\":{:?},\"rate_gbps\":{:?},\"power_mw\":{:?},\"energy_nj\":{:?},\"components_mw\":[",
                r.cycle,
                r.t_ps,
                r.link,
                r.closing,
                r.lu,
                r.lu_avg,
                r.bu,
                r.rate_gbps,
                r.power_mw,
                r.energy_nj,
            )?;
            for (i, c) in r.components_mw.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                write!(out, "{sep}{c:?}")?;
            }
            // The `decimated` marker appears only on decimated rows, so
            // retention-off traces stay byte-identical to schema 1
            // traces that predate the field.
            let decimated = if r.decimated {
                ",\"decimated\":true"
            } else {
                ""
            };
            writeln!(out, "]{decimated}}}")?;
        }
        let c = &self.counters;
        writeln!(
            out,
            "{{\"kind\":\"counters\",\"packets_delivered\":{},\"packets_dropped\":{},\"flits_injected\":{},\"flits_dropped\":{},\"flits_corrupted\":{},\"flits_sent\":{},\"alloc_won\":{},\"alloc_lost\":{},\"rate_changes\":{},\"dvs_decisions\":{},\"dvs_ups\":{},\"dvs_downs\":{},\"onoff_sleeps\":{},\"onoff_wakes\":{},\"laser_pincs\":{},\"laser_pdecs\":{},\"faults_injected\":{}}}",
            c.packets_delivered,
            c.packets_dropped,
            c.flits_injected,
            c.flits_dropped,
            c.flits_corrupted,
            c.flits_sent,
            c.alloc_won,
            c.alloc_lost,
            c.rate_changes,
            c.dvs_decisions,
            c.dvs_ups,
            c.dvs_downs,
            c.onoff_sleeps,
            c.onoff_wakes,
            c.laser_pincs,
            c.laser_pdecs,
            c.faults_injected,
        )?;
        writeln!(
            out,
            "{{\"kind\":\"end\",\"t_ps\":{},\"energy_nj\":{:?}}}",
            self.end_t_ps, self.energy_nj
        )
    }

    /// Renders the window series as CSV (no counters; use JSONL for the
    /// full record). The header names the component columns.
    pub fn to_csv(&self) -> String {
        render(|out| self.write_csv(out, None, true))
    }

    /// Writes the [`Self::to_csv`] rows into `out`, after the header line
    /// if `header` is set. With a `label`, every line gains a first
    /// column: `label` in the header, the label itself in the rows.
    ///
    /// # Errors
    ///
    /// Fails if writing to `out` fails.
    pub fn write_csv<W: Write>(
        &self,
        out: &mut W,
        label: Option<&str>,
        header: bool,
    ) -> io::Result<()> {
        if header {
            if label.is_some() {
                write!(out, "label,")?;
            }
            write!(
                out,
                "cycle,t_ps,link,closing,lu,lu_avg,bu,rate_gbps,power_mw,energy_nj"
            )?;
            for c in &self.components {
                write!(out, ",{}_mw", c.replace(' ', "_").to_lowercase())?;
            }
            writeln!(out)?;
        }
        for r in &self.rows {
            if let Some(label) = label {
                write!(out, "{label},")?;
            }
            write!(
                out,
                "{},{},{},{},{:?},{:?},{:?},{:?},{:?},{:?}",
                r.cycle,
                r.t_ps,
                r.link,
                r.closing,
                r.lu,
                r.lu_avg,
                r.bu,
                r.rate_gbps,
                r.power_mw,
                r.energy_nj,
            )?;
            for c in &r.components_mw {
                write!(out, ",{c:?}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// Sum of the `energy_nj` column — telescopes to [`Self::energy_nj`]
    /// (within float-summation noise; the acceptance bound is 1e-9
    /// relative).
    pub fn rows_energy_nj(&self) -> f64 {
        self.rows.iter().map(|r| r.energy_nj).sum()
    }
}

/// Windowed downsampling state for the link series: the most recent
/// `cap` policy windows are kept at full resolution; windows evicted
/// from that dense tail are retained with stride doubling over the
/// eviction stream, so total memory is bounded by `2·cap` windows of
/// rows. Retention is a pure function of the absolute window index,
/// which makes a retained run split at any checkpoint boundary keep
/// exactly the rows the unbroken run keeps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RowRetention {
    /// Dense-tail window count; also the decimated region's cap.
    cap: usize,
    /// Current eviction-stream keep stride (1, 2, 4, …).
    stride: u64,
    /// Windows evicted from the dense tail so far.
    evicted: u64,
    /// The dense tail: `(window cycle, that window's rows)`.
    recent: VecDeque<(u64, Vec<LinkWindowRow>)>,
    /// Decimated older windows, in eviction order: entry `j` holds the
    /// window with eviction index `j · stride`.
    old: Vec<Vec<LinkWindowRow>>,
}

impl RowRetention {
    fn new(cap: usize) -> Self {
        RowRetention {
            cap: cap.max(2),
            stride: 1,
            evicted: 0,
            recent: VecDeque::new(),
            old: Vec::new(),
        }
    }

    /// Accepts one non-closing row, grouping rows into windows by their
    /// closing cycle and evicting/decimating as the caps fill.
    fn push(&mut self, row: LinkWindowRow) {
        match self.recent.back_mut() {
            Some((cycle, rows)) if *cycle == row.cycle => rows.push(row),
            _ => {
                self.recent.push_back((row.cycle, vec![row]));
                if self.recent.len() > self.cap {
                    let (_, window) = self.recent.pop_front().expect("non-empty");
                    let index = self.evicted;
                    self.evicted += 1;
                    if index % self.stride == 0 {
                        self.old.push(window);
                        while self.old.len() > self.cap {
                            // Keep even eviction ordinals; the stride
                            // doubles, restoring the invariant that
                            // entry j has eviction index j·stride.
                            let mut keep = 0;
                            for j in (0..self.old.len()).step_by(2) {
                                self.old.swap(keep, j);
                                keep += 1;
                            }
                            self.old.truncate(keep);
                            self.stride *= 2;
                        }
                    }
                }
            }
        }
    }

    /// Flattens the retained windows into one row list, flagging the
    /// decimated region when eviction gaps exist (`stride > 1`).
    fn into_rows(self) -> Vec<LinkWindowRow> {
        let decimated = self.stride > 1;
        let mut out = Vec::new();
        for window in self.old {
            for mut row in window {
                row.decimated = decimated;
                out.push(row);
            }
        }
        for (_, window) in self.recent {
            out.extend(window);
        }
        out
    }
}

/// Per-run (or per-shard) recording state. Rows accumulate here during the
/// run; [`crate::PowerAwareSim::take_telemetry_report`] turns the merged
/// collector into a [`TelemetryReport`].
#[derive(Debug, Clone)]
pub(crate) struct TelemetryCollector {
    /// What to record.
    pub config: TelemetryConfig,
    /// False during warmup; `begin_measurement` flips it on.
    pub active: bool,
    /// Window rows recorded so far (per-shard local until merge). With
    /// retention enabled this holds only the closing flush rows; the
    /// window series lives in `retention`.
    pub rows: Vec<LinkWindowRow>,
    /// Per-link energy at the previous row, for delta computation.
    pub last_energy_nj: Vec<f64>,
    /// `Some` when [`TelemetryConfig::retain_windows`] bounds the series.
    pub retention: Option<RowRetention>,
}

impl TelemetryCollector {
    pub fn new(config: TelemetryConfig, links: usize) -> Self {
        TelemetryCollector {
            config,
            active: false,
            rows: Vec::new(),
            last_energy_nj: vec![0.0; links],
            retention: config.retain_windows.map(|cap| RowRetention::new(cap as usize)),
        }
    }

    /// Arms recording and zeroes the energy baselines; called by
    /// `begin_measurement` so warmup windows are not recorded.
    pub fn reset(&mut self) {
        self.active = true;
        self.rows.clear();
        for e in &mut self.last_energy_nj {
            *e = 0.0;
        }
        self.retention = self
            .config
            .retain_windows
            .map(|cap| RowRetention::new(cap as usize));
    }

    /// Accepts one row, routing non-closing rows through the retention
    /// window when enabled. Closing flush rows are always kept: the
    /// energy column must telescope to the measured total.
    pub fn push_row(&mut self, row: LinkWindowRow) {
        match &mut self.retention {
            Some(r) if !row.closing => r.push(row),
            _ => self.rows.push(row),
        }
    }

    /// Drains every retained row, unordered (the report sorts).
    pub fn take_rows(&mut self) -> Vec<LinkWindowRow> {
        let mut out = match self.retention.take() {
            Some(r) => r.into_rows(),
            None => Vec::new(),
        };
        out.append(&mut self.rows);
        out
    }

    /// Restores the state the collector's [`Serialize`] impl wrote,
    /// reading the checkpoint stream in place. The saved retention must
    /// be this run's ([`TelemetryConfig::retain_windows`], as the cap it
    /// becomes): a resumed run that adopted another retention would
    /// silently export a different trace than either run asked for.
    pub fn restore<S: Source>(&mut self, src: &mut S) -> Result<(), serde::Error> {
        const TY: &str = "TelemetryCollector";
        src.map_of(4, TY)?;
        self.active = src.field("active", TY)?;
        self.rows = src.field("rows", TY)?;
        src.field_into("last_energy_nj", &mut self.last_energy_nj, TY)?;
        let retention: Option<RowRetention> = src.field("retention", TY)?;
        let saved = retention.as_ref().map(|r| r.cap);
        let here = self.config.retain_windows.map(|n| (n as usize).max(2));
        if saved != here {
            let describe = |cap: Option<usize>| match cap {
                Some(cap) => format!("a {cap}-window retention cap"),
                None => "no retention cap (every window kept)".to_string(),
            };
            return Err(serde::Error::custom(format!(
                "telemetry retention differs: the checkpoint has {}, this run has {}",
                describe(saved),
                describe(here)
            )));
        }
        self.retention = retention;
        Ok(())
    }
}

/// The collector's mutable state, the `telemetry` entry of a checkpoint's
/// `sim` section. Its configuration is rebuilt from the resuming run, not
/// stored: the file records neither `counters` nor `link_series`.
impl Serialize for TelemetryCollector {
    fn serialize<S: Sink>(&self, out: &mut S) {
        out.token(Token::Map(4));
        out.field("active", &self.active);
        out.field("rows", &self.rows);
        out.field("last_energy_nj", &self.last_energy_nj);
        out.field("retention", &self.retention);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TelemetryReport {
        TelemetryReport {
            schema: TRACE_SCHEMA.to_string(),
            tw_cycles: 200,
            links: 2,
            components: vec!["VCSEL".to_string(), "CDR".to_string()],
            rows: vec![
                LinkWindowRow {
                    cycle: 200,
                    t_ps: 31_840,
                    link: 0,
                    closing: false,
                    lu: 0.5,
                    lu_avg: 0.25,
                    bu: 0.1,
                    rate_gbps: 10.0,
                    power_mw: 290.0,
                    energy_nj: 9.2336,
                    components_mw: vec![17.0, 150.0],
                    decimated: false,
                },
                LinkWindowRow {
                    cycle: 400,
                    t_ps: 63_840,
                    link: 0,
                    closing: true,
                    lu: 0.0,
                    lu_avg: 0.0,
                    bu: 0.0,
                    rate_gbps: 5.0,
                    power_mw: 60.0,
                    energy_nj: 1.5,
                    components_mw: vec![8.5, 18.75],
                    decimated: false,
                },
            ],
            counters: MetricsRegistry {
                events: 12,
                packets_delivered: 3,
                ..MetricsRegistry::default()
            },
            end_t_ps: 63_840,
            energy_nj: 10.7336,
        }
    }

    #[test]
    fn jsonl_lines_parse_and_version() {
        let rep = sample_report();
        let text = rep.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        // header + windows + counters + end
        assert_eq!(lines.len(), 3 + rep.rows.len());
        assert!(lines[0].contains("\"schema\":\"lumen-trace/1\""));
        for line in &lines {
            let v: serde::Value = serde_json::from_str(line).expect("valid JSON line");
            match v {
                serde::Value::Map(_) => {}
                other => panic!("expected object, got {other:?}"),
            }
        }
        // The shard-dependent event counter must not leak into the trace.
        assert!(!text.contains("\"events\""));
        assert!(lines.last().unwrap().contains("\"kind\":\"end\""));
    }

    #[test]
    fn csv_has_component_columns_and_rows() {
        let rep = sample_report();
        let csv = rep.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.ends_with("vcsel_mw,cdr_mw"), "{header}");
        assert_eq!(lines.count(), rep.rows.len());
    }

    #[test]
    fn rows_energy_telescopes() {
        let rep = sample_report();
        assert!((rep.rows_energy_nj() - rep.energy_nj).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_through_json() {
        let rep = sample_report();
        let s = serde_json::to_string(&rep).unwrap();
        let back: TelemetryReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn config_enabled() {
        assert!(!TelemetryConfig::default().enabled());
        assert!(TelemetryConfig::full().enabled());
        assert!(TelemetryConfig {
            counters: true,
            link_series: false,
            retain_windows: None,
        }
        .enabled());
    }

    #[test]
    fn collector_reset_arms_and_clears() {
        let mut c = TelemetryCollector::new(TelemetryConfig::full(), 3);
        assert!(!c.active);
        c.rows.push(sample_report().rows[0].clone());
        c.last_energy_nj[1] = 4.0;
        c.reset();
        assert!(c.active);
        assert!(c.rows.is_empty());
        assert_eq!(c.last_energy_nj, vec![0.0; 3]);
    }

    /// One minimal non-closing row for window `cycle`, link `link`.
    fn row(cycle: u64, link: u32) -> LinkWindowRow {
        LinkWindowRow {
            cycle,
            t_ps: cycle * 160,
            link,
            closing: false,
            lu: 0.0,
            lu_avg: 0.0,
            bu: 0.0,
            rate_gbps: 10.0,
            power_mw: 0.0,
            energy_nj: 0.0,
            components_mw: Vec::new(),
            decimated: false,
        }
    }

    fn retained_config(cap: u32) -> TelemetryConfig {
        TelemetryConfig {
            counters: true,
            link_series: true,
            retain_windows: Some(cap),
        }
    }

    /// Streams `from`'s checkpoint state into `into` through the byte
    /// codec.
    fn transfer(
        from: &TelemetryCollector,
        into: &mut TelemetryCollector,
    ) -> Result<(), crate::CheckpointError> {
        let bytes = crate::checkpoint::to_bytes(from);
        let mut reader = crate::checkpoint::Reader::from_slice(&bytes)?;
        reader.read(|src| into.restore(src))?;
        reader.finish()
    }

    #[test]
    fn retention_keeps_everything_below_cap() {
        let mut c = TelemetryCollector::new(retained_config(8), 2);
        for w in 1..=6u64 {
            for l in 0..2 {
                c.push_row(row(w * 200, l));
            }
        }
        let rows = c.take_rows();
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| !r.decimated));
    }

    /// Rows the collector holds: the windowed series plus closing rows.
    fn retained_rows(c: &TelemetryCollector) -> usize {
        let windowed = c.retention.as_ref().map_or(0, |r| {
            r.old.iter().map(Vec::len).sum::<usize>()
                + r.recent.iter().map(|(_, w)| w.len()).sum::<usize>()
        });
        windowed + c.rows.len()
    }

    #[test]
    fn retention_bounds_memory_and_marks_decimated() {
        let cap = 8u32;
        let mut c = TelemetryCollector::new(retained_config(cap), 1);
        for w in 1..=1_000u64 {
            c.push_row(row(w * 200, 0));
            assert!(
                retained_rows(&c) <= 2 * cap as usize,
                "window {w}: {} rows retained",
                retained_rows(&c)
            );
        }
        let rows = c.take_rows();
        assert!(rows.len() <= 2 * cap as usize);
        // The most recent `cap` windows are dense and unflagged.
        let dense: Vec<u64> = rows
            .iter()
            .filter(|r| !r.decimated)
            .map(|r| r.cycle)
            .collect();
        assert_eq!(
            dense,
            (993..=1_000).map(|w| w * 200).collect::<Vec<u64>>()
        );
        // Older surviving rows are flagged and strictly ordered.
        let old: Vec<u64> = rows
            .iter()
            .filter(|r| r.decimated)
            .map(|r| r.cycle)
            .collect();
        assert!(!old.is_empty());
        assert!(old.windows(2).all(|p| p[0] < p[1]));
        assert!(*old.last().unwrap() < 993 * 200);
    }

    #[test]
    fn retention_is_a_function_of_the_window_stream() {
        // Feeding the same stream through a collector that was
        // checkpoint-round-tripped midway yields identical survivors —
        // the property the split-run differential relies on.
        let feed = |c: &mut TelemetryCollector, range: std::ops::Range<u64>| {
            for w in range {
                c.push_row(row(w * 200, 0));
            }
        };
        let mut unbroken = TelemetryCollector::new(retained_config(4), 1);
        feed(&mut unbroken, 1..300);

        let mut first = TelemetryCollector::new(retained_config(4), 1);
        feed(&mut first, 1..137);
        let mut second = TelemetryCollector::new(retained_config(4), 1);
        transfer(&first, &mut second).unwrap();
        feed(&mut second, 137..300);

        assert_eq!(unbroken.take_rows(), second.take_rows());
    }

    #[test]
    fn retention_always_keeps_closing_rows() {
        let mut c = TelemetryCollector::new(retained_config(2), 1);
        for w in 1..=50u64 {
            c.push_row(row(w * 200, 0));
        }
        let mut closing = row(51 * 200, 0);
        closing.closing = true;
        c.push_row(closing.clone());
        let rows = c.take_rows();
        assert!(rows.iter().any(|r| r.closing));
    }

    #[test]
    fn collector_restore_rejects_link_count_mismatch() {
        let c = TelemetryCollector::new(retained_config(4), 3);
        let mut other = TelemetryCollector::new(retained_config(4), 5);
        assert!(transfer(&c, &mut other).is_err());
    }

    #[test]
    fn collector_restore_rejects_a_different_retention() {
        let saved = TelemetryCollector::new(retained_config(4), 2);
        let mut same_cap = TelemetryCollector::new(retained_config(4), 2);
        transfer(&saved, &mut same_cap).expect("same retention");
        // Caps below two behave as two, so they are the same retention.
        let mut one = TelemetryCollector::new(retained_config(1), 2);
        transfer(&TelemetryCollector::new(retained_config(2), 2), &mut one).expect("both cap 2");
        for here in [TelemetryConfig::full(), retained_config(8)] {
            let mut other = TelemetryCollector::new(here, 2);
            let err = transfer(&saved, &mut other).expect_err("retention differs");
            assert!(err.to_string().contains("4-window retention cap"), "{err}");
        }
    }
}
