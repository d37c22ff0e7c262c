//! Deterministic link fault injection.
//!
//! Real opto-electronic plants lose links: connectors flex, fibers kink,
//! and — on modulator-based systems — the shared external laser's delivered
//! light sags when a splitter-tree branch degrades. This module models two
//! fault classes as seed-derived stochastic schedules:
//!
//! - **Outages**: a link goes completely dark for a stretch. The link is
//!   disabled (no flits launch), traffic queues upstream, and the policy
//!   layer pins the link to its safe bottom rate so that service resumes
//!   conservatively when light returns.
//! - **Laser dropouts** (MQW-modulator systems only): delivered optical
//!   power collapses to a fraction of nominal while the link keeps
//!   running. Flits launched during the dropout are corrupted with a
//!   probability derived from the receiver-sensitivity BER model at the
//!   link's *current* bit rate — which is exactly why pinning a faulted
//!   link to 5 Gb/s rescues the delivery ratio: the same starved light
//!   closes the slower eye.
//!
//! Schedules are derived from the master seed through the reserved
//! `FAULT_STREAM`, with three independent sub-streams per link (outage
//! arrivals, dropout arrivals, per-flit corruption draws), so fault
//! timelines are bit-identical across runs, across `--jobs` levels, and
//! unperturbed by how much traffic happens to flow. With faults disabled
//! the plan is never constructed and no RNG is ever drawn: every existing
//! result stays bit-identical.

use crate::exec::derive_seed;
use lumen_desim::{Picos, Rng};
use lumen_opto::optics::{ExternalLaserSource, OpticalLevel};
use lumen_opto::sensitivity::SensitivityModel;
use lumen_opto::{Decibels, Gbps, MicroWatts};
use serde::{Deserialize, Serialize, Sink, Source, Token};

/// The reserved seed-derivation stream for fault schedules.
///
/// [`crate::exec`] reserves `u64::MAX` for self-similar traffic sources;
/// faults take the next value down so fault timelines never collide with
/// traffic randomness or executor point streams.
pub(crate) const FAULT_STREAM: u64 = u64::MAX - 1;

/// Which fault class an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The link goes completely dark: disabled for the fault's duration.
    Outage,
    /// Delivered optical power sags to
    /// [`FaultConfig::dropout_light_fraction`] of nominal; flits launched
    /// during the window risk corruption.
    LaserDropout,
}

/// Configuration of the fault-injection layer.
///
/// Mean times are in router-core cycles. A mean-time-between-faults of 0
/// disables that fault class; [`FaultConfig::disabled`] (the
/// [`Default`]) disables everything and is guaranteed to leave the
/// simulation bit-identical to a build without fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Mean cycles between outage onsets per link (exponential), 0 = off.
    pub outage_mtbf_cycles: u64,
    /// Mean outage duration in cycles (exponential, minimum 1).
    pub outage_mean_duration_cycles: u64,
    /// Mean cycles between laser-dropout onsets per link, 0 = off.
    /// Dropouts only apply to MQW-modulator (external-laser) systems.
    pub dropout_mtbf_cycles: u64,
    /// Mean dropout duration in cycles (exponential, minimum 1).
    pub dropout_mean_duration_cycles: u64,
    /// Fraction of nominal optical power delivered during a dropout,
    /// in `[0, 1]`.
    pub dropout_light_fraction: f64,
    /// Fiber + modulator insertion loss between the laser's leaf and the
    /// receiver, in dB, used to compute the nominal received power.
    pub path_loss_db: f64,
}

impl FaultConfig {
    /// No faults at all. The simulation behaves bit-identically to one
    /// with no fault machinery: no events scheduled, no RNG drawn.
    pub fn disabled() -> Self {
        FaultConfig {
            outage_mtbf_cycles: 0,
            outage_mean_duration_cycles: 0,
            dropout_mtbf_cycles: 0,
            dropout_mean_duration_cycles: 0,
            dropout_light_fraction: 0.1,
            path_loss_db: 3.0,
        }
    }

    /// Whether any fault class is active.
    pub(crate) fn enabled(&self) -> bool {
        self.outages_enabled() || self.dropouts_enabled()
    }

    /// Whether link outages are active.
    pub(crate) fn outages_enabled(&self) -> bool {
        self.outage_mtbf_cycles > 0
    }

    /// Whether laser dropouts are active (still gated on the transmitter
    /// technology by the simulation: VCSEL links have no shared laser).
    pub(crate) fn dropouts_enabled(&self) -> bool {
        self.dropout_mtbf_cycles > 0
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if an enabled fault class has a zero mean duration, the
    /// light fraction falls outside `[0, 1]`, or the path loss is
    /// negative or non-finite.
    pub(crate) fn validate(&self) {
        if self.outages_enabled() {
            assert!(
                self.outage_mean_duration_cycles > 0,
                "outages need a positive mean duration"
            );
        }
        if self.dropouts_enabled() {
            assert!(
                self.dropout_mean_duration_cycles > 0,
                "dropouts need a positive mean duration"
            );
        }
        assert!(
            (0.0..=1.0).contains(&self.dropout_light_fraction),
            "dropout light fraction {} must be in [0, 1]",
            self.dropout_light_fraction
        );
        assert!(
            self.path_loss_db.is_finite() && self.path_loss_db >= 0.0,
            "path loss {} dB must be finite and non-negative",
            self.path_loss_db
        );
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// The live fault state: per-link schedules, active windows, and the
/// corruption model.
///
/// The plan is passive — the simulation asks it *when* the next fault of
/// each kind begins, tells it when begin/end events fire, and queries
/// per-flit corruption during active dropouts. All draws come from
/// per-link sub-streams of the master seed's [`FAULT_STREAM`].
#[derive(Debug, Clone)]
pub(crate) struct FaultPlan {
    config: FaultConfig,
    cycle: Picos,
    outage_rng: Vec<Rng>,
    dropout_rng: Vec<Rng>,
    corruption_rng: Vec<Rng>,
    outage_until: Vec<Picos>,
    dropout_until: Vec<Picos>,
    faults_injected: u64,
    sensitivity: SensitivityModel,
    /// Received power with healthy light, after path loss, µW.
    nominal_uw: f64,
    flit_bits: u32,
}

impl FaultPlan {
    /// Builds a plan for `link_count` links from the master `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or entirely disabled (a
    /// disabled configuration must not construct a plan — that is what
    /// keeps the no-fault path bit-identical).
    pub fn new(
        config: &FaultConfig,
        seed: u64,
        link_count: usize,
        cycle: Picos,
        flit_bits: u32,
    ) -> FaultPlan {
        config.validate();
        assert!(config.enabled(), "a disabled FaultConfig builds no plan");
        let base = Rng::seed_from(derive_seed(seed, FAULT_STREAM));
        let stream = |k: u64| {
            (0..link_count)
                .map(|l| base.derive(3 * l as u64 + k))
                .collect::<Vec<_>>()
        };
        let nominal = ExternalLaserSource::paper_default()
            .power_at_link(OpticalLevel::High)
            .attenuate(Decibels::from_db(config.path_loss_db));
        FaultPlan {
            config: *config,
            cycle,
            outage_rng: stream(0),
            dropout_rng: stream(1),
            corruption_rng: stream(2),
            outage_until: vec![Picos::ZERO; link_count],
            dropout_until: vec![Picos::ZERO; link_count],
            faults_injected: 0,
            sensitivity: SensitivityModel::paper_default(),
            nominal_uw: nominal.as_uw(),
            flit_bits,
        }
    }

    /// Total fault windows begun so far (outages + dropouts, all links).
    pub(crate) fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    fn draw_cycles(rng: &mut Rng, mean: u64) -> u64 {
        (rng.exponential(mean as f64).round() as u64).max(1)
    }

    /// Draws when the next `kind` fault on `link` begins, measured from
    /// `from`.
    pub(crate) fn next_begin(&mut self, from: Picos, link: usize, kind: FaultKind) -> Picos {
        let (rng, mtbf) = match kind {
            FaultKind::Outage => (&mut self.outage_rng[link], self.config.outage_mtbf_cycles),
            FaultKind::LaserDropout => {
                (&mut self.dropout_rng[link], self.config.dropout_mtbf_cycles)
            }
        };
        from + self.cycle * Self::draw_cycles(rng, mtbf)
    }

    /// Starts a `kind` fault on `link` at `now`. Returns the fault's end
    /// time and whether the link was previously fault-free (the edge on
    /// which the policy layer pins the link to its safe rate).
    pub(crate) fn begin(&mut self, now: Picos, link: usize, kind: FaultKind) -> (Picos, bool) {
        let was_clear = !self.is_faulted(link, now);
        let (rng, mean, slot) = match kind {
            FaultKind::Outage => (
                &mut self.outage_rng[link],
                self.config.outage_mean_duration_cycles,
                &mut self.outage_until[link],
            ),
            FaultKind::LaserDropout => (
                &mut self.dropout_rng[link],
                self.config.dropout_mean_duration_cycles,
                &mut self.dropout_until[link],
            ),
        };
        let until = now + self.cycle * Self::draw_cycles(rng, mean);
        *slot = until;
        self.faults_injected += 1;
        (until, was_clear)
    }

    /// Ends a `kind` fault on `link` at `now`. Returns when the next
    /// fault of the same kind begins and whether the link is now entirely
    /// fault-free (the edge on which the policy layer unpins it).
    pub(crate) fn end(&mut self, now: Picos, link: usize, kind: FaultKind) -> (Picos, bool) {
        let next = self.next_begin(now, link, kind);
        (next, !self.is_faulted(link, now))
    }

    /// Whether any fault window is active on `link` at `now`.
    pub(crate) fn is_faulted(&self, link: usize, now: Picos) -> bool {
        now < self.outage_until[link] || now < self.dropout_until[link]
    }

    /// Whether a laser dropout is active on `link` at `now`.
    pub(crate) fn dropout_active(&self, link: usize, now: Picos) -> bool {
        now < self.dropout_until[link]
    }

    /// When the current outage window on `link` ends ([`Picos::ZERO`] if
    /// none is active). Used to re-disable a link that a power-gating
    /// wake would otherwise re-enable mid-outage.
    pub(crate) fn outage_until(&self, link: usize) -> Picos {
        self.outage_until[link]
    }

    /// Probability that one flit launched at bit rate `rate` during an
    /// active dropout suffers at least one bit error, per the
    /// receiver-sensitivity BER model under the dropout's starved light.
    pub(crate) fn corruption_probability(&self, rate: Gbps) -> f64 {
        let received = MicroWatts::from_uw(self.nominal_uw * self.config.dropout_light_fraction);
        self.sensitivity
            .flit_corruption_probability(received, rate, self.flit_bits)
    }

    /// Draws whether a flit on `link` is corrupted, with probability `p`.
    /// Never draws from the RNG when `p` is zero.
    pub(crate) fn draw_corruption(&mut self, link: usize, p: f64) -> bool {
        self.corruption_rng[link].chance(p)
    }

    /// Adopts another plan's per-link state for a range of links the donor
    /// owned during a sharded run. Per-link RNG streams are independent,
    /// so the donor's draws for its links are exactly the draws the
    /// sequential engine would have made.
    pub(crate) fn adopt_links(&mut self, donor: &FaultPlan, links: std::ops::Range<usize>) {
        for l in links {
            self.outage_rng[l] = donor.outage_rng[l].clone();
            self.dropout_rng[l] = donor.dropout_rng[l].clone();
            self.corruption_rng[l] = donor.corruption_rng[l].clone();
            self.outage_until[l] = donor.outage_until[l];
            self.dropout_until[l] = donor.dropout_until[l];
        }
    }

    /// Folds in fault windows counted on another shard (each shard counts
    /// onsets only for the links it owns).
    pub(crate) fn add_faults_injected(&mut self, n: u64) {
        self.faults_injected += n;
    }

    /// Reads the state its [`Serialize`] impl wrote over this plan, built
    /// from the saving run's configuration, one entry per link. On an
    /// error the plan is partly restored and must be discarded.
    pub(crate) fn restore<S: Source>(&mut self, src: &mut S) -> Result<(), serde::Error> {
        const TY: &str = "FaultPlan";
        src.map_of(6, TY)?;
        src.field_into("outage_rng", &mut self.outage_rng, TY)?;
        src.field_into("dropout_rng", &mut self.dropout_rng, TY)?;
        src.field_into("corruption_rng", &mut self.corruption_rng, TY)?;
        src.field_into("outage_until", &mut self.outage_until, TY)?;
        src.field_into("dropout_until", &mut self.dropout_until, TY)?;
        self.faults_injected = src.field("faults_injected", TY)?;
        Ok(())
    }
}

/// The plan's evolved state: the per-link RNG streams and fault windows,
/// and the onset count. [`FaultPlan::new`] rebuilds the rest.
impl Serialize for FaultPlan {
    fn serialize<S: Sink>(&self, out: &mut S) {
        out.token(Token::Map(6));
        out.field("outage_rng", &self.outage_rng);
        out.field("dropout_rng", &self.dropout_rng);
        out.field("corruption_rng", &self.corruption_rng);
        out.field("outage_until", &self.outage_until);
        out.field("dropout_until", &self.dropout_until);
        out.field("faults_injected", &self.faults_injected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> FaultConfig {
        FaultConfig {
            outage_mtbf_cycles: 10_000,
            outage_mean_duration_cycles: 500,
            dropout_mtbf_cycles: 8_000,
            dropout_mean_duration_cycles: 400,
            ..FaultConfig::disabled()
        }
    }

    const CYCLE: Picos = Picos::from_ps(1600);

    #[test]
    fn disabled_config_is_inert_and_valid() {
        let c = FaultConfig::disabled();
        c.validate();
        assert!(!c.enabled());
        assert_eq!(c, FaultConfig::default());
    }

    #[test]
    #[should_panic(expected = "positive mean duration")]
    fn zero_duration_outage_rejected() {
        let c = FaultConfig {
            outage_mtbf_cycles: 100,
            outage_mean_duration_cycles: 0,
            ..FaultConfig::disabled()
        };
        c.validate();
    }

    #[test]
    fn schedules_are_deterministic_and_per_link_independent() {
        let mk = || FaultPlan::new(&config(), 7, 4, CYCLE, 16);
        let mut a = mk();
        let mut b = mk();
        for link in 0..4 {
            assert_eq!(
                a.next_begin(Picos::ZERO, link, FaultKind::Outage),
                b.next_begin(Picos::ZERO, link, FaultKind::Outage)
            );
        }
        // Different links draw from different streams.
        let t0 = a.next_begin(Picos::ZERO, 0, FaultKind::Outage);
        let t1 = a.next_begin(Picos::ZERO, 1, FaultKind::Outage);
        assert_ne!(t0, t1, "per-link streams should not collide");
    }

    #[test]
    fn begin_end_edges_track_overlap() {
        let mut p = FaultPlan::new(&config(), 1, 1, CYCLE, 16);
        let t = Picos::from_ps(1_000_000);
        let (outage_end, newly) = p.begin(t, 0, FaultKind::Outage);
        assert!(newly, "first fault on a clear link");
        assert!(outage_end > t);
        assert!(p.is_faulted(0, t));
        // A dropout landing mid-outage is not a fresh fault edge.
        let (_, newly2) = p.begin(t, 0, FaultKind::LaserDropout);
        assert!(!newly2);
        assert_eq!(p.faults_injected(), 2);
        // Ending one kind while the other persists does not clear the link.
        let until = p.dropout_until[0].max(outage_end);
        let (_, clear) = p.end(outage_end, 0, FaultKind::Outage);
        // Cleared only if the dropout already expired by then.
        assert_eq!(clear, outage_end >= p.dropout_until[0]);
        let (_, clear2) = p.end(until, 0, FaultKind::LaserDropout);
        assert!(clear2, "after both windows pass the link is clear");
    }

    #[test]
    fn corruption_tracks_rate_and_light() {
        let mut c = config();
        c.dropout_light_fraction = 0.1;
        let p = FaultPlan::new(&c, 1, 1, CYCLE, 16);
        let fast = p.corruption_probability(Gbps::from_gbps(10.0));
        let slow = p.corruption_probability(Gbps::from_gbps(5.0));
        // Starved light at full rate corrupts heavily; the pinned safe
        // rate closes the eye again — the graceful-degradation story.
        assert!(fast > 0.05, "fast {fast}");
        assert!(slow < fast / 100.0, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn zero_probability_never_draws() {
        let mut p = FaultPlan::new(&config(), 1, 1, CYCLE, 16);
        let before = p.corruption_rng[0].clone();
        assert!(!p.draw_corruption(0, 0.0));
        // Rng equality: drawing would have advanced the state.
        assert_eq!(
            p.corruption_rng[0].next_u64(),
            before.clone().next_u64(),
            "chance(0) must not consume randomness"
        );
    }
}
