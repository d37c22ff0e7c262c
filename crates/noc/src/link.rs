//! The variable-rate link model.
//!
//! Every unidirectional channel in the system — inter-router, injection
//! (node → router) and ejection (router → node) — is a [`Link`]: an
//! opto-electronic channel that serializes 16-bit flits at its *current*
//! bit rate, adds a fixed propagation delay, and can be disabled for a
//! window after bit-rate transitions (the CDR relock penalty, paper
//! §2.2.3 / §4.1).
//!
//! The link also keeps the utilization accounting the power-aware policy
//! samples: accumulated busy (serialization) time per observation window,
//! which divided by the window length is exactly the paper's `Lu` — the
//! fraction of time a flit occupies the output link (Eq. 10).

use crate::ids::{LinkId, NodeId, PortId, RouterId};
use lumen_desim::Picos;
use lumen_opto::Gbps;
use serde::{Deserialize, Serialize, Sink, Source, Token};
use std::fmt;

/// What a link connects on one side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// A specific port of a router.
    RouterPort {
        /// The router.
        router: RouterId,
        /// The port on that router.
        port: PortId,
    },
    /// A processing node (source or sink side).
    Node(NodeId),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::RouterPort { router, port } => write!(f, "{router}:{port}"),
            Endpoint::Node(n) => write!(f, "{n}"),
        }
    }
}

/// A unidirectional, variable-bit-rate opto-electronic channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    id: LinkId,
    from: Endpoint,
    to: Endpoint,
    flit_bits: u32,
    propagation: Picos,
    rate: Gbps,
    // Serialization time of one flit at `rate`, recomputed on rate
    // changes so the per-flit hot path avoids a float division.
    flit_ps: u64,
    busy_until: Picos,
    disabled_until: Picos,
    window_busy: Picos,
    window_demand_ticks: u64,
    flits_sent: u64,
    flits_arrived: u64,
    rate_changes: u64,
}

impl Link {
    /// Creates a link at the given initial rate, idle and enabled.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive or `flit_bits` is zero.
    pub fn new(
        id: LinkId,
        from: Endpoint,
        to: Endpoint,
        flit_bits: u32,
        propagation: Picos,
        rate: Gbps,
    ) -> Self {
        assert!(rate.as_gbps() > 0.0, "link rate must be positive");
        assert!(flit_bits > 0, "flits must carry bits");
        Link {
            id,
            from,
            to,
            flit_bits,
            propagation,
            rate,
            flit_ps: rate.serialization_ps(flit_bits),
            busy_until: Picos::ZERO,
            disabled_until: Picos::ZERO,
            window_busy: Picos::ZERO,
            window_demand_ticks: 0,
            flits_sent: 0,
            flits_arrived: 0,
            rate_changes: 0,
        }
    }

    /// The link's id.
    pub(crate) fn id(&self) -> LinkId {
        self.id
    }

    /// The upstream endpoint (where credits return to).
    pub fn from(&self) -> Endpoint {
        self.from
    }

    /// The downstream endpoint (where flits arrive).
    pub fn to(&self) -> Endpoint {
        self.to
    }

    /// The current bit rate.
    pub fn rate(&self) -> Gbps {
        self.rate
    }

    /// Time to serialize one flit at the current rate.
    pub(crate) fn flit_time(&self) -> Picos {
        debug_assert_eq!(self.flit_ps, self.rate.serialization_ps(self.flit_bits));
        Picos::from_ps(self.flit_ps)
    }

    /// Whether a new flit can start at time `t` (idle and enabled).
    pub(crate) fn ready_at(&self, t: Picos) -> bool {
        t >= self.busy_until && t >= self.disabled_until
    }

    /// When the link next becomes able to start a flit.
    pub(crate) fn next_free(&self) -> Picos {
        self.busy_until.max(self.disabled_until)
    }

    /// Starts transmitting one flit at `start`; returns the arrival time at
    /// the downstream endpoint (serialization + propagation).
    ///
    /// # Panics
    ///
    /// Panics if the link is not ready at `start` (an allocation bug).
    pub(crate) fn start_flit(&mut self, start: Picos) -> Picos {
        assert!(
            self.ready_at(start),
            "{}: flit start at {start} while busy until {} / disabled until {}",
            self.id,
            self.busy_until,
            self.disabled_until
        );
        let ser = self.flit_time();
        self.busy_until = start + ser;
        self.window_busy += ser;
        self.flits_sent += 1;
        self.busy_until + self.propagation
    }

    /// Changes the bit rate; the link is disabled for `disable` after any
    /// in-flight flit drains (the CDR relock window `Tbr`). A `disable` of
    /// zero models the paper's transition-delay ablation.
    pub fn begin_rate_change(&mut self, now: Picos, new_rate: Gbps, disable: Picos) {
        assert!(new_rate.as_gbps() > 0.0, "link rate must be positive");
        let start = now.max(self.busy_until).max(self.disabled_until);
        self.disabled_until = start + disable;
        if (new_rate.as_gbps() - self.rate.as_gbps()).abs() > f64::EPSILON {
            self.rate_changes += 1;
        }
        self.rate = new_rate;
        self.flit_ps = new_rate.serialization_ps(self.flit_bits);
    }

    /// Disables the link until `until` without changing the rate (used for
    /// optical-power-level transitions on modulator-based links).
    pub fn disable_until(&mut self, until: Picos) {
        self.disabled_until = self.disabled_until.max(until);
    }

    /// Drains the accumulated busy time since the last call (part of the
    /// policy's link-utilization statistic).
    pub fn take_window_busy(&mut self) -> Picos {
        std::mem::replace(&mut self.window_busy, Picos::ZERO)
    }

    /// Notes that during the current core cycle at least one flit wanted
    /// this link (sent, or blocked only by the link being busy, disabled,
    /// or out of credits). Demand ticks let the policy see saturation even
    /// when allocator and flow-control overheads keep the raw busy
    /// fraction below 1 (see DESIGN.md, utilization calibration note).
    pub(crate) fn note_demand(&mut self) {
        self.window_demand_ticks += 1;
    }

    /// Adds the demand of `ticks` stalled cycles at once (a router's
    /// skipped ticks, see [`crate::router::Stall`]).
    pub(crate) fn note_demand_ticks(&mut self, ticks: u64) {
        self.window_demand_ticks += ticks;
    }

    /// Drains the accumulated demand-tick count since the last call.
    pub fn take_window_demand(&mut self) -> u64 {
        std::mem::replace(&mut self.window_demand_ticks, 0)
    }

    /// Reads the accumulated demand ticks without draining them (used by
    /// the on/off discipline to watch sleeping links for demand).
    pub fn window_demand(&self) -> u64 {
        self.window_demand_ticks
    }

    /// Gates the link off: disabled indefinitely until
    /// [`Link::power_gate_wake`] re-enables it.
    pub fn power_gate_off(&mut self) {
        self.disabled_until = Picos::MAX;
    }

    /// Whether the link is currently gated off.
    pub(crate) fn is_power_gated(&self) -> bool {
        self.disabled_until == Picos::MAX
    }

    /// Wakes a gated-off link: it becomes usable at `t` (after the wake
    /// penalty). No-op on a link that is not gated off, preserving the
    /// monotone disable semantics of the DVS path.
    pub fn power_gate_wake(&mut self, t: Picos) {
        if self.is_power_gated() {
            self.disabled_until = t;
        }
    }

    /// Lifetime count of flits transmitted.
    pub fn flits_sent(&self) -> u64 {
        self.flits_sent
    }

    /// Records that a transmitted flit reached the downstream endpoint
    /// (called by the network when the arrival event is delivered).
    pub(crate) fn note_arrival(&mut self) {
        self.flits_arrived += 1;
        debug_assert!(
            self.flits_arrived <= self.flits_sent,
            "{}: more arrivals than sends",
            self.id
        );
    }

    /// Folds in arrivals that were delivered on another shard's replica of
    /// this link (the sharded runtime counts them on the receiving side and
    /// reconciles here at merge time, restoring `arrived <= sent`).
    pub(crate) fn absorb_arrivals(&mut self, n: u64) {
        self.flits_arrived += n;
        debug_assert!(
            self.flits_arrived <= self.flits_sent,
            "{}: more arrivals than sends after shard merge",
            self.id
        );
    }

    /// Lifetime count of flits delivered downstream. The difference
    /// `flits_sent() - flits_arrived()` is the number of flits currently
    /// in flight on the wire (used by the conservation auditor).
    pub(crate) fn flits_arrived(&self) -> u64 {
        self.flits_arrived
    }

    /// Lifetime count of bit-rate changes.
    pub fn rate_changes(&self) -> u64 {
        self.rate_changes
    }

    /// Reads the state its [`Serialize`] impl wrote back into this link,
    /// built from the saving run's configuration, and recomputes the flit
    /// time from the rate, which must be positive and finite. On an error
    /// the link is partly restored and must be discarded.
    pub(crate) fn restore<S: Source>(&mut self, src: &mut S) -> Result<(), serde::Error> {
        const TY: &str = "Link";
        src.map_of(8, TY)?;
        let rate: Gbps = src.field("rate", TY)?;
        if !(rate.as_gbps() > 0.0 && rate.as_gbps().is_finite()) {
            return Err(serde::Error::custom(format!(
                "link {} does not fit: a rate of {} Gb/s is not positive and finite",
                self.id,
                rate.as_gbps()
            )));
        }
        self.rate = rate;
        self.flit_ps = rate.serialization_ps(self.flit_bits);
        self.busy_until = src.field("busy_until", TY)?;
        self.disabled_until = src.field("disabled_until", TY)?;
        self.window_busy = src.field("window_busy", TY)?;
        self.window_demand_ticks = src.field("window_demand_ticks", TY)?;
        self.flits_sent = src.field("flits_sent", TY)?;
        self.flits_arrived = src.field("flits_arrived", TY)?;
        self.rate_changes = src.field("rate_changes", TY)?;
        Ok(())
    }
}

/// The link's evolved state, which `Link::restore` reads back; wiring,
/// latency, flit width and flit time are derived.
impl Serialize for Link {
    fn serialize<S: Sink>(&self, out: &mut S) {
        out.token(Token::Map(8));
        out.field("rate", &self.rate);
        out.field("busy_until", &self.busy_until);
        out.field("disabled_until", &self.disabled_until);
        out.field("window_busy", &self.window_busy);
        out.field("window_demand_ticks", &self.window_demand_ticks);
        out.field("flits_sent", &self.flits_sent);
        out.field("flits_arrived", &self.flits_arrived);
        out.field("rate_changes", &self.rate_changes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(rate: f64) -> Link {
        Link::new(
            LinkId(0),
            Endpoint::RouterPort {
                router: RouterId(0),
                port: PortId(8),
            },
            Endpoint::RouterPort {
                router: RouterId(1),
                port: PortId(9),
            },
            16,
            Picos::from_ps(3200),
            Gbps::from_gbps(rate),
        )
    }

    #[test]
    fn serialization_and_propagation() {
        let mut l = link(10.0);
        assert!(l.ready_at(Picos::ZERO));
        let arrival = l.start_flit(Picos::ZERO);
        // 1600 ps serialization + 3200 ps propagation
        assert_eq!(arrival, Picos::from_ps(4800));
        assert!(!l.ready_at(Picos::from_ps(1599)));
        assert!(l.ready_at(Picos::from_ps(1600)));
        assert_eq!(l.flits_sent(), 1);
    }

    #[test]
    fn slower_rate_longer_serialization() {
        let mut l = link(5.0);
        let arrival = l.start_flit(Picos::ZERO);
        assert_eq!(arrival, Picos::from_ps(3200 + 3200));
    }

    #[test]
    #[should_panic(expected = "while busy")]
    fn overlapping_flits_rejected() {
        let mut l = link(10.0);
        l.start_flit(Picos::ZERO);
        l.start_flit(Picos::from_ps(100));
    }

    #[test]
    fn rate_change_disables_after_drain() {
        let mut l = link(10.0);
        l.start_flit(Picos::ZERO); // busy until 1600
        l.begin_rate_change(
            Picos::from_ps(800),
            Gbps::from_gbps(5.0),
            Picos::from_ps(32_000),
        );
        // Disable window starts when the in-flight flit drains.
        assert_eq!(l.disabled_until, Picos::from_ps(1600 + 32_000));
        assert!(!l.ready_at(Picos::from_ps(20_000)));
        assert!(l.ready_at(Picos::from_ps(33_600)));
        assert_eq!(l.rate(), Gbps::from_gbps(5.0));
        assert_eq!(l.rate_changes(), 1);
    }

    #[test]
    fn zero_penalty_rate_change_is_instant() {
        let mut l = link(10.0);
        l.begin_rate_change(Picos::from_ps(100), Gbps::from_gbps(5.0), Picos::ZERO);
        assert!(l.ready_at(Picos::from_ps(100)));
    }

    #[test]
    fn same_rate_change_not_counted() {
        let mut l = link(10.0);
        l.begin_rate_change(Picos::ZERO, Gbps::from_gbps(10.0), Picos::ZERO);
        assert_eq!(l.rate_changes(), 0);
    }

    #[test]
    fn window_busy_accumulates_and_drains() {
        let mut l = link(10.0);
        l.start_flit(Picos::ZERO);
        l.start_flit(Picos::from_ps(1600));
        assert_eq!(l.take_window_busy(), Picos::from_ps(3200));
        assert_eq!(l.take_window_busy(), Picos::ZERO);
        l.start_flit(Picos::from_ps(10_000));
        assert_eq!(l.take_window_busy(), Picos::from_ps(1600));
    }

    #[test]
    fn disable_until_is_monotone() {
        let mut l = link(10.0);
        l.disable_until(Picos::from_us(5));
        l.disable_until(Picos::from_us(3)); // must not shrink
        assert_eq!(l.disabled_until, Picos::from_us(5));
    }

    #[test]
    fn next_free_combines_busy_and_disable() {
        let mut l = link(10.0);
        l.start_flit(Picos::ZERO);
        l.disable_until(Picos::from_ps(9000));
        assert_eq!(l.next_free(), Picos::from_ps(9000));
    }
}
