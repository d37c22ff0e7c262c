//! Conservation auditor: whole-network flit and credit accounting checks.
//!
//! The auditor proves, from independently maintained counters, that the
//! simulator never creates or loses a flit and never mints a credit. Two
//! entry points:
//!
//! - [`audit`] checks invariants that hold at *every* event boundary
//!   (between processed events), even with traffic in flight:
//!   1. **Global flit conservation** — every flit that left a source is in
//!      exactly one place: on a wire (`flits_sent - flits_arrived` per
//!      link), in a router input buffer, or at a sink.
//!   2. **Per-router conservation** — flits accepted into a router equal
//!      flits switched out plus flits still buffered.
//!   3. **Per-sink conservation** — flits received equal flits of
//!      delivered packets plus flits of dropped packets plus flits of
//!      packets still being reassembled.
//!   4. **Credit soundness per (link, VC)** — credits held upstream plus
//!      flits occupying the downstream buffer never exceed the buffer
//!      depth (credits in flight make this an inequality mid-run).
//!   5. **Activity sets** — a source is in the network's active set iff
//!      it has queued flits, and a router iff it is not idle. A missed
//!      member would silently stop stepping (DESIGN.md §6j).
//!   6. **Router caches** — no VC ring holds more flits than its depth,
//!      and every cache a router keeps of its rings and VC states (port
//!      and router buffered-flit counts, active-VC count, stage masks,
//!      and switch and VC allocation's per-output-port requesters with
//!      the masks of the ports that have any) equals the recount a
//!      checkpoint restore installs (DESIGN.md §6k). The counts feed `Bu`
//!      and the idle test and the masks pick what each pipeline stage
//!      visits, so a drifted cache would skew them unseen.
//!
//! - [`audit_quiescent`] additionally requires the stronger equalities
//!   that only hold once the network has drained: every credit returned
//!   (balance exactly equals buffer depth) and every buffer empty.
//!
//! Fault-injection runs lean on this: dropped packets must be accounted,
//! not leaked, and a faulted link must never corrupt the credit economy.

use crate::ids::{PortId, VcId};
use crate::link::Endpoint;
use crate::network::Network;
use crate::router::Router;
use std::fmt;

/// Counter snapshot plus any invariant violations found.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Flits that have left a source onto an injection link.
    pub flits_injected: u64,
    /// Flits currently traversing some link (sent but not yet arrived).
    pub flits_on_links: u64,
    /// Flits sitting in router input buffers.
    pub flits_buffered: u64,
    /// Flits that reached a sink.
    pub flits_received: u64,
    /// Flits of fully delivered packets.
    pub flits_delivered: u64,
    /// Flits of packets dropped after corruption was detected.
    pub flits_dropped: u64,
    /// Flits of packets still mid-reassembly at sinks.
    pub partial_flits: u64,
    /// Human-readable descriptions of every violated invariant (empty
    /// when the audit passes).
    pub violations: Vec<String>,
}

impl AuditReport {
    /// Whether every checked invariant held.
    pub(crate) fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the full violation list if the audit failed.
    ///
    /// # Panics
    ///
    /// Panics when any conservation invariant was violated.
    pub fn assert_ok(&self) {
        assert!(self.is_ok(), "conservation audit failed:\n{self}");
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "injected {} = on-links {} + buffered {} + received {} \
             (received {} = delivered {} + dropped {} + partial {})",
            self.flits_injected,
            self.flits_on_links,
            self.flits_buffered,
            self.flits_received,
            self.flits_received,
            self.flits_delivered,
            self.flits_dropped,
            self.partial_flits,
        )?;
        for v in &self.violations {
            writeln!(f, "  VIOLATION: {v}")?;
        }
        Ok(())
    }
}

/// Runs the anytime conservation checks (valid at any event boundary,
/// traffic in flight or not). See the module docs for the invariants.
pub fn audit(net: &Network) -> AuditReport {
    let mut violations = Vec::new();

    let flits_injected: u64 = net.sources().map(|s| s.flits_injected).sum();
    let flits_on_links: u64 = net
        .links()
        .map(|l| l.flits_sent() - l.flits_arrived())
        .sum();
    let (vcs, depth) = (net.config().vcs, usize::from(net.config().depth_per_vc()));
    let mut flits_buffered = 0;
    for router in net.routers() {
        let buffered = check_router(router, vcs, depth, &mut violations);
        if router.flits_accepted != router.flits_switched + buffered {
            violations.push(format!(
                "{}: accepted {} != switched {} + buffered {buffered}",
                router.id(),
                router.flits_accepted,
                router.flits_switched
            ));
        }
        flits_buffered += buffered;
    }
    let flits_received: u64 = net.sinks().map(|s| s.flits_received).sum();
    let flits_delivered: u64 = net.sinks().map(|s| s.flits_delivered).sum();
    let flits_dropped: u64 = net.sinks().map(|s| s.flits_dropped).sum();
    let partial_flits: u64 = net.sinks().map(|s| s.partial_flits()).sum();

    if flits_injected != flits_on_links + flits_buffered + flits_received {
        violations.push(format!(
            "global flit conservation: injected {flits_injected} != on-links \
             {flits_on_links} + buffered {flits_buffered} + received {flits_received}"
        ));
    }
    if flits_received != flits_delivered + flits_dropped + partial_flits {
        violations.push(format!(
            "sink flit conservation: received {flits_received} != delivered \
             {flits_delivered} + dropped {flits_dropped} + partial {partial_flits}"
        ));
    }

    check_credits(net, false, &mut violations);
    check_activity(net, &mut violations);

    AuditReport {
        flits_injected,
        flits_on_links,
        flits_buffered,
        flits_received,
        flits_delivered,
        flits_dropped,
        partial_flits,
        violations,
    }
}

/// Runs the anytime checks plus the quiescent-only equalities: no flit
/// anywhere in flight and every credit back home at full balance.
pub fn audit_quiescent(net: &Network) -> AuditReport {
    let mut report = audit(net);
    if report.flits_on_links != 0 {
        report.violations.push(format!(
            "{} flits on links at quiescence",
            report.flits_on_links
        ));
    }
    if report.flits_buffered != 0 {
        report.violations.push(format!(
            "{} flits buffered at quiescence",
            report.flits_buffered
        ));
    }
    if report.partial_flits != 0 {
        report.violations.push(format!(
            "{} flits in partial packets at quiescence",
            report.partial_flits
        ));
    }
    check_credits(net, true, &mut report.violations);
    report
}

/// Checks a router's `vcs` VC rings per port against their `depth`, and
/// its caches against [`Router::recount`]; returns the flits the rings
/// hold.
fn check_router(router: &Router, vcs: u8, depth: usize, violations: &mut Vec<String>) -> u64 {
    let id = router.id();
    for p in 0..router.port_count() {
        let port = PortId(p as u8);
        for v in 0..vcs {
            let (vc, len) = (VcId(v), router.queue_len(port, VcId(v)));
            if len > depth {
                violations.push(format!(
                    "{id} {port} {vc}: ring holds {len} flits, deeper than its {depth}-flit VC"
                ));
            }
        }
    }
    let (kept, counted) = (router.caches(), router.recount());
    for (p, (kept, queued)) in kept.occupancy.iter().zip(&*counted.occupancy).enumerate() {
        if kept != queued {
            violations.push(format!(
                "{id} {}: occupancy {kept} != {queued} flits in its VC rings",
                PortId(p as u8)
            ));
        }
    }
    for (what, kept, counted) in [
        ("sa_req", &kept.sa_req, &counted.sa_req),
        ("va_req", &kept.va_req, &counted.va_req),
    ] {
        for (p, (kept, counted)) in kept.iter().zip(&**counted).enumerate() {
            if kept != counted {
                violations.push(format!(
                    "{id} {}: {what} {kept} != {counted} recounted from its rings and VC states",
                    PortId(p as u8)
                ));
            }
        }
    }
    let (buffered, active) = (counted.buffered_flits, counted.active_vcs);
    for (what, kept, counted) in [
        ("buffered", kept.buffered_flits.into(), buffered.into()),
        ("active VCs", kept.active_vcs.into(), active.into()),
        ("sa_ready", kept.sa_ready, counted.sa_ready),
        ("rc_ready", kept.rc_ready, counted.rc_ready),
        ("sa_ports", kept.sa_ports, counted.sa_ports),
        ("va_ports", kept.va_ports, counted.va_ports),
    ] {
        if kept != counted {
            violations.push(format!(
                "{id}: {what} {kept} != {counted} recounted from its rings and VC states"
            ));
        }
    }
    u64::from(buffered)
}

/// The activity sets hold exactly the sources with queued flits and the
/// routers that are not idle.
fn check_activity(net: &Network, violations: &mut Vec<String>) {
    for (n, source) in net.sources().enumerate() {
        let (marked, queued) = (net.source_marked_active(n), source.backlog_flits());
        if marked != (queued > 0) {
            violations.push(format!(
                "source {}: activity bit {marked} with {queued} flits queued",
                source.id()
            ));
        }
    }
    for (r, router) in net.routers().enumerate() {
        let (marked, idle) = (net.router_marked_active(r), router.is_idle());
        if marked == idle {
            violations.push(format!(
                "router {}: activity bit {marked} but idle {idle}",
                router.id()
            ));
        }
    }
}

/// Per-(link, VC) credit checks. Mid-run: held + downstream occupancy ≤
/// depth (credits and flits in flight account for the gap). Quiescent:
/// held == depth exactly and occupancy is zero.
fn check_credits(net: &Network, quiescent: bool, violations: &mut Vec<String>) {
    let depth = u64::from(net.config().depth_per_vc());
    let vcs = net.config().vcs as usize;
    for link in net.links() {
        for vc in 0..vcs {
            let held = match link.from() {
                Endpoint::Node(n) => {
                    let src = net.sources().nth(n.index()).expect("source exists");
                    u64::from(src.credits()[vc])
                }
                Endpoint::RouterPort { router, port } => {
                    u64::from(net.router(router).credits(port)[vc])
                }
            };
            let occupancy = match link.to() {
                Endpoint::Node(_) => 0, // sinks drain instantly
                Endpoint::RouterPort { router, port } => {
                    net.router(router).queue_len(port, VcId(vc as u8)) as u64
                }
            };
            if held + occupancy > depth {
                violations.push(format!(
                    "{} vc{vc}: credits {held} + downstream occupancy {occupancy} \
                     exceed depth {depth}",
                    link.id()
                ));
            }
            if quiescent && (held != depth || occupancy != 0) {
                violations.push(format!(
                    "{} vc{vc}: at quiescence credits {held} (expected {depth}), \
                     occupancy {occupancy} (expected 0)",
                    link.id()
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::flit::Packet;
    use crate::ids::{NodeId, PacketId};
    use crate::network::Effect;
    use lumen_desim::{EventQueue, Picos};

    /// Replays network effects at their due times (same shape as the
    /// driver in `network::tests`).
    fn run(net: &mut Network, cycles: u64, audit_every: u64) {
        let cycle = net.config().cycle();
        let mut queue: EventQueue<Effect> = EventQueue::new();
        let mut effects = Vec::new();
        let mut now = Picos::ZERO;
        for i in 0..cycles {
            while let Some(t) = queue.peek_time() {
                if t > now {
                    break;
                }
                let (at, eff) = queue.pop().expect("peeked");
                match eff {
                    Effect::Flit { link, vc, flit, .. } => {
                        net.flit_arrived(at, link, vc, flit, true, &mut effects);
                    }
                    Effect::Credit { link, vc, .. } => net.credit_arrived(link, vc),
                    Effect::Ejected { .. } => unreachable!("ejections emitted inline"),
                }
            }
            net.tick(now, &mut effects);
            for eff in effects.drain(..) {
                match eff {
                    Effect::Ejected { .. } => {}
                    Effect::Flit { at, .. } | Effect::Credit { at, .. } => {
                        queue.schedule(at, eff);
                    }
                }
            }
            if audit_every > 0 && i % audit_every == 0 {
                audit(net).assert_ok();
            }
            now += cycle;
        }
    }

    #[test]
    fn quiescent_audit_passes_after_drain() {
        let config = NocConfig::small_for_tests();
        let mut net = Network::new(&config);
        let mut id = 0;
        for s in 0..net.node_count() {
            for t in 0..net.node_count() {
                if s != t {
                    id += 1;
                    net.inject(Packet::new(
                        PacketId(id),
                        NodeId(s as u32),
                        NodeId(t as u32),
                        3,
                        Picos::ZERO,
                    ));
                }
            }
        }
        run(&mut net, 4000, 0);
        assert!(net.is_quiescent());
        let report = audit_quiescent(&net);
        report.assert_ok();
        assert_eq!(report.flits_injected, id * 3);
        assert_eq!(report.flits_delivered, id * 3);
        assert_eq!(report.flits_dropped, 0);
    }

    #[test]
    fn anytime_audit_passes_mid_flight() {
        let config = NocConfig::small_for_tests();
        let mut net = Network::new(&config);
        let mut id = 0;
        for s in 0..net.node_count() {
            for k in 0..4 {
                let t = (s + 1 + k) % net.node_count();
                if t != s {
                    id += 1;
                    net.inject(Packet::new(
                        PacketId(id),
                        NodeId(s as u32),
                        NodeId(t as u32),
                        6,
                        Picos::ZERO,
                    ));
                }
            }
        }
        // Audit every cycle while traffic is in full flight.
        run(&mut net, 600, 1);
    }

    #[test]
    fn corrupted_packets_are_accounted_not_leaked() {
        let config = NocConfig::small_for_tests();
        let mut net = Network::new(&config);
        // Inject with manual corruption: mark flits corrupted as they
        // come off the links by rewriting them in the replay loop.
        let mut id = 0;
        for s in 0..net.node_count() {
            let t = (s + 3) % net.node_count();
            if t != s {
                id += 1;
                net.inject(Packet::new(
                    PacketId(id),
                    NodeId(s as u32),
                    NodeId(t as u32),
                    4,
                    Picos::ZERO,
                ));
            }
        }
        let cycle = net.config().cycle();
        let mut queue: EventQueue<Effect> = EventQueue::new();
        let mut effects = Vec::new();
        let mut now = Picos::ZERO;
        let mut poisoned = 0u64;
        for _ in 0..4000 {
            while let Some(t) = queue.peek_time() {
                if t > now {
                    break;
                }
                let (at, eff) = queue.pop().expect("peeked");
                match eff {
                    Effect::Flit {
                        link, vc, mut flit, ..
                    } => {
                        // Corrupt every 7th flit crossing any link.
                        if (flit.packet.0 * 31 + u64::from(flit.seq)) % 7 == 0 && !flit.corrupted {
                            flit.corrupted = true;
                            poisoned += 1;
                        }
                        net.flit_arrived(at, link, vc, flit, true, &mut effects);
                    }
                    Effect::Credit { link, vc, .. } => net.credit_arrived(link, vc),
                    Effect::Ejected { .. } => unreachable!(),
                }
            }
            net.tick(now, &mut effects);
            for eff in effects.drain(..) {
                match eff {
                    Effect::Ejected { .. } => {}
                    Effect::Flit { at, .. } | Effect::Credit { at, .. } => {
                        queue.schedule(at, eff);
                    }
                }
            }
            now += cycle;
        }
        assert!(net.is_quiescent());
        assert!(poisoned > 0);
        assert!(net.packets_dropped() > 0, "some packets must be dropped");
        assert!(net.packets_delivered() > 0, "some packets must survive");
        let report = audit_quiescent(&net);
        report.assert_ok();
        assert_eq!(
            report.flits_delivered + report.flits_dropped,
            report.flits_injected,
            "every injected flit is delivered or dropped after drain"
        );
    }
}
