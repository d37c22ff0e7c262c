//! Routing functions.
//!
//! The paper's mesh uses deterministic dimension-order routing: packets
//! travel fully along X, then along Y, then exit through the destination
//! node's local ejection port. Dimension order is provably deadlock-free on
//! meshes with wormhole flow control and a single virtual channel.
//!
//! The geometric step — which inter-router port makes minimal progress —
//! is delegated to the configuration's [`Topology`] implementation, so
//! these entry points work unchanged on meshes and folded-Clos fabrics
//! (see [`crate::topology`]).

use crate::config::NocConfig;
use crate::ids::{NodeId, PortId, RouterId};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// The routing discipline for the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RoutingAlgorithm {
    /// X first, then Y (the paper's choice).
    #[default]
    XY,
    /// Y first, then X (used in tests to cross-check path independence).
    YX,
    /// West-first partially-adaptive routing (Glass & Ni turn model): all
    /// westward hops are taken first and deterministically; afterwards the
    /// router may choose adaptively among the remaining minimal
    /// directions. Deadlock-free on meshes with wormhole flow control.
    /// The paper's related work (its ref. \[25\]) studies exactly this
    /// adaptivity axis under bursty traffic.
    WestFirst,
}

impl RoutingAlgorithm {
    /// Whether route selection ever reads dynamic router state (free VCs,
    /// credit counts). Deterministic algorithms pick from geometry alone,
    /// which lets the sharded backend stretch barrier windows on credit
    /// *eligibility* bounds; adaptive ones need exact credit counts every
    /// cycle, so windows only stretch when boundary links are fully idle.
    pub fn is_adaptive(self) -> bool {
        matches!(self, RoutingAlgorithm::WestFirst)
    }
}

/// Appends every permitted minimal output port for a packet at `here`
/// addressed to `dst` into `out` (cleared first). Deterministic
/// algorithms yield exactly one candidate; `WestFirst` may yield up to
/// three on a mesh. At the destination rack, the single candidate is the
/// ejection port; everywhere else the candidates come from the
/// configuration's [`Topology`].
///
/// ```
/// use lumen_noc::ids::{NodeId, PortId, RouterId};
/// use lumen_noc::routing::{route_candidates, RoutingAlgorithm};
/// use lumen_noc::NocConfig;
///
/// let config = NocConfig::paper_default(); // 8×8 mesh, 8 nodes/rack
/// let mut out = Vec::new();
/// // Node 348 lives in rack (3,5) = router 43. From router 0, XY
/// // routing goes East: port 10, since ports 8..=11 are N/S/E/W.
/// route_candidates(&config, RoutingAlgorithm::XY, RouterId(0), NodeId(348), &mut out);
/// assert_eq!(out, vec![PortId(10)]);
/// // At the destination rack the only candidate is the ejection port.
/// route_candidates(&config, RoutingAlgorithm::XY, RouterId(43), NodeId(348), &mut out);
/// assert_eq!(out, vec![PortId(4)]);
/// ```
pub fn route_candidates(
    config: &NocConfig,
    algo: RoutingAlgorithm,
    here: RouterId,
    dst: NodeId,
    out: &mut Vec<PortId>,
) {
    out.clear();
    let dst_router = config.router_of_node(dst);
    if here == dst_router {
        out.push(PortId(config.local_index(dst)));
        return;
    }
    config.topo().route_inter(algo, here, dst_router, out);
    debug_assert!(!out.is_empty(), "no route from {here} to {dst}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Direction, RackCoord, RouterId};

    fn cfg() -> NocConfig {
        NocConfig::paper_default()
    }

    /// Port index of a mesh direction: local ports come first, then N/S/E/W.
    fn direction_port(config: &NocConfig, dir: Direction) -> PortId {
        PortId(config.nodes_per_rack + dir.index() as u8)
    }

    /// The first (most deterministic) candidate output port at `here`.
    fn route(config: &NocConfig, algo: RoutingAlgorithm, here: RouterId, dst: NodeId) -> PortId {
        let mut candidates = Vec::new();
        route_candidates(config, algo, here, dst, &mut candidates);
        candidates[0]
    }

    /// The mesh direction of an inter-router port; `None` for local ports.
    fn port_direction(config: &NocConfig, port: PortId) -> Option<Direction> {
        let base = config.nodes_per_rack;
        (port.0 >= base && port.0 < base + 4).then(|| Direction::ALL[(port.0 - base) as usize])
    }

    #[test]
    fn direction_ports_follow_locals() {
        let c = cfg();
        assert_eq!(direction_port(&c, Direction::North), PortId(8));
        assert_eq!(direction_port(&c, Direction::South), PortId(9));
        assert_eq!(direction_port(&c, Direction::East), PortId(10));
        assert_eq!(direction_port(&c, Direction::West), PortId(11));
        assert_eq!(port_direction(&c, PortId(8)), Some(Direction::North));
        assert_eq!(port_direction(&c, PortId(11)), Some(Direction::West));
        assert_eq!(port_direction(&c, PortId(0)), None);
        assert_eq!(port_direction(&c, PortId(12)), None);
        // The mesh wires every channel between those ports: each leaves on
        // a direction's port and lands on the opposite direction's port.
        let mut channels = Vec::new();
        c.topo().channels(&mut channels);
        assert!(!channels.is_empty());
        for ch in channels {
            let dir = port_direction(&c, ch.from_port).expect("inter-router port");
            assert_eq!(ch.to_port, direction_port(&c, dir.opposite()));
        }
    }

    #[test]
    fn xy_goes_x_first() {
        let c = cfg();
        let here = c.router_at(RackCoord::new(1, 1));
        // Destination two columns east, one row south.
        let dst = c.node_at(c.router_at(RackCoord::new(3, 2)), 0);
        assert_eq!(
            route(&c, RoutingAlgorithm::XY, here, dst),
            direction_port(&c, Direction::East)
        );
        // After X is resolved, go south.
        let aligned = c.router_at(RackCoord::new(3, 1));
        assert_eq!(
            route(&c, RoutingAlgorithm::XY, aligned, dst),
            direction_port(&c, Direction::South)
        );
    }

    #[test]
    fn yx_goes_y_first() {
        let c = cfg();
        let here = c.router_at(RackCoord::new(1, 1));
        let dst = c.node_at(c.router_at(RackCoord::new(3, 2)), 0);
        assert_eq!(
            route(&c, RoutingAlgorithm::YX, here, dst),
            direction_port(&c, Direction::South)
        );
    }

    #[test]
    fn at_destination_uses_local_port() {
        let c = cfg();
        let r = c.router_at(RackCoord::new(3, 5));
        let dst = c.node_at(r, 4);
        assert_eq!(route(&c, RoutingAlgorithm::XY, r, dst), PortId(4));
        assert_eq!(route(&c, RoutingAlgorithm::YX, r, dst), PortId(4));
    }

    #[test]
    fn route_always_progresses() {
        // Following XY routing from any router must reach the destination
        // in exactly manhattan-distance hops.
        let c = cfg();
        let dst = c.node_at(c.router_at(RackCoord::new(6, 2)), 3);
        for start in 0..c.rack_count() {
            let mut here = RouterId(start as u32);
            let mut hops = 0;
            loop {
                let port = route(&c, RoutingAlgorithm::XY, here, dst);
                match port_direction(&c, port) {
                    None => break, // ejection port: arrived
                    Some(dir) => {
                        let next = c
                            .coord_of(here)
                            .neighbor(dir, c.width, c.height)
                            .expect("route must stay in mesh");
                        here = c.router_at(next);
                        hops += 1;
                        assert!(hops <= 14, "routing loop from r{start}");
                    }
                }
            }
            assert_eq!(here, c.router_of_node(dst));
            let dst_coord = c.coord_of(c.router_of_node(dst));
            assert_eq!(
                hops,
                c.coord_of(RouterId(start as u32)).manhattan(dst_coord),
                "from r{start}"
            );
        }
    }

    #[test]
    fn west_first_goes_west_first() {
        let c = cfg();
        let here = c.router_at(RackCoord::new(5, 3));
        // Destination to the north-west: west is mandatory and exclusive.
        let dst = c.node_at(c.router_at(RackCoord::new(2, 1)), 0);
        let mut cands = Vec::new();
        route_candidates(&c, RoutingAlgorithm::WestFirst, here, dst, &mut cands);
        assert_eq!(cands, vec![direction_port(&c, Direction::West)]);
    }

    #[test]
    fn west_first_adapts_east_and_south() {
        let c = cfg();
        let here = c.router_at(RackCoord::new(1, 1));
        let dst = c.node_at(c.router_at(RackCoord::new(3, 4)), 0);
        let mut cands = Vec::new();
        route_candidates(&c, RoutingAlgorithm::WestFirst, here, dst, &mut cands);
        assert_eq!(cands.len(), 2);
        assert!(cands.contains(&direction_port(&c, Direction::East)));
        assert!(cands.contains(&direction_port(&c, Direction::South)));
    }

    #[test]
    fn west_first_candidates_all_minimal() {
        // Every candidate strictly reduces Manhattan distance.
        let c = cfg();
        let mut cands = Vec::new();
        for here in 0..c.rack_count() {
            let here = RouterId(here as u32);
            for dst_r in 0..c.rack_count() {
                let dst = c.node_at(RouterId(dst_r as u32), 0);
                route_candidates(&c, RoutingAlgorithm::WestFirst, here, dst, &mut cands);
                assert!(!cands.is_empty());
                let d0 = c
                    .coord_of(here)
                    .manhattan(c.coord_of(RouterId(dst_r as u32)));
                for &p in &cands {
                    match port_direction(&c, p) {
                        None => assert_eq!(d0, 0),
                        Some(dir) => {
                            let next = c
                                .coord_of(here)
                                .neighbor(dir, c.width, c.height)
                                .expect("candidate must stay in mesh");
                            let d1 = next.manhattan(c.coord_of(RouterId(dst_r as u32)));
                            assert_eq!(d1 + 1, d0, "{here}->{dst} via {dir}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn west_first_never_turns_to_west() {
        // The turn-model invariant: west only appears when ALL remaining
        // hops are west (candidate set == {West}).
        let c = cfg();
        let mut cands = Vec::new();
        for here in 0..c.rack_count() {
            for dst_r in 0..c.rack_count() {
                let dst = c.node_at(RouterId(dst_r as u32), 0);
                route_candidates(
                    &c,
                    RoutingAlgorithm::WestFirst,
                    RouterId(here as u32),
                    dst,
                    &mut cands,
                );
                let west = direction_port(&c, Direction::West);
                if cands.contains(&west) {
                    assert_eq!(cands.len(), 1, "west must be exclusive");
                }
            }
        }
    }

    #[test]
    fn hop_count_symmetric() {
        let c = cfg();
        let hop_count =
            |a: NodeId, b: NodeId| c.topo().min_hops(c.router_of_node(a), c.router_of_node(b));
        let a = c.node_at(c.router_at(RackCoord::new(0, 0)), 0);
        let b = c.node_at(c.router_at(RackCoord::new(7, 7)), 5);
        assert_eq!(hop_count(a, b), 14);
        assert_eq!(hop_count(b, a), 14);
        // Same rack: zero inter-router hops.
        let a2 = c.node_at(c.router_at(RackCoord::new(0, 0)), 1);
        assert_eq!(hop_count(a, a2), 0);
    }

    #[test]
    fn deterministic_algorithms_have_single_candidate() {
        let c = cfg();
        let mut cands = Vec::new();
        let dst = c.node_at(c.router_at(RackCoord::new(6, 6)), 2);
        for algo in [RoutingAlgorithm::XY, RoutingAlgorithm::YX] {
            route_candidates(&c, algo, RouterId(0), dst, &mut cands);
            assert_eq!(cands.len(), 1);
            assert_eq!(cands[0], route(&c, algo, RouterId(0), dst));
        }
    }
}
