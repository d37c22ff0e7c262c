//! Network configuration.

use crate::ids::{NodeId, RackCoord, RouterId};
use crate::routing::RoutingAlgorithm;
use crate::topology::{BuiltinTopology, Topology, TopologyKind};
use lumen_desim::{ClockDomain, Picos};
use lumen_opto::Gbps;
use serde::{Deserialize, Serialize};

/// Static configuration of the clustered mesh network.
///
/// Defaults ([`NocConfig::paper_default`]) follow the paper's evaluation
/// setup: an 8×8 mesh of racks, 8 nodes per rack, 625 MHz routers, 16-flit
/// input buffers, 16-bit flits, 10 Gb/s maximum link rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Mesh width in racks.
    pub width: u8,
    /// Mesh height in racks.
    pub height: u8,
    /// Processing nodes per rack (local router ports).
    pub nodes_per_rack: u8,
    /// Input buffer depth per port, in flits.
    pub buffer_depth: u16,
    /// Virtual channels per port.
    pub vcs: u8,
    /// Flit width in bits.
    pub flit_bits: u32,
    /// Maximum link bit rate.
    pub max_rate: Gbps,
    /// Router core clock.
    pub core_clock: ClockDomain,
    /// Link propagation (time-of-flight) delay.
    pub propagation: Picos,
    /// Delay for a credit to travel back upstream.
    pub credit_delay: Picos,
    /// Routing discipline for the mesh.
    pub routing: RoutingAlgorithm,
    /// Fabric shape (the paper's mesh in [`NocConfig::paper_default`];
    /// see [`crate::topology`]). `width`/`height`/`nodes_per_rack` above
    /// parameterize whichever topology is selected.
    pub topology: TopologyKind,
}

impl NocConfig {
    /// The paper's 64-rack, 512-node evaluation system.
    pub fn paper_default() -> Self {
        NocConfig {
            width: 8,
            height: 8,
            nodes_per_rack: 8,
            buffer_depth: 16,
            // Two VCs (8 flits each) let back-to-back packets overlap their
            // RC/VA pipeline stages, as popnet's virtual-channel routers do;
            // the total input buffering stays at the paper's 16 flits/port.
            vcs: 2,
            flit_bits: 16,
            max_rate: Gbps::from_gbps(10.0),
            core_clock: ClockDomain::router_core(),
            propagation: Picos::from_ps(3200),
            credit_delay: Picos::from_ps(1600),
            routing: RoutingAlgorithm::XY,
            topology: TopologyKind::Mesh,
        }
    }

    /// A small 2×2 mesh with 2 nodes per rack for unit tests. Tests that
    /// want another fabric set [`NocConfig::topology`] on the result.
    pub fn small_for_tests() -> Self {
        NocConfig {
            width: 2,
            height: 2,
            nodes_per_rack: 2,
            buffer_depth: 4,
            vcs: 1,
            flit_bits: 16,
            max_rate: Gbps::from_gbps(10.0),
            core_clock: ClockDomain::router_core(),
            propagation: Picos::from_ps(1600),
            credit_delay: Picos::from_ps(1600),
            routing: RoutingAlgorithm::XY,
            topology: TopologyKind::Mesh,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated constraint.
    pub fn validate(&self) {
        assert!(
            self.width >= 1 && self.height >= 1,
            "mesh must be non-empty"
        );
        assert!(
            self.nodes_per_rack >= 1,
            "each rack needs at least one node"
        );
        assert!(
            self.buffer_depth >= 1,
            "buffers must hold at least one flit"
        );
        assert!(self.vcs >= 1, "need at least one virtual channel");
        assert!(
            self.buffer_depth as usize >= self.vcs as usize,
            "buffer depth must cover all VCs"
        );
        assert!(self.flit_bits >= 1, "flits must carry bits");
        assert!(self.max_rate.as_gbps() > 0.0, "max rate must be positive");
        if let TopologyKind::FoldedClos { spines } = self.topology {
            assert!(spines >= 1, "folded Clos needs at least one spine");
        }
        assert!(
            self.ports_per_router() <= u8::MAX as usize,
            "port index must fit a u8"
        );
        assert!(
            self.ports_per_router() * self.vcs as usize <= 64,
            "router slot sets are 64-bit masks: ports x vcs must be <= 64"
        );
    }

    /// Number of racks (routers that host processing nodes).
    pub fn rack_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Total routers, including node-less ones (Clos spines).
    pub fn router_count(&self) -> usize {
        self.topo().router_count()
    }

    /// Number of processing nodes.
    pub fn node_count(&self) -> usize {
        self.rack_count() * self.nodes_per_rack as usize
    }

    /// Uniform ports per router (topology-dependent; on the mesh, local
    /// ports + N/S/E/W).
    pub fn ports_per_router(&self) -> usize {
        self.topo().ports_per_router()
    }

    /// Expands the configured [`TopologyKind`] into its concrete
    /// geometry.
    pub fn topo(&self) -> BuiltinTopology {
        BuiltinTopology::from_config(self)
    }

    /// Buffer slots available per VC (even split of the port buffer).
    pub fn depth_per_vc(&self) -> u16 {
        self.buffer_depth / self.vcs as u16
    }

    /// Maps a rack coordinate to its router id (row-major).
    pub fn router_at(&self, c: RackCoord) -> RouterId {
        debug_assert!(c.x < self.width && c.y < self.height);
        RouterId(c.y as u32 * self.width as u32 + c.x as u32)
    }

    /// Maps a rack's router id back to its grid coordinate. Only valid
    /// for routers below [`NocConfig::rack_count`] (Clos spines have no
    /// coordinate).
    pub fn coord_of(&self, r: RouterId) -> RackCoord {
        debug_assert!(r.index() < self.rack_count(), "{r} is not a rack router");
        RackCoord::new(
            (r.0 % self.width as u32) as u8,
            (r.0 / self.width as u32) as u8,
        )
    }

    /// The router serving a node.
    pub fn router_of_node(&self, n: NodeId) -> RouterId {
        RouterId(n.0 / self.nodes_per_rack as u32)
    }

    /// A node's local index within its rack (= its local port index).
    pub fn local_index(&self, n: NodeId) -> u8 {
        (n.0 % self.nodes_per_rack as u32) as u8
    }

    /// The node at a given rack-local position.
    pub fn node_at(&self, r: RouterId, local: u8) -> NodeId {
        debug_assert!(local < self.nodes_per_rack);
        NodeId(r.0 * self.nodes_per_rack as u32 + local as u32)
    }

    /// Time to serialize one flit at `rate`.
    pub fn flit_time(&self, rate: Gbps) -> Picos {
        Picos::from_ps(rate.serialization_ps(self.flit_bits))
    }

    /// One router-core cycle.
    pub fn cycle(&self) -> Picos {
        self.core_clock.period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let c = NocConfig::paper_default();
        c.validate();
        assert_eq!(c.rack_count(), 64);
        assert_eq!(c.node_count(), 512);
        assert_eq!(c.ports_per_router(), 12);
        assert_eq!(c.depth_per_vc(), 8);
    }

    #[test]
    fn router_coord_round_trip() {
        let c = NocConfig::paper_default();
        for y in 0..8 {
            for x in 0..8 {
                let coord = RackCoord::new(x, y);
                let r = c.router_at(coord);
                assert_eq!(c.coord_of(r), coord);
            }
        }
        // Paper's hotspot rack (3,5) is router 43.
        assert_eq!(c.router_at(RackCoord::new(3, 5)), RouterId(43));
    }

    #[test]
    fn node_mapping_round_trip() {
        let c = NocConfig::paper_default();
        // Paper's hotspot: node 4 in rack (3,5) = global node 348.
        let r = c.router_at(RackCoord::new(3, 5));
        let n = c.node_at(r, 4);
        assert_eq!(n, NodeId(348));
        assert_eq!(c.router_of_node(n), r);
        assert_eq!(c.local_index(n), 4);
    }

    #[test]
    fn flit_time_at_rates() {
        let c = NocConfig::paper_default();
        // 16 bits at 10 Gb/s = one 1600 ps core cycle.
        assert_eq!(c.flit_time(Gbps::from_gbps(10.0)), c.cycle());
        assert_eq!(c.flit_time(Gbps::from_gbps(5.0)), c.cycle() * 2);
    }

    #[test]
    fn topology_dispatch() {
        let mut c = NocConfig::paper_default();
        assert_eq!(c.topology, TopologyKind::Mesh);
        assert_eq!(c.router_count(), 64);
        assert_eq!(c.ports_per_router(), 12);
        // A 4×4 Clos with 4 spines: 16 leaves + 4 spines, spine needs 16
        // downlink ports.
        c.width = 4;
        c.height = 4;
        c.vcs = 2;
        c.nodes_per_rack = 4;
        c.topology = TopologyKind::FoldedClos { spines: 4 };
        c.validate();
        assert_eq!(c.rack_count(), 16);
        assert_eq!(c.router_count(), 20);
        assert_eq!(c.ports_per_router(), 16);
    }

    #[test]
    #[should_panic(expected = "slot sets")]
    fn oversized_clos_rejected() {
        let mut c = NocConfig::paper_default();
        // 64 leaves would need 64 spine downlinks × 2 VCs = 128 slots.
        c.topology = TopologyKind::FoldedClos { spines: 4 };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "virtual channel")]
    fn zero_vcs_rejected() {
        let mut c = NocConfig::paper_default();
        c.vcs = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "buffer depth must cover")]
    fn too_many_vcs_rejected() {
        let mut c = NocConfig::paper_default();
        c.vcs = 32;
        c.buffer_depth = 16;
        c.validate();
    }
}
