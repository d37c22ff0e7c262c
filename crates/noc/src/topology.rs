//! Topology abstraction: link enumeration, minimal routing, shard cuts.
//!
//! The paper evaluates one fixed 8×8 clustered mesh, but its power-aware
//! link policies are topology-agnostic. This module factors everything
//! geometric out of [`Network`](crate::network::Network) construction and
//! the routing layer into the [`Topology`] trait, so the same
//! router/link/policy stack runs on arbitrary rectangular meshes
//! ([`Mesh`]) and on a two-level folded-Clos fabric ([`FoldedClos`]).
//!
//! ## Contract
//!
//! Implementations must be **deterministic**: [`Topology::channels`] must
//! enumerate the same channels in the same order on every call, and
//! [`Topology::route_inter`] must push the same candidate set in the same
//! order for the same `(algorithm, here, dst)` triple. The whole
//! simulator's bit-reproducibility (and the sharded backend's
//! bit-identity with the sequential engine) rests on this.
//!
//! Channels must additionally be **grouped by source router in ascending
//! id order** — the sharded backend maps contiguous router ranges to
//! contiguous link ranges through a prefix sum over per-router
//! out-degrees, which is only valid under that grouping.
//!
//! Routing must be **minimal and livelock-free**: every candidate port
//! leads to a router strictly closer to the destination (in
//! [`Topology::min_hops`] terms). Deadlock freedom is the
//! implementation's responsibility; the built-ins rely on dimension
//! order or west-first turn restrictions (mesh) and up/down routing
//! (folded Clos).

use crate::config::NocConfig;
use crate::ids::{Direction, PortId, RackCoord, RouterId};
use crate::routing::RoutingAlgorithm;
use lumen_desim::Picos;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A directed router-to-router channel: the unit of inter-router link
/// enumeration. [`Network`](crate::network::Network) materializes one
/// [`Link`](crate::link::Link) per channel, in enumeration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// Source router.
    pub from: RouterId,
    /// Output port on the source router.
    pub from_port: PortId,
    /// Destination router.
    pub to: RouterId,
    /// Input port on the destination router.
    pub to_port: PortId,
}

/// Which built-in topology a [`NocConfig`] describes.
///
/// Stored on the configuration and expanded to a concrete
/// [`BuiltinTopology`] via [`NocConfig::topo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Rectangular mesh (the paper's fabric).
    Mesh,
    /// Two-level folded Clos (fat tree): every rack (leaf) connects to
    /// every spine.
    FoldedClos {
        /// Number of spine routers.
        spines: u8,
    },
}

/// The geometric contract a fabric must satisfy to host the simulator.
///
/// A topology knows how many routers exist, which of them host processing
/// nodes ("racks"), how the routers are wired ([`Topology::channels`]),
/// how to route between them ([`Topology::route_inter`]), and how to cut
/// itself into contiguous bands for the sharded backend
/// ([`Topology::shard_cuts`]). See the module docs for the determinism,
/// ordering, and deadlock-freedom requirements.
///
/// ```
/// use lumen_noc::topology::{Mesh, Topology};
/// use lumen_noc::ids::RouterId;
/// use lumen_noc::routing::RoutingAlgorithm;
///
/// let mesh = Mesh { width: 4, height: 4, nodes_per_rack: 2 };
/// assert_eq!(mesh.router_count(), 16);
/// assert_eq!(mesh.ports_per_router(), 2 + 4); // locals + N/S/E/W
///
/// // Channels are grouped by source router, ascending.
/// let mut channels = Vec::new();
/// mesh.channels(&mut channels);
/// assert!(channels.windows(2).all(|w| w[0].from.0 <= w[1].from.0));
///
/// // Corner (0,0) to corner (3,3): XY routing goes East first, and the
/// // minimal distance is the Manhattan distance.
/// let mut out = Vec::new();
/// mesh.route_inter(RoutingAlgorithm::XY, RouterId(0), RouterId(15), &mut out);
/// assert_eq!(out.len(), 1);
/// assert_eq!(mesh.min_hops(RouterId(0), RouterId(15)), 6);
/// ```
pub trait Topology {
    /// Total number of routers, including any (like Clos spines) that
    /// host no processing nodes. Routers `0..rack_count()` are the racks;
    /// node-less routers must occupy the tail of the id space.
    fn router_count(&self) -> usize;

    /// Number of routers that host processing nodes.
    fn rack_count(&self) -> usize;

    /// Uniform port count sized for the busiest router. Ports
    /// `0..nodes_per_rack` are a rack's local injection/ejection ports;
    /// the meaning of higher ports is topology-specific. Ports a given
    /// router never wires simply stay unconnected (as mesh edge routers
    /// already leave some of N/S/E/W unwired).
    fn ports_per_router(&self) -> usize;

    /// Appends every inter-router channel to `out`, grouped by `from`
    /// router in ascending id order (see the module docs for why).
    fn channels(&self, out: &mut Vec<Channel>);

    /// Appends every permitted minimal output port at `here` for a
    /// packet bound for router `dst` (which must differ from `here`).
    /// Deterministic: same inputs, same candidates, same order.
    fn route_inter(
        &self,
        algo: RoutingAlgorithm,
        here: RouterId,
        dst: RouterId,
        out: &mut Vec<PortId>,
    );

    /// Minimal router-to-router hop distance.
    fn min_hops(&self, a: RouterId, b: RouterId) -> u32;

    /// The finest shard count [`Topology::shard_cuts`] supports.
    fn max_shards(&self) -> usize;

    /// Cuts the router id space into `shards` contiguous, non-empty,
    /// gap-free ranges covering `0..router_count()`. `shards` must be in
    /// `1..=max_shards()`. The sharded backend gives each range (plus the
    /// nodes and links hanging off it) to one worker thread.
    fn shard_cuts(&self, shards: usize) -> Vec<Range<usize>>;

    /// Propagation (time-of-flight) latency of channel `ch`. The built-in
    /// fabrics are latency-uniform and return `default`
    /// ([`NocConfig::propagation`]); a topology with per-hop fiber lengths
    /// can override this, and [`Network`](crate::network::Network) will
    /// build each inter-router link with the channel's own latency.
    fn channel_latency(&self, _ch: &Channel, default: Picos) -> Picos {
        default
    }

    /// The minimum [`channel_latency`](Topology::channel_latency) over
    /// every channel that crosses a band boundary of
    /// [`shard_cuts`](Topology::shard_cuts)`(shards)`, or `None` when no
    /// channel crosses a cut (a single shard, or fully disconnected
    /// bands). This is the propagation term of the sharded backend's
    /// conservative lookahead: no cross-cut effect can arrive sooner than
    /// the cheapest boundary crossing.
    fn min_cut_latency(&self, shards: usize, default: Picos) -> Option<Picos> {
        if shards <= 1 {
            return None;
        }
        let mut band = vec![0usize; self.router_count()];
        for (s, range) in self.shard_cuts(shards).into_iter().enumerate() {
            for r in range {
                band[r] = s;
            }
        }
        let mut channels = Vec::new();
        self.channels(&mut channels);
        channels
            .iter()
            .filter(|ch| band[ch.from.index()] != band[ch.to.index()])
            .map(|ch| self.channel_latency(ch, default))
            .min()
    }
}

// ---------------------------------------------------------------------
// Shared grid helpers
// ---------------------------------------------------------------------

/// Port index of a mesh direction given the number of local ports.
#[inline]
fn dir_port(nodes_per_rack: u8, dir: Direction) -> PortId {
    PortId(nodes_per_rack + dir.index() as u8)
}

#[inline]
fn grid_router(width: u8, c: RackCoord) -> RouterId {
    RouterId(c.y as u32 * width as u32 + c.x as u32)
}

#[inline]
fn grid_coord(width: u8, r: RouterId) -> RackCoord {
    RackCoord::new((r.0 % width as u32) as u8, (r.0 / width as u32) as u8)
}

/// Row-band cuts shared by [`Mesh`] and [`FoldedClos`]: shard `s` gets rows
/// `s·h/S .. (s+1)·h/S`, i.e. routers `row·width` onward.
fn row_band_cuts(width: u8, height: u8, shards: usize) -> Vec<Range<usize>> {
    let (w, h) = (width as usize, height as usize);
    (0..shards)
        .map(|s| (s * h / shards) * w..((s + 1) * h / shards) * w)
        .collect()
}

// ---------------------------------------------------------------------
// Mesh
// ---------------------------------------------------------------------

/// The paper's rectangular mesh: `width × height` racks, each with
/// `nodes_per_rack` local ports plus N/S/E/W inter-router ports; edge
/// routers leave the off-mesh directions unwired.
///
/// Dimension-order (XY/YX) and west-first routing are deadlock-free here
/// with wormhole flow control and any number of virtual channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    /// Racks per row.
    pub width: u8,
    /// Racks per column.
    pub height: u8,
    /// Local (node) ports per rack.
    pub nodes_per_rack: u8,
}

impl Mesh {
    fn coord(&self, r: RouterId) -> RackCoord {
        grid_coord(self.width, r)
    }
}

impl Topology for Mesh {
    fn router_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    fn rack_count(&self) -> usize {
        self.router_count()
    }

    fn ports_per_router(&self) -> usize {
        self.nodes_per_rack as usize + 4
    }

    fn channels(&self, out: &mut Vec<Channel>) {
        for r in 0..self.router_count() {
            let here = RouterId(r as u32);
            let coord = self.coord(here);
            for dir in Direction::ALL {
                let Some(nbr) = coord.neighbor(dir, self.width, self.height) else {
                    continue;
                };
                out.push(Channel {
                    from: here,
                    from_port: dir_port(self.nodes_per_rack, dir),
                    to: grid_router(self.width, nbr),
                    to_port: dir_port(self.nodes_per_rack, dir.opposite()),
                });
            }
        }
    }

    fn route_inter(
        &self,
        algo: RoutingAlgorithm,
        here: RouterId,
        dst: RouterId,
        out: &mut Vec<PortId>,
    ) {
        debug_assert_ne!(here, dst);
        let npr = self.nodes_per_rack;
        let here_c = self.coord(here);
        let dst_c = self.coord(dst);
        match algo {
            RoutingAlgorithm::XY => {
                let dir = if dst_c.x > here_c.x {
                    Direction::East
                } else if dst_c.x < here_c.x {
                    Direction::West
                } else if dst_c.y > here_c.y {
                    Direction::South
                } else {
                    Direction::North
                };
                out.push(dir_port(npr, dir));
            }
            RoutingAlgorithm::YX => {
                let dir = if dst_c.y > here_c.y {
                    Direction::South
                } else if dst_c.y < here_c.y {
                    Direction::North
                } else if dst_c.x > here_c.x {
                    Direction::East
                } else {
                    Direction::West
                };
                out.push(dir_port(npr, dir));
            }
            RoutingAlgorithm::WestFirst => {
                if dst_c.x < here_c.x {
                    // Westward hops come first, deterministically.
                    out.push(dir_port(npr, Direction::West));
                } else {
                    // Adaptive among the remaining minimal directions.
                    if dst_c.x > here_c.x {
                        out.push(dir_port(npr, Direction::East));
                    }
                    if dst_c.y > here_c.y {
                        out.push(dir_port(npr, Direction::South));
                    } else if dst_c.y < here_c.y {
                        out.push(dir_port(npr, Direction::North));
                    }
                }
            }
        }
    }

    fn min_hops(&self, a: RouterId, b: RouterId) -> u32 {
        self.coord(a).manhattan(self.coord(b))
    }

    fn max_shards(&self) -> usize {
        self.height as usize
    }

    fn shard_cuts(&self, shards: usize) -> Vec<Range<usize>> {
        row_band_cuts(self.width, self.height, shards)
    }
}

// ---------------------------------------------------------------------
// Folded Clos
// ---------------------------------------------------------------------

/// A two-level folded Clos (fat tree): `width × height` leaf racks, each
/// wired up to every one of `spines` spine routers. Spines host no
/// processing nodes and occupy router ids `rack_count()..router_count()`.
///
/// Port layout: a leaf uses ports `0..nodes_per_rack` for its nodes and
/// port `nodes_per_rack + s` as the uplink to spine `s`; spine `s` uses
/// port `l` as the downlink to leaf `l`. The uniform per-router port
/// count is the max of the two shapes; the ports a router doesn't need
/// stay unwired.
///
/// Routing is up/down (deadlock-free by construction): a packet for a
/// different leaf goes up to spine `dst_leaf % spines` — a deterministic
/// hash that spreads destination flows across spines — then straight
/// down. All algorithms route identically here; there is no adaptivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldedClos {
    /// Leaf grid width (leaves = width × height, kept as a grid so rack
    /// coordinates and the traffic patterns built on them stay valid).
    pub width: u8,
    /// Leaf grid height.
    pub height: u8,
    /// Local (node) ports per leaf.
    pub nodes_per_rack: u8,
    /// Number of spine routers.
    pub spines: u8,
}

impl FoldedClos {
    fn leaves(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The uplink port on a leaf toward spine `s`.
    fn up_port(&self, s: u8) -> PortId {
        PortId(self.nodes_per_rack + s)
    }
}

impl Topology for FoldedClos {
    fn router_count(&self) -> usize {
        self.leaves() + self.spines as usize
    }

    fn rack_count(&self) -> usize {
        self.leaves()
    }

    fn ports_per_router(&self) -> usize {
        (self.nodes_per_rack as usize + self.spines as usize).max(self.leaves())
    }

    fn channels(&self, out: &mut Vec<Channel>) {
        let leaves = self.leaves() as u32;
        // Leaves first (ascending), each wiring one uplink per spine...
        for l in 0..leaves {
            for s in 0..self.spines {
                out.push(Channel {
                    from: RouterId(l),
                    from_port: self.up_port(s),
                    to: RouterId(leaves + s as u32),
                    to_port: PortId(l as u8),
                });
            }
        }
        // ...then spines (ascending), each wiring one downlink per leaf.
        for s in 0..self.spines {
            for l in 0..leaves {
                out.push(Channel {
                    from: RouterId(leaves + s as u32),
                    from_port: PortId(l as u8),
                    to: RouterId(l),
                    to_port: self.up_port(s),
                });
            }
        }
    }

    fn route_inter(
        &self,
        _algo: RoutingAlgorithm,
        here: RouterId,
        dst: RouterId,
        out: &mut Vec<PortId>,
    ) {
        debug_assert_ne!(here, dst);
        debug_assert!((dst.index()) < self.leaves(), "destination must be a leaf");
        if here.index() < self.leaves() {
            // Up: deterministic spine choice hashed from the destination.
            out.push(self.up_port((dst.index() % self.spines as usize) as u8));
        } else {
            // Down: spine port l is the downlink to leaf l.
            out.push(PortId(dst.index() as u8));
        }
    }

    fn min_hops(&self, a: RouterId, b: RouterId) -> u32 {
        if a == b {
            return 0;
        }
        let leaves = self.leaves();
        // Leaf↔leaf (and spine↔spine) pairs are two hops apart; any
        // leaf↔spine pair is directly wired.
        if (a.index() < leaves) == (b.index() < leaves) {
            2
        } else {
            1
        }
    }

    fn max_shards(&self) -> usize {
        self.height as usize
    }

    fn shard_cuts(&self, shards: usize) -> Vec<Range<usize>> {
        // Leaf row bands, with the spines appended to the last band so
        // the ranges still tile 0..router_count() contiguously.
        let mut cuts = row_band_cuts(self.width, self.height, shards);
        if let Some(last) = cuts.last_mut() {
            last.end = self.router_count();
        }
        cuts
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// The concrete topology a [`NocConfig`] expands to (see
/// [`NocConfig::topo`]); static dispatch over the built-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinTopology {
    /// A rectangular mesh.
    Mesh(Mesh),
    /// A two-level folded Clos.
    FoldedClos(FoldedClos),
}

macro_rules! dispatch {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            BuiltinTopology::Mesh($t) => $body,
            BuiltinTopology::FoldedClos($t) => $body,
        }
    };
}

impl BuiltinTopology {
    /// Expands a configuration's [`TopologyKind`] to its concrete
    /// geometry.
    pub(crate) fn from_config(config: &NocConfig) -> BuiltinTopology {
        let (width, height, nodes_per_rack) = (config.width, config.height, config.nodes_per_rack);
        match config.topology {
            TopologyKind::Mesh => BuiltinTopology::Mesh(Mesh {
                width,
                height,
                nodes_per_rack,
            }),
            TopologyKind::FoldedClos { spines } => BuiltinTopology::FoldedClos(FoldedClos {
                width,
                height,
                nodes_per_rack,
                spines,
            }),
        }
    }
}

impl Topology for BuiltinTopology {
    fn router_count(&self) -> usize {
        dispatch!(self, t => t.router_count())
    }

    fn rack_count(&self) -> usize {
        dispatch!(self, t => t.rack_count())
    }

    fn ports_per_router(&self) -> usize {
        dispatch!(self, t => t.ports_per_router())
    }

    fn channels(&self, out: &mut Vec<Channel>) {
        dispatch!(self, t => t.channels(out))
    }

    fn route_inter(
        &self,
        algo: RoutingAlgorithm,
        here: RouterId,
        dst: RouterId,
        out: &mut Vec<PortId>,
    ) {
        dispatch!(self, t => t.route_inter(algo, here, dst, out))
    }

    fn min_hops(&self, a: RouterId, b: RouterId) -> u32 {
        dispatch!(self, t => t.min_hops(a, b))
    }

    fn max_shards(&self) -> usize {
        dispatch!(self, t => t.max_shards())
    }

    fn shard_cuts(&self, shards: usize) -> Vec<Range<usize>> {
        dispatch!(self, t => t.shard_cuts(shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh44() -> Mesh {
        Mesh {
            width: 4,
            height: 4,
            nodes_per_rack: 2,
        }
    }

    fn clos() -> FoldedClos {
        FoldedClos {
            width: 4,
            height: 2,
            nodes_per_rack: 2,
            spines: 3,
        }
    }

    /// Walks the deterministic route from `here` to `dst` on `topo`,
    /// asserting each hop reduces `min_hops` by exactly one.
    fn walk<T: Topology>(topo: &T, algo: RoutingAlgorithm, mut here: RouterId, dst: RouterId) {
        let mut channels = Vec::new();
        topo.channels(&mut channels);
        let mut out = Vec::new();
        let mut left = topo.min_hops(here, dst);
        while here != dst {
            out.clear();
            topo.route_inter(algo, here, dst, &mut out);
            assert!(!out.is_empty(), "no route {here}->{dst}");
            let port = out[0];
            let ch = channels
                .iter()
                .find(|c| c.from == here && c.from_port == port)
                .unwrap_or_else(|| panic!("unwired port {port} at {here}"));
            here = ch.to;
            let now = topo.min_hops(here, dst);
            assert_eq!(now + 1, left, "non-minimal hop at {here}");
            left = now;
        }
        assert_eq!(left, 0);
    }

    #[test]
    fn mesh_channel_count_and_grouping() {
        let m = mesh44();
        let mut ch = Vec::new();
        m.channels(&mut ch);
        // 2 directions × 2 dims × 4 × 3 = 48 directed channels.
        assert_eq!(ch.len(), 48);
        assert!(ch.windows(2).all(|w| w[0].from.0 <= w[1].from.0));
    }

    #[test]
    fn all_pairs_route_minimally() {
        for algo in [RoutingAlgorithm::XY, RoutingAlgorithm::YX] {
            let m = mesh44();
            for a in 0..16u32 {
                for b in 0..16u32 {
                    if a != b {
                        walk(&m, algo, RouterId(a), RouterId(b));
                    }
                }
            }
        }
    }

    #[test]
    fn clos_counts_and_ports() {
        let c = clos();
        assert_eq!(c.router_count(), 8 + 3);
        assert_eq!(c.rack_count(), 8);
        // Spine needs 8 downlinks > leaf's 2 + 3.
        assert_eq!(c.ports_per_router(), 8);
        let mut ch = Vec::new();
        c.channels(&mut ch);
        assert_eq!(ch.len(), 2 * 8 * 3);
        assert!(ch.windows(2).all(|w| w[0].from.0 <= w[1].from.0));
    }

    #[test]
    fn clos_routes_up_then_down() {
        let c = clos();
        for a in 0..8u32 {
            for b in 0..8u32 {
                if a != b {
                    walk(&c, RoutingAlgorithm::XY, RouterId(a), RouterId(b));
                    assert_eq!(c.min_hops(RouterId(a), RouterId(b)), 2);
                }
            }
        }
    }

    #[test]
    fn shard_cuts_tile_contiguously() {
        let topos: [&dyn Topology; 2] = [&mesh44(), &clos()];
        for topo in topos {
            for s in 1..=topo.max_shards() {
                let cuts = topo.shard_cuts(s);
                assert_eq!(cuts.len(), s);
                let mut next = 0;
                for cut in &cuts {
                    assert_eq!(cut.start, next);
                    assert!(cut.end > cut.start, "empty cut");
                    next = cut.end;
                }
                assert_eq!(next, topo.router_count());
            }
        }
    }

    #[test]
    fn min_cut_latency_is_uniform_default_on_builtins() {
        // Built-in fabrics are latency-uniform, so whenever any channel
        // crosses a cut the minimum is exactly the uniform default.
        let d = Picos::from_ps(3_200);
        let topos: [&dyn Topology; 2] = [&mesh44(), &clos()];
        for topo in topos {
            assert_eq!(topo.min_cut_latency(1, d), None, "one band has no cut");
            for s in 2..=topo.max_shards() {
                assert_eq!(
                    topo.min_cut_latency(s, d),
                    Some(d),
                    "{s} shards on a uniform fabric"
                );
            }
        }
    }

    #[test]
    fn min_cut_latency_takes_the_cheapest_crossing() {
        // A topology with per-channel latencies must report the cheapest
        // crossing, not the first: override channel_latency to make
        // upward (to-lower-id) seam crossings cheaper.
        struct Tilted(Mesh);
        impl Topology for Tilted {
            fn router_count(&self) -> usize {
                self.0.router_count()
            }
            fn rack_count(&self) -> usize {
                self.0.rack_count()
            }
            fn ports_per_router(&self) -> usize {
                self.0.ports_per_router()
            }
            fn channels(&self, out: &mut Vec<Channel>) {
                self.0.channels(out);
            }
            fn route_inter(
                &self,
                algo: RoutingAlgorithm,
                here: RouterId,
                dst: RouterId,
                out: &mut Vec<PortId>,
            ) {
                self.0.route_inter(algo, here, dst, out);
            }
            fn min_hops(&self, a: RouterId, b: RouterId) -> u32 {
                self.0.min_hops(a, b)
            }
            fn max_shards(&self) -> usize {
                self.0.max_shards()
            }
            fn shard_cuts(&self, shards: usize) -> Vec<Range<usize>> {
                self.0.shard_cuts(shards)
            }
            fn channel_latency(&self, ch: &Channel, default: Picos) -> Picos {
                if ch.to.0 < ch.from.0 {
                    Picos::from_ps(default.as_ps() / 2)
                } else {
                    default
                }
            }
        }
        let t = Tilted(mesh44());
        let d = Picos::from_ps(3_200);
        assert_eq!(t.min_cut_latency(2, d), Some(Picos::from_ps(1_600)));
    }

    #[test]
    fn kind_serde_default_is_mesh() {
        assert_eq!(NocConfig::paper_default().topology, TopologyKind::Mesh);
        let k: TopologyKind = serde_json::from_str("\"Mesh\"").unwrap();
        assert_eq!(k, TopologyKind::Mesh);
        let k: TopologyKind = serde_json::from_str("{\"FoldedClos\":{\"spines\":4}}").unwrap();
        assert_eq!(k, TopologyKind::FoldedClos { spines: 4 });
    }
}
