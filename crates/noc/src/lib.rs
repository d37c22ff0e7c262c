//! # lumen-noc — flit-level interconnection network simulator
//!
//! A from-scratch rebuild of the substrate the paper's evaluation runs on
//! (the authors modified the *popnet* simulator): a clustered 2-D mesh of
//! racks, each rack holding eight processing nodes and one communication
//! router, with every unidirectional link — inter-router *and*
//! injection/ejection — modeled as an independently-clocked, variable-rate
//! opto-electronic channel.
//!
//! ## Microarchitecture (paper §3.1, §4.1)
//!
//! - 12-port routers: 8 local injection/ejection ports + North/South/East/
//!   West, running at a fixed 625 MHz core clock.
//! - 5-stage pipeline: route computation → virtual-channel allocation →
//!   switch allocation → switch traversal → link traversal.
//! - Credit-based wormhole flow control, 16-flit input buffers, 16-bit
//!   flits, dimension-order (XY) routing.
//! - Links serialize flits at their *own* current bit rate (10 Gb/s puts a
//!   16-bit flit on the wire in exactly one core cycle; 5 Gb/s takes two),
//!   and can be disabled for bit-rate transition windows — the hook the
//!   power-aware policy layer drives.
//!
//! ## Driving the network
//!
//! [`network::Network`] is a passive model: the caller (normally
//! `lumen-core`'s simulation facade) owns the event loop, calls
//! [`network::Network::tick_range`] once per core cycle and feeds back the
//! [`network::Effect`]s (flit deliveries, credit returns) at their due
//! times. This keeps the network decoupled from the power-control policy
//! that schedules around it.
//!
//! ## Topologies
//!
//! The geometry — which routers exist, how they are wired, how packets
//! route between them, and how the fabric cuts into shard bands — lives
//! behind the [`topology::Topology`] trait. The paper's clustered mesh
//! is one implementation; a two-level folded Clos ships alongside it,
//! and TOPOLOGIES.md walks through adding your own.
//!
//! ```
//! use lumen_noc::config::NocConfig;
//! use lumen_noc::network::Network;
//!
//! let config = NocConfig::small_for_tests();
//! let net = Network::new(&config);
//! assert_eq!(net.router_count(), config.rack_count());
//! assert_eq!(net.link_count(), net.inter_router_links() + 2 * net.node_count());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arbiter;
pub mod audit;
pub mod config;
pub mod flit;
pub mod ids;
pub mod link;
pub mod network;
pub mod node;
pub mod route_table;
pub mod router;
pub mod routing;
pub mod topology;

pub use audit::{audit, audit_quiescent};
pub use config::NocConfig;
pub use flit::{Flit, Packet};
pub use ids::{LinkId, NodeId, PacketId, PortId, RackCoord, RouterId, VcId};
pub use network::{Effect, Network};
pub use route_table::RouteTable;
pub use topology::{Channel, Topology, TopologyKind};
