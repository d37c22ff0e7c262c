//! # lumen-traffic — workload generation
//!
//! The three workload families of the paper's evaluation (§4.2), plus a
//! trace interchange format:
//!
//! - [`pattern`] — spatial destination patterns: uniform random,
//!   weighted hotspots (the paper's 4× node 4 of rack (3,5)), and the
//!   classic permutations (transpose, bit-complement, tornado) for wider
//!   design-space exploration.
//! - [`profile`] — temporal rate profiles: constant injection, phase
//!   schedules (the time-varying hotspot trace of Fig. 6(a)), and
//!   SPLASH2-like application profiles (Fig. 7).
//! - [`source`] — [`source::SyntheticSource`] combines a pattern, a
//!   profile and a packet-size distribution into a per-cycle packet
//!   generator; [`source::TraceSource`] replays a recorded trace.
//! - [`splash`] — synthetic FFT / LU / Radix phase models (see DESIGN.md
//!   for the substitution rationale: the RSIM-extracted traces are
//!   proprietary, so we synthesize traffic with the same temporal variance
//!   structure the paper describes).
//! - [`selfsimilar`] — Pareto ON/OFF long-range-dependent traffic in the
//!   spirit of the paper's ref. \[14\] (Leland et al.), for stressing the
//!   policies with burstiness that persists across timescales.
//! - [`datacenter`] — request/response datacenter traffic (incast
//!   fan-in, ON/OFF flows, diurnal load ramp) for the `ext_datacenter`
//!   scale-out scenario.
//! - [`trace`] — serde-backed record/replay.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod datacenter;
pub mod pattern;
pub mod profile;
pub mod selfsimilar;
pub mod source;
pub mod splash;
pub mod trace;

pub use datacenter::{DatacenterConfig, DatacenterSource};
pub use pattern::Pattern;
pub use profile::RateProfile;
pub use selfsimilar::{SelfSimilarConfig, SelfSimilarSource};
pub use source::{PacketSize, SyntheticSource, TraceSource, TrafficSource};
pub use splash::SplashApp;
pub use trace::{Trace, TraceRecord};
