//! # lumen-core — the power-aware opto-electronic networked system
//!
//! The top of the Lumen stack: wires the flit-level network simulator
//! (`lumen-noc`), the opto-electronic link power models (`lumen-opto`),
//! and the power-control policies (`lumen-policy`) into one simulated
//! system — the complete architecture of *"Exploring the Design Space of
//! Power-Aware Opto-Electronic Networked Systems"* (HPCA-11, 2005).
//!
//! ## Quick start
//!
//! ```
//! use lumen_core::prelude::*;
//!
//! // A small power-aware system under light uniform traffic.
//! let mut config = SystemConfig::paper_default();
//! config.noc = lumen_noc::NocConfig::small_for_tests();
//! config.seed = 42;
//!
//! let experiment = Experiment::new(config)
//!     .warmup_cycles(2_000)
//!     .measure_cycles(10_000);
//! let result = experiment.run_uniform(0.05, PacketSize::Fixed(5));
//! assert!(result.packets_delivered > 0);
//! // Lightly loaded: the policy parks links at low rates, saving power.
//! assert!(result.normalized_power < 1.0);
//! ```
//!
//! ## Structure
//!
//! - [`config::SystemConfig`] — everything about one system: network
//!   geometry, link technology (VCSEL vs MQW modulator), policy
//!   parameters, and whether power-awareness is enabled at all.
//! - [`sim::PowerAwareSim`] — the event-driven simulation model: router
//!   core ticks, link deliveries, policy windows, voltage ramps, optical
//!   transitions, and exact per-link energy accounting.
//! - [`runner::Experiment`] / [`results::RunResult`] — warmup + measure
//!   orchestration and the metrics the paper reports (latency, normalized
//!   power, power-latency product, plus time series for the over-time
//!   figures).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod exec;
pub mod fault;
pub mod results;
pub mod runner;
pub mod shard;
pub mod sim;
pub mod telemetry;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::config::SystemConfig;
    pub use crate::exec::{Executor, Point, Workload};
    pub use crate::fault::FaultConfig;
    pub use crate::results::{Objectives, RunResult};
    pub use crate::runner::Experiment;
    pub use crate::sim::PowerAwareSim;
    pub use crate::telemetry::{TelemetryConfig, TelemetryReport};
    pub use lumen_noc::{NocConfig, TopologyKind};
    pub use lumen_opto::link::TransmitterKind;
    pub use lumen_policy::{BitRateLadder, OpticalMode, PolicyConfig};
    pub use lumen_traffic::{
        DatacenterConfig, PacketSize, Pattern, RateProfile, SplashApp, SyntheticSource,
    };
}

pub use checkpoint::{Checkpoint, CheckpointError, CKPT_SCHEMA};
pub use config::SystemConfig;
pub use exec::{Executor, Point, Workload};
pub use fault::FaultConfig;
pub use results::RunResult;
pub use runner::Experiment;
pub use shard::{effective_shards, set_default_shards};
pub use sim::PowerAwareSim;
pub use telemetry::{MetricsRegistry, TelemetryConfig, TelemetryReport, TRACE_SCHEMA};
