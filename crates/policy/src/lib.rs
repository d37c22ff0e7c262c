//! # lumen-policy — power-aware control policies
//!
//! Implements Section 3.2–3.3 of the paper: the machinery that decides
//! *when* and *how* each opto-electronic link changes its bit rate, supply
//! voltage and optical power level.
//!
//! - [`ladder::BitRateLadder`] — the discrete bit-rate levels a link
//!   supports and the paper's linear voltage rule (1.8 V at 10 Gb/s).
//! - [`thresholds::ThresholdTable`] — the congestion-dependent link
//!   utilization thresholds of Table 1.
//! - [`controller::LinkPolicyController`] — the per-link history-based
//!   policy: samples link utilization `Lu` and downstream buffer
//!   utilization `Bu` every window `Tw`, averages `Lu` over a sliding
//!   window of `N` windows (Eq. 11), and steps the bit rate one level up or
//!   down. It also sequences the circuit-mandated transition choreography:
//!   voltage rises *before* frequency (link stays usable through the slow
//!   ramp), frequency falls *before* voltage, and the link is disabled for
//!   the CDR relock window `Tbr` around every frequency hop.
//! - [`laser::LaserSourceController`] — the external-laser-source policy
//!   for MQW-modulator systems: coarse optical power levels switched by
//!   slow (100 µs) attenuators on a 200 µs decision period, with expedited
//!   `Pinc` (rate increases wait for light) and lazy `Pdec`.
//!
//! - [`onoff::OnOffController`] — the *alternative* discipline the paper
//!   compares against (its ref. \[26\]): links at full rate, gated
//!   completely off when idle, woken on demand with a lock penalty.
//!
//! The crate is deliberately independent of the network simulator: the
//! controllers consume numbers and emit [`controller::Transition`] /
//! [`laser::LaserUpdate`] plans that `lumen-core` applies to the network.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod controller;
pub mod ladder;
pub mod laser;
pub mod onoff;
pub mod thresholds;

pub use config::{OpticalMode, PolicyConfig, PolicyMode, TimingConfig};
pub use controller::{LinkPolicyController, Transition};
pub use ladder::BitRateLadder;
pub use laser::{LaserSourceController, OpticalGate};
pub use onoff::{GateAction, OnOffConfig, OnOffController};
pub use thresholds::ThresholdTable;
