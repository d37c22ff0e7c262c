//! # lumen-opto — opto-electronic link physics and power models
//!
//! Implements Section 2 of *"Exploring the Design Space of Power-Aware
//! Opto-Electronic Networked Systems"* (HPCA-11, 2005): the power of every
//! component of a board-to-board / box-to-box opto-electronic link, under
//! two transmitter technologies, together with the dynamic power-control
//! (bit-rate and supply-voltage scaling) behaviour of each component.
//!
//! ## Link anatomy
//!
//! ```text
//!   Transmitter                                Receiver
//!  ┌───────────────────────────┐   fiber   ┌──────────────────────────────┐
//!  │ laser → modulator/driver  ├───────────┤ photodetector → TIA → CDR    │
//!  └───────────────────────────┘           └──────────────────────────────┘
//! ```
//!
//! Two transmitter options are modeled (paper §2.1):
//!
//! - **VCSEL** ([`vcsel`]): a directly-modulated vertical-cavity laser plus
//!   its driver. Both bit rate and supply voltage may scale.
//! - **MQW modulator** ([`modulator`]): an external mode-locked laser feeds
//!   a passive splitter tree ([`optics`]); each link has a multiple-quantum-
//!   well electro-absorption modulator and driver. The driver's supply stays
//!   fixed (voltage scaling would crush the contrast ratio), so only bit
//!   rate scales; optical power is stepped coarsely via attenuators.
//!
//! The receiver (photodetector, TIA, CDR) is common to both.
//!
//! ## Two modeling layers
//!
//! 1. **Calibrated network models** ([`link`]): each component carries its
//!    measured power at the 10 Gb/s / 1.8 V operating point (paper Table 2)
//!    plus a [`scaling::ScalingTrend`]; this is what the network simulator
//!    integrates. [`presets`] provides the paper's 0.18 µm numbers.
//! 2. **Device models** for link-level design-space exploration
//!    (`examples/link_designer.rs`): VCSEL emission (Eq. 1) and contrast
//!    under swing scaling ([`vcsel`]), MQW contrast collapse under swing
//!    scaling ([`modulator`]), the external-laser optical budget
//!    ([`optics`]) and receiver sensitivity / BER ([`sensitivity`]).
//!
//! ## Example
//!
//! ```
//! use lumen_opto::link::OperatingPoint;
//! use lumen_opto::presets;
//!
//! let link = presets::paper_vcsel_link();
//! let full = link.power(OperatingPoint::paper_max());
//! assert!((full.as_mw() - 290.0).abs() < 1e-9);
//!
//! let half = link.power(OperatingPoint::paper_at_gbps(5.0));
//! assert!(half.as_mw() < 0.25 * full.as_mw()); // >75% link-level savings
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod link;
pub mod modulator;
pub mod optics;
pub mod presets;
pub mod scaling;
pub mod sensitivity;
pub mod units;
pub mod vcsel;

// The receiver's device equations (paper Eqs. 6–9), compiled for tests
// only: the network integrates the calibrated Table 2 powers in `presets`
// (which leave out the sub-milliwatt detector), and these are the
// references the tests hold those numbers against.
#[cfg(test)]
mod cdr;
#[cfg(test)]
mod constants;
#[cfg(test)]
mod photodetector;
#[cfg(test)]
mod tia;

pub use link::{LinkPowerModel, OperatingPoint, TransmitterKind};
pub use units::{Decibels, Gbps, MicroWatts, MilliAmps, MilliWatts, Volts};
