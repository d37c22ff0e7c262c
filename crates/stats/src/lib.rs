//! # lumen-stats — metrics and statistics
//!
//! The measurement layer of the Lumen reproduction: everything the paper's
//! evaluation section reports is computed here.
//!
//! - [`summary::Summary`] — streaming mean/min/max/variance.
//! - [`histogram::Histogram`] — fixed-width bucket histogram with
//!   percentile queries, used for packet-latency distributions. Already
//!   streaming: memory is fixed by the bucket count, independent of how
//!   many samples are recorded.
//! - [`energy::EnergyAccount`] — exact integration of piecewise-constant
//!   power over simulation time; the basis of every normalized-power
//!   number (paper Figs. 5(b,e,h), 6(d), 7(b,d,f), Table 3).
//! - [`sliding::SlidingWindow`] — the fixed-length averaging window the
//!   paper's link policy controller uses over per-window utilization
//!   statistics (Eq. 11).
//! - [`timeseries::TimeSeries`] — timestamped samples for the
//!   latency/power-over-time plots (Figs. 6 and 7).
//! - [`csv`] — tiny CSV emission for the benchmark harnesses.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod csv;
pub mod energy;
pub mod histogram;
pub mod sliding;
pub mod summary;
pub mod timeseries;

pub use energy::EnergyAccount;
pub use histogram::Histogram;
pub use sliding::SlidingWindow;
pub use summary::Summary;
pub use timeseries::TimeSeries;
