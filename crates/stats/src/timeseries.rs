//! Timestamped sample series for the latency/power-over-time figures.

use lumen_desim::Picos;
use serde::{Deserialize, Serialize};

/// A series of `(time, value)` samples in non-decreasing time order.
///
/// # Example
///
/// ```
/// use lumen_desim::Picos;
/// use lumen_stats::TimeSeries;
/// let mut ts = TimeSeries::default();
/// ts.record(Picos::from_us(1), 12.0);
/// ts.record(Picos::from_us(2), 14.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some((Picos::from_us(2), 14.0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    times: Vec<Picos>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded time or `value` is NaN.
    pub fn record(&mut self, at: Picos, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        if let Some(&last) = self.times.last() {
            assert!(at >= last, "samples must be time-ordered");
        }
        self.times.push(at);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(Picos, f64)> {
        match (self.times.last(), self.values.last()) {
            (Some(&t), Some(&v)) => Some((t, v)),
            _ => None,
        }
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Picos, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Mean of all values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> TimeSeries {
        let mut ts = TimeSeries::default();
        for i in 0..n {
            ts.record(Picos::from_ns(i as u64), i as f64);
        }
        ts
    }

    #[test]
    fn records_in_order() {
        let ts = series(5);
        assert_eq!(ts.len(), 5);
        assert_eq!(ts.last(), Some((Picos::from_ns(4), 4.0)));
        assert_eq!(ts.mean(), 2.0);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut ts = TimeSeries::default();
        ts.record(Picos::from_ns(1), 1.0);
        ts.record(Picos::from_ns(1), 2.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_rejected() {
        let mut ts = TimeSeries::default();
        ts.record(Picos::from_ns(2), 1.0);
        ts.record(Picos::from_ns(1), 2.0);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::default();
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.last(), None);
    }
}
