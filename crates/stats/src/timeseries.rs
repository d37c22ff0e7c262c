//! Timestamped sample series for the latency/power-over-time figures.

use lumen_desim::Picos;
use serde::{Deserialize, Serialize};

/// A named series of `(time, value)` samples in non-decreasing time order.
///
/// # Example
///
/// ```
/// use lumen_desim::Picos;
/// use lumen_stats::TimeSeries;
/// let mut ts = TimeSeries::new("latency");
/// ts.record(Picos::from_us(1), 12.0);
/// ts.record(Picos::from_us(2), 14.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some((Picos::from_us(2), 14.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    times: Vec<Picos>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

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

    /// Downsamples to at most `max_points` by averaging consecutive runs —
    /// used when emitting plot data for long simulations.
    ///
    /// # Panics
    ///
    /// Panics if `max_points` is zero.
    pub fn downsample(&self, max_points: usize) -> TimeSeries {
        assert!(max_points > 0, "max_points must be positive");
        if self.len() <= max_points {
            return self.clone();
        }
        let chunk = self.len().div_ceil(max_points);
        let mut out = TimeSeries::new(self.name.clone());
        for block in 0..self.len().div_ceil(chunk) {
            let lo = block * chunk;
            let hi = (lo + chunk).min(self.len());
            let t = self.times[hi - 1];
            let v = self.values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            out.record(t, v);
        }
        out
    }

    /// Values within `[from, to)`, averaged; `None` if no samples fall in
    /// the interval.
    pub fn window_mean(&self, from: Picos, to: Picos) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (t, v) in self.iter() {
            if t >= from && t < to {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> TimeSeries {
        let mut ts = TimeSeries::new("s");
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
        let mut ts = TimeSeries::new("s");
        ts.record(Picos::from_ns(1), 1.0);
        ts.record(Picos::from_ns(1), 2.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_rejected() {
        let mut ts = TimeSeries::new("s");
        ts.record(Picos::from_ns(2), 1.0);
        ts.record(Picos::from_ns(1), 2.0);
    }

    #[test]
    fn downsample_shrinks() {
        let ts = series(100);
        let d = ts.downsample(10);
        assert!(d.len() <= 10);
        assert!((d.mean() - ts.mean()).abs() < 1.0);
        // Small series unchanged.
        let small = series(3);
        assert_eq!(small.downsample(10).len(), 3);
    }

    #[test]
    fn window_mean() {
        let ts = series(10);
        let m = ts.window_mean(Picos::from_ns(2), Picos::from_ns(5)).unwrap();
        assert_eq!(m, 3.0); // values 2,3,4
        assert!(ts.window_mean(Picos::from_us(1), Picos::from_us(2)).is_none());
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new("e");
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.last(), None);
    }
}
