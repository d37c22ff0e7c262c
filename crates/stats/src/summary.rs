//! Streaming summary statistics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Streaming mean / variance / min / max over `f64` samples, using
/// Welford's numerically stable online algorithm.
///
/// # Example
///
/// ```
/// use lumen_stats::Summary;
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 6.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.min(), Some(2.0));
/// assert_eq!(s.max(), Some(6.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN (a NaN sample would silently poison the mean).
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (Chan et al.'s pairwise
    /// combination of count, mean and M2).
    #[cfg(test)]
    fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than 2 samples).
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean,
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
    // 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
    use proptest::prelude::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn basic_stats() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn single_sample_zero_variance() {
        let s: Summary = [5.0].into_iter().collect();
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        let b: Summary = [10.0, 20.0].into_iter().collect();
        a.merge(&b);
        let all: Summary = [1.0, 2.0, 3.0, 10.0, 20.0].into_iter().collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a: Summary = [1.0].into_iter().collect();
        a.merge(&Summary::new());
        assert_eq!(a.count(), 1);
        let mut e = Summary::new();
        e.merge(&a);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut s = Summary::new();
        s.record(f64::NAN);
    }

    proptest! {
        #[test]
        fn mean_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s: Summary = xs.iter().copied().collect();
            let lo = s.min().unwrap();
            let hi = s.max().unwrap();
            prop_assert!(s.mean() >= lo - 1e-9 && s.mean() <= hi + 1e-9);
        }

        #[test]
        fn variance_non_negative(xs in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
            let s: Summary = xs.iter().copied().collect();
            prop_assert!(s.variance() >= 0.0);
        }

        #[test]
        fn merge_matches_sequential_prop(
            xs in proptest::collection::vec(-1e3f64..1e3, 0..50),
            ys in proptest::collection::vec(-1e3f64..1e3, 0..50),
        ) {
            let mut a: Summary = xs.iter().copied().collect();
            let b: Summary = ys.iter().copied().collect();
            a.merge(&b);
            let all: Summary = xs.iter().chain(ys.iter()).copied().collect();
            prop_assert_eq!(a.count(), all.count());
            prop_assert!((a.mean() - all.mean()).abs() < 1e-6);
            prop_assert!((a.variance() - all.variance()).abs() < 1e-4);
        }
    }
}
