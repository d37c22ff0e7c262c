//! Fixed-width bucket histograms with percentile queries.

use serde::{Deserialize, Serialize};

/// A histogram over `[0, bucket_width · bucket_count)` with an overflow
/// bucket, used for packet-latency distributions.
///
/// # Example
///
/// ```
/// use lumen_stats::Histogram;
/// let mut h = Histogram::new(10.0, 100);
/// for x in [5.0, 15.0, 15.0, 995.0, 2000.0] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.overflow(), 1);
/// assert!(h.percentile(50.0) <= 20.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    bucket_width: f64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `bucket_count` buckets of `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is not positive/finite or `bucket_count`
    /// is zero.
    pub fn new(bucket_width: f64, bucket_count: usize) -> Self {
        assert!(
            bucket_width.is_finite() && bucket_width > 0.0,
            "bucket width must be positive"
        );
        assert!(bucket_count > 0, "need at least one bucket");
        Histogram {
            bucket_width,
            buckets: vec![0; bucket_count],
            overflow: 0,
            count: 0,
        }
    }

    /// Records a sample (negative samples clamp into the first bucket).
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if !x.is_finite() {
            self.overflow += 1;
            return;
        }
        let idx = (x.max(0.0) / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The lower edge of the overflow bucket: the histogram's covered
    /// range ends here, and every overflow sample is known only to be at
    /// least this large (or non-finite).
    pub(crate) fn overflow_edge(&self) -> f64 {
        self.buckets.len() as f64 * self.bucket_width
    }

    /// The value below which `p` percent of samples fall (upper edge of the
    /// containing bucket; `f64::INFINITY` if the percentile lands in the
    /// overflow bucket). Callers feeding the result into arithmetic,
    /// optimizer objectives, or serialized output should prefer
    /// [`Histogram::percentile_clamped`], which reports the overflow case
    /// as a finite edge plus a saturation flag instead.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or the histogram is empty.
    pub fn percentile(&self, p: f64) -> f64 {
        match self.percentile_clamped(p) {
            (_, true) => f64::INFINITY,
            (edge, false) => edge,
        }
    }

    /// Like [`Histogram::percentile`], but the overflow case stays finite:
    /// returns `(value, saturated)` where `saturated` means the percentile
    /// landed in the overflow bucket and `value` is the overflow's lower
    /// edge (`Histogram::overflow_edge`) — a *lower bound* on the true
    /// percentile, never `INFINITY`/`NaN`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or the histogram is empty.
    pub fn percentile_clamped(&self, p: f64) -> (f64, bool) {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        assert!(self.count > 0, "percentile of empty histogram");
        let target = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return ((i as f64 + 1.0) * self.bucket_width, false);
            }
        }
        (self.overflow_edge(), true)
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    #[cfg(test)]
    fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "bucket width mismatch"
        );
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
    // 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
    use proptest::prelude::*;

    #[test]
    fn records_into_buckets() {
        let mut h = Histogram::new(1.0, 4);
        h.record(0.5);
        h.record(1.5);
        h.record(3.9);
        h.record(4.0); // overflow
        assert_eq!(h.buckets, [1, 1, 0, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn negative_clamps_to_first_bucket() {
        let mut h = Histogram::new(1.0, 2);
        h.record(-5.0);
        assert_eq!(h.buckets, [1, 0]);
    }

    #[test]
    fn non_finite_goes_to_overflow() {
        let mut h = Histogram::new(1.0, 2);
        h.record(f64::INFINITY);
        h.record(f64::NAN);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn percentiles() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(99.0), 99.0);
        assert_eq!(h.percentile(100.0), 100.0);
        assert_eq!(h.percentile(0.0), 1.0);
    }

    #[test]
    fn percentile_in_overflow_is_infinite() {
        let mut h = Histogram::new(1.0, 1);
        h.record(100.0);
        assert_eq!(h.percentile(50.0), f64::INFINITY);
    }

    #[test]
    fn percentile_clamped_reports_overflow_edge() {
        let mut h = Histogram::new(2.0, 5);
        h.record(100.0); // overflow (edge = 10.0)
        assert_eq!(h.overflow_edge(), 10.0);
        assert_eq!(h.percentile_clamped(50.0), (10.0, true));
        // A non-overflow percentile is identical to percentile() and
        // flagged unsaturated.
        h.record(1.0);
        assert_eq!(h.percentile_clamped(50.0), (2.0, false));
        assert_eq!(h.percentile(50.0), 2.0);
    }

    #[test]
    fn percentile_clamped_is_finite_even_for_non_finite_samples() {
        let mut h = Histogram::new(1.0, 4);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        let (v, saturated) = h.percentile_clamped(99.0);
        assert!(saturated);
        assert_eq!(v, 4.0);
        assert!(v.is_finite());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(1.0, 3);
        let mut b = Histogram::new(1.0, 3);
        a.record(0.5);
        b.record(0.5);
        b.record(2.5);
        a.merge(&b);
        assert_eq!(a.buckets, [2, 0, 1]);
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        let h = Histogram::new(1.0, 3);
        let _ = h.percentile(50.0);
    }

    #[test]
    #[should_panic(expected = "bucket width mismatch")]
    fn merge_width_checked() {
        let mut a = Histogram::new(1.0, 3);
        let b = Histogram::new(2.0, 3);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "bucket count mismatch")]
    fn merge_count_checked() {
        let mut a = Histogram::new(1.0, 3);
        let b = Histogram::new(1.0, 4);
        a.merge(&b);
    }

    proptest! {
        #[test]
        fn count_preserved(xs in proptest::collection::vec(0.0f64..1e4, 0..300)) {
            let mut h = Histogram::new(7.0, 50);
            for &x in &xs {
                h.record(x);
            }
            let bucket_sum: u64 = h.buckets.iter().sum();
            prop_assert_eq!(bucket_sum + h.overflow(), xs.len() as u64);
            prop_assert_eq!(h.count(), xs.len() as u64);
        }

        #[test]
        fn percentile_monotone(xs in proptest::collection::vec(0.0f64..100.0, 1..200)) {
            let mut h = Histogram::new(1.0, 200);
            for &x in &xs {
                h.record(x);
            }
            let p25 = h.percentile(25.0);
            let p75 = h.percentile(75.0);
            prop_assert!(p25 <= p75);
        }
    }
}
