//! Fixed-length sliding windows.
//!
//! The paper's link policy controller averages utilization statistics over
//! the last `N` sampling windows (Eq. 11) to stay robust to short-term
//! traffic fluctuation; [`SlidingWindow`] is that structure. The window
//! holds only its samples and their running sum: `N` is the caller's
//! (one value for every link), passed to [`SlidingWindow::push`] and
//! [`SlidingWindow::is_full`].

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A sliding window holding the most recent samples, up to the bound the
/// caller passes.
///
/// # Example
///
/// ```
/// use lumen_stats::SlidingWindow;
/// let mut w = SlidingWindow::default();
/// w.push(1.0, 3);
/// w.push(2.0, 3);
/// w.push(3.0, 3);
/// w.push(4.0, 3); // evicts 1.0
/// assert_eq!(w.mean(), 3.0);
/// assert!(w.is_full(3));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SlidingWindow {
    items: VecDeque<f64>,
    sum: f64,
}

impl SlidingWindow {
    /// Pushes a sample, first evicting the oldest if the window already
    /// holds `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or `capacity` is zero.
    pub fn push(&mut self, x: f64, capacity: usize) {
        assert!(!x.is_nan(), "cannot record NaN");
        assert!(capacity > 0, "window capacity must be positive");
        if self.items.len() >= capacity {
            if let Some(old) = self.items.pop_front() {
                self.sum -= old;
            }
        }
        self.items.push_back(x);
        self.sum += x;
        // Defend against drift from long runs of float cancellation.
        if self.items.len().is_multiple_of(4096) {
            self.sum = self.items.iter().sum();
        }
    }

    /// The mean of the held samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.items.is_empty() {
            0.0
        } else {
            self.sum / self.items.len() as f64
        }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the window holds `capacity` samples.
    pub fn is_full(&self, capacity: usize) -> bool {
        self.items.len() == capacity
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        self.items.clear();
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
    // 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
    use proptest::prelude::*;

    #[test]
    fn fills_then_slides() {
        let mut w = SlidingWindow::default();
        assert!(w.is_empty());
        w.push(10.0, 2);
        assert_eq!(w.mean(), 10.0);
        assert!(!w.is_full(2));
        w.push(20.0, 2);
        assert!(w.is_full(2));
        assert_eq!(w.mean(), 15.0);
        w.push(40.0, 2);
        assert_eq!(w.mean(), 30.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.items.back().copied(), Some(40.0));
    }

    #[test]
    fn empty_mean_is_zero() {
        let w = SlidingWindow::default();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.items.back().copied(), None);
    }

    #[test]
    fn clear_resets() {
        let mut w = SlidingWindow::default();
        w.push(5.0, 2);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn iter_oldest_first() {
        let mut w = SlidingWindow::default();
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x, 3);
        }
        let v: Vec<f64> = w.items.iter().copied().collect();
        assert_eq!(v, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        SlidingWindow::default().push(1.0, 0);
    }

    proptest! {
        #[test]
        fn mean_matches_naive(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..300),
            cap in 1usize..16,
        ) {
            let mut w = SlidingWindow::default();
            for &x in &xs {
                w.push(x, cap);
            }
            let tail: Vec<f64> = xs.iter().rev().take(cap).rev().copied().collect();
            let naive = tail.iter().sum::<f64>() / tail.len() as f64;
            prop_assert!((w.mean() - naive).abs() < 1e-6);
            prop_assert_eq!(w.len(), tail.len());
        }
    }
}
