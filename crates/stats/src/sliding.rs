//! Fixed-length sliding windows.
//!
//! The paper's link policy controller averages utilization statistics over
//! the last `N` sampling windows (Eq. 11) to stay robust to short-term
//! traffic fluctuation; [`SlidingWindow`] is that structure.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A sliding window holding the most recent `capacity` samples.
///
/// # Example
///
/// ```
/// use lumen_stats::SlidingWindow;
/// let mut w = SlidingWindow::new(3);
/// w.push(1.0);
/// w.push(2.0);
/// w.push(3.0);
/// w.push(4.0); // evicts 1.0
/// assert_eq!(w.mean(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlidingWindow {
    capacity: usize,
    items: VecDeque<f64>,
    sum: f64,
}

impl SlidingWindow {
    /// Creates an empty window holding up to `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            capacity,
            items: VecDeque::with_capacity(capacity),
            sum: 0.0,
        }
    }

    /// Pushes a sample, evicting the oldest if full.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        if self.items.len() == self.capacity {
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

    /// Whether the window has reached its capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
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
        let mut w = SlidingWindow::new(2);
        assert!(w.is_empty());
        w.push(10.0);
        assert_eq!(w.mean(), 10.0);
        assert!(!w.is_full());
        w.push(20.0);
        assert!(w.is_full());
        assert_eq!(w.mean(), 15.0);
        w.push(40.0);
        assert_eq!(w.mean(), 30.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.items.back().copied(), Some(40.0));
    }

    #[test]
    fn empty_mean_is_zero() {
        let w = SlidingWindow::new(4);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.items.back().copied(), None);
    }

    #[test]
    fn clear_resets() {
        let mut w = SlidingWindow::new(2);
        w.push(5.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn iter_oldest_first() {
        let mut w = SlidingWindow::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        let v: Vec<f64> = w.items.iter().copied().collect();
        assert_eq!(v, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = SlidingWindow::new(0);
    }

    proptest! {
        #[test]
        fn mean_matches_naive(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..300),
            cap in 1usize..16,
        ) {
            let mut w = SlidingWindow::new(cap);
            for &x in &xs {
                w.push(x);
            }
            let tail: Vec<f64> = xs.iter().rev().take(cap).rev().copied().collect();
            let naive = tail.iter().sum::<f64>() / tail.len() as f64;
            prop_assert!((w.mean() - naive).abs() < 1e-6);
            prop_assert_eq!(w.len(), tail.len());
        }
    }
}
