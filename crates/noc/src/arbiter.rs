//! Round-robin arbitration.

/// A rotating-priority (round-robin) arbiter over `n` requesters.
///
/// The requester immediately after the previous winner has highest
/// priority, guaranteeing starvation freedom when every requester is
/// eventually served.
///
/// # Example
///
/// ```
/// use lumen_noc::arbiter::RoundRobinArbiter;
/// let mut arb = RoundRobinArbiter::new(3);
/// assert_eq!(arb.grant(|i| i != 1), Some(0));
/// assert_eq!(arb.grant(|_| true), Some(1)); // rotates past the winner
/// assert_eq!(arb.grant(|_| true), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    n: usize,
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        RoundRobinArbiter { n, next: 0 }
    }

    /// Grants to the highest-priority requester for which `requesting`
    /// returns true, advancing the priority pointer past the winner.
    ///
    /// Two straight-line passes (`next..n`, then `0..next`) instead of a
    /// modulo per probe: this runs once per output port per router cycle,
    /// over `ports × vcs` requesters, so the integer division was a
    /// measurable slice of the whole simulation.
    pub fn grant(&mut self, mut requesting: impl FnMut(usize) -> bool) -> Option<usize> {
        for i in self.next..self.n {
            if requesting(i) {
                self.next = if i + 1 == self.n { 0 } else { i + 1 };
                return Some(i);
            }
        }
        for i in 0..self.next {
            if requesting(i) {
                self.next = i + 1; // i < next <= n, so no wrap needed
                return Some(i);
            }
        }
        None
    }

    /// Grants to the highest-priority requester whose bit is set in
    /// `mask` (bit `i` = requester `i`), advancing the priority pointer
    /// past the winner. Behaviorally identical to [`grant`] with a
    /// `requesting` closure that tests the same set: the winner is the
    /// first set bit at or after `next`, wrapping to the lowest set bit.
    ///
    /// Requires `n <= 64`; callers must not set bits at or above `n`.
    /// Replaces the per-requester closure probe on the router's critical
    /// path (switch and VC allocation) with two shifts and a
    /// trailing-zeros count.
    ///
    /// [`grant`]: RoundRobinArbiter::grant
    pub(crate) fn grant_masked(&mut self, mask: u64) -> Option<usize> {
        debug_assert!(self.n <= 64, "grant_masked needs n <= 64");
        debug_assert_eq!(mask >> self.n, 0, "mask bit set at or above n");
        if mask == 0 {
            return None;
        }
        // `next` stays in 0..n (see `grant`), so the shift never overflows.
        let high = mask >> self.next;
        let winner = if high != 0 {
            self.next + high.trailing_zeros() as usize
        } else {
            mask.trailing_zeros() as usize
        };
        self.next = if winner + 1 == self.n { 0 } else { winner + 1 };
        Some(winner)
    }

    /// The priority pointer, which a checkpoint holds: the requester
    /// that wins next if it requests.
    pub(crate) fn next(&self) -> usize {
        self.next
    }

    /// Restores the priority pointer a checkpoint holds, refusing one that
    /// is not a requester: `new` and every grant keep `next < n`, and a
    /// grant from a pointer past them would hand out a requester the
    /// caller does not have.
    pub(crate) fn restore_next(&mut self, next: usize) -> Result<(), serde::Error> {
        if next >= self.n {
            return Err(serde::Error::custom(format!(
                "arbiter priority {next} is not one of its {} requesters",
                self.n
            )));
        }
        self.next = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_in_rotation() {
        let mut arb = RoundRobinArbiter::new(4);
        let winners: Vec<usize> = (0..8).map(|_| arb.grant(|_| true).unwrap()).collect();
        assert_eq!(winners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_non_requesters() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.grant(|i| i == 2), Some(2));
        // priority now starts at 3
        assert_eq!(arb.grant(|i| i == 0 || i == 3), Some(3));
        assert_eq!(arb.grant(|i| i == 0 || i == 3), Some(0));
    }

    #[test]
    fn no_requesters_no_grant() {
        let mut arb = RoundRobinArbiter::new(3);
        assert_eq!(arb.grant(|_| false), None);
        // pointer unchanged: next grant still starts at 0
        assert_eq!(arb.grant(|_| true), Some(0));
    }

    #[test]
    fn fairness_under_full_load() {
        let mut arb = RoundRobinArbiter::new(5);
        let mut counts = [0u32; 5];
        for _ in 0..500 {
            counts[arb.grant(|_| true).unwrap()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
    }

    #[test]
    fn starvation_freedom_with_persistent_contender() {
        // Requester 0 always requests; requester 1 requests always too.
        // Both must be served in alternation.
        let mut arb = RoundRobinArbiter::new(2);
        let w: Vec<usize> = (0..6).map(|_| arb.grant(|_| true).unwrap()).collect();
        assert_eq!(w, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_requesters_rejected() {
        let _ = RoundRobinArbiter::new(0);
    }

    #[test]
    fn masked_matches_closure_grant() {
        // Drive two arbiters through the same request sequence, one via
        // the closure API and one via the mask API: every grant and the
        // internal rotation must agree.
        let n = 7;
        let mut a = RoundRobinArbiter::new(n);
        let mut b = RoundRobinArbiter::new(n);
        let mut lcg: u64 = 0x2545F4914F6CDD1D;
        for _ in 0..1000 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mask = (lcg >> 33) & ((1 << n) - 1);
            let ga = a.grant(|i| mask >> i & 1 == 1);
            let gb = b.grant_masked(mask);
            assert_eq!(ga, gb, "mask {mask:#b}");
            assert_eq!(a, b);
        }
    }

    #[test]
    fn masked_no_requesters_no_grant() {
        let mut arb = RoundRobinArbiter::new(3);
        assert_eq!(arb.grant_masked(0), None);
        assert_eq!(arb.grant_masked(0b111), Some(0));
        assert_eq!(arb.grant_masked(0b001), Some(0));
        assert_eq!(arb.grant_masked(0b011), Some(1));
    }
}
