//! Round-robin arbiters for the iterative input-first separable allocator
//! (Table V: "iterative input-first separable allocator").

/// A round-robin arbiter over `n ≤ 64` requesters. The grant pointer
/// advances past the last winner, giving each requester fair service under
/// saturation.
#[derive(Debug, Clone)]
pub struct RrArbiter {
    n: usize,
    ptr: usize,
}

impl RrArbiter {
    /// Arbiter over `n` requesters.
    pub fn new(n: usize) -> Self {
        debug_assert!(n <= u64::BITS as usize, "request vectors are one word");
        RrArbiter { n, ptr: 0 }
    }

    /// Grant among requesters for which `requesting(i)` is true; returns the
    /// winner and advances the pointer (see [`RrArbiter::grant_mask`]).
    pub fn grant(&mut self, mut requesting: impl FnMut(usize) -> bool) -> Option<usize> {
        let req = (0..self.n).fold(0, |m, i| m | (requesting(i) as u64) << i);
        self.grant_mask(req)
    }

    /// Grant among the requesters whose bit is set in `req`: a priority
    /// encoder — the lowest request at or above the pointer, else the lowest
    /// request overall. Returns the winner and moves the pointer past it;
    /// an empty request vector grants nothing and leaves the pointer.
    #[inline]
    pub fn grant_mask(&mut self, req: u64) -> Option<usize> {
        debug_assert!(
            self.n == u64::BITS as usize || req >> self.n == 0,
            "request beyond the arbiter"
        );
        if req == 0 {
            return None;
        }
        let above = req & (u64::MAX << self.ptr);
        let i = if above != 0 { above } else { req }.trailing_zeros() as usize;
        self.ptr = if i + 1 == self.n { 0 } else { i + 1 };
        Some(i)
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the arbiter has no requesters.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The sequential reference: scan from the pointer, wrapping around.
    fn scan(n: usize, ptr: &mut usize, req: u64) -> Option<usize> {
        for off in 0..n {
            let i = (*ptr + off) % n;
            if req >> i & 1 == 1 {
                *ptr = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    fn agrees_with_scan(n: usize, ptr: usize, req: u64) {
        let mut arb = RrArbiter { n, ptr };
        let mut reference = ptr;
        assert_eq!(
            arb.grant_mask(req),
            scan(n, &mut reference, req),
            "n={n} ptr={ptr} req={req:#b}"
        );
        assert_eq!(arb.ptr, reference, "pointer: n={n} ptr={ptr} req={req:#b}");
    }

    #[test]
    fn grant_mask_equals_the_scan_exhaustively_up_to_8() {
        for n in 1..=8 {
            for ptr in 0..n {
                for req in 0..1u64 << n {
                    agrees_with_scan(n, ptr, req);
                }
            }
        }
    }

    #[test]
    fn grant_mask_equals_the_scan_on_random_words_up_to_64() {
        let mut rng = SmallRng::seed_from_u64(7);
        for n in 9..=64 {
            let width = if n == 64 { u64::MAX } else { (1 << n) - 1 };
            for ptr in 0..n {
                for _ in 0..64 {
                    // Sparse and dense vectors both, so the wrap-around
                    // (nothing at or above the pointer) is common.
                    let req = rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>();
                    agrees_with_scan(n, ptr, req & width);
                    agrees_with_scan(n, ptr, rng.gen::<u64>() & width);
                }
                agrees_with_scan(n, ptr, 1 << (n - 1));
                agrees_with_scan(n, ptr, 1);
            }
        }
    }

    #[test]
    fn grants_are_round_robin_fair() {
        let mut arb = RrArbiter::new(3);
        let all = |_i: usize| true;
        let mut wins = [0usize; 3];
        for _ in 0..9 {
            wins[arb.grant(all).unwrap()] += 1;
        }
        assert_eq!(wins, [3, 3, 3]);
    }

    #[test]
    fn skips_non_requesting() {
        let mut arb = RrArbiter::new(4);
        assert_eq!(arb.grant(|i| i == 2), Some(2));
        assert_eq!(arb.grant(|i| i == 2), Some(2));
        assert_eq!(arb.grant(|_| false), None);
    }

    #[test]
    fn pointer_starts_after_last_winner() {
        let mut arb = RrArbiter::new(3);
        assert_eq!(arb.grant(|_| true), Some(0));
        assert_eq!(arb.grant(|_| true), Some(1));
        assert_eq!(arb.grant(|i| i == 0 || i == 1), Some(0));
    }

    #[test]
    fn empty_arbiter() {
        let mut arb = RrArbiter::new(0);
        assert!(arb.is_empty());
        assert_eq!(arb.grant(|_| true), None);
    }
}
