//! The shared independence layer of schedule exploration: instruction
//! [`Footprint`]s, the commutation predicate, and vector clocks.
//!
//! Every systematic strategy reasons about the same question — *do two
//! scheduler transitions commute?* — so the evidence lives in one place:
//! the machine records a `Footprint` per eligible thread at each consult
//! (bounded, PCT and DPOR runs all receive them through
//! [`SchedContext::footprints`](super::SchedContext)), the DPOR engine's
//! happens-before analysis calls [`Footprint::independent`], and DPOR
//! derives per-step vector clocks from the recorded footprints to find
//! *reversible races* — adjacent-in-causality dependent steps whose order
//! the search has not yet tried both ways.

/// The first shared effect a thread's next instruction would have — the
/// evidence the explorer's independence check works from. Two adjacent
/// decisions with provably disjoint footprints commute, so only one of
/// their orders needs exploring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Footprint {
    /// Acquire or release of one specific lock.
    Lock(u32),
    /// Read of one specific shared address.
    Read(i64),
    /// Write of one specific shared address.
    Write(i64),
    /// Unknown or compound effect — conservatively conflicts with
    /// everything.
    #[default]
    Opaque,
}

impl Footprint {
    /// Whether two footprints provably commute: distinct locks, reads of
    /// anything, or memory operations on distinct addresses. `Opaque`
    /// never commutes.
    pub fn independent(self, other: Footprint) -> bool {
        use Footprint::*;
        match (self, other) {
            (Lock(a), Lock(b)) => a != b,
            (Read(_), Read(_)) => true,
            (Read(a), Write(b)) | (Write(a), Read(b)) | (Write(a), Write(b)) => a != b,
            // Lock words and memory words live in disjoint state.
            (Lock(_), Read(_) | Write(_)) | (Read(_) | Write(_), Lock(_)) => true,
            (Opaque, _) | (_, Opaque) => false,
        }
    }
}

/// Whether clock `a` happens-before-or-equals clock `b` (component-wise
/// ≤).
///
/// A vector clock over scheduler decisions is a `threads`-word slice:
/// component `t` counts the decisions of thread `t` that happen-before the
/// event carrying the clock. DPOR's race analysis assigns one clock per
/// executed decision — program order plus an edge from every *dependent*
/// (non-commuting) earlier step — and two dependent steps race exactly
/// when the earlier one's clock is not below the later one's.
pub(crate) fn clock_leq(a: &[u32], b: &[u32]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Component-wise maximum of two clocks, into `into`.
pub(crate) fn clock_join(into: &mut [u32], other: &[u32]) {
    debug_assert_eq!(into.len(), other.len());
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independence_table() {
        use Footprint::*;
        assert!(Lock(0).independent(Lock(1)));
        assert!(!Lock(0).independent(Lock(0)));
        assert!(Read(8).independent(Read(8)), "reads always commute");
        assert!(!Read(8).independent(Write(8)));
        assert!(Read(8).independent(Write(9)));
        assert!(!Write(8).independent(Write(8)));
        assert!(Lock(0).independent(Write(0)), "locks are not memory");
        assert!(!Opaque.independent(Read(8)));
        assert!(!Opaque.independent(Opaque));
    }

    #[test]
    fn clocks_order_and_join() {
        let a = [1, 0];
        let b = [0, 1];
        assert!(!clock_leq(&a, &b));
        assert!(!clock_leq(&b, &a), "concurrent: neither below the other");
        let mut j = a;
        clock_join(&mut j, &b);
        assert_eq!(j, [1, 1]);
        assert!(clock_leq(&a, &j));
        assert!(clock_leq(&b, &j));
        assert!(clock_leq(&[0, 0], &a), "zero below everything");
    }
}
