//! The branching primitive of bounded-preemption systematic search.
//!
//! A [`FrontierScheduler`] executes a *forced prefix* of decisions, then
//! continues non-preemptively (keep the running thread while it is
//! eligible, else switch to the lowest-id eligible thread), recording every
//! consult — eligible set, chosen thread, previously running thread. The
//! explorer turns those consults into child schedules: at each decision at
//! or past the frontier, every unchosen eligible thread becomes a new
//! prefix, and switching away from a still-eligible running thread costs
//! one unit of *preemption budget* (the CHESS insight: most concurrency
//! bugs need very few preemptions, so bounding them makes the schedule
//! tree small enough to enumerate).

use super::footprint::Footprint;
use super::point::PointMask;
use super::{SchedContext, Scheduler};
use crate::locks::ThreadId;

/// One recorded scheduler consult.
#[derive(Debug, Clone)]
pub struct Consult {
    /// Threads that were eligible, in thread-id order.
    pub eligible: Vec<ThreadId>,
    /// Footprints of the eligible threads' next instructions, aligned with
    /// `eligible` (empty when the machine did not compute them).
    pub footprints: Vec<Footprint>,
    /// The thread the scheduler chose.
    pub chosen: ThreadId,
    /// The previously running thread (`None` on the first consult).
    pub last: Option<ThreadId>,
}

impl Consult {
    /// A consult with no recorded footprints — schedulers running outside
    /// decision-recording mode, and tests.
    pub fn new(eligible: Vec<ThreadId>, chosen: ThreadId, last: Option<ThreadId>) -> Self {
        Self::with_footprints(eligible, Vec::new(), chosen, last)
    }

    /// A consult carrying the machine's per-eligible-thread footprints.
    pub fn with_footprints(
        eligible: Vec<ThreadId>,
        footprints: Vec<Footprint>,
        chosen: ThreadId,
        last: Option<ThreadId>,
    ) -> Self {
        debug_assert!(footprints.is_empty() || footprints.len() == eligible.len());
        Self {
            eligible,
            footprints,
            chosen,
            last,
        }
    }

    /// A copy of this consult recording a different choice — the branch
    /// override a DPOR backtrack candidate carries for the decision it
    /// reverses.
    pub fn with_chosen(&self, chosen: ThreadId) -> Self {
        debug_assert!(self.eligible.contains(&chosen));
        Self {
            chosen,
            ..self.clone()
        }
    }

    /// The recorded footprint of `pick`'s next instruction
    /// ([`Footprint::Opaque`] when none was recorded).
    pub fn footprint_for(&self, pick: ThreadId) -> Footprint {
        self.eligible
            .iter()
            .position(|&t| t == pick)
            .and_then(|i| self.footprints.get(i).copied())
            .unwrap_or(Footprint::Opaque)
    }

    /// Whether choosing `pick` here would preempt a still-eligible running
    /// thread.
    pub fn is_preemption_for(&self, pick: ThreadId) -> bool {
        match self.last {
            Some(prev) => prev != pick && self.eligible.contains(&prev),
            None => false,
        }
    }

    /// Whether the recorded choice preempted the running thread.
    pub fn is_preemption(&self) -> bool {
        self.is_preemption_for(self.chosen)
    }

    /// Whether the recorded choice left the non-preemptive default — a
    /// preemption, or a switch to another thread than the default one
    /// when the running thread could not continue.
    pub fn is_deviation(&self) -> bool {
        self.chosen != default_pick(&self.eligible, self.last)
    }
}

/// The non-preemptive default: keep the running thread while it is
/// eligible, else run the lowest-id eligible thread.
pub(super) fn default_pick(eligible: &[ThreadId], last: Option<ThreadId>) -> ThreadId {
    match last {
        Some(prev) if eligible.contains(&prev) => prev,
        _ => eligible[0],
    }
}

/// Forced-prefix + non-preemptive-continuation scheduler.
#[derive(Debug)]
pub struct FrontierScheduler {
    prefix: Vec<u32>,
    mask: PointMask,
    idx: usize,
    consults: Vec<Consult>,
    infeasible: bool,
    picks: u64,
}

impl FrontierScheduler {
    /// A scheduler forcing `prefix` (thread indices, one per decision
    /// point) and continuing non-preemptively past it.
    pub fn new(prefix: Vec<u32>, mask: PointMask) -> Self {
        Self::resume(prefix, 0, mask)
    }

    /// A scheduler resuming a run whose first `start` decisions already
    /// happened (the machine was restored from a snapshot at that depth):
    /// forcing starts at `prefix[start]`, and consults are recorded from
    /// there — the caller accounts for the skipped ones.
    pub fn resume(prefix: Vec<u32>, start: usize, mask: PointMask) -> Self {
        Self {
            prefix,
            mask,
            idx: start,
            consults: Vec::new(),
            infeasible: false,
            picks: 0,
        }
    }

    /// Decisions this scheduler made live (excluding decisions skipped by
    /// resuming from a snapshot) — the observer's per-scheduler decision
    /// count.
    pub fn picks(&self) -> u64 {
        self.picks
    }

    /// The recorded consults, in decision order.
    pub fn consults(&self) -> &[Consult] {
        &self.consults
    }

    /// Consumes the scheduler, returning its consults.
    pub fn into_consults(self) -> Vec<Consult> {
        self.consults
    }

    /// Length of the forced prefix.
    pub fn prefix_len(&self) -> usize {
        self.prefix.len()
    }

    /// Whether a forced decision named an ineligible thread (the pick then
    /// fell back to the default continuation, as a
    /// [`ReplayScheduler`](super::ReplayScheduler) does). Never happens
    /// when the prefix came from a prior run of the same program and
    /// config — execution up to the frontier is bit-identical. The
    /// minimizer's candidates rely on the fallback: they name a thread
    /// that never exists at every decision that is not a deviation.
    pub fn infeasible(&self) -> bool {
        self.infeasible
    }
}

impl Scheduler for FrontierScheduler {
    fn pick(&mut self, ctx: &SchedContext<'_>) -> ThreadId {
        let forced = self.prefix.get(self.idx).map(|&d| ThreadId(d as usize));
        self.idx += 1;
        let chosen = match forced {
            Some(want) if ctx.eligible.contains(&want) => want,
            other => {
                if other.is_some() {
                    self.infeasible = true;
                }
                default_pick(ctx.eligible, ctx.last)
            }
        };
        self.picks += 1;
        self.consults.push(Consult::with_footprints(
            ctx.eligible.to_vec(),
            ctx.footprints.to_vec(),
            chosen,
            ctx.last,
        ));
        chosen
    }

    fn name(&self) -> &'static str {
        "bounded"
    }

    fn decision_mask(&self) -> PointMask {
        self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_prefix_is_nonpreemptive_default() {
        let mut s = FrontierScheduler::new(Vec::new(), PointMask::SYNC);
        let all = [ThreadId(0), ThreadId(1)];
        let mut ctx = SchedContext::simple(&all, 1);
        assert_eq!(s.pick(&ctx), ThreadId(0), "no last: lowest id");
        ctx.last = Some(ThreadId(1));
        assert_eq!(s.pick(&ctx), ThreadId(1), "keeps the running thread");
        let only0 = [ThreadId(0)];
        let mut ctx = SchedContext::simple(&only0, 2);
        ctx.last = Some(ThreadId(1));
        assert_eq!(s.pick(&ctx), ThreadId(0), "last ineligible: lowest id");
        assert!(!s.infeasible());
        assert_eq!(s.consults().len(), 3);
        assert_eq!(s.picks(), 3);
    }

    #[test]
    fn forced_prefix_overrides_default() {
        let mut s = FrontierScheduler::new(vec![1, 0], PointMask::SYNC);
        let all = [ThreadId(0), ThreadId(1)];
        let mut ctx = SchedContext::simple(&all, 1);
        assert_eq!(s.pick(&ctx), ThreadId(1));
        ctx.last = Some(ThreadId(1));
        assert_eq!(s.pick(&ctx), ThreadId(0), "forced preemption");
        assert_eq!(s.pick(&ctx), ThreadId(1), "past prefix: keep running");
        let consults = s.into_consults();
        assert!(!consults[0].is_preemption(), "first pick never preempts");
        assert!(consults[1].is_preemption());
        assert!(!consults[2].is_preemption());
    }

    #[test]
    fn infeasible_forced_decision_falls_back() {
        let mut s = FrontierScheduler::new(vec![7], PointMask::SYNC);
        let all = [ThreadId(0)];
        assert_eq!(s.pick(&SchedContext::simple(&all, 1)), ThreadId(0));
        assert!(s.infeasible());
    }

    #[test]
    fn preemption_cost_of_alternatives() {
        let c = Consult::new(
            vec![ThreadId(0), ThreadId(1), ThreadId(2)],
            ThreadId(1),
            Some(ThreadId(1)),
        );
        assert!(!c.is_preemption_for(ThreadId(1)));
        assert!(c.is_preemption_for(ThreadId(0)));
        assert!(c.is_preemption_for(ThreadId(2)));
        let blocked_last = Consult::new(
            vec![ThreadId(0), ThreadId(2)],
            ThreadId(0),
            Some(ThreadId(1)),
        );
        assert!(
            !blocked_last.is_preemption_for(ThreadId(2)),
            "switching away from a blocked thread is free"
        );
    }
}
