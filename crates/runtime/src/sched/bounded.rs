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

/// One recorded scheduler consult, borrowed from the [`Consults`] log (or
/// lone-thread tail) that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Consult<'a> {
    /// Threads that were eligible, in thread-id order.
    pub eligible: &'a [ThreadId],
    /// Footprints of the eligible threads' next instructions, aligned with
    /// `eligible` (empty when the machine did not compute them).
    pub footprints: &'a [Footprint],
    /// The thread the scheduler chose.
    pub chosen: ThreadId,
    /// The previously running thread (`None` on the first consult).
    pub last: Option<ThreadId>,
    /// DPOR's id for the branch node this consult is, stamped when the
    /// exploring thread first analyzes the run that recorded it (`None`
    /// until then, and for consults DPOR never analyzes).
    pub(crate) node: Option<u32>,
}

impl Consult<'_> {
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
        self.chosen != default_pick(self.eligible, self.last)
    }
}

/// `u32` stand-in for `None` in a [`Consults`] head.
const NONE: u32 = u32::MAX;

/// The fixed-size part of one recorded consult.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// End of the consult's eligible set in [`Consults::threads`]; it
    /// starts where the previous consult's ends.
    end: u32,
    chosen: u32,
    last: u32,
    node: u32,
    /// Whether the machine recorded footprints for this consult.
    footprints: bool,
}

/// A run's recorded consults, in decision order. Eligible sets and
/// footprints live in two flat per-run buffers, so recording a decision
/// allocates nothing once the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct Consults {
    heads: Vec<Head>,
    /// Every consult's eligible set, concatenated.
    threads: Vec<ThreadId>,
    /// Footprints aligned with `threads` ([`Footprint::Opaque`] where a
    /// consult recorded none).
    footprints: Vec<Footprint>,
}

impl Consults {
    /// Consults recorded.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether no consult was recorded.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Records one consult. `footprints` is empty or aligned with
    /// `eligible`.
    pub fn push(
        &mut self,
        eligible: &[ThreadId],
        footprints: &[Footprint],
        chosen: ThreadId,
        last: Option<ThreadId>,
    ) {
        debug_assert!(footprints.is_empty() || footprints.len() == eligible.len());
        self.threads.extend_from_slice(eligible);
        if footprints.is_empty() {
            self.footprints
                .resize(self.threads.len(), Footprint::Opaque);
        } else {
            self.footprints.extend_from_slice(footprints);
        }
        self.heads.push(Head {
            end: self.threads.len() as u32,
            chosen: chosen.index() as u32,
            last: last.map_or(NONE, |t| t.index() as u32),
            node: NONE,
            footprints: !footprints.is_empty(),
        });
    }

    /// A one-consult log holding `c` with `chosen` as its choice — the
    /// branch override a DPOR backtrack candidate carries for the decision
    /// it reverses. The copy keeps the node id: it is the same branch node.
    pub(crate) fn branch(c: Consult<'_>, chosen: ThreadId) -> Self {
        debug_assert!(c.eligible.contains(&chosen));
        let mut out = Consults::default();
        out.push(c.eligible, c.footprints, chosen, c.last);
        out.heads[0].node = c.node.unwrap_or(NONE);
        out
    }

    /// Consult `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> Consult<'_> {
        let h = self.heads[i];
        let start = if i == 0 {
            0
        } else {
            self.heads[i - 1].end as usize
        };
        let end = h.end as usize;
        let some = |v: u32| (v != NONE).then_some(v);
        Consult {
            eligible: &self.threads[start..end],
            footprints: if h.footprints {
                &self.footprints[start..end]
            } else {
                &[]
            },
            chosen: ThreadId(h.chosen as usize),
            last: some(h.last).map(|t| ThreadId(t as usize)),
            node: some(h.node),
        }
    }

    /// Stamps consult `i` with DPOR node id `node`.
    pub(crate) fn set_node(&mut self, i: usize, node: u32) {
        self.heads[i].node = node;
    }

    /// The consults in decision order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Consult<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
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
    consults: Consults,
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
            consults: Consults::default(),
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
    pub fn consults(&self) -> &Consults {
        &self.consults
    }

    /// Consumes the scheduler, returning its consults.
    pub fn into_consults(self) -> Consults {
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
        self.consults
            .push(ctx.eligible, ctx.footprints, chosen, ctx.last);
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
        assert!(
            !consults.get(0).is_preemption(),
            "first pick never preempts"
        );
        assert!(consults.get(1).is_preemption());
        assert!(!consults.get(2).is_preemption());
    }

    #[test]
    fn consults_share_flat_buffers_and_read_back_exactly() {
        let (t0, t1, t2) = (ThreadId(0), ThreadId(1), ThreadId(2));
        let fps = [Footprint::Write(8), Footprint::Lock(1), Footprint::Read(16)];
        let mut log = Consults::default();
        log.push(&[t0, t1, t2], &fps, t1, None);
        log.push(&[t2], &[], t2, Some(t1));
        log.push(&[t0, t2], &fps[..2], t0, Some(t2));
        log.set_node(2, 7);
        assert_eq!(log.len(), 3);
        let c = log.get(0);
        assert_eq!((c.eligible, c.footprints), (&[t0, t1, t2][..], &fps[..]));
        assert_eq!((c.chosen, c.last, c.node), (t1, None, None));
        assert_eq!(c.footprint_for(t2), Footprint::Read(16));
        let c = log.get(1);
        assert_eq!((c.eligible, c.footprints), (&[t2][..], &[][..]));
        assert_eq!(c.footprint_for(t2), Footprint::Opaque, "none recorded");
        assert_eq!((c.chosen, c.last), (t2, Some(t1)));
        let c = log.get(2);
        assert_eq!((c.eligible, c.footprints), (&[t0, t2][..], &fps[..2]));
        assert_eq!(c.node, Some(7));
        // A branch override is the same node with another choice.
        let branch = Consults::branch(log.get(2), t2);
        assert_eq!(
            branch.get(0),
            Consult {
                chosen: t2,
                ..log.get(2)
            }
        );
        assert_eq!(
            log.iter().map(|c| c.chosen).collect::<Vec<_>>(),
            [t1, t2, t0]
        );
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
        let mut log = Consults::default();
        log.push(
            &[ThreadId(0), ThreadId(1), ThreadId(2)],
            &[],
            ThreadId(1),
            Some(ThreadId(1)),
        );
        log.push(
            &[ThreadId(0), ThreadId(2)],
            &[],
            ThreadId(0),
            Some(ThreadId(1)),
        );
        let c = log.get(0);
        assert!(!c.is_preemption_for(ThreadId(1)));
        assert!(c.is_preemption_for(ThreadId(0)));
        assert!(c.is_preemption_for(ThreadId(2)));
        let blocked_last = log.get(1);
        assert!(
            !blocked_last.is_preemption_for(ThreadId(2)),
            "switching away from a blocked thread is free"
        );
    }
}
