//! Scheduling: strategies, schedule scripts, and schedule exploration.
//!
//! The interpreter executes one instruction per step, choosing the thread
//! via a [`Scheduler`]. Determinism is the point: every experiment seeds
//! its scheduler, and every pick the machine asks for can be recorded into
//! a [`DecisionTrace`] and replayed bit-identically later.
//!
//! The subsystem is layered:
//!
//! * [`point`](self) — *scheduling points*. The machine classifies the next
//!   instruction of the running thread into a [`PointKind`] (lock
//!   acquire/release, shared-memory access, marker, thread spawn/exit, or
//!   plain local work) and consults the scheduler only at the kinds the
//!   strategy's [`Scheduler::decision_mask`] selects. A mask of
//!   [`PointMask::ALL`] reproduces the historical pick-every-step behavior
//!   exactly; sync-only masks keep decision logs compact enough to
//!   enumerate.
//! * strategies — [`RoundRobin`] and [`SeededRandom`] (the original
//!   workhorses), [`PctScheduler`] (randomized priorities with `d`
//!   priority-change points), and the [`FrontierScheduler`] primitive the
//!   bounded-preemption explorer branches with.
//! * [`ReplayScheduler`] — re-executes any recorded [`DecisionTrace`];
//!   [`minimize`] — delta-debugs a failing trace down while preserving the
//!   failure; [`explore`] — drives whole schedule-space searches, fanned
//!   across a [`crate::TrialPool`] with index-ordered deterministic merge.
//! * [`ScheduleScript`] *gates* — the analog of the sleeps the paper
//!   injects into buggy code regions to force failure-inducing
//!   interleavings (Section 5). Gates are evaluated by the machine before
//!   scheduling, so they compose with any scheduler. Exploration exists to
//!   find the same interleavings *without* hand-written gates.

mod basic;
mod bounded;
mod decision;
mod dpor;
mod explore;
mod footprint;
mod minimize;
mod pct;
mod point;
mod replay;
mod runner;
mod script;

pub use basic::{RoundRobin, SeededRandom};
pub use bounded::{Consult, FrontierScheduler};
pub use decision::DecisionTrace;
pub use dpor::DporCounters;
pub use explore::{
    explore, explore_observed, ExploreConfig, ExploreObserver, ExplorePhases, ExploreReport,
    ExploreStrategy, FoundSchedule,
};
pub use footprint::Footprint;
pub use minimize::{minimize, MinimizeReport};
pub use pct::{PctConfig, PctScheduler};
pub use point::{PointKind, PointMask};
pub use replay::{run_replay, Divergence, ReplayScheduler};
pub use script::{Gate, ScheduleScript};

pub(crate) use script::CompiledScript;

use crate::locks::ThreadId;

/// Scheduling context handed to a scheduler at each decision point.
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// Threads eligible to run this step (runnable, un-gated, lock
    /// available if blocked on one).
    pub eligible: &'a [ThreadId],
    /// The global step counter.
    pub step: u64,
    /// Total threads in the program (eligible or not).
    pub threads: usize,
    /// The thread that ran last step (`None` before the first pick).
    pub last: Option<ThreadId>,
    /// The [`PointKind`] of the decision point, when the machine computed
    /// one (schedulers with [`PointMask::ALL`] masks are consulted every
    /// step and see `None`).
    pub point: Option<PointKind>,
    /// Per-eligible-thread [`Footprint`]s (aligned with `eligible`), when
    /// the machine computed them — only during decision-recording runs,
    /// where the explorer's independence check consumes them. Empty
    /// otherwise.
    pub footprints: &'a [footprint::Footprint],
}

impl<'a> SchedContext<'a> {
    /// A context for tests and standalone scheduler use: every thread in
    /// `eligible` exists, nothing ran before, no point kind.
    pub fn simple(eligible: &'a [ThreadId], step: u64) -> Self {
        let threads = eligible.iter().map(|t| t.index() + 1).max().unwrap_or(0);
        Self {
            eligible,
            step,
            threads,
            last: None,
            point: None,
            footprints: &[],
        }
    }
}

/// Picks the next thread to execute.
pub trait Scheduler {
    /// Chooses one of `ctx.eligible` (guaranteed non-empty).
    fn pick(&mut self, ctx: &SchedContext<'_>) -> ThreadId;

    /// A short name for reports.
    fn name(&self) -> &'static str {
        "scheduler"
    }

    /// Which scheduling points this strategy wants to decide at.
    ///
    /// With the default [`PointMask::ALL`] the machine consults the
    /// scheduler before every instruction (the historical behavior).
    /// Narrower masks make the machine continue the previously running
    /// thread silently between masked points — the scheduler is then only
    /// consulted when the running thread reaches a masked point, blocks,
    /// or exits, which is what keeps [`DecisionTrace`]s compact.
    fn decision_mask(&self) -> PointMask {
        PointMask::ALL
    }
}

/// A hash map for the searches' word-sized keys (lock ids, addresses,
/// prefix hashes) with a multiply-rotate hash instead of SipHash: the
/// explorer looks these up once per analyzed decision.
pub(crate) type WordMap<K, V> = std::collections::HashMap<K, V, WordHasher>;

/// The [`WordMap`] hasher: one multiply per word written.
#[derive(Clone, Copy, Default)]
pub(crate) struct WordHasher(u64);

impl std::hash::BuildHasher for WordHasher {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(0)
    }
}

impl std::hash::Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, w: u32) {
        self.write_u64(u64::from(w));
    }

    fn write_i64(&mut self, w: i64) {
        self.write_u64(w as u64);
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}
