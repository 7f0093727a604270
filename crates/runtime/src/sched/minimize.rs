//! Delta-debugging minimization of failing decision traces.
//!
//! A failing schedule found by exploration may carry hundreds of decisions
//! that have nothing to do with the bug. The minimizer shrinks the trace
//! while preserving the *failure signature* (outcome class, failure kind,
//! site and thread), in two phases:
//!
//! 1. **Prefix truncation** — binary-search the shortest failing prefix
//!    (decisions after the bug triggers are dead weight; dropping the tail
//!    usually removes most of the trace at `log n` cost).
//! 2. **ddmin chunk removal** — classic delta debugging over the
//!    remaining decisions at progressively finer granularity.
//!
//! Every candidate is a lenient replay with re-recording on; a candidate
//! is accepted only if its failure signature matches **and** its
//! re-recorded trace is no longer than the current one. The accepted
//! re-recording becomes the new current trace, so the final result is
//! always the exact decision log of a real failing run — strictly
//! replayable, never longer than the input.
//!
//! Candidates run on the shared resume runner rather than from step zero.
//! A candidate agrees with the current trace up to the point it edits, and
//! a [`FrontierScheduler`](super::FrontierScheduler) forcing the whole
//! candidate falls back on an ineligible decision exactly as a
//! [`ReplayScheduler`](super::ReplayScheduler) does, so each candidate
//! resumes from the deepest snapshot any earlier candidate left along its
//! decisions, and deposits its own captures from the edit point on. All
//! runs share one lowering of the program.

use serde::{Deserialize, Serialize};

use super::decision::DecisionTrace;
use super::point::PointMask;
use super::runner::{RunPlan, Runner, SnapshotTree, CAPTURE_PER_RUN, DEFAULT_SNAPSHOT_BUDGET};
use crate::machine::MachineConfig;
use crate::outcome::RunOutcome;
use crate::program::Program;

/// What a minimization did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinimizeReport {
    /// Decisions in the input trace.
    pub original_len: usize,
    /// Decisions in the minimized trace.
    pub minimized_len: usize,
    /// Candidate replays executed.
    pub candidates: usize,
    /// The minimized trace (the decision log of a real failing run).
    pub trace: DecisionTrace,
    /// The failing outcome the minimized trace reproduces.
    pub outcome: RunOutcome,
}

/// The equivalence class minimization preserves: two runs fail "the same
/// way" when their outcome class, failure kind, site and thread agree.
fn signature(outcome: &RunOutcome) -> Option<String> {
    match outcome {
        RunOutcome::Completed => None,
        RunOutcome::Failed(f) => Some(format!(
            "failed:{:?}:{:?}:{}",
            f.kind,
            f.site,
            f.thread.index()
        )),
        RunOutcome::Hang { .. } => Some("hang".into()),
        RunOutcome::StepLimit => Some("step-limit".into()),
    }
}

/// Minimizes `trace` (a failing schedule of `program` under `config`),
/// executing at most `budget` candidate replays.
///
/// Errors if the input trace does not fail when replayed.
pub fn minimize(
    program: &Program,
    config: &MachineConfig,
    trace: &DecisionTrace,
    budget: usize,
) -> Result<MinimizeReport, String> {
    let mut cands = Candidates {
        runner: Runner::new(program, config),
        tree: SnapshotTree::new(DEFAULT_SNAPSHOT_BUDGET),
        mask: trace.point_mask(),
        count: 0,
    };

    let (outcome, recorded) = cands.run(&trace.decisions, 0);
    let Some(sig) = signature(&outcome) else {
        return Err("trace does not fail under replay; nothing to minimize".into());
    };
    // The baseline re-recording is the canonical form of the input (a
    // failing run stops at the failure, so it is never longer — but clamp
    // to the input anyway to keep the no-longer-than-original guarantee).
    let (mut current, mut current_outcome) = if recorded.len() <= trace.len() {
        (recorded, outcome)
    } else {
        (trace.clone(), outcome)
    };

    let matches = |o: &RunOutcome| signature(o).as_deref() == Some(sig.as_str());

    // Phase 1: shortest failing prefix by binary search.
    let mut lo = 0usize;
    let mut hi = current.len();
    while lo < hi && cands.count < budget {
        let mid = lo + (hi - lo) / 2;
        let (o, rec) = cands.run(&current.decisions[..mid], mid);
        if matches(&o) && rec.len() <= current.len() {
            hi = mid.min(rec.len());
            current = rec;
            current_outcome = o;
        } else {
            lo = mid + 1;
        }
    }

    // Phase 2: ddmin-style chunk removal.
    let mut n = 2usize;
    while current.len() >= 2 && cands.count < budget {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() && cands.count < budget {
            let mut cand: Vec<u32> = current.decisions[..start].to_vec();
            cand.extend_from_slice(&current.decisions[(start + chunk).min(current.len())..]);
            let (o, rec) = cands.run(&cand, start);
            if matches(&o) && rec.len() <= current.len() {
                current = rec;
                current_outcome = o;
                reduced = true;
                // Stay at the same offset: the next chunk slid into place.
            } else {
                start += chunk;
            }
        }
        if reduced {
            n = n.saturating_sub(1).max(2);
        } else if chunk <= 1 {
            break;
        } else {
            n = (n * 2).min(current.len());
        }
    }

    Ok(MinimizeReport {
        original_len: trace.len(),
        minimized_len: current.len(),
        candidates: cands.count,
        trace: current,
        outcome: current_outcome,
    })
}

/// The minimizer's candidate executor: one runner and one snapshot tree
/// for the whole minimization.
struct Candidates<'p> {
    runner: Runner<'p>,
    tree: SnapshotTree,
    mask: PointMask,
    /// Candidate replays executed.
    count: usize,
}

impl Candidates<'_> {
    /// Replays `decisions` leniently and re-records the run. The candidate
    /// agrees with the current trace on its first `edit` decisions, so its
    /// own captures start there (or past its resume point).
    fn run(&mut self, decisions: &[u32], edit: usize) -> (RunOutcome, DecisionTrace) {
        self.count += 1;
        let resume = self.tree.lookup(decisions);
        let resumed = resume.as_ref().map_or(0, |r| r.depth + 1);
        let plan = RunPlan {
            prefix: decisions.to_vec(),
            resume,
            capture: CAPTURE_PER_RUN,
            capture_from: edit.max(resumed).max(1),
        };
        let mut ex = self.runner.frontier(&plan, self.mask);
        self.tree.absorb(&mut ex);
        // A lenient replay, whichever scheduler ran it: the minimized trace
        // keeps the replay provenance.
        ex.trace.scheduler = "replay".into();
        (ex.outcome, ex.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{explore, run_replay, ExploreConfig, ExploreStrategy};
    use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder};

    fn order_violation() -> Program {
        let mut mb = ModuleBuilder::new("ov");
        let flag = mb.global("flag", 0);
        let mut fb = FuncBuilder::new("reader", 0);
        // Busy filler before the racy load, so traces have slack to shrink.
        for _ in 0..4 {
            fb.marker("spin");
        }
        let v = fb.load_global(flag);
        let ok = fb.cmp(CmpKind::Ne, v, 0);
        fb.assert(ok, "writer must have published");
        fb.ret();
        mb.function(fb.finish());
        let mut fb = FuncBuilder::new("writer", 0);
        for _ in 0..4 {
            fb.marker("wspin");
        }
        fb.store_global(flag, 1);
        fb.ret();
        mb.function(fb.finish());
        Program::from_entry_names(mb.finish(), &["reader", "writer"])
    }

    #[test]
    fn minimized_trace_still_fails_and_is_no_longer() {
        let program = order_violation();
        let config = MachineConfig::default();
        let mut ec = ExploreConfig::new(ExploreStrategy::Pct { depth: 3 });
        ec.mask = PointMask::SYNC_SHARED;
        let report = explore(&program, &config, &ec);
        let found = report.first_failure.expect("bug found");
        let min = minimize(&program, &config, &found.trace, 256).unwrap();
        assert_eq!(signature(&min.outcome), signature(&found.outcome));
        assert!(min.minimized_len <= min.original_len);
        assert_eq!(min.trace.len(), min.minimized_len);
        // The minimized trace replays to the same failure, cleanly.
        let mut cfg = config;
        cfg.record_decisions = true;
        let (replayed, div) = run_replay(&program, &cfg, &min.trace);
        assert_eq!(div, None);
        assert_eq!(replayed.outcome, min.outcome);
    }

    #[test]
    fn completing_trace_is_an_error() {
        let program = order_violation();
        let config = MachineConfig::default();
        // An empty trace replays as the default continuation: reader runs
        // first and fails — so force the benign order instead by letting
        // the writer go first.
        let mut benign = DecisionTrace::new("test", 0, PointMask::SYNC_SHARED);
        for _ in 0..64 {
            benign.decisions.push(1);
        }
        let (result, _div) = run_replay(&program, &config, &benign);
        assert!(result.outcome.is_completed(), "writer-first completes");
        assert!(minimize(&program, &config, &benign, 64).is_err());
    }
}
