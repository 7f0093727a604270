//! Run outcomes, output logs and statistics.

use std::collections::HashMap;
use std::time::Duration;

use conair_ir::{FailureKind, Loc, SiteId};

use crate::deadlock::WaitEdge;
use crate::locks::ThreadId;
use crate::metrics::Histogram;

/// One value emitted by an `output` instruction.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OutputRecord {
    /// The emitting thread.
    pub thread: ThreadId,
    /// The output label (format-string analog).
    pub label: String,
    /// The value.
    pub value: i64,
}

/// A failure that terminated the run.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FailureRecord {
    /// The failure type.
    pub kind: FailureKind,
    /// The hardened site, when the failure occurred at one.
    pub site: Option<SiteId>,
    /// The failing thread.
    pub thread: ThreadId,
    /// The step at which the run terminated.
    pub step: u64,
    /// Human-readable message.
    pub msg: String,
    /// The failing thread's most recently executed locations, oldest
    /// first (empty unless [`crate::MachineConfig::trace_depth`] > 0).
    pub trace: Vec<(u64, Loc)>,
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RunOutcome {
    /// Every thread finished.
    Completed,
    /// A failure terminated the program (assertion/oracle violation,
    /// segmentation fault, or deadlock declared after exhausted retries).
    Failed(FailureRecord),
    /// No thread can make progress (circular lock wait, or a schedule
    /// script that can never release) — the hang symptom.
    Hang {
        /// Threads blocked on locks at the hang.
        blocked_on_locks: usize,
    },
    /// The configured step limit elapsed (livelock guard).
    StepLimit,
}

impl RunOutcome {
    /// Whether the run completed normally.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }

    /// A short stable label for the outcome class, as used in trace
    /// [`crate::TraceEvent::RunEnded`] events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Failed(_) => "failed",
            RunOutcome::Hang { .. } => "hang",
            RunOutcome::StepLimit => "step-limit",
        }
    }

    /// Whether the run failed or hung.
    pub fn is_failure(&self) -> bool {
        !self.is_completed()
    }
}

/// Recovery timing for one site that failed at least once during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SiteRecovery {
    /// Rollbacks attempted for this site (the paper's "# Retries").
    pub retries: u64,
    /// Step of the first failure detection.
    pub first_failure_step: Option<u64>,
    /// Step at which the site finally passed (recovery complete).
    pub recovered_step: Option<u64>,
}

impl SiteRecovery {
    /// Steps spent recovering, when recovery completed.
    pub fn recovery_steps(&self) -> Option<u64> {
        Some(self.recovered_step? - self.first_failure_step?)
    }
}

/// Aggregate statistics of one run: counters, per-site books and
/// distributions, all collected unconditionally (each a counter bump or an
/// O(1) histogram record) at the points where [`crate::TraceEvent`]s are
/// emitted — [`crate::summarize_events`] rebuilds the event-determined
/// fields from a trace alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Scheduler steps taken (= instructions executed, plus timeout
    /// processing steps).
    pub steps: u64,
    /// Instructions executed, summed over threads.
    pub insts: u64,
    /// Dynamic reexecution points (checkpoint executions).
    pub checkpoints: u64,
    /// Total rollbacks.
    pub rollbacks: u64,
    /// Auxiliary bookkeeping work performed by the recovery runtime:
    /// compensation records plus undo-log records. Counted separately from
    /// `insts` so the Figure-4 ablation can charge the buffered-writes
    /// policy for its logging.
    pub aux_work: u64,
    /// Per-site recovery bookkeeping.
    pub site_recovery: HashMap<SiteId, SiteRecovery>,
    /// How many times each hardened site's check executed (guard
    /// evaluations, pointer sanity checks, timed-lock acquisitions) —
    /// the signal for ConSeq-style well-tested-site pruning (paper
    /// Section 3.4).
    pub site_checks: HashMap<SiteId, u64>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Portion of `wall` spent capturing machine snapshots (zero outside
    /// [`crate::Machine::run_captured_at_branches`]) — lets the explorer's
    /// self-profiler attribute capture cost separately from
    /// interpretation.
    pub snapshot_wall: Duration,
    /// The wait-for graph at the moment of a hang (empty otherwise):
    /// feed to [`crate::find_wait_cycle`] to diagnose the circular wait.
    pub wait_edges: Vec<WaitEdge>,
    /// Steps from a site's first failure detection to its recovery
    /// completion, one sample per site that recovered.
    pub rollback_latency: Histogram,
    /// Steps spent blocked per lock acquisition that had to wait (timed-out
    /// waits included).
    pub lock_waits: Histogram,
    /// Register undo-log depth at each rollback: how many registers the
    /// epoch wrote (and restore walked back) — the per-rollback cost of the
    /// featherweight checkpoint representation, one sample per rollback.
    pub undo_depth: Histogram,
    /// Checkpoint executions that were re-executions after a rollback (the
    /// rest of `checkpoints` are first-time captures).
    pub checkpoint_reexecutions: u64,
    /// Heap blocks freed by compensation during rollbacks.
    pub compensation_frees: u64,
    /// Locks force-released by compensation during rollbacks.
    pub compensation_unlocks: u64,
    /// Scheduler picks that switched away from the previously running
    /// thread.
    pub context_switches: u64,
}

impl RunStats {
    /// Total retries over all sites.
    pub fn total_retries(&self) -> u64 {
        self.site_recovery.values().map(|r| r.retries).sum()
    }

    /// The longest recovery (steps) observed, if any site recovered.
    pub fn max_recovery_steps(&self) -> Option<u64> {
        self.site_recovery
            .values()
            .filter_map(SiteRecovery::recovery_steps)
            .max()
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The output log, in emission order.
    pub outputs: Vec<OutputRecord>,
    /// Statistics.
    pub stats: RunStats,
    /// The recorded schedule, when
    /// [`crate::MachineConfig::record_decisions`] was set — replay it with
    /// [`crate::run_replay`] to reproduce this run bit-identically.
    pub decisions: Option<crate::DecisionTrace>,
}

impl RunResult {
    /// The emitted values for a given label, in order.
    pub fn outputs_for(&self, label: &str) -> Vec<i64> {
        self.outputs
            .iter()
            .filter(|o| o.label == label)
            .map(|o| o.value)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates() {
        assert!(RunOutcome::Completed.is_completed());
        assert!(!RunOutcome::Completed.is_failure());
        assert!(RunOutcome::Hang {
            blocked_on_locks: 2
        }
        .is_failure());
        assert!(RunOutcome::StepLimit.is_failure());
        let failed = RunOutcome::Failed(FailureRecord {
            kind: FailureKind::SegFault,
            site: None,
            thread: ThreadId(0),
            step: 10,
            msg: "boom".into(),
            trace: Vec::new(),
        });
        assert!(failed.is_failure());
    }

    #[test]
    fn recovery_steps_need_both_ends() {
        let mut r = SiteRecovery::default();
        assert_eq!(r.recovery_steps(), None);
        r.first_failure_step = Some(10);
        assert_eq!(r.recovery_steps(), None);
        r.recovered_step = Some(250);
        assert_eq!(r.recovery_steps(), Some(240));
    }

    #[test]
    fn stats_aggregation() {
        let mut stats = RunStats::default();
        stats.site_recovery.insert(
            SiteId(0),
            SiteRecovery {
                retries: 3,
                first_failure_step: Some(5),
                recovered_step: Some(50),
            },
        );
        stats.site_recovery.insert(
            SiteId(1),
            SiteRecovery {
                retries: 7,
                first_failure_step: Some(1),
                recovered_step: Some(10),
            },
        );
        assert_eq!(stats.total_retries(), 10);
        assert_eq!(stats.max_recovery_steps(), Some(45));
    }

    #[test]
    fn outputs_filtered_by_label() {
        let result = RunResult {
            outcome: RunOutcome::Completed,
            outputs: vec![
                OutputRecord {
                    thread: ThreadId(0),
                    label: "a".into(),
                    value: 1,
                },
                OutputRecord {
                    thread: ThreadId(1),
                    label: "b".into(),
                    value: 2,
                },
                OutputRecord {
                    thread: ThreadId(0),
                    label: "a".into(),
                    value: 3,
                },
            ],
            stats: RunStats::default(),
            decisions: None,
        };
        assert_eq!(result.outputs_for("a"), vec![1, 3]);
        assert_eq!(result.outputs_for("b"), vec![2]);
        assert!(result.outputs_for("c").is_empty());
    }
}
