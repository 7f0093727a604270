//! Experiment harness: seeded single runs, repeated trials fanned across
//! a [`TrialPool`], the seed-paired overhead meter behind Table 3 and
//! Figure 4, and the whole-program-restart baseline of Table 7 and
//! Figure 4. A run with any other scheduler, script or trace sink is a
//! [`Machine`] builder chain at the call site.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use crate::machine::{Machine, MachineConfig};
use crate::metrics::Histogram;
use crate::outcome::{RunOutcome, RunResult};
use crate::program::Program;
use crate::sched::{ScheduleScript, SeededRandom};

/// Runs `program` once with a seeded random scheduler.
pub fn run_once(program: &Program, config: &MachineConfig, seed: u64) -> RunResult {
    let mut sched = SeededRandom::new(seed);
    Machine::new(program, *config).run(&mut sched)
}

/// Runs `program` once under a schedule script (bug forcing). The script
/// is borrowed — repeated trials share one script with no per-run clone.
pub fn run_scripted(
    program: &Program,
    config: &MachineConfig,
    script: &ScheduleScript,
    seed: u64,
) -> RunResult {
    let mut sched = SeededRandom::new(seed);
    Machine::new(program, *config)
        .with_script(script)
        .run(&mut sched)
}

/// Outcome tallies over repeated trials.
#[derive(Debug, Clone, Default)]
pub struct TrialSummary {
    /// Trials run.
    pub trials: usize,
    /// Runs that completed normally.
    pub completed: usize,
    /// Runs that failed (any failure kind).
    pub failed: usize,
    /// Runs that hung.
    pub hung: usize,
    /// Runs stopped by the step limit.
    pub step_limited: usize,
    /// Mean instructions executed per run.
    pub mean_insts: f64,
    /// Mean retries per run (over all sites).
    pub mean_retries: f64,
    /// Maximum recovery steps seen in any run.
    pub max_recovery_steps: Option<u64>,
    /// Total wall time over all trials.
    pub wall: Duration,
    /// Distribution of per-run total retries (one sample per trial).
    pub retries_hist: Histogram,
    /// Distribution of per-site recovery latencies in steps, pooled over
    /// all trials (one sample per site that recovered).
    pub recovery_hist: Histogram,
    /// Distribution of per-run checkpoint executions (one sample per
    /// trial) — how checkpoint-dense the workload actually ran.
    pub checkpoints_hist: Histogram,
    /// Distribution of register undo-log depths at rollback, pooled over
    /// all trials (one sample per rollback) — the per-rollback cost of the
    /// featherweight checkpoint representation.
    pub undo_depth_hist: Histogram,
}

impl TrialSummary {
    /// Whether every trial completed normally — the paper's success
    /// criterion ("1000 runs, all correct").
    pub fn all_completed(&self) -> bool {
        self.completed == self.trials
    }

    /// Approximate `q`-quantile of per-run retries (`None` with no trials).
    pub fn retries_percentile(&self, q: f64) -> Option<u64> {
        self.retries_hist.percentile(q)
    }

    /// Approximate `q`-quantile of recovery latency in steps (`None` when
    /// no site ever recovered).
    pub fn recovery_percentile(&self, q: f64) -> Option<u64> {
        self.recovery_hist.percentile(q)
    }
}

/// Runs `trials` seeded trials (seeds `seed0..seed0+trials`) under
/// `script`, fanned across a [`TrialPool`] of `jobs` workers.
///
/// Trial `i` always runs with seed `seed0 + i`, whichever worker picks it
/// up, and the results are folded in seed order, not completion order.
/// The summary is therefore identical at every `jobs` in every field but
/// `wall`, a sum of measured per-run durations.
pub fn run_trials(
    program: &Program,
    config: &MachineConfig,
    script: &ScheduleScript,
    seed0: u64,
    trials: usize,
    jobs: usize,
) -> TrialSummary {
    let mut summary = TrialSummary {
        trials,
        ..TrialSummary::default()
    };
    let mut insts_total = 0u64;
    let mut retries_total = 0u64;
    TrialPool::new(jobs).for_each_in_order(
        trials,
        |i| run_scripted(program, config, script, seed0 + i as u64),
        |result| {
            match &result.outcome {
                RunOutcome::Completed => summary.completed += 1,
                RunOutcome::Failed(_) => summary.failed += 1,
                RunOutcome::Hang { .. } => summary.hung += 1,
                RunOutcome::StepLimit => summary.step_limited += 1,
            }
            insts_total += result.stats.insts;
            let run_retries = result.stats.total_retries();
            retries_total += run_retries;
            summary.retries_hist.record(run_retries);
            summary.recovery_hist.merge(&result.stats.rollback_latency);
            summary.checkpoints_hist.record(result.stats.checkpoints);
            summary.undo_depth_hist.merge(&result.stats.undo_depth);
            summary.max_recovery_steps = summary
                .max_recovery_steps
                .max(result.stats.max_recovery_steps());
            summary.wall += result.stats.wall;
        },
    );
    summary.mean_insts = insts_total as f64 / trials.max(1) as f64;
    summary.mean_retries = retries_total as f64 / trials.max(1) as f64;
    summary
}

/// A scoped worker pool for index-addressed fan-out, built on
/// [`std::thread::scope`] — no external dependency.
///
/// Workers pull task indices from a shared counter (work stealing by
/// atomic increment), so uneven task durations balance automatically; the
/// results are returned **in index order** regardless of completion order,
/// which is what makes downstream folds deterministic.
///
/// The worker count is clamped to the host's available parallelism. For
/// CPU-bound tasks extra workers only add context switches and allocator
/// contention (on a single-core host a `--jobs 4` fan-out ran ~10%
/// *slower* than sequential), and since [`TrialPool::map`] returns
/// identical results at any worker count, the clamp changes only wall
/// time. Building a pool starts no thread.
pub struct TrialPool {
    jobs: usize,
}

impl TrialPool {
    /// A pool with `jobs` workers, clamped to `1..=available_parallelism`
    /// (`0` and `1` both mean "run inline").
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs > 1 {
            jobs.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
        } else {
            1
        };
        Self { jobs }
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `task(0..count)` across the pool and returns the results in
    /// index order.
    pub fn map<T, F>(&self, count: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(count);
        self.for_each_in_order(count, task, |r| out.push(r));
        out
    }

    /// Runs `task(0..count)` across the pool and hands each result to
    /// `sink` on the calling thread, in index order, as soon as every
    /// lower index has been handed over. Only results that finish ahead of
    /// a slower lower index are held, so a long fold keeps a small,
    /// bounded working set instead of every result. With one worker (or
    /// one task) this is a plain sequential loop on the calling thread.
    pub fn for_each_in_order<T, F>(&self, count: usize, task: F, mut sink: impl FnMut(T))
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.jobs <= 1 || count <= 1 {
            (0..count).map(task).for_each(sink);
            return;
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let mut due = 0;
        std::thread::scope(|s| {
            for _ in 0..self.jobs.min(count) {
                let tx = tx.clone();
                let next = &next;
                let task = &task;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count || tx.send((i, task(i))).is_err() {
                        break;
                    }
                });
            }
            // The workers hold the only senders now, so the drain below
            // ends when the last of them finishes.
            drop(tx);
            let mut ahead = BTreeMap::new();
            for (i, r) in rx {
                ahead.insert(i, r);
                while let Some(r) = ahead.remove(&due) {
                    sink(r);
                    due += 1;
                }
            }
        });
        assert_eq!(due, count, "pool worker delivered every result");
    }
}

/// Seed-paired run-time overhead of a hardened program over its original:
/// the paper's methodology (same input, no failure during measurement).
/// Work counts executed instructions plus the recovery runtime's auxiliary
/// bookkeeping ([`crate::RunStats::aux_work`]), so the buffered-writes
/// policy of Figure 4 is charged for its logging.
#[derive(Debug, Clone, Default)]
pub struct OverheadReport {
    /// Mean work per run, original program.
    pub base_work: f64,
    /// Mean work per run, hardened program.
    pub hardened_work: f64,
    /// Mean dynamic reexecution points per hardened run.
    pub dynamic_points: f64,
    /// Work overhead fraction, clamped at 0 (e.g. 0.004 = 0.4%).
    pub overhead: f64,
}

/// Measures overhead over `trials` seed pairs: run `i` of each program
/// uses seed `seed0 + i` under `script` (a benign one: Table 3 and
/// Figure 4 pass the workload's benign script).
///
/// # Panics
///
/// If any run fails to complete: overhead is defined on non-failing runs
/// only.
pub fn measure_overhead(
    original: &Program,
    hardened: &Program,
    config: &MachineConfig,
    script: &ScheduleScript,
    seed0: u64,
    trials: usize,
) -> OverheadReport {
    let mut base = 0u64;
    let mut hard = 0u64;
    let mut points = 0u64;
    for i in 0..trials {
        let seed = seed0 + i as u64;
        let b = run_scripted(original, config, script, seed);
        let h = run_scripted(hardened, config, script, seed);
        assert!(
            b.outcome.is_completed() && h.outcome.is_completed(),
            "overhead runs must not fail (original: {:?}, hardened: {:?})",
            b.outcome,
            h.outcome
        );
        base += b.stats.insts + b.stats.aux_work;
        hard += h.stats.insts + h.stats.aux_work;
        points += h.stats.checkpoints;
    }
    let t = trials.max(1) as f64;
    OverheadReport {
        base_work: base as f64 / t,
        hardened_work: hard as f64 / t,
        dynamic_points: points as f64 / t,
        overhead: if base > 0 {
            ((hard as f64 - base as f64) / base as f64).max(0.0)
        } else {
            0.0
        },
    }
}

/// The whole-program-restart recovery baseline (Table 7's "Restart"
/// column): on failure, the entire program re-runs from scratch with a
/// different seed until it completes. The cost is the steps wasted in
/// failed attempts plus one full successful run.
#[derive(Debug, Clone)]
pub struct RestartReport {
    /// Total steps spent including failed attempts and the final success.
    pub total_steps: u64,
    /// Number of restarts needed before success.
    pub restarts: usize,
    /// Whether a successful run was eventually obtained.
    pub succeeded: bool,
}

/// Measures restart recovery: run under the bug-forcing script (which makes
/// the original program fail); then restart under `retry_script` with fresh
/// seeds (the failure is nondeterministic in the field, so a retry under a
/// non-forced — or known-good — schedule eventually passes).
pub fn measure_restart(
    program: &Program,
    config: &MachineConfig,
    script: &ScheduleScript,
    retry_script: &ScheduleScript,
    seed0: u64,
    max_restarts: usize,
) -> RestartReport {
    let mut total_steps = 0u64;
    // First run: the bug manifests.
    let first = run_scripted(program, config, script, seed0);
    total_steps += first.stats.steps;
    if first.outcome.is_completed() {
        return RestartReport {
            total_steps,
            restarts: 0,
            succeeded: true,
        };
    }
    // Restarts: the failure-inducing interleaving is not forced again.
    for i in 0..max_restarts {
        let r = run_scripted(program, config, retry_script, seed0 + 1 + i as u64);
        total_steps += r.stats.steps;
        if r.outcome.is_completed() {
            return RestartReport {
                total_steps,
                restarts: i + 1,
                succeeded: true,
            };
        }
    }
    RestartReport {
        total_steps,
        restarts: max_restarts,
        succeeded: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_clamps_workers_to_the_host() {
        // Building a pool starts no thread, so an absurd request is safe
        // to construct; it must come back clamped.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(TrialPool::new(usize::MAX).jobs() <= cores);
        assert_eq!(TrialPool::new(0).jobs(), 1);
        assert_eq!(TrialPool::new(1).jobs(), 1);
    }

    #[test]
    fn pool_returns_results_in_index_order() {
        let got = TrialPool::new(64).map(100, |i| i);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
