//! Experiment harness: repeated trials (sequential or fanned across a
//! [`TrialPool`]), overhead measurement and the whole-program-restart
//! baseline used by Table 7 and Figure 4.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use crate::machine::{Machine, MachineConfig};
use crate::metrics::Histogram;
use crate::outcome::{RunOutcome, RunResult};
use crate::program::Program;
use crate::sched::{ScheduleScript, Scheduler, SeededRandom};
use crate::trace::TraceSink;

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

/// Runs `program` once under an arbitrary scheduler and script.
pub fn run_with(
    program: &Program,
    config: &MachineConfig,
    script: &ScheduleScript,
    scheduler: &mut dyn Scheduler,
) -> RunResult {
    Machine::new(program, *config)
        .with_script(script)
        .run(scheduler)
}

/// Runs `program` once with structured tracing: every machine event goes
/// to `sink`. Pass a clone of a [`crate::EventBuffer`] to keep the events.
pub fn run_traced(
    program: &Program,
    config: &MachineConfig,
    script: &ScheduleScript,
    seed: u64,
    sink: Box<dyn TraceSink>,
) -> RunResult {
    let mut sched = SeededRandom::new(seed);
    Machine::new(program, *config)
        .with_script(script)
        .with_sink(sink)
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

/// Folds per-trial results into a [`TrialSummary`]. Both the sequential
/// and the parallel trial runners go through this single fold, in seed
/// order, so their summaries are identical by construction (modulo the
/// nondeterministic `wall` sum).
fn summarize(results: impl IntoIterator<Item = RunResult>, trials: usize) -> TrialSummary {
    let mut summary = TrialSummary {
        trials,
        ..TrialSummary::default()
    };
    let mut insts_total = 0u64;
    let mut retries_total = 0u64;
    for result in results {
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
    }
    summary.mean_insts = insts_total as f64 / trials.max(1) as f64;
    summary.mean_retries = retries_total as f64 / trials.max(1) as f64;
    summary
}

/// Runs `trials` seeded trials (seeds `seed0..seed0+trials`) under `script`.
pub fn run_trials(
    program: &Program,
    config: &MachineConfig,
    script: &ScheduleScript,
    seed0: u64,
    trials: usize,
) -> TrialSummary {
    summarize(
        (0..trials).map(|i| run_scripted(program, config, script, seed0 + i as u64)),
        trials,
    )
}

/// A scoped worker pool for index-addressed fan-out, built on
/// [`std::thread::scope`] — no external dependency.
///
/// Workers pull task indices from a shared counter (work stealing by
/// atomic increment), so uneven task durations balance automatically; the
/// results are returned **in index order** regardless of completion order,
/// which is what makes downstream folds deterministic.
pub struct TrialPool {
    jobs: usize,
}

impl TrialPool {
    /// A pool with `jobs` workers (`0` and `1` both mean "run inline").
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// A pool with `jobs` workers, clamped to the machine's available
    /// parallelism. For CPU-bound tasks extra workers only add context
    /// switches and allocator contention (on a single-core host a
    /// `--jobs 4` fan-out ran ~10% *slower* than sequential); since
    /// [`TrialPool::map`] returns identical results at any worker count,
    /// clamping is a pure perf decision.
    pub fn auto(jobs: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::new(jobs.min(cores))
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `task(0..count)` across the pool and returns the results in
    /// index order. With one worker (or one task) this degenerates to a
    /// plain sequential map on the calling thread.
    pub fn map<T, F>(&self, count: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.jobs <= 1 || count <= 1 {
            return (0..count).map(task).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let workers = self.jobs.min(count);
        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let task = &task;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    if tx.send((i, task(i))).is_err() {
                        break;
                    }
                });
            }
        });
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("pool worker delivered every result"))
            .collect()
    }
}

/// Runs `trials` seeded trials fanned across `jobs` workers.
///
/// Seed-pairing is preserved — trial `i` always runs with seed
/// `seed0 + i`, whichever worker picks it up — and the per-trial results
/// are folded **in seed order, not completion order**, through the same
/// fold as [`run_trials`]. The summary is therefore identical to the
/// sequential one in every field except `wall` (a sum of measured
/// per-run durations, inherently nondeterministic).
pub fn run_trials_parallel(
    program: &Program,
    config: &MachineConfig,
    script: &ScheduleScript,
    seed0: u64,
    trials: usize,
    jobs: usize,
) -> TrialSummary {
    let pool = TrialPool::new(jobs);
    if pool.jobs() <= 1 {
        return run_trials(program, config, script, seed0, trials);
    }
    let results = pool.map(trials, |i| {
        run_scripted(program, config, script, seed0 + i as u64)
    });
    summarize(results, trials)
}

/// Overhead of a hardened program relative to the original, in both
/// instruction count and wall time, measured on non-failing runs with
/// identical scheduler seeds (the paper's run-time overhead methodology:
/// same input, no failure-inducing noise, 20 runs).
#[derive(Debug, Clone, Default)]
pub struct OverheadReport {
    /// Mean instructions per run, original program.
    pub base_insts: f64,
    /// Mean instructions per run, hardened program.
    pub hardened_insts: f64,
    /// Mean dynamic reexecution points per hardened run.
    pub dynamic_points: f64,
    /// Instruction-count overhead fraction (e.g. 0.004 = 0.4%).
    pub inst_overhead: f64,
    /// Wall-clock overhead fraction (noisier; reported for completeness).
    pub wall_overhead: f64,
}

/// Measures overhead over `trials` seeds.
pub fn measure_overhead(
    original: &Program,
    hardened: &Program,
    config: &MachineConfig,
    seed0: u64,
    trials: usize,
) -> OverheadReport {
    let mut base_insts = 0u64;
    let mut hard_insts = 0u64;
    let mut points = 0u64;
    let mut base_wall = Duration::ZERO;
    let mut hard_wall = Duration::ZERO;
    for i in 0..trials {
        let seed = seed0 + i as u64;
        let b = run_once(original, config, seed);
        let h = run_once(hardened, config, seed);
        debug_assert!(
            b.outcome.is_completed() && h.outcome.is_completed(),
            "overhead must be measured on non-failing runs \
             (original: {:?}, hardened: {:?})",
            b.outcome,
            h.outcome
        );
        base_insts += b.stats.insts;
        hard_insts += h.stats.insts;
        points += h.stats.checkpoints;
        base_wall += b.stats.wall;
        hard_wall += h.stats.wall;
    }
    let t = trials.max(1) as f64;
    let base = base_insts as f64 / t;
    let hard = hard_insts as f64 / t;
    OverheadReport {
        base_insts: base,
        hardened_insts: hard,
        dynamic_points: points as f64 / t,
        inst_overhead: if base > 0.0 {
            (hard - base) / base
        } else {
            0.0
        },
        wall_overhead: if base_wall.as_nanos() > 0 {
            (hard_wall.as_secs_f64() - base_wall.as_secs_f64()) / base_wall.as_secs_f64()
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
