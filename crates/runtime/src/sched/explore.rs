//! Schedule-space exploration: drive many schedules at a program until one
//! fails, with deterministic parallel fan-out and prefix-sharing snapshot
//! reuse.
//!
//! Three strategies share one engine:
//!
//! * **PCT** — independent randomized-priority runs seeded `seed+1,
//!   seed+2, …` after a probe run that measures `k` (decisions per run).
//! * **Bounded preemption** — systematic breadth-first enumeration of the
//!   schedule tree: each executed schedule's consults spawn children that
//!   replay the decisions up to a branch point and pick a different
//!   eligible thread there, as long as the path's preemption count stays
//!   within budget.
//! * **DPOR** — the bounded frontier, fed only race-reversing backtrack
//!   candidates (see [`super::dpor`]).
//!
//! All three run one wave loop: schedules execute in waves fanned across a
//! [`TrialPool`](crate::TrialPool), and results merge in schedule-index
//! order. Wave widths ramp 16 → 256 as a function of the wave index only
//! (never of `--jobs`), so the explored set, the failure counts and the
//! first failing schedule are **bit-identical across job counts** —
//! parallelism changes wall time only. The strategies differ at two hooks:
//!
//! * **Assembly** — where a wave's schedules come from. PCT walks each
//!   seed down the snapshot tree; bounded and DPOR pop one shared
//!   candidate queue and look up each candidate's resume point.
//! * **Expansion** ([`Frontier::expand`]) — what an executed run adds to
//!   the queue: bounded enqueues every within-bound child, DPOR only the
//!   race-reversing ones, PCT nothing.
//!
//! The candidate queue needs no duplicate check. A candidate's last forced
//! decision always deviates from the non-preemptive default, and past its
//! prefix every run continues by default, so no two candidates force the
//! same prefix and no schedule runs twice (pinned exactly, trace by
//! trace, in `tests/exploration.rs`).
//!
//! One layer makes the search cheap without changing what it reports
//! (deterministic, enforced bit-identical by tests): the
//! **prefix-sharing snapshot tree** (`runner.rs`). Executed runs deposit
//! [`MachineSnapshot`]s keyed by decision prefix (LRU-bounded by
//! `--snapshot-budget`), and each run resumes from its deepest retained
//! ancestor instead of interpreting from step zero. Bounded/DPOR
//! candidates share long forced prefixes by construction, and frontier
//! runs spread their captures over their whole length, so a child
//! branching anywhere resumes near its branch. PCT runs share the probe's
//! path up to their first divergent pick, which under sync masks often
//! lies deep in the run: MozillaXP consults the scheduler at steps 1,
//! 554505 and 554512. Each PCT run's scheduler is advanced down the
//! retained nodes before it starts.
//!
//! [`MachineSnapshot`]: crate::MachineSnapshot

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use super::decision::DecisionTrace;
use super::dpor::{Candidate, Dpor};
use super::pct::PctConfig;
use super::point::{PointKind, PointMask};
use super::runner::{
    Executed, PctPlan, Resume, RunPlan, Runner, SnapshotTree, CAPTURE_PER_RUN,
    DEFAULT_SNAPSHOT_BUDGET,
};

pub use super::dpor::DporCounters;
use crate::harness::TrialPool;
use crate::machine::MachineConfig;
use crate::metrics::Histogram;
use crate::outcome::RunOutcome;
use crate::program::Program;
use crate::trace::{TraceEvent, TraceSink};

/// First-wave width; widths double each wave up to [`WAVE_MAX`]. Small
/// early waves keep stop-at-first searches from overshooting the first
/// failure; large late waves amortize the fan-out barrier (the fixed
/// 16-wide waves of the first engine cost PCT its parallel speedup).
const WAVE_BASE: usize = 16;

/// Wave-width ceiling.
const WAVE_MAX: usize = 256;

/// Which search strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExploreStrategy {
    /// PCT randomized priorities with the given bug depth.
    Pct {
        /// Bug depth `d` (see [`PctConfig::depth`]).
        depth: usize,
    },
    /// Bounded-preemption systematic search.
    Bounded {
        /// Maximum preemptions per schedule.
        preemptions: usize,
    },
    /// Dynamic partial-order reduction (see the `sched::dpor` module): the bounded
    /// search's frontier, but only race-reversing backtrack candidates are
    /// enqueued. Requires a decision mask containing
    /// [`PointKind::SharedAccess`] (the independence evidence is per-step
    /// footprints); [`explore`] upgrades narrower masks automatically and
    /// the report records the mask actually used.
    Dpor {
        /// Maximum preemptions per schedule.
        preemptions: usize,
    },
}

impl ExploreStrategy {
    /// A stable report label.
    pub fn label(&self) -> String {
        match self {
            ExploreStrategy::Pct { depth } => format!("pct(d={depth})"),
            ExploreStrategy::Bounded { preemptions } => format!("bounded(k={preemptions})"),
            ExploreStrategy::Dpor { preemptions } => format!("dpor(k={preemptions})"),
        }
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The strategy.
    pub strategy: ExploreStrategy,
    /// Base seed (PCT run `i` uses `seed + i`).
    pub seed: u64,
    /// Maximum schedules to execute.
    pub budget: usize,
    /// Worker threads for the wave fan-out (wall time only — results are
    /// identical across job counts).
    pub jobs: usize,
    /// The decision mask schedules run under.
    pub mask: PointMask,
    /// Stop at the end of the first wave that contains a failure (the
    /// default). `false` exhausts the budget — for measuring failure
    /// density and throughput.
    pub stop_at_first: bool,
    /// Retained snapshots the prefix tree may hold (`0` disables the
    /// cache entirely). Pure perf: reports are bit-identical at any
    /// value.
    pub snapshot_budget: usize,
}

impl ExploreConfig {
    /// Defaults: seed 1, budget 256, sequential, sync mask, stop at first
    /// failure, 8192 retained snapshots, ramped wave widths. The snapshot
    /// default is sized for CoW images — mostly refcount bumps each, with
    /// a resident-bytes ceiling bounding actual residency.
    pub fn new(strategy: ExploreStrategy) -> Self {
        Self {
            strategy,
            seed: 1,
            budget: 256,
            jobs: 1,
            mask: PointMask::SYNC,
            stop_at_first: true,
            snapshot_budget: DEFAULT_SNAPSHOT_BUDGET,
        }
    }
}

/// A failing schedule the exploration found.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoundSchedule {
    /// Schedule index within the exploration (0 = the probe / root).
    pub index: usize,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The recorded decisions — replayable and minimizable.
    pub trace: DecisionTrace,
}

/// The explorer's self-profiling phase breakdown: wall-time attributed to
/// snapshot capture, snapshot restore, schedule interpretation, and wave
/// assembly/merge, in microseconds. `minimize_us` is filled by the caller
/// that owns minimization (the CLI); the explorer leaves it zero. All
/// fields are wall-clock and therefore nondeterministic — they are zeroed
/// by [`ExploreReport::normalized`] alongside `wall_ms`.
///
/// Timers are collected unconditionally (two `Instant` reads per run and
/// per wave, next to the ones the machine already takes for
/// [`crate::RunStats::wall`]), so the breakdown is present in every report
/// whether or not an observer is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExplorePhases {
    /// µs spent capturing machine snapshots (inside executed runs).
    pub capture_us: u64,
    /// µs spent restoring machine snapshots before resumed runs.
    pub restore_us: u64,
    /// µs spent interpreting schedules (run wall minus capture).
    pub interpret_us: u64,
    /// µs the exploring thread spent assembling waves (ancestor lookup,
    /// PCT walks) and merging their results, the probe's included.
    pub merge_us: u64,
    /// µs spent minimizing the first failure (CLI-owned; 0 in reports
    /// written by [`explore`] itself).
    pub minimize_us: u64,
}

impl ExplorePhases {
    /// Field-wise difference `self − prev` (saturating) — the per-wave
    /// delta the observer emits.
    fn delta_since(&self, prev: &ExplorePhases) -> ExplorePhases {
        ExplorePhases {
            capture_us: self.capture_us.saturating_sub(prev.capture_us),
            restore_us: self.restore_us.saturating_sub(prev.restore_us),
            interpret_us: self.interpret_us.saturating_sub(prev.interpret_us),
            merge_us: self.merge_us.saturating_sub(prev.merge_us),
            minimize_us: self.minimize_us.saturating_sub(prev.minimize_us),
        }
    }

    /// Sum of all phases, µs.
    pub fn total_us(&self) -> u64 {
        self.capture_us + self.restore_us + self.interpret_us + self.merge_us + self.minimize_us
    }
}

/// What an exploration did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreReport {
    /// Strategy label (e.g. `pct(d=3)`).
    pub strategy: String,
    /// Decision-mask bits the exploration ran under.
    pub mask: u8,
    /// The schedule budget.
    pub budget: usize,
    /// Schedules actually executed.
    pub schedules: usize,
    /// Executed schedules that failed (failure, hang, or step-limit).
    pub failures: usize,
    /// The first failing schedule, by schedule index.
    pub first_failure: Option<FoundSchedule>,
    /// Bounded search only: branch points still queued when the
    /// exploration stopped (0 = tree exhausted within budget).
    pub frontier: usize,
    /// Decisions the probe (schedule 0, the non-preemptive default run)
    /// made — PCT's measured `k`.
    pub probe_decisions: u64,
    /// Snapshots deposited into the prefix tree (0 with the cache off).
    pub snapshots_taken: u64,
    /// Executed schedules that resumed from a retained ancestor snapshot
    /// instead of interpreting from step zero.
    pub snapshot_hits: u64,
    /// Interpreter steps those resumes skipped (sum of resumed snapshots'
    /// step counters).
    pub steps_saved: u64,
    /// Always 0: no frontier candidate can repeat an executed schedule.
    /// Kept because the benchmark harness reads it.
    pub dedup_skips: u64,
    /// Always 0: every within-bound alternative is enqueued. Kept because
    /// the benchmark harness reads it.
    pub independence_skips: u64,
    /// Schedules executed by each fan-out wave, in wave order (the probe
    /// is schedule 0, outside any wave). Deterministic — widths are a
    /// function of the wave index, budget, and stop mode only, never of
    /// `jobs` — so [`ExploreReport::normalized`] keeps them.
    pub wave_widths: Vec<u64>,
    /// DPOR counters: races detected, backtrack points inserted, sleep-set
    /// skips. All zero for other strategies.
    pub dpor: DporCounters,
    /// Whether a systematic search (bounded or DPOR) provably covered
    /// every schedule within its preemption bound: the frontier drained
    /// before the budget or a stop-at-first failure ended the run. Always
    /// `false` for PCT. With zero failures this is the `conair verify`
    /// verdict — no failing schedule exists within the bound.
    pub exhausted: bool,
    /// Wall-clock milliseconds (nondeterministic, like `phases`).
    pub wall_ms: u64,
    /// Self-profiling wall-time breakdown (nondeterministic; zeroed by
    /// [`ExploreReport::normalized`]).
    pub phases: ExplorePhases,
}

impl ExploreReport {
    /// Failures per thousand executed schedules.
    pub fn failures_per_1k(&self) -> f64 {
        if self.schedules == 0 {
            0.0
        } else {
            self.failures as f64 * 1000.0 / self.schedules as f64
        }
    }

    /// Decision depth of the first failing schedule.
    pub fn first_failure_depth(&self) -> Option<usize> {
        self.first_failure.as_ref().map(|f| f.trace.len())
    }

    /// A copy with the nondeterministic wall time (total and per-phase)
    /// and the cache-dependent perf counters zeroed — equal across
    /// `--jobs` values *and* across snapshot budgets by construction
    /// (asserted in tests and CI). `dedup_skips`/`independence_skips` are
    /// kept (both always 0). The `dpor` counters are zeroed too (they are
    /// deterministic — raw equality is pinned separately — but zeroing
    /// keeps normalized pre-DPOR and post-DPOR reports comparable);
    /// `exhausted` is a verdict, not a counter, and is kept.
    pub fn normalized(&self) -> Self {
        Self {
            wall_ms: 0,
            snapshots_taken: 0,
            snapshot_hits: 0,
            steps_saved: 0,
            dpor: DporCounters::default(),
            phases: ExplorePhases::default(),
            ..self.clone()
        }
    }
}

/// Counts a run that resumes from a retained ancestor in the cache
/// counters.
fn count_resume(report: &mut ExploreReport, resume: Option<&Resume>) {
    if let Some(r) = resume {
        report.snapshot_hits += 1;
        report.steps_saved += r.snap.step();
    }
}

/// Width of wave `i`: the 16 → 256 ramp. A function of the wave index
/// only — never of `jobs` or the stop mode — so the explored schedule set
/// is invariant across both.
fn wave_width(wave: usize) -> usize {
    (WAVE_BASE << wave.min(4)).min(WAVE_MAX)
}

/// Observability hooks for [`explore_observed`]: an optional [`TraceSink`]
/// receiving [`TraceEvent::ExploreWave`] (every wave) and
/// [`TraceEvent::ExploreProgress`] (rate-limited by the sampling
/// interval), plus the wave-boundary state an [`ExploreReport`] does not
/// carry — waves, the last wave's width, frontier depth and snapshot-tree
/// gauges, decisions per scheduler, PCT demotions and the undo-depth
/// histogram. [`ExploreObserver::render_prometheus`] joins these with the
/// final report's totals.
///
/// The observer is strictly read-only with respect to the search: every
/// update reads wave-boundary state the explorer already computed, so an
/// observed exploration's report is bit-identical to an unobserved one
/// (normalized for wall time) — pinned by tests and a CI diff.
pub struct ExploreObserver {
    sink: Option<Box<dyn TraceSink>>,
    interval_ms: u64,
    last_sample_ms: Option<u64>,
    last_phases: ExplorePhases,
    /// Waves observed so far.
    waves: u64,
    /// The most recent wave's boundary state (all zero before the first).
    last_wave: WaveObs,
    /// Live scheduler decisions made by bounded (frontier) schedulers.
    decisions_bounded: u64,
    /// Live scheduler decisions made by PCT schedulers.
    pub(super) decisions_pct: u64,
    /// Live scheduler decisions made during DPOR exploration.
    decisions_dpor: u64,
    /// PCT priority demotions applied at change points.
    pct_demotions: u64,
    /// Register undo-log depth per rollback, across all executed schedules
    /// (schedules sharing a resumed prefix each count the prefix's
    /// rollbacks).
    undo_depth: Histogram,
    /// Every executed schedule's decisions, in schedule order, once
    /// [`ExploreObserver::with_traces`] asked for them.
    traces: Option<Vec<Vec<u32>>>,
}

/// Observers constructed so far: the zero-cost pin's probe — an
/// unobserved exploration must construct none.
#[cfg(test)]
static OBSERVERS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Serializes the tests that construct observers against the zero-cost
/// pin, which reads the process-global [`OBSERVERS`] count.
#[cfg(test)]
pub(crate) fn observer_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

impl Default for ExploreObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl ExploreObserver {
    /// An observer with no sink and a 500 ms progress sampling interval.
    pub fn new() -> Self {
        #[cfg(test)]
        OBSERVERS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self {
            sink: None,
            interval_ms: 500,
            last_sample_ms: None,
            last_phases: ExplorePhases::default(),
            waves: 0,
            last_wave: WaveObs::default(),
            decisions_bounded: 0,
            decisions_pct: 0,
            decisions_dpor: 0,
            pct_demotions: 0,
            undo_depth: Histogram::new(),
            traces: None,
        }
    }

    /// Attaches an event sink for the progress/wave stream.
    pub fn with_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Sets the minimum milliseconds between `ExploreProgress` samples
    /// (0 = sample every wave). Wave events are never rate-limited.
    pub fn with_interval_ms(mut self, ms: u64) -> Self {
        self.interval_ms = ms;
        self
    }

    /// Also keeps every executed schedule's decision trace, the probe's
    /// first, readable through [`ExploreObserver::traces`]. Memory grows
    /// with the search: meant for checking small searches.
    pub fn with_traces(mut self) -> Self {
        self.traces = Some(Vec::new());
        self
    }

    /// The executed schedules' decision traces, in schedule order (empty
    /// unless [`ExploreObserver::with_traces`] was set).
    pub fn traces(&self) -> &[Vec<u32>] {
        self.traces.as_deref().unwrap_or_default()
    }

    /// Folds one executed run's per-run telemetry in.
    fn observe_run(&mut self, strategy: ExploreStrategy, ex: &Executed) {
        match strategy {
            ExploreStrategy::Bounded { .. } => self.decisions_bounded += ex.picks,
            ExploreStrategy::Dpor { .. } => self.decisions_dpor += ex.picks,
            ExploreStrategy::Pct { .. } => {
                self.decisions_pct += ex.picks;
                self.pct_demotions += ex.demotions;
            }
        }
        self.undo_depth.merge(&ex.undo_depth);
        if let Some(traces) = self.traces.as_mut() {
            traces.push(ex.trace.decisions.clone());
        }
    }

    /// Publishes a completed wave: an `ExploreWave` event and — when the
    /// sampling interval has elapsed or the exploration is done — an
    /// `ExploreProgress` sample.
    fn observe_wave(&mut self, report: &ExploreReport, elapsed_ms: u64, w: WaveObs) {
        let phases = report.phases.delta_since(&self.last_phases);
        self.last_phases = report.phases;
        self.waves += 1;
        if let Some(sink) = self.sink.as_mut() {
            sink.record(TraceEvent::ExploreWave {
                step: elapsed_ms,
                wave: w.wave,
                width: w.width,
                executed: w.executed,
                wall_us: w.wall_us,
                capture_us: phases.capture_us,
                restore_us: phases.restore_us,
                interpret_us: phases.interpret_us,
                merge_us: phases.merge_us,
            });
        }
        let due = w.last
            || self
                .last_sample_ms
                .is_none_or(|t| elapsed_ms.saturating_sub(t) >= self.interval_ms);
        if due {
            self.sample(report, elapsed_ms, &w);
        }
        self.last_wave = w;
    }

    /// Closes the stream of a search that ended before any wave ran (the
    /// probe found the bug, or spent the budget) with its one
    /// `ExploreProgress` sample, so the stream still summarizes.
    fn finish(&mut self, report: &ExploreReport, elapsed_ms: u64, w: &WaveObs) {
        if self.waves == 0 {
            self.sample(report, elapsed_ms, w);
        }
    }

    /// Emits one `ExploreProgress` sample.
    fn sample(&mut self, report: &ExploreReport, elapsed_ms: u64, w: &WaveObs) {
        self.last_sample_ms = Some(elapsed_ms);
        if let Some(sink) = self.sink.as_mut() {
            sink.record(TraceEvent::ExploreProgress {
                step: elapsed_ms,
                schedules: report.schedules as u64,
                budget: report.budget as u64,
                failures: report.failures as u64,
                first_failure: report.first_failure.as_ref().map(|f| f.index as u64),
                frontier: w.frontier,
                snapshot_nodes: w.tree_nodes,
                resident_bytes: w.tree_resident_bytes,
                steps_saved: report.steps_saved,
                wave: self.waves,
            });
        }
    }

    /// Renders the search in Prometheus text exposition format: totals,
    /// DPOR gauges and phase timers from `report` (the search this
    /// observer watched, minimization time included), the wave, tree and
    /// scheduler series from the observer.
    pub fn render_prometheus(&self, report: &ExploreReport) -> String {
        let w = &self.last_wave;
        let mut out = String::new();
        let mut counter = |name: &str, v: u64| {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        };
        counter("conair_explore_schedules_total", report.schedules as u64);
        counter("conair_explore_failures_total", report.failures as u64);
        counter("conair_explore_waves_total", self.waves);
        counter("conair_explore_snapshot_evictions_total", w.tree_evictions);
        counter(
            "conair_explore_snapshots_taken_total",
            report.snapshots_taken,
        );
        counter("conair_explore_snapshot_hits_total", report.snapshot_hits);
        counter("conair_explore_steps_saved_total", report.steps_saved);
        counter("conair_explore_pct_demotions_total", self.pct_demotions);
        let _ = writeln!(
            out,
            "# TYPE conair_explore_decisions_total counter\n\
             conair_explore_decisions_total{{scheduler=\"bounded\"}} {}\n\
             conair_explore_decisions_total{{scheduler=\"pct\"}} {}\n\
             conair_explore_decisions_total{{scheduler=\"dpor\"}} {}",
            self.decisions_bounded, self.decisions_pct, self.decisions_dpor,
        );
        let _ = writeln!(out, "# TYPE conair_explore_phase_seconds_total counter");
        let p = &report.phases;
        for (phase, us) in [
            ("capture", p.capture_us),
            ("restore", p.restore_us),
            ("interpret", p.interpret_us),
            ("merge", p.merge_us),
            ("minimize", p.minimize_us),
        ] {
            let _ = writeln!(
                out,
                "conair_explore_phase_seconds_total{{phase=\"{phase}\"}} {:.6}",
                us as f64 / 1e6
            );
        }
        let mut gauge = |name: &str, v: u64| {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        };
        gauge("conair_explore_dpor_races", report.dpor.races_detected);
        gauge(
            "conair_explore_dpor_backtracks",
            report.dpor.backtrack_points,
        );
        gauge("conair_explore_dpor_sleep_skips", report.dpor.sleep_skips);
        gauge("conair_explore_wave_width", w.width);
        gauge("conair_explore_frontier_depth", w.frontier);
        gauge("conair_explore_snapshot_nodes", w.tree_nodes);
        gauge(
            "conair_explore_snapshot_resident_bytes",
            w.tree_resident_bytes,
        );
        gauge("conair_explore_snapshot_owned_pages", w.tree_owned_pages);
        gauge("conair_explore_snapshot_shared_pages", w.tree_shared_pages);
        let _ = writeln!(out, "# TYPE conair_explore_undo_depth histogram");
        let mut cumulative = 0u64;
        for (_, hi, count) in self.undo_depth.buckets() {
            cumulative += count;
            let _ = writeln!(
                out,
                "conair_explore_undo_depth_bucket{{le=\"{hi}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "conair_explore_undo_depth_bucket{{le=\"+Inf\"}} {}\n\
             conair_explore_undo_depth_sum {}\n\
             conair_explore_undo_depth_count {}",
            self.undo_depth.count(),
            self.undo_depth.sum(),
            self.undo_depth.count(),
        );
        out
    }
}

/// Wave-boundary state handed to [`ExploreObserver::observe_wave`].
#[derive(Default)]
struct WaveObs {
    wave: u64,
    width: u64,
    executed: u64,
    wall_us: u64,
    frontier: u64,
    tree_nodes: u64,
    tree_evictions: u64,
    tree_resident_bytes: u64,
    tree_owned_pages: u64,
    tree_shared_pages: u64,
    last: bool,
}

impl WaveObs {
    fn new(
        wave: usize,
        width: usize,
        executed: usize,
        wave_start: Instant,
        frontier: usize,
        tree: &SnapshotTree,
        last: bool,
    ) -> Self {
        Self {
            wave: wave as u64,
            width: width as u64,
            executed: executed as u64,
            wall_us: wave_start.elapsed().as_micros() as u64,
            frontier: frontier as u64,
            tree_nodes: tree.len() as u64,
            tree_evictions: tree.evictions,
            tree_resident_bytes: tree.resident_bytes,
            tree_owned_pages: tree.owned_pages,
            tree_shared_pages: tree.shared_pages,
            last,
        }
    }
}

/// Running phase-timer accumulators; converted to [`ExplorePhases`] (µs)
/// at each wave boundary.
#[derive(Default)]
struct PhaseClock {
    capture: Duration,
    restore: Duration,
    interpret: Duration,
    merge: Duration,
}

impl PhaseClock {
    /// Attributes one executed run's wall time: capture and restore as
    /// measured, the rest of the run as interpretation.
    fn note_run(&mut self, ex: &Executed) {
        self.capture += ex.capture_wall;
        self.restore += ex.restore_wall;
        self.interpret += ex.run_wall.saturating_sub(ex.capture_wall);
    }

    fn to_phases(&self) -> ExplorePhases {
        ExplorePhases {
            capture_us: self.capture.as_micros() as u64,
            restore_us: self.restore.as_micros() as u64,
            interpret_us: self.interpret.as_micros() as u64,
            merge_us: self.merge.as_micros() as u64,
            minimize_us: 0,
        }
    }
}

/// Explores schedules of `program` under `config` per `ec`.
///
/// No schedule script is involved: exploration exists to find
/// failure-inducing interleavings *without* hand-written gates.
pub fn explore(program: &Program, config: &MachineConfig, ec: &ExploreConfig) -> ExploreReport {
    explore_observed(program, config, ec, None)
}

/// One schedule of a wave, assembled on the exploring thread.
enum Job {
    /// A PCT run, its scheduler already walked down the tree.
    Pct(PctPlan),
    /// A systematic candidate and how to run it.
    Frontier(RunPlan, Candidate),
}

/// The systematic searches' frontier: one FIFO of candidates and DPOR's
/// branch nodes. PCT leaves it empty.
struct Frontier {
    queue: VecDeque<Candidate>,
    dpor: Dpor,
    threads: usize,
}

impl Frontier {
    /// What an executed run adds to the frontier: bounded enqueues every
    /// within-budget child, DPOR only the race-reversing ones, PCT nothing.
    /// Runs merge in schedule-index order, so the queue, the node table and
    /// the whole search are identical across `--jobs` and cache settings.
    fn expand(
        &mut self,
        strategy: ExploreStrategy,
        cand: &Candidate,
        ex: &mut Executed,
        report: &mut ExploreReport,
    ) {
        debug_assert!(!ex.infeasible, "prefixes come from recorded runs");
        match strategy {
            ExploreStrategy::Pct { .. } => {}
            ExploreStrategy::Bounded { preemptions } => {
                push_children(&mut self.queue, ex, cand.prefix.len(), preemptions);
            }
            ExploreStrategy::Dpor { preemptions } => {
                let analysis = self.dpor.analyze(
                    cand,
                    std::mem::take(&mut ex.consults),
                    ex.consult_base,
                    &ex.trace.decisions,
                    self.threads,
                    preemptions,
                );
                report.dpor.races_detected += analysis.races;
                report.dpor.sleep_skips += analysis.sleep_skips;
                report.dpor.backtrack_points += analysis.candidates.len() as u64;
                self.queue.extend(analysis.candidates);
            }
        }
    }
}

/// [`explore`] with observability attached: wave-boundary observer
/// updates, progress/wave events, and the same report. `explore(p, c, e)`
/// is exactly `explore_observed(p, c, e, None)` — the unobserved path
/// constructs no observer state and emits no events.
pub fn explore_observed(
    program: &Program,
    config: &MachineConfig,
    ec: &ExploreConfig,
    mut observer: Option<&mut ExploreObserver>,
) -> ExploreReport {
    let start = Instant::now();
    // DPOR's independence evidence is per-step footprints, which cover a
    // whole scheduler transition only when every shared access is itself a
    // decision point — under narrower masks the silent continuation
    // between consults performs shared accesses the footprints never see,
    // breaking the commutation axiom. Upgrade rather than refuse; the
    // report records the mask actually explored.
    let ec_owned: ExploreConfig;
    let ec = if matches!(ec.strategy, ExploreStrategy::Dpor { .. })
        && !ec.mask.contains(PointKind::SharedAccess)
    {
        ec_owned = ExploreConfig {
            mask: PointMask::from_bits(ec.mask.bits() | PointKind::SharedAccess.bit()),
            ..ec.clone()
        };
        &ec_owned
    } else {
        ec
    };
    let systematic = !matches!(ec.strategy, ExploreStrategy::Pct { .. });
    // One lowering shared by every run of the search (and every worker).
    let runner = Runner::new(program, config);

    let mut report = ExploreReport {
        strategy: ec.strategy.label(),
        mask: ec.mask.bits(),
        budget: ec.budget,
        schedules: 0,
        failures: 0,
        first_failure: None,
        frontier: 0,
        probe_decisions: 0,
        snapshots_taken: 0,
        snapshot_hits: 0,
        steps_saved: 0,
        dedup_skips: 0,
        independence_skips: 0,
        wave_widths: Vec::new(),
        dpor: DporCounters::default(),
        exhausted: false,
        wall_ms: 0,
        phases: ExplorePhases::default(),
    };
    let mut clock = PhaseClock::default();

    // Every strategy resumes from the tree: the systematic searches share
    // forced prefixes by construction, and PCT runs share the probe's
    // path up to their first divergent pick — which, at sync points, can
    // lie hundreds of thousands of steps in.
    let capture = if ec.snapshot_budget > 0 {
        CAPTURE_PER_RUN
    } else {
        0
    };
    let mut tree = SnapshotTree::new(ec.snapshot_budget);

    // Schedule 0 in every strategy: the probe — the non-preemptive
    // default schedule (empty forced prefix). It measures PCT's `k`, is
    // the root of the search tree, and catches bugs that need no
    // preemption at all.
    let probe_plan = RunPlan {
        prefix: Vec::new(),
        resume: None,
        capture,
        capture_from: 1,
    };
    let mut probe = runner.frontier(&probe_plan, ec.mask);
    report.probe_decisions = probe.trace.len() as u64;
    report.snapshots_taken += tree.absorb(&mut probe);
    clock.note_run(&probe);
    if let Some(obs) = observer.as_deref_mut() {
        // The probe is a frontier (non-preemptive default) run under every
        // strategy; its decisions count toward the strategy's own counter
        // for the systematic searches.
        let probe_strategy = match ec.strategy {
            ExploreStrategy::Dpor { .. } => ec.strategy,
            _ => ExploreStrategy::Bounded { preemptions: 0 },
        };
        obs.observe_run(probe_strategy, &probe);
    }
    let record = |report: &mut ExploreReport, index: usize, ex: &Executed| {
        report.schedules += 1;
        if ex.outcome.is_failure() {
            report.failures += 1;
            if report.first_failure.is_none() {
                report.first_failure = Some(FoundSchedule {
                    index,
                    outcome: ex.outcome.clone(),
                    trace: ex.trace.clone(),
                });
            }
        }
    };
    record(&mut report, 0, &probe);
    // Every PCT run's first consult is the probe's first consult.
    let pct_root = probe
        .consults
        .first()
        .map(|c| c.eligible.clone())
        .unwrap_or_default();
    let mut frontier = Frontier {
        queue: VecDeque::new(),
        dpor: Dpor::default(),
        threads: runner.threads(),
    };
    let expand_start = Instant::now();
    frontier.expand(ec.strategy, &Candidate::root(), &mut probe, &mut report);
    clock.merge += expand_start.elapsed();

    let pool = TrialPool::new(ec.jobs);
    let done = |report: &ExploreReport| {
        report.schedules >= ec.budget || (ec.stop_at_first && report.first_failure.is_some())
    };
    let mut wave = 0usize;
    while !done(&report) {
        let wave_start = Instant::now();
        let base = report.schedules;
        // PCT runs are mutually independent — nothing flows between waves
        // except the stop-at-first check and the tree. Without it, the
        // 16 → 256 ramp only inserts fan-out barriers (a fresh thread
        // scope + channel drain per wave) between runs that never needed
        // to synchronize: on a full-budget search that overhead ate the
        // whole parallel speedup. A keep-going sweep therefore takes the
        // entire remaining budget in one wave; the ramp stays for
        // stop-at-first searches, where small early waves keep the search
        // from overshooting the first failure, and for the systematic
        // searches, whose next wave depends on this one's children.
        let room = if systematic || ec.stop_at_first {
            wave_width(wave).min(ec.budget - base)
        } else {
            ec.budget - base
        };
        // Captures serve later waves only. PCT's wave that spends the
        // budget takes none. Once a systematic frontier outgrows the tree
        // budget, FIFO pops lag inserts by more than the LRU can span:
        // every capture would be evicted unused. While the queue is still
        // small, the wave's total inserts are capped near the tree budget
        // so one wide wave cannot evict the ancestors the next wave is
        // about to resume from. Both gates read only wave-boundary state,
        // so they stay jobs-invariant.
        let capturing = if systematic {
            frontier.queue.len() <= ec.snapshot_budget
        } else {
            base + room < ec.budget
        };
        let wave_capture = if capturing {
            capture.min((ec.snapshot_budget / room.max(1)).max(1))
        } else {
            0
        };
        // Assemble the wave on this thread, in schedule order — ancestor
        // lookup, PCT walks — so the cache behaves identically whatever
        // executes the batch.
        let assemble_start = Instant::now();
        let jobs: Vec<Job> = match ec.strategy {
            ExploreStrategy::Pct { depth } => {
                let pct = PctConfig {
                    depth,
                    k: report.probe_decisions.max(16),
                    mask: ec.mask,
                };
                (0..room)
                    .map(|j| {
                        let seed = ec.seed + (base + j) as u64;
                        let (sched, resume) = tree.walk_pct(seed, pct, &pct_root, runner.threads());
                        count_resume(&mut report, resume.as_ref());
                        Job::Pct(PctPlan {
                            seed,
                            sched,
                            resume,
                            capture: wave_capture,
                        })
                    })
                    .collect()
            }
            ExploreStrategy::Bounded { preemptions } | ExploreStrategy::Dpor { preemptions } => {
                let mut jobs = Vec::with_capacity(room);
                while jobs.len() < room {
                    let Some(cand) = frontier.queue.pop_front() else {
                        break;
                    };
                    debug_assert!(cand.cost <= preemptions, "over-budget candidate enqueued");
                    let resume = tree.lookup(&cand.prefix);
                    count_resume(&mut report, resume.as_ref());
                    // A bounded candidate already at the bound can never
                    // enqueue preemptive children of its own, so its run
                    // skips capturing (for two-thread programs every
                    // branch past the root is a preemption, making those
                    // captures pure dead weight).
                    let bounded = matches!(ec.strategy, ExploreStrategy::Bounded { .. });
                    let capture = if bounded && cand.cost >= preemptions {
                        0
                    } else {
                        wave_capture
                    };
                    let plan = RunPlan {
                        prefix: cand.prefix.clone(),
                        resume,
                        capture,
                        capture_from: cand.prefix.len().max(1),
                    };
                    jobs.push(Job::Frontier(plan, cand));
                }
                jobs
            }
        };
        clock.merge += assemble_start.elapsed();
        if jobs.is_empty() {
            break;
        }
        let results = pool.map(jobs.len(), |j| match &jobs[j] {
            Job::Pct(plan) => runner.pct(plan),
            Job::Frontier(plan, _) => runner.frontier(plan, ec.mask),
        });
        let merge_start = Instant::now();
        let executed = results.len();
        report.wave_widths.push(executed as u64);
        for (j, (job, mut ex)) in jobs.iter().zip(results).enumerate() {
            record(&mut report, base + j, &ex);
            report.snapshots_taken += tree.absorb(&mut ex);
            if let Job::Frontier(_, cand) = job {
                frontier.expand(ec.strategy, cand, &mut ex, &mut report);
            }
            clock.note_run(&ex);
            if let Some(obs) = observer.as_deref_mut() {
                obs.observe_run(ec.strategy, &ex);
            }
        }
        clock.merge += merge_start.elapsed();
        report.phases = clock.to_phases();
        if let Some(obs) = observer.as_deref_mut() {
            let drained = systematic && frontier.queue.is_empty();
            let last = done(&report) || drained;
            let queued = frontier.queue.len();
            let w = WaveObs::new(wave, room, executed, wave_start, queued, &tree, last);
            obs.observe_wave(&report, start.elapsed().as_millis() as u64, w);
        }
        wave += 1;
    }
    if systematic {
        report.frontier = frontier.queue.len();
        report.exhausted = frontier.queue.is_empty();
    }

    report.phases = clock.to_phases();
    report.wall_ms = start.elapsed().as_millis() as u64;
    if let Some(obs) = observer {
        let w = WaveObs::new(0, 0, 0, start, frontier.queue.len(), &tree, true);
        obs.finish(&report, report.wall_ms, &w);
    }
    report
}

/// Enqueues every within-budget child of an executed schedule: for each
/// consult at or past the forced frontier, each unchosen eligible thread
/// becomes a new prefix. Children are enqueued in (parent schedule index,
/// decision index, thread id) order, so the breadth-first visit order is
/// deterministic.
fn push_children(
    queue: &mut VecDeque<Candidate>,
    ex: &Executed,
    frontier: usize,
    preemptions: usize,
) {
    debug_assert!(frontier >= ex.consult_base, "resume point is an ancestor");
    let mut used = ex.base_preemptions;
    for (j, c) in ex.consults.iter().enumerate() {
        let i = ex.consult_base + j;
        if i >= frontier {
            for &alt in &c.eligible {
                if alt == c.chosen {
                    continue;
                }
                let cost = used + usize::from(c.is_preemption_for(alt));
                if cost > preemptions {
                    continue;
                }
                let mut prefix = ex.trace.decisions[..i].to_vec();
                prefix.push(alt.index() as u32);
                queue.push_back(Candidate::new(prefix, cost));
            }
        }
        used += usize::from(c.is_preemption());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder};

    /// reader asserts a flag that writer sets — fails only when the
    /// reader's load runs before the writer's store.
    fn order_violation() -> Program {
        let mut mb = ModuleBuilder::new("ov");
        let flag = mb.global("flag", 0);
        let mut fb = FuncBuilder::new("reader", 0);
        let v = fb.load_global(flag);
        let ok = fb.cmp(CmpKind::Ne, v, 0);
        fb.assert(ok, "writer must have published");
        fb.ret();
        mb.function(fb.finish());
        let mut fb = FuncBuilder::new("writer", 0);
        fb.store_global(flag, 1);
        fb.ret();
        mb.function(fb.finish());
        Program::from_entry_names(mb.finish(), &["reader", "writer"])
    }

    fn assert_finds_and_replays(strategy: ExploreStrategy, mask: PointMask) {
        let program = order_violation();
        let mut ec = ExploreConfig::new(strategy);
        ec.mask = mask;
        ec.budget = 64;
        let report = explore(&program, &MachineConfig::default(), &ec);
        let found = report.first_failure.as_ref().expect("bug found");
        assert!(found.outcome.is_failure());
        // Replay reproduces the outcome bit-identically.
        let cfg = MachineConfig {
            record_decisions: true,
            ..MachineConfig::default()
        };
        let (replayed, div) = super::super::replay::run_replay(&program, &cfg, &found.trace);
        assert_eq!(div, None, "clean replay");
        assert_eq!(replayed.outcome, found.outcome);
    }

    #[test]
    fn bounded_finds_order_violation() {
        assert_finds_and_replays(ExploreStrategy::Bounded { preemptions: 1 }, PointMask::SYNC);
    }

    #[test]
    fn pct_finds_order_violation() {
        assert_finds_and_replays(ExploreStrategy::Pct { depth: 3 }, PointMask::SYNC_SHARED);
    }

    #[test]
    fn results_identical_across_jobs() {
        let program = order_violation();
        for strategy in [
            ExploreStrategy::Pct { depth: 3 },
            ExploreStrategy::Bounded { preemptions: 2 },
        ] {
            let mut ec = ExploreConfig::new(strategy);
            ec.mask = PointMask::SYNC_SHARED;
            ec.budget = 48;
            ec.stop_at_first = false;
            let reports: Vec<ExploreReport> = [1usize, 2, 4]
                .iter()
                .map(|&jobs| {
                    let mut ec = ec.clone();
                    ec.jobs = jobs;
                    explore(&program, &MachineConfig::default(), &ec).normalized()
                })
                .collect();
            assert_eq!(reports[0], reports[1], "{strategy:?}: 1 vs 2 jobs");
            assert_eq!(reports[0], reports[2], "{strategy:?}: 1 vs 4 jobs");
        }
    }

    #[test]
    fn results_identical_with_cache_off() {
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Bounded { preemptions: 2 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 64;
        ec.stop_at_first = false;
        let cached = explore(&program, &MachineConfig::default(), &ec);
        ec.snapshot_budget = 0;
        let uncached = explore(&program, &MachineConfig::default(), &ec);
        assert_eq!(uncached.snapshots_taken, 0);
        assert_eq!(uncached.snapshot_hits, 0);
        assert_eq!(uncached.steps_saved, 0);
        assert_eq!(cached.normalized(), uncached.normalized());
        assert!(cached.snapshot_hits > 0, "the tree explores deep prefixes");
    }

    #[test]
    fn budget_caps_schedules() {
        let program = order_violation();
        // PCT generates schedules indefinitely, so the budget is the only cap.
        let mut ec = ExploreConfig::new(ExploreStrategy::Pct { depth: 3 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 5;
        ec.stop_at_first = false;
        let report = explore(&program, &MachineConfig::default(), &ec);
        assert_eq!(report.schedules, 5);
    }

    #[test]
    fn bounded_search_exhausts_small_trees_under_budget() {
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Bounded { preemptions: 2 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 10_000;
        ec.stop_at_first = false;
        let report = explore(&program, &MachineConfig::default(), &ec);
        // The whole tree fits well under the budget and the frontier drains.
        assert!(report.schedules < ec.budget);
        assert_eq!(report.frontier, 0);
        assert!(report.failures >= 1);
    }

    #[test]
    fn dpor_finds_order_violation() {
        // SYNC mask: exercises the automatic SharedAccess upgrade too.
        assert_finds_and_replays(ExploreStrategy::Dpor { preemptions: 1 }, PointMask::SYNC);
    }

    #[test]
    fn dpor_upgrades_mask_and_reports_it() {
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Dpor { preemptions: 1 });
        ec.mask = PointMask::SYNC;
        ec.budget = 64;
        let report = explore(&program, &MachineConfig::default(), &ec);
        assert_eq!(
            report.mask,
            PointMask::SYNC_SHARED.bits(),
            "report records the mask actually explored"
        );
    }

    #[test]
    fn dpor_results_identical_across_jobs_and_cache() {
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Dpor { preemptions: 2 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 10_000;
        ec.stop_at_first = false;
        let base = explore(&program, &MachineConfig::default(), &ec);
        for jobs in [2usize, 4] {
            let mut ec = ec.clone();
            ec.jobs = jobs;
            let r = explore(&program, &MachineConfig::default(), &ec);
            // Raw DPOR counters (not just the normalized report) are
            // functions of the search alone.
            assert_eq!(base.dpor, r.dpor, "{jobs} jobs: dpor counters");
            assert_eq!(base.exhausted, r.exhausted, "{jobs} jobs: verdict");
            assert_eq!(base.normalized(), r.normalized(), "{jobs} jobs");
        }
        let mut ec_off = ec.clone();
        ec_off.snapshot_budget = 0;
        let uncached = explore(&program, &MachineConfig::default(), &ec_off);
        assert_eq!(base.dpor, uncached.dpor, "cache off: dpor counters");
        assert_eq!(base.normalized(), uncached.normalized(), "cache off");
    }

    #[test]
    fn dpor_exhausts_with_fewer_schedules_than_bounded() {
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Bounded { preemptions: 2 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 10_000;
        ec.stop_at_first = false;
        let bounded = explore(&program, &MachineConfig::default(), &ec);
        ec.strategy = ExploreStrategy::Dpor { preemptions: 2 };
        let dpor = explore(&program, &MachineConfig::default(), &ec);
        assert!(bounded.exhausted, "bounded drains the whole tree");
        assert!(dpor.exhausted, "dpor drains its reduced tree");
        assert!(
            dpor.schedules <= bounded.schedules,
            "reduction never explores more: {} vs {}",
            dpor.schedules,
            bounded.schedules
        );
        // Both verdicts agree: the bug exists.
        assert!(bounded.failures >= 1);
        assert!(dpor.failures >= 1, "reduction must not lose the bug");
        assert!(dpor.dpor.races_detected >= 1);
        assert!(dpor.dpor.backtrack_points >= 1);
    }

    #[test]
    fn report_derived_stats() {
        let mut report = ExploreReport {
            strategy: "pct(d=3)".into(),
            mask: PointMask::SYNC.bits(),
            budget: 100,
            schedules: 50,
            failures: 2,
            first_failure: None,
            frontier: 0,
            probe_decisions: 10,
            snapshots_taken: 7,
            snapshot_hits: 5,
            steps_saved: 900,
            dedup_skips: 3,
            independence_skips: 2,
            wave_widths: vec![16, 34],
            dpor: DporCounters {
                races_detected: 4,
                backtrack_points: 3,
                sleep_skips: 2,
            },
            exhausted: true,
            wall_ms: 123,
            phases: ExplorePhases {
                capture_us: 10,
                restore_us: 20,
                interpret_us: 30,
                merge_us: 40,
                minimize_us: 50,
            },
        };
        assert!((report.failures_per_1k() - 40.0).abs() < 1e-9);
        assert_eq!(report.first_failure_depth(), None);
        let norm = report.normalized();
        assert_eq!(norm.wall_ms, 0);
        assert_eq!(norm.snapshots_taken, 0);
        assert_eq!(norm.snapshot_hits, 0);
        assert_eq!(norm.steps_saved, 0);
        assert_eq!(norm.dedup_skips, 3, "search-shape counters survive");
        assert_eq!(norm.independence_skips, 2);
        assert_eq!(norm.wave_widths, vec![16, 34], "widths are search shape");
        assert_eq!(norm.dpor, DporCounters::default(), "dpor counters zeroed");
        assert!(norm.exhausted, "the verdict survives normalization");
        assert_eq!(
            norm.phases,
            ExplorePhases::default(),
            "phases are wall time"
        );
        assert_eq!(report.phases.total_us(), 150);
        report.schedules = 0;
        assert_eq!(report.failures_per_1k(), 0.0);
    }

    #[test]
    fn unobserved_explore_constructs_no_observer() {
        let _guard = observer_test_guard();
        let program = order_violation();
        let mut ec = ExploreConfig::new(ExploreStrategy::Bounded { preemptions: 2 });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = 48;
        ec.stop_at_first = false;
        let before = OBSERVERS.load(std::sync::atomic::Ordering::Relaxed);
        let report = explore(&program, &MachineConfig::default(), &ec);
        assert_eq!(
            OBSERVERS.load(std::sync::atomic::Ordering::Relaxed),
            before,
            "unobserved explore constructed an observer"
        );
        assert!(report.schedules > 0);
    }

    /// The value of the unlabeled Prometheus series `name`.
    fn prom_value(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no series {name} in\n{text}"))
            .parse()
            .expect("integer series")
    }

    #[test]
    fn observed_explore_reports_identically_and_populates_metrics() {
        use crate::trace::EventBuffer;
        let _guard = observer_test_guard();
        let program = order_violation();
        for strategy in [
            ExploreStrategy::Bounded { preemptions: 2 },
            ExploreStrategy::Pct { depth: 3 },
            ExploreStrategy::Dpor { preemptions: 2 },
        ] {
            let mut ec = ExploreConfig::new(strategy);
            ec.mask = PointMask::SYNC_SHARED;
            ec.budget = 48;
            ec.stop_at_first = false;
            let plain = explore(&program, &MachineConfig::default(), &ec);
            let buffer = EventBuffer::new();
            let mut obs = ExploreObserver::new()
                .with_sink(Box::new(buffer.clone()))
                .with_interval_ms(0);
            let observed =
                explore_observed(&program, &MachineConfig::default(), &ec, Some(&mut obs));
            assert_eq!(
                plain.normalized(),
                observed.normalized(),
                "{strategy:?}: observability changed the report"
            );
            let prom = obs.render_prometheus(&observed);
            let value = |name: &str| prom_value(&prom, name);
            assert_eq!(
                value("conair_explore_schedules_total"),
                observed.schedules as u64
            );
            assert_eq!(
                value("conair_explore_failures_total"),
                observed.failures as u64
            );
            assert!(obs.waves > 0);
            assert_eq!(value("conair_explore_waves_total"), obs.waves);
            let events = buffer.take();
            let waves = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::ExploreWave { .. }))
                .count();
            assert_eq!(waves as u64, obs.waves);
            let last_progress = events
                .iter()
                .rev()
                .find_map(|e| match e {
                    TraceEvent::ExploreProgress { schedules, .. } => Some(*schedules),
                    _ => None,
                })
                .expect("interval 0 samples every wave");
            assert_eq!(last_progress, observed.schedules as u64);
            match strategy {
                ExploreStrategy::Bounded { .. } => {
                    assert!(obs.decisions_bounded > 0);
                    assert_eq!(
                        value("conair_explore_snapshots_taken_total"),
                        observed.snapshots_taken
                    );
                }
                ExploreStrategy::Pct { .. } => assert!(obs.decisions_pct > 0),
                ExploreStrategy::Dpor { .. } => {
                    assert!(obs.decisions_dpor > 0);
                    assert_eq!(
                        value("conair_explore_dpor_races"),
                        observed.dpor.races_detected
                    );
                    assert_eq!(
                        value("conair_explore_dpor_backtracks"),
                        observed.dpor.backtrack_points
                    );
                }
            }
            assert!(
                observed.phases.interpret_us > 0 || observed.wall_ms == 0,
                "interpretation dominates a real exploration"
            );
            // Every non-comment line is "name[{labels}] value".
            for line in prom.lines().filter(|l| !l.starts_with('#')) {
                let mut parts = line.rsplitn(2, ' ');
                let value = parts.next().unwrap();
                assert!(
                    value.parse::<f64>().is_ok(),
                    "unparseable value in line: {line}"
                );
                assert!(parts.next().unwrap().starts_with("conair_explore_"));
            }
        }
    }

    #[test]
    fn prometheus_undo_depth_histogram_is_cumulative() {
        let mut obs = ExploreObserver::new();
        for v in [3, 3, 100] {
            obs.undo_depth.record(v);
        }
        let prom = obs.render_prometheus(&ExploreReport {
            strategy: "pct(d=3)".into(),
            mask: 0,
            budget: 0,
            schedules: 8,
            failures: 2,
            first_failure: None,
            frontier: 0,
            probe_decisions: 0,
            snapshots_taken: 0,
            snapshot_hits: 0,
            steps_saved: 0,
            dedup_skips: 0,
            independence_skips: 0,
            wave_widths: Vec::new(),
            dpor: DporCounters::default(),
            exhausted: false,
            wall_ms: 0,
            phases: ExplorePhases {
                capture_us: 1_500_000,
                ..ExplorePhases::default()
            },
        });
        assert!(prom.contains("# TYPE conair_explore_schedules_total counter"));
        assert!(prom.contains("conair_explore_phase_seconds_total{phase=\"capture\"} 1.500000"));
        assert!(prom.contains("conair_explore_undo_depth_bucket{le=\"3\"} 2"));
        assert!(prom.contains("conair_explore_undo_depth_bucket{le=\"127\"} 3"));
        assert!(prom.contains("conair_explore_undo_depth_bucket{le=\"+Inf\"} 3"));
        assert_eq!(prom_value(&prom, "conair_explore_undo_depth_sum"), 106);
        assert_eq!(prom_value(&prom, "conair_explore_undo_depth_count"), 3);
    }

    #[test]
    fn report_deserialize_rejects_other_shapes_and_round_trips() {
        // Non-report JSON (e.g. a decision trace) fails: every field is
        // required, so format sniffing cannot mis-accept it.
        let trace = r#"{"scheduler": "pct", "seed": 3, "mask": 3, "decisions": []}"#;
        assert!(serde_json::from_str::<ExploreReport>(trace).is_err());
        // And the current schema round-trips.
        let mut current = ExploreReport {
            strategy: "bounded(k=1)".into(),
            mask: 1,
            budget: 8,
            schedules: 8,
            failures: 0,
            first_failure: None,
            frontier: 2,
            probe_decisions: 3,
            snapshots_taken: 1,
            snapshot_hits: 1,
            steps_saved: 9,
            dedup_skips: 0,
            independence_skips: 0,
            wave_widths: vec![4, 4],
            dpor: DporCounters {
                races_detected: 2,
                backtrack_points: 1,
                sleep_skips: 1,
            },
            exhausted: true,
            wall_ms: 1,
            phases: ExplorePhases::default(),
        };
        current.phases.capture_us = 77;
        let back: ExploreReport =
            serde_json::from_str(&serde_json::to_string(&current).unwrap()).unwrap();
        assert_eq!(back, current);
    }
}
