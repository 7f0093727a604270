//! Schedule exploration closes the loop on the Table-2 catalog: every
//! workload's bug is found by searching the schedule space — *no gate
//! script* — within the budget documented in
//! `conair_workloads::explore_hint`, the found decision trace replays
//! bit-identically, and delta-debugging it yields a shorter-or-equal
//! trace that still fails.

use conair_runtime::{
    explore, minimize, run_replay, ExploreConfig, ExploreReport, ExploreStrategy, MachineConfig,
    RunOutcome,
};
use conair_workloads::{explore_hint, workload_by_name, WORKLOAD_NAMES};

/// Exploration bounds: hang-prone schedules must terminate promptly
/// (deadlocks surface as timed-out `Hang`s, runaways as `StepLimit`).
fn machine() -> MachineConfig {
    MachineConfig {
        lock_timeout: 200,
        step_limit: 2_000_000,
        ..MachineConfig::default()
    }
}

/// Candidate replays granted to the minimizer. Deliberately small: even
/// a tiny budget must produce a valid (real failing run) trace, the
/// shrink is best-effort within it.
const MINIMIZE_BUDGET: usize = 16;

fn hint_config(name: &str) -> ExploreConfig {
    let hint = explore_hint(name).expect("catalog workload has a hint");
    let mut ec = ExploreConfig::new(hint.strategy);
    ec.mask = hint.mask;
    ec.budget = hint.budget;
    ec.seed = hint.seed;
    ec
}

/// The acceptance path for one workload: explore → replay → minimize →
/// replay the minimized trace.
fn explore_finds_and_replays(name: &str) {
    let w = workload_by_name(name).expect("registered workload");
    let config = machine();
    let report = explore(&w.program, &config, &hint_config(name));
    let found = report.first_failure.unwrap_or_else(|| {
        panic!(
            "{name}: no failing schedule in {} (budget {})",
            report.strategy, report.budget
        )
    });
    assert!(found.outcome.is_failure(), "{name}: {:?}", found.outcome);

    // The recorded decision trace replays bit-identically: no
    // divergence, and the *same* RunOutcome value.
    let (replayed, divergence) = run_replay(&w.program, &config, &found.trace);
    assert_eq!(divergence, None, "{name}: replay diverged");
    assert_eq!(replayed.outcome, found.outcome, "{name}: replay drifted");

    // Minimization never grows the trace and still fails the same way
    // when replayed (it re-records, so the result is a real run's log).
    let min = minimize(&w.program, &config, &found.trace, MINIMIZE_BUDGET)
        .unwrap_or_else(|e| panic!("{name}: minimize failed: {e}"));
    assert_eq!(min.original_len, found.trace.len());
    assert!(
        min.minimized_len <= min.original_len,
        "{name}: minimization grew the trace ({} -> {})",
        min.original_len,
        min.minimized_len
    );
    assert_eq!(min.trace.len(), min.minimized_len);
    let (replayed, divergence) = run_replay(&w.program, &config, &min.trace);
    assert_eq!(divergence, None, "{name}: minimized replay diverged");
    assert!(
        replayed.outcome.is_failure(),
        "{name}: minimized trace no longer fails: {:?}",
        replayed.outcome
    );
    assert_eq!(
        replayed.outcome, min.outcome,
        "{name}: minimize misreported"
    );
}

macro_rules! catalog_test {
    ($test:ident, $name:literal) => {
        #[test]
        fn $test() {
            explore_finds_and_replays($name);
        }
    };
}

catalog_test!(finds_fft, "FFT");
catalog_test!(finds_hawknl, "HawkNL");
catalog_test!(finds_httrack, "HTTrack");
catalog_test!(finds_mozilla_xp, "MozillaXP");
catalog_test!(finds_mozilla_js, "MozillaJS");
catalog_test!(finds_mysql1, "MySQL1");
catalog_test!(finds_mysql2, "MySQL2");
catalog_test!(finds_transmission, "Transmission");
catalog_test!(finds_sqlite, "SQLite");
catalog_test!(finds_zsnes, "ZSNES");

#[test]
fn every_catalog_name_is_covered_above() {
    // Guards the macro list against catalog growth: a new workload must
    // document an exploration budget and get a finder test.
    assert_eq!(WORKLOAD_NAMES.len(), 10, "update tests/exploration.rs");
    for name in WORKLOAD_NAMES {
        assert!(explore_hint(name).is_some(), "no hint for {name}");
    }
}

#[test]
fn explorer_reports_are_job_count_invariant() {
    // The same search fanned over different worker counts must report
    // identical results (only the wall clock may differ) — the same
    // merge discipline `tests/parallel_trials.rs` enforces for trials.
    let config = machine();
    for name in ["HawkNL", "Transmission"] {
        let w = workload_by_name(name).expect("registered workload");
        let mut ec = hint_config(name);
        let baseline = explore(&w.program, &config, &ec).normalized();
        for jobs in [2, 3] {
            ec.jobs = jobs;
            let fanned = explore(&w.program, &config, &ec).normalized();
            assert_eq!(baseline, fanned, "{name}: --jobs {jobs} diverged");
        }
    }
}

#[test]
fn exhausting_budgets_counts_every_failure() {
    // keep_going mode: the full (tiny) budget runs, failure counts and
    // the first failure agree with the stop-at-first search.
    let w = workload_by_name("ZSNES").expect("registered workload");
    let config = machine();
    let mut ec = hint_config("ZSNES");
    let first = explore(&w.program, &config, &ec);
    ec.stop_at_first = false;
    let full = explore(&w.program, &config, &ec);
    assert!(full.schedules >= first.schedules);
    assert!(full.failures >= 1);
    assert_eq!(
        full.first_failure.as_ref().map(|f| f.index),
        first.first_failure.as_ref().map(|f| f.index),
    );
    let hang_free = matches!(
        full.first_failure.as_ref().map(|f| &f.outcome),
        Some(RunOutcome::Failed(_))
    );
    assert!(hang_free, "ZSNES fails by assertion, not hang");
}

/// PCT at bug depth 3 under sync points — the shape of the repository
/// benchmark's sweep. Keep-going runs one wave after the probe, so the
/// runs resume from the probe's captures only; stop-at-first sweeps ramp
/// through several waves, each resuming from its predecessors' captures
/// too.
fn pct_config(stop_at_first: bool, budget: usize) -> ExploreConfig {
    let mut ec = ExploreConfig::new(ExploreStrategy::Pct { depth: 3 });
    ec.budget = budget;
    ec.stop_at_first = stop_at_first;
    ec
}

#[test]
fn snapshot_budget_sweep_is_report_invariant() {
    // The retention budget tunes only how much interpretation the cache
    // amortizes: a budget of 1 (thrashing LRU), the default 8192, or
    // anything between must normalize to the budget-0 (disabled) report.
    let config = machine();
    let fft = workload_by_name("FFT").expect("registered workload");
    let hawknl = workload_by_name("HawkNL").expect("registered workload");
    let mut bounded = hint_config("FFT");
    bounded.stop_at_first = false;
    for (w, mut ec) in [
        (&fft, bounded),
        (&fft, pct_config(false, 16)),
        (&hawknl, pct_config(true, 64)),
    ] {
        ec.snapshot_budget = 0;
        let baseline = explore(&w.program, &config, &ec).normalized();
        for budget in [1, 256, 8192] {
            ec.snapshot_budget = budget;
            let swept = explore(&w.program, &config, &ec).normalized();
            assert_eq!(
                baseline,
                swept,
                "{}: budget {budget} diverged",
                ec.strategy.label()
            );
        }
    }
}

/// The prefix-sharing snapshot tree is a pure perf layer: with the cache
/// on (default budget), off (budget 0), or fanned across workers, every
/// report field except the wall clock and the cache's own perf counters
/// must be bit-identical — and the cache must actually have resumed runs.
/// Returns the cached report.
fn assert_cache_is_invisible(name: &str, mut ec: ExploreConfig) -> ExploreReport {
    let config = machine();
    let label = ec.strategy.label();
    let w = workload_by_name(name).expect("registered workload");
    let cached = explore(&w.program, &config, &ec);
    assert!(
        cached.snapshot_hits > 0,
        "{name} {label}: runs resume from retained ancestors"
    );
    assert!(
        cached.steps_saved > 0,
        "{name} {label}: resumed suffixes skip steps"
    );

    let default_budget = ec.snapshot_budget;
    ec.snapshot_budget = 0;
    let uncached = explore(&w.program, &config, &ec);
    assert_eq!(
        uncached.snapshots_taken, 0,
        "{name} {label}: budget 0 disables"
    );
    assert_eq!(uncached.snapshot_hits, 0);
    assert_eq!(uncached.steps_saved, 0);
    assert_eq!(
        cached.normalized(),
        uncached.normalized(),
        "{name} {label}: cache on/off diverged"
    );
    ec.snapshot_budget = default_budget;

    // Cache *counters* are themselves jobs-invariant: lookups, walks and
    // inserts happen on the exploring thread in schedule order.
    for jobs in [2, 4] {
        ec.jobs = jobs;
        let fanned = explore(&w.program, &config, &ec);
        assert_eq!(
            cached.normalized(),
            fanned.normalized(),
            "{name} {label}: --jobs {jobs} diverged"
        );
        assert_eq!(
            (
                cached.snapshots_taken,
                cached.snapshot_hits,
                cached.steps_saved
            ),
            (
                fanned.snapshots_taken,
                fanned.snapshot_hits,
                fanned.steps_saved
            ),
            "{name} {label}: --jobs {jobs} changed cache behavior"
        );
    }
    cached
}

#[test]
fn snapshot_cache_never_changes_the_report() {
    for name in ["FFT", "SQLite"] {
        let mut ec = hint_config(name);
        ec.stop_at_first = false;
        assert_cache_is_invisible(name, ec);
        assert_cache_is_invisible(name, pct_config(false, 16));
    }
    // Several waves: later waves also resume from earlier waves' captures.
    let ramped = assert_cache_is_invisible("HawkNL", pct_config(true, 64));
    assert!(ramped.wave_widths.len() > 1, "HawkNL's sweep spans waves");
}
