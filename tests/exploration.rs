//! Schedule exploration closes the loop on the Table-2 catalog: every
//! workload's bug is found by searching the schedule space — *no gate
//! script* — within the budget documented in
//! `conair_workloads::explore_hint`, the found decision trace replays
//! bit-identically, and delta-debugging it yields a shorter-or-equal
//! trace that still fails. The systematic searches also never run a
//! schedule twice, and bounded search finds a failure that needs one
//! preemption after a step that commutes with the preempted thread's.

use std::collections::HashSet;

use conair::Conair;
use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder};
use conair_runtime::{
    explore, explore_observed, minimize, run_replay, ExploreConfig, ExploreObserver, ExploreReport,
    ExploreStrategy, MachineConfig, PointMask, Program, RunOutcome,
};
use conair_workloads::{explore_hint, verify_hint, workload_by_name, WORKLOAD_NAMES};

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

/// Five shared accesses. Thread `a` runs `stg y,1; stg flag,1;
/// stg flag,0`; thread `b` runs `ldg z; ldg flag` and asserts the flag it
/// read is 0. The assertion fails only if `b` preempts `a` between the two
/// `flag` stores — one preemption — and `b`'s first step (`ldg z`)
/// commutes with `a`'s pending step there, while its second does not.
fn five_accesses() -> Program {
    let mut mb = ModuleBuilder::new("five");
    let y = mb.global("y", 0);
    let z = mb.global("z", 0);
    let flag = mb.global("flag", 0);
    let mut fb = FuncBuilder::new("a", 0);
    fb.store_global(y, 1);
    fb.store_global(flag, 1);
    fb.store_global(flag, 0);
    fb.ret();
    mb.function(fb.finish());
    let mut fb = FuncBuilder::new("b", 0);
    fb.load_global(z);
    let v = fb.load_global(flag);
    let ok = fb.cmp(CmpKind::Eq, v, 0);
    fb.assert(ok, "flag is clear");
    fb.ret();
    mb.function(fb.finish());
    Program::from_entry_names(mb.finish(), &["a", "b"])
}

#[test]
fn one_preemption_failure_behind_a_commuting_step_is_found() {
    let program = five_accesses();
    for (strategy, mask) in [
        (
            ExploreStrategy::Bounded { preemptions: 1 },
            PointMask::SYNC_SHARED,
        ),
        (ExploreStrategy::Bounded { preemptions: 1 }, PointMask::ALL),
        (
            ExploreStrategy::Dpor { preemptions: 1 },
            PointMask::SYNC_SHARED,
        ),
    ] {
        let mut ec = ExploreConfig::new(strategy);
        ec.mask = mask;
        ec.budget = 64;
        let report = explore(&program, &machine(), &ec);
        let label = format!("{} at {}", strategy.label(), mask.name());
        let found = report
            .first_failure
            .unwrap_or_else(|| panic!("{label}: no failure in {} schedules", report.schedules));
        assert!(
            matches!(found.outcome, RunOutcome::Failed(_)),
            "{label}: {:?}",
            found.outcome
        );
        assert_eq!(report.independence_skips, 0, "{label}: nothing is pruned");
    }
}

/// Reader asserts a flag the writer sets: fails only when the reader's
/// load runs before the writer's store.
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

/// Runs a keep-going search recording every executed decision trace, and
/// asserts that no two are equal.
fn assert_duplicate_free(
    what: &str,
    program: &Program,
    config: &MachineConfig,
    strategy: ExploreStrategy,
    budget: usize,
) -> ExploreReport {
    let mut ec = ExploreConfig::new(strategy);
    ec.mask = PointMask::SYNC_SHARED;
    ec.budget = budget;
    ec.stop_at_first = false;
    let mut obs = ExploreObserver::new().with_traces();
    let report = explore_observed(program, config, &ec, Some(&mut obs));
    let label = format!("{what} {}", strategy.label());
    assert_eq!(
        obs.traces().len(),
        report.schedules,
        "{label}: every run seen"
    );
    let distinct: HashSet<&Vec<u32>> = obs.traces().iter().collect();
    assert_eq!(
        distinct.len(),
        report.schedules,
        "{label}: a schedule ran twice"
    );
    report
}

#[test]
fn systematic_searches_never_repeat_a_schedule() {
    let ov = order_violation();
    let fft = workload_by_name("FFT").expect("registered workload");
    let hint = verify_hint("FFT").expect("catalog workload has a verify hint");
    let hardened = Conair::survival().harden(&fft.program).program;
    let verify = MachineConfig {
        max_retries: hint.max_retries,
        retry_backoff: true,
        ..machine()
    };
    for k in [1, 2] {
        for strategy in [
            ExploreStrategy::Bounded { preemptions: k },
            ExploreStrategy::Dpor { preemptions: k },
        ] {
            let r = assert_duplicate_free("order_violation", &ov, &machine(), strategy, 10_000);
            assert!(r.exhausted, "order_violation {}", strategy.label());
            let r = assert_duplicate_free("hardened FFT", &hardened, &verify, strategy, 400);
            assert!(r.exhausted || k == 2, "hardened FFT {}", strategy.label());
        }
    }
}
