//! TrialSummary aggregation edge cases, the trace/stats event-count
//! identities on a real hardened run, and the `summarize_events`
//! differential: every event-determined `RunStats` field rebuilt from a
//! trace equals the machine's own, over the hardened catalog.

use conair_ir::{CmpKind, FuncBuilder, GuardKind, Inst, ModuleBuilder, Operand, PointId, SiteId};
use conair_runtime::{
    run_trials, summarize_events, EventBuffer, Machine, MachineConfig, Program, RunOutcome,
    RunStats, ScheduleScript, SeededRandom, TraceEvent,
};

mod common;

fn config() -> MachineConfig {
    MachineConfig {
        max_retries: 10_000,
        lock_timeout: 100,
        step_limit: 2_000_000,
        ..MachineConfig::default()
    }
}

/// A hand-hardened order violation: the reader asserts a flag the writer
/// sets late; `checkpoint; load; failguard` makes the reader spin-recover.
fn order_violation_program() -> Program {
    let mut mb = ModuleBuilder::new("order");
    let flag = mb.global("flag", 0);

    let mut reader = FuncBuilder::new("reader", 0);
    reader.push(Inst::Checkpoint { point: PointId(0) });
    let v = reader.load_global(flag);
    let c = reader.cmp(CmpKind::Ne, v, 0);
    reader.push(Inst::FailGuard {
        kind: GuardKind::Assert,
        cond: Operand::Reg(c),
        site: SiteId(0),
        msg: "flag must be initialized".into(),
    });
    reader.output("value", v);
    reader.ret();
    mb.function(reader.finish());

    let mut writer = FuncBuilder::new("writer", 0);
    writer.store_global(flag, 7);
    writer.ret();
    mb.function(writer.finish());

    Program::from_entry_names(mb.finish(), &["reader", "writer"])
}

/// A single thread that re-acquires a lock it already holds: hangs under
/// every seed.
fn self_deadlock_program() -> Program {
    let mut mb = ModuleBuilder::new("selfdl");
    let l = mb.lock("m");
    let mut f = FuncBuilder::new("main", 0);
    f.lock(l);
    f.lock(l);
    f.unlock(l);
    f.ret();
    mb.function(f.finish());
    Program::from_entry_names(mb.finish(), &["main"])
}

/// A trivial program that completes with no failure sites at all.
fn clean_program() -> Program {
    let mut mb = ModuleBuilder::new("clean");
    let g = mb.global("g", 1);
    let mut f = FuncBuilder::new("main", 0);
    let v = f.load_global(g);
    f.output("v", v);
    f.ret();
    mb.function(f.finish());
    Program::from_entry_names(mb.finish(), &["main"])
}

#[test]
fn zero_trials_yield_empty_summary() {
    let p = clean_program();
    let s = run_trials(&p, &config(), &ScheduleScript::none(), 0, 0, 1);
    assert_eq!(s.trials, 0);
    assert_eq!(s.completed, 0);
    assert_eq!(s.failed + s.hung + s.step_limited, 0);
    assert_eq!(s.mean_insts, 0.0);
    assert_eq!(s.mean_retries, 0.0);
    assert_eq!(s.max_recovery_steps, None);
    // Vacuously true: zero trials, zero non-completions.
    assert!(s.all_completed());
    // Empty histograms have no percentiles.
    assert_eq!(s.retries_percentile(0.5), None);
    assert_eq!(s.recovery_percentile(0.99), None);
}

#[test]
fn all_hang_trials_are_tallied_as_hung() {
    let p = self_deadlock_program();
    let cfg = MachineConfig {
        step_limit: 10_000,
        ..MachineConfig::default()
    };
    let s = run_trials(&p, &cfg, &ScheduleScript::none(), 0, 5, 1);
    assert_eq!(s.trials, 5);
    assert_eq!(s.hung, 5, "self-deadlock must hang under every seed");
    assert_eq!(s.completed, 0);
    assert!(!s.all_completed());
    // No recovery machinery fired: retries were zero in every trial.
    assert_eq!(s.retries_percentile(1.0), Some(0));
    assert_eq!(s.recovery_percentile(0.5), None);
    assert_eq!(s.max_recovery_steps, None);
}

#[test]
fn completed_trials_without_recoveries_report_none() {
    let p = clean_program();
    let s = run_trials(&p, &config(), &ScheduleScript::none(), 0, 3, 1);
    assert_eq!(s.completed, 3);
    assert!(s.all_completed());
    assert_eq!(s.max_recovery_steps, None);
    assert_eq!(s.recovery_percentile(0.5), None);
    // Every trial contributed a zero-retry sample.
    assert_eq!(s.retries_percentile(0.5), Some(0));
    assert_eq!(s.retries_hist.count(), 3);
}

#[test]
fn trials_with_recoveries_fill_both_histograms() {
    let p = order_violation_program();
    // Force the reader to run first so at least some trials roll back.
    let s = run_trials(&p, &config(), &ScheduleScript::none(), 0, 20, 1);
    assert_eq!(s.completed, 20, "hardened order violation always recovers");
    assert_eq!(s.retries_hist.count(), 20);
    assert!(s.retries_percentile(1.0).is_some());
    if s.mean_retries > 0.0 {
        // At least one trial rolled back, so a latency was pooled.
        assert!(s.recovery_percentile(1.0).is_some());
        assert!(s.max_recovery_steps.is_some());
    }
}

#[test]
fn trace_event_counts_match_run_stats() {
    let p = order_violation_program();
    let buffer = EventBuffer::new();
    let r = Machine::new(&p, config())
        .with_sink(Box::new(buffer.clone()))
        .run(&mut SeededRandom::new(3));
    assert!(matches!(r.outcome, RunOutcome::Completed));
    let events = buffer.take();
    let count = |kind: &str| events.iter().filter(|e| e.kind_name() == kind).count() as u64;

    assert_eq!(count("checkpoint"), r.stats.checkpoints);
    assert_eq!(count("rollback"), r.stats.rollbacks);
    assert_eq!(count("failure-detected"), r.stats.total_retries());
    let recovered = r
        .stats
        .site_recovery
        .values()
        .filter(|s| s.recovered_step.is_some())
        .count() as u64;
    assert_eq!(count("recovery-completed"), recovered);

    // Lifecycle bookends: one start per thread, exactly one run-ended.
    assert_eq!(count("thread-started"), 2);
    assert_eq!(count("run-ended"), 1);
    assert!(matches!(events.last(), Some(TraceEvent::RunEnded { .. })));
}

/// The [`RunStats`] fields a trace determines, copied from a machine-side
/// run; every other field stays at its default, as in
/// [`summarize_events`]'s result.
fn event_determined(s: &RunStats) -> RunStats {
    RunStats {
        steps: s.steps,
        checkpoints: s.checkpoints,
        rollbacks: s.rollbacks,
        site_recovery: s.site_recovery.clone(),
        rollback_latency: s.rollback_latency.clone(),
        lock_waits: s.lock_waits.clone(),
        undo_depth: s.undo_depth.clone(),
        checkpoint_reexecutions: s.checkpoint_reexecutions,
        compensation_frees: s.compensation_frees,
        compensation_unlocks: s.compensation_unlocks,
        context_switches: s.context_switches,
        ..RunStats::default()
    }
}

/// Every event-determined stats field of a traced run equals what
/// [`summarize_events`] rebuilds from its events alone — the identity
/// `conair report` relies on — and the `ScheduleInfo` event names the
/// recorded schedule. Returns the rebuilt stats.
fn assert_trace_rebuilds_stats(
    what: &str,
    program: &Program,
    script: &ScheduleScript,
    seed: u64,
) -> RunStats {
    let config = MachineConfig {
        record_decisions: true,
        step_limit: 20_000_000,
        ..config()
    };
    let buffer = EventBuffer::new();
    let r = Machine::new(program, config)
        .with_script(script)
        .with_sink(Box::new(buffer.clone()))
        .run(&mut SeededRandom::new(seed));
    let events = buffer.take();
    let rebuilt = summarize_events(&events);
    assert_eq!(rebuilt, event_determined(&r.stats), "{what}: rebuilt stats");
    let schedule = events.iter().find_map(|e| match e {
        TraceEvent::ScheduleInfo {
            decisions,
            trace_hash,
            ..
        } => Some((*decisions, *trace_hash)),
        _ => None,
    });
    let trace = r.decisions.as_ref().expect("recorded");
    assert_eq!(
        schedule,
        Some((trace.len() as u64, trace.hash())),
        "{what}: schedule"
    );
    rebuilt
}

#[test]
fn trace_summary_matches_machine_stats_over_the_catalog() {
    use conair::Conair;
    let mut corpus = Vec::new();
    for w in conair_workloads::all_workloads() {
        let hardened = Conair::survival().harden(&w.program).program;
        for (kind, script) in [("benign", &w.benign_script), ("bug", &w.bug_script)] {
            let what = format!("{} {kind}", w.meta.name);
            corpus.push(assert_trace_rebuilds_stats(&what, &hardened, script, 1));
        }
    }
    let (program, script) = common::compensation_alloc_program();
    corpus.push(assert_trace_rebuilds_stats(
        "compensation alloc",
        &program,
        &script,
        3,
    ));
    // The corpus exercises every counter and histogram the comparison
    // covers, so none of the equalities above holds vacuously.
    let nonzero = |name: &str, f: &dyn Fn(&RunStats) -> u64| {
        assert!(corpus.iter().any(|s| f(s) > 0), "{name} is 0 on every run");
    };
    nonzero("steps", &|s| s.steps);
    nonzero("checkpoints", &|s| s.checkpoints);
    nonzero("rollbacks", &|s| s.rollbacks);
    nonzero("retries", &|s| s.total_retries());
    nonzero("recovered sites", &|s| {
        s.max_recovery_steps().map_or(0, |_| 1)
    });
    nonzero("rollback latency", &|s| s.rollback_latency.count());
    nonzero("lock waits", &|s| s.lock_waits.count());
    nonzero("undo depth", &|s| s.undo_depth.count());
    nonzero("checkpoint reexecutions", &|s| s.checkpoint_reexecutions);
    nonzero("compensation frees", &|s| s.compensation_frees);
    nonzero("compensation unlocks", &|s| s.compensation_unlocks);
    nonzero("context switches", &|s| s.context_switches);
}
