//! Runtime edge cases: step limits, backoff livelock avoidance, harness
//! summaries and overhead measurement.

use conair_ir::{CmpKind, FuncBuilder, Inst, ModuleBuilder, Operand, PointId, SiteId};
use conair_runtime::{
    measure_overhead, run_once, run_trials, Machine, MachineConfig, Program, RoundRobin,
    RunOutcome, ScheduleScript, Scheduler, SeededRandom,
};

fn infinite_loop_program() -> Program {
    let mut mb = ModuleBuilder::new("spin");
    let mut fb = FuncBuilder::new("main", 0);
    let head = fb.new_block();
    fb.jump(head);
    fb.switch_to(head);
    fb.nop();
    fb.jump(head);
    mb.function(fb.finish());
    Program::from_entry_names(mb.finish(), &["main"])
}

#[test]
fn step_limit_terminates_runaway_programs() {
    let cfg = MachineConfig {
        step_limit: 10_000,
        ..MachineConfig::default()
    };
    let r = run_once(&infinite_loop_program(), &cfg, 0);
    assert_eq!(r.outcome, RunOutcome::StepLimit);
    assert!(r.stats.steps <= 10_000);
}

/// Symmetric deadlock recovery could livelock (both threads roll back and
/// retry in lockstep); the randomized backoff breaks the symmetry
/// (paper Section 3.3). Verified over many seeds with a tight step limit.
#[test]
fn deadlock_recovery_avoids_livelock() {
    let mut mb = ModuleBuilder::new("sym");
    let la = mb.lock("A");
    let lb = mb.lock("B");
    let build = |name: &str, first: conair_ir::LockId, second: conair_ir::LockId, site: u32| {
        let mut fb = FuncBuilder::new(name, 0);
        fb.push(Inst::Checkpoint {
            point: PointId(site),
        });
        fb.lock(first);
        fb.push(Inst::TimedLock {
            lock: second,
            site: SiteId(site),
        });
        fb.unlock(second);
        fb.unlock(first);
        fb.ret();
        fb.finish()
    };
    mb.function(build("t1", la, lb, 0));
    mb.function(build("t2", lb, la, 1));
    let program = Program::from_entry_names(mb.finish(), &["t1", "t2"]);

    // Round-robin is the adversarial scheduler here: perfectly symmetric.
    let cfg = MachineConfig {
        lock_timeout: 50,
        step_limit: 400_000,
        ..MachineConfig::default()
    };
    let r = Machine::new(&program, cfg).run(&mut RoundRobin::new());
    assert!(
        r.outcome.is_completed(),
        "random backoff must break recovery livelock: {:?}",
        r.outcome
    );
}

#[test]
fn trial_summary_classifies_outcomes() {
    // A program that always fails.
    let mut mb = ModuleBuilder::new("fail");
    let mut fb = FuncBuilder::new("main", 0);
    let c = fb.copy(0i64);
    fb.assert(c, "always");
    fb.ret();
    mb.function(fb.finish());
    let program = Program::from_entry_names(mb.finish(), &["main"]);
    let summary = run_trials(
        &program,
        &MachineConfig::default(),
        &ScheduleScript::none(),
        0,
        7,
        1,
    );
    assert_eq!(summary.trials, 7);
    assert_eq!(summary.failed, 7);
    assert_eq!(summary.completed, 0);
    assert!(!summary.all_completed());
    assert!(summary.mean_insts > 0.0);
}

#[test]
fn overhead_report_accounts_checkpoints() {
    // Original: compute loop. Hardened: the same plus one checkpoint and a
    // guard per iteration — measurable, deterministic overhead.
    let build = |hardened: bool| {
        let mut mb = ModuleBuilder::new("oh");
        let g = mb.global("g", 1);
        let mut fb = FuncBuilder::new("main", 0);
        fb.counted_loop(100, |b, _| {
            if hardened {
                b.push(Inst::Checkpoint { point: PointId(0) });
            }
            let v = b.load_global(g);
            let c = b.cmp(CmpKind::Ge, v, 0);
            if hardened {
                b.push(Inst::FailGuard {
                    kind: conair_ir::GuardKind::Assert,
                    cond: Operand::Reg(c),
                    site: SiteId(0),
                    msg: "ge".into(),
                });
            } else {
                b.assert(c, "ge");
            }
        });
        fb.ret();
        mb.function(fb.finish());
        Program::from_entry_names(mb.finish(), &["main"])
    };
    let original = build(false);
    let hardened = build(true);
    let report = measure_overhead(
        &original,
        &hardened,
        &MachineConfig::default(),
        &ScheduleScript::none(),
        0,
        3,
    );
    assert!(report.dynamic_points >= 100.0);
    assert!(report.overhead > 0.0, "checkpoints cost instructions");
    assert!(report.overhead < 0.5, "but not half the program");
    assert!(report.hardened_work > report.base_work);
}

#[test]
fn schedulers_have_names_and_respect_eligibility() {
    let mut rr = RoundRobin::new();
    let mut sr = SeededRandom::new(1);
    assert_eq!(rr.name(), "round-robin");
    assert_eq!(sr.name(), "seeded-random");
    let eligible = [conair_runtime::ThreadId(5)];
    let ctx = conair_runtime::SchedContext::simple(&eligible, 0);
    assert_eq!(rr.pick(&ctx).index(), 5);
    let ctx = conair_runtime::SchedContext::simple(&eligible, 1);
    assert_eq!(sr.pick(&ctx).index(), 5);
}

#[test]
fn outputs_preserve_emission_order_within_thread() {
    let mut mb = ModuleBuilder::new("ord");
    let mut fb = FuncBuilder::new("main", 0);
    for i in 0..5 {
        fb.output("seq", i as i64);
    }
    fb.ret();
    mb.function(fb.finish());
    let program = Program::from_entry_names(mb.finish(), &["main"]);
    let r = run_once(&program, &MachineConfig::default(), 0);
    assert_eq!(r.outputs_for("seq"), vec![0, 1, 2, 3, 4]);
}

#[test]
fn interprocedural_rollback_pops_frames_correctly() {
    // checkpoint in caller; failing guard in callee; rollback must resume
    // in the caller with the callee frame gone, and the retried call must
    // succeed once the writer lands.
    let mut mb = ModuleBuilder::new("xframe");
    let flag = mb.global("flag", 0);
    let callee = {
        let mut fb = FuncBuilder::new("check", 1);
        let p = fb.param(0);
        let c = fb.cmp(CmpKind::Ne, p, 0);
        fb.push(Inst::FailGuard {
            kind: conair_ir::GuardKind::Assert,
            cond: Operand::Reg(c),
            site: SiteId(0),
            msg: "param set".into(),
        });
        fb.ret_value(p);
        mb.function(fb.finish())
    };
    let mut fb = FuncBuilder::new("main", 0);
    fb.marker("main_started");
    fb.push(Inst::Checkpoint { point: PointId(0) });
    let v = fb.load_global(flag);
    let r = fb.call(callee, vec![Operand::Reg(v)]);
    fb.output("result", r);
    fb.ret();
    mb.function(fb.finish());
    let mut writer = FuncBuilder::new("writer", 0);
    writer.marker("w");
    writer.store_global(flag, 11);
    writer.ret();
    mb.function(writer.finish());
    let program = Program::from_entry_names(mb.finish(), &["main", "writer"]);
    let script =
        ScheduleScript::with_gates(vec![conair_runtime::Gate::new(1, "w", "main_started")]);
    for seed in 0..30 {
        let r = conair_runtime::run_scripted(&program, &MachineConfig::default(), &script, seed);
        assert!(r.outcome.is_completed(), "seed {seed}: {:?}", r.outcome);
        assert_eq!(r.outputs_for("result"), vec![11], "seed {seed}");
    }
}

/// With tracing enabled, a failure record carries the failing thread's
/// recent execution history, bounded by the configured depth.
#[test]
fn failure_records_carry_bounded_traces() {
    let mut mb = ModuleBuilder::new("traced");
    let g = mb.global("g", 0);
    let mut fb = FuncBuilder::new("main", 0);
    fb.counted_loop(20, |b, _| {
        let _ = b.load_global(g);
    });
    let v = fb.load_global(g);
    let c = fb.cmp(CmpKind::Ne, v, 0);
    fb.assert(c, "never set");
    fb.ret();
    mb.function(fb.finish());
    let program = Program::from_entry_names(mb.finish(), &["main"]);
    let cfg = MachineConfig {
        trace_depth: 8,
        ..MachineConfig::default()
    };
    let r = run_once(&program, &cfg, 0);
    match r.outcome {
        RunOutcome::Failed(f) => {
            assert_eq!(f.trace.len(), 8, "trace bounded by depth");
            // Entries are in execution order, ending at the assert.
            let steps: Vec<u64> = f.trace.iter().map(|(s, _)| *s).collect();
            let mut sorted = steps.clone();
            sorted.sort();
            assert_eq!(steps, sorted, "oldest first");
        }
        other => panic!("expected failure, got {other:?}"),
    }

    // Tracing off: empty trace, and no per-step overhead path taken.
    let r = run_once(&program, &MachineConfig::default(), 0);
    match r.outcome {
        RunOutcome::Failed(f) => assert!(f.trace.is_empty()),
        other => panic!("expected failure, got {other:?}"),
    }
}
