//! Random backoff on the deadlock-recovery path (`backoff_max` /
//! `backoff_seed`): rollback alone cannot resolve a symmetric deadlock —
//! two threads in lockstep time out, roll back, reacquire and deadlock
//! again, forever. The randomized pause after each deadlock rollback is
//! what breaks the symmetry (paper Section 4.1's anti-livelock measure).

use conair_ir::{FuncBuilder, Inst, ModuleBuilder, PointId, SiteId};
use conair_runtime::{
    find_wait_cycle, run_scripted, Gate, Machine, MachineConfig, Program, RoundRobin, RunOutcome,
    RunResult, ScheduleScript,
};

/// Two threads acquire locks A and B in opposite orders; both second
/// acquisitions are timed and covered by a checkpoint, so each timeout
/// rolls back (compensation releasing the first lock) and retries.
fn symmetric_deadlock() -> (Program, ScheduleScript) {
    let mut mb = ModuleBuilder::new("sym_dl");
    let la = mb.lock("A");
    let lb = mb.lock("B");

    let mut t1 = FuncBuilder::new("t1", 0);
    t1.push(Inst::Checkpoint { point: PointId(0) });
    t1.lock(la);
    t1.marker("t1_has_a");
    t1.marker("t1_gate");
    t1.push(Inst::TimedLock {
        lock: lb,
        site: SiteId(0),
    });
    t1.unlock(lb);
    t1.unlock(la);
    t1.ret();
    mb.function(t1.finish());

    let mut t2 = FuncBuilder::new("t2", 0);
    t2.push(Inst::Checkpoint { point: PointId(1) });
    t2.lock(lb);
    t2.marker("t2_has_b");
    t2.marker("t2_gate");
    t2.push(Inst::TimedLock {
        lock: la,
        site: SiteId(1),
    });
    t2.unlock(la);
    t2.unlock(lb);
    t2.ret();
    mb.function(t2.finish());

    let program = Program::from_entry_names(mb.finish(), &["t1", "t2"]);
    // Both threads hold their first lock before either requests the second.
    let script = ScheduleScript::with_gates(vec![
        Gate::new(0, "t1_gate", "t2_has_b"),
        Gate::new(1, "t2_gate", "t1_has_a"),
    ]);
    (program, script)
}

fn config(backoff_max: u64, backoff_seed: u64) -> MachineConfig {
    MachineConfig {
        max_retries: 50,
        lock_timeout: 100,
        step_limit: 500_000,
        backoff_max,
        backoff_seed,
        ..MachineConfig::default()
    }
}

/// Round-robin keeps the two threads in perfect lockstep, the worst case
/// for recovery livelock.
fn run_round_robin(program: &Program, script: &ScheduleScript, cfg: &MachineConfig) -> RunResult {
    Machine::new(program, *cfg)
        .with_script(script)
        .run(&mut RoundRobin::new())
}

#[test]
fn zero_backoff_livelocks_in_lockstep() {
    let (program, script) = symmetric_deadlock();
    let r = run_round_robin(&program, &script, &config(0, 7));
    // Without backoff the symmetric retries stay synchronized: every
    // attempt deadlocks again until the retry budget exhausts.
    match &r.outcome {
        RunOutcome::Failed(f) => {
            assert_eq!(f.kind, conair_ir::FailureKind::Deadlock, "{f:?}");
            assert!(f.site.is_some(), "failure names its timed-lock site");
        }
        other => panic!("expected exhausted deadlock retries, got {other:?}"),
    }
    assert!(
        r.stats.rollbacks >= 10,
        "livelock means many fruitless rollbacks, saw {}",
        r.stats.rollbacks
    );
}

#[test]
fn random_backoff_breaks_the_livelock() {
    let (program, script) = symmetric_deadlock();
    let r = run_round_robin(&program, &script, &config(24, 7));
    assert!(
        r.outcome.is_completed(),
        "backoff desynchronizes the retries: {:?}",
        r.outcome
    );
    assert!(r.stats.rollbacks >= 1, "recovery actually ran");
    // Several backoff seeds all avoid the livelock (the pause only has to
    // differ between the two threads' draws, which it does w.h.p.).
    for seed in [1, 2, 0xDEAD] {
        let r = run_round_robin(&program, &script, &config(24, seed));
        assert!(
            r.outcome.is_completed(),
            "backoff seed {seed} still livelocked: {:?}",
            r.outcome
        );
    }
}

#[test]
fn backoff_is_deterministic_per_seed() {
    let (program, script) = symmetric_deadlock();
    let cfg = config(24, 42);
    let mut a = run_round_robin(&program, &script, &cfg);
    let mut b = run_round_robin(&program, &script, &cfg);
    assert_eq!(a.outcome, b.outcome);
    a.stats.wall = std::time::Duration::ZERO;
    b.stats.wall = std::time::Duration::ZERO;
    assert_eq!(a.stats, b.stats);
    // The seeded-random scheduler is equally repeatable end to end.
    let a = run_scripted(&program, &cfg, &script, 9);
    let b = run_scripted(&program, &cfg, &script, 9);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.stats.steps, b.stats.steps);
}

#[test]
fn exhausted_retries_snapshot_the_wait_cycle() {
    // No checkpoints: the first timeout exhausts recovery immediately, and
    // the failure must carry a diagnosable wait-for graph.
    let mut mb = ModuleBuilder::new("dl_exhaust");
    let la = mb.lock("A");
    let lb = mb.lock("B");

    let mut t1 = FuncBuilder::new("t1", 0);
    t1.lock(la);
    t1.marker("t1_has_a");
    t1.marker("t1_gate");
    t1.push(Inst::TimedLock {
        lock: lb,
        site: SiteId(0),
    });
    t1.unlock(lb);
    t1.unlock(la);
    t1.ret();
    mb.function(t1.finish());

    let mut t2 = FuncBuilder::new("t2", 0);
    t2.lock(lb);
    t2.marker("t2_has_b");
    t2.marker("t2_gate");
    t2.lock(la);
    t2.unlock(la);
    t2.unlock(lb);
    t2.ret();
    mb.function(t2.finish());

    let program = Program::from_entry_names(mb.finish(), &["t1", "t2"]);
    let script = ScheduleScript::with_gates(vec![
        Gate::new(0, "t1_gate", "t2_has_b"),
        Gate::new(1, "t2_gate", "t1_has_a"),
    ]);
    let r = run_scripted(&program, &config(24, 1), &script, 3);

    let RunOutcome::Failed(f) = &r.outcome else {
        panic!("expected exhausted deadlock, got {:?}", r.outcome);
    };
    assert_eq!(f.kind, conair_ir::FailureKind::Deadlock);
    assert_eq!(f.site, Some(SiteId(0)), "t1's timed lock is the only site");

    // The snapshot holds both halves of the circular wait, so the cycle
    // is recoverable from the failure alone (what the CLI prints).
    assert!(r.stats.wait_edges.len() >= 2, "{:?}", r.stats.wait_edges);
    let cycle = find_wait_cycle(&r.stats.wait_edges).expect("cycle diagnosable");
    assert_eq!(cycle.threads.len(), 2);
    assert!(cycle.locks.contains(&la));
    assert!(cycle.locks.contains(&lb));
}
