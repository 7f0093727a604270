//! Lone spans under the consult-every-step mask: where one thread is the
//! only eligible one and its next instruction is local work, a plain run
//! executes the work as one span and settles the span's consults in one
//! `Scheduler::forced` call. A decision-recording run keeps one consult
//! per step, so it is the reference: every run here must agree with its
//! recording twin on outcome, outputs, statistics (context switches
//! included), trace events and the scheduler's final state — and must
//! actually have taken spans.

use std::fmt::Debug;
use std::time::Duration;

use conair_ir::{FuncBuilder, Inst, ModuleBuilder, PointId, SiteId};
use conair_runtime::{
    run_replay, EventBuffer, Gate, Machine, MachineConfig, Program, ReplayScheduler, RoundRobin,
    RunResult, SchedContext, ScheduleScript, Scheduler, SeededRandom, ThreadId, TraceEvent,
};

/// Counts the consults a run settled pick by pick and through `forced`.
#[derive(Debug)]
struct Counting<S> {
    inner: S,
    picks: u64,
    forced: u64,
}

impl<S: Scheduler> Scheduler for Counting<S> {
    fn pick(&mut self, ctx: &SchedContext<'_>) -> ThreadId {
        self.picks += 1;
        self.inner.pick(ctx)
    }

    fn forced(&mut self, first: &SchedContext<'_>, n: u64) {
        self.forced += n;
        self.inner.forced(first, n);
    }
}

/// One run under `MachineConfig::default()`, recording decisions or not,
/// with its trace events (the recording's closing `ScheduleInfo` left
/// out) and its scheduler.
fn run<S: Scheduler>(
    program: &Program,
    script: &ScheduleScript,
    sched: S,
    record: bool,
) -> (RunResult, Vec<TraceEvent>, Counting<S>) {
    let config = MachineConfig {
        record_decisions: record,
        ..MachineConfig::default()
    };
    let events = EventBuffer::new();
    let mut sched = Counting {
        inner: sched,
        picks: 0,
        forced: 0,
    };
    let mut r = Machine::new(program, config)
        .with_script(script)
        .with_sink(Box::new(events.clone()))
        .run(&mut sched);
    r.stats.wall = Duration::ZERO;
    r.stats.snapshot_wall = Duration::ZERO;
    let events = events
        .take()
        .into_iter()
        .filter(|e| !matches!(e, TraceEvent::ScheduleInfo { .. }))
        .collect();
    (r, events, sched)
}

/// Runs `program` plain and recorded with schedulers from `make`, checks
/// that the two agree, and returns the recorded run and the number of
/// consults the plain run settled through `forced`.
fn plain_matches_recorded<S: Scheduler + Debug>(
    program: &Program,
    script: &ScheduleScript,
    make: impl Fn() -> S,
) -> (RunResult, u64) {
    let (plain, plain_events, ps) = run(program, script, make(), false);
    let (recorded, recorded_events, rs) = run(program, script, make(), true);
    assert_eq!(plain.outcome, recorded.outcome);
    assert_eq!(plain.outputs, recorded.outputs);
    assert_eq!(plain.stats, recorded.stats);
    assert_eq!(plain_events, recorded_events);
    let decisions = recorded.decisions.as_ref().expect("recorded").len() as u64;
    assert_eq!(
        (rs.picks, rs.forced),
        (decisions, 0),
        "one consult per step"
    );
    assert_eq!(ps.picks + ps.forced, decisions, "every consult settled");
    assert_eq!(format!("{:?}", ps.inner), format!("{:?}", rs.inner));
    (recorded, ps.forced)
}

/// A loop of `n` iterations of thread-local arithmetic.
fn local_work(fb: &mut FuncBuilder, n: i64) {
    fb.counted_loop(n, |fb, i| {
        let v = fb.mul(i, 3);
        fb.add(v, 1);
    });
}

/// A leader that does local work, hits the marker `go`, and does more
/// local work; a follower held at its marker `wait` until `go` ran, then
/// local work of its own. While the follower is held the leader runs
/// alone; the step at `go` must not start a span, or the follower would
/// miss the consults right after its release.
fn gated_pair() -> (Program, ScheduleScript) {
    let mut mb = ModuleBuilder::new("gated_pair");
    let out = mb.global("out", 0);
    let mut leader = FuncBuilder::new("leader", 0);
    local_work(&mut leader, 20);
    leader.marker("go");
    local_work(&mut leader, 40);
    leader.store_global(out, 1);
    leader.ret();
    mb.function(leader.finish());
    let mut follower = FuncBuilder::new("follower", 0);
    follower.marker("wait");
    local_work(&mut follower, 40);
    let v = follower.load_global(out);
    follower.output("seen", v);
    follower.ret();
    mb.function(follower.finish());
    let program = Program::from_entry_names(mb.finish(), &["leader", "follower"]);
    let script = ScheduleScript::with_gates(vec![Gate::new(1, "wait", "go")]);
    (program, script)
}

/// Two threads take locks A and B in opposite orders, each second
/// acquisition timed and covered by a checkpoint, with local work around
/// the second acquisition and after the unlocks. Under `gated`, a script
/// makes both hold their first lock before either asks for the second,
/// so a timeout, a rollback and a backoff sleep are certain; the peer
/// that then takes the lock goes straight into local work while the
/// rolled-back thread sleeps, and no span may start before it wakes.
fn hardened_deadlock(gated: bool) -> (Program, ScheduleScript) {
    let mut mb = ModuleBuilder::new("lone_dl");
    let la = mb.lock("A");
    let lb = mb.lock("B");
    let counter = mb.global("counter", 0);
    for (name, first, second, point) in [("t1", la, lb, 0), ("t2", lb, la, 1)] {
        let mut fb = FuncBuilder::new(name, 0);
        fb.push(Inst::Checkpoint {
            point: PointId(point),
        });
        fb.lock(first);
        fb.marker(format!("{name}_has_first"));
        local_work(&mut fb, 5);
        fb.marker(format!("{name}_gate"));
        fb.push(Inst::TimedLock {
            lock: second,
            site: SiteId(point),
        });
        local_work(&mut fb, 10);
        let v = fb.load_global(counter);
        let v = fb.add(v, 1);
        fb.store_global(counter, v);
        fb.unlock(second);
        fb.unlock(first);
        local_work(&mut fb, 30);
        fb.output("counter", v);
        fb.ret();
        mb.function(fb.finish());
    }
    let program = Program::from_entry_names(mb.finish(), &["t1", "t2"]);
    let script = if gated {
        ScheduleScript::with_gates(vec![
            Gate::new(0, "t1_gate", "t2_has_first"),
            Gate::new(1, "t2_gate", "t1_has_first"),
        ])
    } else {
        ScheduleScript::none()
    };
    (program, script)
}

#[test]
fn a_released_peer_keeps_its_consults() {
    let (program, script) = gated_pair();
    let mut forced = 0;
    let mut switches = 0;
    for seed in 0..8 {
        let (r, f) = plain_matches_recorded(&program, &script, || SeededRandom::new(seed));
        assert!(r.outcome.is_completed(), "seed {seed}: {:?}", r.outcome);
        forced += f;
        switches += r.stats.context_switches;
    }
    let (r, f) = plain_matches_recorded(&program, &script, RoundRobin::new);
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    forced += f;
    assert!(forced > 0, "the leader's lone work ran as spans");
    assert!(switches > 8, "the threads interleave after the release");
}

#[test]
fn hardened_deadlock_recovers_identically_with_spans() {
    let (program, script) = hardened_deadlock(true);
    let mut forced = 0;
    for seed in 0..6 {
        let (r, f) = plain_matches_recorded(&program, &script, || SeededRandom::new(seed));
        assert!(r.outcome.is_completed(), "seed {seed}: {:?}", r.outcome);
        assert!(r.stats.rollbacks > 0, "seed {seed}: a timeout rolled back");
        assert!(
            !r.stats.lock_waits.is_empty(),
            "seed {seed}: a timed waiter"
        );
        forced += f;
    }
    assert!(forced > 0, "the survivor's lone work ran as spans");
    // A backoff sleep followed a rollback somewhere.
    let (_, events, _) = run(&program, &script, SeededRandom::new(0), false);
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::BackoffSleep { .. })));
}

/// An ALL-mask recording replays without divergence on the plain path,
/// where the replay scheduler settles spans through the default `forced`
/// — both through `run_replay` (no script, as `conair run --replay`) and
/// under the recording's gates.
#[test]
fn all_mask_records_replay_through_spans() {
    let cases = [
        (hardened_deadlock(false), 0..12u64),
        (hardened_deadlock(true), 0..4),
        (gated_pair(), 0..4),
    ];
    let mut forced = 0;
    for ((program, script), seeds) in cases {
        for seed in seeds {
            let (recorded, _) =
                plain_matches_recorded(&program, &script, || SeededRandom::new(seed));
            let trace = recorded.decisions.clone().expect("recorded");
            let mut replay = Counting {
                inner: ReplayScheduler::new(trace.clone()),
                picks: 0,
                forced: 0,
            };
            let mut r = Machine::new(&program, MachineConfig::default())
                .with_script(&script)
                .run(&mut replay);
            r.stats.wall = Duration::ZERO;
            assert_eq!(replay.inner.divergence(), None, "seed {seed}");
            assert_eq!(replay.inner.consumed(), trace.len(), "seed {seed}");
            assert_eq!(r.outcome, recorded.outcome, "seed {seed}");
            assert_eq!(r.outputs, recorded.outputs, "seed {seed}");
            assert_eq!(r.stats, recorded.stats, "seed {seed}");
            forced += replay.forced;
            if script.gates.is_empty() {
                let (r, divergence) = run_replay(&program, &MachineConfig::default(), &trace);
                assert_eq!(divergence, None, "seed {seed}");
                assert_eq!(r.outcome, recorded.outcome, "seed {seed}");
                assert_eq!(r.outputs, recorded.outputs, "seed {seed}");
            }
        }
    }
    assert!(forced > 0, "replays settled spans");
}
