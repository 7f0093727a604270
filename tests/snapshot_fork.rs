//! Differential property test for the prefix-sharing snapshot machinery:
//! restoring a [`MachineSnapshot`] captured at decision depth `d` and
//! running the suffix must be **byte-identical** to running the same
//! schedule from step zero — same `RunOutcome`, same outputs, same stats
//! and metric histograms (the inputs of `TrialSummary`), same
//! `DecisionTrace`. This is the property that lets `explore` resume
//! candidates from retained ancestors without changing any report field.

use conair_runtime::{
    FrontierScheduler, Machine, MachineConfig, MachineSnapshot, PointMask, RunResult,
};
use conair_workloads::workload_by_name;

/// The exploration bounds of `tests/exploration.rs`: hang-prone schedules
/// must terminate promptly.
fn machine() -> MachineConfig {
    MachineConfig {
        lock_timeout: 200,
        step_limit: 2_000_000,
        record_decisions: true,
        ..MachineConfig::default()
    }
}

/// Asserts two runs are byte-identical up to the legitimately differing
/// fields: the wall clocks (nondeterministic, including the snapshot
/// capture timer).
fn assert_identical(reference: &RunResult, forked: &RunResult, what: &str) {
    let mut a = reference.clone();
    let mut b = forked.clone();
    a.stats.wall = std::time::Duration::ZERO;
    b.stats.wall = std::time::Duration::ZERO;
    a.stats.snapshot_wall = std::time::Duration::ZERO;
    b.stats.snapshot_wall = std::time::Duration::ZERO;
    assert_eq!(a.outcome, b.outcome, "{what}: outcome");
    assert_eq!(a.outputs, b.outputs, "{what}: outputs");
    assert_eq!(a.decisions, b.decisions, "{what}: decision trace");
    // Stats carry the histograms TrialSummary folds (rollback latency,
    // lock waits, undo depth) — byte equality here is what makes
    // trial-level aggregation snapshot-agnostic.
    assert_eq!(a.stats, b.stats, "{what}: stats");
}

fn run_forced(
    program: &conair_runtime::Program,
    config: MachineConfig,
    prefix: Vec<u32>,
    mask: PointMask,
) -> (RunResult, Vec<conair_runtime::Consult>) {
    let mut sched = FrontierScheduler::new(prefix, mask);
    let result = Machine::new(program, config).run(&mut sched);
    (result, sched.into_consults())
}

fn resume_forced(
    program: &conair_runtime::Program,
    config: MachineConfig,
    snap: &MachineSnapshot,
    depth: usize,
    prefix: Vec<u32>,
    mask: PointMask,
) -> RunResult {
    let mut sched = FrontierScheduler::resume(prefix, depth, mask);
    Machine::resume(program, config, snap).run(&mut sched)
}

/// The property, for one workload under one decision mask.
fn fork_matches_scratch(name: &str, mask: PointMask) {
    let w = workload_by_name(name).expect("registered workload");
    let config = machine();

    // One capturing run of the default (non-preemptive) schedule supplies
    // the snapshots; an uncaptured run of the same schedule is the
    // reference — capturing itself must not perturb execution.
    let mut cap_sched = FrontierScheduler::new(Vec::new(), mask);
    let (captured, snaps) = Machine::new(&w.program, config).run_captured(&mut cap_sched, 1, 64);
    let (reference, consults) = run_forced(&w.program, config, Vec::new(), mask);
    assert_identical(&reference, &captured, &format!("{name}: capture run"));
    let trace = reference.decisions.clone().expect("recorded");
    assert!(!snaps.is_empty(), "{name}: default run captured snapshots");

    // Resuming any snapshot and replaying the remaining recorded decisions
    // reproduces the reference run byte-for-byte.
    for (depth, snap) in &snaps {
        let forked = resume_forced(
            &w.program,
            config,
            snap,
            *depth,
            trace.decisions.clone(),
            mask,
        );
        assert_identical(
            &reference,
            &forked,
            &format!("{name}: resume at depth {depth}"),
        );
    }

    // Perturbed children: flip a decision at a branch point past the
    // snapshot, exactly how `explore` forks candidate schedules. The run
    // from the restored ancestor must match the run from step zero.
    let mut tested = 0usize;
    for (i, c) in consults.iter().enumerate() {
        if c.eligible.len() < 2 || i == 0 {
            continue;
        }
        let alt = *c
            .eligible
            .iter()
            .find(|&&t| t != c.chosen)
            .expect("two eligible threads");
        let mut prefix = trace.decisions[..i].to_vec();
        prefix.push(alt.index() as u32);
        let (scratch, _) = run_forced(&w.program, config, prefix.clone(), mask);
        let (depth, snap) = snaps
            .iter()
            .rev()
            .find(|(d, _)| *d <= i)
            .expect("ancestor snapshot at or below the branch");
        let forked = resume_forced(&w.program, config, snap, *depth, prefix, mask);
        assert_identical(
            &scratch,
            &forked,
            &format!("{name}: fork at decision {i} from depth {depth}"),
        );
        tested += 1;
        if tested >= 6 {
            break;
        }
    }
    assert!(tested > 0, "{name}: found branch points to fork at");
}

macro_rules! fork_test {
    ($test:ident, $name:literal) => {
        #[test]
        fn $test() {
            fork_matches_scratch($name, PointMask::SYNC);
            fork_matches_scratch($name, PointMask::SYNC_SHARED);
        }
    };
}

fork_test!(fft_forks_identically, "FFT");
fork_test!(sqlite_forks_identically, "SQLite");
fork_test!(hawknl_forks_identically, "HawkNL");
fork_test!(mozilla_js_forks_identically, "MozillaJS");
fork_test!(transmission_forks_identically, "Transmission");
