//! Differential property test for the prefix-sharing snapshot machinery:
//! restoring a [`MachineSnapshot`] captured at decision depth `d` and
//! running the suffix must be **byte-identical** to running the same
//! schedule from step zero — same `RunOutcome`, same outputs, same stats
//! and metric histograms (the inputs of `TrialSummary`), same
//! `DecisionTrace`. This is the property that lets `explore` resume
//! candidates from retained ancestors without changing any report field.
//! The snapshots come from [`Machine::run_captured_at_branches`], the
//! capture `explore` itself uses, so the property is checked at exactly
//! the depths the explorer resumes from: the first branch points (PCT
//! runs) and branch points spread over the whole run (frontier runs).

use conair_runtime::{
    CapturePlacement, FrontierScheduler, Machine, MachineConfig, MachineSnapshot, PointMask,
    RunResult,
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
) -> (RunResult, conair_runtime::Consults) {
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
    let mut machine = Machine::new(program, config);
    machine.restore_from(snap);
    machine.run(&mut sched)
}

/// The property, for one workload under one decision mask.
fn fork_matches_scratch(name: &str, mask: PointMask) {
    let w = workload_by_name(name).expect("registered workload");
    let config = machine();

    // One capturing run of the default (non-preemptive) schedule supplies
    // the snapshots, one per branch point; an uncaptured run of the same
    // schedule is the reference — capturing itself must not perturb
    // execution.
    let mut cap_sched = FrontierScheduler::new(Vec::new(), mask);
    let (captured, snaps) = Machine::new(&w.program, config).run_captured_at_branches(
        &mut cap_sched,
        1,
        64,
        CapturePlacement::First,
    );
    let (reference, consults) = run_forced(&w.program, config, Vec::new(), mask);
    assert_identical(&reference, &captured, &format!("{name}: capture run"));
    let trace = reference.decisions.clone().expect("recorded");
    assert!(!snaps.is_empty(), "{name}: default run captured snapshots");
    for c in &snaps {
        assert!(
            c.eligible.len() >= 2 && c.eligible == consults.get(c.depth).eligible,
            "{name}: capture at depth {} is not the branch point it names",
            c.depth
        );
    }

    // Resuming any snapshot and replaying the remaining recorded decisions
    // reproduces the reference run byte-for-byte.
    for c in &snaps {
        let depth = c.depth;
        let forked = resume_forced(
            &w.program,
            config,
            &c.snap,
            depth,
            trace.decisions.clone(),
            mask,
        );
        assert_identical(
            &reference,
            &forked,
            &format!("{name}: resume at depth {depth}"),
        );
    }

    // Perturbed children: flip the decision at a branch point, exactly how
    // `explore` forks candidate schedules, and resume from the image taken
    // at that very branch point. The run from the restored image must
    // match the run from step zero.
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
        let c = snaps
            .iter()
            .find(|c| c.depth == i)
            .expect("an image at every early branch point");
        let forked = resume_forced(&w.program, config, &c.snap, i, prefix, mask);
        assert_identical(&scratch, &forked, &format!("{name}: fork at decision {i}"));
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

/// Spread placement, for one workload under one decision mask: a run that
/// captures with a small `limit` holds at most `limit` images, in
/// ascending depth, at every `stride`-th branch point from the first one,
/// where `stride` is the smallest power of two that fits the run's branch
/// points into `limit`. Resuming each image equals the run from scratch.
fn spread_matches_scratch(name: &str, mask: PointMask, limit: usize) {
    let w = workload_by_name(name).expect("registered workload");
    let config = machine();
    let from = 3;
    let mut cap_sched = FrontierScheduler::new(Vec::new(), mask);
    let (captured, snaps) = Machine::new(&w.program, config).run_captured_at_branches(
        &mut cap_sched,
        from,
        limit,
        CapturePlacement::Spread,
    );
    let (reference, consults) = run_forced(&w.program, config, Vec::new(), mask);
    assert_identical(&reference, &captured, &format!("{name}: capture run"));
    let forks: Vec<usize> = (from..consults.len())
        .filter(|&i| consults.get(i).eligible.len() >= 2)
        .collect();
    assert!(
        forks.len() > 2 * limit,
        "{name}: {} branch points do not exercise the stride",
        forks.len()
    );
    let mut stride = 1;
    while forks.len().div_ceil(stride) > limit {
        stride *= 2;
    }
    let want: Vec<usize> = forks.iter().copied().step_by(stride).collect();
    let got: Vec<usize> = snaps.iter().map(|c| c.depth).collect();
    assert!(got.len() <= limit, "{name}: {} images held", got.len());
    assert_eq!(
        got, want,
        "{name}: images at every {stride}-th branch point"
    );
    assert!(
        got.last() > forks.get(forks.len() / 2),
        "{name}: the images reach the second half of the run"
    );
    let trace = reference.decisions.clone().expect("recorded");
    for c in &snaps {
        assert_eq!(
            c.eligible,
            consults.get(c.depth).eligible,
            "{name}: eligible set"
        );
        let forked = resume_forced(
            &w.program,
            config,
            &c.snap,
            c.depth,
            trace.decisions.clone(),
            mask,
        );
        assert_identical(
            &reference,
            &forked,
            &format!("{name}: resume at depth {}", c.depth),
        );
    }
}

#[test]
fn spread_captures_are_strided_and_resume_identically() {
    for name in ["FFT", "HawkNL", "SQLite"] {
        spread_matches_scratch(name, PointMask::SYNC_SHARED, 8);
        spread_matches_scratch(name, PointMask::SYNC_SHARED, 5);
    }
}
