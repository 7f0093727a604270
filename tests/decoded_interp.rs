//! Differential property test for the pre-decoded interpreter: executing
//! any schedule on the decoded instruction stream (fused superinstructions
//! and span execution included) must be **byte-identical** to executing it
//! on the legacy per-step `&Inst` walk — same [`RunOutcome`], same outputs,
//! same stats and metric histograms, same decision trace (hash included).
//! The oracle walk stays compiled in behind the `dense-oracle` feature for
//! exactly this comparison.

use conair_ir::FailureKind;
use conair_runtime::{
    run_scripted, FrontierScheduler, Machine, MachineConfig, PointMask, Program, RunOutcome,
    RunResult,
};
use conair_workloads::workload_by_name;

/// The exploration bounds of `tests/exploration.rs`: hang-prone schedules
/// must terminate promptly.
fn decoded_config() -> MachineConfig {
    MachineConfig {
        lock_timeout: 200,
        step_limit: 2_000_000,
        record_decisions: true,
        ..MachineConfig::default()
    }
}

/// Same bounds, but routed through the legacy `&Inst` interpreter walk.
fn oracle_config() -> MachineConfig {
    MachineConfig {
        dense_oracle: true,
        ..decoded_config()
    }
}

/// Asserts a decoded run and an oracle run are byte-identical up to the
/// wall clocks (the only nondeterministic fields).
fn assert_identical(decoded: &RunResult, oracle: &RunResult, what: &str) {
    let mut a = decoded.clone();
    let mut b = oracle.clone();
    a.stats.wall = std::time::Duration::ZERO;
    b.stats.wall = std::time::Duration::ZERO;
    a.stats.snapshot_wall = std::time::Duration::ZERO;
    b.stats.snapshot_wall = std::time::Duration::ZERO;
    assert_eq!(a.outcome, b.outcome, "{what}: outcome");
    assert_eq!(a.outputs, b.outputs, "{what}: outputs");
    assert_eq!(a.decisions, b.decisions, "{what}: decision trace");
    // The trace hash is what `explore`'s dedup and CI's report diffs key
    // on — pin it explicitly on top of the structural equality above.
    assert_eq!(
        a.decisions.as_ref().map(|t| t.hash()),
        b.decisions.as_ref().map(|t| t.hash()),
        "{what}: decision trace hash"
    );
    assert_eq!(
        a.stats, b.stats,
        "{what}: stats (steps, insts, rollbacks, histograms)"
    );
}

/// Runs one forced schedule under both interpreters and compares.
fn diff_forced(
    program: &conair_runtime::Program,
    prefix: Vec<u32>,
    mask: PointMask,
    what: &str,
) -> (RunResult, Vec<conair_runtime::Consult>) {
    let mut sched = FrontierScheduler::new(prefix.clone(), mask);
    let decoded = Machine::new(program, decoded_config()).run(&mut sched);
    let consults = sched.into_consults();
    let mut sched = FrontierScheduler::new(prefix, mask);
    let oracle = Machine::new(program, oracle_config()).run(&mut sched);
    assert_identical(&decoded, &oracle, what);
    (decoded, consults)
}

/// The property, for one workload under one decision mask: the default
/// (non-preemptive) schedule plus a handful of single-preemption children
/// — the shapes `explore` executes — agree between interpreters. Narrow
/// masks exercise the tight span path and the fused superinstructions;
/// preempted children cross fused pairs at arbitrary boundaries.
fn masked_runs_agree(name: &str, mask: PointMask) {
    let w = workload_by_name(name).expect("registered workload");
    let (decoded, consults) =
        diff_forced(&w.program, Vec::new(), mask, &format!("{name}: default"));
    let trace = decoded.decisions.expect("recorded");

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
        diff_forced(
            &w.program,
            prefix,
            mask,
            &format!("{name}: preempt at decision {i}"),
        );
        tested += 1;
        if tested >= 4 {
            break;
        }
    }
    assert!(tested > 0, "{name}: found branch points to preempt at");
}

/// Scripted (gate-forced) seeded-random runs of the *hardened* program —
/// the consult-every-step ALL mask, the schedule-gate hold path, and (on
/// the bug script) checkpoint rollback recovery — agree between
/// interpreters, seed by seed.
fn scripted_runs_agree(name: &str) {
    let w = workload_by_name(name).expect("registered workload");
    let hardened = conair::Conair::survival().harden(&w.program);
    for seed in 0..3u64 {
        for (script, label) in [(&w.benign_script, "benign"), (&w.bug_script, "bug")] {
            let decoded = run_scripted(&hardened.program, &decoded_config(), script, seed);
            let oracle = run_scripted(&hardened.program, &oracle_config(), script, seed);
            assert_identical(
                &decoded,
                &oracle,
                &format!("{name}: {label} script, seed {seed}"),
            );
        }
    }
}

macro_rules! decoded_test {
    ($test:ident, $name:literal) => {
        #[test]
        fn $test() {
            masked_runs_agree($name, PointMask::SYNC);
            masked_runs_agree($name, PointMask::SYNC_SHARED);
            scripted_runs_agree($name);
        }
    };
}

decoded_test!(fft_decoded_matches_oracle, "FFT");
decoded_test!(sqlite_decoded_matches_oracle, "SQLite");
decoded_test!(hawknl_decoded_matches_oracle, "HawkNL");
decoded_test!(mozilla_js_decoded_matches_oracle, "MozillaJS");
decoded_test!(transmission_decoded_matches_oracle, "Transmission");

/// Bodies of one-function programs that run into the interpreter's
/// resource caps — one huge `alloc`, a moderate `alloc` in a loop, and
/// unbounded recursion — with the cause their failure names.
const CAP_BODIES: [(&str, &str); 3] = [
    ("bb0:\n%r0 = alloc 99999999999999\nret", "heap exhausted"),
    (
        "bb0:\njump bb1\nbb1:\n%r0 = alloc 1000000\njump bb1",
        "heap exhausted",
    ),
    ("bb0:\n%r0 = call @f0()\nret", "call stack overflow"),
];

/// Past either cap, both walks end the run with the same segfault naming
/// the cause — on the tight span path (narrow mask) and the per-step one.
#[test]
fn resource_caps_decoded_matches_oracle() {
    for (body, cause) in CAP_BODIES {
        let src = format!("module m {{\nfn a(params=0, regs=1, locals=0) {{\n{body}\n}}\n}}");
        let module = conair_ir::parse_module(&src).expect("parses");
        let program = Program::from_entry_names(module, &["a"]);
        for mask in [PointMask::SYNC, PointMask::ALL] {
            let (r, _) = diff_forced(&program, Vec::new(), mask, cause);
            match &r.outcome {
                RunOutcome::Failed(f) => {
                    assert_eq!(f.kind, FailureKind::SegFault, "{cause}");
                    assert!(f.msg.starts_with(cause), "{cause}: {}", f.msg);
                }
                other => panic!("{cause}: expected a segfault, got {other:?}"),
            }
        }
    }
}
