//! The headline result (paper Table 3): every Table-2 workload fails under
//! its bug-forcing interleaving when unhardened, and always recovers —
//! with correct output — once hardened by survival-mode ConAir.

use conair::Conair;
use conair_ir::{MAX_FRAME_WORDS, MAX_GLOBAL_WORDS};
use conair_runtime::{
    run_scripted, Machine, MachineConfig, RunOutcome, SeededRandom, MAX_CALL_DEPTH, MAX_HEAP_WORDS,
};
use conair_workloads::{all_workloads, Symptom, Workload};

fn config() -> MachineConfig {
    MachineConfig {
        lock_timeout: 200,
        step_limit: 20_000_000,
        ..MachineConfig::default()
    }
}

/// The original program manifests its documented failure symptom.
fn assert_original_fails(w: &Workload, seed: u64) {
    let r = run_scripted(&w.program, &config(), &w.bug_script, seed);
    match (w.meta.symptom, &r.outcome) {
        (Symptom::Hang, RunOutcome::Hang { .. }) => {}
        (Symptom::Assertion, RunOutcome::Failed(f)) => {
            assert_eq!(
                f.kind,
                conair_ir::FailureKind::AssertionViolation,
                "{}: wrong failure kind",
                w.meta.name
            );
        }
        (Symptom::SegFault, RunOutcome::Failed(f)) => {
            assert_eq!(f.kind, conair_ir::FailureKind::SegFault, "{}", w.meta.name);
        }
        (Symptom::WrongOutput, RunOutcome::Failed(f)) => {
            // The oracle (developer-specified) detects the wrong output.
            assert_eq!(
                f.kind,
                conair_ir::FailureKind::WrongOutput,
                "{}",
                w.meta.name
            );
        }
        (sym, outcome) => panic!(
            "{}: expected {sym} failure, got {outcome:?} (seed {seed})",
            w.meta.name
        ),
    }
}

/// The hardened program completes with correct output under the same
/// forced interleaving.
fn assert_hardened_recovers(w: &Workload, seed: u64) {
    let hardened = Conair::survival().harden(&w.program);
    let r = run_scripted(&hardened.program, &config(), &w.bug_script, seed);
    assert!(
        r.outcome.is_completed(),
        "{}: hardened run must complete, got {:?} (seed {seed})",
        w.meta.name,
        r.outcome
    );
    w.verify_outputs(&r)
        .unwrap_or_else(|e| panic!("{}: {e} (seed {seed})", w.meta.name));
}

macro_rules! app_test {
    ($test_name:ident, $app:literal) => {
        #[test]
        fn $test_name() {
            let w = conair_workloads::workload_by_name($app).unwrap();
            for seed in 0..5 {
                assert_original_fails(&w, seed);
            }
            for seed in 0..5 {
                assert_hardened_recovers(&w, seed);
            }
        }
    };
}

app_test!(fft_fails_then_recovers, "FFT");
app_test!(hawknl_fails_then_recovers, "HawkNL");
app_test!(httrack_fails_then_recovers, "HTTrack");
app_test!(mozilla_xp_fails_then_recovers, "MozillaXP");
app_test!(mozilla_js_fails_then_recovers, "MozillaJS");
app_test!(mysql1_fails_then_recovers, "MySQL1");
app_test!(mysql2_fails_then_recovers, "MySQL2");
app_test!(transmission_fails_then_recovers, "Transmission");
app_test!(sqlite_fails_then_recovers, "SQLite");
app_test!(zsnes_fails_then_recovers, "ZSNES");

/// Fix mode — knowing only the failure site — also recovers every app.
#[test]
fn fix_mode_recovers_every_app() {
    for w in all_workloads() {
        let hardened = Conair::fix(w.fix_markers.clone()).harden(&w.program);
        let r = run_scripted(&hardened.program, &config(), &w.bug_script, 7);
        assert!(
            r.outcome.is_completed(),
            "{} (fix mode): {:?}",
            w.meta.name,
            r.outcome
        );
        w.verify_outputs(&r)
            .unwrap_or_else(|e| panic!("{} (fix mode): {e}", w.meta.name));
    }
}

/// Benign runs (the correct interleaving, as in the paper's overhead
/// methodology) complete correctly both before and after hardening —
/// ConAir never changes semantics.
#[test]
fn benign_runs_unchanged_by_hardening() {
    for w in all_workloads() {
        let orig = run_scripted(&w.program, &config(), &w.benign_script, 99);
        assert!(
            orig.outcome.is_completed(),
            "{} original benign: {:?}",
            w.meta.name,
            orig.outcome
        );
        let hardened = Conair::survival().harden(&w.program);
        let hard = run_scripted(&hardened.program, &config(), &w.benign_script, 99);
        assert!(
            hard.outcome.is_completed(),
            "{} hardened benign: {:?}",
            w.meta.name,
            hard.outcome
        );
        w.verify_outputs(&orig)
            .unwrap_or_else(|e| panic!("{} original: {e}", w.meta.name));
        w.verify_outputs(&hard)
            .unwrap_or_else(|e| panic!("{} hardened: {e}", w.meta.name));
    }
}

/// The deepest call stack any thread of `module` can build, in frames:
/// one plus the longest call chain. Without recursion every chain is
/// shorter than the function count, so relaxing that many times settles.
fn max_call_depth(module: &conair_ir::Module) -> usize {
    let calls: Vec<(usize, usize)> = module
        .iter_insts()
        .filter_map(|(loc, inst)| match inst {
            conair_ir::Inst::Call { callee, .. } => Some((loc.func.index(), callee.index())),
            _ => None,
        })
        .collect();
    let n = module.functions.len();
    let mut depth = vec![1; n];
    for _ in 0..n {
        for &(caller, callee) in &calls {
            depth[caller] = depth[caller].max(depth[callee] + 1);
        }
    }
    let max = depth.into_iter().max().unwrap_or(0);
    assert!(max <= n, "{}: recursive call chain", module.name);
    max
}

/// Every hardened catalog app's benign and bug-script runs stay far below
/// the interpreter's resource caps: no recursion, so the call stack is
/// bounded by the longest call chain, and the words allocated over a whole
/// run (an upper bound on the live heap) are a tiny fraction of the heap
/// cap. The widest frame and the global words are as far below the
/// validator's frame and global caps.
#[test]
fn catalog_runs_stay_far_below_resource_caps() {
    for w in all_workloads() {
        let hardened = Conair::survival().harden(&w.program);
        let module = &hardened.program.module;
        let depth = max_call_depth(module);
        assert!(
            depth * 1000 < MAX_CALL_DEPTH,
            "{}: depth {depth}",
            w.meta.name
        );
        let frame = module
            .functions
            .iter()
            .map(|f| f.num_regs + f.num_locals)
            .max()
            .unwrap_or(0);
        let globals: usize = module.globals.iter().map(|g| g.words).sum();
        assert!(
            frame * 1000 < MAX_FRAME_WORDS,
            "{}: widest frame {frame} words",
            w.meta.name
        );
        assert!(
            globals * 1000 < MAX_GLOBAL_WORDS,
            "{}: {globals} global words",
            w.meta.name
        );
        for (script, label) in [(&w.benign_script, "benign"), (&w.bug_script, "bug")] {
            for seed in 0..3 {
                let (r, end) = Machine::new(&hardened.program, config())
                    .with_script(script)
                    .run_with_final_snapshot(&mut SeededRandom::new(seed));
                assert!(r.outcome.is_completed(), "{}: {label}", w.meta.name);
                let words = end.memory().total_allocated;
                assert!(
                    words * 1000 < MAX_HEAP_WORDS,
                    "{}: {label} allocated {words} words",
                    w.meta.name
                );
            }
        }
    }
}
