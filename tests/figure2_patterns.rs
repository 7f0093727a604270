//! Figure 2 / Section 2.2: which atomicity-violation patterns single-
//! threaded idempotent reexecution can recover, and why the others need
//! shared-write reexecution.

use conair::{AnalysisConfig, Conair, RegionPolicy};
use conair_runtime::{run_scripted, MachineConfig, RunOutcome};
use conair_workloads::{build_micro, AtomicityPattern, MicroWorkload};

fn machine(policy: RegionPolicy) -> MachineConfig {
    MachineConfig {
        buffered_writes: policy == RegionPolicy::BufferedWrites,
        max_retries: 2_000,
        step_limit: 2_000_000,
        ..MachineConfig::default()
    }
}

fn run_hardened(m: &MicroWorkload, policy: RegionPolicy, seed: u64) -> (RunOutcome, Vec<i64>) {
    let pipeline = Conair::with_config(AnalysisConfig {
        policy,
        ..AnalysisConfig::default()
    });
    let hardened = pipeline.harden(&m.program);
    let r = run_scripted(&hardened.program, &machine(policy), &m.bug_script, seed);
    let out = r.outputs_for(&m.expected.0);
    (r.outcome, out)
}

#[test]
fn originals_all_fail_under_forced_interleavings() {
    for pattern in AtomicityPattern::ALL {
        let m = build_micro(pattern);
        let r = run_scripted(
            &m.program,
            &machine(RegionPolicy::Compensated),
            &m.bug_script,
            0,
        );
        assert!(
            r.outcome.is_failure(),
            "{}: original must fail, got {:?}",
            pattern.name(),
            r.outcome
        );
    }
}

#[test]
fn waw_and_rar_recover_with_idempotent_regions() {
    for pattern in [AtomicityPattern::Waw, AtomicityPattern::Rar] {
        for seed in 0..10 {
            let m = build_micro(pattern);
            let (outcome, out) = run_hardened(&m, RegionPolicy::Compensated, seed);
            assert!(
                outcome.is_completed(),
                "{} seed {seed}: {:?}",
                pattern.name(),
                outcome
            );
            assert_eq!(out, m.expected.1, "{} seed {seed}", pattern.name());
        }
    }
}

#[test]
fn raw_and_war_do_not_recover_with_idempotent_regions() {
    // Section 2.2: "only RAW and WAR atomicity violations require
    // reexecuting shared-variable writes to recover."
    for pattern in [AtomicityPattern::Raw, AtomicityPattern::War] {
        let m = build_micro(pattern);
        let (outcome, out) = run_hardened(&m, RegionPolicy::Compensated, 0);
        let recovered = outcome.is_completed() && out == m.expected.1;
        assert!(
            !recovered,
            "{}: idempotent regions must NOT recover this pattern",
            pattern.name()
        );
    }
}

#[test]
fn buffered_writes_recover_all_four() {
    for pattern in AtomicityPattern::ALL {
        for seed in 0..5 {
            let m = build_micro(pattern);
            let (outcome, out) = run_hardened(&m, RegionPolicy::BufferedWrites, seed);
            assert!(
                outcome.is_completed(),
                "{} seed {seed}: {:?}",
                pattern.name(),
                outcome
            );
            assert_eq!(out, m.expected.1, "{} seed {seed}", pattern.name());
        }
    }
}

#[test]
fn recoverability_predicate_matches_behavior() {
    for pattern in AtomicityPattern::ALL {
        let m = build_micro(pattern);
        let (outcome, out) = run_hardened(&m, RegionPolicy::Compensated, 1);
        let recovered = outcome.is_completed() && out == m.expected.1;
        assert_eq!(
            recovered,
            pattern.idempotent_recoverable(),
            "{}: predicate/behavior mismatch",
            pattern.name()
        );
    }
}
