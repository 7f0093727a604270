//! Golden fixtures for the delta-debugging minimizer.
//!
//! Each row was recorded when every minimizer candidate still replayed
//! from step zero. Candidates now resume from the snapshot tree; resuming
//! is a pure perf layer, so every app's minimization must reproduce its
//! row exactly: the candidate count, the minimized length, the decision
//! hash, the failure signature, and a hash of the whole serialized report
//! (which also pins the trace's provenance fields and the full outcome).
//!
//! The apps and budgets are the repository benchmark's `explore` workload:
//! the catalog minus MySQL1/MySQL2, each minimized with its
//! `explore_hint` budget after a stop-at-first search under that hint.

use conair_runtime::{explore, minimize, ExploreConfig, MachineConfig, RunOutcome};
use conair_workloads::{explore_hint, workload_by_name};

struct Golden {
    app: &'static str,
    candidates: usize,
    minimized_len: usize,
    /// [`conair_runtime::DecisionTrace::hash`] of the minimized trace.
    decisions_hash: u64,
    signature: &'static str,
    /// FNV-1a of the report's JSON.
    report_hash: u64,
}

const GOLDEN: &[Golden] = &[
    Golden {
        app: "FFT",
        candidates: 8,
        minimized_len: 4,
        decisions_hash: 0x78a8_83a3_60d1_6049,
        signature: "failed:WrongOutput:None:0",
        report_hash: 0x45e8_c277_141d_8894,
    },
    Golden {
        app: "HawkNL",
        candidates: 32,
        minimized_len: 19,
        decisions_hash: 0xecf6_5721_8e30_2a38,
        signature: "hang",
        report_hash: 0xdf1a_4bee_be37_6a74,
    },
    Golden {
        app: "HTTrack",
        candidates: 8,
        minimized_len: 3,
        decisions_hash: 0x59f4_5999_1df6_2439,
        signature: "failed:SegFault:None:0",
        report_hash: 0x96eb_1243_5d6f_f65b,
    },
    Golden {
        app: "MozillaXP",
        candidates: 8,
        minimized_len: 3,
        decisions_hash: 0x59f4_5999_1df6_2439,
        signature: "failed:SegFault:None:0",
        report_hash: 0xf488_b842_77d0_c581,
    },
    Golden {
        app: "MozillaJS",
        candidates: 64,
        minimized_len: 33,
        decisions_hash: 0x7691_3d14_8f63_f298,
        signature: "hang",
        report_hash: 0xd4d8_9bc5_2991_4717,
    },
    Golden {
        app: "Transmission",
        candidates: 8,
        minimized_len: 3,
        decisions_hash: 0x59f4_5999_1df6_2439,
        signature: "failed:AssertionViolation:None:0",
        report_hash: 0x19cb_ef3e_e816_ac98,
    },
    Golden {
        app: "SQLite",
        candidates: 32,
        minimized_len: 16,
        decisions_hash: 0xb577_edd2_a253_9eb8,
        signature: "hang",
        report_hash: 0x27fe_1700_5187_8f36,
    },
    Golden {
        app: "ZSNES",
        candidates: 8,
        minimized_len: 4,
        decisions_hash: 0x78a8_83a3_60d1_6049,
        signature: "failed:AssertionViolation:None:0",
        report_hash: 0x20ad_bd56_44ee_23df,
    },
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The minimizer's failure signature: outcome class, failure kind, site
/// and thread.
fn signature(outcome: &RunOutcome) -> String {
    match outcome {
        RunOutcome::Completed => "completed".into(),
        RunOutcome::Failed(f) => format!("failed:{:?}:{:?}:{}", f.kind, f.site, f.thread.index()),
        RunOutcome::Hang { .. } => "hang".into(),
        RunOutcome::StepLimit => "step-limit".into(),
    }
}

fn check(golden: &Golden) {
    let name = golden.app;
    let w = workload_by_name(name).expect("registered workload");
    let hint = explore_hint(name).expect("catalog workload has a hint");
    let config = MachineConfig::default();
    let mut ec = ExploreConfig::new(hint.strategy);
    ec.mask = hint.mask;
    ec.budget = hint.budget;
    ec.seed = hint.seed;
    let found = explore(&w.program, &config, &ec)
        .first_failure
        .unwrap_or_else(|| panic!("{name}: the hint search finds the bug"));
    let min = minimize(&w.program, &config, &found.trace, hint.budget)
        .unwrap_or_else(|e| panic!("{name}: minimize failed: {e}"));
    let json = serde_json::to_string(&min).expect("report serializes");
    assert_eq!(
        (
            min.candidates,
            min.minimized_len,
            min.trace.hash(),
            signature(&min.outcome).as_str(),
            fnv1a(json.as_bytes()),
        ),
        (
            golden.candidates,
            golden.minimized_len,
            golden.decisions_hash,
            golden.signature,
            golden.report_hash,
        ),
        "{name}: minimization drifted from its golden fixture"
    );
}

#[test]
fn minimize_matches_golden_fixtures() {
    for golden in GOLDEN {
        check(golden);
    }
}
