//! Golden fixtures for the delta-debugging minimizer and the searches.
//!
//! Each minimize row was recorded when the minimizer became one ddmin
//! over the failing run's deviations from the non-preemptive default,
//! stopping after a single-deviation pass removes nothing. Every app's
//! minimization must reproduce its row exactly: the candidate count, the
//! minimized length, the decision hash, the failure signature, and a hash
//! of the whole serialized report (which also pins the deviation and
//! preemption counts, the trace's provenance fields and the full
//! outcome). Beyond its row, each minimization must replay without
//! divergence to the same outcome, rank no higher than its input in
//! `(preemptions, deviations, decisions)`, and end on its own well below
//! a 10 000-replay budget.
//!
//! The apps and budgets are the repository benchmark's `explore` workload:
//! the catalog minus MySQL1/MySQL2, each minimized with its
//! `explore_hint` budget after a stop-at-first search under that hint.
//!
//! The search rows pin the benchmark's searches themselves: per app, the
//! `explore_hint` search, a stop-at-first DPOR search at one preemption
//! and a keep-going PCT sweep; and the `verify_hint` DPOR search on three
//! hardened apps. Each row hashes the report with only its wall-clock
//! fields zeroed, so the snapshot-cache counters (`snapshots_taken`,
//! `snapshot_hits`, `steps_saved`) and the DPOR counters are pinned too:
//! the hashes fix every capture and resume decision the search makes,
//! not just what it finds. They were recorded while each strategy still
//! ran its own wave loop; the shared loop must reproduce them exactly.

use conair::Conair;
use conair_runtime::{
    explore, minimize, run_replay, ExploreConfig, ExplorePhases, ExploreReport, ExploreStrategy,
    MachineConfig, PointMask, RunOutcome,
};
use conair_workloads::{explore_hint, verify_hint, workload_by_name};

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
        candidates: 1,
        minimized_len: 4,
        decisions_hash: 0x78a8_83a3_60d1_6049,
        signature: "failed:WrongOutput:None:0",
        report_hash: 0xcea4_259b_0152_941f,
    },
    Golden {
        app: "HawkNL",
        candidates: 2,
        minimized_len: 19,
        decisions_hash: 0xe6b3_1dae_b11f_56b8,
        signature: "hang",
        report_hash: 0xc7a3_6e03_5ce2_35d7,
    },
    Golden {
        app: "HTTrack",
        candidates: 1,
        minimized_len: 3,
        decisions_hash: 0x59f4_5999_1df6_2439,
        signature: "failed:SegFault:None:0",
        report_hash: 0x7030_2076_200e_90cc,
    },
    Golden {
        app: "MozillaXP",
        candidates: 1,
        minimized_len: 3,
        decisions_hash: 0x59f4_5999_1df6_2439,
        signature: "failed:SegFault:None:0",
        report_hash: 0x4e55_feb9_34f3_1dfa,
    },
    Golden {
        app: "MozillaJS",
        candidates: 2,
        minimized_len: 33,
        decisions_hash: 0x7691_3d14_8f63_f298,
        signature: "hang",
        report_hash: 0xd3d2_5aff_a11e_635f,
    },
    Golden {
        app: "Transmission",
        candidates: 1,
        minimized_len: 3,
        decisions_hash: 0x59f4_5999_1df6_2439,
        signature: "failed:AssertionViolation:None:0",
        report_hash: 0x0297_edd0_0ef9_c46d,
    },
    Golden {
        app: "SQLite",
        candidates: 2,
        minimized_len: 16,
        decisions_hash: 0xec92_2e0c_06ca_ac18,
        signature: "hang",
        report_hash: 0x3eaf_fea9_aaca_e5d1,
    },
    Golden {
        app: "ZSNES",
        candidates: 1,
        minimized_len: 4,
        decisions_hash: 0x78a8_83a3_60d1_6049,
        signature: "failed:AssertionViolation:None:0",
        report_hash: 0x0ab5_b56d_6171_60b0,
    },
];

/// Which search a [`SearchGolden`] row pins.
#[derive(Debug, Clone, Copy)]
enum Search {
    /// The app's `explore_hint` search.
    Hint,
    /// DPOR at one preemption under `SYNC_SHARED`, budget 2048,
    /// stop-at-first.
    Dpor,
    /// PCT at depth 3 under `SYNC`, keep-going, budget 16, seed 1.
    Pct,
    /// DPOR at the app's `verify_hint` on its survival-hardened program,
    /// under the fair retry model.
    Verify,
}

struct SearchGolden {
    app: &'static str,
    search: Search,
    schedules: usize,
    /// FNV-1a of the report's JSON with `wall_ms` and `phases` zeroed.
    report_hash: u64,
}

const SEARCH_GOLDEN: &[SearchGolden] = &[
    SearchGolden {
        app: "FFT",
        search: Search::Hint,
        schedules: 1,
        report_hash: 0xcf4f_f7cc_d3b3_fd8b,
    },
    SearchGolden {
        app: "FFT",
        search: Search::Dpor,
        schedules: 1,
        report_hash: 0xc3e0_d957_ab38_d587,
    },
    SearchGolden {
        app: "FFT",
        search: Search::Pct,
        schedules: 16,
        report_hash: 0xdafe_04db_1e2b_68d5,
    },
    SearchGolden {
        app: "HawkNL",
        search: Search::Hint,
        schedules: 17,
        report_hash: 0xf848_547f_9d55_df9a,
    },
    SearchGolden {
        app: "HawkNL",
        search: Search::Dpor,
        schedules: 9,
        report_hash: 0x5403_d636_cc30_74bd,
    },
    SearchGolden {
        app: "HawkNL",
        search: Search::Pct,
        schedules: 16,
        report_hash: 0x2562_96fe_2d5f_40c4,
    },
    SearchGolden {
        app: "HTTrack",
        search: Search::Hint,
        schedules: 1,
        report_hash: 0x5eb7_2c68_5fa2_0fc9,
    },
    SearchGolden {
        app: "HTTrack",
        search: Search::Dpor,
        schedules: 1,
        report_hash: 0xd383_9322_2f03_0438,
    },
    SearchGolden {
        app: "HTTrack",
        search: Search::Pct,
        schedules: 16,
        report_hash: 0xf6c7_96a5_c8a1_0312,
    },
    SearchGolden {
        app: "MozillaXP",
        search: Search::Hint,
        schedules: 1,
        report_hash: 0x97a2_105d_24f0_a33f,
    },
    SearchGolden {
        app: "MozillaXP",
        search: Search::Dpor,
        schedules: 1,
        report_hash: 0xb2b2_1dcc_b9e2_20ab,
    },
    SearchGolden {
        app: "MozillaXP",
        search: Search::Pct,
        schedules: 16,
        report_hash: 0xc7f1_ac78_c604_dbb0,
    },
    SearchGolden {
        app: "MozillaJS",
        search: Search::Hint,
        schedules: 40,
        report_hash: 0xf5e4_9cb0_a899_35d7,
    },
    SearchGolden {
        app: "MozillaJS",
        search: Search::Dpor,
        schedules: 9,
        report_hash: 0xd90f_1fb8_13ec_1858,
    },
    SearchGolden {
        app: "MozillaJS",
        search: Search::Pct,
        schedules: 16,
        report_hash: 0x7ea2_5a3c_8f1c_1654,
    },
    SearchGolden {
        app: "Transmission",
        search: Search::Hint,
        schedules: 1,
        report_hash: 0x6f93_fb40_e404_ba32,
    },
    SearchGolden {
        app: "Transmission",
        search: Search::Dpor,
        schedules: 1,
        report_hash: 0x1f1c_d368_88de_46bd,
    },
    SearchGolden {
        app: "Transmission",
        search: Search::Pct,
        schedules: 16,
        report_hash: 0x08e6_114a_8a8c_7df3,
    },
    SearchGolden {
        app: "SQLite",
        search: Search::Hint,
        schedules: 14,
        report_hash: 0xf0a7_9a68_08ed_6954,
    },
    SearchGolden {
        app: "SQLite",
        search: Search::Dpor,
        schedules: 8,
        report_hash: 0x9dd0_fc83_a906_8f4a,
    },
    SearchGolden {
        app: "SQLite",
        search: Search::Pct,
        schedules: 16,
        report_hash: 0x3c8a_5f7c_86ce_2cdc,
    },
    SearchGolden {
        app: "ZSNES",
        search: Search::Hint,
        schedules: 1,
        report_hash: 0xa455_818b_8b0c_7d88,
    },
    SearchGolden {
        app: "ZSNES",
        search: Search::Dpor,
        schedules: 1,
        report_hash: 0xef1b_4836_9da9_f57c,
    },
    SearchGolden {
        app: "ZSNES",
        search: Search::Pct,
        schedules: 16,
        report_hash: 0xefa2_aa09_ae59_821f,
    },
    SearchGolden {
        app: "FFT",
        search: Search::Verify,
        schedules: 248,
        report_hash: 0x5bfe_c5c8_85ab_f41d,
    },
    SearchGolden {
        app: "HawkNL",
        search: Search::Verify,
        schedules: 211,
        report_hash: 0xae82_d9fc_0a6a_4810,
    },
    SearchGolden {
        app: "SQLite",
        search: Search::Verify,
        schedules: 324,
        report_hash: 0x1bf9_dd9f_592c_5aac,
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

/// Replay budget no minimization may reach.
const UNBINDING_BUDGET: usize = 10_000;

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

    let (replayed, divergence) = run_replay(&w.program, &config, &min.trace);
    assert_eq!(divergence, None, "{name}: minimized replay diverged");
    assert_eq!(
        replayed.outcome, min.outcome,
        "{name}: minimized replay drifted"
    );
    assert!(
        (
            min.minimized_preemptions,
            min.minimized_deviations,
            min.minimized_len
        ) <= (
            min.original_preemptions,
            min.original_deviations,
            min.original_len
        ),
        "{name}: minimization ranks above its input"
    );
    let unbound = minimize(&w.program, &config, &found.trace, UNBINDING_BUDGET)
        .unwrap_or_else(|e| panic!("{name}: minimize failed: {e}"));
    assert!(
        unbound.candidates < UNBINDING_BUDGET,
        "{name}: minimization used its whole budget"
    );
    assert_eq!(
        unbound, min,
        "{name}: the hint budget cut minimization short"
    );
}

#[test]
fn minimize_matches_golden_fixtures() {
    for golden in GOLDEN {
        check(golden);
    }
}

fn run_search(app: &str, search: Search) -> ExploreReport {
    let w = workload_by_name(app).expect("registered workload");
    let search_config = |strategy, mask, budget| {
        let mut ec = ExploreConfig::new(strategy);
        ec.mask = mask;
        ec.budget = budget;
        ec
    };
    match search {
        Search::Hint => {
            let hint = explore_hint(app).expect("catalog workload has a hint");
            let mut ec = search_config(hint.strategy, hint.mask, hint.budget);
            ec.seed = hint.seed;
            explore(&w.program, &MachineConfig::default(), &ec)
        }
        Search::Dpor => {
            let ec = search_config(
                ExploreStrategy::Dpor { preemptions: 1 },
                PointMask::SYNC_SHARED,
                2048,
            );
            explore(&w.program, &MachineConfig::default(), &ec)
        }
        Search::Pct => {
            let mut ec = search_config(ExploreStrategy::Pct { depth: 3 }, PointMask::SYNC, 16);
            ec.seed = 1;
            ec.stop_at_first = false;
            explore(&w.program, &MachineConfig::default(), &ec)
        }
        Search::Verify => {
            let hint = verify_hint(app).expect("catalog workload has a verify hint");
            let hardened = Conair::survival().harden(&w.program);
            let config = MachineConfig {
                retry_backoff: true,
                max_retries: hint.max_retries,
                ..MachineConfig::default()
            };
            let ec = search_config(
                ExploreStrategy::Dpor {
                    preemptions: hint.preemptions,
                },
                PointMask::SYNC_SHARED,
                hint.budget,
            );
            explore(&hardened.program, &config, &ec)
        }
    }
}

/// The report's JSON hash with only the wall-clock fields zeroed.
fn search_hash(report: &ExploreReport) -> u64 {
    let pinned = ExploreReport {
        wall_ms: 0,
        phases: ExplorePhases::default(),
        ..report.clone()
    };
    fnv1a(
        serde_json::to_string(&pinned)
            .expect("report serializes")
            .as_bytes(),
    )
}

#[test]
fn searches_match_golden_fixtures() {
    for golden in SEARCH_GOLDEN {
        let r = run_search(golden.app, golden.search);
        assert_eq!(
            (r.schedules, search_hash(&r)),
            (golden.schedules, golden.report_hash),
            "{} {:?}: search drifted from its golden fixture",
            golden.app,
            golden.search
        );
    }
}
