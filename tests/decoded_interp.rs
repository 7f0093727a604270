//! Golden fixtures for the pre-decoded interpreter: executing a schedule
//! on the decoded instruction stream (fused superinstructions and span
//! execution included) must reproduce the recorded run exactly — same
//! [`RunOutcome`], same outputs, same decision trace hash, same
//! statistics and metric histograms.
//!
//! Every row was recorded from the legacy per-step `&Inst` walk — the
//! interpreter the decoded stream replaced, since deleted — in the same
//! run that asserted the decoded stream byte-identical to it. The rows
//! are that walk's outputs, so each test below still checks the decoded
//! interpreter against the oracle walk, on exactly the inputs the
//! differential ran:
//!
//! * per workload and decision mask, the default (non-preemptive)
//!   schedule and up to four single-preemption children — the shapes
//!   `explore` executes. Narrow masks exercise the tight span path and
//!   the fused superinstructions; preempted children cross fused pairs at
//!   arbitrary boundaries;
//! * per workload, scripted (gate-forced) seeded-random runs of the
//!   hardened program — the consult-every-step ALL mask, the
//!   schedule-gate hold path, and (on the bug script) checkpoint rollback
//!   recovery;
//! * one-function programs that run into the heap and call-depth caps;
//! * the rollback-dense stress program on seeds 0..32 — the checkpoint
//!   undo-log exercised end-to-end.
//!
//! A row's `stats` is an FNV-1a hash of [`canonical_stats`]: the wall
//! clocks are left out and the per-site maps sorted, since `{:?}` on a
//! `HashMap` is not stable across processes.

use conair_runtime::{
    run_once, run_scripted, FrontierScheduler, Machine, MachineConfig, PointMask, Program,
    RunOutcome, RunResult, RunStats,
};
use conair_workloads::{rollback_dense_program, workload_by_name};

/// One recorded run: case label (input set, app, mask or script, seed),
/// outcome signature, FNV-1a of the outputs, decision trace hash (`None`
/// when decisions were not recorded) and FNV-1a of the canonical stats.
type Golden = (&'static str, &'static str, u64, Option<u64>, u64);

/// A row computed by this run, in the [`Golden`] layout.
type Row = (String, String, u64, Option<u64>, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("FFT/sync/default", "failed:WrongOutput:None:t0@14057: output oracle violated: End must be set before reporting", 0x13115ecb14dd03c3, Some(0x78a883a360d16049), 0x75ad1b514eb4c31e),
    ("FFT/sync/preempt@1:t1", "completed", 0x63e25c7351ef5c96, Some(0xc428499f3cca1e79), 0xf3e64ba78788dd2d),
    ("FFT/sync/preempt@2:t1", "failed:WrongOutput:None:t0@15330: output oracle violated: End must be set before reporting", 0x13115ecb14dd03c3, Some(0x5468ef6839b3f969), 0xd7487a8dee98639c),
    ("FFT/sync/preempt@3:t1", "failed:WrongOutput:None:t0@15330: output oracle violated: End must be set before reporting", 0x13115ecb14dd03c3, Some(0x89270c38222bfb69), 0xd7487a8dee98639c),
    ("FFT/shared/default", "failed:WrongOutput:None:t0@14057: output oracle violated: End must be set before reporting", 0x13115ecb14dd03c3, Some(0xf57be0963a98c2a1), 0x75ad1b514eb4c31e),
    ("FFT/shared/preempt@1:t1", "completed", 0x63e25c7351ef5c96, Some(0x89ef3edf29486d01), 0xf3e64ba78788dd2d),
    ("FFT/shared/preempt@2:t1", "completed", 0x63e25c7351ef5c96, Some(0x83367eb70b79a001), 0xf3e64ba78788dd2d),
    ("FFT/shared/preempt@3:t1", "completed", 0x63e25c7351ef5c96, Some(0x5e2ea707e87d2301), 0xf3e64ba78788dd2d),
    ("FFT/shared/preempt@4:t1", "completed", 0x63e25c7351ef5c96, Some(0xc6471b38fd95f601), 0xf3e64ba78788dd2d),
    ("FFT/benign/seed0", "completed", 0x63e25c7351ef5c96, Some(0x50d1e7cf3cdf905f), 0x795a5ac3a055f022),
    ("FFT/bug/seed0", "completed", 0x63e25c7351ef5c96, Some(0x130f00ed5135d67f), 0x1955834d78f06540),
    ("FFT/benign/seed1", "completed", 0x63e25c7351ef5c96, Some(0x874c25f42ab6845f), 0x70b7c3c39b73e091),
    ("FFT/bug/seed1", "completed", 0x63e25c7351ef5c96, Some(0x5d284e0dc06c1a7f), 0x3187cc4febb53fc8),
    ("FFT/benign/seed2", "completed", 0x63e25c7351ef5c96, Some(0xf73a48654531b33f), 0x796ed6c3a0676be0),
    ("FFT/bug/seed2", "completed", 0x63e25c7351ef5c96, Some(0x16df3e79bea05d8f), 0x8cfbeffffaa1e859),
    ("SQLite/sync/default", "completed", 0xe6626b18569acf11, Some(0x9e19cdcc3f874ba9), 0x067de5349db3a12e),
    ("SQLite/sync/preempt@1:t1", "completed", 0x66322f45c11814cf, Some(0x022a8338f213efa9), 0x067de4349db39f7b),
    ("SQLite/sync/preempt@2:t1", "completed", 0x66322f45c11814cf, Some(0x1e8407605fd004a9), 0x067de4349db39f7b),
    ("SQLite/sync/preempt@3:t1", "completed", 0x66322f45c11814cf, Some(0x9b5446d64ba949a9), 0x067de4349db39f7b),
    ("SQLite/sync/preempt@4:t1", "completed", 0x66322f45c11814cf, Some(0xa44ff5a55f24bea9), 0x067de4349db39f7b),
    ("SQLite/shared/default", "completed", 0xe6626b18569acf11, Some(0x90005c456e584ef1), 0x067de5349db3a12e),
    ("SQLite/shared/preempt@1:t1", "completed", 0x0195a78d41cc2f91, Some(0x24e71dc50780bbf1), 0x067de4349db39f7b),
    ("SQLite/shared/preempt@2:t1", "completed", 0x0195a78d41cc2f91, Some(0xb93419eb2301c2f1), 0x067de4349db39f7b),
    ("SQLite/shared/preempt@3:t1", "completed", 0x0195a78d41cc2f91, Some(0xf33339b7f991d9f1), 0x067de4349db39f7b),
    ("SQLite/shared/preempt@4:t1", "completed", 0x0195a78d41cc2f91, Some(0xfd00ad0ff60800f1), 0x067de4349db39f7b),
    ("SQLite/benign/seed0", "completed", 0xe6626b18569acf11, Some(0x8426042d62061efe), 0x12128a60a5de6a19),
    ("SQLite/bug/seed0", "completed", 0xe6626b18569acf11, Some(0xa098e9743c770dff), 0x175a7ebb4c498a00),
    ("SQLite/benign/seed1", "completed", 0xe6626b18569acf11, Some(0x5ee2f2a14e6d8d3e), 0x12129460a5de7b17),
    ("SQLite/bug/seed1", "completed", 0xe6626b18569acf11, Some(0x7d82de3ffe0345cf), 0x6ab9a44eaf951693),
    ("SQLite/benign/seed2", "completed", 0xe6626b18569acf11, Some(0xc50d2db0f0ef9e3e), 0x12128860a5de66b3),
    ("SQLite/bug/seed2", "completed", 0xe6626b18569acf11, Some(0xb8a305578558a3af), 0x2ac881de6a572c6a),
    ("HawkNL/sync/default", "completed", 0x950e95c95a20345f, Some(0x6b3c6df2f58e26d9), 0x3479ea55365b8be2),
    ("HawkNL/sync/preempt@1:t1", "completed", 0x338c0bbffc3c05f3, Some(0x5f5b42400033abd9), 0x3479e955365b8a2f),
    ("HawkNL/sync/preempt@2:t1", "completed", 0x338c0bbffc3c05f3, Some(0x15c2ce3ee9d630d9), 0x3479e955365b8a2f),
    ("HawkNL/sync/preempt@3:t1", "completed", 0x338c0bbffc3c05f3, Some(0x1a88c5760826e5d9), 0x3479e955365b8a2f),
    ("HawkNL/sync/preempt@4:t1", "completed", 0x338c0bbffc3c05f3, Some(0xcf4d235fa81acad9), 0x3479e955365b8a2f),
    ("HawkNL/shared/default", "completed", 0x950e95c95a20345f, Some(0x769ac38940694e61), 0x3479ea55365b8be2),
    ("HawkNL/shared/preempt@1:t1", "completed", 0x338c0bbffc3c05f3, Some(0x1f7b053e10c15261), 0x3479e955365b8a2f),
    ("HawkNL/shared/preempt@2:t1", "completed", 0x338c0bbffc3c05f3, Some(0xcb77172d55f06961), 0x3479e955365b8a2f),
    ("HawkNL/shared/preempt@3:t1", "completed", 0x338c0bbffc3c05f3, Some(0x403ff22522959061), 0x3479e955365b8a2f),
    ("HawkNL/shared/preempt@4:t1", "completed", 0x338c0bbffc3c05f3, Some(0x215340436a97c761), 0x3479e955365b8a2f),
    ("HawkNL/benign/seed0", "completed", 0x950e95c95a20345f, Some(0xc3543c1722a27c6e), 0x7960398145b183b4),
    ("HawkNL/bug/seed0", "completed", 0x950e95c95a20345f, Some(0x9eb152fc21df4b0e), 0x079dcdae2e294eed),
    ("HawkNL/benign/seed1", "completed", 0x950e95c95a20345f, Some(0x7af6d2aeb2aa5bae), 0x7960398145b183b4),
    ("HawkNL/bug/seed1", "completed", 0x950e95c95a20345f, Some(0x2fac8314c84dba2e), 0x4e9c8ada03c1afed),
    ("HawkNL/benign/seed2", "completed", 0x950e95c95a20345f, Some(0xc9e9088b63c36cae), 0x79602d8145b16f50),
    ("HawkNL/bug/seed2", "completed", 0x950e95c95a20345f, Some(0xf7d5f422cd3fb2ee), 0xae7c7e6cd1620e3b),
    ("MozillaJS/sync/default", "completed", 0x1d7b03f4dcba5937, Some(0xea8c01ecf37564b9), 0x168f82d39ac89004),
    ("MozillaJS/sync/preempt@1:t1", "completed", 0x69b937dabdda0daf, Some(0xf095dc6dd4f953b9), 0x168f85d39ac8951d),
    ("MozillaJS/sync/preempt@2:t1", "completed", 0x69b937dabdda0daf, Some(0x8338ecd5b09238b9), 0x168f85d39ac8951d),
    ("MozillaJS/sync/preempt@3:t1", "completed", 0x69b937dabdda0daf, Some(0x2623584786234db9), 0x168f85d39ac8951d),
    ("MozillaJS/sync/preempt@4:t1", "completed", 0x69b937dabdda0daf, Some(0xeb0ad3601b0192b9), 0x168f85d39ac8951d),
    ("MozillaJS/shared/default", "completed", 0x1d7b03f4dcba5937, Some(0xb7d29d0d343ac8d1), 0x168f82d39ac89004),
    ("MozillaJS/shared/preempt@1:t1", "completed", 0x582d4afb54d8f9b7, Some(0x5cbc9f03121c13d1), 0x168f85d39ac8951d),
    ("MozillaJS/shared/preempt@2:t1", "completed", 0x582d4afb54d8f9b7, Some(0x8b9f8ec676f63ad1), 0x168f85d39ac8951d),
    ("MozillaJS/shared/preempt@3:t1", "completed", 0x582d4afb54d8f9b7, Some(0xbe0cc25f425d71d1), 0x168f85d39ac8951d),
    ("MozillaJS/shared/preempt@4:t1", "completed", 0x582d4afb54d8f9b7, Some(0x8296de8fde48b8d1), 0x168f85d39ac8951d),
    ("MozillaJS/benign/seed0", "completed", 0x1d7b03f4dcba5937, Some(0x5af4f5d39f0e226e), 0x4d367ded2711653b),
    ("MozillaJS/bug/seed0", "completed", 0xb110437f9517d32f, Some(0x329e2b5a712dc45f), 0x8b995d237462c195),
    ("MozillaJS/benign/seed1", "completed", 0x1d7b03f4dcba5937, Some(0x31d16d841b738a3e), 0x4d367ded2711653b),
    ("MozillaJS/bug/seed1", "completed", 0xb110437f9517d32f, Some(0x19a23c2b66b8dd2f), 0xbf7d75d4934e8df6),
    ("MozillaJS/benign/seed2", "completed", 0x1d7b03f4dcba5937, Some(0x722f22ef1fb89b3e), 0x4d3679ed27115e6f),
    ("MozillaJS/bug/seed2", "completed", 0xb110437f9517d32f, Some(0x2d6129b1090d8fef), 0xbf7d7bd4934e9828),
    ("Transmission/sync/default", "failed:AssertionViolation:None:t0@179692: assertion failed: bandwidth allocator must be initialized", 0xad23901c9211d0f0, Some(0x59f459991df62439), 0xfd277216958acc8a),
    ("Transmission/sync/preempt@1:t1", "completed", 0xb28e246ae8d82459, Some(0x2f566d690242d769), 0x92e3f163c460558c),
    ("Transmission/sync/preempt@2:t1", "failed:AssertionViolation:None:t0@190205: assertion failed: bandwidth allocator must be initialized", 0xad23901c9211d0f0, Some(0xf4956b677d903b59), 0x214733574da1fb3a),
    ("Transmission/shared/default", "failed:AssertionViolation:None:t0@179692: assertion failed: bandwidth allocator must be initialized", 0xad23901c9211d0f0, Some(0xcd069fcbd272afb1), 0xfd277216958acc8a),
    ("Transmission/shared/preempt@1:t1", "completed", 0xb28e246ae8d82459, Some(0x1ef6c3eba5b3eb81), 0x92e3f163c460558c),
    ("Transmission/shared/preempt@2:t1", "completed", 0xb28e246ae8d82459, Some(0x439f42043b189e81), 0x92e3f163c460558c),
    ("Transmission/shared/preempt@3:t1", "completed", 0xb28e246ae8d82459, Some(0xfceef3503fd7a181), 0x92e3f163c460558c),
    ("Transmission/shared/preempt@4:t1", "completed", 0xb28e246ae8d82459, Some(0x433649480cb3f481), 0x92e3f163c460558c),
    ("Transmission/benign/seed0", "completed", 0xb28e246ae8d82459, Some(0x003a377b21ff6f5f), 0xb6f56fb57a750c8b),
    ("Transmission/bug/seed0", "completed", 0xb28e246ae8d82459, Some(0x017905de22556e8f), 0x18efe46c4cf254ef),
    ("Transmission/benign/seed1", "completed", 0xb28e246ae8d82459, Some(0xedd4af72b51aa89f), 0xc00192b57fb0f309),
    ("Transmission/bug/seed1", "completed", 0xb28e246ae8d82459, Some(0x7da9a12eb2abe51f), 0xf4fff46ee52da4c3),
    ("Transmission/benign/seed2", "completed", 0xb28e246ae8d82459, Some(0x1d404829e1d9b32f), 0xbffe16b57fadea7e),
    ("Transmission/bug/seed2", "completed", 0xb28e246ae8d82459, Some(0xb32723782dfc8b1f), 0x6f5176276b4e9909),
    ("caps/huge-alloc/sync", "failed:SegFault:None:t0@1: heap exhausted: alloc of 99999999999999 words past the 16777216-word cap", 0x09612b07b5ecb5a5, Some(0x2c29217ba9710719), 0xa6d2c5ad98e9e4a2),
    ("caps/huge-alloc/all", "failed:SegFault:None:t0@1: heap exhausted: alloc of 99999999999999 words past the 16777216-word cap", 0x09612b07b5ecb5a5, Some(0x84f157a5169cefce), 0xa6d2c5ad98e9e4a2),
    ("caps/alloc-loop/sync", "failed:SegFault:None:t0@34: heap exhausted: alloc of 1000000 words past the 16777216-word cap", 0x09612b07b5ecb5a5, Some(0x2c29217ba9710719), 0x6f918d5e64e996a0),
    ("caps/alloc-loop/all", "failed:SegFault:None:t0@34: heap exhausted: alloc of 1000000 words past the 16777216-word cap", 0x09612b07b5ecb5a5, Some(0x8e35956800df77ae), 0x6f918d5e64e996a0),
    ("caps/recursion/sync", "failed:SegFault:None:t0@65536: call stack overflow", 0x09612b07b5ecb5a5, Some(0x2c29217ba9710719), 0xdfaa1df1bde7c20a),
    ("caps/recursion/all", "failed:SegFault:None:t0@65536: call stack overflow", 0x09612b07b5ecb5a5, Some(0x9057e87bdce211ee), 0xdfaa1df1bde7c20a),
    ("rollback-dense/seed0", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed1", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed2", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed3", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed4", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed5", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed6", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed7", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed8", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed9", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed10", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed11", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed12", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed13", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed14", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed15", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed16", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed17", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed18", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed19", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed20", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed21", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed22", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed23", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed24", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed25", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed26", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed27", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed28", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed29", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed30", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
    ("rollback-dense/seed31", "completed", 0x09612b07b5ecb5a5, None, 0x66342e3426d170ed),
];

/// The exploration bounds of `tests/exploration.rs`: hang-prone schedules
/// must terminate promptly.
fn config() -> MachineConfig {
    MachineConfig {
        lock_timeout: 200,
        step_limit: 2_000_000,
        record_decisions: true,
        ..MachineConfig::default()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every field of `stats` but the two wall clocks, with the per-site maps
/// sorted by site. The exhaustive destructuring makes a new field a
/// compile error here rather than a silent gap in the fixtures.
fn canonical_stats(stats: &RunStats) -> String {
    let RunStats {
        steps,
        insts,
        checkpoints,
        rollbacks,
        aux_work,
        site_recovery,
        site_checks,
        wall: _,
        snapshot_wall: _,
        wait_edges,
        rollback_latency,
        lock_waits,
        undo_depth,
        checkpoint_reexecutions,
        compensation_frees,
        compensation_unlocks,
        context_switches,
    } = stats;
    let mut recovery: Vec<_> = site_recovery.iter().collect();
    recovery.sort_by_key(|(site, _)| **site);
    let mut checks: Vec<_> = site_checks.iter().collect();
    checks.sort_by_key(|(site, _)| **site);
    format!(
        "steps={steps} insts={insts} checkpoints={checkpoints} rollbacks={rollbacks} \
         aux_work={aux_work} site_recovery={recovery:?} site_checks={checks:?} \
         wait_edges={wait_edges:?} rollback_latency={rollback_latency:?} \
         lock_waits={lock_waits:?} undo_depth={undo_depth:?} \
         checkpoint_reexecutions={checkpoint_reexecutions} \
         compensation_frees={compensation_frees} compensation_unlocks={compensation_unlocks} \
         context_switches={context_switches}"
    )
}

/// The outcome class, and for a failure its kind, site, thread, step and
/// message.
fn outcome_signature(outcome: &RunOutcome) -> String {
    match outcome {
        RunOutcome::Failed(f) => format!(
            "failed:{:?}:{:?}:t{}@{}: {}",
            f.kind,
            f.site,
            f.thread.index(),
            f.step,
            f.msg
        ),
        RunOutcome::Hang { blocked_on_locks } => format!("hang:{blocked_on_locks}"),
        other => other.label().to_string(),
    }
}

/// A run's row under `case`.
fn row(case: String, r: &RunResult) -> Row {
    (
        case,
        outcome_signature(&r.outcome),
        fnv1a(format!("{:?}", r.outputs).as_bytes()),
        r.decisions.as_ref().map(|t| t.hash()),
        fnv1a(canonical_stats(&r.stats).as_bytes()),
    )
}

/// Checks the rows one input set produced against the golden rows whose
/// case label starts with `group`, listing every case and field that
/// drifted (and every case run or recorded on one side only).
fn check(group: &str, rows: &[Row]) {
    let golden: Vec<&Golden> = GOLDEN.iter().filter(|g| g.0.starts_with(group)).collect();
    let mut drift = Vec::new();
    for (case, outcome, outputs, decisions, stats) in rows {
        let Some(g) = golden.iter().find(|g| g.0 == case) else {
            drift.push(format!("{case}: no golden row"));
            continue;
        };
        let fields = [
            ("outcome", format!("{outcome:?}"), format!("{:?}", g.1)),
            (
                "outputs hash",
                format!("{outputs:#x}"),
                format!("{:#x}", g.2),
            ),
            (
                "decision trace hash",
                format!("{decisions:x?}"),
                format!("{:x?}", g.3),
            ),
            ("stats hash", format!("{stats:#x}"), format!("{:#x}", g.4)),
        ];
        for (field, got, want) in fields {
            if got != want {
                drift.push(format!("{case}: {field} {got}, golden {want}"));
            }
        }
    }
    for g in &golden {
        if !rows.iter().any(|r| r.0 == g.0) {
            drift.push(format!("{}: golden row not run", g.0));
        }
    }
    assert!(
        drift.is_empty(),
        "{group} drifted from its golden rows:\n{}",
        drift.join("\n")
    );
}

/// Runs one forced schedule, returning the run and its scheduler consults.
fn run_forced(
    program: &Program,
    prefix: Vec<u32>,
    mask: PointMask,
) -> (RunResult, Vec<conair_runtime::Consult>) {
    let mut sched = FrontierScheduler::new(prefix, mask);
    let r = Machine::new(program, config()).run(&mut sched);
    (r, sched.into_consults())
}

/// One workload under one decision mask: the default schedule, then a
/// preemption at each of the first four branch points after decision 0.
fn masked_rows(name: &str, mask: PointMask) -> Vec<Row> {
    let w = workload_by_name(name).expect("registered workload");
    let (default, consults) = run_forced(&w.program, Vec::new(), mask);
    let trace = default.decisions.clone().expect("recorded");
    let mut rows = vec![row(format!("{name}/{}/default", mask.name()), &default)];
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
        let (r, _) = run_forced(&w.program, prefix, mask);
        let case = format!("{name}/{}/preempt@{i}:t{}", mask.name(), alt.index());
        rows.push(row(case, &r));
        if rows.len() > 4 {
            break;
        }
    }
    assert!(rows.len() > 1, "{name}: found branch points to preempt at");
    rows
}

/// Seeds 0..3 of the hardened workload under its benign and bug scripts.
fn scripted_rows(name: &str) -> Vec<Row> {
    let w = workload_by_name(name).expect("registered workload");
    let hardened = conair::Conair::survival().harden(&w.program);
    let mut rows = Vec::new();
    for seed in 0..3u64 {
        for (script, label) in [(&w.benign_script, "benign"), (&w.bug_script, "bug")] {
            let r = run_scripted(&hardened.program, &config(), script, seed);
            rows.push(row(format!("{name}/{label}/seed{seed}"), &r));
        }
    }
    rows
}

macro_rules! decoded_test {
    ($test:ident, $name:literal) => {
        #[test]
        fn $test() {
            let mut rows = masked_rows($name, PointMask::SYNC);
            rows.extend(masked_rows($name, PointMask::SYNC_SHARED));
            rows.extend(scripted_rows($name));
            check(concat!($name, "/"), &rows);
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
/// unbounded recursion — with their case labels.
const CAP_BODIES: [(&str, &str); 3] = [
    ("huge-alloc", "bb0:\n%r0 = alloc 99999999999999\nret"),
    (
        "alloc-loop",
        "bb0:\njump bb1\nbb1:\n%r0 = alloc 1000000\njump bb1",
    ),
    ("recursion", "bb0:\n%r0 = call @f0()\nret"),
];

/// Past either cap, the run ends with a segfault naming the cause — on
/// the tight span path (narrow mask) and the per-step one.
#[test]
fn resource_caps_decoded_matches_oracle() {
    let mut rows = Vec::new();
    for (label, body) in CAP_BODIES {
        let src = format!("module m {{\nfn a(params=0, regs=1, locals=0) {{\n{body}\n}}\n}}");
        let module = conair_ir::parse_module(&src).expect("parses");
        let program = Program::from_entry_names(module, &["a"]);
        for mask in [PointMask::SYNC, PointMask::ALL] {
            let (r, _) = run_forced(&program, Vec::new(), mask);
            rows.push(row(format!("caps/{label}/{}", mask.name()), &r));
        }
    }
    check("caps/", &rows);
}

/// The rollback-dense stress program — guard failures forcing a
/// checkpoint restore and re-execution every few steps — on seeds 0..32.
#[test]
fn rollback_dense_decoded_matches_oracle() {
    let program = rollback_dense_program(80, 200, 4);
    let mut rows = Vec::new();
    for seed in 0..32u64 {
        let r = run_once(&program, &MachineConfig::default(), seed);
        assert_eq!(
            r.stats.rollbacks,
            200 * 3,
            "seed {seed}: rollbacks happened"
        );
        rows.push(row(format!("rollback-dense/seed{seed}"), &r));
    }
    check("rollback-dense/", &rows);
}
