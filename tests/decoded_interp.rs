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
//! The `recover/` rows came later, from the decoded interpreter as it
//! stood before the eligibility cache was kept under schedule gates: all
//! ten catalog apps under [`MachineConfig::default()`], on the original
//! program and the hardened one, so the gate-aware cache and the
//! division-free random pick must reproduce the uncached schedules
//! exactly.
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
    ("recover/FFT/original/seed0", "completed", 0x63e25c7351ef5c96, Some(0xb7b0f0c4aa7e620f), 0x355c0e3cf158e3bd),
    ("recover/FFT/benign/seed0", "completed", 0x63e25c7351ef5c96, Some(0x50d1e7cf3cdf905f), 0x795a5ac3a055f022),
    ("recover/FFT/bug/seed0", "completed", 0x63e25c7351ef5c96, Some(0x130f00ed5135d67f), 0x1955834d78f06540),
    ("recover/FFT/original/seed1", "completed", 0x63e25c7351ef5c96, Some(0x82e9413cbdf1960f), 0x3e6bb53cf697e05e),
    ("recover/FFT/benign/seed1", "completed", 0x63e25c7351ef5c96, Some(0x874c25f42ab6845f), 0x70b7c3c39b73e091),
    ("recover/FFT/bug/seed1", "completed", 0x63e25c7351ef5c96, Some(0x5d284e0dc06c1a7f), 0x3187cc4febb53fc8),
    ("recover/FFT/original/seed2", "completed", 0x63e25c7351ef5c96, Some(0xe310a06cbd05eaef), 0x3563123cf15f0937),
    ("recover/FFT/benign/seed2", "completed", 0x63e25c7351ef5c96, Some(0xf73a48654531b33f), 0x796ed6c3a0676be0),
    ("recover/FFT/bug/seed2", "completed", 0x63e25c7351ef5c96, Some(0x16df3e79bea05d8f), 0x8cfbeffffaa1e859),
    ("recover/HawkNL/original/seed0", "completed", 0x950e95c95a20345f, Some(0x2232215d460a357f), 0x3479e455365b81b0),
    ("recover/HawkNL/benign/seed0", "completed", 0x950e95c95a20345f, Some(0xc3543c1722a27c6e), 0x7960398145b183b4),
    ("recover/HawkNL/bug/seed0", "completed", 0x950e95c95a20345f, Some(0x9eb152fc21df4b0e), 0x04c190c3bea0b809),
    ("recover/HawkNL/original/seed1", "completed", 0x950e95c95a20345f, Some(0x8268366ee3d8652f), 0x3479f255365b997a),
    ("recover/HawkNL/benign/seed1", "completed", 0x950e95c95a20345f, Some(0x7af6d2aeb2aa5bae), 0x7960398145b183b4),
    ("recover/HawkNL/bug/seed1", "completed", 0x950e95c95a20345f, Some(0x2fac8314c84dba2e), 0x8f733dbfdf536d50),
    ("recover/HawkNL/original/seed2", "completed", 0x950e95c95a20345f, Some(0xdebc987e6e1ca9ef), 0x3479e455365b81b0),
    ("recover/HawkNL/benign/seed2", "completed", 0x950e95c95a20345f, Some(0xc9e9088b63c36cae), 0x79602d8145b16f50),
    ("recover/HawkNL/bug/seed2", "completed", 0x950e95c95a20345f, Some(0xf7d5f422cd3fb2ee), 0xa00a06814e0ef463),
    ("recover/HTTrack/original/seed0", "completed", 0x0bfbef59e2573c01, Some(0x661450194255657f), 0xb2d84035183db5ab),
    ("recover/HTTrack/benign/seed0", "completed", 0x0bfbef59e2573c01, Some(0x7c586e1a97ab608f), 0x2f5bfbba5772c682),
    ("recover/HTTrack/bug/seed0", "completed", 0x0bfbef59e2573c01, Some(0x606a658f7544ef4f), 0x477ebab5b4aee7e5),
    ("recover/HTTrack/original/seed1", "completed", 0x0bfbef59e2573c01, Some(0xde6cfc02faae6a0f), 0xa08d5c350d9b359c),
    ("recover/HTTrack/benign/seed1", "completed", 0x0bfbef59e2573c01, Some(0x7b9ea685bc716c1f), 0x3fd8cfba608ccf29),
    ("recover/HTTrack/bug/seed1", "completed", 0x0bfbef59e2573c01, Some(0x64001aa23ef44cff), 0xd1ed43220853d066),
    ("recover/HTTrack/original/seed2", "completed", 0x0bfbef59e2573c01, Some(0xb91883033c1c960f), 0xa999053512d64ccc),
    ("recover/HTTrack/benign/seed2", "completed", 0x0bfbef59e2573c01, Some(0xffdf3409a8b8d81f), 0x36a3a6ba5b2dd965),
    ("recover/HTTrack/bug/seed2", "completed", 0x0bfbef59e2573c01, Some(0x302c465ecdb1e96f), 0xce36c40d67e6350c),
    ("recover/MozillaXP/original/seed0", "completed", 0x69ba3341f31eca12, Some(0xfd14e2e03a4bb0ef), 0x378a68bcb0b6a658),
    ("recover/MozillaXP/benign/seed0", "completed", 0x69ba3341f31eca12, Some(0x5164cff1152bfa5f), 0x786c26d264894763),
    ("recover/MozillaXP/bug/seed0", "completed", 0x69ba3341f31eca12, Some(0x0a9a868294e2c4df), 0x75d7c99f9e5c19ad),
    ("recover/MozillaXP/original/seed1", "completed", 0x69ba3341f31eca12, Some(0xf62cffd83da8bcdf), 0x2ebf3dbcabb24937),
    ("recover/MozillaXP/benign/seed1", "completed", 0x69ba3341f31eca12, Some(0xd9896df68f64ed4f), 0x818959d269d3bc44),
    ("recover/MozillaXP/bug/seed1", "completed", 0x69ba3341f31eca12, Some(0xd68ee9591535fc7f), 0x78da94f0e190726f),
    ("recover/MozillaXP/original/seed2", "completed", 0x69ba3341f31eca12, Some(0x506a201ae5aa5b8f), 0x3794debcb0bfc35f),
    ("recover/MozillaXP/benign/seed2", "completed", 0x69ba3341f31eca12, Some(0xc3930820fa10beff), 0x786238d264811174),
    ("recover/MozillaXP/bug/seed2", "completed", 0x69ba3341f31eca12, Some(0x982c396bd7ddbdef), 0xd32f778354f64006),
    ("recover/MozillaJS/original/seed0", "completed", 0x1d7b03f4dcba5937, Some(0xf07b2132c09f5d7f), 0x168f7ed39ac88938),
    ("recover/MozillaJS/benign/seed0", "completed", 0x1d7b03f4dcba5937, Some(0x5af4f5d39f0e226e), 0x4d367ded2711653b),
    ("recover/MozillaJS/bug/seed0", "completed", 0xb110437f9517d32f, Some(0x329e2b5a712dc45f), 0x804ec49ab168d837),
    ("recover/MozillaJS/original/seed1", "completed", 0x1d7b03f4dcba5937, Some(0xf3b08a580bb1a3bf), 0x168f80d39ac88c9e),
    ("recover/MozillaJS/benign/seed1", "completed", 0x1d7b03f4dcba5937, Some(0x31d16d841b738a3e), 0x4d367ded2711653b),
    ("recover/MozillaJS/bug/seed1", "completed", 0xb110437f9517d32f, Some(0x19a23c2b66b8dd2f), 0x48af5f5b27e0351c),
    ("recover/MozillaJS/original/seed2", "completed", 0x1d7b03f4dcba5937, Some(0x81b871f306b94d7f), 0x168f80d39ac88c9e),
    ("recover/MozillaJS/benign/seed2", "completed", 0x1d7b03f4dcba5937, Some(0x722f22ef1fb89b3e), 0x4d3679ed27115e6f),
    ("recover/MozillaJS/bug/seed2", "completed", 0xb110437f9517d32f, Some(0x2d6129b1090d8fef), 0x48af695b27e0461a),
    ("recover/MySQL1/original/seed0", "completed", 0x5a875503b9172dbf, Some(0x6672ed5fa60022ae), 0x499c296a2c610032),
    ("recover/MySQL1/benign/seed0", "completed", 0x5a875503b9172dbf, Some(0x126e88b6b7e5dfce), 0x3679e1dc3ec7cfbd),
    ("recover/MySQL1/bug/seed0", "completed", 0x682a39ce04c69c6f, Some(0xfb016403856f9d9f), 0x6e62f995fecc9be2),
    ("recover/MySQL1/original/seed1", "completed", 0x5a875503b9172dbf, Some(0x258c57cd91052b5e), 0x7575f06968eabe1b),
    ("recover/MySQL1/benign/seed1", "completed", 0x5a875503b9172dbf, Some(0x8ca25542754e047e), 0x58cf473ead6ecb62),
    ("recover/MySQL1/bug/seed1", "completed", 0x682a39ce04c69c6f, Some(0xae02c7f8a557ee4f), 0x1842eda8219ea765),
    ("recover/MySQL1/original/seed2", "completed", 0x5a875503b9172dbf, Some(0x9657f3421faa253e), 0x7575f06968eabe1b),
    ("recover/MySQL1/benign/seed2", "completed", 0x5a875503b9172dbf, Some(0xaa560f6dbdc1d65e), 0x58cf473ead6ecb62),
    ("recover/MySQL1/bug/seed2", "completed", 0x682a39ce04c69c6f, Some(0xcb1ff3718bb9d39f), 0x6e62f795fecc987c),
    ("recover/MySQL2/original/seed0", "completed", 0x1d92edd573cbe011, Some(0xa94b9d7bdb7e2a9f), 0xfee7abb6f8c3bfa3),
    ("recover/MySQL2/benign/seed0", "completed", 0x1d92edd573cbe011, Some(0x7621a1db28db51bf), 0x0ef4f93380804035),
    ("recover/MySQL2/bug/seed0", "completed", 0xfa5485d15fb71e05, Some(0xd0353efb7a6a8a6f), 0x69e7c0d95ffb2366),
    ("recover/MySQL2/original/seed1", "completed", 0x1d92edd573cbe011, Some(0x654f07f8ac5c87ff), 0xe775f1e8b4aa11ba),
    ("recover/MySQL2/benign/seed1", "completed", 0x1d92edd573cbe011, Some(0x73432aed2c62d5ff), 0x0ef4f93380804035),
    ("recover/MySQL2/bug/seed1", "completed", 0xfa5485d15fb71e05, Some(0xe7b07e0b0f5bd1af), 0xf00e7d5e17d6d133),
    ("recover/MySQL2/original/seed2", "completed", 0x1d92edd573cbe011, Some(0x14fb19f3da9cca9f), 0xfee7adb6f8c3c309),
    ("recover/MySQL2/benign/seed2", "completed", 0x1d92edd573cbe011, Some(0x6cf19eb433dd3ebf), 0x0ef4f73380803ccf),
    ("recover/MySQL2/bug/seed2", "completed", 0xfa5485d15fb71e05, Some(0xa5fb9ff43ab40f2f), 0xaf64d528347492eb),
    ("recover/Transmission/original/seed0", "completed", 0xb28e246ae8d82459, Some(0xcd22881b294fcd5f), 0xe17376c164b5fc12),
    ("recover/Transmission/benign/seed0", "completed", 0xb28e246ae8d82459, Some(0x003a377b21ff6f5f), 0xb6f56fb57a750c8b),
    ("recover/Transmission/bug/seed0", "completed", 0xb28e246ae8d82459, Some(0x017905de22556e8f), 0x18efe46c4cf254ef),
    ("recover/Transmission/original/seed1", "completed", 0xb28e246ae8d82459, Some(0x3239ffe8aed5869f), 0xd86753c15f7a1594),
    ("recover/Transmission/benign/seed1", "completed", 0xb28e246ae8d82459, Some(0xedd4af72b51aa89f), 0xc00192b57fb0f309),
    ("recover/Transmission/bug/seed1", "completed", 0xb28e246ae8d82459, Some(0x7da9a12eb2abe51f), 0xf4fff46ee52da4c3),
    ("recover/Transmission/original/seed2", "completed", 0xb28e246ae8d82459, Some(0xf4fb30b41bbfb12f), 0xd86acfc15f7d1e1f),
    ("recover/Transmission/benign/seed2", "completed", 0xb28e246ae8d82459, Some(0x1d404829e1d9b32f), 0xbffe16b57fadea7e),
    ("recover/Transmission/bug/seed2", "completed", 0xb28e246ae8d82459, Some(0xb32723782dfc8b1f), 0x6f5176276b4e9909),
    ("recover/SQLite/original/seed0", "completed", 0xe6626b18569acf11, Some(0x98093a16f36b5cdf), 0x067de9349db3a7fa),
    ("recover/SQLite/benign/seed0", "completed", 0xe6626b18569acf11, Some(0x8426042d62061efe), 0x12128a60a5de6a19),
    ("recover/SQLite/bug/seed0", "completed", 0xe6626b18569acf11, Some(0xa098e9743c770dff), 0x2e07857a08e40f19),
    ("recover/SQLite/original/seed1", "completed", 0xe6626b18569acf11, Some(0xc105e1e0c893371f), 0x067de7349db3a494),
    ("recover/SQLite/benign/seed1", "completed", 0xe6626b18569acf11, Some(0x5ee2f2a14e6d8d3e), 0x12129460a5de7b17),
    ("recover/SQLite/bug/seed1", "completed", 0xe6626b18569acf11, Some(0x7d82de3ffe0345cf), 0x70abb78e78f9b5be),
    ("recover/SQLite/original/seed2", "completed", 0xe6626b18569acf11, Some(0x3cd5717fe647ebdf), 0x067de9349db3a7fa),
    ("recover/SQLite/benign/seed2", "completed", 0xe6626b18569acf11, Some(0xc50d2db0f0ef9e3e), 0x12128860a5de66b3),
    ("recover/SQLite/bug/seed2", "completed", 0xe6626b18569acf11, Some(0xb8a305578558a3af), 0x32ee120c4c5e5af9),
    ("recover/ZSNES/original/seed0", "completed", 0x6850b7ddf8d5a191, Some(0x6dfbcffb4cd8bf7e), 0x8d51ce2676db8393),
    ("recover/ZSNES/benign/seed0", "completed", 0x6850b7ddf8d5a191, Some(0xa02ea2e0763e22de), 0xafc33837353e0279),
    ("recover/ZSNES/bug/seed0", "completed", 0x6850b7ddf8d5a191, Some(0xe3ea24054e54181e), 0x872bfb73bad970cb),
    ("recover/ZSNES/original/seed1", "completed", 0x6850b7ddf8d5a191, Some(0x404c224eb2873d2e), 0xfd9c785bf7147758),
    ("recover/ZSNES/benign/seed1", "completed", 0x6850b7ddf8d5a191, Some(0xf3be6a284705c78e), 0xe6d2d8cf787284ea),
    ("recover/ZSNES/bug/seed1", "completed", 0x6850b7ddf8d5a191, Some(0x95f75c7baed8ca3e), 0x6523173f5354799e),
    ("recover/ZSNES/original/seed2", "completed", 0x6850b7ddf8d5a191, Some(0x98c5c4c0b8d9a97e), 0x8d51dc2676db9b5d),
    ("recover/ZSNES/benign/seed2", "completed", 0x6850b7ddf8d5a191, Some(0x712e3f6a248c2cde), 0xafc34237353e1377),
    ("recover/ZSNES/bug/seed2", "completed", 0x6850b7ddf8d5a191, Some(0x2aa45303ec17bb8e), 0x872bfd73bad97431),
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
) -> (RunResult, conair_runtime::Consults) {
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

/// The `recover` configuration — [`MachineConfig::default()`], the one
/// `conair run` and perfbench's `recover` workload use — with decision
/// recording added to pin the interleaving: seeds 0..3 of the original
/// program under the benign script, and of the hardened program under the
/// benign and the bug script. A twin run without recording must give the
/// same row bar the decision hash, on every seed: recording keeps one
/// consult per step, while the plain run takes the machine's lone spans.
fn recover_rows(name: &str) -> Vec<Row> {
    let w = workload_by_name(name).expect("registered workload");
    let hardened = conair::Conair::survival().harden(&w.program);
    let recorded = MachineConfig {
        record_decisions: true,
        ..MachineConfig::default()
    };
    let runs = [
        (&w.program, &w.benign_script, "original"),
        (&hardened.program, &w.benign_script, "benign"),
        (&hardened.program, &w.bug_script, "bug"),
    ];
    let mut rows = Vec::new();
    for seed in 0..3u64 {
        for (program, script, label) in runs {
            let case = format!("recover/{name}/{label}/seed{seed}");
            let r = row(case, &run_scripted(program, &recorded, script, seed));
            let plain = run_scripted(program, &MachineConfig::default(), script, seed);
            let plain = row(r.0.clone(), &plain);
            assert_eq!((&plain.1, plain.2, plain.4), (&r.1, r.2, r.4), "{}", r.0);
            rows.push(r);
        }
    }
    rows
}

macro_rules! recover_test {
    ($test:ident, $name:literal) => {
        #[test]
        fn $test() {
            check(concat!("recover/", $name, "/"), &recover_rows($name));
        }
    };
}

recover_test!(fft_recover_config_matches_golden, "FFT");
recover_test!(hawknl_recover_config_matches_golden, "HawkNL");
recover_test!(httrack_recover_config_matches_golden, "HTTrack");
recover_test!(mozilla_xp_recover_config_matches_golden, "MozillaXP");
recover_test!(mozilla_js_recover_config_matches_golden, "MozillaJS");
recover_test!(mysql1_recover_config_matches_golden, "MySQL1");
recover_test!(mysql2_recover_config_matches_golden, "MySQL2");
recover_test!(transmission_recover_config_matches_golden, "Transmission");
recover_test!(sqlite_recover_config_matches_golden, "SQLite");
recover_test!(zsnes_recover_config_matches_golden, "ZSNES");

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
