//! Report-format checks: `normalized()` zeroes the DPOR counters while
//! keeping the verdict, and a live DPOR report round-trips through JSON
//! bit-identically, counters included.

use conair_runtime::{
    explore, DporCounters, ExploreConfig, ExploreReport, ExploreStrategy, MachineConfig, PointMask,
};
use conair_workloads::workload_by_name;

#[test]
fn normalized_zeroes_the_dpor_counters() {
    // A live DPOR report has non-zero race counters; `normalized()` must
    // zero them so normalized pre-DPOR and post-DPOR reports of the same
    // search stay comparable (the CI determinism diffs rely on this).
    let w = workload_by_name("HawkNL").expect("registered workload");
    let mut ec = ExploreConfig::new(ExploreStrategy::Dpor { preemptions: 1 });
    ec.mask = PointMask::SYNC_SHARED;
    ec.budget = 256;
    let config = MachineConfig {
        lock_timeout: 200,
        step_limit: 2_000_000,
        max_retries: 8,
        ..MachineConfig::default()
    };
    let report = explore(&w.program, &config, &ec);
    assert!(
        report.dpor.races_detected > 0,
        "DPOR ran without race analysis"
    );
    let norm = report.normalized();
    assert_eq!(norm.dpor, DporCounters::default());
    assert_eq!(norm.wall_ms, 0);
    // The verdict is kept — it is the point of the report.
    assert_eq!(norm.exhausted, report.exhausted);
    assert_eq!(norm.schedules, report.schedules);

    // And the modern report round-trips with its counters intact.
    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: ExploreReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}
