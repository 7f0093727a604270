//! Shape assertions over the evaluation experiments — the claims
//! EXPERIMENTS.md records, checked mechanically at reduced trial counts.

use conair_bench::{experiments, BenchConfig};
use conair_workloads::WORKLOAD_NAMES;

fn tiny() -> BenchConfig {
    BenchConfig {
        trials: 3,
        overhead_trials: 2,
        seed0: 1,
        ..BenchConfig::default()
    }
}

/// Table 3's `(app, fix_overhead, survival_overhead)` at [`tiny`], as
/// `f64::to_bits`, recorded at commit 9ce18ef. Table 3 and Figure 4 both
/// print `conair_runtime::measure_overhead`, so any change to its seeds,
/// script or arithmetic shows up here as a drifted bit.
const TABLE3_OVERHEAD_BITS: [(&str, u64, u64); 10] = [
    ("FFT", 0x3f11_1879_8a00_1118, 0x3f71_e59f_3c78_11e6),
    ("HawkNL", 0x3f11_ace7_a4ff_cf65, 0x3f67_03cd_9ed7_c0b6),
    ("HTTrack", 0x3ede_9156_2ba0_3417, 0x3f67_227e_f784_7f6d),
    ("MozillaXP", 0x3eca_dd16_1354_270c, 0x3f64_5ee6_5d68_301c),
    ("MozillaJS", 0x3f0f_9ed5_40b1_34cb, 0x3f52_c64e_9e69_3759),
    ("MySQL1", 0x3ea9_2b7a_211c_3c69, 0x3f68_2331_9ec0_93ef),
    ("MySQL2", 0x3eab_62c4_3698_d129, 0x3f63_021d_90a5_31ad),
    ("Transmission", 0x3ed6_0d10_2d1d_39d8, 0x3f64_ac3f_2a4b_663b),
    ("SQLite", 0x3f04_429f_c100_d744, 0x3f5f_de20_9ce9_5298),
    ("ZSNES", 0x3ef2_c86e_46bf_715e, 0x3f67_09d7_42c6_d10d),
];

/// Figure 4's `(design point, mean_overhead)` at [`tiny`], as
/// `f64::to_bits`, recorded with [`TABLE3_OVERHEAD_BITS`].
const FIGURE4_OVERHEAD_BITS: [(&str, u64); 4] = [
    ("strict-idempotent", 0x3f65_335a_9135_f0ce),
    ("idempotent+compensation", 0x3f65_7301_7715_6232),
    ("buffered-shared-writes", 0x3fc6_af2c_2895_5fe6),
    ("whole-program restart", 0),
];

#[test]
fn table2_covers_all_apps() {
    let rows = experiments::table2();
    assert_eq!(rows.len(), 10);
    for (row, name) in rows.iter().zip(WORKLOAD_NAMES) {
        assert_eq!(row.app, name);
        assert!(row.module_insts > 0);
    }
}

#[test]
fn table3_all_recover_under_one_percent() {
    let rows = experiments::table3(&tiny());
    for r in &rows {
        assert!(r.fix_recovered, "{} fix-mode recovery", r.app);
        assert!(r.survival_recovered, "{} survival-mode recovery", r.app);
        assert!(
            r.fix_overhead < 0.001,
            "{}: fix overhead {:.4}",
            r.app,
            r.fix_overhead
        );
        assert!(
            r.survival_overhead < 0.01,
            "{}: survival overhead {:.4} exceeds the paper's <1%",
            r.app,
            r.survival_overhead
        );
    }
    // The two oracle-conditional apps are flagged.
    let conditional: Vec<&str> = rows
        .iter()
        .filter(|r| r.conditional)
        .map(|r| r.app)
        .collect();
    assert_eq!(conditional, vec!["FFT", "MySQL1"]);

    let got: Vec<(&str, u64, u64)> = rows
        .iter()
        .map(|r| {
            (
                r.app,
                r.fix_overhead.to_bits(),
                r.survival_overhead.to_bits(),
            )
        })
        .collect();
    assert_eq!(got, TABLE3_OVERHEAD_BITS, "Table 3 overheads drifted");
}

#[test]
fn table4_segfaults_dominate_large_apps() {
    let rows = experiments::table4();
    for r in rows.iter().filter(|r| r.total() >= 100) {
        assert!(
            r.seg_fault > r.assertion && r.seg_fault > r.deadlock,
            "{}: segfault sites should dominate",
            r.app
        );
    }
    // MySQL rows are the largest; HawkNL the smallest.
    let total = |name: &str| rows.iter().find(|r| r.app == name).unwrap().total();
    assert!(total("MySQL1") > total("HTTrack"));
    assert!(total("HawkNL") < total("FFT"));
    // Deadlock sites only in the three deadlock apps (plus MySQL filler).
    for name in ["HawkNL", "MozillaJS", "SQLite"] {
        assert!(total(name) > 0);
        assert!(
            rows.iter().find(|r| r.app == name).unwrap().deadlock > 0,
            "{name} has recoverable deadlock sites"
        );
    }
}

#[test]
fn table5_fix_mode_is_tiny() {
    let rows = experiments::table5(&tiny());
    for r in &rows {
        assert!(
            r.fix_static <= 3,
            "{}: fix mode inserts a handful of points, got {}",
            r.app,
            r.fix_static
        );
        assert!(r.fix_static <= r.survival_static);
        assert!(r.fix_dynamic <= r.survival_dynamic.max(1));
        assert!(r.survival_static > 0);
    }
}

#[test]
fn table6_deadlock_optimization_strong() {
    let rows = experiments::table6(&tiny());
    for r in &rows {
        if let Some(dl) = r.deadlock_static {
            assert!(
                (0.3..=1.0).contains(&dl),
                "{}: deadlock optimization {:.2} outside the paper's 30-100% band",
                r.app,
                dl
            );
        }
        if let Some(nd) = r.non_deadlock_static {
            assert!(nd < 0.6, "{}: non-deadlock optimization {:.2}", r.app, nd);
        }
    }
    // MySQL deadlock optimization ~88-91%.
    let mysql = rows.iter().find(|r| r.app == "MySQL2").unwrap();
    assert!(mysql.deadlock_static.unwrap() > 0.85);
}

#[test]
fn table7_recovery_beats_restart() {
    let rows = experiments::table7(&tiny());
    for r in &rows {
        assert!(
            r.recovery_steps < r.restart_steps,
            "{}: recovery ({} steps) must beat restart ({} steps)",
            r.app,
            r.recovery_steps,
            r.restart_steps
        );
        assert!(r.retries >= 1, "{}: the forced bug requires retries", r.app);
    }
    // MySQL2 is the fastest recovery (RAR, one retry); MozillaXP the
    // slowest with thousands of retries.
    let by = |name: &str| rows.iter().find(|r| r.app == name).unwrap();
    assert_eq!(by("MySQL2").retries, 1);
    assert!(by("MozillaXP").retries > 1_000);
    assert!(by("MozillaXP").recovery_steps > by("MySQL2").recovery_steps);
}

#[test]
fn figure2_matches_section_2_2() {
    use conair::RegionPolicy;
    let cells = experiments::figure2(&tiny());
    for c in &cells {
        assert!(
            c.original_fails,
            "{}: forced bug must fail",
            c.pattern.name()
        );
        let expected = match c.policy {
            RegionPolicy::BufferedWrites => true,
            _ => c.pattern.idempotent_recoverable(),
        };
        assert_eq!(
            c.recovered,
            expected,
            "{} under {}",
            c.pattern.name(),
            c.policy.name()
        );
    }
}

#[test]
fn figure4_coverage_monotone_along_spectrum() {
    let points = experiments::figure4(&tiny());
    let got: Vec<(&str, u64)> = points
        .iter()
        .map(|p| (p.label, p.mean_overhead.to_bits()))
        .collect();
    assert_eq!(got, FIGURE4_OVERHEAD_BITS, "Figure 4 overheads drifted");
    // Coverage never decreases moving right along the spectrum.
    for pair in points.windows(2) {
        assert!(
            pair[0].patterns_recovered <= pair[1].patterns_recovered,
            "{} -> {}",
            pair[0].label,
            pair[1].label
        );
    }
    // The buffered-writes point pays measurably more overhead than the
    // idempotent points.
    assert!(points[2].mean_overhead > points[1].mean_overhead * 2.0);
    // Restart recovers everything but more slowly than in-place recovery.
    assert_eq!(points[3].patterns_recovered, 4);
    assert!(points[3].mean_recovery_steps.unwrap() > points[1].mean_recovery_steps.unwrap());
}
