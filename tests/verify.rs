//! Exhaustive verification of the hardened catalog: under the fair
//! retry model (`retry_backoff` on, retries capped), DPOR proves "no
//! failing schedule exists" for the small Table-2 workloads — the oracle
//! bounded sampling can never provide — while still finding every bug in
//! the unhardened programs, an order of magnitude sooner than bounded
//! search over the same decision points.

use conair::Conair;
use conair_runtime::{
    explore, explore_observed, ExploreConfig, ExploreObserver, ExploreReport, ExploreStrategy,
    MachineConfig, PointMask, Program,
};
use conair_workloads::{verify_hint, workload_by_name};

/// The machine model verification runs under: prompt deadlock timeouts,
/// the workload-documented retry cap, and the fair retry backoff —
/// without which any schedule that starves a retrying thread would be a
/// counterexample no real runtime can produce.
fn verify_machine(max_retries: u64) -> MachineConfig {
    MachineConfig {
        lock_timeout: 200,
        step_limit: 2_000_000,
        max_retries,
        retry_backoff: true,
        ..MachineConfig::default()
    }
}

fn verify_search(
    program: &Program,
    config: &MachineConfig,
    k: usize,
    budget: usize,
) -> ExploreReport {
    let mut ec = ExploreConfig::new(ExploreStrategy::Dpor { preemptions: k });
    ec.mask = PointMask::SYNC_SHARED;
    ec.budget = budget;
    explore(program, config, &ec)
}

/// The acceptance path for one workload: hardening it removes *every*
/// failing schedule within the preemption bound, and the DPOR search
/// proves it by exhausting the reduced schedule space within the
/// documented budget.
fn verifies_clean(name: &str) {
    let w = workload_by_name(name).expect("registered workload");
    let hint = verify_hint(name).expect("catalog workload has a verify hint");
    let hardened = Conair::survival().harden(&w.program);
    let config = verify_machine(hint.max_retries);
    let report = verify_search(&hardened.program, &config, hint.preemptions, hint.budget);
    assert!(
        report.exhausted,
        "{name}: not exhausted within budget {} ({} schedules ran)",
        hint.budget, report.schedules
    );
    assert_eq!(
        report.failures,
        0,
        "{name}: hardened program still fails: {:?}",
        report.first_failure.map(|f| f.outcome)
    );
    assert!(report.first_failure.is_none());
    assert!(
        report.schedules < hint.budget,
        "{name}: budget has no headroom ({} of {})",
        report.schedules,
        hint.budget
    );
    assert!(
        report.dpor.races_detected > 0,
        "{name}: exhaustion without race analysis is vacuous"
    );
}

macro_rules! verify_test {
    ($test:ident, $name:literal) => {
        #[test]
        fn $test() {
            verifies_clean($name);
        }
    };
}

// The five small catalog workloads of the acceptance bar, and
// Transmission. (The other four also verify clean, but HTTrack and
// MozillaXP run thousands of schedules and the MySQL pair thousands of
// long ones, seconds to minutes each, so CI holds the fast ones.)
verify_test!(verifies_fft, "FFT");
verify_test!(verifies_zsnes, "ZSNES");
verify_test!(verifies_hawknl, "HawkNL");
verify_test!(verifies_sqlite, "SQLite");
verify_test!(verifies_mozilla_js, "MozillaJS");
verify_test!(verifies_transmission, "Transmission");

#[test]
fn unhardened_is_falsified_under_the_same_model() {
    // The VERIFIED verdicts above are not an artifact of the fair retry
    // model: the *unhardened* programs still fail under it, so the
    // verification really is crediting recovery code.
    for name in ["FFT", "HawkNL"] {
        let w = workload_by_name(name).expect("registered workload");
        let hint = verify_hint(name).unwrap();
        let config = verify_machine(hint.max_retries);
        let report = verify_search(&w.program, &config, hint.preemptions, hint.budget);
        assert!(
            report.first_failure.is_some(),
            "{name}: unhardened program verified clean — the oracle is broken"
        );
    }
}

#[test]
fn dpor_reaches_first_bug_10x_sooner_than_bounded() {
    // Same decision points (sync + shared accesses), same preemption
    // bound, same machine: DPOR only schedules reversals of observed
    // races, so it reaches the bug an order of magnitude sooner than
    // bounded's exhaustive preemption placement.
    for name in ["HawkNL", "SQLite", "MozillaJS"] {
        let w = workload_by_name(name).expect("registered workload");
        let config = MachineConfig {
            lock_timeout: 200,
            step_limit: 2_000_000,
            max_retries: 8,
            ..MachineConfig::default()
        };
        let run = |strategy: ExploreStrategy| {
            let mut ec = ExploreConfig::new(strategy);
            ec.mask = PointMask::SYNC_SHARED;
            ec.budget = 2048;
            explore(&w.program, &config, &ec)
        };
        let bounded = run(ExploreStrategy::Bounded { preemptions: 1 });
        let dpor = run(ExploreStrategy::Dpor { preemptions: 1 });
        let bounded_first = bounded
            .first_failure
            .unwrap_or_else(|| panic!("{name}: bounded found no bug"))
            .index
            + 1;
        let dpor_first = dpor
            .first_failure
            .unwrap_or_else(|| panic!("{name}: dpor found no bug"))
            .index
            + 1;
        assert!(
            dpor_first * 10 <= bounded_first,
            "{name}: dpor took {dpor_first} schedules vs bounded {bounded_first} (< 10x)"
        );
    }
}

#[test]
fn verification_is_jobs_and_cache_invariant() {
    // The acceptance determinism bar on real workloads: the exhaustive
    // verdict, the DPOR counters and every normalized report field are
    // bit-identical across worker counts and with the snapshot cache off.
    // The cached searches splice lone-thread remainders (they skip
    // steps that way), so budget 0 is the splice's oracle too.
    for name in ["FFT", "HawkNL", "SQLite"] {
        let w = workload_by_name(name).expect("registered workload");
        let hint = verify_hint(name).unwrap();
        let hardened = Conair::survival().harden(&w.program);
        let config = verify_machine(hint.max_retries);
        let mut ec = ExploreConfig::new(ExploreStrategy::Dpor {
            preemptions: hint.preemptions,
        });
        ec.mask = PointMask::SYNC_SHARED;
        ec.budget = hint.budget;
        let mut obs = ExploreObserver::new();
        let baseline = explore_observed(&hardened.program, &config, &ec, Some(&mut obs));
        assert!(baseline.exhausted && baseline.failures == 0, "{name}");
        let prom = obs.render_prometheus(&baseline);
        let spliced: u64 = prom
            .lines()
            .find_map(|l| l.strip_prefix("conair_explore_spliced_steps_total "))
            .and_then(|v| v.parse().ok())
            .expect("spliced-steps counter");
        assert!(spliced > 0, "{name}: no run spliced");
        for jobs in [2, 4] {
            ec.jobs = jobs;
            let fanned = explore(&hardened.program, &config, &ec);
            assert_eq!(
                baseline.normalized(),
                fanned.normalized(),
                "{name}: --jobs {jobs} diverged"
            );
            assert_eq!(
                baseline.dpor, fanned.dpor,
                "{name}: --jobs {jobs} changed dpor counters"
            );
            assert_eq!(baseline.exhausted, fanned.exhausted);
            assert_eq!(baseline.steps_saved, fanned.steps_saved, "{name}");
        }
        ec.jobs = 1;
        ec.snapshot_budget = 0;
        let uncached = explore(&hardened.program, &config, &ec);
        assert_eq!(uncached.steps_saved, 0);
        assert_eq!(
            baseline.normalized(),
            uncached.normalized(),
            "{name}: snapshot cache changed the verdict"
        );
        assert_eq!(baseline.dpor, uncached.dpor, "{name}");
    }
}
