//! A fanned-out trial run must be observationally identical to an inline
//! one: `run_trials` folds per-seed results in seed order, so every
//! summary field except wall time matches bit for bit at `jobs` 1 and 4.

use conair::Conair;
use conair_runtime::{run_trials, MachineConfig, TrialSummary};
use conair_workloads::all_workloads;

const TRIALS: usize = 8;
const SEED0: u64 = 1;

/// Everything in a [`TrialSummary`] except `wall`, which is the only
/// field allowed to differ between inline and fanned-out execution.
fn deterministic_fields(
    s: &TrialSummary,
) -> (
    usize,
    usize,
    usize,
    usize,
    usize,
    f64,
    f64,
    Option<u64>,
    Vec<conair_runtime::Histogram>,
) {
    (
        s.trials,
        s.completed,
        s.failed,
        s.hung,
        s.step_limited,
        s.mean_insts,
        s.mean_retries,
        s.max_recovery_steps,
        vec![
            s.retries_hist.clone(),
            s.recovery_hist.clone(),
            s.checkpoints_hist.clone(),
            s.undo_depth_hist.clone(),
        ],
    )
}

#[test]
fn parallel_trials_match_sequential_over_catalog() {
    let machine = MachineConfig::default();
    let mut any_undo_samples = false;
    for w in all_workloads() {
        let hardened = Conair::survival().harden(&w.program);
        let seq = run_trials(&hardened.program, &machine, &w.bug_script, SEED0, TRIALS, 1);
        assert_eq!(
            seq.checkpoints_hist.count(),
            TRIALS as u64,
            "{}: one checkpoint-count sample per trial",
            w.meta.name
        );
        any_undo_samples |= !seq.undo_depth_hist.is_empty();
        let par = run_trials(&hardened.program, &machine, &w.bug_script, SEED0, TRIALS, 4);
        assert_eq!(
            deterministic_fields(&seq),
            deterministic_fields(&par),
            "{}: jobs=4 diverged from jobs=1",
            w.meta.name
        );
    }
    assert!(
        any_undo_samples,
        "bug-forcing trials must roll back somewhere in the catalog, \
         populating the undo-depth histogram"
    );
}

#[test]
fn parallel_trials_match_on_benign_schedules() {
    // Benign runs exercise the completed/zero-retry path of the merge.
    let machine = MachineConfig::default();
    for w in all_workloads() {
        let hardened = Conair::survival().harden(&w.program);
        let seq = run_trials(
            &hardened.program,
            &machine,
            &w.benign_script,
            SEED0,
            TRIALS,
            1,
        );
        let par = run_trials(
            &hardened.program,
            &machine,
            &w.benign_script,
            SEED0,
            TRIALS,
            4,
        );
        assert_eq!(
            deterministic_fields(&seq),
            deterministic_fields(&par),
            "{}: benign parallel run diverged",
            w.meta.name
        );
        assert_eq!(
            par.completed, par.trials,
            "{}: benign runs must complete",
            w.meta.name
        );
    }
}
