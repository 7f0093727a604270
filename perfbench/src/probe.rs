//! Layer probes: single layers timed on fixed inputs, identical in every
//! workload's traced run.
//!
//! * checkpoint and rollback cost on the single-threaded stress programs;
//! * interpreter throughput on FFT's hardened benign run;
//! * lowering (`DenseProgram::new`) of every hardened catalog module, a cost
//!   every `run_scripted` pays again;
//! * bounded, DPOR and PCT search at an equal decision mask (sync+shared),
//!   one preemption, the same budget, on the same apps.

use std::hint::black_box;
use std::time::Instant;

use conair_runtime::{
    explore, run_once, run_scripted, DenseProgram, ExploreConfig, ExploreStrategy, MachineConfig,
    PointMask,
};
use conair_workloads::{
    checkpoint_dense_control, checkpoint_dense_program, rollback_dense_program,
};

use crate::verbs::Catalog;
use crate::{median, Metric};

/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;
const STRESS_REGS: usize = 256;
const CHECKPOINT_ITERS: u64 = 200_000;
const ROLLBACK_ITERS: u64 = 50_000;
const FAILS_PER_PASS: u64 = 4;
/// Apps and budget of the equal-mask strategy comparison.
const COMPARE_APPS: &[&str] = &["FFT", "HawkNL", "SQLite"];
const COMPARE_BUDGET: usize = 256;

pub struct Probes {
    pub metrics: Vec<Metric>,
    /// JSON objects for the per-layer report.
    pub detail: Vec<String>,
    /// Whether every probe's sanity check held.
    pub ok: bool,
}

fn timed_median(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&samples)
}

pub fn run_all(cat: &Catalog) -> Probes {
    let config = MachineConfig::default();
    let mut ok = true;
    let mut detail = Vec::new();

    let dense = checkpoint_dense_program(STRESS_REGS, CHECKPOINT_ITERS);
    let control = checkpoint_dense_control(STRESS_REGS, CHECKPOINT_ITERS);
    let checkpoint_ns = timed_median(|| {
        let d = run_once(&dense, &config, 0);
        let c = run_once(&control, &config, 0);
        ok &= d.outcome.is_completed() && d.stats.checkpoints == CHECKPOINT_ITERS;
        (d.stats.wall.as_nanos() as f64 - c.stats.wall.as_nanos() as f64)
            / d.stats.checkpoints.max(1) as f64
    });

    let rollback = rollback_dense_program(STRESS_REGS, ROLLBACK_ITERS, FAILS_PER_PASS);
    let rollback_ns = timed_median(|| {
        let r = run_once(&rollback, &config, 0);
        ok &= r.outcome.is_completed() && r.stats.rollbacks > 0;
        r.stats.wall.as_nanos() as f64 / r.stats.rollbacks.max(1) as f64
    });

    let fft = cat.app("FFT");
    let steps_per_s = timed_median(|| {
        let r = run_scripted(&fft.hardened, &config, &fft.w.benign_script, 1);
        ok &= fft.w.run_is_correct(&r);
        r.stats.steps as f64 / r.stats.wall.as_secs_f64()
    });

    let lower_us = timed_median(|| {
        let t = Instant::now();
        for app in &cat.apps {
            black_box(DenseProgram::new(black_box(&app.hardened.module)));
        }
        t.elapsed().as_secs_f64() * 1e6
    });

    let mut per_schedule = Vec::new();
    for (label, strategy) in [
        ("bounded", ExploreStrategy::Bounded { preemptions: 1 }),
        ("dpor", ExploreStrategy::Dpor { preemptions: 1 }),
        ("pct", ExploreStrategy::Pct { depth: 3 }),
    ] {
        let (mut wall_s, mut schedules) = (0.0f64, 0usize);
        for name in COMPARE_APPS {
            let app = cat.app(name);
            let mut ec = ExploreConfig::new(strategy);
            ec.mask = PointMask::SYNC_SHARED;
            ec.budget = COMPARE_BUDGET;
            ec.stop_at_first = false;
            let t = Instant::now();
            let r = explore(&app.w.program, &config, &ec);
            let wall = t.elapsed().as_secs_f64();
            ok &= r.schedules > 0;
            wall_s += wall;
            schedules += r.schedules;
            detail.push(format!(
                "{{\"probe\":\"equal_mask\",\"strategy\":\"{label}\",\"app\":\"{name}\",\"mask\":\"sync+shared\",\"budget\":{COMPARE_BUDGET},\"schedules\":{},\"failures\":{},\"exhausted\":{},\"wall_us\":{:.1}}}",
                r.schedules,
                r.failures,
                r.exhausted,
                wall * 1e6
            ));
        }
        per_schedule.push((label, wall_s * 1e6 / schedules.max(1) as f64));
    }

    let mut metrics: Vec<Metric> = vec![
        ("thread.checkpoint_ns".into(), checkpoint_ns, "ns"),
        ("thread.rollback_ns".into(), rollback_ns, "ns"),
        ("machine.steps_per_s".into(), steps_per_s, "1/s"),
        ("dense.lower_us".into(), lower_us, "us"),
    ];
    for (label, us) in per_schedule {
        metrics.push((format!("{label}.us_per_schedule"), us, "us"));
    }
    Probes {
        metrics,
        detail,
        ok,
    }
}
