//! Measures interpreter throughput (steps/sec on a benign run, trials/sec
//! on the Table-7 recovery harness) and writes the numbers to
//! `BENCH_interp.json` — the first datapoint of the perf trajectory.
//! Additionally measures the checkpoint machinery itself on the
//! checkpoint-density stress workloads and writes per-checkpoint /
//! per-rollback costs to `BENCH_checkpoint.json`.
//!
//! ```text
//! bench_interp [--out BENCH_interp.json] [--label NAME] [--jobs N] [--reps N]
//!              [--checkpoint-out BENCH_checkpoint.json] [--checkpoint-only]
//!              [--skip-checkpoint] [--checkpoint-regs N]
//!              [--checkpoint-iters N] [--rollback-iters N]
//!              [--dense-oracle] [--dispatch-mix]
//! ```
//!
//! `--dense-oracle` (requires the `dense-oracle` feature) routes every run
//! through the legacy per-step `&Inst` interpreter walk, so the decoded
//! interpreter can be compared against it on the same host with the same
//! build. `--dispatch-mix` appends a per-opcode execution-count histogram
//! (FFT benign run + the checkpoint-density stress loop) to the JSON entry
//! — the data behind the superinstruction catalog.
//!
//! Each throughput figure is the best of `--reps` repetitions (default 3):
//! on a shared or virtualized box, transient interference only ever makes a
//! rep *slower*, so the maximum over reps is the lowest-noise estimate of
//! the machine's true rate — the same reasoning behind min-time reporting
//! in criterion-style harnesses. Cost figures (ns per checkpoint/rollback)
//! symmetrically take the minimum over reps.
//!
//! The per-checkpoint cost is differential: the checkpoint-dense loop is
//! timed against a byte-identical control whose checkpoint is a `nop`, so
//! loop overhead cancels and the number is the marginal cost of one
//! checkpoint execution in a `--checkpoint-regs`-wide frame. The
//! per-rollback cost is `wall / rollbacks` on the rollback-dense workload
//! (inclusive of the re-executed guard attempt — identical methodology
//! before and after, so the ratio is meaningful).

use std::time::Instant;

use conair::Conair;
use conair_bench::BenchConfig;
use conair_runtime::run_scripted;
use conair_workloads::{
    checkpoint_dense_control, checkpoint_dense_program, rollback_dense_program, workload_by_name,
};

/// Benign-run repetitions for the steps/sec figure.
const STEP_RUNS: usize = 40;
/// Seeded bug-forcing trials for the trials/sec figure.
const TRIALS: usize = 200;
/// The workload under measurement (largest step count per benign run).
const APP: &str = "FFT";
/// Guard failures (= attempts) per pass on the rollback-dense workload.
const FAILS_PER_PASS: u64 = 4;

fn main() {
    let mut out_path = "BENCH_interp.json".to_string();
    let mut checkpoint_out = "BENCH_checkpoint.json".to_string();
    let mut label = "current".to_string();
    let mut jobs = 4usize;
    let mut reps = 3usize;
    let mut checkpoint_regs = 256usize;
    let mut checkpoint_iters = 2_000_000u64;
    let mut rollback_iters = 300_000u64;
    let mut run_throughput = true;
    let mut run_checkpoint = true;
    let mut dense_oracle = false;
    let mut dispatch_mix = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--checkpoint-out" => {
                checkpoint_out = args.next().expect("--checkpoint-out needs a path")
            }
            "--label" => label = args.next().expect("--label needs a name"),
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--jobs needs a number")
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .expect("--reps needs a number >= 1")
            }
            "--checkpoint-regs" => {
                checkpoint_regs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .expect("--checkpoint-regs needs a number >= 1")
            }
            "--checkpoint-iters" => {
                checkpoint_iters = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &u64| n >= 1)
                    .expect("--checkpoint-iters needs a number >= 1")
            }
            "--rollback-iters" => {
                rollback_iters = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &u64| n >= 1)
                    .expect("--rollback-iters needs a number >= 1")
            }
            "--checkpoint-only" => run_throughput = false,
            "--skip-checkpoint" => run_checkpoint = false,
            "--dense-oracle" => {
                if !cfg!(feature = "dense-oracle") {
                    panic!("--dense-oracle requires building with `--features dense-oracle`");
                }
                dense_oracle = true;
            }
            "--dispatch-mix" => dispatch_mix = true,
            other => panic!("unknown flag `{other}`"),
        }
    }
    let best = |f: &dyn Fn() -> f64| (0..reps).map(|_| f()).fold(0.0f64, f64::max);

    if run_checkpoint {
        checkpoint_bench(
            &checkpoint_out,
            &label,
            reps,
            checkpoint_regs,
            checkpoint_iters,
            rollback_iters,
            dense_oracle,
        );
    }
    if !run_throughput {
        return;
    }

    let cfg = BenchConfig::from_env();
    let mut machine = cfg.machine();
    machine.dense_oracle = dense_oracle;
    let w = workload_by_name(APP).expect("registered workload");
    let hardened = Conair::survival().harden(&w.program);

    // Steps/sec: seed-paired benign runs of the hardened program.
    let steps_per_sec = best(&|| {
        let start = Instant::now();
        let mut steps = 0u64;
        for i in 0..STEP_RUNS {
            let r = run_scripted(
                &hardened.program,
                &machine,
                &w.benign_script,
                cfg.seed0 + i as u64,
            );
            assert!(r.outcome.is_completed(), "benign run must complete");
            steps += r.stats.steps;
        }
        steps as f64 / start.elapsed().as_secs_f64()
    });

    // Trials/sec: the Table-7 recovery harness, sequential.
    let trials_per_sec_seq = best(&|| {
        let start = Instant::now();
        let summary = conair_runtime::run_trials(
            &hardened.program,
            &machine,
            &w.bug_script,
            cfg.seed0,
            TRIALS,
        );
        assert!(summary.all_completed(), "recovery trials must complete");
        TRIALS as f64 / start.elapsed().as_secs_f64()
    });

    // Trials/sec: same workload fanned across the trial pool.
    let trials_per_sec_par = best(&|| {
        let start = Instant::now();
        let par = conair_runtime::run_trials_parallel(
            &hardened.program,
            &machine,
            &w.bug_script,
            cfg.seed0,
            TRIALS,
            jobs,
        );
        assert!(
            par.all_completed(),
            "parallel recovery trials must complete"
        );
        TRIALS as f64 / start.elapsed().as_secs_f64()
    });

    use serde_json::Value;
    let pair = |k: &str, v: Value| (k.to_string(), v);
    let mut fields = vec![
        pair("label", Value::Str(label.clone())),
        pair("app", Value::Str(APP.to_string())),
        pair("benign_runs", Value::UInt(STEP_RUNS as u64)),
        pair("trials", Value::UInt(TRIALS as u64)),
        pair("jobs", Value::UInt(jobs as u64)),
        pair("steps_per_sec", Value::Float(steps_per_sec)),
        pair(
            "trials_per_sec_sequential",
            Value::Float(trials_per_sec_seq),
        ),
        pair("trials_per_sec_parallel", Value::Float(trials_per_sec_par)),
    ];
    if dispatch_mix {
        let fft_mix = dispatch_mix_of(&hardened.program, &machine, &w.benign_script, cfg.seed0);
        let stress = checkpoint_dense_program(checkpoint_regs, MIX_STRESS_ITERS);
        let stress_mix = dispatch_mix_of(
            &stress,
            &machine,
            &conair_runtime::ScheduleScript::none(),
            cfg.seed0,
        );
        fields.push(pair(
            "dispatch_mix",
            Value::Object(vec![
                pair("fft", fft_mix),
                pair("checkpoint_stress", stress_mix),
            ]),
        ));
    }
    append_entry(&out_path, &label, Value::Object(fields));
}

/// Iterations for the `--dispatch-mix` checkpoint-stress run: the mix's
/// *shape* converges long before the throughput loop's 2M iterations.
const MIX_STRESS_ITERS: u64 = 50_000;

/// Runs `program` once with a per-opcode dispatch counter attached and
/// returns the nonzero counts as a mnemonic-keyed JSON object.
fn dispatch_mix_of(
    program: &conair_runtime::Program,
    config: &conair_runtime::MachineConfig,
    script: &conair_runtime::ScheduleScript,
    seed: u64,
) -> serde_json::Value {
    use conair_runtime::{Machine, SeededRandom};
    let mut sched = SeededRandom::new(seed);
    let r = Machine::new(program, *config)
        .with_script(script)
        .with_dispatch_mix()
        .run(&mut sched);
    assert!(r.outcome.is_completed(), "dispatch-mix run must complete");
    let counts = conair_ir::MNEMONICS
        .iter()
        .zip(&r.stats.dispatch_mix)
        .filter(|&(_, &n)| n > 0)
        .map(|(mnemonic, &n)| (mnemonic.to_string(), serde_json::Value::UInt(n)))
        .collect();
    serde_json::Value::Object(counts)
}

/// Measures the checkpoint machinery on the stress workloads and appends
/// the costs to the `BENCH_checkpoint.json` trajectory.
fn checkpoint_bench(
    out_path: &str,
    label: &str,
    reps: usize,
    regs: usize,
    checkpoint_iters: u64,
    rollback_iters: u64,
    dense_oracle: bool,
) {
    use conair_runtime::{run_once, MachineConfig, RunResult};
    let lowest = |f: &dyn Fn() -> f64| (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min);
    let config = move || MachineConfig {
        dense_oracle,
        ..MachineConfig::default()
    };
    let timed = |p: &conair_runtime::Program| -> RunResult {
        let r = run_once(p, &config(), 0);
        assert!(r.outcome.is_completed(), "stress run must complete");
        r
    };

    let dense = checkpoint_dense_program(regs, checkpoint_iters);
    let control = checkpoint_dense_control(regs, checkpoint_iters);
    let rollback = rollback_dense_program(regs, rollback_iters, FAILS_PER_PASS);

    // Marginal per-checkpoint cost: checkpoint-dense loop minus its
    // nop-control, divided by the number of checkpoints executed. Each
    // wall is the minimum over reps *before* subtracting, so one noisy
    // control rep cannot deflate the difference.
    let dense_wall = lowest(&|| {
        let d = timed(&dense);
        assert_eq!(d.stats.checkpoints, checkpoint_iters);
        d.stats.wall.as_secs_f64()
    });
    let control_wall = lowest(&|| timed(&control).stats.wall.as_secs_f64());
    let per_checkpoint_ns = (dense_wall - control_wall).max(0.0) * 1e9 / checkpoint_iters as f64;

    // Per-rollback cost, inclusive of the re-executed attempt.
    let rollbacks = rollback_iters * (FAILS_PER_PASS - 1);
    let per_rollback_ns = lowest(&|| {
        let r = timed(&rollback);
        assert_eq!(r.stats.rollbacks, rollbacks);
        r.stats.wall.as_secs_f64() * 1e9 / r.stats.rollbacks as f64
    });

    use serde_json::Value;
    let pair = |k: &str, v: Value| (k.to_string(), v);
    let entry = Value::Object(vec![
        pair("label", Value::Str(label.to_string())),
        pair("workload", Value::Str("checkpoint_stress".to_string())),
        pair("frame_regs", Value::UInt(regs as u64)),
        pair("checkpoint_iters", Value::UInt(checkpoint_iters)),
        pair("rollback_iters", Value::UInt(rollback_iters)),
        pair("fails_per_pass", Value::UInt(FAILS_PER_PASS)),
        pair("rollbacks", Value::UInt(rollbacks)),
        pair("per_checkpoint_ns", Value::Float(per_checkpoint_ns)),
        pair("per_rollback_ns", Value::Float(per_rollback_ns)),
    ]);
    append_entry(out_path, label, entry);
}

/// Appends `entry` to the JSON trajectory file at `path`: one JSON array,
/// oldest entry first; a rerun with the same label replaces that label's
/// entry.
fn append_entry(path: &str, label: &str, entry: serde_json::Value) {
    use serde_json::Value;
    let mut entries: Vec<Value> = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| match serde_json::from_str::<Value>(&t) {
            Ok(Value::Array(items)) => Some(items),
            _ => None,
        })
        .unwrap_or_default();
    entries.retain(|e| e.get("label").and_then(Value::as_str) != Some(label));
    entries.push(entry.clone());
    let text = serde_json::to_string_pretty(&Value::Array(entries)).expect("serializes");
    std::fs::write(path, format!("{text}\n")).expect("write bench trajectory");
    println!(
        "{}",
        serde_json::to_string_pretty(&entry).expect("serializes")
    );
    println!("wrote {path}");
}
