//! Reproduces Section 6.4: static-analysis and transformation time per
//! application ("fast enough to process large real-world multi-threaded
//! software"), with and without the inter-procedural pass.
//!
//! Each cell is the median wall time over a fixed number of repetitions.

use std::hint::black_box;
use std::time::{Duration, Instant};

use conair::{AnalysisConfig, Conair};
use conair_bench::{micros, TextTable};
use conair_workloads::workload_by_name;

const APPS: [&str; 4] = ["HawkNL", "HTTrack", "MySQL1", "MozillaXP"];

/// Repetitions per cell; the median is reported.
const REPS: usize = 11;

/// The median wall time of `REPS` calls of `f`, in microseconds.
fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<Duration> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[REPS / 2].as_secs_f64() * 1e6
}

fn main() {
    let full = Conair::survival();
    let intra = Conair::with_config(AnalysisConfig {
        interproc_depth: None,
        ..AnalysisConfig::default()
    });
    let mut t = TextTable::new(vec![
        "App.",
        "Insts",
        "Analyze (full)",
        "Analyze (intra-only)",
        "Harden",
    ]);
    for app in APPS {
        let w = workload_by_name(app).expect("registered workload");
        let module = &w.program.module;
        t.row(vec![
            app.to_string(),
            module.num_insts().to_string(),
            micros(median_us(|| full.analyze(module))),
            micros(median_us(|| intra.analyze(module))),
            micros(median_us(|| full.harden(&w.program))),
        ]);
    }
    println!("Section 6.4. Static analysis time (median of {REPS} runs)\n");
    println!("{}", t.render());
}
