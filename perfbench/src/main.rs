//! The repository's benchmark: the four user verbs — `harden`, `recover`,
//! `explore`, `verify` — each as a closed loop over the Table-2 catalog.
//!
//! ```text
//! perfbench --workload <harden|recover|explore|verify> --seed N --seconds S
//!           --trace <0|1> [--out-dir DIR]
//! ```
//!
//! One caller issues the next operation only after the previous one
//! returned. An operation is one app's verb; a *pass* is one sweep over the
//! workload's app list, and every pass repeats the same work (the seed
//! fixes each app's scheduler seed). The loop runs passes until `--seconds`
//! have elapsed. Every operation is checked against a known answer; a wrong
//! answer counts as failed.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run (see
//! [`traced`]), and the spans and a per-layer report are written under
//! `--out-dir`.

mod calib;
mod probe;
mod trace;
mod verbs;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use calib::Clock;
use trace::Tracer;
use verbs::{Catalog, PassOut, Verb};

/// Set-ups measured per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Search workers of `explore` and `verify`. On the 2-vCPU host this was
/// built on, two workers ran a `verify` pass no faster than one, and their
/// calibrated pass time spread five times wider from run to run (±10%
/// against ±2%), so the timed loop runs one.
const JOBS: usize = 1;

/// The job count whose counts must equal those at [`JOBS`].
const CHECK_JOBS: usize = 2;

struct Args {
    verb: Verb,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut verb = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                verb =
                    Some(Verb::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            "--out-dir" => out_dir = PathBuf::from(&value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        verb: verb.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// One metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of `xs`: the highest percentile with at least ten samples
/// beyond it, but never below the 90th (with fewer than 100 samples the
/// 90th percentile has fewer than ten beyond it).
fn tail(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let p90 = (n * 9).div_ceil(10) - 1;
    v[p90.max(n.saturating_sub(11))]
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The passes of one closed loop.
struct Loop {
    /// Wall time of each pass, ms.
    pass_ms: Vec<f64>,
    outs: Vec<PassOut>,
}

impl Loop {
    /// Runs passes until `seconds` have elapsed (at least one).
    fn run(args: &Args, cat: &Catalog, seconds: f64, tracer: &Tracer) -> Loop {
        let start = Instant::now();
        let mut lp = Loop {
            pass_ms: Vec::new(),
            outs: Vec::new(),
        };
        while lp.outs.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let out = verbs::run_pass(cat, args.verb, args.seed, JOBS, tracer);
            lp.pass_ms.push(out.op_ms.iter().sum());
            lp.outs.push(out);
        }
        lp
    }

    /// The pass time at the reference host speed: each operation's median
    /// time at the reference speed over all passes, summed. The host's speed
    /// changes within a second, so each operation is scaled by the
    /// calibrations right around it, which share its host speed.
    fn ref_ms(&self) -> f64 {
        let ops = self.outs[0].op_ref_ms.len();
        (0..ops)
            .map(|i| {
                let xs: Vec<f64> = self.outs.iter().map(|o| o.op_ref_ms[i]).collect();
                median(&xs)
            })
            .sum()
    }

    /// The calibration kernel's median time over the run, ms.
    fn calib_ms(&self) -> f64 {
        let xs: Vec<f64> = self
            .outs
            .iter()
            .flat_map(|o| o.calib_ms.iter().copied())
            .collect();
        median(&xs)
    }

    /// Each operation's fastest time over all passes, summed: the raw pass
    /// time at the run's fastest host moments.
    fn best_ms(&self) -> f64 {
        self.best_op_ms().iter().sum()
    }

    /// Each operation's fastest time over all passes, ms.
    fn best_op_ms(&self) -> Vec<f64> {
        let ops = self.outs[0].op_ms.len();
        (0..ops)
            .map(|i| {
                self.outs
                    .iter()
                    .map(|o| o.op_ms[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    fn tally(&self) -> (u64, u64) {
        self.outs
            .iter()
            .fold((0, 0), |(a, f), o| (a + o.attempted, f + o.failed))
    }

    /// Passes whose count-type values differ from pass 0's.
    fn drifting_passes(&self, cat: &Catalog) -> usize {
        let first = counts_line(cat, &self.outs[0]);
        self.outs
            .iter()
            .filter(|o| counts_line(cat, o) != first)
            .count()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            body,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join(name), contents))
    {
        eprintln!("perfbench: cannot write {name}: {e}");
    }
}

/// A pass's count-type values plus the catalog's, as one canonical line,
/// for bit-identity checks across passes, runs, tracing and job counts.
fn counts_line(cat: &Catalog, out: &PassOut) -> String {
    let mut all: BTreeMap<&str, f64> = out.exact.clone();
    all.insert("code_growth_pct", cat.code_growth_pct);
    all.insert("run_overhead_pct", cat.run_overhead_pct);
    let mut line = String::new();
    for (k, v) in all {
        let _ = write!(line, "{k}={v:?};");
    }
    line
}

/// A JSON array of pre-rendered objects, one per line.
fn json_lines(items: &[String]) -> String {
    let body: Vec<String> = items.iter().map(|l| format!("    {l}")).collect();
    format!("[\n{}\n  ]", body.join(",\n"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    let mut clock = Clock::default();
    let mut cat = None;
    for _ in 0..SETUP_REPS {
        cat = Some(clock.time(|| Catalog::build(args.seed)));
    }
    let cat = cat.expect("at least one set-up ran");
    let setup_ms = clock.finish().1;
    if let Err(e) = &cat.check {
        eprintln!("perfbench: catalog oracle failed in set-up: {e}");
    }
    let tag = format!(
        "{}-s{}-t{}",
        args.verb.name(),
        args.seed,
        u8::from(args.trace)
    );

    if args.trace {
        traced(&args, &cat, &tag);
        return;
    }

    let lp = Loop::run(&args, &cat, args.seconds, &Tracer::new(false));
    let (attempted, failed) = lp.tally();
    let drift = lp.drifting_passes(&cat);
    write_file(
        &args.out_dir,
        &format!("counts-{tag}.txt"),
        &counts_line(&cat, &lp.outs[0]),
    );
    eprintln!(
        "perfbench: {} passes of {}: at reference {:.1} ms; raw best {:.1} ms, median {:.1} ms, tail {:.1} ms; calibration {:.3} ms",
        lp.outs.len(),
        args.verb.name(),
        lp.ref_ms(),
        lp.best_ms(),
        median(&lp.pass_ms),
        tail(&lp.pass_ms),
        lp.calib_ms()
    );
    let best: Vec<String> = lp
        .best_op_ms()
        .iter()
        .map(|ms| format!("{ms:.1}"))
        .collect();
    eprintln!("perfbench: best ms per operation: {}", best.join(" "));
    if drift > 0 {
        eprintln!("perfbench: {drift} passes' counts differ from pass 0's");
    }
    let metrics: Vec<Metric> = vec![
        ("setup_s".into(), median(&setup_ms) / 1e3, "s"),
        ("pass_ref_ms".into(), lp.ref_ms(), "ms"),
        ("code_growth_pct".into(), cat.code_growth_pct, "%"),
        ("run_overhead_pct".into(), cat.run_overhead_pct, "%"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ];
    let correct = failed == 0 && drift == 0 && cat.check.is_ok();
    print_result(
        correct,
        attempted + cat.attempted,
        failed + cat.failed,
        &metrics,
    );
}

/// The traced run. Half the time runs untraced passes, half runs the same
/// passes traced; the ratio of their best pass times is the tracing
/// overhead. Pass 0's count-type values must be bit-identical between the
/// two halves and, for the searching verbs, at another job count. The layer
/// probes then time single layers on fixed inputs.
fn traced(args: &Args, cat: &Catalog, tag: &str) {
    let half = args.seconds / 2.0;
    let plain = Loop::run(args, cat, half, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let traced = Loop::run(args, cat, half, &tracer);

    let mut mismatches = Vec::new();
    let reference = counts_line(cat, &plain.outs[0]);
    if counts_line(cat, &traced.outs[0]) != reference {
        mismatches.push("traced counts differ from untraced");
    }
    if plain.drifting_passes(cat) + traced.drifting_passes(cat) > 0 {
        mismatches.push("a pass's counts differ from pass 0's");
    }
    if args.verb.searches() {
        let out = verbs::run_pass(cat, args.verb, args.seed, CHECK_JOBS, &Tracer::new(false));
        if counts_line(cat, &out) != reference {
            mismatches.push("counts differ at another job count");
        }
    }
    for m in &mismatches {
        eprintln!("perfbench: count mismatch: {m}");
    }

    let probes = probe::run_all(cat);

    let passes = traced.outs.len() as f64;
    let self_ns = tracer.self_ns();
    let traced_total_ns: u64 = self_ns.values().sum();
    let overhead = (traced.ref_ms() / plain.ref_ms() - 1.0) * 100.0;

    let mut metrics: Vec<Metric> = Vec::new();
    for &layer in verbs::LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        let share = if traced_total_ns > 0 {
            ns as f64 * 100.0 / traced_total_ns as f64
        } else {
            0.0
        };
        metrics.push((format!("{layer}.self_pct"), share, "%"));
    }
    metrics.push(("trace.overhead_pct".into(), overhead, "%"));
    metrics.push((
        "trace.spans_per_pass".into(),
        tracer.span_count() as f64 / passes,
        "count",
    ));
    metrics.push(("pass.best_ms".into(), plain.best_ms(), "ms"));
    metrics.push(("pass.median_ms".into(), median(&plain.pass_ms), "ms"));
    metrics.push(("pass.tail_ms".into(), tail(&plain.pass_ms), "ms"));
    metrics.push(("host.calib_ms".into(), plain.calib_ms(), "ms"));
    let first = &traced.outs[0];
    for &(name, unit) in verbs::PASS_COUNTS {
        let value = first.exact.get(name).or(first.info.get(name));
        metrics.push((name.into(), value.copied().unwrap_or(0.0), unit));
    }
    metrics.push((
        "analysis.static_points".into(),
        cat.static_points as f64,
        "count",
    ));
    metrics.push((
        "transform.insts_added".into(),
        cat.insts_added as f64,
        "count",
    ));
    metrics.extend(probes.metrics.iter().cloned());

    // The per-layer report: absolute self times, per-app detail, the probes
    // and the overhead, next to the spans themselves.
    let self_us: Vec<String> = self_ns
        .iter()
        .map(|(name, ns)| format!("\"{name}\": {:?}", *ns as f64 / 1e3 / passes))
        .collect();
    let report = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"jobs\": {},\n  \
         \"passes_untraced\": {},\n  \"passes_traced\": {},\n  \
         \"ref_pass_ms_untraced\": {:?},\n  \"ref_pass_ms_traced\": {:?},\n  \
         \"trace_overhead_pct\": {overhead:?},\n  \"count_mismatches\": {},\n  \
         \"self_us_per_pass\": {{{}}},\n  \"pass0_counts\": \"{reference}\",\n  \
         \"pass0_op_ms\": {:?},\n  \"pass0_detail\": {},\n  \"probes\": {}\n}}\n",
        args.verb.name(),
        args.seed,
        JOBS,
        plain.outs.len(),
        traced.outs.len(),
        plain.ref_ms(),
        traced.ref_ms(),
        mismatches.len(),
        self_us.join(", "),
        first.op_ms,
        json_lines(&first.detail),
        json_lines(&probes.detail),
    );
    write_file(&args.out_dir, &format!("layers-{tag}.json"), &report);
    write_file(
        &args.out_dir,
        &format!("spans-{tag}.jsonl"),
        &tracer.to_jsonl(),
    );
    write_file(&args.out_dir, &format!("counts-{tag}.txt"), &reference);

    let (attempted, failed) = plain.tally();
    let (t_attempted, t_failed) = traced.tally();
    let failed = failed + t_failed + cat.failed;
    let correct = failed == 0 && mismatches.is_empty() && cat.check.is_ok() && probes.ok;
    print_result(
        correct,
        attempted + t_attempted + cat.attempted,
        failed,
        &metrics,
    );
}
