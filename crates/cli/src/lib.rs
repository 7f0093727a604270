//! # conair-cli
//!
//! A command-line driver for the ConAir pipeline over textual IR files:
//!
//! ```text
//! conair-cli print   <file.cir>
//! conair-cli analyze <file.cir> [--fix <marker>]... [--no-optimize] [--no-interproc]
//! conair-cli harden  <file.cir> [--fix <marker>]... [-o <out.cir>]
//! conair-cli run     <file.cir> [--harden] [--threads <f1,f2,...>] [--seed <n>]
//!                    [--steps <n>] [--trace <out.jsonl>] [--trace-depth <n>]
//!                    [--trials <n>] [--jobs <n>] [--scheduler <name>]
//!                    [--replay <trace.json>] [--record <trace.json>]
//! conair-cli explore <file.cir> [--scheduler pct|bounded|dpor] [--budget <n>]
//!                    [--preemptions <k>] [--depth <d>] [--points <mask>]
//!                    [--jobs <n>] [--minimize] [-o <trace.json>]
//!                    [--progress[=<ms>]] [--progress-out <p.jsonl>]
//!                    [--metrics-out <m.prom>]
//! conair-cli verify  <file.cir> [--preemptions <k>] [--budget <n>]
//!                    [--jobs <n>] [-o <trace.json>]
//! conair-cli report  <trace.jsonl | trace.json | report.json> [--limit <n>]
//!                    [--chrome <out.json>]
//! conair-cli stats   <progress.jsonl>
//! ```
//!
//! `run --trace` records the structured [`conair_runtime::TraceEvent`]
//! stream of the run as JSON Lines; `report` renders such a trace as a
//! human-readable timeline plus a metrics summary, and can convert it to
//! Chrome trace-event JSON (`chrome://tracing` / Perfetto) via `--chrome`.
//!
//! `explore` searches the schedule space (PCT, bounded-preemption, or
//! DPOR — dynamic partial-order reduction) for a failing interleaving and
//! writes it as a decision trace, optionally delta-debugged by
//! `--minimize`; `run --replay` re-executes a recorded trace
//! bit-identically, and `run --record` captures any run's schedule.
//! `report` also renders decision traces and `--report-out` JSON.
//! `verify` runs the DPOR search to exhaustion and reports a verdict:
//! VERIFIED under K preemptions, a minimized COUNTEREXAMPLE, or
//! INCONCLUSIVE when the budget runs out first.
//!
//! The exploration observatory watches a search without changing it:
//! `explore --progress` prints a live stderr ticker, `--progress-out`
//! records the sampled [`conair_runtime::TraceEvent::ExploreProgress`] /
//! [`conair_runtime::TraceEvent::ExploreWave`] stream as JSONL (rendered
//! later by `stats` or `report --chrome`), and `--metrics-out` dumps the
//! search's final metrics in Prometheus text format
//! ([`conair_runtime::ExploreObserver::render_prometheus`]).
//! Reports stay bit-identical (modulo wall-clock fields) whether or not
//! any of the three flags are set.
//!
//! The library half holds the (easily testable) command implementations;
//! the binary is a thin argument parser around them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;

use conair::{AnalysisConfig, Conair, SiteSelection};
use conair_ir::{parse_module, validate, validate_hardened, FailureKind, Module};
use conair_runtime::{
    explore_observed, from_jsonl, minimize, run_replay, run_trials, summarize_events,
    to_chrome_trace, to_jsonl, DecisionTrace, EventBuffer, ExploreConfig, ExploreObserver,
    ExploreReport, ExploreStrategy, Machine, MachineConfig, PctConfig, PctScheduler, PointMask,
    Program, RoundRobin, RunOutcome, RunResult, ScheduleScript, Scheduler, SeededRandom,
    TraceEvent, TraceSink,
};

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Default `--trace-depth`: the failing thread's last 16 executed
/// locations are attached to failure reports. The runtime's own default
/// ([`MachineConfig::trace_depth`]) is 0 — location tracing off — so a
/// bare `FailureRecord.trace` stays empty there; the CLI turns it on so
/// `run` failures are diagnosable out of the box.
pub const DEFAULT_TRACE_DEPTH: usize = 16;

/// Default number of timeline lines `report` prints before eliding.
pub const DEFAULT_REPORT_LIMIT: usize = 200;

/// Default milliseconds between `--progress` ticker lines (bare
/// `--progress`; `--progress=<ms>` overrides, 0 samples every wave).
pub const DEFAULT_PROGRESS_INTERVAL_MS: u64 = 500;

/// Options of the `run` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Thread entry function names. Empty = every zero-parameter function
    /// of the module, in module order.
    pub threads: Vec<String>,
    /// Scheduler seed.
    pub seed: u64,
    /// Step limit.
    pub steps: u64,
    /// Harden the module (analysis + transform) before running.
    pub harden: bool,
    /// Fix-mode markers for `--harden` (empty = survival mode).
    pub fix_markers: Vec<String>,
    /// Write a JSONL event trace to this path.
    pub trace: Option<String>,
    /// Per-thread location ring-buffer depth for failure reports.
    pub trace_depth: usize,
    /// Seeded trials to run (seeds `seed..seed+trials`). `1` = the classic
    /// single run; more prints an aggregate summary instead.
    pub trials: usize,
    /// Worker threads for multi-trial runs. Results merge in seed order,
    /// so the summary is identical for any job count.
    pub jobs: usize,
    /// Scheduler: `random` (default, the historical behavior),
    /// `round-robin`, or `pct`.
    pub scheduler: String,
    /// Replay a recorded decision trace (path to a `trace.json` as written
    /// by `explore --out` or `run --record`).
    pub replay: Option<String>,
    /// Record the run's decision trace to this path.
    pub record: Option<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            threads: Vec::new(),
            seed: 0,
            steps: 50_000_000,
            harden: false,
            fix_markers: Vec::new(),
            trace: None,
            trace_depth: DEFAULT_TRACE_DEPTH,
            trials: 1,
            jobs: 1,
            scheduler: "random".into(),
            replay: None,
            record: None,
        }
    }
}

/// Options of the `explore` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Thread entry function names (empty = every zero-parameter function).
    pub threads: Vec<String>,
    /// Search strategy: `pct` or `bounded`.
    pub scheduler: String,
    /// Schedules to execute at most.
    pub budget: usize,
    /// Preemption bound for `bounded`.
    pub preemptions: usize,
    /// Priority-change points for `pct`.
    pub depth: usize,
    /// Decision points: `sync`, `shared` or `all`.
    pub points: String,
    /// Worker threads (results are identical for any job count).
    pub jobs: usize,
    /// Base seed for `pct`.
    pub seed: u64,
    /// Per-schedule step limit.
    pub steps: u64,
    /// Harden the module before exploring.
    pub harden: bool,
    /// Fix-mode markers for `--harden`.
    pub fix_markers: Vec<String>,
    /// Delta-debug the first failing trace before writing it.
    pub minimize: bool,
    /// Keep searching after the first failure (count them all).
    pub keep_going: bool,
    /// Write the first failing (possibly minimized) trace here.
    pub out: Option<String>,
    /// Write the exploration report as JSON here.
    pub report_out: Option<String>,
    /// Retained snapshots in the prefix-sharing tree (0 disables it;
    /// reports are bit-identical at any value).
    pub snapshot_budget: usize,
    /// Print a live progress ticker to stderr, sampled at most every this
    /// many milliseconds (0 = every wave).
    pub progress: Option<u64>,
    /// Record the sampled progress/wave event stream as JSONL here.
    pub progress_out: Option<String>,
    /// Write the search's final metrics in Prometheus text format here.
    pub metrics_out: Option<String>,
    /// Recovery attempts per (thread, site) before a hardened program
    /// gives up (`None` = the machine's one-million default). `verify`
    /// defaults this to 8 so retry loops stay finite-state.
    pub max_retries: Option<u64>,
    /// Sleep a random backoff after *every* rollback, guard retries
    /// included — the fair-runtime retry model (always on under
    /// `verify`, where starving a spinning retry loop would otherwise be
    /// a vacuous counterexample).
    pub retry_backoff: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            threads: Vec::new(),
            scheduler: "pct".into(),
            budget: 256,
            preemptions: 2,
            depth: 3,
            points: "sync".into(),
            jobs: 1,
            seed: 1,
            steps: 50_000_000,
            harden: false,
            fix_markers: Vec::new(),
            minimize: false,
            keep_going: false,
            out: None,
            report_out: None,
            snapshot_budget: 8192,
            progress: None,
            progress_out: None,
            metrics_out: None,
            max_retries: None,
            retry_backoff: false,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Parse, validate and pretty-print.
    Print {
        /// Input path.
        input: String,
    },
    /// Run the static analysis and report sites/points.
    Analyze {
        /// Input path.
        input: String,
        /// Fix-mode markers (empty = survival mode).
        fix_markers: Vec<String>,
        /// Disable the Section-4.2 optimization.
        no_optimize: bool,
        /// Disable Section-4.3 inter-procedural promotion.
        no_interproc: bool,
    },
    /// Analyze + transform; print or write the hardened module.
    Harden {
        /// Input path.
        input: String,
        /// Fix-mode markers (empty = survival mode).
        fix_markers: Vec<String>,
        /// Output path (stdout when absent).
        output: Option<String>,
    },
    /// Execute the program.
    Run {
        /// Input path.
        input: String,
        /// Execution options.
        opts: RunOptions,
    },
    /// Search schedules for a failing interleaving.
    Explore {
        /// Input path.
        input: String,
        /// Exploration options.
        opts: ExploreOptions,
    },
    /// Exhaustively verify the program under a preemption bound (DPOR).
    Verify {
        /// Input path.
        input: String,
        /// Exploration options (`scheduler` is forced to `dpor`).
        opts: ExploreOptions,
    },
    /// Render a JSONL trace, an exploration report or a decision trace.
    Report {
        /// Trace path (JSONL from `run --trace`, JSON from `explore
        /// --report-out` or a recorded decision trace).
        input: String,
        /// Timeline lines to print (0 = all).
        limit: usize,
        /// Also write Chrome trace-event JSON here.
        chrome: Option<String>,
    },
    /// Summarize a recorded exploration progress stream.
    Stats {
        /// Progress stream path (JSONL from `explore --progress-out`).
        input: String,
    },
}

/// Parses `argv[1..]`.
///
/// # Errors
///
/// Returns a usage error on unknown commands or malformed flags.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(|| CliError::new(USAGE))?.as_str();
    let mut input: Option<String> = None;
    let mut fix_markers = Vec::new();
    let mut no_optimize = false;
    let mut no_interproc = false;
    let mut output = None;
    let mut threads = Vec::new();
    let mut seed = 0u64;
    let mut steps = 50_000_000u64;
    let mut harden = false;
    let mut trace: Option<String> = None;
    let mut trace_depth = DEFAULT_TRACE_DEPTH;
    let mut trials = 1usize;
    let mut jobs = 1usize;
    let mut limit = DEFAULT_REPORT_LIMIT;
    let mut chrome: Option<String> = None;
    let mut scheduler: Option<String> = None;
    let mut replay: Option<String> = None;
    let mut record: Option<String> = None;
    let mut budget = 256usize;
    let mut budget_given = false;
    let mut preemptions = 2usize;
    let mut depth = 3usize;
    let mut points: Option<String> = None;
    let mut seed_given = false;
    let mut minimize = false;
    let mut keep_going = false;
    let mut report_out: Option<String> = None;
    let mut snapshot_budget = 8192usize;
    let mut progress: Option<u64> = None;
    let mut progress_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut max_retries: Option<u64> = None;
    let mut retry_backoff = false;

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fix" => fix_markers.push(
                it.next()
                    .ok_or_else(|| CliError::new("--fix needs a marker name"))?
                    .clone(),
            ),
            "--no-optimize" => no_optimize = true,
            "--no-interproc" => no_interproc = true,
            "--harden" => harden = true,
            "-o" | "--output" => {
                output = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("-o needs a path"))?
                        .clone(),
                )
            }
            "--threads" => {
                let list = it
                    .next()
                    .ok_or_else(|| CliError::new("--threads needs a comma-separated list"))?;
                threads = list.split(',').map(str::to_owned).collect();
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError::new("--seed needs a number"))?;
                seed_given = true;
            }
            "--steps" => {
                steps = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError::new("--steps needs a number"))?
            }
            "--trace" => {
                trace = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("--trace needs a path"))?
                        .clone(),
                )
            }
            "--trace-depth" => {
                trace_depth = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError::new("--trace-depth needs a number"))?
            }
            "--trials" => {
                trials = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError::new("--trials needs a number >= 1"))?
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError::new("--jobs needs a number >= 1"))?
            }
            "--limit" => {
                limit = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError::new("--limit needs a number"))?
            }
            "--chrome" => {
                chrome = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("--chrome needs a path"))?
                        .clone(),
                )
            }
            "--scheduler" => {
                scheduler = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("--scheduler needs a name"))?
                        .clone(),
                )
            }
            "--replay" => {
                replay = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("--replay needs a path"))?
                        .clone(),
                )
            }
            "--record" => {
                record = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("--record needs a path"))?
                        .clone(),
                )
            }
            "--budget" => {
                budget = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError::new("--budget needs a number >= 1"))?;
                budget_given = true;
            }
            "--preemptions" => {
                preemptions = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError::new("--preemptions needs a number"))?
            }
            "--depth" => {
                depth = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError::new("--depth needs a number >= 1"))?
            }
            "--points" => {
                points = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("--points needs sync|shared|all"))?
                        .clone(),
                )
            }
            "--minimize" => minimize = true,
            "--keep-going" => keep_going = true,
            "--max-retries" => {
                max_retries = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| CliError::new("--max-retries needs a number"))?,
                )
            }
            "--retry-backoff" => retry_backoff = true,
            "--snapshot-budget" => {
                snapshot_budget = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError::new("--snapshot-budget needs a number (0 disables)"))?
            }
            "--report-out" => {
                report_out = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("--report-out needs a path"))?
                        .clone(),
                )
            }
            "--progress" => progress = Some(DEFAULT_PROGRESS_INTERVAL_MS),
            "--progress-out" => {
                progress_out = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("--progress-out needs a path"))?
                        .clone(),
                )
            }
            "--metrics-out" => {
                metrics_out = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("--metrics-out needs a path"))?
                        .clone(),
                )
            }
            other if other.starts_with("--progress=") => {
                progress =
                    Some(other["--progress=".len()..].parse().map_err(|_| {
                        CliError::new("--progress=<ms> needs a number of milliseconds")
                    })?)
            }
            other if other.starts_with('-') => {
                return Err(CliError::new(format!("unknown flag `{other}`\n{USAGE}")))
            }
            other => {
                if input.is_some() {
                    return Err(CliError::new(format!("unexpected argument `{other}`")));
                }
                input = Some(other.to_owned());
            }
        }
    }
    let input = input.ok_or_else(|| CliError::new(format!("missing input file\n{USAGE}")))?;
    Ok(match cmd {
        "print" => Command::Print { input },
        "analyze" => Command::Analyze {
            input,
            fix_markers,
            no_optimize,
            no_interproc,
        },
        "harden" => Command::Harden {
            input,
            fix_markers,
            output,
        },
        "run" => Command::Run {
            input,
            opts: RunOptions {
                threads,
                seed,
                steps,
                harden,
                fix_markers,
                trace,
                trace_depth,
                trials,
                jobs,
                scheduler: scheduler.unwrap_or_else(|| "random".into()),
                replay,
                record,
            },
        },
        "explore" => Command::Explore {
            input,
            opts: ExploreOptions {
                threads,
                scheduler: scheduler.unwrap_or_else(|| "pct".into()),
                budget,
                preemptions,
                depth,
                points: points.unwrap_or_else(|| "sync".into()),
                jobs,
                seed: if seed_given { seed } else { 1 },
                steps,
                harden,
                fix_markers,
                minimize,
                keep_going,
                out: output,
                report_out,
                snapshot_budget,
                progress,
                progress_out,
                metrics_out,
                max_retries,
                retry_backoff,
            },
        },
        "verify" => Command::Verify {
            input,
            opts: ExploreOptions {
                threads,
                scheduler: "dpor".into(),
                // Exhaustion, not sampling, is the point: verify defaults
                // to a much larger schedule budget than explore.
                budget: if budget_given { budget } else { 65_536 },
                preemptions,
                depth,
                // DPOR needs shared-access decision points anyway.
                points: points.unwrap_or_else(|| "shared".into()),
                jobs,
                seed: if seed_given { seed } else { 1 },
                steps,
                harden,
                fix_markers,
                // A counterexample should come out minimal by default.
                minimize: true,
                keep_going: false,
                out: output,
                report_out,
                snapshot_budget,
                progress,
                progress_out,
                metrics_out,
                // A finite retry cap keeps hardened retry loops
                // finite-state — without one, exhausting a program whose
                // guards retry a million times is hopeless.
                max_retries: Some(max_retries.unwrap_or(8)),
                // Model a fair runtime: a rolled-back thread yields, so
                // the peer it is waiting on can run. Without this every
                // hardened program has a vacuous "scheduler starves the
                // retry loop" counterexample.
                retry_backoff: true,
            },
        },
        "report" => Command::Report {
            input,
            limit,
            chrome,
        },
        "stats" => Command::Stats { input },
        other => return Err(CliError::new(format!("unknown command `{other}`\n{USAGE}"))),
    })
}

/// Usage text.
pub const USAGE: &str =
    "usage: conair-cli <print|analyze|harden|run|explore|verify|report|stats> <file> [options]
  print   <file.cir>                     parse, validate, pretty-print
  analyze <file.cir> [--fix M]... [--no-optimize] [--no-interproc]
  harden  <file.cir> [--fix M]... [-o out.cir]
  run     <file.cir> [--harden [--fix M]...] [--threads f1,f2] [--seed N]
          [--steps N] [--trace out.jsonl] [--trace-depth N]
          [--trials N [--jobs N]] [--scheduler random|round-robin|pct]
          [--replay trace.json] [--record trace.json]
          --threads defaults to every zero-parameter function;
          --trace-depth defaults to 16 (0 disables failure location traces);
          --trials N > 1 runs seeds seed..seed+N and prints an aggregate
          summary; --jobs N spreads the trials over N worker threads,
          at most one per core (the summary is identical for any job
          count);
          --replay re-executes a recorded decision trace bit-identically;
          --record writes the run's decision trace for later --replay
  explore <file.cir> [--harden [--fix M]...] [--threads f1,f2]
          [--scheduler pct|bounded|dpor] [--budget N] [--preemptions K]
          [--depth D] [--points sync|shared|all] [--seed N] [--jobs N]
          [--minimize] [--keep-going] [-o trace.json]
          [--max-retries N] [--retry-backoff]
          [--report-out report.json] [--snapshot-budget N]
          [--progress[=MS]] [--progress-out p.jsonl] [--metrics-out m.prom]
          searches schedules for a failing interleaving; the first failing
          trace is written to -o (delta-debugged first with --minimize);
          --keep-going exhausts the budget and counts every failure;
          --snapshot-budget bounds the prefix-sharing snapshot tree the
          search resumes schedules from (default 8192 CoW images,
          0 disables it; reports are bit-identical at any value; resident
          bytes are additionally capped, so deep trees stay cheap);
          --progress prints a live stderr ticker (sampled every MS ms,
          default 500, 0 = every wave); --progress-out records the
          progress/wave event stream as JSONL for `stats` or `report`;
          --metrics-out writes the search's final metrics in Prometheus
          text format; none of the three changes the search or the report;
          --scheduler dpor explores with dynamic partial-order reduction:
          only schedules that reverse a detected race are generated, so
          small programs exhaust in far fewer schedules than bounded
          (requires shared-access decision points; narrower --points are
          upgraded automatically)
  verify  <file.cir> [--harden [--fix M]...] [--preemptions K]
          [--budget N] [--max-retries N] [--jobs N] [-o trace.json]
          [--report-out r.json]
          exhaustively verifies the program under K preemptions (default
          2) with DPOR and prints a verdict: VERIFIED (search space
          exhausted, no failing interleaving), COUNTEREXAMPLE (a failing
          schedule, minimized and written to -o), or INCONCLUSIVE (budget
          ran out; default 65536 schedules). Accepts every explore flag.
          verify bounds hardened retry loops (--max-retries, default 8)
          and always enables the fair retry-backoff model, so recovery
          code is verified under a runtime where rolled-back threads
          yield instead of spinning
  report  <trace.jsonl|report.json|trace.json> [--limit N]
          [--chrome out.json]
  stats   <progress.jsonl>               summarize a recorded progress
          stream: schedules/throughput, failures, snapshot reuse and the
          self-profiling phase breakdown";

fn load(text: &str) -> Result<Module, CliError> {
    let module = parse_module(text).map_err(|e| CliError::new(format!("parse error: {e}")))?;
    if let Err(errs) = validate(&module) {
        // A hardened module is also acceptable input.
        if validate_hardened(&module).is_err() {
            let mut msg = String::from("validation failed:\n");
            for e in errs.iter().take(10) {
                let _ = writeln!(msg, "  {e}");
            }
            return Err(CliError::new(msg));
        }
    }
    Ok(module)
}

fn pipeline(fix_markers: &[String], no_optimize: bool, no_interproc: bool) -> Conair {
    Conair::with_config(AnalysisConfig {
        selection: if fix_markers.is_empty() {
            SiteSelection::Survival
        } else {
            SiteSelection::Fix(fix_markers.to_vec())
        },
        optimize: !no_optimize,
        interproc_depth: if no_interproc { None } else { Some(3) },
        ..AnalysisConfig::default()
    })
}

/// Executes `print` on module text, returning the report.
pub fn cmd_print(text: &str) -> Result<String, CliError> {
    let module = load(text)?;
    let mut out = module.to_string();
    let _ = writeln!(
        out,
        "; {} functions, {} globals, {} locks, {} instructions",
        module.functions.len(),
        module.globals.len(),
        module.locks.len(),
        module.num_insts()
    );
    Ok(out)
}

/// Executes `analyze` on module text, returning the report.
pub fn cmd_analyze(
    text: &str,
    fix_markers: &[String],
    no_optimize: bool,
    no_interproc: bool,
) -> Result<String, CliError> {
    let module = load(text)?;
    let plan = pipeline(fix_markers, no_optimize, no_interproc).analyze(&module);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mode: {}",
        if fix_markers.is_empty() {
            "survival"
        } else {
            "fix"
        }
    );
    for kind in FailureKind::ALL {
        let n = plan.stats.sites_by_kind.get(&kind).copied().unwrap_or(0);
        let _ = writeln!(out, "{kind} sites: {n}");
    }
    let _ = writeln!(out, "recoverable sites: {}", plan.stats.recoverable_sites);
    let _ = writeln!(
        out,
        "removed by optimization: {} non-deadlock, {} deadlock",
        plan.stats.removed_non_deadlock_sites, plan.stats.removed_deadlock_sites
    );
    let _ = writeln!(
        out,
        "inter-procedural promotions: {}",
        plan.stats.promoted_sites
    );
    let _ = writeln!(out, "reexecution points: {}", plan.stats.static_points);
    for (i, loc) in plan.checkpoints.iter().enumerate() {
        let func = &module.func(loc.func).name;
        let _ = writeln!(out, "  pt{i}: before {func} @ {}:{}", loc.block, loc.inst);
    }
    Ok(out)
}

/// Executes `harden` on module text, returning the hardened module text.
pub fn cmd_harden(text: &str, fix_markers: &[String]) -> Result<String, CliError> {
    let module = load(text)?;
    let pipeline = pipeline(fix_markers, false, false);
    let plan = pipeline.analyze(&module);
    let hardened = conair_transform::harden(module, &plan);
    Ok(hardened.module.to_string())
}

/// Resolves the thread entry names for `run`: the requested names, or
/// every zero-parameter function in module order when none were given.
fn resolve_entries(module: &Module, requested: &[String]) -> Result<Vec<String>, CliError> {
    if requested.is_empty() {
        let defaults: Vec<String> = module
            .functions
            .iter()
            .filter(|f| f.num_params == 0)
            .map(|f| f.name.clone())
            .collect();
        if defaults.is_empty() {
            return Err(CliError::new(
                "run: module has no zero-parameter functions; pass --threads",
            ));
        }
        return Ok(defaults);
    }
    for t in requested {
        let func = module
            .func_by_name(t)
            .ok_or_else(|| CliError::new(format!("run: unknown thread entry `{t}`")))?;
        if module.func(func).num_params != 0 {
            return Err(CliError::new(format!(
                "run: thread entry `{t}` takes parameters; only no-arg entries are runnable"
            )));
        }
    }
    Ok(requested.to_vec())
}

/// Checks the event-count identities between a trace and the run's stats
/// (see the invariants in [`conair_runtime`]'s trace module docs).
fn verify_trace_consistency(events: &[TraceEvent], r: &RunResult) -> Result<(), CliError> {
    let count = |kind: &str| events.iter().filter(|e| e.kind_name() == kind).count() as u64;
    let recovered_sites = r
        .stats
        .site_recovery
        .values()
        .filter(|s| s.recovered_step.is_some())
        .count() as u64;
    let checks = [
        ("checkpoint", r.stats.checkpoints),
        ("rollback", r.stats.rollbacks),
        ("failure-detected", r.stats.total_retries()),
        ("recovery-completed", recovered_sites),
    ];
    for (kind, expected) in checks {
        let got = count(kind);
        if got != expected {
            return Err(CliError::new(format!(
                "trace inconsistency: {got} `{kind}` events but run stats say {expected}"
            )));
        }
    }
    Ok(())
}

/// Builds a named scheduler for `run`.
fn make_scheduler(name: &str, seed: u64) -> Result<Box<dyn Scheduler>, CliError> {
    Ok(match name {
        "random" | "seeded-random" => Box::new(SeededRandom::new(seed)),
        "round-robin" => Box::new(RoundRobin::new()),
        "pct" => Box::new(PctScheduler::new(seed, PctConfig::default())),
        other => {
            return Err(CliError::new(format!(
                "run: unknown scheduler `{other}` (expected random, round-robin or pct)"
            )))
        }
    })
}

/// Executes `run` on module text. Returns the report and the output files
/// to write as `(path, contents)` pairs (the `--trace` JSONL and/or the
/// `--record` decision trace). `replay_json` must carry the decision-trace
/// text when [`RunOptions::replay`] is set.
pub fn cmd_run(
    text: &str,
    opts: &RunOptions,
    replay_json: Option<&str>,
) -> Result<(String, Vec<(String, String)>), CliError> {
    let module = load(text)?;
    let entries = resolve_entries(&module, &opts.threads)?;
    let names: Vec<&str> = entries.iter().map(String::as_str).collect();
    let mut program = Program::from_entry_names(module, &names);
    let mut out = String::new();
    let mut files: Vec<(String, String)> = Vec::new();

    if opts.harden {
        let (hardened, spans) = pipeline(&opts.fix_markers, false, false).harden_timed(&program);
        let _ = writeln!(
            out,
            "hardened: {} recoverable sites, {} reexecution points",
            hardened.plan.stats.recoverable_sites, hardened.plan.stats.static_points
        );
        let _ = writeln!(out, "phases: {}", spans.render());
        program = hardened.program;
    }

    let config = MachineConfig {
        step_limit: opts.steps,
        trace_depth: opts.trace_depth,
        record_decisions: opts.record.is_some(),
        ..MachineConfig::default()
    };

    if opts.replay.is_some() {
        if opts.trials > 1 {
            return Err(CliError::new(
                "run: --replay re-executes a single run; use --trials 1",
            ));
        }
        if opts.trace.is_some() {
            return Err(CliError::new("run: --replay cannot record a --trace"));
        }
        if opts.scheduler != "random" {
            return Err(CliError::new(
                "run: --replay follows the recorded trace; --scheduler does not apply",
            ));
        }
        let json = replay_json.expect("execute reads the --replay file");
        let trace = DecisionTrace::from_json(json)
            .map_err(|e| CliError::new(format!("run: bad replay trace: {e}")))?;
        let _ = writeln!(
            out,
            "replaying {} decisions recorded by {} (seed {}, points {}, hash {:#018x})",
            trace.len(),
            trace.scheduler,
            trace.seed,
            trace.point_mask().name(),
            trace.hash()
        );
        let (r, divergence) = run_replay(&program, &config, &trace);
        if let Some(d) = &divergence {
            let _ = writeln!(out, "WARNING: replay diverged: {d}");
        }
        render_outcome(&mut out, &program, &r, opts.steps);
        finish_recording(&mut out, &mut files, opts, r.decisions)?;
        return Ok((out, files));
    }

    if opts.trials > 1 {
        if opts.scheduler != "random" {
            return Err(CliError::new(
                "run: --trials aggregates seeded random runs; use --trials 1 with --scheduler",
            ));
        }
        if opts.record.is_some() {
            return Err(CliError::new(
                "run: --record captures a single run; use --trials 1",
            ));
        }
        if opts.trace.is_some() {
            return Err(CliError::new(
                "run: --trace records a single run; use --trials 1",
            ));
        }
        let s = run_trials(
            &program,
            &config,
            &ScheduleScript::none(),
            opts.seed,
            opts.trials,
            opts.jobs,
        );
        let _ = writeln!(
            out,
            "trials: {} (seeds {}..{}, {} jobs)",
            s.trials,
            opts.seed,
            opts.seed + opts.trials as u64,
            opts.jobs.max(1)
        );
        let _ = writeln!(
            out,
            "outcomes: {} completed, {} failed, {} hung, {} step-limited",
            s.completed, s.failed, s.hung, s.step_limited
        );
        let _ = writeln!(
            out,
            "mean insts/run: {:.1}, mean retries/run: {:.2}",
            s.mean_insts, s.mean_retries
        );
        if let Some(max) = s.max_recovery_steps {
            let _ = writeln!(out, "max recovery steps: {max}");
        }
        let _ = writeln!(out, "retries per run: {}", s.retries_hist.summary());
        let _ = writeln!(
            out,
            "recovery latency (steps): {}",
            s.recovery_hist.summary()
        );
        let _ = writeln!(out, "checkpoints per run: {}", s.checkpoints_hist.summary());
        let _ = writeln!(
            out,
            "undo depth per rollback (regs): {}",
            s.undo_depth_hist.summary()
        );
        return Ok((out, files));
    }

    let buffer = EventBuffer::new();
    let mut sched = make_scheduler(&opts.scheduler, opts.seed)?;
    let mut machine = Machine::new(&program, config);
    if opts.trace.is_some() {
        machine = machine.with_sink(Box::new(buffer.clone()));
    }
    let r = machine.run(sched.as_mut());

    render_outcome(&mut out, &program, &r, opts.steps);
    if r.stats.rollbacks > 0 {
        let _ = writeln!(
            out,
            "recovery: {} rollbacks, {} retries",
            r.stats.rollbacks,
            r.stats.total_retries()
        );
        let _ = writeln!(
            out,
            "recovery latency (steps): {}",
            r.stats.rollback_latency.summary()
        );
    }
    if !r.stats.lock_waits.is_empty() {
        let _ = writeln!(out, "lock waits (steps): {}", r.stats.lock_waits.summary());
    }

    if let Some(path) = &opts.trace {
        let events = buffer.take();
        verify_trace_consistency(&events, &r)?;
        let _ = writeln!(
            out,
            "trace: {} events (checkpoint/rollback/recovery counts match run stats)",
            events.len()
        );
        files.push((path.clone(), to_jsonl(&events)));
    }
    finish_recording(&mut out, &mut files, opts, r.decisions)?;
    Ok((out, files))
}

/// Appends the outcome/output section of a run report.
fn render_outcome(out: &mut String, program: &Program, r: &RunResult, steps: u64) {
    match &r.outcome {
        RunOutcome::Completed => {
            let _ = writeln!(out, "completed in {} steps", r.stats.steps);
        }
        RunOutcome::Failed(f) => {
            let _ = writeln!(
                out,
                "FAILED ({}) in thread {} at step {}: {}",
                f.kind, f.thread, f.step, f.msg
            );
            for (step, loc) in &f.trace {
                let func = &program.module.func(loc.func).name;
                let _ = writeln!(out, "  step {step}: {func} @ {}:{}", loc.block, loc.inst);
            }
        }
        RunOutcome::Hang { blocked_on_locks } => {
            let _ = writeln!(out, "HANG: {blocked_on_locks} threads blocked on locks");
            if let Some(cycle) = conair_runtime::find_wait_cycle(&r.stats.wait_edges) {
                let _ = writeln!(out, "wait cycle: {cycle}");
            }
        }
        RunOutcome::StepLimit => {
            let _ = writeln!(out, "step limit ({steps}) reached");
        }
    }
    for o in &r.outputs {
        let _ = writeln!(out, "output [{}] {} = {}", o.thread, o.label, o.value);
    }
}

/// Writes the recorded decision trace to the `--record` path (stamping
/// the CLI seed into it) and reports it.
fn finish_recording(
    out: &mut String,
    files: &mut Vec<(String, String)>,
    opts: &RunOptions,
    decisions: Option<DecisionTrace>,
) -> Result<(), CliError> {
    let Some(path) = &opts.record else {
        return Ok(());
    };
    let mut trace = decisions.ok_or_else(|| {
        CliError::new("run: --record produced no decision trace (internal error)")
    })?;
    trace.seed = opts.seed;
    let _ = writeln!(
        out,
        "recorded {} decisions (hash {:#018x})",
        trace.len(),
        trace.hash()
    );
    files.push((path.clone(), trace.to_json()));
    Ok(())
}

/// A [`TraceSink`] rendering [`TraceEvent::ExploreProgress`] samples as a
/// live stderr ticker (`explore --progress`).
struct ProgressTicker;

impl TraceSink for ProgressTicker {
    fn record(&mut self, event: TraceEvent) {
        if let TraceEvent::ExploreProgress {
            step,
            schedules,
            budget,
            failures,
            frontier,
            snapshot_nodes,
            resident_bytes,
            steps_saved,
            wave,
            ..
        } = event
        {
            eprintln!(
                "[explore {step:>6} ms] wave {wave}: {schedules}/{budget} schedules, \
                 {failures} failures, frontier {frontier}, {snapshot_nodes} snapshots \
                 ({} KiB resident), {steps_saved} steps saved",
                resident_bytes / 1024
            );
        }
    }
}

/// Fans one event stream out to several sinks.
struct Tee(Vec<Box<dyn TraceSink>>);

impl Tee {
    /// The cheapest sink equivalent to `sinks`: `None` for zero, the sink
    /// itself for one, a `Tee` otherwise.
    fn flatten(mut sinks: Vec<Box<dyn TraceSink>>) -> Option<Box<dyn TraceSink>> {
        match sinks.len() {
            0 => None,
            1 => sinks.pop(),
            _ => Some(Box::new(Tee(sinks))),
        }
    }
}

impl TraceSink for Tee {
    fn record(&mut self, event: TraceEvent) {
        for sink in &mut self.0 {
            sink.record(event.clone());
        }
    }
}

/// Executes `explore` on module text. Returns the report text and the
/// output files to write as `(path, contents)` pairs.
pub fn cmd_explore(
    text: &str,
    opts: &ExploreOptions,
) -> Result<(String, Vec<(String, String)>), CliError> {
    let (out, files, _) = explore_inner(text, opts)?;
    Ok((out, files))
}

/// The shared engine of `explore` and `verify`: runs the search and
/// returns the rendered text, the files to write, and the report (which
/// `verify` turns into a verdict).
#[allow(clippy::type_complexity)]
fn explore_inner(
    text: &str,
    opts: &ExploreOptions,
) -> Result<(String, Vec<(String, String)>, ExploreReport), CliError> {
    let module = load(text)?;
    let entries = resolve_entries(&module, &opts.threads)?;
    let names: Vec<&str> = entries.iter().map(String::as_str).collect();
    let mut program = Program::from_entry_names(module, &names);
    let mut out = String::new();
    let mut files: Vec<(String, String)> = Vec::new();

    if opts.harden {
        let hardened = pipeline(&opts.fix_markers, false, false).harden(&program);
        let _ = writeln!(
            out,
            "hardened: {} recoverable sites, {} reexecution points",
            hardened.plan.stats.recoverable_sites, hardened.plan.stats.static_points
        );
        program = hardened.program;
    }

    let strategy = match opts.scheduler.as_str() {
        "pct" => ExploreStrategy::Pct { depth: opts.depth },
        "bounded" => ExploreStrategy::Bounded {
            preemptions: opts.preemptions,
        },
        "dpor" => ExploreStrategy::Dpor {
            preemptions: opts.preemptions,
        },
        other => {
            return Err(CliError::new(format!(
                "explore: unknown scheduler `{other}` (expected pct, bounded or dpor)"
            )))
        }
    };
    let mask = PointMask::parse(&opts.points).ok_or_else(|| {
        CliError::new(format!(
            "explore: unknown --points `{}` (expected sync, shared or all)",
            opts.points
        ))
    })?;
    if matches!(strategy, ExploreStrategy::Dpor { .. })
        && !mask.contains(conair_runtime::PointKind::SharedAccess)
    {
        // The engine upgrades the mask itself; tell the user up front.
        let _ = writeln!(
            out,
            "note: dpor requires shared-access decision points; --points {} upgraded",
            mask.name()
        );
    }
    let mut config = MachineConfig {
        step_limit: opts.steps,
        retry_backoff: opts.retry_backoff,
        ..MachineConfig::default()
    };
    if let Some(cap) = opts.max_retries {
        config.max_retries = cap;
    }
    if opts.retry_backoff || opts.max_retries.is_some() {
        let _ = writeln!(
            out,
            "retry model: cap {}, backoff {}",
            config.max_retries,
            if config.retry_backoff { "on" } else { "off" }
        );
    }
    let mut ec = ExploreConfig::new(strategy);
    ec.mask = mask;
    ec.budget = opts.budget;
    ec.jobs = opts.jobs;
    ec.seed = opts.seed;
    ec.stop_at_first = !opts.keep_going;
    ec.snapshot_budget = opts.snapshot_budget;

    // The observatory: construct an observer only when asked, so the plain
    // path keeps the zero-cost discipline.
    let observing =
        opts.progress.is_some() || opts.progress_out.is_some() || opts.metrics_out.is_some();
    let buffer = EventBuffer::new();
    let mut observer = if observing {
        let mut obs = ExploreObserver::new();
        if let Some(ms) = opts.progress {
            obs = obs.with_interval_ms(ms);
        }
        let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
        if opts.progress_out.is_some() {
            sinks.push(Box::new(buffer.clone()));
        }
        if opts.progress.is_some() {
            sinks.push(Box::new(ProgressTicker));
        }
        if let Some(sink) = Tee::flatten(sinks) {
            obs = obs.with_sink(sink);
        }
        Some(obs)
    } else {
        None
    };
    let mut report = explore_observed(&program, &config, &ec, observer.as_mut());
    let _ = writeln!(
        out,
        "explored {} schedules ({}, points {}, budget {}, {} jobs)",
        report.schedules,
        report.strategy,
        PointMask::from_bits(report.mask).name(),
        report.budget,
        opts.jobs
    );
    let _ = writeln!(
        out,
        "failures: {} ({:.1} per 1k schedules)",
        report.failures,
        report.failures_per_1k()
    );
    match &report.first_failure {
        Some(found) => {
            let _ = writeln!(
                out,
                "first failure: schedule #{}, {} decisions, outcome {}",
                found.index,
                found.trace.len(),
                found.outcome.label()
            );
            if let RunOutcome::Failed(f) = &found.outcome {
                let _ = writeln!(out, "  {} in thread {}: {}", f.kind, f.thread, f.msg);
            }
            let _ = writeln!(out, "trace hash: {:#018x}", found.trace.hash());
            let final_trace = if opts.minimize {
                let minimize_start = std::time::Instant::now();
                let min = minimize(&program, &config, &found.trace, opts.budget)
                    .map_err(|e| CliError::new(format!("explore: minimize failed: {e}")))?;
                report.phases.minimize_us += minimize_start.elapsed().as_micros() as u64;
                let plural = if min.minimized_preemptions == 1 {
                    ""
                } else {
                    "s"
                };
                let _ = writeln!(
                    out,
                    "minimized: {} -> {} decisions, {} -> {} deviations ({} preemption{plural}), \
                     {} candidate replays",
                    min.original_len,
                    min.minimized_len,
                    min.original_deviations,
                    min.minimized_deviations,
                    min.minimized_preemptions,
                    min.candidates
                );
                min.trace
            } else {
                found.trace.clone()
            };
            if let Some(path) = &opts.out {
                files.push((path.clone(), final_trace.to_json()));
                let _ = writeln!(out, "replay with: run --replay {path}");
            }
        }
        None => {
            let _ = writeln!(out, "no failing schedule found within the budget");
            if report.exhausted {
                let _ = writeln!(
                    out,
                    "(search space exhausted: every schedule within {} preemptions ran)",
                    opts.preemptions
                );
            }
        }
    }
    let d = &report.dpor;
    if d.races_detected > 0 || d.backtrack_points > 0 || d.sleep_skips > 0 {
        let _ = writeln!(
            out,
            "dpor: {} races detected, {} backtrack points, {} sleep-set skips",
            d.races_detected, d.backtrack_points, d.sleep_skips
        );
    }
    if report.snapshots_taken > 0 || report.snapshot_hits > 0 {
        let _ = writeln!(
            out,
            "snapshot tree: {} taken, {} schedules resumed, {} steps saved",
            report.snapshots_taken, report.snapshot_hits, report.steps_saved
        );
    }
    if report.dedup_skips > 0 || report.independence_skips > 0 {
        let _ = writeln!(
            out,
            "pruned: {} duplicate traces, {} independent alternatives",
            report.dedup_skips, report.independence_skips
        );
    }
    if report.phases.total_us() > 0 {
        let p = &report.phases;
        let _ = writeln!(
            out,
            "phases (us): capture {}, restore {}, interpret {}, merge {}, minimize {}",
            p.capture_us, p.restore_us, p.interpret_us, p.merge_us, p.minimize_us
        );
    }
    let _ = writeln!(out, "wall time: {} ms", report.wall_ms);

    if let Some(path) = &opts.report_out {
        let json = serde_json::to_string_pretty(&report).expect("explore report serializes");
        files.push((path.clone(), json));
    }
    if let Some(path) = &opts.metrics_out {
        let obs = observer.as_ref().expect("--metrics-out builds an observer");
        files.push((path.clone(), obs.render_prometheus(&report)));
    }
    if let Some(path) = &opts.progress_out {
        files.push((path.clone(), to_jsonl(&buffer.take())));
    }
    Ok((out, files, report))
}

/// The engine of the `verify` subcommand: an exhaustive DPOR search with
/// stop-at-first-counterexample, rendered as a verdict.
///
/// * **verified** — the frontier drained with no failing schedule: every
///   interleaving within the preemption budget ran (modulo provably
///   equivalent reorderings of independent steps).
/// * **counterexample** — a failing schedule was found; it is minimized
///   (when `--minimize`, the default) and written to `-o`.
/// * **inconclusive** — the schedule budget ran out first.
pub fn cmd_verify(
    text: &str,
    opts: &ExploreOptions,
) -> Result<(String, Vec<(String, String)>), CliError> {
    let mut opts = opts.clone();
    opts.scheduler = "dpor".into();
    // A single counterexample settles the verdict.
    opts.keep_going = false;
    let (mut out, files, report) = explore_inner(text, &opts)?;
    match (&report.first_failure, report.exhausted) {
        (Some(found), _) => {
            let _ = writeln!(
                out,
                "verdict: COUNTEREXAMPLE — schedule #{} fails ({} decisions{})",
                found.index,
                found.trace.len(),
                if opts.minimize {
                    ", minimized above"
                } else {
                    ""
                }
            );
        }
        (None, true) => {
            let _ = writeln!(
                out,
                "verdict: VERIFIED under {} preemptions — {} schedules, depth {} decisions, \
                 no failing interleaving",
                opts.preemptions, report.schedules, report.probe_decisions
            );
        }
        (None, false) => {
            let _ = writeln!(
                out,
                "verdict: INCONCLUSIVE — budget exhausted with {} prefixes unexplored \
                 (raise --budget)",
                report.frontier
            );
        }
    }
    Ok((out, files))
}

/// Renders an exploration report (`explore --report-out` JSON).
fn render_explore_report(report: &ExploreReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "exploration report:");
    let _ = writeln!(out, "  strategy: {}", report.strategy);
    let _ = writeln!(
        out,
        "  points: {}",
        PointMask::from_bits(report.mask).name()
    );
    let _ = writeln!(
        out,
        "  schedules: {} (budget {})",
        report.schedules, report.budget
    );
    let _ = writeln!(
        out,
        "  failures: {} ({:.1} per 1k schedules)",
        report.failures,
        report.failures_per_1k()
    );
    match (&report.first_failure, report.first_failure_depth()) {
        (Some(found), Some(depth)) => {
            let _ = writeln!(
                out,
                "  first failure: schedule #{}, depth {} decisions, outcome {}",
                found.index,
                depth,
                found.outcome.label()
            );
            let _ = writeln!(out, "  trace hash: {:#018x}", found.trace.hash());
        }
        _ => {
            let _ = writeln!(out, "  first failure: none");
        }
    }
    if report.frontier > 0 {
        let _ = writeln!(out, "  unexplored frontier: {} prefixes", report.frontier);
    }
    let _ = writeln!(out, "  probe decisions: {}", report.probe_decisions);
    if report.snapshots_taken > 0 || report.snapshot_hits > 0 {
        let _ = writeln!(
            out,
            "  snapshot tree: {} taken, {} hits, {} steps saved",
            report.snapshots_taken, report.snapshot_hits, report.steps_saved
        );
    }
    if report.dedup_skips > 0 || report.independence_skips > 0 {
        let _ = writeln!(
            out,
            "  pruned: {} duplicate traces, {} independent alternatives",
            report.dedup_skips, report.independence_skips
        );
    }
    let d = &report.dpor;
    if d.races_detected > 0 || d.backtrack_points > 0 || d.sleep_skips > 0 {
        let _ = writeln!(
            out,
            "  dpor: {} races detected, {} backtrack points, {} sleep-set skips",
            d.races_detected, d.backtrack_points, d.sleep_skips
        );
    }
    if report.exhausted {
        let _ = writeln!(out, "  exhausted: search space fully explored");
    }
    if report.phases.total_us() > 0 {
        let p = &report.phases;
        let _ = writeln!(
            out,
            "  phases (us): capture {}, restore {}, interpret {}, merge {}, minimize {}",
            p.capture_us, p.restore_us, p.interpret_us, p.merge_us, p.minimize_us
        );
    }
    let _ = writeln!(out, "  wall time: {} ms", report.wall_ms);
    out
}

/// Renders a recorded decision trace (`run --record` / `explore -o` JSON).
fn render_decision_trace(trace: &DecisionTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "decision trace:");
    let _ = writeln!(
        out,
        "  scheduler: {} (seed {})",
        trace.scheduler, trace.seed
    );
    let _ = writeln!(out, "  points: {}", trace.point_mask().name());
    let _ = writeln!(out, "  decisions: {}", trace.len());
    let _ = writeln!(out, "  hash: {:#018x}", trace.hash());
    let mut by_thread: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
    for &d in &trace.decisions {
        *by_thread.entry(d).or_insert(0) += 1;
    }
    for (thread, picks) in by_thread {
        let _ = writeln!(out, "  thread {thread}: {picks} picks");
    }
    let _ = writeln!(out, "replay with: run --replay <this file>");
    out
}

/// One timeline line for an event.
fn render_event(e: &TraceEvent) -> String {
    use TraceEvent::*;
    let body = match e {
        ThreadStarted { thread, name, .. } => format!("{thread} started ({name})"),
        ThreadFinished { thread, .. } => format!("{thread} finished"),
        ContextSwitch {
            from: Some(f),
            to,
            eligible,
            ..
        } => format!("switch {f} -> {to} ({eligible} eligible)"),
        ContextSwitch { to, eligible, .. } => format!("schedule {to} ({eligible} eligible)"),
        LockWait {
            thread,
            lock,
            owner,
            ..
        } => match owner {
            Some(o) => format!("{thread} waits on {lock} (held by {o})"),
            None => format!("{thread} waits on {lock}"),
        },
        LockAcquired {
            thread,
            lock,
            timed,
            waited,
            ..
        } => {
            let kind = if *timed { "timed lock" } else { "lock" };
            if *waited > 0 {
                format!("{thread} acquired {lock} ({kind}, waited {waited} steps)")
            } else {
                format!("{thread} acquired {lock} ({kind})")
            }
        }
        LockReleased { thread, lock, .. } => format!("{thread} released {lock}"),
        LockTimeout {
            thread,
            lock,
            site,
            waited,
            ..
        } => format!("{thread} TIMED OUT on {lock} after {waited} steps ({site})"),
        CheckpointSaved {
            thread,
            epoch,
            reexecution,
            ..
        } => {
            if *reexecution {
                format!("{thread} checkpoint (epoch {epoch}, reexecution)")
            } else {
                format!("{thread} checkpoint (epoch {epoch})")
            }
        }
        FailureDetected {
            thread, site, kind, ..
        } => format!("{thread} FAILURE at {site}: {kind}"),
        CompensationFree { thread, base, .. } => {
            format!("{thread} compensation: free {base:#x}")
        }
        CompensationUnlock { thread, lock, .. } => {
            format!("{thread} compensation: unlock {lock}")
        }
        RolledBack {
            thread,
            site,
            retry,
            undo_restored,
            regs_undone,
            ..
        } => {
            if *undo_restored > 0 {
                format!(
                    "{thread} ROLLBACK for {site} (retry {retry}, {regs_undone} regs undone, \
                     {undo_restored} undo records)"
                )
            } else {
                format!("{thread} ROLLBACK for {site} (retry {retry}, {regs_undone} regs undone)")
            }
        }
        RecoveryExhausted {
            thread, site, kind, ..
        } => format!("{thread} recovery EXHAUSTED at {site}: {kind}"),
        BackoffSleep { thread, until, .. } => {
            format!("{thread} backoff until step {until}")
        }
        RecoveryCompleted {
            thread,
            site,
            retries,
            latency,
            ..
        } => format!("{thread} RECOVERED {site} after {retries} retries ({latency} steps)"),
        ScheduleInfo {
            scheduler,
            decisions,
            trace_hash,
            ..
        } => format!(
            "schedule recorded: {scheduler}, {decisions} decisions, hash {trace_hash:#018x}"
        ),
        RunEnded { outcome, .. } => format!("run ended: {outcome}"),
        // For explore events `step` is elapsed milliseconds, not a machine
        // step — the timeline prefix still orders them correctly.
        ExploreProgress {
            schedules,
            budget,
            failures,
            frontier,
            wave,
            ..
        } => format!(
            "explore progress: wave {wave}, {schedules}/{budget} schedules, \
             {failures} failures, frontier {frontier}"
        ),
        ExploreWave {
            wave,
            width,
            executed,
            wall_us,
            ..
        } => format!("explore wave {wave}: {executed}/{width} schedules in {wall_us} us"),
    };
    format!("  step {:>7}  {body}", e.step())
}

/// Executes `report` on JSONL trace text. Returns the rendered report and,
/// when `chrome` is requested, the Chrome trace-event JSON.
pub fn cmd_report(
    jsonl: &str,
    limit: usize,
    chrome: bool,
) -> Result<(String, Option<String>), CliError> {
    // A report input may be one of three formats: an exploration report
    // (`explore --report-out`), a recorded decision trace (`run --record`
    // / `explore -o`), or the default JSONL event stream (`run --trace`).
    // The JSON documents are whole-text objects that fail JSONL parsing,
    // so try them first.
    let as_report = serde_json::from_str::<ExploreReport>(jsonl);
    if let Ok(report) = as_report {
        if chrome {
            return Err(CliError::new(
                "report: --chrome needs a JSONL event trace, not an exploration report",
            ));
        }
        return Ok((render_explore_report(&report), None));
    }
    if serde_json::from_str::<DecisionTrace>(jsonl).is_ok() {
        let trace =
            DecisionTrace::from_json(jsonl).map_err(|e| CliError::new(format!("report: {e}")))?;
        if chrome {
            return Err(CliError::new(
                "report: --chrome needs a JSONL event trace, not a decision trace",
            ));
        }
        return Ok((render_decision_trace(&trace), None));
    }
    let events = from_jsonl(jsonl).map_err(|e| {
        // One JSON object that is no report, trace or event stream is most
        // likely a report of another schema: name its first missing field
        // rather than a JSONL parse position.
        match (&as_report, serde_json::from_str::<serde_json::Value>(jsonl)) {
            (Err(why), Ok(serde_json::Value::Object(_))) => {
                CliError::new(format!("not an exploration report: {why}"))
            }
            _ => CliError::new(format!("trace parse error: {e}")),
        }
    })?;
    let mut out = String::new();
    let _ = writeln!(out, "timeline ({} events):", events.len());
    let shown = if limit == 0 {
        events.len()
    } else {
        limit.min(events.len())
    };
    for e in &events[..shown] {
        let _ = writeln!(out, "{}", render_event(e));
    }
    if shown < events.len() {
        let _ = writeln!(
            out,
            "  ... {} more events (raise --limit, or --limit 0 for all)",
            events.len() - shown
        );
    }

    let m = summarize_events(&events);
    let _ = writeln!(out, "\nmetrics:");
    let _ = writeln!(
        out,
        "  checkpoints: {} ({} first-time, {} reexecutions)",
        m.checkpoints,
        m.checkpoints - m.checkpoint_reexecutions,
        m.checkpoint_reexecutions
    );
    if m.site_recovery.is_empty() {
        let _ = writeln!(out, "  retries: none");
    } else {
        let _ = writeln!(out, "  retries by site:");
        let mut sites: Vec<_> = m.site_recovery.iter().collect();
        sites.sort_unstable_by_key(|(site, _)| **site);
        for (site, rec) in sites {
            let _ = writeln!(out, "    {site}: {}", rec.retries);
        }
    }
    let _ = writeln!(
        out,
        "  recovery latency (steps): {}",
        m.rollback_latency.summary()
    );
    let _ = writeln!(
        out,
        "  undo depth per rollback (regs): {}",
        m.undo_depth.summary()
    );
    let _ = writeln!(out, "  lock waits (steps): {}", m.lock_waits.summary());
    let _ = writeln!(
        out,
        "  compensation: {} frees, {} unlocks",
        m.compensation_frees, m.compensation_unlocks
    );
    let _ = writeln!(out, "  context switches: {}", m.context_switches);
    let schedule = events.iter().rev().find_map(|e| match e {
        TraceEvent::ScheduleInfo {
            decisions,
            trace_hash,
            ..
        } => Some((*decisions, *trace_hash)),
        _ => None,
    });
    if let Some((decisions, hash)) = schedule.filter(|&(decisions, _)| decisions > 0) {
        let _ = writeln!(out, "  schedule: {decisions} decisions, hash {hash:#018x}");
    }

    let chrome_json = if chrome {
        let value = to_chrome_trace(&events);
        Some(serde_json::to_string(&value).expect("chrome trace serializes"))
    } else {
        None
    };
    Ok((out, chrome_json))
}

/// Executes `stats` on a recorded exploration progress stream (`explore
/// --progress-out` JSONL), returning the summary text.
///
/// # Errors
///
/// Fails on unparseable input and on streams without exploration events
/// (e.g. a `run --trace` JSONL).
pub fn cmd_stats(jsonl: &str) -> Result<String, CliError> {
    let events = from_jsonl(jsonl).map_err(|e| CliError::new(format!("trace parse error: {e}")))?;
    let mut wave_count = 0u64;
    let mut progress_count = 0u64;
    let mut executed = 0u64;
    let mut widths: Vec<u64> = Vec::new();
    let mut elapsed_ms = 0u64;
    let (mut capture, mut restore, mut interpret, mut merge) = (0u64, 0u64, 0u64, 0u64);
    let mut last_progress: Option<&TraceEvent> = None;
    for e in &events {
        match e {
            TraceEvent::ExploreWave {
                step,
                width,
                executed: ex,
                capture_us,
                restore_us,
                interpret_us,
                merge_us,
                ..
            } => {
                wave_count += 1;
                executed += ex;
                widths.push(*width);
                elapsed_ms = elapsed_ms.max(*step);
                capture += capture_us;
                restore += restore_us;
                interpret += interpret_us;
                merge += merge_us;
            }
            TraceEvent::ExploreProgress { step, .. } => {
                progress_count += 1;
                elapsed_ms = elapsed_ms.max(*step);
                last_progress = Some(e);
            }
            _ => {}
        }
    }
    if wave_count == 0 && progress_count == 0 {
        return Err(CliError::new(
            "stats: no exploration events in input (record a stream with \
             `explore --progress-out p.jsonl`)",
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exploration stream: {wave_count} waves, {progress_count} progress samples, \
         {elapsed_ms} ms"
    );
    if let Some(TraceEvent::ExploreProgress {
        schedules,
        budget,
        failures,
        first_failure,
        frontier,
        snapshot_nodes,
        resident_bytes,
        steps_saved,
        ..
    }) = last_progress
    {
        let _ = writeln!(out, "schedules: {schedules} of {budget} budget");
        if elapsed_ms > 0 {
            let _ = writeln!(
                out,
                "throughput: {:.1} schedules/s",
                *schedules as f64 * 1000.0 / elapsed_ms as f64
            );
        }
        match first_failure {
            Some(first) => {
                let _ = writeln!(out, "failures: {failures} (first at schedule #{first})");
            }
            None => {
                let _ = writeln!(out, "failures: {failures}");
            }
        }
        let _ = writeln!(
            out,
            "frontier: {frontier} prefixes, snapshot tree: {snapshot_nodes} nodes \
             ({} KiB resident), {steps_saved} steps saved",
            resident_bytes / 1024
        );
    }
    if wave_count > 0 {
        let _ = writeln!(
            out,
            "waves: {} executed over {} waves, width {}..{}",
            executed,
            wave_count,
            widths.iter().min().copied().unwrap_or(0),
            widths.iter().max().copied().unwrap_or(0)
        );
    }
    let attributed = capture + restore + interpret + merge;
    if attributed > 0 {
        let pct = |v: u64| 100.0 * v as f64 / attributed as f64;
        let _ = writeln!(out, "phase breakdown ({attributed} us attributed):");
        let _ = writeln!(out, "  capture:   {capture:>10} us ({:.1}%)", pct(capture));
        let _ = writeln!(out, "  restore:   {restore:>10} us ({:.1}%)", pct(restore));
        let _ = writeln!(
            out,
            "  interpret: {interpret:>10} us ({:.1}%)",
            pct(interpret)
        );
        let _ = writeln!(out, "  merge:     {merge:>10} us ({:.1}%)", pct(merge));
    }
    Ok(out)
}

/// Dispatches a parsed command, reading/writing files as needed.
///
/// # Errors
///
/// Propagates I/O, parse and execution errors.
pub fn execute(command: &Command) -> Result<String, CliError> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::new(format!("cannot read `{path}`: {e}")))
    };
    let write = |path: &str, text: &str| {
        std::fs::write(path, text).map_err(|e| CliError::new(format!("cannot write `{path}`: {e}")))
    };
    match command {
        Command::Print { input } => cmd_print(&read(input)?),
        Command::Analyze {
            input,
            fix_markers,
            no_optimize,
            no_interproc,
        } => cmd_analyze(&read(input)?, fix_markers, *no_optimize, *no_interproc),
        Command::Harden {
            input,
            fix_markers,
            output,
        } => {
            let hardened = cmd_harden(&read(input)?, fix_markers)?;
            match output {
                Some(path) => {
                    write(path, &hardened)?;
                    Ok(format!("wrote hardened module to {path}\n"))
                }
                None => Ok(hardened),
            }
        }
        Command::Run { input, opts } => {
            let replay_json = match &opts.replay {
                Some(path) => Some(read(path)?),
                None => None,
            };
            let (mut report, files) = cmd_run(&read(input)?, opts, replay_json.as_deref())?;
            for (path, text) in &files {
                write(path, text)?;
                let _ = writeln!(report, "wrote {path}");
            }
            Ok(report)
        }
        Command::Explore { input, opts } => {
            let (mut report, files) = cmd_explore(&read(input)?, opts)?;
            for (path, text) in &files {
                write(path, text)?;
                let _ = writeln!(report, "wrote {path}");
            }
            Ok(report)
        }
        Command::Verify { input, opts } => {
            let (mut report, files) = cmd_verify(&read(input)?, opts)?;
            for (path, text) in &files {
                write(path, text)?;
                let _ = writeln!(report, "wrote {path}");
            }
            Ok(report)
        }
        Command::Report {
            input,
            limit,
            chrome,
        } => {
            let (mut report, chrome_json) = cmd_report(&read(input)?, *limit, chrome.is_some())?;
            if let (Some(path), Some(json)) = (chrome, &chrome_json) {
                write(path, json)?;
                let _ = writeln!(report, "wrote Chrome trace to {path}");
            }
            Ok(report)
        }
        Command::Stats { input } => cmd_stats(&read(input)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "module demo {
global flag [1 x i64] = 0
fn reader(params=0, regs=2, locals=0) {
bb0:
    %r0 = ldg @g0
    %r1 = cmp.ne %r0, 0
    assert %r1, \"flag set\"
    output \"seen\", %r0
    ret
}
fn writer(params=0, regs=0, locals=0) {
bb0:
    stg @g0, 5
    ret
}
}";

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_all_commands() {
        assert_eq!(
            parse_args(&args(&["print", "a.cir"])).unwrap(),
            Command::Print {
                input: "a.cir".into()
            }
        );
        assert_eq!(
            parse_args(&args(&["analyze", "a.cir", "--fix", "m", "--no-optimize"])).unwrap(),
            Command::Analyze {
                input: "a.cir".into(),
                fix_markers: vec!["m".into()],
                no_optimize: true,
                no_interproc: false,
            }
        );
        assert_eq!(
            parse_args(&args(&["harden", "a.cir", "-o", "b.cir"])).unwrap(),
            Command::Harden {
                input: "a.cir".into(),
                fix_markers: vec![],
                output: Some("b.cir".into()),
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "run",
                "a.cir",
                "--threads",
                "x,y",
                "--seed",
                "7",
                "--steps",
                "100"
            ]))
            .unwrap(),
            Command::Run {
                input: "a.cir".into(),
                opts: RunOptions {
                    threads: vec!["x".into(), "y".into()],
                    seed: 7,
                    steps: 100,
                    ..RunOptions::default()
                },
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "run",
                "a.cir",
                "--harden",
                "--trace",
                "t.jsonl",
                "--trace-depth",
                "4"
            ]))
            .unwrap(),
            Command::Run {
                input: "a.cir".into(),
                opts: RunOptions {
                    harden: true,
                    trace: Some("t.jsonl".into()),
                    trace_depth: 4,
                    ..RunOptions::default()
                },
            }
        );
        assert_eq!(
            parse_args(&args(&["run", "a.cir", "--trials", "8", "--jobs", "4"])).unwrap(),
            Command::Run {
                input: "a.cir".into(),
                opts: RunOptions {
                    trials: 8,
                    jobs: 4,
                    ..RunOptions::default()
                },
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "report", "t.jsonl", "--limit", "0", "--chrome", "c.json"
            ]))
            .unwrap(),
            Command::Report {
                input: "t.jsonl".into(),
                limit: 0,
                chrome: Some("c.json".into()),
            }
        );
    }

    #[test]
    fn parse_errors_are_usable() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&args(&["frobnicate", "a.cir"])).is_err());
        assert!(parse_args(&args(&["print"])).is_err());
        assert!(parse_args(&args(&["analyze", "a.cir", "--fix"])).is_err());
        assert!(parse_args(&args(&["run", "a", "b"])).is_err());
        assert!(parse_args(&args(&["run", "a.cir", "--bogus"])).is_err());
        assert!(parse_args(&args(&["run", "a.cir", "--trace"])).is_err());
        assert!(parse_args(&args(&["run", "a.cir", "--trials", "0"])).is_err());
        assert!(parse_args(&args(&["run", "a.cir", "--jobs", "x"])).is_err());
        assert!(parse_args(&args(&["report", "t.jsonl", "--limit", "x"])).is_err());
    }

    #[test]
    fn print_roundtrips_demo() {
        let out = cmd_print(DEMO).unwrap();
        assert!(out.contains("fn reader"));
        assert!(out.contains("2 functions"));
        assert!(cmd_print("not a module").is_err());
    }

    #[test]
    fn analyze_reports_sites_and_points() {
        let out = cmd_analyze(DEMO, &[], false, false).unwrap();
        assert!(out.contains("assertion-violation sites: 1"), "{out}");
        assert!(out.contains("wrong-output sites: 1"), "{out}");
        assert!(out.contains("reexecution points: "), "{out}");
        assert!(out.contains("mode: survival"));
    }

    #[test]
    fn harden_emits_parseable_hardened_module() {
        let out = cmd_harden(DEMO, &[]).unwrap();
        assert!(out.contains("checkpoint"), "{out}");
        assert!(out.contains("failguard.assert"), "{out}");
        // The hardened output is itself valid CLI input.
        let reprint = cmd_print(&out).unwrap();
        assert!(reprint.contains("checkpoint"));
    }

    #[test]
    fn run_executes_and_reports_recovery() {
        // The hardened demo recovers the order violation under some seeds;
        // the unhardened one may fail. Run the hardened text.
        let hardened = cmd_harden(DEMO, &[]).unwrap();
        let opts = RunOptions {
            threads: vec!["reader".into(), "writer".into()],
            seed: 3,
            steps: 100_000,
            ..RunOptions::default()
        };
        let (out, files) = cmd_run(&hardened, &opts, None).unwrap();
        assert!(out.contains("completed"), "{out}");
        assert!(out.contains("seen = 5"), "{out}");
        assert!(files.is_empty());
    }

    #[test]
    fn run_inline_harden_matches_pre_hardened_text() {
        let opts = RunOptions {
            harden: true,
            seed: 3,
            steps: 100_000,
            ..RunOptions::default()
        };
        let (out, _) = cmd_run(DEMO, &opts, None).unwrap();
        assert!(out.contains("hardened: "), "{out}");
        assert!(out.contains("phases: "), "{out}");
        assert!(out.contains("analyze"), "{out}");
        assert!(out.contains("transform"), "{out}");
        assert!(out.contains("completed"), "{out}");
    }

    #[test]
    fn run_defaults_threads_to_zero_param_functions() {
        // No --threads: reader and writer both have zero parameters.
        let opts = RunOptions {
            harden: true,
            seed: 3,
            steps: 100_000,
            ..RunOptions::default()
        };
        let (out, _) = cmd_run(DEMO, &opts, None).unwrap();
        assert!(out.contains("seen = 5"), "{out}");
    }

    #[test]
    fn run_trials_summary_is_identical_across_jobs() {
        let hardened = cmd_harden(DEMO, &[]).unwrap();
        let base = RunOptions {
            threads: vec!["reader".into(), "writer".into()],
            seed: 1,
            steps: 100_000,
            trials: 6,
            ..RunOptions::default()
        };
        let (seq, files) = cmd_run(&hardened, &base, None).unwrap();
        assert!(files.is_empty());
        assert!(seq.contains("trials: 6 (seeds 1..7, 1 jobs)"), "{seq}");
        assert!(seq.contains("outcomes: "), "{seq}");
        assert!(seq.contains("mean insts/run: "), "{seq}");

        let par = RunOptions { jobs: 4, ..base };
        let (out, _) = cmd_run(&hardened, &par, None).unwrap();
        // Seed-order merging makes the report identical apart from the
        // job count it echoes back.
        assert_eq!(
            seq.replace("1 jobs", ""),
            out.replace("4 jobs", ""),
            "summary must not depend on the job count"
        );
    }

    #[test]
    fn run_trials_rejects_trace() {
        let err = cmd_run(
            DEMO,
            &RunOptions {
                trials: 2,
                trace: Some("t.jsonl".into()),
                ..RunOptions::default()
            },
            None,
        )
        .unwrap_err();
        assert!(err.message.contains("--trials 1"), "{err}");
    }

    #[test]
    fn run_rejects_bad_threads() {
        assert!(cmd_run(
            DEMO,
            &RunOptions {
                threads: vec!["ghost".into()],
                ..RunOptions::default()
            },
            None,
        )
        .is_err());
    }

    #[test]
    fn traced_run_roundtrips_through_report() {
        let opts = RunOptions {
            harden: true,
            seed: 3,
            steps: 100_000,
            trace: Some("unused-by-cmd_run.jsonl".into()),
            ..RunOptions::default()
        };
        let (out, files) = cmd_run(DEMO, &opts, None).unwrap();
        assert!(
            out.contains("counts match run stats"),
            "consistency check must pass: {out}"
        );
        let jsonl = files
            .iter()
            .find(|(path, _)| path.ends_with(".jsonl"))
            .map(|(_, text)| text.clone())
            .expect("trace text produced");
        assert!(jsonl.lines().count() > 0);

        let (report, chrome) = cmd_report(&jsonl, 0, true).unwrap();
        assert!(report.contains("timeline ("), "{report}");
        assert!(report.contains("run ended: completed"), "{report}");
        assert!(report.contains("metrics:"), "{report}");
        assert!(report.contains("checkpoints: "), "{report}");
        let chrome = chrome.expect("chrome json produced");
        assert!(chrome.contains("traceEvents"), "{chrome}");
    }

    #[test]
    fn parse_explore_and_new_run_flags() {
        assert_eq!(
            parse_args(&args(&[
                "explore",
                "a.cir",
                "--scheduler",
                "bounded",
                "--preemptions",
                "1",
                "--budget",
                "100",
                "--points",
                "shared",
                "--jobs",
                "4",
                "--minimize",
                "--keep-going",
                "-o",
                "t.json",
                "--report-out",
                "r.json",
                "--snapshot-budget",
                "64",
            ]))
            .unwrap(),
            Command::Explore {
                input: "a.cir".into(),
                opts: ExploreOptions {
                    scheduler: "bounded".into(),
                    preemptions: 1,
                    budget: 100,
                    points: "shared".into(),
                    jobs: 4,
                    minimize: true,
                    keep_going: true,
                    out: Some("t.json".into()),
                    report_out: Some("r.json".into()),
                    snapshot_budget: 64,
                    ..ExploreOptions::default()
                },
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "run",
                "a.cir",
                "--scheduler",
                "pct",
                "--record",
                "t.json"
            ]))
            .unwrap(),
            Command::Run {
                input: "a.cir".into(),
                opts: RunOptions {
                    scheduler: "pct".into(),
                    record: Some("t.json".into()),
                    ..RunOptions::default()
                },
            }
        );
        assert_eq!(
            parse_args(&args(&["run", "a.cir", "--replay", "t.json"])).unwrap(),
            Command::Run {
                input: "a.cir".into(),
                opts: RunOptions {
                    replay: Some("t.json".into()),
                    ..RunOptions::default()
                },
            }
        );
        assert!(parse_args(&args(&["explore", "a.cir", "--budget", "0"])).is_err());
        assert!(parse_args(&args(&["run", "a.cir", "--scheduler"])).is_err());
    }

    #[test]
    fn run_scheduler_selection() {
        for scheduler in ["random", "round-robin", "pct"] {
            let opts = RunOptions {
                threads: vec!["writer".into(), "reader".into()],
                scheduler: scheduler.into(),
                steps: 100_000,
                ..RunOptions::default()
            };
            // Any scheduler either completes or hits the assert, but must run.
            let (out, _) = cmd_run(DEMO, &opts, None).unwrap();
            assert!(
                out.contains("completed") || out.contains("FAILED"),
                "{scheduler}: {out}"
            );
        }
        let bad = RunOptions {
            scheduler: "lottery".into(),
            ..RunOptions::default()
        };
        assert!(cmd_run(DEMO, &bad, None).is_err());
    }

    #[test]
    fn record_then_replay_reproduces_bit_identically() {
        let record = RunOptions {
            threads: vec!["reader".into(), "writer".into()],
            seed: 5,
            steps: 100_000,
            record: Some("trace.json".into()),
            ..RunOptions::default()
        };
        let (out, files) = cmd_run(DEMO, &record, None).unwrap();
        assert!(out.contains("recorded "), "{out}");
        assert_eq!(files.len(), 1);
        let trace_json = files[0].1.clone();

        let replay = RunOptions {
            threads: vec!["reader".into(), "writer".into()],
            steps: 100_000,
            replay: Some("trace.json".into()),
            record: Some("re.json".into()),
            ..RunOptions::default()
        };
        let (out2, files2) = cmd_run(DEMO, &replay, Some(&trace_json)).unwrap();
        assert!(out2.contains("replaying "), "{out2}");
        assert!(!out2.contains("diverged"), "{out2}");
        // The re-recorded trace carries the same decisions (seed is
        // re-stamped by the replay options, so compare the hash, which
        // covers mask + decisions only).
        let original = DecisionTrace::from_json(&trace_json).unwrap();
        let rerecorded = DecisionTrace::from_json(&files2[0].1).unwrap();
        assert_eq!(original.hash(), rerecorded.hash());
    }

    #[test]
    fn replay_flag_interactions_are_rejected() {
        let trace = DecisionTrace::new("test", 0, PointMask::ALL).to_json();
        for opts in [
            RunOptions {
                replay: Some("t.json".into()),
                trials: 2,
                ..RunOptions::default()
            },
            RunOptions {
                replay: Some("t.json".into()),
                trace: Some("x.jsonl".into()),
                ..RunOptions::default()
            },
            RunOptions {
                replay: Some("t.json".into()),
                scheduler: "pct".into(),
                ..RunOptions::default()
            },
        ] {
            assert!(cmd_run(DEMO, &opts, Some(&trace)).is_err());
        }
        let trials_record = RunOptions {
            record: Some("t.json".into()),
            trials: 2,
            ..RunOptions::default()
        };
        assert!(cmd_run(DEMO, &trials_record, None).is_err());
    }

    #[test]
    fn explore_finds_demo_bug_and_minimizes() {
        let opts = ExploreOptions {
            threads: vec!["reader".into(), "writer".into()],
            scheduler: "pct".into(),
            points: "shared".into(),
            budget: 64,
            minimize: true,
            out: Some("bug.json".into()),
            report_out: Some("report.json".into()),
            ..ExploreOptions::default()
        };
        let (out, files) = cmd_explore(DEMO, &opts).unwrap();
        assert!(out.contains("first failure: "), "{out}");
        assert!(out.contains("minimized: "), "{out}");
        assert!(out.contains("trace hash: "), "{out}");
        assert_eq!(files.len(), 2);

        // The written trace replays to the same failure.
        let trace_json = &files.iter().find(|(p, _)| p == "bug.json").unwrap().1;
        let replay = RunOptions {
            threads: vec!["reader".into(), "writer".into()],
            replay: Some("bug.json".into()),
            ..RunOptions::default()
        };
        let (replayed, _) = cmd_run(DEMO, &replay, Some(trace_json)).unwrap();
        assert!(replayed.contains("FAILED"), "{replayed}");
        assert!(!replayed.contains("diverged"), "{replayed}");

        // The written report renders through `report`.
        let report_json = &files.iter().find(|(p, _)| p == "report.json").unwrap().1;
        let (rendered, chrome) = cmd_report(report_json, 0, false).unwrap();
        assert!(rendered.contains("exploration report:"), "{rendered}");
        assert!(rendered.contains("first failure: schedule #"), "{rendered}");
        assert!(chrome.is_none());

        // The written trace renders through `report` too.
        let (rendered, _) = cmd_report(trace_json, 0, false).unwrap();
        assert!(rendered.contains("decision trace:"), "{rendered}");
        assert!(rendered.contains("replay with: "), "{rendered}");
    }

    #[test]
    fn report_names_an_old_shape_report() {
        // A report written before the `dpor` and `exhausted` fields existed.
        let old = r#"{
            "strategy": "bounded(k=1)", "mask": 126, "budget": 64,
            "schedules": 4, "failures": 0, "first_failure": null,
            "frontier": 0, "probe_decisions": 1, "snapshots_taken": 0,
            "snapshot_hits": 0, "steps_saved": 0, "dedup_skips": 0,
            "independence_skips": 0, "wave_widths": [3], "wall_ms": 0,
            "phases": {"capture_us": 0, "restore_us": 0, "interpret_us": 0,
                       "merge_us": 0, "minimize_us": 0}
        }"#;
        let err = cmd_report(old, 0, false).unwrap_err();
        assert_eq!(
            err.to_string(),
            "not an exploration report: missing field `dpor`"
        );
        // Broken event streams still report their parse position.
        let err = cmd_report("not json\n", 0, false).unwrap_err();
        assert!(err.to_string().starts_with("trace parse error: "), "{err}");
    }

    #[test]
    fn explore_bounded_renders_snapshot_tree_stats() {
        let opts = ExploreOptions {
            threads: vec!["reader".into(), "writer".into()],
            scheduler: "bounded".into(),
            points: "shared".into(),
            budget: 64,
            keep_going: true,
            report_out: Some("report.json".into()),
            ..ExploreOptions::default()
        };
        let (out, files) = cmd_explore(DEMO, &opts).unwrap();
        assert!(out.contains("snapshot tree: "), "{out}");
        let report_json = &files.iter().find(|(p, _)| p == "report.json").unwrap().1;
        let (rendered, _) = cmd_report(report_json, 0, false).unwrap();
        assert!(rendered.contains("snapshot tree: "), "{rendered}");

        // With the cache disabled the report is identical apart from the
        // wall clock and the snapshot counters.
        let off = ExploreOptions {
            snapshot_budget: 0,
            ..opts
        };
        let (off_out, off_files) = cmd_explore(DEMO, &off).unwrap();
        assert!(!off_out.contains("snapshot tree: "), "{off_out}");
        let off_json = &off_files
            .iter()
            .find(|(p, _)| p == "report.json")
            .unwrap()
            .1;
        let on: ExploreReport = serde_json::from_str(report_json).unwrap();
        let off: ExploreReport = serde_json::from_str(off_json).unwrap();
        assert_eq!(on.normalized(), off.normalized());
    }

    #[test]
    fn parse_observability_flags() {
        assert_eq!(
            parse_args(&args(&[
                "explore",
                "a.cir",
                "--progress",
                "--progress-out",
                "p.jsonl",
                "--metrics-out",
                "m.prom",
            ]))
            .unwrap(),
            Command::Explore {
                input: "a.cir".into(),
                opts: ExploreOptions {
                    progress: Some(DEFAULT_PROGRESS_INTERVAL_MS),
                    progress_out: Some("p.jsonl".into()),
                    metrics_out: Some("m.prom".into()),
                    ..ExploreOptions::default()
                },
            }
        );
        assert_eq!(
            parse_args(&args(&["explore", "a.cir", "--progress=250"])).unwrap(),
            Command::Explore {
                input: "a.cir".into(),
                opts: ExploreOptions {
                    progress: Some(250),
                    ..ExploreOptions::default()
                },
            }
        );
        assert!(parse_args(&args(&["explore", "a.cir", "--progress=fast"])).is_err());
        assert!(parse_args(&args(&["explore", "a.cir", "--metrics-out"])).is_err());
        assert_eq!(
            parse_args(&args(&["stats", "p.jsonl"])).unwrap(),
            Command::Stats {
                input: "p.jsonl".into()
            }
        );
    }

    #[test]
    fn explore_observability_leaves_report_identical() {
        let base = ExploreOptions {
            threads: vec!["reader".into(), "writer".into()],
            scheduler: "bounded".into(),
            points: "shared".into(),
            budget: 64,
            keep_going: true,
            report_out: Some("report.json".into()),
            ..ExploreOptions::default()
        };
        let observed = ExploreOptions {
            progress_out: Some("p.jsonl".into()),
            metrics_out: Some("m.prom".into()),
            jobs: 4,
            ..base.clone()
        };
        let (out, files) = cmd_explore(DEMO, &observed).unwrap();
        assert!(out.contains("phases (us): "), "{out}");
        let file = |name: &str, files: &[(String, String)]| {
            files
                .iter()
                .find(|(p, _)| p == name)
                .map(|(_, t)| t.clone())
                .unwrap_or_else(|| panic!("missing output file {name}"))
        };

        // The Prometheus dump carries search totals, phase timers and the
        // snapshot-tree gauges.
        let prom = file("m.prom", &files);
        assert!(
            prom.contains("# TYPE conair_explore_schedules_total counter"),
            "{prom}"
        );
        assert!(
            prom.contains("conair_explore_phase_seconds_total{phase=\"interpret\"}"),
            "{prom}"
        );
        assert!(prom.contains("conair_explore_snapshot_nodes"), "{prom}");

        // The recorded stream parses and feeds both `stats` and `report`.
        let stream = file("p.jsonl", &files);
        let events = from_jsonl(&stream).unwrap();
        assert!(events.iter().any(|e| e.kind_name() == "explore-wave"));
        assert!(events.iter().any(|e| e.kind_name() == "explore-progress"));
        let stats = cmd_stats(&stream).unwrap();
        assert!(stats.contains("schedules: "), "{stats}");
        assert!(stats.contains("phase breakdown"), "{stats}");
        let (timeline, _) = cmd_report(&stream, 0, false).unwrap();
        assert!(timeline.contains("explore wave"), "{timeline}");

        // Observability must not change the search: the report is
        // identical (modulo wall-clock fields) to a run with every flag
        // off at a different job count.
        let (plain_out, plain_files) = cmd_explore(DEMO, &base).unwrap();
        assert!(!plain_out.is_empty());
        let on: ExploreReport = serde_json::from_str(&file("report.json", &files)).unwrap();
        let off: ExploreReport = serde_json::from_str(&file("report.json", &plain_files)).unwrap();
        assert_eq!(on.normalized(), off.normalized());
    }

    #[test]
    fn probe_ended_search_exports_its_totals_and_stream() {
        // The probe (schedule 0) finds the bug on its own, so the
        // stop-at-first search ends before any wave: the Prometheus totals
        // and the progress stream must still describe the search that ran.
        let opts = ExploreOptions {
            threads: vec!["reader".into(), "writer".into()],
            metrics_out: Some("m.prom".into()),
            progress_out: Some("p.jsonl".into()),
            report_out: Some("r.json".into()),
            ..ExploreOptions::default()
        };
        let text = include_str!("../../../assets/order_violation.cir");
        let (_, files) = cmd_explore(text, &opts).unwrap();
        let file = |name: &str| {
            files
                .iter()
                .find(|(p, _)| p == name)
                .map(|(_, t)| t.as_str())
                .unwrap_or_else(|| panic!("missing output file {name}"))
        };
        let report: ExploreReport = serde_json::from_str(file("r.json")).unwrap();
        assert_eq!((report.schedules, report.failures), (1, 1));
        let prom = file("m.prom");
        assert!(
            prom.lines()
                .any(|l| l == "conair_explore_schedules_total 1"),
            "{prom}"
        );
        assert!(
            prom.lines().any(|l| l == "conair_explore_failures_total 1"),
            "{prom}"
        );
        let stats = cmd_stats(file("p.jsonl")).unwrap();
        assert!(
            stats.contains("failures: 1 (first at schedule #0)"),
            "{stats}"
        );
    }

    #[test]
    fn stats_rejects_streams_without_explore_events() {
        let opts = RunOptions {
            harden: true,
            seed: 3,
            steps: 100_000,
            trace: Some("t.jsonl".into()),
            ..RunOptions::default()
        };
        let (_, files) = cmd_run(DEMO, &opts, None).unwrap();
        let err = cmd_stats(&files[0].1).unwrap_err();
        assert!(err.message.contains("no exploration events"), "{err}");
        assert!(cmd_stats("not json").is_err());
    }

    #[test]
    fn explore_bounded_exhausts_benign_program() {
        const BENIGN: &str = "module ok {
fn solo(params=0, regs=1, locals=0) {
bb0:
    %r0 = add 1, 2
    output \"v\", %r0
    ret
}
}";
        let opts = ExploreOptions {
            scheduler: "bounded".into(),
            budget: 50,
            ..ExploreOptions::default()
        };
        let (out, files) = cmd_explore(BENIGN, &opts).unwrap();
        assert!(out.contains("no failing schedule found"), "{out}");
        assert!(out.contains("search space exhausted"), "{out}");
        assert!(files.is_empty());
        // A single-threaded program has exactly one schedule.
        assert!(out.contains("explored 1 schedules"), "{out}");
    }

    #[test]
    fn explore_rejects_bad_options() {
        let bad_sched = ExploreOptions {
            scheduler: "chess".into(),
            ..ExploreOptions::default()
        };
        assert!(cmd_explore(DEMO, &bad_sched).is_err());
        let bad_points = ExploreOptions {
            points: "everything".into(),
            ..ExploreOptions::default()
        };
        assert!(cmd_explore(DEMO, &bad_points).is_err());
    }

    #[test]
    fn report_limit_elides_tail() {
        let opts = RunOptions {
            harden: true,
            seed: 3,
            steps: 100_000,
            trace: Some("x.jsonl".into()),
            ..RunOptions::default()
        };
        let (_, files) = cmd_run(DEMO, &opts, None).unwrap();
        let jsonl = files[0].1.clone();
        let total = jsonl.lines().count();
        assert!(total > 2);
        let (report, _) = cmd_report(&jsonl, 2, false).unwrap();
        assert!(report.contains("more events"), "{report}");
        assert!(
            report.contains(&format!("{} more events", total - 2)),
            "{report}"
        );
    }
}
