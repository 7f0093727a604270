//! # conair-cli
//!
//! A command-line driver for the ConAir pipeline over textual IR files.
//! [`USAGE`] lists the eight commands and the flags each one reads; the
//! flag table behind [`parse_args`] is the grammar, and a unit test keeps
//! the two in step.
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
//! `report` also renders decision traces and `--report-out` JSON, in the
//! same words `explore` prints them.
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

use conair::{AnalysisConfig, Conair, PhaseSpans, SiteSelection};
use conair_ir::{parse_module, validate, validate_hardened, FailureKind, Module};
use conair_runtime::{
    explore_observed, from_jsonl, minimize, run_replay, run_trials, summarize_events,
    to_chrome_trace, to_jsonl, DecisionTrace, EventBuffer, ExploreConfig, ExploreObserver,
    ExploreReport, ExploreStrategy, Machine, MachineConfig, PctConfig, PctScheduler, PointMask,
    Program, RoundRobin, RunOutcome, RunResult, ScheduleScript, Scheduler, SeededRandom,
    TraceEvent, TraceSink, TrialPool,
};

/// Files a command writes, as `(path, contents)` pairs.
type Files = Vec<(String, String)>;

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
        /// Exploration options. The parser starts from `verify`'s own
        /// defaults and fixed settings: DPOR, stop at the first failure,
        /// minimize it, shared-access points, retry cap 8, fair backoff.
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

impl ExploreOptions {
    /// `verify`'s options, the one place its defaults and fixed settings
    /// live. Exhaustion, not sampling, is the point, so the schedule
    /// budget is much larger than `explore`'s, over the shared-access
    /// points DPOR needs. A single counterexample settles the verdict, so
    /// the search stops at the first and minimizes it. A finite retry cap
    /// keeps hardened retry loops finite-state, and the fair retry model
    /// lets a rolled-back thread yield to the peer it waits on; without
    /// it every hardened program has a vacuous "scheduler starves the
    /// retry loop" counterexample. `verify` reads no flag that would
    /// change the fixed settings.
    fn verify() -> Self {
        Self {
            scheduler: "dpor".into(),
            budget: 65_536,
            points: "shared".into(),
            minimize: true,
            max_retries: Some(8),
            retry_backoff: true,
            ..Self::default()
        }
    }
}

/// Builds a command around its input path, with every option at its
/// default.
type MakeCommand = fn(String) -> Command;

/// Every command, by name.
#[rustfmt::skip]
const COMMANDS: &[(&str, MakeCommand)] = &[
    ("print", |input| Command::Print { input }),
    ("analyze", |input| Command::Analyze {
        input, fix_markers: Vec::new(), no_optimize: false, no_interproc: false }),
    ("harden", |input| Command::Harden { input, fix_markers: Vec::new(), output: None }),
    ("run", |input| Command::Run { input, opts: RunOptions::default() }),
    ("explore", |input| Command::Explore { input, opts: ExploreOptions::default() }),
    ("verify", |input| Command::Verify { input, opts: ExploreOptions::verify() }),
    ("report", |input| Command::Report { input, limit: DEFAULT_REPORT_LIMIT, chrome: None }),
    ("stats", |input| Command::Stats { input }),
];

/// How a flag takes its value.
#[derive(Debug, Clone, Copy)]
enum Takes {
    /// None: the flag is a switch.
    Nothing,
    /// The next argument, named by the placeholder (`--seed N`).
    Next(&'static str),
    /// An optional `=value` suffix (`--progress` or `--progress=250`).
    Suffix(&'static str),
}

use Takes::{Next, Nothing, Suffix};

/// One row of the flag table: the flag's spelling, how it takes a value,
/// the commands that read it, the setter that parses the value into the
/// command's option field, and the flag's help line. The setter gets `""`
/// for a switch and the raw suffix (`""` or `=value`) for a
/// [`Takes::Suffix`] flag; on a value that does not parse it returns what
/// the flag needs.
struct Flag(
    &'static str,
    Takes,
    &'static [&'static str],
    fn(&mut Command, &str) -> Result<(), &'static str>,
    &'static str,
);

impl Flag {
    fn matches(&self, arg: &str) -> bool {
        match self.1 {
            Suffix(_) => arg
                .strip_prefix(self.0)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('=')),
            _ => arg == self.0,
        }
    }
}

fn put<T>(field: &mut T, value: Result<T, &'static str>) -> Result<(), &'static str> {
    *field = value?;
    Ok(())
}

fn number<T: std::str::FromStr>(v: &str) -> Result<T, &'static str> {
    v.parse().map_err(|_| "a number")
}

fn positive(v: &str) -> Result<usize, &'static str> {
    number(v).ok().filter(|&n| n >= 1).ok_or("a number >= 1")
}

fn path(v: &str) -> Result<Option<String>, &'static str> {
    Ok(Some(v.to_owned()))
}

fn run(cmd: &mut Command) -> &mut RunOptions {
    match cmd {
        Command::Run { opts, .. } => opts,
        _ => unreachable!("the flag table routes only run here"),
    }
}

fn search(cmd: &mut Command) -> &mut ExploreOptions {
    match cmd {
        Command::Explore { opts, .. } | Command::Verify { opts, .. } => opts,
        _ => unreachable!("the flag table routes only explore and verify here"),
    }
}

/// A field `run`, `explore` and `verify` all carry.
macro_rules! shared {
    ($cmd:expr, $field:ident) => {
        match $cmd {
            Command::Run { opts, .. } => &mut opts.$field,
            cmd => &mut search(cmd).$field,
        }
    };
}

const RUN_SEARCH: &[&str] = &["run", "explore", "verify"];
const SEARCH: &[&str] = &["explore", "verify"];

/// The command-line grammar: every flag, once (see [`Flag`] for the
/// columns).
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag("--fix", Next("M"), &["analyze", "harden", "run", "explore", "verify"], |c, v| {
            match c {
                Command::Analyze { fix_markers: m, .. }
                | Command::Harden { fix_markers: m, .. } => m,
                c => shared!(c, fix_markers),
            }.push(v.to_owned());
            Ok(())
        },
        "select the sites of marker M (fix mode, repeatable; default: survival mode)"),
    Flag("--no-optimize", Nothing, &["analyze"], |c, _| match c {
            Command::Analyze { no_optimize, .. } => put(no_optimize, Ok(true)),
            _ => unreachable!("the flag table routes only analyze here"),
        },
        "skip the Section-4.2 recoverability pruning"),
    Flag("--no-interproc", Nothing, &["analyze"], |c, _| match c {
            Command::Analyze { no_interproc, .. } => put(no_interproc, Ok(true)),
            _ => unreachable!("the flag table routes only analyze here"),
        },
        "skip Section-4.3 inter-procedural promotion"),
    Flag("-o", Next("PATH"), &["harden", "explore", "verify"], |c, v| match c {
            Command::Harden { output, .. } => put(output, path(v)),
            c => put(&mut search(c).out, path(v)),
        },
        "harden: write the module here; explore, verify: write the first failing trace here"),
    Flag("--harden", Nothing, RUN_SEARCH, |c, _| put(shared!(c, harden), Ok(true)),
        "harden the module (analysis + transform) first"),
    Flag("--threads", Next("f1,f2"), RUN_SEARCH,
        |c, v| put(shared!(c, threads), Ok(v.split(',').map(str::to_owned).collect())),
        "thread entry functions (default: every zero-parameter function)"),
    Flag("--seed", Next("N"), &["run", "explore"], |c, v| put(shared!(c, seed), number(v)),
        "scheduler seed (run: default 0; explore: PCT base seed, default 1)"),
    Flag("--steps", Next("N"), RUN_SEARCH, |c, v| put(shared!(c, steps), number(v)),
        "step limit per run (default 50000000)"),
    Flag("--jobs", Next("N"), RUN_SEARCH, |c, v| put(shared!(c, jobs), positive(v)),
        "worker threads, at most one per core (output is identical for any N)"),
    Flag("--scheduler", Next("NAME"), &["run", "explore"],
        |c, v| put(shared!(c, scheduler), Ok(v.to_owned())),
        "run: random (default), round-robin or pct; explore: pct (default), bounded or dpor"),
    Flag("--trace", Next("PATH"), &["run"], |c, v| put(&mut run(c).trace, path(v)),
        "record the run's event stream as JSONL (checked against the run's stats)"),
    Flag("--trace-depth", Next("N"), &["run"], |c, v| put(&mut run(c).trace_depth, number(v)),
        "failing-thread locations in failure reports (default 16, 0 = off)"),
    Flag("--trials", Next("N"), &["run"], |c, v| put(&mut run(c).trials, positive(v)),
        "run seeds seed..seed+N and print an aggregate summary"),
    Flag("--replay", Next("PATH"), &["run"], |c, v| put(&mut run(c).replay, path(v)),
        "re-execute a recorded decision trace bit-identically"),
    Flag("--record", Next("PATH"), &["run"], |c, v| put(&mut run(c).record, path(v)),
        "write the run's decision trace for a later --replay"),
    Flag("--budget", Next("N"), SEARCH, |c, v| put(&mut search(c).budget, positive(v)),
        "schedules to run at most (explore: default 256; verify: 65536)"),
    Flag("--preemptions", Next("K"), SEARCH, |c, v| put(&mut search(c).preemptions, number(v)),
        "preemption bound of bounded and dpor (default 2)"),
    Flag("--depth", Next("D"), &["explore"], |c, v| put(&mut search(c).depth, positive(v)),
        "PCT priority-change points (default 3)"),
    Flag("--points", Next("SET"), SEARCH, |c, v| put(&mut search(c).points, Ok(v.to_owned())),
        "decision points: sync, shared or all (explore: default sync; verify: shared)"),
    Flag("--minimize", Nothing, &["explore"], |c, _| put(&mut search(c).minimize, Ok(true)),
        "delta-debug the first failing trace before writing it (verify always does)"),
    Flag("--keep-going", Nothing, &["explore"], |c, _| put(&mut search(c).keep_going, Ok(true)),
        "search the whole budget and count every failure"),
    Flag("--max-retries", Next("N"), SEARCH,
        |c, v| put(&mut search(c).max_retries, number(v).map(Some)),
        "recovery attempts per thread and site (verify: default 8)"),
    Flag("--retry-backoff", Nothing, &["explore"],
        |c, _| put(&mut search(c).retry_backoff, Ok(true)),
        "back off after every rollback, the fair retry model verify always uses"),
    Flag("--snapshot-budget", Next("N"), SEARCH,
        |c, v| put(&mut search(c).snapshot_budget, number(v)),
        "images kept in the prefix-sharing snapshot tree (default 8192, 0 = off)"),
    Flag("--report-out", Next("PATH"), SEARCH, |c, v| put(&mut search(c).report_out, path(v)),
        "write the exploration report as JSON (rendered by report)"),
    Flag("--progress", Suffix("=MS"), SEARCH, |c, v| {
            let ms = v.strip_prefix('=').map_or(Ok(DEFAULT_PROGRESS_INTERVAL_MS), number);
            put(&mut search(c).progress, ms.map(Some))
        },
        "live stderr ticker, sampled every MS ms (default 500, 0 = every wave)"),
    Flag("--progress-out", Next("PATH"), SEARCH,
        |c, v| put(&mut search(c).progress_out, path(v)),
        "record the progress and wave event stream as JSONL (for stats or report)"),
    Flag("--metrics-out", Next("PATH"), SEARCH,
        |c, v| put(&mut search(c).metrics_out, path(v)),
        "write the search's final metrics in Prometheus text format"),
    Flag("--limit", Next("N"), &["report"], |c, v| match c {
            Command::Report { limit, .. } => put(limit, number(v)),
            _ => unreachable!("the flag table routes only report here"),
        },
        "timeline lines to print (default 200, 0 = all)"),
    Flag("--chrome", Next("PATH"), &["report"], |c, v| match c {
            Command::Report { chrome, .. } => put(chrome, path(v)),
            _ => unreachable!("the flag table routes only report here"),
        },
        "also write a JSONL event trace as Chrome trace-event JSON"),
];

/// Parses `argv[1..]`: the command name, then its input path and flags in
/// any order. Each flag's setter writes into the command's options, which
/// start at their defaults.
///
/// # Errors
///
/// Returns a usage error on an unknown command or flag, a flag the
/// command does not read, a missing or malformed value, and a missing or
/// second input path.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let (name, rest) = args.split_first().ok_or_else(|| CliError::new(usage()))?;
    let (_, make) = COMMANDS
        .iter()
        .find(|(n, _)| n == name)
        .ok_or_else(|| CliError::new(format!("unknown command `{name}`\n{}", usage())))?;
    // The input path may come anywhere, so each flag's value is checked
    // here and handed to its setter once the command exists.
    let mut input = None;
    let mut values = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            if input.replace(arg.clone()).is_some() {
                return Err(CliError::new(format!("unexpected argument `{arg}`")));
            }
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.matches(arg))
            .ok_or_else(|| CliError::new(format!("unknown flag `{arg}`\n{}", usage())))?;
        let Flag(spelling, takes, commands, ..) = flag;
        if !commands.contains(&name.as_str()) {
            return Err(CliError::new(format!(
                "`{spelling}` does not apply to `{name}` (it applies to {})",
                commands.join(", ")
            )));
        }
        values.push((
            flag,
            match takes {
                Nothing => "",
                Next(what) => it.next().map(String::as_str).ok_or_else(|| {
                    CliError::new(format!("{spelling} needs a value: {spelling} {what}"))
                })?,
                Suffix(_) => &arg[spelling.len()..],
            },
        ));
    }
    let input = input.ok_or_else(|| CliError::new(format!("missing input file\n{}", usage())))?;
    let mut cmd = make(input);
    for (Flag(spelling, _, _, set, _), value) in values {
        set(&mut cmd, value).map_err(|what| CliError::new(format!("{spelling} needs {what}")))?;
    }
    Ok(cmd)
}

/// The commands and the flags each reads. Usage errors append one help
/// line per flag from the flag table.
pub const USAGE: &str =
    "usage: conair-cli <print|analyze|harden|run|explore|verify|report|stats> <file> [flags]
  print   <file.cir>                 parse, validate and pretty-print
  analyze <file.cir> [--fix M]... [--no-optimize] [--no-interproc]
                                     report failure sites and reexecution points
  harden  <file.cir> [--fix M]... [-o out.cir]
                                     print or write the hardened module
  run     <file.cir> [--harden [--fix M]...] [--threads f1,f2] [--seed N]
          [--steps N] [--trace out.jsonl] [--trace-depth N] [--trials N]
          [--jobs N] [--scheduler random|round-robin|pct]
          [--replay trace.json] [--record trace.json]
                                     execute the program
  explore <file.cir> [--harden [--fix M]...] [--threads f1,f2]
          [--scheduler pct|bounded|dpor] [--budget N] [--preemptions K]
          [--depth D] [--points sync|shared|all] [--seed N] [--steps N]
          [--jobs N] [--minimize] [--keep-going] [-o trace.json]
          [--max-retries N] [--retry-backoff] [--report-out report.json]
          [--snapshot-budget N] [--progress[=MS]] [--progress-out p.jsonl]
          [--metrics-out m.prom]
                                     search schedules for a failing interleaving
  verify  <file.cir> [--harden [--fix M]...] [--threads f1,f2]
          [--preemptions K] [--budget N] [--points shared|all] [--steps N]
          [--jobs N] [-o trace.json] [--max-retries N] [--report-out r.json]
          [--snapshot-budget N] [--progress[=MS]] [--progress-out p.jsonl]
          [--metrics-out m.prom]
                                     exhaust the schedules within K preemptions
                                     with DPOR and print a verdict: VERIFIED,
                                     COUNTEREXAMPLE (minimized, written to -o)
                                     or INCONCLUSIVE (the budget ran out)
  report  <trace.jsonl|report.json|trace.json> [--limit N] [--chrome out.json]
                                     render an event trace, exploration report
                                     or decision trace
  stats   <progress.jsonl>           summarize a recorded progress stream";

/// [`USAGE`] followed by the flag table's help lines.
fn usage() -> String {
    let mut out = format!("{USAGE}\nflags:\n");
    for Flag(spelling, takes, _, _, help) in FLAGS {
        let spelled = match takes {
            Nothing => spelling.to_string(),
            Next(what) => format!("{spelling} {what}"),
            Suffix(what) => format!("{spelling}[{what}]"),
        };
        let _ = writeln!(out, "  {spelled:<22} {help}");
    }
    out
}

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

/// The front half `run`, `explore` and `verify` share: loads the module,
/// resolves its thread entries and, when `harden` is set, hardens it.
/// Returns the program, the report so far (the hardening summary) and,
/// when hardened, the hardening phase spans.
fn prepare(
    text: &str,
    threads: &[String],
    harden: bool,
    fix_markers: &[String],
) -> Result<(Program, String, Option<PhaseSpans>), CliError> {
    let module = load(text)?;
    let entries = resolve_entries(&module, threads)?;
    let names: Vec<&str> = entries.iter().map(String::as_str).collect();
    let program = Program::from_entry_names(module, &names);
    if !harden {
        return Ok((program, String::new(), None));
    }
    let (hardened, spans) = pipeline(fix_markers, false, false).harden_timed(&program);
    let stats = &hardened.plan.stats;
    let out = format!(
        "hardened: {} recoverable sites, {} reexecution points\n",
        stats.recoverable_sites, stats.static_points
    );
    Ok((hardened.program, out, Some(spans)))
}

/// Executes `run` on module text. Returns the report and the output files
/// to write as `(path, contents)` pairs (the `--trace` JSONL and/or the
/// `--record` decision trace). `replay_json` must carry the decision-trace
/// text when [`RunOptions::replay`] is set.
pub fn cmd_run(
    text: &str,
    opts: &RunOptions,
    replay_json: Option<&str>,
) -> Result<(String, Files), CliError> {
    let conflict = match (opts.replay.is_some(), opts.trials > 1) {
        (true, true) => Some("--replay re-executes a single run; use --trials 1"),
        (true, _) if opts.trace.is_some() => Some("--replay cannot record a --trace"),
        (true, _) if opts.scheduler != "random" => {
            Some("--replay follows the recorded trace; --scheduler does not apply")
        }
        (_, true) if opts.scheduler != "random" => {
            Some("--trials aggregates seeded random runs; use --trials 1 with --scheduler")
        }
        (_, true) if opts.record.is_some() => {
            Some("--record captures a single run; use --trials 1")
        }
        (_, true) if opts.trace.is_some() => Some("--trace records a single run; use --trials 1"),
        _ => None,
    };
    if let Some(why) = conflict {
        return Err(CliError::new(format!("run: {why}")));
    }
    let mut files = Files::new();
    let (program, mut out, spans) = prepare(text, &opts.threads, opts.harden, &opts.fix_markers)?;
    if let Some(spans) = spans {
        let _ = writeln!(out, "phases: {}", spans.render());
    }

    let config = MachineConfig {
        step_limit: opts.steps,
        trace_depth: opts.trace_depth,
        record_decisions: opts.record.is_some(),
        ..MachineConfig::default()
    };

    if opts.replay.is_some() {
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
            TrialPool::new(opts.jobs).jobs()
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
        for (label, hist) in [
            ("retries per run", &s.retries_hist),
            ("recovery latency (steps)", &s.recovery_hist),
            ("checkpoints per run", &s.checkpoints_hist),
            ("undo depth per rollback (regs)", &s.undo_depth_hist),
        ] {
            let _ = writeln!(out, "{label}: {}", hist.summary());
        }
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

impl TraceSink for Tee {
    fn record(&mut self, event: TraceEvent) {
        for sink in &mut self.0 {
            sink.record(event.clone());
        }
    }
}

/// Executes `explore` (and, with its verdict appended, `verify`) on module
/// text. Returns the report text, the output files to write as `(path,
/// contents)` pairs, and the report itself.
///
/// The text is the settings the report cannot carry (hardening, the dpor
/// mask upgrade, the retry model, the worker count), then the report as
/// `report` renders it, then the minimized trace and how to replay it.
pub fn cmd_explore(
    text: &str,
    opts: &ExploreOptions,
) -> Result<(String, Files, ExploreReport), CliError> {
    let mut files = Files::new();
    let (program, mut out, _) = prepare(text, &opts.threads, opts.harden, &opts.fix_markers)?;
    let k = opts.preemptions;
    let strategy = match opts.scheduler.as_str() {
        "pct" => ExploreStrategy::Pct { depth: opts.depth },
        "bounded" => ExploreStrategy::Bounded { preemptions: k },
        "dpor" => ExploreStrategy::Dpor { preemptions: k },
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
    let defaults = MachineConfig::default();
    let config = MachineConfig {
        step_limit: opts.steps,
        retry_backoff: opts.retry_backoff,
        max_retries: opts.max_retries.unwrap_or(defaults.max_retries),
        ..defaults
    };
    if opts.retry_backoff || opts.max_retries.is_some() {
        let _ = writeln!(
            out,
            "retry model: cap {}, backoff {}",
            config.max_retries,
            if config.retry_backoff { "on" } else { "off" }
        );
    }
    let _ = writeln!(out, "jobs: {}", TrialPool::new(opts.jobs).jobs());
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
    let mut observer = observing.then(|| {
        let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
        if opts.progress_out.is_some() {
            sinks.push(Box::new(buffer.clone()));
        }
        if opts.progress.is_some() {
            sinks.push(Box::new(ProgressTicker));
        }
        ExploreObserver::new()
            .with_interval_ms(opts.progress.unwrap_or(DEFAULT_PROGRESS_INTERVAL_MS))
            .with_sink(Box::new(Tee(sinks)))
    });
    let mut report = explore_observed(&program, &config, &ec, observer.as_mut());

    // Minimize before rendering, so the report's phases count it.
    let mut tail = String::new();
    if let Some(found) = &report.first_failure {
        let trace = if opts.minimize {
            let minimize_start = std::time::Instant::now();
            let min = minimize(&program, &config, &found.trace, opts.budget)
                .map_err(|e| CliError::new(format!("explore: minimize failed: {e}")))?;
            report.phases.minimize_us += minimize_start.elapsed().as_micros() as u64;
            let preemptions = min.minimized_preemptions;
            let plural = if preemptions == 1 { "" } else { "s" };
            let _ = writeln!(
                tail,
                "minimized: {} -> {} decisions, {} -> {} deviations \
                 ({preemptions} preemption{plural}), {} candidate replays",
                min.original_len,
                min.minimized_len,
                min.original_deviations,
                min.minimized_deviations,
                min.candidates
            );
            min.trace
        } else {
            found.trace.clone()
        };
        if let Some(path) = &opts.out {
            files.push((path.clone(), trace.to_json()));
            let _ = writeln!(tail, "replay with: run --replay {path}");
        }
    }
    out += &render_explore_report(&report);
    out += &tail;

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

/// The `verify` verdict on a finished search under `opts`:
///
/// * **verified** — the frontier drained with no failing schedule: every
///   interleaving within the preemption budget ran (modulo provably
///   equivalent reorderings of independent steps).
/// * **counterexample** — a failing schedule was found; it is minimized
///   (when `--minimize`, the default) and written to `-o`.
/// * **inconclusive** — the schedule budget ran out first.
fn verdict(report: &ExploreReport, opts: &ExploreOptions) -> String {
    match (&report.first_failure, report.exhausted) {
        (Some(found), _) => format!(
            "verdict: COUNTEREXAMPLE — schedule #{} fails ({} decisions{})\n",
            found.index,
            found.trace.len(),
            if opts.minimize {
                ", minimized above"
            } else {
                ""
            }
        ),
        (None, true) => format!(
            "verdict: VERIFIED under {} preemptions — {} schedules, depth {} decisions, \
             no failing interleaving\n",
            opts.preemptions, report.schedules, report.probe_decisions
        ),
        (None, false) => format!(
            "verdict: INCONCLUSIVE — budget exhausted with {} prefixes unexplored \
             (raise --budget)\n",
            report.frontier
        ),
    }
}

/// Renders an exploration report: the one text form of an
/// [`ExploreReport`], which `explore`, `verify` and `report` all print.
fn render_explore_report(report: &ExploreReport) -> String {
    let mut out = String::from("exploration report:\n");
    let _ = writeln!(
        out,
        "  explored {} schedules ({}, points {}, budget {})",
        report.schedules,
        report.strategy,
        PointMask::from_bits(report.mask).name(),
        report.budget
    );
    let _ = writeln!(
        out,
        "  failures: {} ({:.1} per 1k schedules)",
        report.failures,
        report.failures_per_1k()
    );
    match &report.first_failure {
        Some(found) => {
            let _ = writeln!(
                out,
                "  first failure: schedule #{}, {} decisions, outcome {}",
                found.index,
                found.trace.len(),
                found.outcome.label()
            );
            if let RunOutcome::Failed(f) = &found.outcome {
                let _ = writeln!(out, "    {} in thread {}: {}", f.kind, f.thread, f.msg);
            }
            let _ = writeln!(out, "  trace hash: {:#018x}", found.trace.hash());
        }
        None => out += "  no failing schedule found within the budget\n",
    }
    if report.exhausted {
        out += "  search space exhausted: every schedule within the bound ran\n";
    }
    if report.frontier > 0 {
        let _ = writeln!(out, "  unexplored frontier: {} prefixes", report.frontier);
    }
    let _ = writeln!(out, "  probe decisions: {}", report.probe_decisions);
    let d = &report.dpor;
    if d.races_detected > 0 || d.backtrack_points > 0 || d.sleep_skips > 0 {
        let _ = writeln!(
            out,
            "  dpor: {} races detected, {} backtrack points, {} sleep-set skips",
            d.races_detected, d.backtrack_points, d.sleep_skips
        );
    }
    if report.snapshots_taken > 0 || report.snapshot_hits > 0 {
        let _ = writeln!(
            out,
            "  snapshot tree: {} taken, {} schedules resumed, {} steps saved",
            report.snapshots_taken, report.snapshot_hits, report.steps_saved
        );
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
            let again = if *reexecution { ", reexecution" } else { "" };
            format!("{thread} checkpoint (epoch {epoch}{again})")
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
    let document = match &as_report {
        Ok(report) => Some(("an exploration report", render_explore_report(report))),
        Err(_) if serde_json::from_str::<DecisionTrace>(jsonl).is_ok() => {
            let trace = DecisionTrace::from_json(jsonl)
                .map_err(|e| CliError::new(format!("report: {e}")))?;
            Some(("a decision trace", render_decision_trace(&trace)))
        }
        Err(_) => None,
    };
    if let Some((what, text)) = document {
        if chrome {
            return Err(CliError::new(format!(
                "report: --chrome needs a JSONL event trace, not {what}"
            )));
        }
        return Ok((text, None));
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
    for (label, hist) in [
        ("recovery latency (steps)", &m.rollback_latency),
        ("undo depth per rollback (regs)", &m.undo_depth),
        ("lock waits (steps)", &m.lock_waits),
    ] {
        let _ = writeln!(out, "  {label}: {}", hist.summary());
    }
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

    let chrome_json = chrome.then(|| {
        serde_json::to_string(&to_chrome_trace(&events)).expect("chrome trace serializes")
    });
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
    // Capture, restore, interpret and merge microseconds.
    let mut phases = [0u64; 4];
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
                let wave = [capture_us, restore_us, interpret_us, merge_us];
                for (total, us) in phases.iter_mut().zip(wave) {
                    *total += us;
                }
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
        let first = first_failure
            .map(|first| format!(" (first at schedule #{first})"))
            .unwrap_or_default();
        let _ = writeln!(out, "failures: {failures}{first}");
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
    let attributed: u64 = phases.iter().sum();
    if attributed > 0 {
        let _ = writeln!(out, "phase breakdown ({attributed} us attributed):");
        for (name, us) in ["capture", "restore", "interpret", "merge"]
            .into_iter()
            .zip(phases)
        {
            let pct = 100.0 * us as f64 / attributed as f64;
            let _ = writeln!(out, "  {:<11}{us:>10} us ({pct:.1}%)", format!("{name}:"));
        }
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
    let (mut report, files) = match command {
        Command::Print { input } => return cmd_print(&read(input)?),
        Command::Analyze {
            input,
            fix_markers,
            no_optimize,
            no_interproc,
        } => return cmd_analyze(&read(input)?, fix_markers, *no_optimize, *no_interproc),
        Command::Harden {
            input,
            fix_markers,
            output,
        } => {
            let hardened = cmd_harden(&read(input)?, fix_markers)?;
            let Some(path) = output else {
                return Ok(hardened);
            };
            write(path, &hardened)?;
            return Ok(format!("wrote hardened module to {path}\n"));
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
            return Ok(report);
        }
        Command::Stats { input } => return cmd_stats(&read(input)?),
        Command::Run { input, opts } => {
            let replay_json = opts.replay.as_deref().map(read).transpose()?;
            cmd_run(&read(input)?, opts, replay_json.as_deref())?
        }
        Command::Explore { input, opts } | Command::Verify { input, opts } => {
            let (mut out, files, report) = cmd_explore(&read(input)?, opts)?;
            if matches!(command, Command::Verify { .. }) {
                out += &verdict(&report, opts);
            }
            (out, files)
        }
    };
    for (path, text) in &files {
        write(path, text)?;
        let _ = writeln!(report, "wrote {path}");
    }
    Ok(report)
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
        assert!(parse_args(&args(&["run", "a", "b"])).is_err());
        assert!(parse_args(&args(&["run", "a.cir", "--bogus"])).is_err());
        assert!(parse_args(&args(&["run", "a.cir", "--trials", "0"])).is_err());
        assert!(parse_args(&args(&["run", "a.cir", "--jobs", "x"])).is_err());
        assert!(parse_args(&args(&["report", "t.jsonl", "--limit", "x"])).is_err());
        assert!(parse_args(&args(&["explore", "a.cir", "--seed=3"])).is_err());

        // Every flag x command pair parses exactly when the table lists
        // it, and a refusal names both the flag and the command.
        let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        for Flag(spelling, takes, commands, ..) in FLAGS {
            for &cmd in &names {
                let mut argv = args(&[cmd, "a.cir", spelling]);
                if let Next(_) = takes {
                    argv.push("1".into());
                }
                match parse_args(&argv) {
                    Ok(_) => assert!(commands.contains(&cmd), "{cmd} accepted {spelling}"),
                    Err(e) => {
                        assert!(!commands.contains(&cmd), "{cmd} {spelling}: {e}");
                        assert!(e.message.contains(spelling), "{e}");
                        assert!(e.message.contains(&format!("`{cmd}`")), "{e}");
                    }
                }
                // A value-taking flag with its value missing is an error,
                // not a panic.
                if let (Next(_), true) = (takes, commands.contains(&cmd)) {
                    let err = parse_args(&args(&[cmd, "a.cir", spelling])).unwrap_err();
                    assert!(err.message.contains("needs a value"), "{err}");
                }
            }
        }

        // USAGE lists, per command, exactly the flags the table gives it.
        let mut listed: Vec<(&str, &str)> = Vec::new();
        let mut current = None;
        for line in USAGE.lines().skip(1) {
            let mut words = line.split_whitespace().peekable();
            if let Some(name) = words.peek().filter(|w| names.contains(w)) {
                current = Some(*name);
            }
            for word in words {
                let word = word.trim_start_matches('[');
                if word.starts_with('-') {
                    let spelling = word.split(['[', ']', '=', ')', ',']).next().unwrap();
                    listed.push((current.unwrap(), spelling));
                }
            }
        }
        let mut table: Vec<(&str, &str)> = FLAGS
            .iter()
            .flat_map(|Flag(spelling, _, commands, ..)| commands.iter().map(|&c| (c, *spelling)))
            .collect();
        listed.sort_unstable();
        listed.dedup();
        table.sort_unstable();
        assert_eq!(listed, table, "USAGE and the flag table disagree");

        // Flags a command does not read are refused, not ignored.
        for line in [
            "verify a.cir --scheduler pct",
            "verify a.cir --keep-going",
            "print a.cir --trials 3",
            "run a.cir -o x",
        ] {
            let argv: Vec<String> = line.split(' ').map(str::to_owned).collect();
            let err = parse_args(&argv).unwrap_err();
            assert!(err.message.contains("does not apply"), "{line}: {err}");
        }
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
        // The summary echoes the workers that ran: the request clamped to
        // the host's cores.
        let workers = TrialPool::new(4).jobs();
        assert!(out.contains(&format!("{workers} jobs)")), "{out}");
        // Seed-order merging makes the report identical apart from that
        // count.
        assert_eq!(
            seq.replace("1 jobs", ""),
            out.replace(&format!("{workers} jobs"), ""),
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
        let (out, files, _) = cmd_explore(DEMO, &opts).unwrap();
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
        let (out, files, _) = cmd_explore(DEMO, &opts).unwrap();
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
        let (off_out, off_files, _) = cmd_explore(DEMO, &off).unwrap();
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
        let (out, files, _) = cmd_explore(DEMO, &observed).unwrap();
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
        let (plain_out, plain_files, _) = cmd_explore(DEMO, &base).unwrap();
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
        let (_, files, _) = cmd_explore(text, &opts).unwrap();
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
        let (out, files, _) = cmd_explore(BENIGN, &opts).unwrap();
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
