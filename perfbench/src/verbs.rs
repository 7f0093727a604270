//! The catalog set-up and one pass of each verb, with its oracles.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use conair::{Conair, HardenedProgram, PhaseSpans};
use conair_ir::{parse_module, validate, validate_hardened};
use conair_runtime::{
    explore, minimize, run_replay, run_scripted, ExploreConfig, ExploreReport, ExploreStrategy,
    MachineConfig, PointMask, Program, RunResult,
};
use conair_workloads::{all_workloads, explore_hint, verify_hint, Workload};

use crate::calib::Clock;
use crate::trace::Tracer;

/// Span names whose self-time shares the traced run reports, in order.
pub const LAYERS: &[&str] = &[
    "ir.parse",
    "ir.validate",
    "ir.print",
    "analysis.analyze",
    "analysis.optimize",
    "transform",
    "core.harden",
    "machine.run",
    "explore.bounded",
    "explore.dpor",
    "explore.pct",
    "minimize",
    "replay",
    "bench.op",
];

/// Per-pass values the traced run reports from pass 0, with their units.
pub const PASS_COUNTS: &[(&str, &str)] = &[
    ("machine.steps", "steps"),
    ("thread.checkpoints", "count"),
    ("thread.rollbacks", "count"),
    ("thread.retries", "count"),
    ("thread.recovery_steps_p50", "steps"),
    ("explore.schedules", "count"),
    ("explore.dedup_skips", "count"),
    ("explore.independence_skips", "count"),
    ("explore.steps_saved", "steps"),
    ("explore.snapshot_hit_rate", "ratio"),
    ("snapshot.taken", "count"),
    ("explore.interpret_pct", "%"),
    ("explore.merge_pct", "%"),
    ("snapshot.capture_pct", "%"),
    ("snapshot.restore_pct", "%"),
    ("dpor.races_detected", "count"),
    ("dpor.backtrack_points", "count"),
    ("dpor.sleep_skips", "count"),
    ("minimize.candidates", "count"),
    ("minimize.shrink_ratio", "ratio"),
];

/// Apps `verify` exhausts at one preemption, each expected VERIFIED.
/// MozillaJS, ZSNES and Transmission verify too but take 0.4–2 s each:
/// the host's speed changes within such a call, which the calibration
/// around it cannot follow. HTTrack, MozillaXP and the MySQL apps take far
/// longer.
const VERIFY_K1: &[&str] = &["FFT", "HawkNL", "SQLite"];
/// Apps `verify` searches at two preemptions with a fixed budget, each
/// expected INCONCLUSIVE with no failure.
const VERIFY_K2: &[&str] = &["FFT", "HawkNL", "SQLite"];
const VERIFY_K2_BUDGET: usize = 128;
/// Apps `explore` searches: the catalog minus MySQL1 and MySQL2, whose
/// heavier runs make one search-minimize-replay take 1.7 s and 4.0 s, five
/// times the other eight apps together.
const EXPLORE_APPS: &[&str] = &[
    "FFT",
    "HawkNL",
    "HTTrack",
    "MozillaXP",
    "MozillaJS",
    "Transmission",
    "SQLite",
    "ZSNES",
];
/// DPOR budget of `explore`'s stop-at-first search.
const EXPLORE_DPOR_BUDGET: usize = 2048;
/// Schedules of `explore`'s keep-going PCT sweep.
const EXPLORE_PCT_BUDGET: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Harden,
    Recover,
    Explore,
    Verify,
}

impl Verb {
    pub fn parse(s: &str) -> Option<Verb> {
        Some(match s {
            "harden" => Verb::Harden,
            "recover" => Verb::Recover,
            "explore" => Verb::Explore,
            "verify" => Verb::Verify,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Verb::Harden => "harden",
            Verb::Recover => "recover",
            Verb::Explore => "explore",
            Verb::Verify => "verify",
        }
    }

    /// Whether the verb runs the parallel search engine.
    pub fn searches(self) -> bool {
        matches!(self, Verb::Explore | Verb::Verify)
    }
}

/// The scheduler seed of catalog app `app` under the benchmark seed
/// `seed`: splitmix64 of their mix. Every pass reuses it, so passes repeat
/// identical work.
pub fn mix(seed: u64, app: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(app as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_text(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

fn inst_count(program: &Program) -> usize {
    program.module.iter_insts().count()
}

/// One catalog app, ready for every verb.
pub struct App {
    pub w: Workload,
    /// The unhardened module as `.cir` text.
    pub cir: String,
    /// The survival-hardened program.
    pub hardened: Program,
    /// Hashes of the printed survival- and fix-mode hardened modules.
    survival_hash: u64,
    fix_hash: u64,
}

impl App {
    pub fn name(&self) -> &'static str {
        self.w.meta.name
    }
}

/// The set-up every workload shares: build the catalog, print it, harden
/// it, and measure the hardened catalog's static growth and seed-paired
/// dynamic overhead.
pub struct Catalog {
    pub apps: Vec<App>,
    pub code_growth_pct: f64,
    pub run_overhead_pct: f64,
    pub static_points: usize,
    pub insts_added: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The first set-up oracle that failed, if any.
    pub check: Result<(), String>,
}

impl Catalog {
    pub fn build(seed: u64) -> Catalog {
        let config = MachineConfig::default();
        let mut check = Ok(());
        let mut fail = |msg: String| {
            if check.is_ok() {
                check = Err(msg);
            }
        };
        let mut apps = Vec::new();
        let (mut orig_static, mut hard_static, mut static_points) = (0usize, 0usize, 0usize);
        let (mut orig_dyn, mut hard_dyn) = (0u64, 0u64);
        let (mut attempted, mut failed) = (0u64, 0u64);
        for (i, w) in all_workloads().into_iter().enumerate() {
            let name = w.meta.name;
            let cir = w.program.module.to_string();
            attempted += 1;
            match parse_module(&cir) {
                Ok(m) if m.to_string() == cir => {}
                _ => {
                    failed += 1;
                    fail(format!("{name}: print ∘ parse is not the identity"));
                }
            }
            let survival = Conair::survival().harden(&w.program);
            let fix = Conair::fix(w.fix_markers.clone()).harden(&w.program);
            orig_static += inst_count(&w.program);
            hard_static += inst_count(&survival.program);
            static_points += survival.plan.stats.static_points;

            let s = mix(seed, i);
            let base = run_scripted(&w.program, &config, &w.benign_script, s);
            let hard = run_scripted(&survival.program, &config, &w.benign_script, s);
            attempted += 2;
            for (what, ok) in [
                ("original benign run", w.run_is_correct(&base)),
                ("hardened benign run", w.run_is_correct(&hard)),
            ] {
                if !ok {
                    failed += 1;
                    fail(format!("{name}: {what}: wrong answer"));
                }
            }
            orig_dyn += base.stats.insts;
            hard_dyn += hard.stats.insts;
            apps.push(App {
                survival_hash: hash_text(&survival.program.module.to_string()),
                fix_hash: hash_text(&fix.program.module.to_string()),
                hardened: survival.program,
                cir,
                w,
            });
        }
        Catalog {
            apps,
            code_growth_pct: pct_growth(orig_static as f64, hard_static as f64),
            run_overhead_pct: pct_growth(orig_dyn as f64, hard_dyn as f64),
            static_points,
            insts_added: hard_static - orig_static,
            attempted,
            failed,
            check,
        }
    }

    pub fn app(&self, name: &str) -> &App {
        self.apps
            .iter()
            .find(|a| a.name() == name)
            .expect("the catalog holds every Table-2 app")
    }
}

fn pct_growth(base: f64, new: f64) -> f64 {
    if base > 0.0 {
        (new - base) * 100.0 / base
    } else {
        0.0
    }
}

/// What one pass did.
#[derive(Default)]
pub struct PassOut {
    pub attempted: u64,
    pub failed: u64,
    /// Count-type values that must repeat bit for bit across tracing and
    /// job counts.
    pub exact: BTreeMap<&'static str, f64>,
    /// Values that depend on caches or timing.
    pub info: BTreeMap<&'static str, f64>,
    /// One JSON object per app, for the per-layer report.
    pub detail: Vec<String>,
    /// Wall time of each operation, ms, in the order they ran.
    pub op_ms: Vec<f64>,
    /// Each operation's time at the reference host speed, ms.
    pub op_ref_ms: Vec<f64>,
    /// The calibration kernel's times during the pass, ms.
    pub calib_ms: Vec<f64>,
    clock: Clock,
    /// Explorer phase totals, µs: capture, restore, interpret, merge.
    phases: [u64; 4],
    /// Sums for `minimize.shrink_ratio`: original and minimized lengths.
    shrink: (usize, usize),
    /// Per-site recovery latencies of the forced runs, steps.
    recovery_steps: Vec<u64>,
}

impl PassOut {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: wrong answer: {}", what());
        }
    }

    /// Runs one operation of the closed loop: a fresh span id, a
    /// `bench.op` span around it, and its time on the pass's clock.
    fn op(&mut self, tracer: &Tracer, f: impl FnOnce(&mut PassOut)) {
        tracer.next_op();
        let mut clock = std::mem::take(&mut self.clock);
        clock.time(|| tracer.span("bench.op", || f(self)));
        self.clock = clock;
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.exact.entry(key).or_insert(0.0) += v;
    }

    fn add_info(&mut self, key: &'static str, v: f64) {
        *self.info.entry(key).or_insert(0.0) += v;
    }

    fn add_search(&mut self, r: &ExploreReport) {
        self.add("explore.schedules", r.schedules as f64);
        self.add("explore.dedup_skips", r.dedup_skips as f64);
        self.add("explore.independence_skips", r.independence_skips as f64);
        self.add("dpor.races_detected", r.dpor.races_detected as f64);
        self.add("dpor.backtrack_points", r.dpor.backtrack_points as f64);
        self.add("dpor.sleep_skips", r.dpor.sleep_skips as f64);
        self.add_info("explore.steps_saved", r.steps_saved as f64);
        self.add_info("snapshot.taken", r.snapshots_taken as f64);
        self.add_info("snapshot.hits", r.snapshot_hits as f64);
        let p = &r.phases;
        for (slot, us) in
            self.phases
                .iter_mut()
                .zip([p.capture_us, p.restore_us, p.interpret_us, p.merge_us])
        {
            *slot += us;
        }
    }

    /// Closes the pass's clock and derives the ratios once every op of the
    /// pass has been added.
    fn finish(mut self) -> PassOut {
        (self.op_ms, self.op_ref_ms, self.calib_ms) = std::mem::take(&mut self.clock).finish();
        let schedules = self.exact.get("explore.schedules").copied().unwrap_or(0.0);
        let hits = self.info.remove("snapshot.hits").unwrap_or(0.0);
        if schedules > 0.0 {
            self.info
                .insert("explore.snapshot_hit_rate", hits / schedules);
        }
        let total: u64 = self.phases.iter().sum();
        if total > 0 {
            let share = |us: u64| us as f64 * 100.0 / total as f64;
            self.info
                .insert("snapshot.capture_pct", share(self.phases[0]));
            self.info
                .insert("snapshot.restore_pct", share(self.phases[1]));
            self.info
                .insert("explore.interpret_pct", share(self.phases[2]));
            self.info.insert("explore.merge_pct", share(self.phases[3]));
        }
        if !self.recovery_steps.is_empty() {
            self.recovery_steps.sort_unstable();
            let mid = self.recovery_steps[(self.recovery_steps.len() - 1) / 2];
            self.exact.insert("thread.recovery_steps_p50", mid as f64);
        }
        let (orig, min) = self.shrink;
        if orig > 0 {
            self.exact
                .insert("minimize.shrink_ratio", 1.0 - min as f64 / orig as f64);
        }
        self
    }
}

/// Runs one pass of `verb` over its app list.
pub fn run_pass(cat: &Catalog, verb: Verb, seed: u64, jobs: usize, tracer: &Tracer) -> PassOut {
    let mut out = PassOut::default();
    match verb {
        Verb::Harden => {
            for app in &cat.apps {
                out.op(tracer, |out| harden_op(app, tracer, out));
            }
        }
        Verb::Recover => {
            for (i, app) in cat.apps.iter().enumerate() {
                out.op(tracer, |out| recover_op(app, mix(seed, i), tracer, out));
            }
        }
        Verb::Explore => {
            for (i, name) in EXPLORE_APPS.iter().enumerate() {
                let app = cat.app(name);
                out.op(tracer, |out| {
                    explore_op(app, mix(seed, i), jobs, tracer, out)
                });
            }
        }
        Verb::Verify => {
            for (names, k) in [(VERIFY_K1, 1), (VERIFY_K2, 2)] {
                for name in names {
                    let app = cat.app(name);
                    out.op(tracer, |out| verify_op(app, k, jobs, tracer, out));
                }
            }
        }
    }
    out.finish()
}

fn phase_list(spans: &PhaseSpans) -> Vec<(&'static str, Duration)> {
    spans
        .spans
        .iter()
        .map(|s| {
            let name = match s.name.as_str() {
                "analyze" => "analysis.analyze",
                "optimize" => "analysis.optimize",
                _ => "transform",
            };
            (name, s.wall)
        })
        .collect()
}

/// `.cir` text → parsed, validated → survival- and fix-hardened,
/// validated → printed. The printed modules must hash to what set-up
/// produced from the in-memory catalog.
fn harden_op(app: &App, tracer: &Tracer, out: &mut PassOut) {
    let name = app.name();
    let module = match tracer.span("ir.parse", || parse_module(&app.cir)) {
        Ok(m) => m,
        Err(e) => return out.check(false, || format!("{name}: parse: {e}")),
    };
    let valid = tracer.span("ir.validate", || validate(&module)).is_ok();
    out.check(valid, || format!("{name}: parsed module does not validate"));
    let program = app.w.program.with_module(module);
    let harden = |pipeline: Conair| -> HardenedProgram {
        tracer.span("core.harden", || {
            let (h, spans) = pipeline.harden_timed(&program);
            tracer.phases(&phase_list(&spans));
            h
        })
    };
    let survival = harden(Conair::survival());
    let fix = harden(Conair::fix(app.w.fix_markers.clone()));
    for (mode, h, want) in [
        ("survival", &survival, app.survival_hash),
        ("fix", &fix, app.fix_hash),
    ] {
        let valid = tracer
            .span("ir.validate", || validate_hardened(&h.program.module))
            .is_ok();
        let text = tracer.span("ir.print", || h.program.module.to_string());
        out.check(valid && hash_text(&text) == want, || {
            format!("{name}: {mode}-hardened output differs from set-up")
        });
    }
    out.add(
        "analysis.static_points",
        survival.plan.stats.static_points as f64,
    );
    out.detail.push(format!(
        "{{\"app\":\"{name}\",\"cir_bytes\":{},\"static_points\":{},\"fix_static_points\":{}}}",
        app.cir.len(),
        survival.plan.stats.static_points,
        fix.plan.stats.static_points
    ));
}

/// The original benign run, the hardened benign run and the hardened
/// forced-failure run, all with one scheduler seed. Every run must complete
/// with the app's expected outputs.
fn recover_op(app: &App, seed: u64, tracer: &Tracer, out: &mut PassOut) {
    let config = MachineConfig::default();
    let w = &app.w;
    let run = |program: &Program, script| -> RunResult {
        tracer.span("machine.run", || {
            run_scripted(program, &config, script, seed)
        })
    };
    let base = run(&w.program, &w.benign_script);
    let hard = run(&app.hardened, &w.benign_script);
    let forced = run(&app.hardened, &w.bug_script);
    let name = app.name();
    for (what, r) in [
        ("original benign", &base),
        ("hardened benign", &hard),
        ("hardened forced", &forced),
    ] {
        out.check(w.run_is_correct(r), || {
            format!("{name}: {what} run: {:?}", r.outcome)
        });
        out.add("machine.steps", r.stats.steps as f64);
    }
    for r in [&hard, &forced] {
        out.add("thread.checkpoints", r.stats.checkpoints as f64);
        out.add("thread.rollbacks", r.stats.rollbacks as f64);
        out.add("thread.retries", r.stats.total_retries() as f64);
    }
    let steps = forced
        .stats
        .site_recovery
        .values()
        .filter_map(|r| r.recovery_steps());
    out.recovery_steps.extend(steps);
    out.detail.push(format!(
        "{{\"app\":\"{name}\",\"forced_retries\":{},\"forced_steps\":{}}}",
        forced.stats.total_retries(),
        forced.stats.steps
    ));
}

fn search_config(
    strategy: ExploreStrategy,
    mask: PointMask,
    budget: usize,
    jobs: usize,
) -> ExploreConfig {
    let mut ec = ExploreConfig::new(strategy);
    ec.mask = mask;
    ec.budget = budget;
    ec.jobs = jobs;
    ec
}

/// Stop-at-first bounded search per the app's hint, minimized with the
/// search's own budget and replayed; a stop-at-first DPOR search at one
/// preemption; a keep-going PCT sweep. Both stop-at-first searches must
/// find the app's known bug, and the replay must reproduce the minimized
/// failure without diverging.
fn explore_op(app: &App, seed: u64, jobs: usize, tracer: &Tracer, out: &mut PassOut) {
    let name = app.name();
    let program = &app.w.program;
    let config = MachineConfig::default();
    let hint = explore_hint(name).expect("every catalog app has an explore hint");

    let mut ec = search_config(hint.strategy, hint.mask, hint.budget, jobs);
    ec.seed = hint.seed;
    let bounded = tracer.span("explore.bounded", || explore(program, &config, &ec));
    out.add_search(&bounded);
    let mut detail = format!(
        "{{\"app\":\"{name}\",\"bounded_schedules\":{}",
        bounded.schedules
    );
    match &bounded.first_failure {
        Some(found) => {
            out.check(true, String::new);
            let min = tracer.span("minimize", || {
                minimize(program, &config, &found.trace, hint.budget)
            });
            match min {
                Ok(min) => {
                    out.add("minimize.candidates", min.candidates as f64);
                    out.shrink.0 += min.original_len;
                    out.shrink.1 += min.minimized_len;
                    detail += &format!(
                        ",\"minimize_candidates\":{},\"original_len\":{},\"minimized_len\":{}",
                        min.candidates, min.original_len, min.minimized_len
                    );
                    let replay_config = MachineConfig {
                        record_decisions: true,
                        ..config
                    };
                    let (replayed, divergence) =
                        tracer.span("replay", || run_replay(program, &replay_config, &min.trace));
                    out.check(
                        divergence.is_none() && replayed.outcome == min.outcome,
                        || format!("{name}: replay of the minimized trace diverged"),
                    );
                }
                Err(e) => out.check(false, || format!("{name}: minimize: {e}")),
            }
        }
        None => out.check(false, || format!("{name}: bounded search missed the bug")),
    }

    let ec = search_config(
        ExploreStrategy::Dpor { preemptions: 1 },
        PointMask::SYNC_SHARED,
        EXPLORE_DPOR_BUDGET,
        jobs,
    );
    let dpor = tracer.span("explore.dpor", || explore(program, &config, &ec));
    out.add_search(&dpor);
    out.check(dpor.first_failure.is_some(), || {
        format!("{name}: DPOR missed the bug")
    });

    let mut ec = search_config(
        ExploreStrategy::Pct { depth: 3 },
        PointMask::SYNC,
        EXPLORE_PCT_BUDGET,
        jobs,
    );
    ec.seed = seed;
    ec.stop_at_first = false;
    let pct = tracer.span("explore.pct", || explore(program, &config, &ec));
    out.add_search(&pct);
    out.check(pct.schedules > 0, || format!("{name}: PCT ran no schedule"));
    out.detail.push(format!(
        "{detail},\"dpor_schedules\":{},\"pct_schedules\":{},\"pct_failures\":{}}}",
        dpor.schedules, pct.schedules, pct.failures
    ));
}

/// Exhaustive DPOR on the hardened app under the fair retry model. At one
/// preemption the verdict must be VERIFIED (exhausted, no failure, races
/// seen); at two the fixed budget must end INCONCLUSIVE with no failure.
fn verify_op(app: &App, preemptions: usize, jobs: usize, tracer: &Tracer, out: &mut PassOut) {
    let name = app.name();
    let hint = verify_hint(name).expect("every catalog app has a verify hint");
    let config = MachineConfig {
        retry_backoff: true,
        max_retries: hint.max_retries,
        ..MachineConfig::default()
    };
    let budget = if preemptions == 1 {
        hint.budget
    } else {
        VERIFY_K2_BUDGET
    };
    let ec = search_config(
        ExploreStrategy::Dpor { preemptions },
        PointMask::SYNC_SHARED,
        budget,
        jobs,
    );
    let r = tracer.span("explore.dpor", || explore(&app.hardened, &config, &ec));
    out.add_search(&r);
    let ok = if preemptions == 1 {
        r.exhausted && r.failures == 0 && r.dpor.races_detected > 0
    } else {
        !r.exhausted && r.failures == 0
    };
    out.check(ok, || {
        format!(
            "{name}: K={preemptions} verdict wrong (exhausted {}, failures {}, races {})",
            r.exhausted, r.failures, r.dpor.races_detected
        )
    });
    out.detail.push(format!(
        "{{\"app\":\"{name}\",\"k\":{preemptions},\"schedules\":{},\"exhausted\":{},\"races\":{},\"merge_us\":{},\"interpret_us\":{}}}",
        r.schedules, r.exhausted, r.dpor.races_detected, r.phases.merge_us, r.phases.interpret_us
    ));
}
