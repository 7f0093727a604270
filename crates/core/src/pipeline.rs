//! The end-to-end ConAir pipeline: analyze → transform → run-ready program.

use std::time::Instant;

use conair_analysis::{analyze, AnalysisConfig, HardeningPlan};
use conair_ir::{validate_hardened, Module};
use conair_runtime::Program;
use conair_transform::{harden, TransformStats};

use crate::timing::PhaseSpans;

/// The ConAir tool: a configured analysis + transformation pipeline.
///
/// ```rust
/// use conair::Conair;
/// use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder};
/// use conair_runtime::{run_once, MachineConfig, Program};
///
/// let mut mb = ModuleBuilder::new("demo");
/// let flag = mb.global("flag", 1);
/// let mut fb = FuncBuilder::new("main", 0);
/// let v = fb.load_global(flag);
/// let ok = fb.cmp(CmpKind::Ne, v, 0);
/// fb.assert(ok, "flag set");
/// fb.ret();
/// mb.function(fb.finish());
/// let program = Program::from_entry_names(mb.finish(), &["main"]);
///
/// let hardened = Conair::survival().harden(&program);
/// let result = run_once(&hardened.program, &MachineConfig::default(), 0);
/// assert!(result.outcome.is_completed());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Conair {
    config: AnalysisConfig,
}

/// The product of hardening a program.
#[derive(Debug, Clone)]
pub struct HardenedProgram {
    /// The transformed, run-ready program (same thread specs).
    pub program: Program,
    /// The analysis plan that drove the transformation (site verdicts,
    /// reexecution points, statistics).
    pub plan: HardeningPlan,
    /// Transformation statistics.
    pub transform: TransformStats,
}

impl Conair {
    /// Survival-mode pipeline in the paper's configuration.
    pub fn survival() -> Self {
        Self::default()
    }

    /// Fix-mode pipeline for the failure sites named by `markers`.
    pub fn fix(markers: Vec<String>) -> Self {
        Self::with_config(AnalysisConfig::fix_defaults(markers))
    }

    /// A pipeline with an explicit configuration.
    pub fn with_config(config: AnalysisConfig) -> Self {
        Self { config }
    }

    /// Runs only the static analysis.
    pub fn analyze(&self, module: &Module) -> HardeningPlan {
        analyze(module, &self.config)
    }

    /// Hardens a whole program, preserving its thread specs.
    pub fn harden(&self, program: &Program) -> HardenedProgram {
        self.harden_timed(program).0
    }

    /// Runs the static analysis with phase timing: an `analyze` span (region
    /// analysis, slicing, promotion) and an `optimize` span (the Section 4.2
    /// recoverability judgments, as accounted by
    /// [`conair_analysis::PlanStats::optimize_wall`]).
    pub fn analyze_timed(&self, module: &Module) -> (HardeningPlan, PhaseSpans) {
        let start = Instant::now();
        let plan = self.analyze(module);
        let total = start.elapsed();
        let optimize = plan.stats.optimize_wall;
        let mut spans = PhaseSpans::default();
        spans.push("analyze", total.saturating_sub(optimize));
        spans.push("optimize", optimize);
        (plan, spans)
    }

    /// [`Conair::harden`] with phase timing: analyze → optimize → transform.
    pub fn harden_timed(&self, program: &Program) -> (HardenedProgram, PhaseSpans) {
        let (plan, mut spans) = self.analyze_timed(&program.module);
        let start = Instant::now();
        let hardened = harden(program.module.clone(), &plan);
        debug_assert!(
            validate_hardened(&hardened.module).is_ok(),
            "transform must produce a valid module"
        );
        spans.push("transform", start.elapsed());
        (
            HardenedProgram {
                program: program.with_module(hardened.module),
                plan,
                transform: hardened.stats,
            },
            spans,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_analysis::RegionPolicy;
    use conair_ir::{CmpKind, FuncBuilder, Inst, ModuleBuilder};
    use conair_runtime::{run_once, MachineConfig};

    fn demo_program() -> Program {
        let mut mb = ModuleBuilder::new("demo");
        let flag = mb.global("flag", 1);
        let l = mb.lock("m");
        let mut fb = FuncBuilder::new("main", 0);
        let v = fb.load_global(flag);
        let ok = fb.cmp(CmpKind::Ne, v, 0);
        fb.assert(ok, "flag set");
        fb.lock(l);
        fb.unlock(l);
        let p = fb.load_global(flag);
        let _ = fb.load_ptr(p); // will be guarded; flag=1 is an invalid ptr…
        fb.ret();
        mb.function(fb.finish());
        Program::from_entry_names(mb.finish(), &["main"])
    }

    #[test]
    fn survival_pipeline_produces_valid_program() {
        let program = demo_program();
        let hardened = Conair::survival().harden(&program);
        assert!(validate_hardened(&hardened.program.module).is_ok());
        assert!(hardened.plan.stats.static_points > 0);
        assert!(hardened.transform.fail_guards >= 1);
    }

    #[test]
    fn hardened_run_fails_safely_on_truly_bad_pointer() {
        // flag=1 is below the lower bound: the pointer guard retries and
        // then reports the segfault — but bounded by max_retries.
        let program = demo_program();
        let hardened = Conair::survival().harden(&program);
        let cfg = MachineConfig {
            max_retries: 5,
            ..MachineConfig::default()
        };
        let r = run_once(&hardened.program, &cfg, 0);
        match r.outcome {
            conair_runtime::RunOutcome::Failed(f) => {
                assert_eq!(f.kind, conair_ir::FailureKind::SegFault);
            }
            other => panic!("expected bounded segfault failure, got {other:?}"),
        }
    }

    #[test]
    fn fix_mode_is_narrower_than_survival() {
        let mut mb = ModuleBuilder::new("two");
        let flag = mb.global("flag", 1);
        let mut fb = FuncBuilder::new("main", 0);
        let v = fb.load_global(flag);
        let c = fb.cmp(CmpKind::Ne, v, 0);
        fb.assert(c, "a");
        fb.marker("bug_here");
        let v2 = fb.load_global(flag);
        let c2 = fb.cmp(CmpKind::Ne, v2, 0);
        fb.assert(c2, "b");
        fb.ret();
        mb.function(fb.finish());
        let program = Program::from_entry_names(mb.finish(), &["main"]);

        let survival = Conair::survival().harden(&program);
        let fix = Conair::fix(vec!["bug_here".into()]).harden(&program);
        assert!(fix.plan.sites.len() < survival.plan.sites.len());
        assert_eq!(fix.transform.fail_guards, 1);
    }

    #[test]
    fn configured_policy_reaches_analysis() {
        let program = demo_program();
        let strict = Conair::with_config(AnalysisConfig {
            policy: RegionPolicy::Strict,
            ..AnalysisConfig::default()
        });
        let hardened = strict.harden(&program);
        // Under the strict policy locks terminate regions, so the lock
        // sites are unrecoverable and no timed lock appears.
        assert_eq!(
            hardened
                .program
                .module
                .iter_insts()
                .filter(|(_, i)| matches!(i, Inst::TimedLock { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn hardening_is_idempotent_wrt_thread_specs() {
        let program = demo_program();
        let hardened = Conair::survival().harden(&program);
        assert_eq!(hardened.program.threads, program.threads);
    }
}
