//! The end-to-end static analysis: produces the [`HardeningPlan`] consumed
//! by `conair-transform`.
//!
//! Pipeline order follows the paper (Section 4.3, "Other issues"):
//! intra-procedural region analysis first, then inter-procedural promotion
//! (which removes the promoted sites' entry points), then the Section 4.2
//! optimization — applied only to sites that recover intra-procedurally.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use conair_ir::{FailureKind, InstPos, Loc, Module, PointId, SiteId};

use crate::classify::RegionPolicy;
use crate::ctx::AnalysisCache;
use crate::interproc::{promote_site, should_promote, InterprocConfig};
use crate::optimize::{judge_deadlock_site, judge_non_deadlock_site, RecoverabilityVerdict};
use crate::region::find_reexec_points;
use crate::sites::{identify_sites, FailureSite, SiteSelection};
use crate::slicing::slice_in_region;

/// Configuration for the whole analysis — and of a `conair::Conair`
/// hardening pipeline, which holds one.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Survival or fix mode (Section 3.1).
    pub selection: SiteSelection,
    /// Region policy (Figure 4 spectrum; Section 4.1 default).
    pub policy: RegionPolicy,
    /// Apply the Section 4.2 unrecoverable-site removal.
    pub optimize: bool,
    /// Apply Section 4.3 inter-procedural promotion with this depth;
    /// `None` disables it.
    pub interproc_depth: Option<usize>,
}

impl Default for AnalysisConfig {
    /// The paper's configuration: survival mode, compensated regions,
    /// optimization on, inter-procedural depth 3.
    fn default() -> Self {
        Self {
            selection: SiteSelection::Survival,
            policy: RegionPolicy::Compensated,
            optimize: true,
            interproc_depth: Some(3),
        }
    }
}

impl AnalysisConfig {
    /// The paper's configuration in fix mode, for a set of failure markers.
    pub fn fix_defaults(markers: Vec<String>) -> Self {
        Self {
            selection: SiteSelection::Fix(markers),
            ..Self::default()
        }
    }
}

/// Per-site outcome of the analysis.
#[derive(Debug, Clone)]
pub struct SitePlan {
    /// The site.
    pub site: FailureSite,
    /// Recoverability after optimization ([`RecoverabilityVerdict::Recoverable`]
    /// for promoted sites, which skip the optimization).
    pub verdict: RecoverabilityVerdict,
    /// Set when the site was promoted to inter-procedural recovery; the
    /// value is the promotion depth.
    pub promoted_depth: Option<usize>,
    /// Final reexecution points for this site (checkpoint goes before each
    /// location).
    pub points: Vec<Loc>,
    /// Number of instructions inside the site's reexecution regions
    /// (diagnostics / EXPERIMENTS.md).
    pub region_size: usize,
}

impl SitePlan {
    /// Whether recovery code will be emitted for this site.
    pub fn is_recoverable(&self) -> bool {
        self.verdict.is_recoverable()
    }
}

/// Aggregate statistics of a plan (feeds Tables 4–6).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Static failure sites per kind (Table 4 row).
    pub sites_by_kind: BTreeMap<FailureKind, usize>,
    /// Sites surviving the optimization.
    pub recoverable_sites: usize,
    /// Deadlock sites removed by the optimization.
    pub removed_deadlock_sites: usize,
    /// Non-deadlock sites removed by the optimization.
    pub removed_non_deadlock_sites: usize,
    /// Sites promoted to inter-procedural recovery.
    pub promoted_sites: usize,
    /// Final static reexecution points (deduplicated checkpoints).
    pub static_points: usize,
    /// Wall time spent in the Section 4.2 recoverability judgments (the
    /// "optimize" phase of the pipeline's phase timing; zero when
    /// [`AnalysisConfig::optimize`] is off).
    pub optimize_wall: Duration,
}

/// The full analysis result.
#[derive(Debug, Clone)]
pub struct HardeningPlan {
    /// Per-site outcomes, indexed by [`SiteId`].
    pub sites: Vec<SitePlan>,
    /// Deduplicated checkpoint locations, sorted; index = [`PointId`].
    pub checkpoints: Vec<Loc>,
    /// Aggregates.
    pub stats: PlanStats,
}

impl HardeningPlan {
    /// The site plan for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn site(&self, id: SiteId) -> &SitePlan {
        &self.sites[id.index()]
    }

    /// The [`PointId`] assigned to the checkpoint at `loc`, if any.
    pub fn point_at(&self, loc: Loc) -> Option<PointId> {
        self.checkpoints
            .binary_search(&loc)
            .ok()
            .map(PointId::from_index)
    }

    /// Checkpoint locations serving at least one site of the given
    /// dead/non-deadlock class (Table 6 attribution; a checkpoint shared by
    /// both classes counts in both).
    pub fn points_for_class(&self, deadlock: bool) -> BTreeSet<Loc> {
        let mut set = BTreeSet::new();
        for sp in &self.sites {
            if sp.is_recoverable() && (sp.site.kind == FailureKind::Deadlock) == deadlock {
                set.extend(sp.points.iter().copied());
            }
        }
        set
    }
}

/// Runs the complete static analysis on `module`.
pub fn analyze(module: &Module, config: &AnalysisConfig) -> HardeningPlan {
    let table = identify_sites(module, &config.selection);

    // One CFG + flat layout + class-bitset context per function, shared
    // with the inter-procedural caller walks.
    let mut cache = AnalysisCache::new();

    let interproc_config = config.interproc_depth.map(|d| InterprocConfig {
        max_depth: d,
        policy: config.policy,
    });

    let mut site_plans: Vec<SitePlan> = Vec::with_capacity(table.len());
    let mut optimize_wall = Duration::ZERO;

    for site in &table.sites {
        let func = module.func(site.loc.func);
        let ctx = cache.ctx(module, site.loc.func);
        let site_pos = InstPos::new(site.loc.block, site.loc.inst);
        let region = find_reexec_points(func, &ctx, site_pos, config.policy);
        let is_deadlock = site.kind == FailureKind::Deadlock;
        let slice = slice_in_region(func, &ctx, &region, site_pos);

        // --- inter-procedural promotion (Section 4.3) --------------------
        let mut promoted_depth = None;
        let mut points: Vec<Loc> = Vec::new();
        if let Some(ipc) = &interproc_config {
            if should_promote(
                func,
                &ctx,
                site_pos,
                &region,
                &slice,
                is_deadlock,
                func.num_params,
            ) {
                if let Some(promo) = promote_site(module, site.id, site.loc.func, ipc, &mut cache) {
                    promoted_depth = Some(promo.depth);
                    points = promo.caller_points;
                }
            }
        }

        let verdict;
        if promoted_depth.is_some() {
            // Promoted sites skip the optimization (their regions are long
            // and "much harder to statically prove unrecoverable").
            verdict = RecoverabilityVerdict::Recoverable;
        } else {
            points = region
                .points
                .iter()
                .map(|p| Loc::new(site.loc.func, p.pos.block, p.pos.inst))
                .collect();
            verdict = if !config.optimize {
                RecoverabilityVerdict::Recoverable
            } else {
                let judge_start = Instant::now();
                let v = if is_deadlock {
                    judge_deadlock_site(&ctx, &region, site_pos)
                } else {
                    judge_non_deadlock_site(&slice)
                };
                optimize_wall += judge_start.elapsed();
                v
            };
        }

        site_plans.push(SitePlan {
            site: site.clone(),
            verdict,
            promoted_depth,
            points,
            region_size: region.region.len(),
        });
    }

    // --- checkpoint collection: points of surviving sites only ------------
    // ("ConAir also removes reexecution points that do not correspond to
    // any failure site".)
    let mut checkpoint_set: BTreeSet<Loc> = BTreeSet::new();
    for sp in &site_plans {
        if sp.is_recoverable() {
            checkpoint_set.extend(sp.points.iter().copied());
        }
    }
    let checkpoints: Vec<Loc> = checkpoint_set.into_iter().collect();

    // --- aggregates ---------------------------------------------------------
    let mut stats = PlanStats {
        static_points: checkpoints.len(),
        optimize_wall,
        ..PlanStats::default()
    };
    for sp in &site_plans {
        *stats.sites_by_kind.entry(sp.site.kind).or_default() += 1;
        match sp.verdict {
            RecoverabilityVerdict::Recoverable => {
                stats.recoverable_sites += 1;
                if sp.promoted_depth.is_some() {
                    stats.promoted_sites += 1;
                }
            }
            RecoverabilityVerdict::NoLockInRegion => stats.removed_deadlock_sites += 1,
            RecoverabilityVerdict::NoSharedReadOnSlice => stats.removed_non_deadlock_sites += 1,
        }
    }

    HardeningPlan {
        sites: site_plans,
        checkpoints,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder, Operand};

    #[test]
    fn default_is_the_papers_configuration() {
        let c = AnalysisConfig::default();
        assert_eq!(c.selection, SiteSelection::Survival);
        assert_eq!(c.policy, RegionPolicy::Compensated);
        assert!(c.optimize);
        assert_eq!(c.interproc_depth, Some(3));
    }

    /// A module with one site of each kind plus an unrecoverable deadlock
    /// site and an unrecoverable assert.
    fn mixed_module() -> Module {
        let mut mb = ModuleBuilder::new("mixed");
        let g = mb.global("g", 1);
        let l0 = mb.lock("l0");
        let l1 = mb.lock("l1");

        let mut fb = FuncBuilder::new("main", 0);
        // Recoverable assert: condition from shared read.
        let v = fb.load_global(g);
        let c = fb.cmp(CmpKind::Gt, v, 0);
        fb.assert(c, "shared");
        // Unrecoverable assert: constant condition, after a destroying op.
        fb.store_global(g, 2);
        let k = fb.copy(1);
        fb.assert(k, "const");
        // Segfault site: pointer from shared read.
        let p = fb.load_global(g);
        let _x = fb.load_ptr(p);
        // Recoverable deadlock: nested locks.
        fb.lock(l0);
        fb.lock(l1);
        fb.unlock(l1);
        fb.unlock(l0);
        // Unrecoverable deadlock: lone lock after an unlock boundary.
        fb.lock(l1);
        fb.unlock(l1);
        // Output site.
        fb.output("done", 0);
        fb.ret();
        mb.function(fb.finish());
        mb.finish()
    }

    #[test]
    fn plan_counts_and_verdicts() {
        let m = mixed_module();
        let plan = analyze(&m, &AnalysisConfig::default());
        assert_eq!(
            plan.stats.sites_by_kind[&FailureKind::AssertionViolation],
            2
        );
        assert_eq!(plan.stats.sites_by_kind[&FailureKind::SegFault], 1);
        assert_eq!(plan.stats.sites_by_kind[&FailureKind::Deadlock], 3);
        assert_eq!(plan.stats.sites_by_kind[&FailureKind::WrongOutput], 1);

        // The constant assert is removed; exactly one deadlock site (the
        // inner of the nested pair) survives.
        assert!(plan.stats.removed_non_deadlock_sites >= 1);
        let deadlock_survivors: Vec<_> = plan
            .sites
            .iter()
            .filter(|s| s.site.kind == FailureKind::Deadlock && s.is_recoverable())
            .collect();
        assert_eq!(deadlock_survivors.len(), 1);
    }

    #[test]
    fn disabling_optimization_keeps_all_sites() {
        let m = mixed_module();
        let cfg = AnalysisConfig {
            optimize: false,
            ..AnalysisConfig::default()
        };
        let plan = analyze(&m, &cfg);
        assert_eq!(plan.stats.recoverable_sites, plan.sites.len());
        assert_eq!(plan.stats.removed_deadlock_sites, 0);
        assert_eq!(plan.stats.removed_non_deadlock_sites, 0);

        let optimized = analyze(&m, &AnalysisConfig::default());
        assert!(
            optimized.stats.static_points <= plan.stats.static_points,
            "optimization never adds points"
        );
    }

    #[test]
    fn checkpoints_are_deduped_and_sorted() {
        let m = mixed_module();
        let plan = analyze(&m, &AnalysisConfig::default());
        let mut sorted = plan.checkpoints.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, plan.checkpoints);
        // PointId lookup agrees with position.
        for (i, loc) in plan.checkpoints.iter().enumerate() {
            assert_eq!(plan.point_at(*loc), Some(PointId::from_index(i)));
        }
    }

    #[test]
    fn fix_mode_restricts_to_marker() {
        let mut mb = ModuleBuilder::new("fix");
        let g = mb.global("g", 0);
        let mut fb = FuncBuilder::new("main", 0);
        let v0 = fb.load_global(g);
        let c0 = fb.cmp(CmpKind::Gt, v0, 0);
        fb.assert(c0, "first");
        fb.marker("the_bug");
        let v1 = fb.load_global(g);
        let c1 = fb.cmp(CmpKind::Gt, v1, 0);
        fb.assert(c1, "second");
        fb.ret();
        mb.function(fb.finish());
        let m = mb.finish();

        let plan = analyze(&m, &AnalysisConfig::fix_defaults(vec!["the_bug".into()]));
        assert_eq!(plan.sites.len(), 1);
        assert_eq!(plan.sites[0].site.kind, FailureKind::AssertionViolation);
        let survival = analyze(&m, &AnalysisConfig::default());
        assert!(survival.sites.len() > plan.sites.len());
    }

    #[test]
    fn promoted_site_has_caller_points() {
        // Reuse the mozilla-like shape via the module builder.
        let mut mb = ModuleBuilder::new("moz");
        let mthd = mb.global("mThd", 0);
        let get_state = mb.declare_function("GetState", 1);
        let mut fb = FuncBuilder::new("GetState", 1);
        let v = fb.load_ptr(fb.param(0));
        fb.ret_value(v);
        mb.define_function(get_state, fb.finish());
        let mut fb = FuncBuilder::new("Get", 0);
        let ptr = fb.load_global(mthd);
        let _ = fb.call(get_state, vec![Operand::Reg(ptr)]);
        fb.ret();
        mb.function(fb.finish());
        let m = mb.finish();

        let plan = analyze(&m, &AnalysisConfig::default());
        let seg = plan
            .sites
            .iter()
            .find(|s| s.site.kind == FailureKind::SegFault)
            .unwrap();
        assert_eq!(seg.promoted_depth, Some(1));
        let caller = m.func_by_name("Get").unwrap();
        assert!(seg.points.iter().all(|p| p.func == caller));
        assert_eq!(plan.stats.promoted_sites, 1);

        // With inter-procedural analysis disabled the point stays at the
        // callee entrance, and the optimization then removes the site
        // (no shared read reachable intra-procedurally).
        let cfg = AnalysisConfig {
            interproc_depth: None,
            ..AnalysisConfig::default()
        };
        let plan2 = analyze(&m, &cfg);
        let seg2 = plan2
            .sites
            .iter()
            .find(|s| s.site.kind == FailureKind::SegFault)
            .unwrap();
        assert!(seg2.promoted_depth.is_none());
        assert!(!seg2.is_recoverable());
    }

    #[test]
    fn point_class_attribution() {
        let m = mixed_module();
        let plan = analyze(&m, &AnalysisConfig::default());
        let dl = plan.points_for_class(true);
        let ndl = plan.points_for_class(false);
        assert!(!ndl.is_empty());
        assert!(!dl.is_empty());
    }
}
