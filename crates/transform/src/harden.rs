//! The ConAir code transformation (paper Sections 3.3 and 4.1).
//!
//! Given a [`HardeningPlan`], the transform rewrites the module:
//!
//! * a [`Inst::Checkpoint`] is inserted at every reexecution point — the
//!   `setjmp` + epoch-counter-increment of paper Figure 6 line 5 (one
//!   checkpoint per point even when several failure sites share it);
//! * every recoverable **assertion** / **output-oracle** site becomes a
//!   [`Inst::FailGuard`] — the transformed `if (e) {} else
//!   { while (retry++ < max) longjmp; assert_fail }` of Figure 6, with the
//!   retry loop folded into the runtime semantics of the single guard
//!   instruction (documented in DESIGN.md);
//! * every recoverable **segmentation-fault** site (pointer dereference)
//!   gets a [`Inst::PtrGuard`] inserted immediately before it — the pointer
//!   sanity check of Figure 5c;
//! * every recoverable **deadlock** site (`pthread_mutex_lock`) becomes a
//!   [`Inst::TimedLock`] — Figure 5d; unrecoverable ones are reverted to
//!   plain locks (Section 4.2);
//! * plain `Output` sites keep their instruction (no oracle to check) but
//!   still receive checkpoints, modelling the worst-case survival-mode
//!   overhead measurement of Section 5.
//!
//! Compensation bookkeeping (Section 4.1 — recording allocations and lock
//! acquisitions per reexecution epoch) is performed by the runtime whenever
//! the executing thread has an active checkpoint, so no extra instructions
//! are required at allocation/lock call sites.

use std::collections::HashMap;

use conair_analysis::HardeningPlan;
use conair_ir::{BlockId, FailureKind, FuncId, GuardKind, Inst, Loc, Module, PointId, SiteId};

/// Statistics about one transformation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransformStats {
    /// Checkpoints inserted (static reexecution points).
    pub checkpoints: usize,
    /// Assert/output-oracle sites rewritten to guards.
    pub fail_guards: usize,
    /// Pointer guards inserted.
    pub ptr_guards: usize,
    /// Locks rewritten to timed locks.
    pub timed_locks: usize,
    /// Sites left untouched because the optimization proved them
    /// unrecoverable.
    pub unrecoverable_sites: usize,
}

/// The product of hardening: the transformed module plus the site/point
/// metadata the runtime reports against.
#[derive(Debug, Clone)]
pub struct HardenedModule {
    /// The transformed module (validates under
    /// [`conair_ir::validate_hardened`]).
    pub module: Module,
    /// Kind of each site, indexed by [`SiteId`] (shared with the plan).
    pub site_kinds: Vec<FailureKind>,
    /// Number of reexecution points (checkpoint instructions).
    pub num_points: usize,
    /// Transformation statistics.
    pub stats: TransformStats,
}

impl HardenedModule {
    /// The failure kind of `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn site_kind(&self, site: SiteId) -> FailureKind {
        self.site_kinds[site.index()]
    }
}

/// What must happen at one original instruction index during rebuilding.
#[derive(Debug, Clone, Default)]
struct Edit {
    /// Checkpoints inserted before the instruction.
    checkpoints: Vec<PointId>,
    /// Pointer guard (site) inserted before the instruction.
    ptr_guard: Option<SiteId>,
    /// In-place rewrite of the instruction.
    rewrite: Option<Rewrite>,
}

#[derive(Debug, Clone)]
enum Rewrite {
    FailGuard { kind: GuardKind, site: SiteId },
    TimedLock { site: SiteId },
}

/// Applies `plan` to `module`, producing the hardened module.
///
/// The input module is consumed; callers keep a clone if they need the
/// original (the bench harness runs both for overhead comparison).
///
/// # Panics
///
/// Panics if the plan refers to locations that do not exist in `module`
/// (i.e. the plan was computed for a different module).
pub fn harden(mut module: Module, plan: &HardeningPlan) -> HardenedModule {
    // Collect edits keyed by function and block.
    type EditMap = HashMap<(FuncId, BlockId), HashMap<usize, Edit>>;
    let mut edits: EditMap = HashMap::new();
    fn edit_at(edits: &mut EditMap, loc: Loc) -> &mut Edit {
        edits
            .entry((loc.func, loc.block))
            .or_default()
            .entry(loc.inst)
            .or_default()
    }

    let mut stats = TransformStats::default();

    for (idx, loc) in plan.checkpoints.iter().enumerate() {
        edit_at(&mut edits, *loc)
            .checkpoints
            .push(PointId::from_index(idx));
        stats.checkpoints += 1;
    }

    for sp in &plan.sites {
        if !sp.is_recoverable() {
            stats.unrecoverable_sites += 1;
            continue;
        }
        let site = sp.site.id;
        let inst = module
            .inst_at(sp.site.loc)
            .unwrap_or_else(|| panic!("plan site {site} at {} missing", sp.site.loc));
        match inst {
            Inst::Assert { .. } => {
                edit_at(&mut edits, sp.site.loc).rewrite = Some(Rewrite::FailGuard {
                    kind: GuardKind::Assert,
                    site,
                });
                stats.fail_guards += 1;
            }
            Inst::OutputAssert { .. } => {
                edit_at(&mut edits, sp.site.loc).rewrite = Some(Rewrite::FailGuard {
                    kind: GuardKind::WrongOutput,
                    site,
                });
                stats.fail_guards += 1;
            }
            Inst::LoadPtr { .. } | Inst::StorePtr { .. } => {
                edit_at(&mut edits, sp.site.loc).ptr_guard = Some(site);
                stats.ptr_guards += 1;
            }
            Inst::Lock { .. } => {
                edit_at(&mut edits, sp.site.loc).rewrite = Some(Rewrite::TimedLock { site });
                stats.timed_locks += 1;
            }
            // Plain outputs: hardened (checkpointed) but not guarded.
            Inst::Output { .. } => {}
            other => panic!(
                "plan site {site} points at non-site instruction `{}`",
                other.mnemonic()
            ),
        }
    }

    // Rebuild each edited block in one pass over its original indices.
    for ((func_id, block_id), block_edits) in edits {
        let func = module.func_mut(func_id);
        let block = func.block_mut(block_id);
        let original = std::mem::take(&mut block.insts);
        let mut rebuilt = Vec::with_capacity(original.len() + block_edits.len() * 2);
        for (i, inst) in original.into_iter().enumerate() {
            if let Some(edit) = block_edits.get(&i) {
                for &point in &edit.checkpoints {
                    rebuilt.push(Inst::Checkpoint { point });
                }
                if let Some(site) = edit.ptr_guard {
                    let ptr = match &inst {
                        Inst::LoadPtr { ptr, .. } | Inst::StorePtr { ptr, .. } => *ptr,
                        other => panic!(
                            "ptr guard planned for non-dereference `{}`",
                            other.mnemonic()
                        ),
                    };
                    rebuilt.push(Inst::PtrGuard { ptr, site });
                }
                match (&edit.rewrite, inst) {
                    (Some(Rewrite::FailGuard { kind, site }), Inst::Assert { cond, msg })
                    | (Some(Rewrite::FailGuard { kind, site }), Inst::OutputAssert { cond, msg }) =>
                    {
                        rebuilt.push(Inst::FailGuard {
                            kind: *kind,
                            cond,
                            site: *site,
                            msg,
                        });
                    }
                    (Some(Rewrite::TimedLock { site }), Inst::Lock { lock }) => {
                        rebuilt.push(Inst::TimedLock { lock, site: *site });
                    }
                    (Some(_), other) => panic!(
                        "rewrite planned for mismatched instruction `{}`",
                        other.mnemonic()
                    ),
                    (None, other) => rebuilt.push(other),
                }
            } else {
                rebuilt.push(inst);
            }
        }
        block.insts = rebuilt;
    }

    HardenedModule {
        site_kinds: plan.sites.iter().map(|s| s.site.kind).collect(),
        num_points: plan.checkpoints.len(),
        stats,
        module,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_analysis::{analyze, AnalysisConfig};
    use conair_ir::{validate_hardened, CmpKind, FuncBuilder, ModuleBuilder, Operand};

    fn count_insts(module: &Module, pred: impl Fn(&Inst) -> bool) -> usize {
        module.iter_insts().filter(|(_, i)| pred(i)).count()
    }

    /// Figure 6: `assert(e)` becomes `checkpoint; ...; failguard`.
    #[test]
    fn assert_transformation_matches_figure_6() {
        let mut mb = ModuleBuilder::new("fig6");
        let g = mb.global("e_src", 1);
        let mut fb = FuncBuilder::new("main", 0);
        let v = fb.load_global(g);
        let c = fb.cmp(CmpKind::Ne, v, 0);
        fb.assert(c, "e");
        fb.ret();
        mb.function(fb.finish());
        let module = mb.finish();

        let plan = analyze(&module, &AnalysisConfig::default());
        let hardened = harden(module, &plan);
        validate_hardened(&hardened.module).expect("hardened module validates");

        let main = hardened.module.func(conair_ir::FuncId(0));
        let insts = &main.blocks[0].insts;
        assert!(
            matches!(insts[0], Inst::Checkpoint { .. }),
            "checkpoint at the entrance (the region is clean): {insts:?}"
        );
        assert!(matches!(
            insts[3],
            Inst::FailGuard {
                kind: GuardKind::Assert,
                ..
            }
        ));
        assert_eq!(hardened.stats.fail_guards, 1);
        assert_eq!(hardened.stats.checkpoints, 1);
    }

    #[test]
    fn deref_gets_ptr_guard() {
        let mut mb = ModuleBuilder::new("seg");
        let g = mb.global("p", 0);
        let mut fb = FuncBuilder::new("main", 0);
        let p = fb.load_global(g);
        let _v = fb.load_ptr(p);
        fb.ret();
        mb.function(fb.finish());
        let module = mb.finish();
        let plan = analyze(&module, &AnalysisConfig::default());
        let hardened = harden(module, &plan);
        validate_hardened(&hardened.module).expect("validates");
        assert_eq!(
            count_insts(&hardened.module, |i| matches!(i, Inst::PtrGuard { .. })),
            1
        );
        // Guard sits immediately before the dereference.
        let insts = &hardened.module.func(conair_ir::FuncId(0)).blocks[0].insts;
        let guard_idx = insts
            .iter()
            .position(|i| matches!(i, Inst::PtrGuard { .. }))
            .unwrap();
        assert!(matches!(insts[guard_idx + 1], Inst::LoadPtr { .. }));
    }

    #[test]
    fn recoverable_lock_becomes_timed() {
        let mut mb = ModuleBuilder::new("dl");
        let l0 = mb.lock("outer");
        let l1 = mb.lock("inner");
        let mut fb = FuncBuilder::new("main", 0);
        fb.lock(l0); // unrecoverable (no enclosing acquisition)
        fb.lock(l1); // recoverable (region contains l0's acquisition)
        fb.unlock(l1);
        fb.unlock(l0);
        fb.ret();
        mb.function(fb.finish());
        let module = mb.finish();
        let plan = analyze(&module, &AnalysisConfig::default());
        let hardened = harden(module, &plan);
        validate_hardened(&hardened.module).expect("validates");
        assert_eq!(
            count_insts(&hardened.module, |i| matches!(i, Inst::TimedLock { .. })),
            1,
            "only the inner lock is rewritten"
        );
        assert_eq!(
            count_insts(&hardened.module, |i| matches!(i, Inst::Lock { .. })),
            1,
            "the unrecoverable lock stays plain (Section 4.2)"
        );
        assert_eq!(hardened.stats.unrecoverable_sites, 1);
    }

    #[test]
    fn shared_checkpoints_inserted_once() {
        // Two asserts sharing one region: a single checkpoint.
        let mut mb = ModuleBuilder::new("share");
        let g = mb.global("g", 1);
        let mut fb = FuncBuilder::new("main", 0);
        let v = fb.load_global(g);
        let c1 = fb.cmp(CmpKind::Gt, v, 0);
        fb.assert(c1, "a");
        let c2 = fb.cmp(CmpKind::Lt, v, 10);
        fb.assert(c2, "b");
        fb.ret();
        mb.function(fb.finish());
        let module = mb.finish();
        let plan = analyze(&module, &AnalysisConfig::default());
        let hardened = harden(module, &plan);
        assert_eq!(
            count_insts(&hardened.module, |i| matches!(i, Inst::Checkpoint { .. })),
            1,
            "Section 3.3: just one setjmp at a common reexecution point"
        );
        assert_eq!(hardened.stats.fail_guards, 2);
    }

    #[test]
    fn interprocedural_checkpoint_lands_in_caller() {
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
        let module = mb.finish();
        let plan = analyze(&module, &AnalysisConfig::default());
        let hardened = harden(module, &plan);
        validate_hardened(&hardened.module).expect("validates");

        let get = hardened.module.func_by_name("Get").unwrap();
        let get_fn = hardened.module.func(get);
        assert!(
            matches!(get_fn.blocks[0].insts[0], Inst::Checkpoint { .. }),
            "checkpoint in the caller: {:?}",
            get_fn.blocks[0].insts
        );
        let callee = hardened.module.func_by_name("GetState").unwrap();
        let callee_fn = hardened.module.func(callee);
        assert!(
            !callee_fn
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .any(|i| matches!(i, Inst::Checkpoint { .. })),
            "REintra removed from the callee"
        );
        // The dereference in the callee is still guarded.
        assert!(callee_fn
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::PtrGuard { .. })));
    }

    #[test]
    fn fix_mode_touches_single_site() {
        let mut mb = ModuleBuilder::new("fix");
        let g = mb.global("g", 1);
        let mut fb = FuncBuilder::new("main", 0);
        let v = fb.load_global(g);
        let c = fb.cmp(CmpKind::Gt, v, 0);
        fb.assert(c, "a");
        fb.marker("bug");
        let v2 = fb.load_global(g);
        let c2 = fb.cmp(CmpKind::Gt, v2, 0);
        fb.assert(c2, "b");
        let p = fb.load_global(g);
        let _ = fb.load_ptr(p);
        fb.ret();
        mb.function(fb.finish());
        let module = mb.finish();
        let plan = analyze(&module, &AnalysisConfig::fix_defaults(vec!["bug".into()]));
        let hardened = harden(module, &plan);
        validate_hardened(&hardened.module).expect("validates");
        assert_eq!(hardened.stats.fail_guards, 1);
        assert_eq!(hardened.stats.ptr_guards, 0);
        assert_eq!(
            count_insts(&hardened.module, |i| matches!(i, Inst::Assert { .. })),
            1,
            "the other assert is untouched"
        );
    }

    #[test]
    fn original_semantics_preserved_when_nothing_recoverable() {
        // A module whose only site is unrecoverable: hardening is a no-op
        // apart from nothing being inserted.
        let mut mb = ModuleBuilder::new("noop");
        let mut fb = FuncBuilder::new("main", 0);
        let k = fb.copy(1);
        fb.assert(k, "const");
        fb.ret();
        mb.function(fb.finish());
        let module = mb.finish();
        let before = module.clone();
        let plan = analyze(&module, &AnalysisConfig::default());
        let hardened = harden(module, &plan);
        assert_eq!(hardened.module, before);
        assert_eq!(hardened.stats.checkpoints, 0);
    }
}
