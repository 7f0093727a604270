//! Application-scale filler code.
//!
//! The paper's benchmarks are real applications (1.2K–693K LOC); their bug
//! kernels are tiny, but survival-mode ConAir hardens *every* potential
//! failure site in the whole program (Table 4: 7–19,185 sites). The filler
//! generator reproduces that shape: it deterministically emits benign
//! functions containing a configured mix of potential failure sites plus a
//! site-free compute kernel that dominates dynamic execution, keeping the
//! hardened overhead under 1% exactly as in the paper.
//!
//! Site counts are scaled down ~10× from Table 4 (documented in
//! EXPERIMENTS.md); the *proportions* per failure kind are preserved.

use conair_ir::{CmpKind, FuncBuilder, FuncId, ModuleBuilder, Operand};

/// The mix of potential failure sites emitted for one application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteProfile {
    /// Assertions with shared-read conditions (never optimized away).
    pub asserts: usize,
    /// Assertions with constant conditions (removed by the Section 4.2
    /// optimization — they contribute to Table 6's non-deadlock column).
    pub const_asserts: usize,
    /// Plain output calls whose value derives from a shared read.
    pub outputs: usize,
    /// Heap/global-pointer dereferences (never optimized away).
    pub derefs: usize,
    /// Nested lock pairs: the inner acquisition is a *recoverable* deadlock
    /// site (Figure 7b).
    pub lock_pairs: usize,
    /// Lone lock acquisitions behind a destroying op: *unrecoverable*
    /// deadlock sites, removed by the optimization (Figure 7a, Table 6's
    /// deadlock column).
    pub lone_locks: usize,
}

impl SiteProfile {
    /// Total potential failure sites this profile emits
    /// (each lock pair contributes two deadlock sites: outer + inner).
    pub fn total_sites(&self) -> usize {
        self.asserts
            + self.const_asserts
            + self.outputs
            + self.derefs
            + 2 * self.lock_pairs
            + self.lone_locks
    }

    /// Sites that survive the optimization (inner locks of pairs; shared
    /// asserts, outputs and derefs).
    pub fn recoverable_sites(&self) -> usize {
        self.asserts + self.outputs + self.derefs + self.lock_pairs
    }
}

/// How much benign work the application performs dynamically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkProfile {
    /// Iterations of the site-free arithmetic kernel per driver call
    /// (each iteration ≈ 8 instructions).
    pub compute_iters: i64,
    /// Fraction (percent) of filler functions invoked once per run — the
    /// "cold" initialization phase.
    pub cold_call_percent: usize,
    /// How many site-bearing functions the hot loop re-invokes…
    pub hot_funcs: usize,
    /// …and how many times each.
    pub hot_iters: i64,
}

impl Default for WorkProfile {
    fn default() -> Self {
        Self {
            compute_iters: 2_000,
            cold_call_percent: 100,
            hot_funcs: 2,
            hot_iters: 16,
        }
    }
}

/// Handles to the filler code inside a module under construction.
#[derive(Debug, Clone)]
pub struct Filler {
    /// The driver: call once from one application thread; runs the cold
    /// phase, the hot loop and the compute kernel.
    pub driver: FuncId,
    /// The initializer: call at the start of *every* application thread
    /// before any filler site can execute (publishes the valid pointer the
    /// dereference sites read).
    pub init: FuncId,
    /// Number of filler functions emitted.
    pub functions: usize,
}

/// Number of sites emitted per filler function (small functions, many of
/// them — like real code).
const SITES_PER_FUNC: usize = 4;

/// Emits a site-free busy-wait loop of roughly `5 * iters` instructions
/// directly into `fb` — used by workload kernels to model initialization
/// phases whose duration controls retry counts (paper Section 6.3: the
/// failing thread "has to wait for thread 2's progress").
pub fn emit_delay(fb: &mut FuncBuilder, iters: i64) {
    fb.counted_loop(iters, |b, _| {
        b.nop();
    });
}

/// Emits filler into `mb` according to `sites` and `work`.
///
/// The generated code is benign: every assert condition is true at run
/// time, every dereference is valid once `init` has run, and nested locks
/// are always acquired in a global order.
pub fn emit_filler(mb: &mut ModuleBuilder, sites: SiteProfile, work: WorkProfile) -> Filler {
    // Shared state the sites read.
    let cfg = mb.global("filler_cfg", 3);
    let data = mb.global_array("filler_data", 8, 11);
    let ptr_cell = mb.global("filler_ptr", 0);
    let scratch = mb.global("filler_scratch", 0);

    // init: publish &filler_data into filler_ptr (idempotent, any thread).
    let init = {
        let mut fb = FuncBuilder::new("filler_init", 0);
        let addr = fb.addr_of_global(data);
        fb.store_global(ptr_cell, addr);
        fb.ret();
        mb.function(fb.finish())
    };

    // compute kernel: pure arithmetic over a stack slot, no sites.
    let compute = {
        let mut fb = FuncBuilder::new("filler_compute", 1);
        let n = fb.param(0);
        let acc = fb.local();
        fb.store_local(acc, 1);
        fb.counted_loop(n, |b, i| {
            let cur = b.load_local(acc);
            let x = b.mul(cur, 1_103_515_245i64);
            let y = b.add(x, i);
            let z = b.binop(conair_ir::BinOpKind::Xor, y, 0x5DEECE66Di64);
            b.store_local(acc, z);
        });
        let out = fb.load_local(acc);
        fb.ret_value(out);
        mb.function(fb.finish())
    };

    // Site-bearing functions. Each carries SITES_PER_FUNC sites of one
    // category, preceded by a destroying op (a scratch store) so regions
    // stay local and lone locks are provably unrecoverable.
    let mut site_funcs: Vec<FuncId> = Vec::new();
    let mut counter = 0usize;

    let mut emit_batch = |mb: &mut ModuleBuilder,
                          total: usize,
                          kind: &str,
                          body: &dyn Fn(&mut FuncBuilder, usize)| {
        let mut remaining = total;
        while remaining > 0 {
            let here = remaining.min(SITES_PER_FUNC);
            let mut fb = FuncBuilder::new(format!("filler_{kind}_{counter}"), 0);
            counter += 1;
            for k in 0..here {
                body(&mut fb, k);
            }
            fb.ret();
            site_funcs.push(mb.function(fb.finish()));
            remaining -= here;
        }
    };

    emit_batch(mb, sites.asserts, "assert", &|fb, _| {
        let v = fb.load_global(cfg);
        let c = fb.cmp(CmpKind::Ge, v, 0);
        fb.assert(c, "filler config non-negative");
    });
    emit_batch(mb, sites.const_asserts, "cassert", &|fb, _| {
        // Destroying op first, then a constant-condition assert: the slice
        // has no shared read, so the optimization removes the site.
        fb.store_global(scratch, 1);
        let c = fb.copy(1);
        fb.assert(c, "structurally true");
    });
    emit_batch(mb, sites.outputs, "output", &|fb, _| {
        let v = fb.load_global(cfg);
        fb.output("trace", v);
    });
    emit_batch(mb, sites.derefs, "deref", &|fb, k| {
        let p = fb.load_global(ptr_cell);
        let q = fb.add(p, (k % 8) as i64);
        let _ = fb.load_ptr(q);
    });

    // Lock pairs: a per-pair lock couple, acquired in a fixed global order.
    for i in 0..sites.lock_pairs {
        let outer = mb.lock(format!("filler_outer_{i}"));
        let inner = mb.lock(format!("filler_inner_{i}"));
        let mut fb = FuncBuilder::new(format!("filler_lockpair_{i}"), 0);
        fb.store_global(scratch, 2); // keep the outer site's region empty
        fb.lock(outer);
        fb.lock(inner); // recoverable deadlock site (Figure 7b)
        let v = fb.load_global(cfg);
        fb.store_global(scratch, v);
        fb.unlock(inner);
        fb.unlock(outer);
        fb.ret();
        site_funcs.push(mb.function(fb.finish()));
    }
    for i in 0..sites.lone_locks {
        let l = mb.lock(format!("filler_lone_{i}"));
        let mut fb = FuncBuilder::new(format!("filler_lonelock_{i}"), 0);
        fb.store_global(scratch, 3); // destroying op: Figure 7a shape
        fb.lock(l);
        fb.unlock(l);
        fb.ret();
        site_funcs.push(mb.function(fb.finish()));
    }

    // Driver: cold phase + hot loop + compute kernel.
    let driver = {
        let mut fb = FuncBuilder::new("filler_driver", 0);
        fb.call_void(init, vec![]);
        // Cold phase: call the configured fraction once each.
        let cold = site_funcs.len() * work.cold_call_percent / 100;
        for f in site_funcs.iter().take(cold) {
            fb.call_void(*f, vec![]);
        }
        // Hot loop: re-invoke a small rotating subset.
        if work.hot_funcs > 0 && !site_funcs.is_empty() {
            let subset: Vec<FuncId> = site_funcs.iter().copied().take(work.hot_funcs).collect();
            fb.counted_loop(work.hot_iters, |b, _| {
                for f in &subset {
                    b.call_void(*f, vec![]);
                }
            });
        }
        let checksum = fb.call(compute, vec![Operand::Const(work.compute_iters)]);
        // Publish the checksum so the compute kernel stays observable
        // without introducing an extra failure site.
        fb.store_global(scratch, checksum);
        fb.ret();
        mb.function(fb.finish())
    };

    Filler {
        driver,
        init,
        functions: site_funcs.len() + 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_ir::validate;
    use conair_runtime::{run_once, MachineConfig, Program};

    fn build(sites: SiteProfile, work: WorkProfile) -> Program {
        let mut mb = ModuleBuilder::new("filler_test");
        let filler = emit_filler(&mut mb, sites, work);
        let mut main = FuncBuilder::new("main", 0);
        main.call_void(filler.driver, vec![]);
        main.ret();
        mb.function(main.finish());
        let module = mb.finish();
        validate(&module).expect("filler module validates");
        Program::from_entry_names(module, &["main"])
    }

    fn small_sites() -> SiteProfile {
        SiteProfile {
            asserts: 6,
            const_asserts: 2,
            outputs: 3,
            derefs: 7,
            lock_pairs: 2,
            lone_locks: 3,
        }
    }

    #[test]
    fn profile_arithmetic() {
        let p = small_sites();
        assert_eq!(p.total_sites(), 6 + 2 + 3 + 7 + 4 + 3);
        assert_eq!(p.recoverable_sites(), 6 + 3 + 7 + 2);
    }

    #[test]
    fn filler_is_benign() {
        let program = build(small_sites(), WorkProfile::default());
        let r = run_once(&program, &MachineConfig::default(), 7);
        assert!(r.outcome.is_completed(), "{:?}", r.outcome);
        // Outputs from the output sites appear.
        assert!(!r.outputs_for("trace").is_empty());
    }

    #[test]
    fn site_counts_match_profile() {
        use conair_analysis::{identify_sites, SiteSelection};
        use conair_ir::FailureKind;
        let program = build(small_sites(), WorkProfile::default());
        let table = identify_sites(&program.module, &SiteSelection::Survival);
        let p = small_sites();
        assert_eq!(
            table.count_of(FailureKind::AssertionViolation),
            p.asserts + p.const_asserts,
        );
        assert_eq!(table.count_of(FailureKind::WrongOutput), p.outputs);
        assert_eq!(table.count_of(FailureKind::SegFault), p.derefs);
        assert_eq!(
            table.count_of(FailureKind::Deadlock),
            2 * p.lock_pairs + p.lone_locks
        );
    }

    #[test]
    fn optimization_removes_exactly_the_planted_unrecoverables() {
        use conair_analysis::{analyze, AnalysisConfig};
        let program = build(small_sites(), WorkProfile::default());
        let plan = analyze(&program.module, &AnalysisConfig::default());
        let p = small_sites();
        assert_eq!(plan.stats.removed_non_deadlock_sites, p.const_asserts);
        // Lone locks and the outer lock of each pair are unrecoverable.
        assert_eq!(
            plan.stats.removed_deadlock_sites,
            p.lone_locks + p.lock_pairs
        );
    }

    #[test]
    fn hardened_filler_still_benign_with_low_overhead() {
        use conair_analysis::{analyze, AnalysisConfig};
        use conair_transform::harden;
        let program = build(
            small_sites(),
            WorkProfile {
                compute_iters: 6_000,
                ..WorkProfile::default()
            },
        );
        let plan = analyze(&program.module, &AnalysisConfig::default());
        let hardened = harden(program.module.clone(), &plan);
        let hp = program.with_module(hardened.module);
        let report = conair_runtime::measure_overhead(
            &program,
            &hp,
            &MachineConfig::default(),
            &conair_runtime::ScheduleScript::none(),
            0,
            3,
        );
        assert!(
            report.overhead < 0.02,
            "filler overhead should be small, got {:.3}%",
            report.overhead * 100.0
        );
        assert!(report.dynamic_points > 0.0);
    }
}
