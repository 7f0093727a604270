//! Property-based tests over the IR: printer/parser roundtrip, validation,
//! and analysis determinism on randomly generated modules.

use conair_ir::{parse_module, validate, BinOpKind, CmpKind, FuncBuilder, Module, ModuleBuilder};
use proptest::prelude::*;

/// A simple generated operation; indices are resolved modulo the available
/// resources so every generated module validates by construction.
#[derive(Debug, Clone)]
enum GenOp {
    Const(i64),
    Add(usize, usize),
    Mul(usize, usize),
    Xor(usize, usize),
    Cmp(usize, usize),
    LoadGlobal(usize),
    StoreGlobal(usize, usize),
    AddrDeref(usize, usize),
    StoreLocal(usize),
    LoadLocal,
    Output(usize),
    Assert(usize),
    Marker,
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        any::<i64>().prop_map(GenOp::Const),
        (0usize..64, 0usize..64).prop_map(|(a, b)| GenOp::Add(a, b)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| GenOp::Mul(a, b)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| GenOp::Xor(a, b)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| GenOp::Cmp(a, b)),
        (0usize..8).prop_map(GenOp::LoadGlobal),
        (0usize..8, 0usize..64).prop_map(|(g, v)| GenOp::StoreGlobal(g, v)),
        (0usize..8, 0usize..4).prop_map(|(g, o)| GenOp::AddrDeref(g, o)),
        (0usize..64).prop_map(GenOp::StoreLocal),
        Just(GenOp::LoadLocal),
        (0usize..64).prop_map(GenOp::Output),
        (0usize..64).prop_map(GenOp::Assert),
        Just(GenOp::Marker),
    ]
}

/// Builds a single-function module from generated ops. All register
/// references are resolved modulo the set of already-defined registers,
/// and asserts are made always-true (`cmp eq r, r`), so the module both
/// validates and runs to completion.
fn build_module(ops: &[GenOp]) -> Module {
    let mut mb = ModuleBuilder::new("gen");
    let globals: Vec<_> = (0..8)
        .map(|i| mb.global_array(format!("g{i}"), 4, i as i64))
        .collect();
    let mut fb = FuncBuilder::new("main", 0);
    let slot = fb.local();
    fb.store_local(slot, 1);
    let mut regs = vec![fb.copy(0i64)];
    let pick = |regs: &Vec<conair_ir::Reg>, i: usize| regs[i % regs.len()];
    let mut marker_count = 0usize;
    for op in ops {
        match op {
            GenOp::Const(c) => regs.push(fb.copy(*c)),
            GenOp::Add(a, b) => {
                let (a, b) = (pick(&regs, *a), pick(&regs, *b));
                regs.push(fb.add(a, b));
            }
            GenOp::Mul(a, b) => {
                let (a, b) = (pick(&regs, *a), pick(&regs, *b));
                regs.push(fb.mul(a, b));
            }
            GenOp::Xor(a, b) => {
                let (a, b) = (pick(&regs, *a), pick(&regs, *b));
                regs.push(fb.binop(BinOpKind::Xor, a, b));
            }
            GenOp::Cmp(a, b) => {
                let (a, b) = (pick(&regs, *a), pick(&regs, *b));
                regs.push(fb.cmp(CmpKind::Le, a, b));
            }
            GenOp::LoadGlobal(g) => regs.push(fb.load_global(globals[g % globals.len()])),
            GenOp::StoreGlobal(g, v) => {
                let v = pick(&regs, *v);
                fb.store_global(globals[g % globals.len()], v);
            }
            GenOp::AddrDeref(g, off) => {
                let a = fb.addr_of_global(globals[g % globals.len()]);
                let p = fb.add(a, (*off % 4) as i64);
                regs.push(fb.load_ptr(p));
            }
            GenOp::StoreLocal(v) => {
                let v = pick(&regs, *v);
                fb.store_local(slot, v);
            }
            GenOp::LoadLocal => regs.push(fb.load_local(slot)),
            GenOp::Output(v) => {
                let v = pick(&regs, *v);
                fb.output("t", v);
            }
            GenOp::Assert(v) => {
                let r = pick(&regs, *v);
                let c = fb.cmp(CmpKind::Eq, r, r); // always true
                fb.assert(c, "r == r");
            }
            GenOp::Marker => {
                fb.marker(format!("m{marker_count}"));
                marker_count += 1;
            }
        }
    }
    fb.ret();
    mb.function(fb.finish());
    mb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated modules always validate.
    #[test]
    fn generated_modules_validate(ops in prop::collection::vec(gen_op(), 0..120)) {
        let m = build_module(&ops);
        prop_assert!(validate(&m).is_ok());
    }

    /// print → parse roundtrips to an identical module.
    #[test]
    fn print_parse_roundtrip(ops in prop::collection::vec(gen_op(), 0..120)) {
        let m = build_module(&ops);
        let text = m.to_string();
        let parsed = parse_module(&text)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(parsed, m);
    }

    /// The analysis is deterministic and its plan is internally consistent:
    /// checkpoints are exactly the union of surviving sites' points.
    #[test]
    fn analysis_deterministic_and_consistent(ops in prop::collection::vec(gen_op(), 0..120)) {
        use conair_analysis::{analyze, AnalysisConfig};
        let m = build_module(&ops);
        let a = analyze(&m, &AnalysisConfig::default());
        let b = analyze(&m, &AnalysisConfig::default());
        prop_assert_eq!(&a.checkpoints, &b.checkpoints);
        prop_assert_eq!(a.sites.len(), b.sites.len());

        let mut union: Vec<_> = a
            .sites
            .iter()
            .filter(|s| s.is_recoverable())
            .flat_map(|s| s.points.iter().copied())
            .collect();
        union.sort();
        union.dedup();
        prop_assert_eq!(union, a.checkpoints.clone());
    }

    /// Hardening any generated module yields a valid hardened module whose
    /// checkpoint count equals the plan's static points.
    #[test]
    fn hardening_preserves_validity(ops in prop::collection::vec(gen_op(), 0..120)) {
        use conair_analysis::{analyze, AnalysisConfig};
        use conair_ir::{validate_hardened, Inst};
        use conair_transform::harden;
        let m = build_module(&ops);
        let plan = analyze(&m, &AnalysisConfig::default());
        let hardened = harden(m, &plan);
        prop_assert!(validate_hardened(&hardened.module).is_ok());
        let checkpoints = hardened
            .module
            .iter_insts()
            .filter(|(_, i)| matches!(i, Inst::Checkpoint { .. }))
            .count();
        prop_assert_eq!(checkpoints, plan.stats.static_points);
    }

    /// The optimization only ever removes points (monotonicity).
    #[test]
    fn optimization_is_monotone(ops in prop::collection::vec(gen_op(), 0..120)) {
        use conair_analysis::{analyze, AnalysisConfig};
        let m = build_module(&ops);
        let with = analyze(&m, &AnalysisConfig::default());
        let cfg = AnalysisConfig {
            optimize: false,
            ..AnalysisConfig::default()
        };
        let without = analyze(&m, &cfg);
        prop_assert!(with.stats.static_points <= without.stats.static_points);
        prop_assert!(with.stats.recoverable_sites <= without.stats.recoverable_sites);
    }
}
