//! Checkpoint-density stress programs for the featherweight-checkpoint
//! probes of `perfbench` (`thread.checkpoint_ns`, `thread.rollback_ns`,
//! `machine.steps_per_s`).
//!
//! The paper's cost model (§3.3, Table 7) calls a checkpoint "saving a few
//! registers" — cheap enough to execute on hot paths at every reexecution
//! point. These single-threaded programs put that claim under a microscope:
//!
//! * [`checkpoint_dense_program`] executes a checkpoint every loop
//!   iteration inside a deliberately *wide* frame (`regs` virtual
//!   registers), so any checkpoint implementation whose cost scales with
//!   frame size is exposed immediately;
//! * [`checkpoint_dense_control`] is the identical program with the
//!   checkpoint replaced by a `nop` — the differential isolates the
//!   per-checkpoint cost from loop overhead;
//! * [`rollback_dense_program`] forces `fails_per_pass - 1` rollbacks per
//!   iteration through a fail guard keyed to a (non-restored) stack-slot
//!   attempt counter, measuring the cost of the rollback path itself.
//!
//! All three are deterministic and single-threaded: every reported number
//! is a property of the checkpoint machinery, not of scheduling noise.

use conair_ir::{
    BinOpKind, CmpKind, FuncBuilder, GuardKind, Inst, ModuleBuilder, PointId, Reg, SiteId,
};
use conair_runtime::Program;

/// Emits `width` single-use register definitions so the frame's register
/// file is `width` registers wide. Returns the last defined register.
fn widen_frame(fb: &mut FuncBuilder, width: usize) -> Reg {
    let mut last = fb.copy(1);
    for _ in 1..width.max(1) {
        last = fb.add(last, 1);
    }
    last
}

/// A single-threaded loop of `iters` iterations, each executing one
/// checkpoint and one register write, in a frame `regs` registers wide.
pub fn checkpoint_dense_program(regs: usize, iters: u64) -> Program {
    build_dense(regs, iters, true)
}

/// The control for [`checkpoint_dense_program`]: byte-for-byte the same
/// loop with the checkpoint replaced by a `nop`, so
/// `(dense_wall - control_wall) / checkpoints` is the marginal cost of one
/// checkpoint execution.
pub fn checkpoint_dense_control(regs: usize, iters: u64) -> Program {
    build_dense(regs, iters, false)
}

fn build_dense(regs: usize, iters: u64, checkpoint: bool) -> Program {
    let mut mb = ModuleBuilder::new("checkpoint_stress");
    let mut fb = FuncBuilder::new("main", 0);
    let acc = widen_frame(&mut fb, regs);
    fb.counted_loop(iters as i64, |fb, _i| {
        if checkpoint {
            fb.push(Inst::Checkpoint { point: PointId(0) });
        } else {
            fb.nop();
        }
        // One register write inside the epoch: the undo log sees exactly
        // one record per iteration, the clone implementation copies the
        // whole `regs`-wide file.
        fb.push(Inst::BinOp {
            dst: acc,
            op: BinOpKind::Add,
            lhs: acc.into(),
            rhs: 1.into(),
        });
    });
    fb.ret();
    mb.function(fb.finish());
    Program::from_entry_names(mb.finish(), &["main"])
}

/// A single-threaded loop of `iters` iterations in a frame `regs`
/// registers wide, where each iteration checkpoints and then fails a guard
/// until a stack-slot attempt counter (not restored by rollback, exactly
/// like the paper's stack-slot semantics) reaches a multiple of
/// `fails_per_pass` — forcing `fails_per_pass - 1` rollbacks per
/// iteration.
///
/// # Panics
///
/// Panics if `fails_per_pass` is zero.
pub fn rollback_dense_program(regs: usize, iters: u64, fails_per_pass: u64) -> Program {
    assert!(fails_per_pass >= 1, "fails_per_pass must be >= 1");
    let mut mb = ModuleBuilder::new("rollback_stress");
    let mut fb = FuncBuilder::new("main", 0);
    let acc = widen_frame(&mut fb, regs);
    let attempts = fb.local();
    fb.store_local(attempts, 0);
    fb.counted_loop(iters as i64, |fb, _i| {
        fb.push(Inst::Checkpoint { point: PointId(0) });
        // The attempt counter lives in a stack slot, so it survives the
        // rollback and eventually satisfies the guard.
        let n = fb.load_local(attempts);
        let next = fb.add(n, 1);
        fb.store_local(attempts, next);
        // A couple of register writes inside the epoch (what the undo log
        // must restore on each rollback).
        fb.push(Inst::BinOp {
            dst: acc,
            op: BinOpKind::Add,
            lhs: acc.into(),
            rhs: next.into(),
        });
        let rem = fb.binop(BinOpKind::Rem, next, fails_per_pass as i64);
        let pass = fb.cmp(CmpKind::Eq, rem, 0);
        fb.push(Inst::FailGuard {
            kind: GuardKind::Assert,
            cond: pass.into(),
            site: SiteId(0),
            msg: "rollback stress guard".into(),
        });
    });
    fb.ret();
    mb.function(fb.finish());
    Program::from_entry_names(mb.finish(), &["main"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_runtime::{run_once, MachineConfig, RunOutcome};

    #[test]
    fn dense_program_checkpoints_every_iteration() {
        let p = checkpoint_dense_program(32, 100);
        let r = run_once(&p, &MachineConfig::default(), 0);
        assert!(matches!(r.outcome, RunOutcome::Completed));
        assert_eq!(r.stats.checkpoints, 100);
        assert_eq!(r.stats.rollbacks, 0);
    }

    #[test]
    fn control_program_never_checkpoints() {
        let p = checkpoint_dense_control(32, 100);
        let r = run_once(&p, &MachineConfig::default(), 0);
        assert!(matches!(r.outcome, RunOutcome::Completed));
        assert_eq!(r.stats.checkpoints, 0);
        // Same instruction count as the dense program (nop for checkpoint).
        let d = run_once(
            &checkpoint_dense_program(32, 100),
            &MachineConfig::default(),
            0,
        );
        assert_eq!(r.stats.insts, d.stats.insts);
    }

    #[test]
    fn rollback_program_rolls_back_predictably() {
        let fails_per_pass = 4;
        let iters = 50;
        let p = rollback_dense_program(32, iters, fails_per_pass);
        let r = run_once(&p, &MachineConfig::default(), 0);
        assert!(
            matches!(r.outcome, RunOutcome::Completed),
            "{:?}",
            r.outcome
        );
        assert_eq!(r.stats.rollbacks, iters * (fails_per_pass - 1));
        assert_eq!(r.stats.checkpoints, iters * fails_per_pass);
    }
}
