//! Differential property test for the featherweight checkpoint: the
//! epoch-tagged register undo-log (`ThreadState::write_reg` +
//! `save_checkpoint`/`restore_checkpoint`) must restore thread state
//! register-for-register identically to the pre-undo-log full-clone
//! implementation, kept here as the private [`clone_save`] /
//! [`clone_restore`] pair precisely for this comparison.
//!
//! The driver replays a random interleaving of register writes, nested
//! calls/returns, checkpoint saves and rollbacks against two threads:
//!
//! * the *real* thread goes through the logged write path and the O(1)
//!   save / undo-walk restore;
//! * the *shadow* thread uses raw register stores and the oracle's
//!   register-image clone on save and restore.
//!
//! After every operation the two must agree on every frame (registers,
//! stack slots, pc, depth) — including after rollbacks that truncate
//! nested call frames down to the checkpoint's `frame_depth`.
//!
//! One machine semantic is modeled explicitly: after a rollback the
//! interpreter resumes *at the checkpoint instruction*, which re-executes
//! the save (bumping the epoch) before any further register write. The
//! undo-log's epoch-tag dedup is only sound under that invariant, so the
//! driver re-saves on both threads immediately after each restore, exactly
//! as `Inst::Checkpoint` does.

use conair_ir::{FuncId, Function, Reg};
use conair_runtime::{Frame, ThreadId, ThreadState};
use proptest::prelude::*;

/// Register-file width of the root frame — wider than the 64-register
/// `written_mask` fast path, so the interleavings exercise both the
/// bit-mask and the epoch-tag dedup (and their interaction in one frame).
const ROOT_REGS: usize = 80;
/// Register-file width of callee frames.
const CALLEE_REGS: usize = 5;
/// Stack slots per frame.
const LOCALS: usize = 2;
/// Maximum call depth the generator will build.
const MAX_DEPTH: usize = 5;

/// One step of the random interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Write value to register (index modulo the frame's width) of the
    /// active frame.
    Write(usize, i64),
    /// Write a stack slot of the active frame (never checkpoint-protected).
    WriteLocal(usize, i64),
    /// Push a callee frame whose return value lands in the given register
    /// of the current frame.
    Call(usize),
    /// Pop the active frame, writing the return value into the caller.
    Ret(i64),
    /// Execute a checkpoint (the `setjmp`).
    Checkpoint,
    /// Roll back to the checkpoint, then re-execute it (the `longjmp`
    /// landing on the re-entered `setjmp`).
    Rollback,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0usize..ROOT_REGS), -1000i64..1000).prop_map(|(r, v)| Op::Write(r, v)),
        ((0usize..ROOT_REGS), -1000i64..1000).prop_map(|(r, v)| Op::Write(r, v)),
        ((0usize..ROOT_REGS), -1000i64..1000).prop_map(|(r, v)| Op::Write(r, v)),
        ((0usize..LOCALS), -1000i64..1000).prop_map(|(s, v)| Op::WriteLocal(s, v)),
        (0usize..ROOT_REGS).prop_map(Op::Call),
        (-1000i64..1000).prop_map(Op::Ret),
        Just(Op::Checkpoint),
        Just(Op::Rollback),
    ]
}

fn mk_thread() -> ThreadState {
    let mut f = Function::new("root", 2);
    f.num_regs = ROOT_REGS;
    f.num_locals = LOCALS;
    ThreadState::new(ThreadId(0), FuncId(0), &f, &[3, 14])
}

/// Frame-by-frame equality of the two threads.
fn assert_same(real: &ThreadState, shadow: &ThreadState, step: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        real.frames().len(),
        shadow.frames().len(),
        "frame depth diverged at step {}",
        step
    );
    for (i, (rf, sf)) in real.frames().iter().zip(shadow.frames()).enumerate() {
        prop_assert_eq!(
            &rf.regs,
            &sf.regs,
            "registers diverged at step {} frame {}",
            step,
            i
        );
        prop_assert_eq!(
            &rf.locals,
            &sf.locals,
            "locals diverged at step {} frame {}",
            step,
            i
        );
        prop_assert_eq!(rf.pc, sf.pc, "pc diverged at step {} frame {}", step, i);
    }
    Ok(())
}

/// The checkpoint frame depth currently pinned by an active checkpoint
/// (frames at or below this depth must not be popped while it is live —
/// the interpreter's checkpoint placement guarantees this).
fn pinned_depth(real: &ThreadState) -> usize {
    real.checkpoint.map(|cp| cp.frame_depth).unwrap_or(1)
}

/// The full-clone checkpoint of the pre-undo-log implementation:
/// call-stack depth, the checkpoint frame's register image, resume pc.
#[derive(Debug, Clone)]
struct FullClone {
    frame_depth: usize,
    regs: Vec<i64>,
    pc: u32,
}

/// The full-clone `setjmp`: snapshot the top frame's registers and
/// position. Cloning the whole image is trivially correct, so any
/// divergence from the undo-log restore is a bug in the log discipline.
fn clone_save(t: &ThreadState) -> FullClone {
    let top = t.top();
    FullClone {
        frame_depth: t.frames().len(),
        regs: top.regs.clone(),
        pc: top.pc.wrapping_sub(1),
    }
}

/// The full-clone `longjmp`: pop frames down to the checkpoint depth and
/// restore the saved register image wholesale. The shadow never saves a
/// checkpoint of its own, so its pops retire nothing.
fn clone_restore(t: &mut ThreadState, cp: &FullClone) {
    assert!(
        cp.frame_depth <= t.frames().len(),
        "clone checkpoint above current stack"
    );
    while t.frames().len() > cp.frame_depth {
        t.pop_frame();
    }
    let top = t.top_mut();
    top.regs = cp.regs.clone();
    top.pc = cp.pc;
}

/// Executes the checkpoint instruction on both threads: position the pc,
/// save through each implementation.
fn exec_checkpoint(real: &mut ThreadState, shadow: &mut ThreadState, pc: u32) -> FullClone {
    real.top_mut().pc = pc + 1; // interpreter has advanced past the inst
    shadow.top_mut().pc = pc + 1;
    real.save_checkpoint();
    // The clone snapshot also derives the resume pc as `pc - 1`.
    clone_save(shadow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn undo_log_restore_matches_full_clone(ops in proptest::collection::vec(op(), 0..120)) {
        let mut real = mk_thread();
        let mut shadow = mk_thread();
        let mut oracle: Option<FullClone> = None;
        let mut pc_counter = 0u32;
        let mut rollbacks = 0usize;

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Write(r, v) => {
                    let width = real.top().regs.len();
                    let reg = Reg((*r % width) as u32);
                    real.write_reg(reg, *v);
                    shadow.top_mut().regs[reg.index()] = *v;
                }
                Op::WriteLocal(s, v) => {
                    real.top_mut().locals[*s] = *v;
                    shadow.top_mut().locals[*s] = *v;
                }
                Op::Call(dst) => {
                    if real.frames().len() >= MAX_DEPTH {
                        continue;
                    }
                    let width = real.top().regs.len();
                    let ret_dst = Some(Reg((*dst % width) as u32));
                    let args = [real.top().regs[0]];
                    real.push_frame(Frame::with_sizes(
                        FuncId(1), CALLEE_REGS, LOCALS, &args, ret_dst,
                    ))
                    .expect("far under the stack-words cap");
                    shadow.push_frame(Frame::with_sizes(
                        FuncId(1), CALLEE_REGS, LOCALS, &args, ret_dst,
                    ))
                    .expect("far under the stack-words cap");
                }
                Op::Ret(v) => {
                    // Never pop the root frame, and never pop the frame an
                    // active checkpoint is pinned to (the interpreter's
                    // checkpoint placement guarantees checkpoints dominate
                    // their failure sites within the frame).
                    if real.frames().len() <= pinned_depth(&real) {
                        continue;
                    }
                    let cp_before = real.checkpoint;
                    let fin_real = real.pop_frame();
                    let fin_shadow = shadow.pop_frame();
                    prop_assert_eq!(fin_real.ret_dst, fin_shadow.ret_dst);
                    // The guard means this pop never retires the checkpoint.
                    prop_assert_eq!(real.checkpoint, cp_before);
                    if let Some(dst) = fin_real.ret_dst {
                        // The return-value write lands in the (possibly
                        // checkpoint-pinned) caller frame: through the
                        // logged path on the real thread, raw on the
                        // shadow.
                        real.write_reg(dst, *v);
                        shadow.top_mut().regs[dst.index()] = *v;
                    }
                }
                Op::Checkpoint => {
                    pc_counter += 1;
                    oracle = Some(exec_checkpoint(&mut real, &mut shadow, pc_counter));
                }
                Op::Rollback => {
                    let Some(cp) = oracle.clone() else { continue };
                    prop_assert!(real.restore_checkpoint(), "checkpoint exists");
                    clone_restore(&mut shadow, &cp);
                    rollbacks += 1;
                    assert_same(&real, &shadow, step)?;
                    // The interpreter resumes at the checkpoint
                    // instruction, which re-executes the save before any
                    // further write — the invariant the epoch-tag dedup
                    // relies on.
                    let resume_pc = real.top().pc;
                    oracle = Some(exec_checkpoint(&mut real, &mut shadow, resume_pc));
                }
            }
            assert_same(&real, &shadow, step)?;
        }

        // Final drain: one last rollback when a checkpoint is live, so
        // every generated case ends on a restored state comparison.
        if let Some(cp) = oracle {
            prop_assert!(real.restore_checkpoint());
            clone_restore(&mut shadow, &cp);
            rollbacks += 1;
            assert_same(&real, &shadow, ops.len())?;
        }
        prop_assert_eq!(real.stats.rollbacks as usize, rollbacks);
    }

    #[test]
    fn undo_depth_is_bounded_by_registers_written(
        writes in proptest::collection::vec(((0usize..ROOT_REGS), -50i64..50), 1..200)
    ) {
        // However many times the epoch writes, the log holds at most one
        // record per distinct register — the epoch-tag dedup at work.
        let mut t = mk_thread();
        t.top_mut().pc = 1;
        t.save_checkpoint();
        let mut distinct = std::collections::HashSet::new();
        for (r, v) in &writes {
            t.write_reg(Reg(*r as u32), *v);
            distinct.insert(*r);
        }
        prop_assert_eq!(t.undo_depth(), distinct.len());
        prop_assert!(t.restore_checkpoint());
        prop_assert_eq!(&t.top().regs[..2], &[3i64, 14][..]);
        prop_assert!(t.top().regs[2..].iter().all(|&v| v == 0));
    }
}
