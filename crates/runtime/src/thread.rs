//! Per-thread interpreter state: call frames, checkpoint slot, compensation
//! log, register undo-log and retry counters.
//!
//! ## Featherweight checkpoints (paper §3.3, Table 7)
//!
//! The paper's checkpoint is a `setjmp` — "saving a few registers", cheap
//! enough to execute at every reexecution point on hot paths. The runtime
//! matches that cost model with an **epoch-tagged register undo-log**
//! instead of cloning the register file:
//!
//! * Between checkpoints, the register-write path ([`ThreadState::write_reg`])
//!   records `(reg, old_value)` at most once per register per epoch. The
//!   dedup check is a single bit test in the thread's `written_mask` for
//!   frames up to 64 registers wide, and one integer compare against the
//!   frame's per-register `last_written_epoch` tag beyond that — no
//!   hashing, no search.
//! * [`ThreadState::save_checkpoint`] is *O(1)*: clear the (recycled) log,
//!   bump the epoch, note depth and resume pc. Nothing is allocated; the
//!   log buffer is reused across epochs, and the tag vectors live in their
//!   frames.
//! * [`ThreadState::restore_checkpoint`] walks the log backwards undoing
//!   register writes — cost proportional to the registers actually written
//!   in the epoch, not to frame width.
//!
//! Register-only undo is sound for the same reason the paper's `jmp_buf`
//! is: hardened reexecution regions are idempotent — no shared-memory or
//! stack-slot writes — so registers are the only state that can differ
//! between the checkpoint and the failure site. Writes to frames *deeper*
//! than the checkpoint frame need no undo records at all: rollback
//! truncates those frames wholesale (the `longjmp` across frames).
//! `tests/checkpoint_undo.rs` checks the log against the trivially
//! correct alternative — clone the register image on save, clone it back
//! on restore — over random write, call, checkpoint and rollback
//! sequences.

use std::collections::HashMap;

use conair_ir::{FuncId, Function, Loc, LockId, Reg, SiteId};

use crate::locks::ThreadId;

/// A sentinel for "no active checkpoint" in [`ThreadState::cp_depth`]:
/// no call stack reaches this depth, so the hot-path compare never
/// matches.
const NO_CHECKPOINT_DEPTH: u32 = u32::MAX;

/// Registers covered by the `written_mask` fast path: frames at most this
/// wide dedup undo records with a single in-register bit test and carry no
/// per-frame tag vector at all.
const MASK_WIDTH: usize = 64;

/// Most frames one thread's call stack may hold. A call past it ends the
/// run, so unbounded recursion fails fast instead of growing the stack
/// until the step limit.
pub const MAX_CALL_DEPTH: usize = 1 << 16;

/// Most register and local words one thread's live frames may hold, the
/// size of [`crate::MAX_HEAP_WORDS`]. Without it the depth cap and the
/// validator's per-frame cap multiply: deep recursion of maximal frames
/// could reach 2^32 words before either trips.
pub const MAX_STACK_WORDS: usize = 1 << 24;

/// One activation record.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// Virtual register file — protected by the checkpoint undo-log.
    pub regs: Vec<i64>,
    /// Stack slots — **not** saved by a checkpoint (the stack-slot side of
    /// the paper's idempotency argument).
    pub locals: Vec<i64>,
    /// Next instruction, as a flat index into the function's pre-lowered
    /// instruction table (see [`crate::DenseProgram`]); the entry
    /// instruction is always `0`.
    pub pc: u32,
    /// Register in the *caller's* frame receiving this call's return value.
    pub ret_dst: Option<Reg>,
    /// Wide-frame fallback for undo-log dedup: the epoch at which each
    /// register was last recorded (0 = never; live epochs start at 1).
    /// Only allocated for frames wider than `MASK_WIDTH` (64) registers —
    /// narrow frames (the common case) dedup through the thread's
    /// `written_mask` bit set and keep this empty, so calls allocate
    /// nothing extra and hot writes touch no additional cache line.
    pub last_written_epoch: Vec<u64>,
}

impl Frame {
    /// Builds the frame for calling `func` (by id) with `args`.
    pub fn new(func_id: FuncId, func: &Function, args: &[i64], ret_dst: Option<Reg>) -> Self {
        Self::with_sizes(func_id, func.num_regs, func.num_locals, args, ret_dst)
    }

    /// Builds a frame from pre-lowered sizes (see
    /// [`crate::FuncLayout::num_regs`]), avoiding a module lookup on the
    /// call path.
    pub fn with_sizes(
        func_id: FuncId,
        num_regs: usize,
        num_locals: usize,
        args: &[i64],
        ret_dst: Option<Reg>,
    ) -> Self {
        let mut regs = vec![0; num_regs];
        regs[..args.len()].copy_from_slice(args);
        Self {
            func: func_id,
            regs,
            locals: vec![0; num_locals],
            pc: 0,
            ret_dst,
            last_written_epoch: if num_regs > MASK_WIDTH {
                vec![0; num_regs]
            } else {
                Vec::new()
            },
        }
    }

    /// Register and local words this frame holds.
    pub(crate) fn words(&self) -> usize {
        self.regs.len() + self.locals.len()
    }
}

/// The thread-local checkpoint slot — the `__thread jmp_buf c` of paper
/// Figure 6. A thread holds at most one: the most recent reexecution point.
///
/// No register image lives here: the registers written since the
/// checkpoint are reconstructible from [`ThreadState::reg_undo`], which is
/// what makes saving O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Call-stack depth at the checkpoint; rollback truncates to this depth
    /// (`longjmp` across frames).
    pub frame_depth: usize,
    /// Resume pc (the checkpoint instruction's own flat index — on resume
    /// the checkpoint re-executes, re-saving and bumping the epoch, exactly
    /// like a re-entered `setjmp`).
    pub pc: u32,
}

/// Why a thread cannot run right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Ready to execute.
    Runnable,
    /// Waiting on a mutex. `site` is set for timed (hardened) acquisitions.
    BlockedOnLock {
        /// The contended lock.
        lock: LockId,
        /// Step at which the wait began (timeout accounting).
        since: u64,
        /// The deadlock failure site, for timed locks.
        site: Option<SiteId>,
    },
    /// Sleeping until the given step (deadlock-recovery random backoff).
    SleepingUntil(u64),
    /// Finished.
    Done,
}

/// A compensation record (paper Section 4.1): a resource acquired inside
/// the current reexecution region, to be released before rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompensationRecord {
    /// A heap block allocated at `base`.
    Allocation {
        /// Block base address.
        base: i64,
        /// Epoch (reexecution-point counter) at acquisition.
        epoch: u64,
    },
    /// A lock acquired.
    Lock {
        /// The lock.
        lock: LockId,
        /// Epoch at acquisition.
        epoch: u64,
    },
}

impl CompensationRecord {
    /// The epoch the record was made under.
    pub fn epoch(&self) -> u64 {
        match self {
            CompensationRecord::Allocation { epoch, .. }
            | CompensationRecord::Lock { epoch, .. } => *epoch,
        }
    }
}

/// An entry in the undo log (only under the buffered-writes ablation
/// policy): the previous value of an overwritten location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UndoRecord {
    /// A shared-memory word.
    Mem {
        /// Address overwritten.
        addr: i64,
        /// Previous value.
        old: i64,
        /// Epoch of the write.
        epoch: u64,
    },
    /// A stack slot of the checkpoint frame.
    Local {
        /// Slot index.
        slot: usize,
        /// Previous value.
        old: i64,
        /// Epoch of the write.
        epoch: u64,
    },
}

impl UndoRecord {
    /// The epoch the record was made under.
    pub fn epoch(&self) -> u64 {
        match self {
            UndoRecord::Mem { epoch, .. } | UndoRecord::Local { epoch, .. } => *epoch,
        }
    }
}

/// Execution statistics of one thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Instructions executed.
    pub insts: u64,
    /// Checkpoint instructions executed (dynamic reexecution points).
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
}

/// Complete state of one logical thread.
///
/// `PartialEq` compares full semantic state (frames, status, checkpoint,
/// undo machinery, stats) — it backs the snapshot layer's debug assertion
/// that a cached per-thread image still matches the live thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadState {
    /// This thread's id. The human-readable name lives in the
    /// [`crate::ThreadSpec`] — keeping it out of per-run state avoids a
    /// per-run allocation per thread.
    pub id: ThreadId,
    /// Call stack; empty once the thread is done. Push with
    /// [`ThreadState::push_frame`] and pop with [`ThreadState::pop_frame`],
    /// which keep the live stack-word count.
    pub frames: Vec<Frame>,
    /// Scheduling status.
    pub status: ThreadStatus,
    /// The single thread-local checkpoint slot.
    pub checkpoint: Option<Checkpoint>,
    /// Reexecution-point counter (paper Section 4.1) — incremented at every
    /// checkpoint execution.
    pub epoch: u64,
    /// Register undo-log of the current epoch: `(register index, value
    /// before the first write of the epoch)` for the checkpoint frame. The
    /// buffer is recycled — [`ThreadState::save_checkpoint`] clears it
    /// without releasing capacity, so steady-state checkpointing never
    /// allocates.
    pub reg_undo: Vec<(u32, i64)>,
    /// Cached checkpoint frame depth for the hot-path write check
    /// ([`NO_CHECKPOINT_DEPTH`] when no checkpoint is active): the
    /// disabled-recovery register write pays exactly one integer compare.
    cp_depth: u32,
    /// Bit `i` set = register `i` of the checkpoint frame already has an
    /// undo record this epoch. The dedup fast path for frames at most
    /// [`MASK_WIDTH`] registers wide: one shift + test on state already in
    /// cache, no per-frame tag load.
    written_mask: u64,
    /// Register and local words of `frames`, kept at push, pop and
    /// rollback so the [`MAX_STACK_WORDS`] check costs no walk.
    stack_words: usize,
    /// Resources acquired under recent epochs.
    pub compensation: Vec<CompensationRecord>,
    /// Undo log (buffered-writes policy only).
    pub undo: Vec<UndoRecord>,
    /// Recovery attempts per failure site (`RetryCnt` of Figure 6).
    pub retries: HashMap<SiteId, u64>,
    /// Ring buffer of the most recently executed locations (failure
    /// diagnostics; empty unless tracing is enabled).
    pub trace: std::collections::VecDeque<(u64, Loc)>,
    /// Statistics.
    pub stats: ThreadStats,
}

impl ThreadState {
    /// Creates a thread about to execute `func(args)`.
    pub fn new(id: ThreadId, func_id: FuncId, func: &Function, args: &[i64]) -> Self {
        let frame = Frame::new(func_id, func, args, None);
        Self {
            id,
            stack_words: frame.words(),
            frames: vec![frame],
            status: ThreadStatus::Runnable,
            checkpoint: None,
            epoch: 0,
            reg_undo: Vec::new(),
            cp_depth: NO_CHECKPOINT_DEPTH,
            written_mask: 0,
            compensation: Vec::new(),
            undo: Vec::new(),
            retries: HashMap::new(),
            trace: std::collections::VecDeque::new(),
            stats: ThreadStats::default(),
        }
    }

    /// Records an executed location into the bounded trace ring.
    pub fn record_trace(&mut self, step: u64, loc: Loc, depth: usize) {
        if depth == 0 {
            return;
        }
        if self.trace.len() == depth {
            self.trace.pop_front();
        }
        self.trace.push_back((step, loc));
    }

    /// The active frame.
    ///
    /// # Panics
    ///
    /// Panics if the thread is done (no frames).
    pub fn top(&self) -> &Frame {
        self.frames.last().expect("thread has an active frame")
    }

    /// Mutable active frame.
    ///
    /// # Panics
    ///
    /// Panics if the thread is done.
    pub fn top_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("thread has an active frame")
    }

    /// Whether the thread finished.
    pub fn is_done(&self) -> bool {
        matches!(self.status, ThreadStatus::Done)
    }

    /// Approximate heap bytes held by this thread's state — the snapshot
    /// tree's eviction-by-bytes accounting. Not exact (ignores allocator
    /// slack and `HashMap` table overhead); deterministic for identical
    /// thread states, which is what the explorer's determinism needs.
    pub fn approx_bytes(&self) -> u64 {
        let mut bytes = std::mem::size_of::<ThreadState>() as u64;
        for f in &self.frames {
            bytes += std::mem::size_of::<Frame>() as u64
                + (f.regs.len() + f.locals.len()) as u64 * 8
                + f.last_written_epoch.len() as u64 * 8;
        }
        bytes += self.reg_undo.len() as u64 * std::mem::size_of::<(u32, i64)>() as u64;
        bytes += self.compensation.len() as u64 * std::mem::size_of::<CompensationRecord>() as u64;
        bytes += self.undo.len() as u64 * std::mem::size_of::<UndoRecord>() as u64;
        bytes += self.retries.len() as u64 * 16;
        bytes += self.trace.len() as u64 * std::mem::size_of::<(u64, Loc)>() as u64;
        bytes
    }

    /// Writes `v` to register `r` of the active frame, maintaining the
    /// checkpoint undo-log. This is the interpreter's **only** register
    /// write path; with recovery disabled (no checkpoint) it costs one
    /// integer compare over a raw store.
    ///
    /// Only writes to the *checkpoint frame itself* are logged: deeper
    /// frames are truncated wholesale on rollback, and shallower frames
    /// cannot be written while the checkpoint frame is live (returning out
    /// of it retires the checkpoint semantics anyway, exactly like a
    /// `jmp_buf` of a returned-from function).
    #[inline]
    pub fn write_reg(&mut self, r: Reg, v: i64) {
        let depth = self.frames.len() as u32;
        let top = self.frames.last_mut().expect("thread has an active frame");
        if depth == self.cp_depth {
            // Record the pre-write value once per register per epoch: a
            // bit test for narrow frames, an epoch-tag compare beyond
            // MASK_WIDTH. Either way, repeated writes are free.
            let idx = r.index();
            if idx < MASK_WIDTH {
                let bit = 1u64 << idx;
                if self.written_mask & bit == 0 {
                    self.written_mask |= bit;
                    self.reg_undo.push((idx as u32, top.regs[idx]));
                }
            } else {
                let tag = &mut top.last_written_epoch[idx];
                if *tag != self.epoch {
                    *tag = self.epoch;
                    self.reg_undo.push((idx as u32, top.regs[idx]));
                }
            }
        }
        top.regs[r.index()] = v;
    }

    /// Pops the active frame, retiring the checkpoint when the popped
    /// frame was the checkpoint frame — the paper's `jmp_buf` dies with
    /// its stack frame (a `longjmp` into a returned-from function is
    /// undefined), and retiring it keeps later same-depth frames off the
    /// logging path entirely.
    ///
    /// # Panics
    ///
    /// Panics if the thread is done (no frames).
    pub fn pop_frame(&mut self) -> Frame {
        let finished = self.frames.pop().expect("pop with an active frame");
        self.stack_words -= finished.words();
        if self.cp_depth != NO_CHECKPOINT_DEPTH && (self.frames.len() as u32) < self.cp_depth {
            self.checkpoint = None;
            self.cp_depth = NO_CHECKPOINT_DEPTH;
            self.written_mask = 0;
            self.reg_undo.clear();
        }
        finished
    }

    /// Pushes a callee frame, or returns it unpushed when the stack would
    /// pass [`MAX_STACK_WORDS`]. The caller checks [`MAX_CALL_DEPTH`].
    pub fn push_frame(&mut self, frame: Frame) -> Result<(), Frame> {
        let words = self.stack_words + frame.words();
        if words > MAX_STACK_WORDS {
            return Err(frame);
        }
        self.stack_words = words;
        self.frames.push(frame);
        Ok(())
    }

    /// Registers recorded in the undo log this epoch (rollback cost in
    /// registers — the metric behind `RunStats::undo_depth`).
    pub fn undo_depth(&self) -> usize {
        self.reg_undo.len()
    }

    /// Records a compensation entry under the current epoch, applying the
    /// paper's lazy cleaning: stale entries (older epochs) are dropped when
    /// a new record arrives under a newer epoch.
    pub fn record_compensation(&mut self, record: CompensationRecord) {
        if self
            .compensation
            .last()
            .is_some_and(|last| last.epoch() != self.epoch)
        {
            self.compensation.clear();
        }
        self.compensation.push(record);
    }

    /// Takes the compensation records of the current epoch (called during
    /// rollback). Stale records are retained away in place — no partition
    /// into side vectors — and the returned buffer is the thread's own
    /// (hand it back via [`ThreadState::recycle_compensation_buffer`] to
    /// keep rollback allocation-free).
    pub fn take_current_epoch_compensation(&mut self) -> Vec<CompensationRecord> {
        let epoch = self.epoch;
        self.compensation.retain(|r| r.epoch() == epoch);
        std::mem::take(&mut self.compensation)
    }

    /// Returns the (drained) buffer from
    /// [`ThreadState::take_current_epoch_compensation`] so its capacity is
    /// reused by the next epoch's records.
    pub fn recycle_compensation_buffer(&mut self, mut buf: Vec<CompensationRecord>) {
        if buf.capacity() > self.compensation.capacity() {
            buf.clear();
            buf.append(&mut self.compensation);
            self.compensation = buf;
        }
    }

    /// Saves the checkpoint (the `setjmp`): note the stack depth and
    /// resume position, bump the epoch, reset the undo log. O(1) and
    /// allocation-free — the featherweight cost model of paper §3.3.
    pub fn save_checkpoint(&mut self) {
        let depth = self.frames.len();
        let pc = self.top().pc - 1;
        self.checkpoint = Some(Checkpoint {
            frame_depth: depth,
            // `pc` has already been advanced past the checkpoint by the
            // interpreter; resume re-executes the checkpoint instruction.
            pc,
        });
        self.cp_depth = depth as u32;
        self.epoch += 1;
        self.written_mask = 0;
        self.reg_undo.clear();
        self.stats.checkpoints += 1;
    }

    /// Restores the checkpoint (the `longjmp`): truncate frames, undo the
    /// epoch's register writes in reverse order, reset the program
    /// counter. Returns false when no checkpoint exists.
    pub fn restore_checkpoint(&mut self) -> bool {
        let Some(cp) = self.checkpoint else {
            return false;
        };
        assert!(
            cp.frame_depth <= self.frames.len(),
            "checkpoint above current stack — stale jmp_buf"
        );
        self.stack_words -= self.frames[cp.frame_depth..]
            .iter()
            .map(Frame::words)
            .sum::<usize>();
        self.frames.truncate(cp.frame_depth);
        let top = self.frames.last_mut().expect("checkpoint frame is live");
        for &(r, old) in self.reg_undo.iter().rev() {
            top.regs[r as usize] = old;
        }
        // The written mask and epoch tags keep their values: the next
        // instruction is the re-executed checkpoint itself, which resets
        // both before any further write can need logging.
        self.reg_undo.clear();
        top.pc = cp.pc;
        self.stats.rollbacks += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_ir::Function;

    fn mk_thread() -> ThreadState {
        let mut f = Function::new("main", 2);
        f.num_regs = 4;
        f.num_locals = 1;
        ThreadState::new(ThreadId(0), FuncId(0), &f, &[10, 20])
    }

    #[test]
    fn frame_binds_args() {
        let t = mk_thread();
        assert_eq!(t.top().regs, vec![10, 20, 0, 0]);
        assert_eq!(t.top().locals, vec![0]);
    }

    #[test]
    fn checkpoint_roundtrip_restores_registers_not_locals() {
        let mut t = mk_thread();
        // Simulate having just executed a checkpoint at flat pc 3.
        t.top_mut().pc = 4;
        t.save_checkpoint();
        assert_eq!(t.epoch, 1);

        // Mutate registers (through the logged write path) and locals,
        // advance.
        t.write_reg(Reg(2), 999);
        t.top_mut().locals[0] = 777;
        t.top_mut().pc = 9;

        assert!(t.restore_checkpoint());
        assert_eq!(t.top().regs[2], 0, "registers restored");
        assert_eq!(t.top().locals[0], 777, "stack slots NOT restored");
        assert_eq!(t.top().pc, 3, "resumes at the checkpoint instruction");
        assert_eq!(t.stats.rollbacks, 1);
    }

    #[test]
    fn undo_log_dedups_by_epoch_tag() {
        let mut t = mk_thread();
        t.top_mut().pc = 1;
        t.save_checkpoint();
        for _ in 0..100 {
            t.write_reg(Reg(3), 1);
            t.write_reg(Reg(2), 2);
        }
        assert_eq!(t.undo_depth(), 2, "one record per register per epoch");
        assert!(t.restore_checkpoint());
        assert_eq!(t.top().regs, vec![10, 20, 0, 0]);
    }

    #[test]
    fn save_checkpoint_recycles_log_buffer(/* allocation-free steady state */) {
        let mut t = mk_thread();
        t.top_mut().pc = 1;
        t.save_checkpoint();
        t.write_reg(Reg(0), 1);
        t.write_reg(Reg(1), 2);
        let cap = t.reg_undo.capacity();
        assert!(cap >= 2);
        t.top_mut().pc = 1;
        t.save_checkpoint();
        assert_eq!(t.undo_depth(), 0, "new epoch starts with an empty log");
        assert_eq!(t.reg_undo.capacity(), cap, "buffer capacity is retained");
    }

    #[test]
    fn writes_without_checkpoint_pay_no_logging(/* the disabled-recovery path */) {
        let mut t = mk_thread();
        t.write_reg(Reg(0), 5);
        assert_eq!(t.undo_depth(), 0);
        assert_eq!(t.written_mask, 0, "no mask bit touched");
        assert!(
            t.top().last_written_epoch.is_empty(),
            "narrow frames carry no tag vector at all"
        );
    }

    #[test]
    fn wide_frames_dedup_through_epoch_tags() {
        // Frames wider than the 64-bit mask fall back to per-register
        // epoch tags; both halves of the register file must dedup.
        let mut f = Function::new("wide", 0);
        f.num_regs = 100;
        let mut t = ThreadState::new(ThreadId(0), FuncId(0), &f, &[]);
        assert_eq!(t.top().last_written_epoch.len(), 100);
        t.top_mut().pc = 1;
        t.save_checkpoint();
        for _ in 0..10 {
            t.write_reg(Reg(3), 7); // mask path
            t.write_reg(Reg(90), 8); // tag path
        }
        assert_eq!(t.undo_depth(), 2, "one record per register per epoch");
        assert!(t.restore_checkpoint());
        assert_eq!(t.top().regs[3], 0);
        assert_eq!(t.top().regs[90], 0);
    }

    #[test]
    fn checkpoint_retired_when_its_frame_returns() {
        let mut t = mk_thread();
        // Enter a callee and checkpoint inside it.
        let mut callee = Function::new("callee", 0);
        callee.num_regs = 2;
        t.push_frame(Frame::new(FuncId(1), &callee, &[], Some(Reg(3))))
            .unwrap();
        t.top_mut().pc = 1;
        t.save_checkpoint();
        t.write_reg(Reg(0), 9);
        assert_eq!(t.undo_depth(), 1);

        // Returning out of the checkpoint frame kills the jmp_buf.
        let finished = t.pop_frame();
        assert_eq!(finished.ret_dst, Some(Reg(3)));
        assert!(t.checkpoint.is_none(), "checkpoint retired");
        assert!(!t.restore_checkpoint());
        // Later writes at the same depth pay no logging.
        t.write_reg(Reg(1), 5);
        assert_eq!(t.undo_depth(), 0);
    }

    #[test]
    fn stack_words_follow_push_pop_and_rollback() {
        let mut t = mk_thread();
        let live = |t: &ThreadState| t.frames.iter().map(Frame::words).sum::<usize>();
        t.top_mut().pc = 1;
        t.save_checkpoint();
        let mut callee = Function::new("callee", 0);
        callee.num_regs = 3;
        callee.num_locals = 2;
        for _ in 0..3 {
            t.push_frame(Frame::new(FuncId(1), &callee, &[], None))
                .unwrap();
        }
        assert_eq!((t.stack_words, live(&t)), (5 + 15, 20));
        t.pop_frame();
        assert_eq!(t.stack_words, live(&t));
        assert!(t.restore_checkpoint());
        assert_eq!(t.stack_words, 5);
        // A frame past the cap is handed back unpushed.
        let huge = Frame::with_sizes(FuncId(1), MAX_STACK_WORDS, 0, &[], None);
        assert!(t.push_frame(huge).is_err());
        assert_eq!((t.frames.len(), t.stack_words), (1, 5));
    }

    #[test]
    fn restore_without_checkpoint_fails() {
        let mut t = mk_thread();
        assert!(!t.restore_checkpoint());
    }

    #[test]
    fn rollback_pops_frames() {
        let mut t = mk_thread();
        t.top_mut().pc = 1;
        t.save_checkpoint();
        // Push a callee frame; its writes need no undo records.
        let mut callee = Function::new("callee", 0);
        callee.num_regs = 1;
        t.push_frame(Frame::new(FuncId(1), &callee, &[], Some(Reg(3))))
            .unwrap();
        t.write_reg(Reg(0), 42);
        assert_eq!(t.undo_depth(), 0, "callee frame writes are not logged");
        assert_eq!(t.frames.len(), 2);
        assert!(t.restore_checkpoint());
        assert_eq!(t.frames.len(), 1, "longjmp across the callee frame");
        assert_eq!(t.top().func, FuncId(0));
    }

    #[test]
    fn return_value_write_into_checkpoint_frame_is_logged() {
        let mut t = mk_thread();
        t.top_mut().pc = 1;
        t.save_checkpoint();
        let mut callee = Function::new("callee", 0);
        callee.num_regs = 1;
        t.push_frame(Frame::new(FuncId(1), &callee, &[], Some(Reg(3))))
            .unwrap();
        // Simulate the interpreter's return path: pop (the checkpoint is
        // below, so it survives), then write the return value into the
        // (checkpoint) frame through write_reg.
        let finished = t.pop_frame();
        assert!(t.checkpoint.is_some(), "checkpoint frame still live");
        t.write_reg(finished.ret_dst.expect("has dst"), 77);
        assert_eq!(t.top().regs[3], 77);
        assert_eq!(t.undo_depth(), 1, "ret_dst write is logged");
        assert!(t.restore_checkpoint());
        assert_eq!(t.top().regs[3], 0, "ret_dst write undone");
    }

    #[test]
    fn compensation_epoch_discipline() {
        let mut t = mk_thread();
        t.top_mut().pc = 1;
        t.save_checkpoint(); // epoch 1
        t.record_compensation(CompensationRecord::Lock {
            lock: LockId(0),
            epoch: t.epoch,
        });
        t.top_mut().pc = 2;
        t.save_checkpoint(); // epoch 2 — previous records are stale
        t.record_compensation(CompensationRecord::Allocation {
            base: 0x100_0000,
            epoch: t.epoch,
        });
        // The stale lock record was cleaned lazily on the new record.
        assert_eq!(t.compensation.len(), 1);
        let current = t.take_current_epoch_compensation();
        assert_eq!(current.len(), 1);
        assert!(matches!(
            current[0],
            CompensationRecord::Allocation {
                base: 0x100_0000,
                ..
            }
        ));
        assert!(t.compensation.is_empty());
        // Handing the buffer back preserves its capacity for reuse.
        let cap = current.capacity();
        t.recycle_compensation_buffer(current);
        assert_eq!(t.compensation.capacity(), cap);
        assert!(t.compensation.is_empty());
    }

    #[test]
    fn stale_compensation_dropped_at_rollback_too() {
        let mut t = mk_thread();
        t.top_mut().pc = 1;
        t.save_checkpoint(); // epoch 1
        t.record_compensation(CompensationRecord::Lock {
            lock: LockId(0),
            epoch: 0, // simulated stale record
        });
        let current = t.take_current_epoch_compensation();
        assert!(current.is_empty(), "stale records are not compensated");
    }
}
