//! The interpreter: executes a [`Program`] under a [`Scheduler`], detecting
//! failures and — for hardened modules — performing single-threaded
//! idempotent rollback recovery.
//!
//! ## Recovery semantics (paper Figure 6, folded into the runtime)
//!
//! * `Checkpoint` saves the thread-local checkpoint slot (stack depth +
//!   resume position; registers are protected by the epoch-tagged undo-log
//!   maintained on the register-write path — see [`crate::thread`]) and
//!   bumps the compensation epoch — the `setjmp` analog, O(1) like the
//!   paper's.
//! * A failing `FailGuard`/`PtrGuard`/timed-lock timeout attempts recovery:
//!   if the per-site retry count is below the cap and a checkpoint exists,
//!   the thread compensates (frees blocks, releases locks acquired in the
//!   current epoch — Section 4.1) and rolls back — the `longjmp`. Deadlock
//!   recoveries additionally sleep a small random number of steps to break
//!   recovery livelock (Section 3.3).
//! * Otherwise the original failure fires, exactly as in the untransformed
//!   program.

use std::sync::Arc;
use std::time::{Duration, Instant};

use conair_ir::{DOp, DecodedInst, FailureKind, FuncId, GlobalId, LockId, Reg, SiteId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::cow::{CowCell, CowLog};
use crate::deadlock::WaitEdge;
use crate::dense::DenseProgram;
use crate::locks::{AcquireResult, LockTable, ThreadId};
use crate::memory::{Memory, DEFAULT_LOWER_BOUND, MAX_HEAP_WORDS};
use crate::outcome::{FailureRecord, OutputRecord, RunOutcome, RunResult, RunStats, SiteRecovery};
use crate::program::Program;
use crate::sched::{
    CompiledScript, DecisionTrace, Footprint, PointKind, PointMask, SchedContext, ScheduleScript,
    Scheduler,
};
use crate::thread::{
    CompensationRecord, Frame, ThreadState, ThreadStatus, UndoRecord, MAX_CALL_DEPTH,
    MAX_STACK_WORDS,
};
use crate::trace::{TraceEvent, TraceSink};

/// Tuning knobs of one run. All-scalar and `Copy`, so harness layers can
/// share one config across thousands of trials without per-trial clones.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Maximum recovery attempts per (thread, site) — `maxRetryNum` of
    /// Figure 6 (paper default: one million).
    pub max_retries: u64,
    /// Steps a timed lock waits before its timeout fires.
    pub lock_timeout: u64,
    /// Hard step limit; exceeding it reports [`RunOutcome::StepLimit`].
    pub step_limit: u64,
    /// Pointer sanity lower bound (paper Figure 5c; default 10,000).
    pub lower_bound: i64,
    /// Maximum random backoff (steps) after a deadlock rollback.
    pub backoff_max: u64,
    /// Apply the deadlock backoff to *every* rollback, guard failures
    /// included. The paper's retry loop yields the processor between
    /// attempts ("giving the other thread a chance to catch up"); the
    /// default `false` keeps the historical non-preemptive retry spin.
    /// `conair verify` turns this on so exhaustive search models a fair
    /// runtime: without it, any schedule that starves the peer thread
    /// while a guard retries is a (vacuous) counterexample.
    pub retry_backoff: bool,
    /// Seed for the backoff RNG.
    pub backoff_seed: u64,
    /// Maintain an undo log and roll shared memory back on recovery — the
    /// buffered-writes ablation point of Figure 4. Requires the module to
    /// have been hardened under the matching region policy.
    pub buffered_writes: bool,
    /// Keep a ring buffer of each thread's last N executed locations and
    /// attach the failing thread's to the failure record (0 disables).
    pub trace_depth: usize,
    /// Record every scheduler pick into a [`DecisionTrace`] attached to
    /// the [`RunResult`] (replay/minimization input; off by default).
    pub record_decisions: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            max_retries: 1_000_000,
            lock_timeout: 400,
            step_limit: 50_000_000,
            lower_bound: DEFAULT_LOWER_BOUND,
            backoff_max: 24,
            backoff_seed: 0xC0A1,
            retry_backoff: false,
            buffered_writes: false,
            trace_depth: 0,
            record_decisions: false,
        }
    }
}

/// What the execution of one instruction asked the machine to do.
enum StepEffect {
    /// Continue normally.
    Continue,
    /// The thread blocked on a lock (pc stays at the lock instruction).
    Blocked(LockId, Option<SiteId>),
    /// A failure was detected at a *hardened* site: attempt recovery.
    AttemptRecovery(SiteId, FailureKind, String),
    /// An unrecoverable failure (original semantics).
    Fail(FailureKind, Option<SiteId>, String),
    /// The step limit was reached at a superinstruction's internal step
    /// boundary (the fused head executed; the tail did not).
    Limit,
}

// Both constructors stay out of line: inlined into the dispatch match,
// the message formatting slowed every step.
impl StepEffect {
    /// An `alloc` of `words` would push the live heap past
    /// [`MAX_HEAP_WORDS`].
    #[cold]
    #[inline(never)]
    fn heap_exhausted(words: i64) -> Self {
        let msg =
            format!("heap exhausted: alloc of {words} words past the {MAX_HEAP_WORDS}-word cap");
        StepEffect::Fail(FailureKind::SegFault, None, msg)
    }

    /// A call would push the thread's stack past [`MAX_CALL_DEPTH`] frames.
    #[cold]
    #[inline(never)]
    fn stack_overflow() -> Self {
        StepEffect::Fail(FailureKind::SegFault, None, "call stack overflow".into())
    }

    /// A call of a `words`-word frame would push the thread's live frames
    /// past [`MAX_STACK_WORDS`].
    #[cold]
    #[inline(never)]
    fn stack_exhausted(words: usize) -> Self {
        let msg = format!(
            "stack exhausted: call of a {words}-word frame past the {MAX_STACK_WORDS}-word cap"
        );
        StepEffect::Fail(FailureKind::SegFault, None, msg)
    }
}

/// A structurally shared copy of one machine mid-run, taken at a
/// scheduler decision point (just before the pick). Restoring it into a
/// fresh machine for the same program and config and re-entering the step
/// loop reproduces the donor run bit-for-bit from that decision onwards —
/// the invariant `tests/snapshot_fork.rs` enforces and the explorer's
/// prefix-sharing snapshot tree is built on.
///
/// The image is complete: shared memory, lock table, every thread's
/// frames/undo-log/compensation state, outputs, marker counts, per-site
/// recovery books, the backoff RNG, the cold run counters and the
/// context-switch count, and the decision log so far.
/// What it deliberately excludes is re-derivable from the program and
/// config: the dense lowering, the compiled schedule script, and the
/// scratch eligibility buffers.
///
/// "Copy" is copy-on-write throughout: memory is an all-shared page fork
/// ([`Memory::fork`]), threads are `Arc`s out of the machine's
/// copy-on-capture cache, and the cold fields (`outputs`, the cold run
/// counters, the recovery books, the decision log) are `Arc` bumps — so
/// cloning a snapshot, and capturing one from a machine that barely moved
/// since the last capture, costs refcount traffic proportional to the
/// delta, not to program state size.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    memory: Memory,
    locks: LockTable,
    threads: Vec<Arc<ThreadState>>,
    outputs: CowLog<OutputRecord, OUTPUT_CHUNK>,
    marker_counts: CowCell<Vec<u64>>,
    site_recovery: Arc<HashMap<SiteId, SiteRecovery>>,
    /// Per-site check counters, indexed densely by [`SiteId`].
    site_checks: CowCell<Vec<u64>>,
    wait_edges: Vec<WaitEdge>,
    step: u64,
    aux_work: u64,
    backoff_rng: SmallRng,
    cold: Arc<RunStats>,
    context_switches: u64,
    last_picked: Option<ThreadId>,
    rolled_back: CowCell<Vec<bool>>,
    pending_wait: Option<(LockId, u64)>,
    maybe_timed_waiter: bool,
    decision_log: CowLog<u32, DECISION_CHUNK>,
}

/// How much of a [`MachineSnapshot`]'s state is resident (held by it
/// alone) vs structurally shared with other images — the snapshot tree's
/// eviction-by-bytes pressure signal. `owned_pages`/`shared_pages` count
/// memory pages and heap blocks; `owned_bytes` additionally includes the
/// thread images and cold fields whose `Arc` this snapshot holds the last
/// reference to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotFootprint {
    /// Approximate bytes that evicting this snapshot would release.
    pub owned_bytes: u64,
    /// Memory pages/heap blocks held by this image alone.
    pub owned_pages: u64,
    /// Memory pages/heap blocks shared with at least one other image.
    pub shared_pages: u64,
}

impl MachineSnapshot {
    /// The step counter at capture (what resuming from here saves).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Scheduler decisions made before the capture point — the snapshot's
    /// depth in the decision tree.
    pub fn decisions(&self) -> usize {
        self.decision_log.len()
    }

    /// The shared memory image (globals and heap).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Deep content equality of two captured machine states: step
    /// counter, memory words, lock ownership, thread images, outputs,
    /// marker/site counters, rollback flags, wait-for edges, pending
    /// timed-wait and compensation work.
    ///
    /// Scheduler bookkeeping that does not describe the program state —
    /// `last_picked`, the decision log, the backoff RNG — and the run
    /// counters (cold and context-switch) are deliberately excluded: the
    /// independence property test compares states reached by swapping two
    /// adjacent *independent* steps, and a swap permutes exactly those
    /// fields while the program state must come out identical (the
    /// commutation axiom DPOR's soundness rests on).
    pub fn state_eq(&self, other: &MachineSnapshot) -> bool {
        self.step == other.step
            && self.memory.content_eq(&other.memory)
            && self.locks == other.locks
            && self.threads.len() == other.threads.len()
            && self
                .threads
                .iter()
                .zip(&other.threads)
                .all(|(a, b)| **a == **b)
            && self.outputs.len() == other.outputs.len()
            && self.outputs.iter().eq(other.outputs.iter())
            && self.marker_counts.get() == other.marker_counts.get()
            && self.site_checks.get() == other.site_checks.get()
            && self.rolled_back.get() == other.rolled_back.get()
            && self.wait_edges == other.wait_edges
            && self.pending_wait == other.pending_wait
            && self.aux_work == other.aux_work
    }

    /// The state a lone-thread continuation from this image depends on
    /// (see [`Machine::continuation_eq`]).
    fn continuation(&self) -> Continuation<'_> {
        Continuation {
            step: self.step,
            last_picked: self.last_picked,
            aux_work: self.aux_work,
            pending_wait: self.pending_wait,
            maybe_timed_waiter: self.maybe_timed_waiter,
            backoff_rng: &self.backoff_rng,
            wait_edges: &self.wait_edges,
            locks: &self.locks,
            threads: Threads::Shared(&self.threads),
            marker_counts: self.marker_counts.get(),
            site_checks: self.site_checks.get(),
            rolled_back: self.rolled_back.get(),
            memory: &self.memory,
        }
    }

    /// Whether a run continuing from `self` and one continuing from
    /// `other` would go on identically (see [`Machine::continuation_eq`]).
    pub(crate) fn continuation_eq(&self, other: &MachineSnapshot) -> bool {
        self.continuation() == other.continuation()
    }

    /// Sharing accounting of this image at this moment. Approximate in
    /// bytes but deterministic for a deterministic capture/drop sequence,
    /// which is what the explorer's cross-`--jobs` bit-identity needs —
    /// the tree computes it on the exploring thread only, after each
    /// wave's workers have joined.
    pub fn footprint(&self) -> SnapshotFootprint {
        let mem = self.memory.cow_footprint();
        let mut fp = SnapshotFootprint {
            owned_bytes: mem.owned_bytes,
            owned_pages: mem.owned_pages,
            shared_pages: mem.shared_pages,
        };
        // Fields this snapshot holds outright.
        let mut always_owned = 0u64;
        if self.marker_counts.is_resident() {
            always_owned += self.marker_counts.get().len() as u64 * 8;
        }
        if self.rolled_back.is_resident() {
            always_owned += self.rolled_back.get().len() as u64;
        }
        fp.owned_bytes += always_owned
            + self.wait_edges.len() as u64 * std::mem::size_of::<WaitEdge>() as u64
            + std::mem::size_of::<MachineSnapshot>() as u64;
        // Arc-shared fields count only when this is the last reference.
        for t in &self.threads {
            if Arc::strong_count(t) == 1 {
                fp.owned_bytes += t.approx_bytes();
            }
        }
        fp.owned_bytes +=
            self.outputs.owned_entries() as u64 * std::mem::size_of::<OutputRecord>() as u64;
        if Arc::strong_count(&self.site_recovery) == 1 {
            fp.owned_bytes += self.site_recovery.len() as u64
                * std::mem::size_of::<(SiteId, SiteRecovery)>() as u64;
        }
        if self.site_checks.is_resident() {
            fp.owned_bytes += self.site_checks.get().len() as u64 * 8;
        }
        if Arc::strong_count(&self.cold) == 1 {
            fp.owned_bytes += std::mem::size_of::<RunStats>() as u64
                + self.cold.rollback_latency.approx_bytes()
                + self.cold.lock_waits.approx_bytes()
                + self.cold.undo_depth.approx_bytes();
        }
        fp.owned_bytes += self.decision_log.owned_entries() as u64 * 4;
        fp
    }
}

/// Moves the value out of `a` when this is the last reference, cloning
/// otherwise — the end-of-run path out of the CoW fields.
fn unwrap_arc<T: Clone>(a: Arc<T>) -> T {
    Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone())
}

/// Thread images as a live machine holds them or as a snapshot shares
/// them.
#[derive(Clone, Copy)]
enum Threads<'a> {
    Owned(&'a [ThreadState]),
    Shared(&'a [Arc<ThreadState>]),
}

impl Threads<'_> {
    fn len(&self) -> usize {
        match self {
            Threads::Owned(t) => t.len(),
            Threads::Shared(t) => t.len(),
        }
    }

    fn get(&self, i: usize) -> &ThreadState {
        match self {
            Threads::Owned(t) => &t[i],
            Threads::Shared(t) => &t[i],
        }
    }
}

/// Everything the rest of a run depends on, borrowed from a live machine
/// or a snapshot: [`MachineSnapshot::state_eq`]'s fields without the
/// outputs, plus the scheduler-visible `last_picked`, the backoff RNG and
/// the timed-waiter hint. Outputs are left out because the machine only
/// appends to them and never reads them. The cheap fields compare first
/// and memory last.
struct Continuation<'a> {
    step: u64,
    last_picked: Option<ThreadId>,
    aux_work: u64,
    pending_wait: Option<(LockId, u64)>,
    maybe_timed_waiter: bool,
    backoff_rng: &'a SmallRng,
    wait_edges: &'a [WaitEdge],
    locks: &'a LockTable,
    threads: Threads<'a>,
    marker_counts: &'a [u64],
    site_checks: &'a [u64],
    rolled_back: &'a [bool],
    memory: &'a Memory,
}

impl PartialEq for Continuation<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.step == other.step
            && self.last_picked == other.last_picked
            && self.aux_work == other.aux_work
            && self.pending_wait == other.pending_wait
            && self.maybe_timed_waiter == other.maybe_timed_waiter
            && self.backoff_rng == other.backoff_rng
            && self.wait_edges == other.wait_edges
            && self.locks == other.locks
            && self.marker_counts == other.marker_counts
            && self.site_checks == other.site_checks
            && self.rolled_back == other.rolled_back
            && self.threads.len() == other.threads.len()
            && (0..self.threads.len()).all(|i| self.threads.get(i) == other.threads.get(i))
            && self.memory.content_eq(other.memory)
    }
}

/// What a frontier run does at its *lone consults*: consults at decision
/// index [`LoneHook::from`] or deeper where one thread is left and every
/// other thread is done. Past its forced prefix a frontier scheduler
/// picks from the eligible set and the last thread alone, so from a lone
/// consult on the run is a single-threaded continuation decided by the
/// machine state (see [`Machine::continuation_eq`]).
pub(crate) trait LoneHook {
    /// Whether the hook does anything; `false` compiles the check out.
    const ACTIVE: bool;

    /// First decision index the hook applies at: the end of the run's
    /// forced prefix.
    fn from(&self) -> usize;

    /// Called before the pick at each lone consult. Returning an outcome
    /// ends the run here with it: the hook already knows how the run
    /// continues.
    fn at_lone(&mut self, m: &mut Machine<'_>) -> Option<RunOutcome>;

    /// Called once when the run loop has ended.
    fn finish(&mut self, m: &mut Machine<'_>);
}

/// No hook: every run path except the explorer's frontier runs.
impl LoneHook for () {
    const ACTIVE: bool = false;

    fn from(&self) -> usize {
        usize::MAX
    }

    fn at_lone(&mut self, _: &mut Machine<'_>) -> Option<RunOutcome> {
        None
    }

    fn finish(&mut self, _: &mut Machine<'_>) {}
}

/// Extends a lone-point key by one word.
#[inline]
fn key_push(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
}

/// Natural sealing granularity of the decision log — bounds tail growth
/// (and the final flatten's chunk count) for recording-heavy runs that
/// never capture; captures themselves seal eagerly at any length.
const DECISION_CHUNK: usize = 256;
/// Output-stream chunk. Records carry heap labels, but sealing moves
/// them behind an `Arc` — neither captures nor later appends clone a
/// `String`.
const OUTPUT_CHUNK: usize = 64;

/// One image taken by [`Machine::run_captured_at_branches`], with what a
/// scheduler simulation needs to walk to it without running the machine.
#[derive(Debug, Clone)]
pub struct BranchCapture {
    /// Decision index the image precedes (decisions made so far).
    pub depth: usize,
    /// The machine state just before that decision.
    pub snap: MachineSnapshot,
    /// Threads eligible at that decision, in thread-id order.
    pub eligible: Vec<ThreadId>,
    /// Every decision in `singles_from..depth` had exactly one eligible
    /// thread (so any scheduler made it the same way). Equal to `depth`
    /// when the run did not observe the decisions before this one.
    pub singles_from: usize,
}

/// Which branch points [`Machine::run_captured_at_branches`] images.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapturePlacement {
    /// The first `limit` branch points: a contiguous run of nodes from the
    /// start, which a scheduler simulation can walk down.
    First,
    /// At most `limit` branch points spread evenly over the whole run:
    /// every `stride`-th one, where the stride starts at 1 and doubles,
    /// dropping every other held image, whenever `limit` are held.
    Spread,
}

/// In-flight snapshot capture: images of branch points at decision index
/// `from` or deeper, at most `limit` of them, placed per `placement`, in
/// ascending depth order (see [`Machine::run_captured_at_branches`]).
struct CaptureState {
    from: usize,
    limit: usize,
    placement: CapturePlacement,
    /// Branch points at or past `from` seen so far.
    forks: usize,
    /// Image every `stride`-th of those forks (always 1 for
    /// [`CapturePlacement::First`]).
    stride: usize,
    /// The latest decision index that had two or more eligible threads,
    /// or was this run's first consult.
    last_fork: Option<usize>,
    out: Vec<BranchCapture>,
}

impl CaptureState {
    /// Counts one more branch point at or past `from` and says whether it
    /// gets an image. Under [`CapturePlacement::Spread`] a full plan first
    /// keeps every other image and doubles its stride, so the held images
    /// stay evenly strided from the first fork.
    fn next_fork_due(&mut self) -> bool {
        let fork = self.forks;
        self.forks += 1;
        if !fork.is_multiple_of(self.stride) {
            return false;
        }
        if self.out.len() < self.limit {
            return true;
        }
        if self.placement == CapturePlacement::First {
            return false;
        }
        let mut keep = false;
        self.out.retain(|_| {
            keep = !keep;
            keep
        });
        self.stride *= 2;
        fork.is_multiple_of(self.stride) && self.out.len() < self.limit
    }
}

/// The interpreter for one program run.
pub struct Machine<'p> {
    program: &'p Program,
    /// Pre-lowered flat instruction tables: the step loop fetches a `Copy`
    /// [`DecodedInst`] by `u32` pc with no per-step cloning. Behind an
    /// `Arc` so harness layers that run the same program thousands of
    /// times (the explorer) can share one lowering instead of rebuilding
    /// it per run.
    dense: Arc<DenseProgram<'p>>,
    config: MachineConfig,
    memory: Memory,
    locks: LockTable,
    threads: Vec<ThreadState>,
    /// The schedule script compiled against the module's interned marker
    /// ids: the per-step hold check is integer compares over the thread's
    /// own gates, not string compares over every gate.
    compiled_script: CompiledScript,
    /// Whether any compiled gate could still hold a thread. Marker counts
    /// only grow, so this goes `false` at most once per run (re-evaluated
    /// only when a marker executes) — after which the per-step eligibility
    /// path treats the script as empty. While it is set, a marker hit and
    /// the running thread's arrival at a marker pc mark the eligibility
    /// cache stale, since a gate's hold moves only with those two.
    gates_active: bool,
    /// Output stream: sealed-chunk CoW, so a capture shares all history
    /// chunks and copies only the short tail.
    outputs: CowLog<OutputRecord, OUTPUT_CHUNK>,
    /// Marker hit counts, indexed by the dense lowering's interned marker
    /// id — a `Vec` index on the hot path, no hashing. `CowCell` so a
    /// capture between marker hits (the common case) shares instead of
    /// cloning.
    marker_counts: CowCell<Vec<u64>>,
    site_recovery: Arc<HashMap<SiteId, SiteRecovery>>,
    /// Per-site check counters, indexed densely by [`SiteId`] (grown on
    /// demand): hardened sites fire on the hot path, so the counter bump
    /// is an array index, and the capture-side freeze one short memcpy.
    site_checks: CowCell<Vec<u64>>,
    wait_edges: Vec<WaitEdge>,
    step: u64,
    aux_work: u64,
    backoff_rng: SmallRng,
    /// The [`RunStats`] fields bumped off the hot path — the rollback,
    /// lock-wait and undo-depth histograms and the compensation and
    /// re-execution counters. `Arc` so a capture shares them; the hot
    /// fields are filled in at run end.
    cold: Arc<RunStats>,
    /// Scheduler switches between threads — bumped on a large share of
    /// consult-every-step steps, so a plain counter beside `cold` rather
    /// than a field behind its `Arc`; folded into [`RunStats`] at run end.
    context_switches: u64,
    /// Thread the scheduler ran last step (context-switch detection).
    last_picked: Option<ThreadId>,
    /// Per-thread flag: rolled back since its last checkpoint execution
    /// (marks the next checkpoint execution as a reexecution). `CowCell`:
    /// mutated only at rollbacks and checkpoint executions.
    rolled_back: CowCell<Vec<bool>>,
    /// Wait the currently stepping thread was blocked in, captured before
    /// its status is reset (lock wait-time accounting).
    pending_wait: Option<(LockId, u64)>,
    /// Reused eligibility buffer — refilled every scheduler step instead of
    /// allocating a fresh `Vec` (the step loop's only per-step allocation).
    eligible: Vec<ThreadId>,
    /// Whether `eligible` may be out of date. Set by every thread status
    /// transition; while clear (and the last fill found the set cacheable)
    /// the per-step refill is skipped entirely.
    eligible_stale: bool,
    /// Whether the last fill produced a set that stays valid until it is
    /// marked stale: every thread `Runnable`/`Done` (blocked and sleeping
    /// threads' eligibility shifts with locks and the step counter).
    /// Schedule gates do not disable it: a hold depends only on marker
    /// counts and the held thread's pc, so a marker hit marks the set
    /// stale, and so does the running thread stopping at a marker pc.
    eligible_cacheable: bool,
    /// Whether any thread may be blocked on a *timed* lock — lets the
    /// per-step timeout scan bail without touching the thread list. Set on
    /// every timed-lock block; cleared by a scan that finds no waiter.
    maybe_timed_waiter: bool,
    /// Recorded scheduler picks (only when
    /// [`MachineConfig::record_decisions`] is set). Sealed-chunk CoW: a
    /// capture shares the log's history instead of cloning it, keeping
    /// deep-run capture cost O(1) amortized rather than O(depth).
    decision_log: CowLog<u32, DECISION_CHUNK>,
    /// Copy-on-capture thread image cache, aligned with `threads`. The
    /// interpreter keeps threads owned (register writes stay plain stores,
    /// no per-write refcount traffic); [`Machine::snapshot`] lazily `Arc`s
    /// each thread here and reuses the `Arc` for every later capture until
    /// [`Machine::dispatch_step`] or a lock-timeout transition dirties the
    /// thread and clears its slot.
    thread_snaps: Vec<Option<Arc<ThreadState>>>,
    /// Reused footprint buffer, aligned with `eligible` — filled at each
    /// consult of a decision-recording run, empty otherwise.
    footprints: Vec<Footprint>,
    /// Snapshot capture plan for this run (`None` outside
    /// [`Machine::run_captured_at_branches`]).
    capture: Option<CaptureState>,
    /// Capture one extra image of the *final* state, after the run loop
    /// exits (set by [`Machine::run_with_final_snapshot`]).
    capture_final: bool,
    /// Wall time spent inside [`Machine::snapshot`] by this run's capture
    /// plan and lone images — the explorer's self-profiling "capture"
    /// phase.
    capture_wall: Duration,
    /// Register undo-log depth of every rollback since a [`LoneHook`]
    /// asked for them ([`Machine::log_undo`]); `None` until then.
    undo_log: Option<Vec<u64>>,
    sink: Option<Box<dyn TraceSink>>,
}

impl<'p> Machine<'p> {
    /// Creates a machine for `program`, lowering it on the spot.
    pub fn new(program: &'p Program, config: MachineConfig) -> Self {
        let dense = Arc::new(DenseProgram::new(&program.module));
        Self::with_shared_dense(program, dense, config)
    }

    /// Creates a machine reusing a pre-built lowering of `program`'s
    /// module — the per-run construction cost is then allocation of the
    /// run state only. The caller must pass a lowering of the *same*
    /// module.
    pub fn with_shared_dense(
        program: &'p Program,
        dense: Arc<DenseProgram<'p>>,
        config: MachineConfig,
    ) -> Self {
        let memory = Memory::new(&program.module);
        let locks = LockTable::new(program.module.locks.len());
        let threads = program
            .threads
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                ThreadState::new(
                    ThreadId(i),
                    spec.func,
                    program.module.func(spec.func),
                    &spec.args,
                )
            })
            .collect();
        let backoff_seed = config.backoff_seed;
        let thread_count = program.threads.len();
        let marker_counts = CowCell::new(vec![0u64; dense.num_markers()]);
        Self {
            program,
            dense,
            config,
            memory,
            locks,
            threads,
            compiled_script: CompiledScript::default(),
            gates_active: false,
            outputs: CowLog::new(),
            marker_counts,
            site_recovery: Arc::new(HashMap::new()),
            site_checks: CowCell::new(Vec::new()),
            wait_edges: Vec::new(),
            step: 0,
            aux_work: 0,
            backoff_rng: SmallRng::seed_from_u64(backoff_seed),
            cold: Arc::new(RunStats::default()),
            context_switches: 0,
            last_picked: None,
            rolled_back: CowCell::new(vec![false; thread_count]),
            pending_wait: None,
            eligible: Vec::with_capacity(thread_count),
            eligible_stale: true,
            eligible_cacheable: false,
            maybe_timed_waiter: false,
            decision_log: CowLog::new(),
            thread_snaps: vec![None; thread_count],
            footprints: Vec::with_capacity(thread_count),
            capture: None,
            capture_final: false,
            capture_wall: Duration::ZERO,
            undo_log: None,
            sink: None,
        }
    }

    /// Captures a structurally shared copy of the run state. Meaningful at
    /// a decision point (the explorer captures just before each scheduler
    /// pick); restoring mid-step is not supported.
    ///
    /// Cost scales with the delta since the previous capture: memory pages
    /// dirtied since the last [`Memory::fork`] get moved behind fresh
    /// `Arc`s (no word copy), threads stepped since the last capture are
    /// re-imaged into the copy-on-capture cache, and everything else is a
    /// refcount bump.
    pub fn snapshot(&mut self) -> MachineSnapshot {
        self.image(true)
    }

    /// [`Machine::snapshot`], with the decision log and the outputs left
    /// empty unless `logs` is set.
    fn image(&mut self, logs: bool) -> MachineSnapshot {
        let threads: Vec<Arc<ThreadState>> = self
            .threads
            .iter()
            .zip(self.thread_snaps.iter_mut())
            .map(|(t, slot)| {
                let arc = slot.get_or_insert_with(|| Arc::new(t.clone()));
                debug_assert!(**arc == *t, "copy-on-capture thread cache went stale");
                Arc::clone(arc)
            })
            .collect();
        MachineSnapshot {
            memory: self.memory.fork(),
            locks: self.locks.clone(),
            threads,
            outputs: if logs {
                self.outputs.share()
            } else {
                CowLog::new()
            },
            marker_counts: self.marker_counts.share(),
            site_recovery: Arc::clone(&self.site_recovery),
            site_checks: self.site_checks.share(),
            wait_edges: self.wait_edges.clone(),
            step: self.step,
            aux_work: self.aux_work,
            backoff_rng: self.backoff_rng.clone(),
            cold: Arc::clone(&self.cold),
            context_switches: self.context_switches,
            last_picked: self.last_picked,
            rolled_back: self.rolled_back.share(),
            pending_wait: self.pending_wait,
            maybe_timed_waiter: self.maybe_timed_waiter,
            // Tail-copy share: the push path seals at `DECISION_CHUNK`,
            // so the copied tail is bounded (u32s — cheaper than sealing
            // a dribble chunk per capture).
            decision_log: if logs {
                self.decision_log.clone()
            } else {
                CowLog::new()
            },
        }
    }

    /// Overwrites this machine's run state with `snap`'s. The machine must
    /// have been built for the same program and config as the snapshot's
    /// donor; re-entering [`Machine::run`] then continues the donor run
    /// bit-identically from the capture point.
    pub fn restore_from(&mut self, snap: &MachineSnapshot) {
        // Memory clone is refcount bumps (the snapshot's pages are all
        // shared); the first write per page after resume re-owns it.
        self.memory = snap.memory.clone();
        self.locks = snap.locks.clone();
        // Threads run owned (the interpreter mutates them in place), so
        // restore materializes each image — and seeds the copy-on-capture
        // cache with the snapshot's `Arc`s, so re-capturing an unstepped
        // thread after resume is again a refcount bump.
        self.threads.clear();
        self.threads
            .extend(snap.threads.iter().map(|a| (**a).clone()));
        self.thread_snaps.clear();
        self.thread_snaps
            .extend(snap.threads.iter().map(|a| Some(Arc::clone(a))));
        self.outputs = snap.outputs.clone();
        self.marker_counts = snap.marker_counts.clone();
        self.site_recovery = Arc::clone(&snap.site_recovery);
        self.site_checks = snap.site_checks.clone();
        self.wait_edges = snap.wait_edges.clone();
        self.step = snap.step;
        self.aux_work = snap.aux_work;
        self.backoff_rng = snap.backoff_rng.clone();
        self.cold = Arc::clone(&snap.cold);
        self.context_switches = snap.context_switches;
        self.last_picked = snap.last_picked;
        self.rolled_back = snap.rolled_back.clone();
        self.pending_wait = snap.pending_wait;
        self.maybe_timed_waiter = snap.maybe_timed_waiter;
        self.decision_log = snap.decision_log.clone();
        self.eligible.clear();
        self.eligible_stale = true;
        self.eligible_cacheable = false;
        self.gates_active = self
            .compiled_script
            .any_unreleased(self.marker_counts.get());
        self.footprints.clear();
    }

    /// Installs a bug-forcing schedule script. The script is compiled
    /// against the module's interned marker ids here, once — repeated
    /// trials share the source script and each run pays a small
    /// per-construction resolve instead of per-step string compares.
    pub fn with_script(mut self, script: &'p ScheduleScript) -> Self {
        self.compiled_script = script.compile(self.threads.len(), &self.dense);
        self.gates_active = self
            .compiled_script
            .any_unreleased(self.marker_counts.get());
        self
    }

    /// Installs a [`TraceSink`] receiving structured [`TraceEvent`]s.
    ///
    /// Without a sink (the default), no event is ever constructed — every
    /// emission site hands the machine's `emit` a closure that only runs when
    /// a sink is present.
    pub fn with_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Emits a trace event, constructing it only when a sink is installed.
    #[inline]
    fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(event());
        }
    }

    /// Runs the program to completion under `scheduler`.
    ///
    /// Generic over the scheduler type so concrete callers monomorphize
    /// (the pick call inlines into the step loop); `&mut dyn Scheduler`
    /// callers still work through the `?Sized` bound.
    pub fn run<S: Scheduler + ?Sized>(self, scheduler: &mut S) -> RunResult {
        self.run_inner(scheduler, &mut ()).0
    }

    /// Runs like [`Machine::run`], additionally returning an image of the
    /// *final* machine state — globals, heap, lock table, outputs,
    /// per-thread undo-log epochs — taken the instant the run loop exits.
    /// [`MachineSnapshot::state_eq`] on two such images is the
    /// "byte-identical end state" oracle the DPOR commutation tests use.
    pub fn run_with_final_snapshot<S: Scheduler + ?Sized>(
        mut self,
        scheduler: &mut S,
    ) -> (RunResult, MachineSnapshot) {
        self.capture_final = true;
        let (result, _, snap) = self.run_inner(scheduler, &mut ());
        (result, snap.expect("capture_final requested an image"))
    }

    /// Runs like [`Machine::run`], additionally capturing a
    /// [`MachineSnapshot`] at *branch points*: consults at decision index
    /// `capture_from` or deeper where at least two threads are eligible,
    /// the only depths a divergent sibling schedule can resume from.
    /// `capture_limit` bounds the images held, and `placement` picks which
    /// branch points they cover. Captures come back in ascending depth
    /// order, each with its consult's eligible set and the single-choice
    /// run of decisions leading to it. Capture keys on the decision log,
    /// so [`MachineConfig::record_decisions`] must be set.
    pub fn run_captured_at_branches<S: Scheduler + ?Sized>(
        self,
        scheduler: &mut S,
        capture_from: usize,
        capture_limit: usize,
        placement: CapturePlacement,
    ) -> (RunResult, Vec<BranchCapture>) {
        self.run_frontier(scheduler, capture_from, capture_limit, placement, &mut ())
    }

    /// [`Machine::run_captured_at_branches`] with a [`LoneHook`] consulted
    /// at every lone consult: the explorer's frontier runs.
    pub(crate) fn run_frontier<S: Scheduler + ?Sized, H: LoneHook>(
        mut self,
        scheduler: &mut S,
        capture_from: usize,
        capture_limit: usize,
        placement: CapturePlacement,
        hook: &mut H,
    ) -> (RunResult, Vec<BranchCapture>) {
        assert!(
            self.config.record_decisions,
            "snapshot capture keys on the decision log"
        );
        if capture_limit > 0 {
            self.capture = Some(CaptureState {
                from: capture_from,
                limit: capture_limit,
                placement,
                forks: 0,
                stride: 1,
                last_fork: None,
                out: Vec::new(),
            });
        }
        let (result, captured, _) = self.run_inner(scheduler, hook);
        (result, captured)
    }

    fn run_inner<S: Scheduler + ?Sized, H: LoneHook>(
        mut self,
        scheduler: &mut S,
        hook: &mut H,
    ) -> (RunResult, Vec<BranchCapture>, Option<MachineSnapshot>) {
        let start = Instant::now();
        if self.sink.is_some() {
            for i in 0..self.threads.len() {
                let name = self.program.threads[i].name.clone();
                self.emit(|| TraceEvent::ThreadStarted {
                    step: 0,
                    thread: ThreadId(i),
                    name,
                });
            }
        }
        let mask = scheduler.decision_mask();
        let outcome = self.run_loop(scheduler, mask, hook);
        hook.finish(&mut self);
        // Final image before the teardown below starts moving fields out
        // of `self` (the snapshot shares the still-intact decision log).
        let final_snap = self.capture_final.then(|| self.snapshot());
        let step = self.step;
        let decisions = if self.config.record_decisions {
            let mut trace = DecisionTrace::new(scheduler.name(), 0, mask);
            trace.decisions = std::mem::take(&mut self.decision_log).into_vec();
            if self.sink.is_some() {
                let scheduler = trace.scheduler.clone();
                let count = trace.len() as u64;
                let trace_hash = trace.hash();
                self.emit(|| TraceEvent::ScheduleInfo {
                    step,
                    scheduler,
                    decisions: count,
                    trace_hash,
                });
            }
            Some(trace)
        } else {
            None
        };
        let label = outcome.label().to_string();
        self.emit(|| TraceEvent::RunEnded {
            step,
            outcome: label,
        });
        let stats = RunStats {
            steps: self.step,
            insts: self.threads.iter().map(|t| t.stats.insts).sum(),
            checkpoints: self.threads.iter().map(|t| t.stats.checkpoints).sum(),
            rollbacks: self.threads.iter().map(|t| t.stats.rollbacks).sum(),
            aux_work: self.aux_work,
            site_recovery: unwrap_arc(self.site_recovery),
            site_checks: self
                .site_checks
                .into_inner()
                .into_iter()
                .enumerate()
                .filter(|&(_, count)| count != 0)
                .map(|(i, count)| (SiteId::from_index(i), count))
                .collect(),
            snapshot_wall: self.capture_wall,
            wait_edges: self.wait_edges,
            wall: start.elapsed(),
            context_switches: self.context_switches,
            ..unwrap_arc(self.cold)
        };
        let captured = self.capture.map(|c| c.out).unwrap_or_default();
        let result = RunResult {
            outcome,
            outputs: self.outputs.into_vec(),
            stats,
            decisions,
        };
        (result, captured, final_snap)
    }

    fn run_loop<S: Scheduler + ?Sized, H: LoneHook>(
        &mut self,
        scheduler: &mut S,
        mask: PointMask,
        hook: &mut H,
    ) -> RunOutcome {
        let consult_every_step = mask.is_all();
        loop {
            if self.step >= self.config.step_limit {
                return RunOutcome::StepLimit;
            }
            self.step += 1;

            // 1. Timed-lock timeouts fire before scheduling.
            if let Some(outcome) = self.process_lock_timeouts() {
                return outcome;
            }

            // 2. Compute eligibility (into the reused buffer).
            self.fill_eligible();
            if self.eligible.is_empty() {
                if self.threads.iter().all(ThreadState::is_done) {
                    return RunOutcome::Completed;
                }
                let blocked = self
                    .threads
                    .iter()
                    .filter(|t| matches!(t.status, ThreadStatus::BlockedOnLock { .. }))
                    .count();
                let sleeping = self
                    .threads
                    .iter()
                    .any(|t| matches!(t.status, ThreadStatus::SleepingUntil(_)));
                let waiting_on_timeout = self
                    .threads
                    .iter()
                    .any(|t| matches!(t.status, ThreadStatus::BlockedOnLock { site: Some(_), .. }));
                if sleeping || waiting_on_timeout {
                    // Time passes; sleepers wake and timeouts eventually fire.
                    continue;
                }
                // Snapshot the wait-for graph for diagnosis.
                self.wait_edges = self
                    .threads
                    .iter()
                    .filter_map(|t| match t.status {
                        ThreadStatus::BlockedOnLock { lock, .. } => Some(WaitEdge {
                            waiter: t.id,
                            lock,
                            owner: self.locks.owner(lock),
                        }),
                        _ => None,
                    })
                    .collect();
                return RunOutcome::Hang {
                    blocked_on_locks: blocked,
                };
            }

            // 3. Pick and execute. Schedulers with narrow decision masks
            // are only consulted when the running thread reaches a masked
            // scheduling point (or stops being eligible); in between, the
            // machine silently continues it. Under the ALL mask every step
            // is a consult; a lone thread's local span settles its own in
            // one call after it ran (`lone_span`).
            let consult = if consult_every_step {
                Some(None)
            } else {
                match self.last_picked {
                    Some(prev) if self.eligible.contains(&prev) => {
                        let kind = self.point_kind(prev);
                        if mask.contains(kind) {
                            Some(Some(kind))
                        } else {
                            None
                        }
                    }
                    _ => Some(None),
                }
            };
            let tid = match consult {
                Some(point) => {
                    if self.config.record_decisions {
                        self.fill_footprints();
                        self.maybe_capture();
                        if H::ACTIVE
                            && self.eligible.len() == 1
                            && self.decision_log.len() >= hook.from()
                            && self.peers_done()
                        {
                            if let Some(outcome) = hook.at_lone(self) {
                                return outcome;
                            }
                        }
                    }
                    let ctx = SchedContext {
                        eligible: &self.eligible,
                        step: self.step,
                        threads: self.threads.len(),
                        last: self.last_picked,
                        point,
                        footprints: &self.footprints,
                    };
                    let tid = scheduler.pick(&ctx);
                    if self.config.record_decisions {
                        self.decision_log.push(tid.index() as u32);
                    }
                    tid
                }
                None => self.last_picked.expect("continuation has a last thread"),
            };
            debug_assert!(
                self.eligible.contains(&tid),
                "scheduler picked ineligible thread"
            );
            if self.last_picked != Some(tid) {
                if self.last_picked.is_some() {
                    self.context_switches += 1;
                }
                let from = self.last_picked;
                let step = self.step;
                let eligible_count = self.eligible.len();
                self.emit(|| TraceEvent::ContextSwitch {
                    step,
                    from,
                    to: tid,
                    eligible: eligible_count,
                });
                self.last_picked = Some(tid);
            }
            let lone = consult_every_step && self.lone_span(tid);
            let first = self.step;
            let outcome = self.dispatch_step(tid, consult_every_step && !lone);
            if lone && self.step > first {
                let only = [tid];
                let ctx = SchedContext {
                    eligible: &only,
                    step: first + 1,
                    threads: self.threads.len(),
                    last: Some(tid),
                    point: None,
                    footprints: &[],
                };
                scheduler.forced(&ctx, self.step - first);
            }
            if let Some(outcome) = outcome {
                return outcome;
            }
        }
    }

    /// Whether, under the ALL mask, `tid` may run a tight span whose
    /// consults are settled afterwards in one [`Scheduler::forced`] call.
    /// Every consult the span skips would have had `tid` as its only
    /// eligible thread: the cached set is valid, so no thread sleeps or
    /// waits on a lock, and the span executes only `Local` instructions —
    /// no marker, lock operation, shared access or exit, so it releases
    /// no gate or lock, and a change of `tid`'s own status ends it. Runs
    /// that record decisions keep one consult per step.
    #[inline]
    fn lone_span(&self, tid: ThreadId) -> bool {
        self.eligible.len() == 1
            && self.eligible_cacheable
            && !self.config.record_decisions
            && self.point_kind(tid) == PointKind::Local
    }

    /// One scheduler-visible dispatch through the decoded interpreter —
    /// *tight* (fused stream, span execution up to the next maskable
    /// scheduling point) whenever nothing needs a per-step boundary: no
    /// consult due before the next step (`per_step`), no trace ring, and
    /// no thread possibly waiting on a timed lock.
    #[inline]
    fn dispatch_step(&mut self, tid: ThreadId, per_step: bool) -> Option<RunOutcome> {
        // The dispatched thread is about to mutate: its cached capture
        // image (if any) is no longer current.
        self.thread_snaps[tid.index()] = None;
        let tight = !per_step && self.config.trace_depth == 0 && !self.maybe_timed_waiter;
        self.step_thread(tid, tight)
    }

    /// Refills the eligibility buffer with the threads that can execute an
    /// instruction this step. Skipped when the previous fill is provably
    /// still valid: every thread `Runnable` or `Done`, no status transition
    /// and no marker hit under active gates since (`eligible_stale`), and
    /// the thread that ran last not stopped at a marker pc where a gate
    /// could now hold it. No other thread moved, so no other hold changed.
    fn fill_eligible(&mut self) {
        if self.eligible_cacheable && !self.eligible_stale && !self.last_picked_at_marker() {
            debug_assert_eq!(
                self.eligible,
                self.compute_eligible(Vec::new()).0,
                "cached eligible set diverged from a recompute at step {}",
                self.step
            );
            return;
        }
        let buf = std::mem::take(&mut self.eligible);
        let (out, all_settled) = self.compute_eligible(buf);
        self.eligible = out;
        // An empty set feeds the completion/hang detection — never cache it.
        self.eligible_cacheable = all_settled && !self.eligible.is_empty();
        self.eligible_stale = false;
    }

    /// The threads that can execute an instruction this step, written into
    /// `out` (cleared first), and whether every thread is `Runnable` or
    /// `Done`.
    fn compute_eligible(&self, mut out: Vec<ThreadId>) -> (Vec<ThreadId>, bool) {
        let gates = self.gates_active;
        let mut all_settled = true;
        out.clear();
        for t in &self.threads {
            let ok = match t.status {
                ThreadStatus::Runnable => !gates || !self.is_gate_held(t),
                ThreadStatus::BlockedOnLock { lock, .. } => {
                    all_settled = false;
                    self.locks.is_free(lock)
                }
                ThreadStatus::SleepingUntil(until) => {
                    all_settled = false;
                    self.step >= until
                }
                ThreadStatus::Done => false,
            };
            if ok {
                out.push(t.id);
            }
        }
        (out, all_settled)
    }

    /// Whether gates are active and the thread that ran last now sits at a
    /// marker pc — the one way a hold can start without a marker hit.
    #[inline]
    fn last_picked_at_marker(&self) -> bool {
        if !self.gates_active {
            return false;
        }
        let Some(tid) = self.last_picked else {
            return false;
        };
        let t = &self.threads[tid.index()];
        !t.frames().is_empty() && {
            let frame = t.top();
            self.dense.func(frame.func).marker_id(frame.pc).is_some()
        }
    }

    /// Refills the footprint buffer for the current eligible set (decision
    /// recording runs only — the explorer's independence check reads them
    /// out of the consult log).
    fn fill_footprints(&mut self) {
        let mut out = std::mem::take(&mut self.footprints);
        out.clear();
        for i in 0..self.eligible.len() {
            let fp = self.footprint_of(self.eligible[i]);
            out.push(fp);
        }
        self.footprints = out;
    }

    /// The first shared effect `tid`'s next instruction would have.
    fn footprint_of(&self, tid: ThreadId) -> Footprint {
        use DecodedInst as D;
        let frame = self.threads[tid.index()].top();
        match self.dense.func(frame.func).decoded(frame.pc) {
            D::Lock { lock } | D::TimedLock { lock, .. } | D::Unlock { lock } => {
                Footprint::Lock(lock)
            }
            D::LoadGlobal { global, .. } => {
                Footprint::Read(self.memory.global_addr(GlobalId(global)))
            }
            D::StoreGlobal { global, .. } => {
                Footprint::Write(self.memory.global_addr(GlobalId(global)))
            }
            D::LoadPtr { ptr, .. } => Footprint::Read(self.eval_dop(tid, ptr)),
            D::StorePtrRR { ptr, .. } | D::StorePtrRC { ptr, .. } => {
                Footprint::Write(self.reg_idx(tid, ptr))
            }
            D::StorePtrCR { addr, .. } | D::StorePtrCC { addr, .. } => Footprint::Write(addr),
            _ => Footprint::Opaque,
        }
    }

    /// Counts one execution of a hardened site's check. Borrows only the
    /// counter cell so call sites can hold other borrows of `self`.
    #[inline]
    fn bump_site_check(checks: &mut CowCell<Vec<u64>>, site: SiteId) {
        let v = checks.get_mut();
        let i = site.index();
        if v.len() <= i {
            v.resize(i + 1, 0);
        }
        v[i] += 1;
    }

    /// Captures a snapshot when the current consult is a branch point the
    /// capture plan still covers. The stored step is decremented by one so
    /// that re-entering the step loop after a restore re-increments it to
    /// the current value — the resumed run then repeats this very consult
    /// (timeout scan and eligibility recomputation included, both of which
    /// are idempotent at a decision point) and proceeds bit-identically.
    fn maybe_capture(&mut self) {
        let Some(c) = self.capture.as_mut() else {
            return;
        };
        let depth = self.decision_log.len();
        let fork = self.eligible.len() >= 2;
        // A single-eligible consult spawns no alternative child, so an
        // image there can never be a resume target: every run reaching
        // this prefix has the same state (determinism), hence the same
        // eligible set, hence no divergence here.
        let due = fork && depth >= c.from && c.next_fork_due();
        let singles_from = c.last_fork.map_or(depth, |f| f + 1);
        if fork || c.last_fork.is_none() {
            c.last_fork = Some(depth);
        }
        if !due {
            return;
        }
        let capture_start = Instant::now();
        let mut snap = self.snapshot();
        self.capture_wall += capture_start.elapsed();
        snap.step -= 1;
        let eligible = self.eligible.clone();
        let c = self.capture.as_mut().expect("checked above");
        c.out.push(BranchCapture {
            depth,
            snap,
            eligible,
            singles_from,
        });
    }

    /// Whether every thread but one is done: the consult's only eligible
    /// thread runs alone from here on.
    fn peers_done(&self) -> bool {
        self.threads.iter().filter(|t| !t.is_done()).count() == 1
    }

    /// Whether continuing this machine and continuing a run from `img`
    /// would go on identically: the same steps, decisions, footprints,
    /// rollbacks and outcome, up to the outputs, which the machine only
    /// appends to. Compares step, last thread, backoff RNG and every
    /// field [`MachineSnapshot::state_eq`] covers except the outputs.
    /// The live machine is compared in place; no image is built.
    pub(crate) fn continuation_eq(&self, img: &MachineSnapshot) -> bool {
        let live = Continuation {
            step: self.step,
            last_picked: self.last_picked,
            aux_work: self.aux_work,
            pending_wait: self.pending_wait,
            maybe_timed_waiter: self.maybe_timed_waiter,
            backoff_rng: &self.backoff_rng,
            wait_edges: &self.wait_edges,
            locks: &self.locks,
            threads: Threads::Owned(&self.threads),
            marker_counts: self.marker_counts.get(),
            site_checks: self.site_checks.get(),
            rolled_back: self.rolled_back.get(),
            memory: &self.memory,
        };
        live == img.continuation()
    }

    /// A cheap key over the part of [`Machine::continuation_eq`]'s state
    /// that differs most between runs: the step, the last thread, and
    /// the running thread's frames (function, pc, registers, locals).
    /// Equal continuations have equal keys; the converse is what
    /// `continuation_eq` confirms.
    pub(crate) fn lone_key(&self) -> u64 {
        let mut h = key_push(0xcbf2_9ce4_8422_2325, self.step);
        h = key_push(h, self.last_picked.map_or(u64::MAX, |t| t.index() as u64));
        if let Some(&tid) = self.eligible.first() {
            h = key_push(h, tid.index() as u64);
            for f in self.threads[tid.index()].frames() {
                h = key_push(h, u64::from(f.func.0) << 32 | u64::from(f.pc));
                for &w in f.regs.iter().chain(&f.locals) {
                    h = key_push(h, w as u64);
                }
            }
        }
        h
    }

    /// An image of the machine at a lone consult, for a later
    /// [`Machine::continuation_eq`]. It holds no decision log and no
    /// outputs, which the compare never reads, and its time counts as
    /// capture time.
    pub(crate) fn lone_image(&mut self) -> MachineSnapshot {
        let start = Instant::now();
        let snap = self.image(false);
        self.capture_wall += start.elapsed();
        snap
    }

    /// The step counter.
    pub(crate) fn step(&self) -> u64 {
        self.step
    }

    /// Decisions made so far.
    pub(crate) fn decisions(&self) -> usize {
        self.decision_log.len()
    }

    /// Starts logging each rollback's register undo-log depth (the
    /// samples of [`RunStats::undo_depth`]) for [`Machine::undo_log`].
    pub(crate) fn log_undo(&mut self) {
        self.undo_log.get_or_insert_with(Vec::new);
    }

    /// The undo-depth samples logged since [`Machine::log_undo`].
    pub(crate) fn undo_log(&self) -> &[u64] {
        self.undo_log.as_deref().unwrap_or_default()
    }

    /// Takes the logged undo-depth samples.
    pub(crate) fn take_undo_log(&mut self) -> Vec<u64> {
        self.undo_log.take().unwrap_or_default()
    }

    /// Re-evaluates `gates_active` after a marker count increment: a hit on
    /// some gate's `until` marker may release it for good (counts never
    /// decrease during a run). While gates are active the count change may
    /// release a held thread, so the eligibility cache goes stale.
    #[inline]
    fn note_marker_hit(&mut self) {
        if self.gates_active {
            self.eligible_stale = true;
            self.gates_active = self
                .compiled_script
                .any_unreleased(self.marker_counts.get());
        }
    }

    fn is_gate_held(&self, t: &ThreadState) -> bool {
        if !self.compiled_script.any() || t.frames().is_empty() {
            return false;
        }
        let frame = t.top();
        let Some(marker) = self.dense.func(frame.func).marker_id(frame.pc) else {
            return false;
        };
        self.compiled_script
            .is_held(t.id.index(), marker, self.marker_counts.get())
    }

    /// The scheduling-point kind of `tid`'s next instruction.
    fn point_kind(&self, tid: ThreadId) -> PointKind {
        let t = &self.threads[tid.index()];
        if t.stats.insts == 0 {
            return PointKind::ThreadSpawn;
        }
        let frame = t.top();
        match self.dense.func(frame.func).point_kind(frame.pc) {
            // The table marks every `Return` as an exit; only a return
            // from the bottom frame actually ends the thread.
            PointKind::ThreadExit if t.frames().len() > 1 => PointKind::Local,
            kind => kind,
        }
    }

    /// Fires timed-lock timeouts; may end the run.
    fn process_lock_timeouts(&mut self) -> Option<RunOutcome> {
        if !self.maybe_timed_waiter {
            return None;
        }
        self.maybe_timed_waiter = self
            .threads
            .iter()
            .any(|t| matches!(t.status, ThreadStatus::BlockedOnLock { site: Some(_), .. }));
        for i in 0..self.threads.len() {
            let (lock, since, site) = match self.threads[i].status {
                ThreadStatus::BlockedOnLock {
                    lock,
                    since,
                    site: Some(site),
                } => (lock, since, site),
                _ => continue,
            };
            let waited = self.step.saturating_sub(since);
            if waited < self.config.lock_timeout {
                continue;
            }
            // Timeout fired: `pthread_mutex_timedlock` returned ETIMEDOUT —
            // a deadlock failure site (Figure 5d).
            self.threads[i].status = ThreadStatus::Runnable;
            self.thread_snaps[i] = None;
            self.eligible_stale = true;
            let tid = ThreadId(i);
            Arc::make_mut(&mut self.cold).lock_waits.record(waited);
            let step = self.step;
            self.emit(|| TraceEvent::LockTimeout {
                step,
                thread: tid,
                lock,
                site,
                waited,
            });
            match self.attempt_recovery(tid, site, FailureKind::Deadlock) {
                RecoveryOutcome::RolledBack => {
                    // Random backoff breaks deadlock-recovery livelock.
                    self.backoff_sleep(tid);
                }
                RecoveryOutcome::Exhausted => {
                    // Snapshot the wait-for graph (including the timed-out
                    // thread's own edge) so the failure is diagnosable via
                    // `find_wait_cycle`, like a hang.
                    let mut edges = vec![WaitEdge {
                        waiter: tid,
                        lock,
                        owner: self.locks.owner(lock),
                    }];
                    edges.extend(self.threads.iter().filter_map(|t| match t.status {
                        ThreadStatus::BlockedOnLock { lock, .. } => Some(WaitEdge {
                            waiter: t.id,
                            lock,
                            owner: self.locks.owner(lock),
                        }),
                        _ => None,
                    }));
                    self.wait_edges = edges;
                    return Some(RunOutcome::Failed(FailureRecord {
                        kind: FailureKind::Deadlock,
                        site: Some(site),
                        thread: tid,
                        step: self.step,
                        msg: "lock acquisition timed out; retries exhausted".into(),
                        trace: self.thread_trace(tid),
                    }));
                }
            }
        }
        None
    }

    /// Executes decoded instructions of `tid`; returns a terminal outcome
    /// if the run ends.
    ///
    /// With `tight` set, this is the threaded-dispatch span loop: it keeps
    /// executing from the *fused* stream — superinstructions included —
    /// until the thread reaches a non-`Local` scheduling point, blocks,
    /// finishes, or hits the step limit. Mid-span, the outer loop's
    /// per-step work (timeout scan, eligibility refill, consult check) is
    /// provably a no-op for a narrow decision mask, so skipping it is
    /// bit-identical to stepping one instruction at a time; the span
    /// replicates the only state transitions that remain (step counter,
    /// `pending_wait` reset).
    fn step_thread(&mut self, tid: ThreadId, tight: bool) -> Option<RunOutcome> {
        // Remember an in-progress lock wait before the status reset erases
        // it (wait-time accounting for the acquisition about to retry), and
        // wake sleepers / unblock on entry.
        let t = &mut self.threads[tid.index()];
        let mut woke = false;
        self.pending_wait = match t.status {
            ThreadStatus::BlockedOnLock { lock, since, .. } => {
                t.status = ThreadStatus::Runnable;
                woke = true;
                Some((lock, since))
            }
            ThreadStatus::SleepingUntil(_) => {
                t.status = ThreadStatus::Runnable;
                woke = true;
                None
            }
            _ => None,
        };
        if woke {
            self.eligible_stale = true;
        }

        loop {
            // One borrow for the whole fetch/bump sequence.
            let (func_id, pc) = {
                let t = &mut self.threads[tid.index()];
                t.stats.insts += 1;
                let top = t.top_mut();
                let fetched = (top.func, top.pc);
                // Advance pc optimistically; control flow overwrites it.
                top.pc += 1;
                fetched
            };
            if self.config.trace_depth > 0 {
                let (step, depth) = (self.step, self.config.trace_depth);
                let loc = self.dense.func(func_id).loc(func_id, pc);
                self.threads[tid.index()].record_trace(step, loc, depth);
            }

            // A 32-byte `Copy` fetch — nothing borrowed across dispatch.
            let di = if tight {
                self.dense.func(func_id).decoded_fused(pc)
            } else {
                self.dense.func(func_id).decoded(pc)
            };
            match self.exec_decoded(tid, di, func_id) {
                StepEffect::Continue => {}
                StepEffect::Limit => return Some(RunOutcome::StepLimit),
                StepEffect::Blocked(lock, site) => {
                    self.block_on_lock(tid, lock, site);
                    return None;
                }
                StepEffect::AttemptRecovery(site, kind, msg) => {
                    match self.attempt_recovery(tid, site, kind) {
                        // The thread resumes at its checkpoint (a `Local`
                        // point): the span may continue through the same
                        // boundary checks below — unless a retry backoff
                        // put it to sleep, which ends the span.
                        RecoveryOutcome::RolledBack => {
                            if self.config.retry_backoff {
                                self.backoff_sleep(tid);
                            }
                        }
                        RecoveryOutcome::Exhausted => {
                            return Some(RunOutcome::Failed(FailureRecord {
                                kind,
                                site: Some(site),
                                thread: tid,
                                step: self.step,
                                msg,
                                trace: self.thread_trace(tid),
                            }))
                        }
                    }
                }
                StepEffect::Fail(kind, site, msg) => {
                    return Some(RunOutcome::Failed(FailureRecord {
                        kind,
                        site,
                        thread: tid,
                        step: self.step,
                        msg,
                        trace: self.thread_trace(tid),
                    }))
                }
            }
            if !tight {
                return None;
            }
            // Span continuation: stop at anything the outer loop could
            // observe — a finished thread, or a next instruction that is a
            // maskable scheduling point (markers included, so schedule
            // gates are re-checked exactly where a per-step walk would).
            if !matches!(self.threads[tid.index()].status, ThreadStatus::Runnable) {
                return None;
            }
            if self.point_kind(tid) != PointKind::Local {
                return None;
            }
            // The outer loop's step boundary, replicated.
            if self.step >= self.config.step_limit {
                return Some(RunOutcome::StepLimit);
            }
            self.step += 1;
            self.pending_wait = None;
        }
    }

    /// Parks `tid` on `lock`, preserving the original wait start across
    /// retries of the same blocked acquisition.
    fn block_on_lock(&mut self, tid: ThreadId, lock: LockId, site: Option<SiteId>) {
        let since = match self.pending_wait {
            Some((l, since)) if l == lock => since,
            _ => self.step,
        };
        if since == self.step {
            // A fresh wait begins: record the wait edge.
            let owner = self.locks.owner(lock);
            let step = self.step;
            self.emit(|| TraceEvent::LockWait {
                step,
                thread: tid,
                lock,
                site,
                owner,
            });
        }
        let t = &mut self.threads[tid.index()];
        // Stay at the lock instruction.
        t.top_mut().pc -= 1;
        t.status = ThreadStatus::BlockedOnLock { lock, since, site };
        self.eligible_stale = true;
        self.maybe_timed_waiter |= site.is_some();
    }

    /// Register read by pre-decoded index.
    #[inline(always)]
    fn reg_idx(&self, tid: ThreadId, r: u32) -> i64 {
        self.threads[tid.index()].top().regs[r as usize]
    }

    /// Register write by pre-decoded index — still the single logged
    /// write path ([`ThreadState::write_reg`]), so checkpoint undo sees
    /// every write the decoded interpreter makes.
    #[inline(always)]
    fn write_reg_idx(&mut self, tid: ThreadId, r: u32, v: i64) {
        self.threads[tid.index()].write_reg(Reg(r), v);
    }

    /// Evaluates a decoded operand.
    #[inline(always)]
    fn eval_dop(&self, tid: ThreadId, op: DOp) -> i64 {
        match op {
            DOp::R(r) => self.reg_idx(tid, r),
            DOp::C(c) => c,
        }
    }

    fn ptr_is_valid(&self, addr: i64) -> bool {
        addr >= self.config.lower_bound && self.memory.is_valid(addr)
    }

    /// Records an undo entry for a shared write (buffered-writes policy).
    fn log_mem_undo(&mut self, tid: ThreadId, addr: i64, old: i64) {
        if !self.config.buffered_writes {
            return;
        }
        let t = &mut self.threads[tid.index()];
        // Buffering models whole-program write logging (the Figure-4
        // ablation's cost), so it stays on once the thread has reached any
        // reexecution point — deliberately independent of whether the
        // current checkpoint is still live.
        if t.epoch == 0 {
            return;
        }
        let epoch = t.epoch;
        if t.undo.last().is_some_and(|u| u.epoch() != epoch) {
            t.undo.clear();
        }
        t.undo.push(UndoRecord::Mem { addr, old, epoch });
        self.aux_work += 1;
    }

    /// Executes one pre-decoded instruction (or a fused pair). `func` is
    /// the executing frame's function, used only to reach the decoded
    /// side tables (strings, call arguments) on cold paths.
    #[inline(always)]
    fn exec_decoded(&mut self, tid: ThreadId, di: DecodedInst, func: FuncId) -> StepEffect {
        use DecodedInst as D;
        match di {
            D::CopyC { dst, imm } => {
                self.write_reg_idx(tid, dst, imm);
                StepEffect::Continue
            }
            D::CopyR { dst, src } => {
                let v = self.reg_idx(tid, src);
                self.write_reg_idx(tid, dst, v);
                StepEffect::Continue
            }
            D::BinRR { dst, op, lhs, rhs } => {
                let v = op.apply(self.reg_idx(tid, lhs), self.reg_idx(tid, rhs));
                self.write_reg_idx(tid, dst, v);
                StepEffect::Continue
            }
            D::BinRC { dst, op, lhs, imm } => {
                let v = op.apply(self.reg_idx(tid, lhs), imm);
                self.write_reg_idx(tid, dst, v);
                StepEffect::Continue
            }
            D::BinCR { dst, op, imm, rhs } => {
                let v = op.apply(imm, self.reg_idx(tid, rhs));
                self.write_reg_idx(tid, dst, v);
                StepEffect::Continue
            }
            D::CmpRR { dst, op, lhs, rhs } => {
                let v = op.apply(self.reg_idx(tid, lhs), self.reg_idx(tid, rhs));
                self.write_reg_idx(tid, dst, v);
                StepEffect::Continue
            }
            D::CmpRC { dst, op, lhs, imm } => {
                let v = op.apply(self.reg_idx(tid, lhs), imm);
                self.write_reg_idx(tid, dst, v);
                StepEffect::Continue
            }
            D::CmpCR { dst, op, imm, rhs } => {
                let v = op.apply(imm, self.reg_idx(tid, rhs));
                self.write_reg_idx(tid, dst, v);
                StepEffect::Continue
            }
            D::LoadGlobal { dst, global } => {
                let v = self.memory.read_global(GlobalId(global));
                self.write_reg_idx(tid, dst, v);
                StepEffect::Continue
            }
            D::StoreGlobal { global, src } => {
                let v = self.eval_dop(tid, src);
                let g = GlobalId(global);
                let old = self.memory.read_global(g);
                let addr = self.memory.global_addr(g);
                self.log_mem_undo(tid, addr, old);
                self.memory.write_global(g, v);
                StepEffect::Continue
            }
            D::AddrOfGlobal { dst, global } => {
                let a = self.memory.global_addr(GlobalId(global));
                self.write_reg_idx(tid, dst, a);
                StepEffect::Continue
            }
            D::LoadPtr { dst, ptr } => {
                let addr = self.eval_dop(tid, ptr);
                match self.memory.read(addr) {
                    Ok(v) => {
                        self.write_reg_idx(tid, dst, v);
                        StepEffect::Continue
                    }
                    Err(f) => StepEffect::Fail(FailureKind::SegFault, None, f.to_string()),
                }
            }
            D::StorePtrRR { ptr, src } => {
                let (addr, v) = (self.reg_idx(tid, ptr), self.reg_idx(tid, src));
                self.store_ptr(tid, addr, v)
            }
            D::StorePtrRC { ptr, imm } => {
                let addr = self.reg_idx(tid, ptr);
                self.store_ptr(tid, addr, imm)
            }
            D::StorePtrCR { addr, src } => {
                let v = self.reg_idx(tid, src);
                self.store_ptr(tid, addr, v)
            }
            D::StorePtrCC { addr, imm } => self.store_ptr(tid, addr, imm),
            D::LoadLocal { dst, local } => {
                let v = self.threads[tid.index()].top().locals[local as usize];
                self.write_reg_idx(tid, dst, v);
                StepEffect::Continue
            }
            D::StoreLocal { local, src } => {
                let v = self.eval_dop(tid, src);
                let t = &mut self.threads[tid.index()];
                // Like `log_mem_undo`: whole-program buffering stays on
                // after the first reexecution point, live checkpoint or not.
                if self.config.buffered_writes && t.epoch > 0 {
                    let epoch = t.epoch;
                    let old = t.top().locals[local as usize];
                    if t.undo.last().is_some_and(|u| u.epoch() != epoch) {
                        t.undo.clear();
                    }
                    t.undo.push(UndoRecord::Local {
                        slot: local as usize,
                        old,
                        epoch,
                    });
                    self.aux_work += 1;
                }
                t.top_mut().locals[local as usize] = v;
                StepEffect::Continue
            }
            D::Alloc { dst, words } => {
                let n = self.eval_dop(tid, words);
                let Some(base) = self.memory.alloc(n.max(0) as usize) else {
                    return StepEffect::heap_exhausted(n);
                };
                self.write_reg_idx(tid, dst, base);
                let t = &mut self.threads[tid.index()];
                if t.checkpoint.is_some() {
                    let epoch = t.epoch;
                    t.record_compensation(CompensationRecord::Allocation { base, epoch });
                    self.aux_work += 1;
                }
                StepEffect::Continue
            }
            D::Free { ptr } => {
                let addr = self.eval_dop(tid, ptr);
                match self.memory.free(addr) {
                    Ok(()) => StepEffect::Continue,
                    Err(f) => {
                        StepEffect::Fail(FailureKind::SegFault, None, format!("invalid free: {f}"))
                    }
                }
            }
            D::Lock { lock } => {
                let lock = LockId(lock);
                match self.locks.try_acquire(lock, tid) {
                    AcquireResult::Acquired => {
                        let t = &mut self.threads[tid.index()];
                        if t.checkpoint.is_some() {
                            let epoch = t.epoch;
                            t.record_compensation(CompensationRecord::Lock { lock, epoch });
                            self.aux_work += 1;
                        }
                        self.note_lock_acquired(tid, lock, false);
                        StepEffect::Continue
                    }
                    AcquireResult::WouldBlock => StepEffect::Blocked(lock, None),
                }
            }
            D::TimedLock { lock, site } => {
                let (lock, site) = (LockId(lock), SiteId(site));
                Self::bump_site_check(&mut self.site_checks, site);
                match self.locks.try_acquire(lock, tid) {
                    AcquireResult::Acquired => {
                        self.note_site_success(tid, site);
                        let t = &mut self.threads[tid.index()];
                        if t.checkpoint.is_some() {
                            let epoch = t.epoch;
                            t.record_compensation(CompensationRecord::Lock { lock, epoch });
                            self.aux_work += 1;
                        }
                        self.note_lock_acquired(tid, lock, true);
                        StepEffect::Continue
                    }
                    AcquireResult::WouldBlock => StepEffect::Blocked(lock, Some(site)),
                }
            }
            D::Unlock { lock } => {
                let lock = LockId(lock);
                match self.locks.release(lock, tid) {
                    Ok(()) => {
                        let step = self.step;
                        self.emit(|| TraceEvent::LockReleased {
                            step,
                            thread: tid,
                            lock,
                        });
                        StepEffect::Continue
                    }
                    Err(e) => StepEffect::Fail(
                        FailureKind::AssertionViolation,
                        None,
                        format!(
                            "unlock of {} not held by {tid} (owner {:?})",
                            e.lock, e.owner
                        ),
                    ),
                }
            }
            D::Output { str_idx, value } => {
                let v = self.eval_dop(tid, value);
                let label = self.dense.func(func).str_at(str_idx);
                self.outputs.push(OutputRecord {
                    thread: tid,
                    label: label.to_string(),
                    value: v,
                });
                StepEffect::Continue
            }
            D::Assert { cond, str_idx } => {
                if self.eval_dop(tid, cond) != 0 {
                    StepEffect::Continue
                } else {
                    let msg = self.dense.func(func).str_at(str_idx);
                    StepEffect::Fail(
                        FailureKind::AssertionViolation,
                        None,
                        format!("assertion failed: {msg}"),
                    )
                }
            }
            D::OutputAssert { cond, str_idx } => {
                if self.eval_dop(tid, cond) != 0 {
                    StepEffect::Continue
                } else {
                    let msg = self.dense.func(func).str_at(str_idx);
                    StepEffect::Fail(
                        FailureKind::WrongOutput,
                        None,
                        format!("output oracle violated: {msg}"),
                    )
                }
            }
            D::Jump { pc } => {
                self.threads[tid.index()].top_mut().pc = pc;
                StepEffect::Continue
            }
            D::Branch {
                cond,
                then_pc,
                else_pc,
            } => {
                let pc = if self.reg_idx(tid, cond) != 0 {
                    then_pc
                } else {
                    else_pc
                };
                self.threads[tid.index()].top_mut().pc = pc;
                StepEffect::Continue
            }
            D::RetN => self.ret(tid, None),
            D::RetR { src } => {
                let v = self.reg_idx(tid, src);
                self.ret(tid, Some(v))
            }
            D::RetC { imm } => self.ret(tid, Some(imm)),
            D::Call {
                dst,
                callee,
                args_start,
                args_len,
            } => {
                if self.threads[tid.index()].frames().len() >= MAX_CALL_DEPTH {
                    return StepEffect::stack_overflow();
                }
                let mut vals = Vec::with_capacity(args_len as usize);
                for k in 0..args_len {
                    let a = self.dense.func(func).call_arg(args_start + k);
                    vals.push(self.eval_dop(tid, a));
                }
                let callee = FuncId(callee);
                // Frame sizes come from the pre-lowered layout — no module
                // lookup on the call path.
                let layout = self.dense.func(callee);
                let (nregs, nlocals) = (layout.num_regs(), layout.num_locals());
                let ret_dst = (dst != u32::MAX).then_some(Reg(dst));
                let frame = Frame::with_sizes(callee, nregs, nlocals, &vals, ret_dst);
                match self.threads[tid.index()].push_frame(frame) {
                    Ok(()) => StepEffect::Continue,
                    Err(frame) => StepEffect::stack_exhausted(frame.words()),
                }
            }
            D::Marker { id } => {
                self.marker_counts.get_mut()[id as usize] += 1;
                self.note_marker_hit();
                StepEffect::Continue
            }
            D::Nop => StepEffect::Continue,
            D::Checkpoint => {
                // A checkpoint re-executes (like a re-entered `setjmp`) when
                // the thread rolled back since its last checkpoint.
                // Read-then-write: clearing an already-clear flag must not
                // re-own a shared cell.
                let reexecution = self.rolled_back.get()[tid.index()];
                if reexecution {
                    self.rolled_back.get_mut()[tid.index()] = false;
                    Arc::make_mut(&mut self.cold).checkpoint_reexecutions += 1;
                }
                self.threads[tid.index()].save_checkpoint();
                let epoch = self.threads[tid.index()].epoch;
                let step = self.step;
                self.emit(|| TraceEvent::CheckpointSaved {
                    step,
                    thread: tid,
                    epoch,
                    reexecution,
                });
                StepEffect::Continue
            }
            D::FailGuard {
                kind,
                cond,
                site,
                str_idx,
            } => {
                let site = SiteId(site);
                Self::bump_site_check(&mut self.site_checks, site);
                if self.eval_dop(tid, cond) != 0 {
                    self.note_site_success(tid, site);
                    StepEffect::Continue
                } else {
                    let fk = match kind {
                        conair_ir::GuardKind::Assert => FailureKind::AssertionViolation,
                        conair_ir::GuardKind::WrongOutput => FailureKind::WrongOutput,
                    };
                    let msg = self.dense.func(func).str_at(str_idx);
                    StepEffect::AttemptRecovery(site, fk, format!("guard failed: {msg}"))
                }
            }
            D::PtrGuard { ptr, site } => {
                let site = SiteId(site);
                Self::bump_site_check(&mut self.site_checks, site);
                let addr = self.eval_dop(tid, ptr);
                if self.ptr_is_valid(addr) {
                    self.note_site_success(tid, site);
                    StepEffect::Continue
                } else {
                    StepEffect::AttemptRecovery(
                        site,
                        FailureKind::SegFault,
                        format!("pointer sanity check failed for {addr:#x}"),
                    )
                }
            }

            // ---- superinstructions ----------------------------------
            // Each fused handler executes TWO logical steps. The head's
            // register write still goes through the logged path before
            // the tail runs — a rollback between the halves (impossible
            // here, but a checkpoint restore later) must see it. Between
            // the halves the outer loop's step boundary is replicated
            // verbatim: limit check, step bump, pending-wait reset,
            // per-thread instruction count.
            D::CmpBranchRR {
                op,
                dst,
                lhs,
                rhs,
                then_pc,
                else_pc,
            } => {
                let v = op.apply(self.reg_idx(tid, lhs), self.reg_idx(tid, rhs));
                self.write_reg_idx(tid, dst, v);
                if self.step >= self.config.step_limit {
                    return StepEffect::Limit;
                }
                self.step += 1;
                self.pending_wait = None;
                let t = &mut self.threads[tid.index()];
                t.stats.insts += 1;
                t.top_mut().pc = if v != 0 { then_pc } else { else_pc };
                StepEffect::Continue
            }
            D::CmpBranchRC {
                op,
                dst,
                lhs,
                imm,
                then_pc,
                else_pc,
            } => {
                let v = op.apply(self.reg_idx(tid, lhs), imm);
                self.write_reg_idx(tid, dst, v);
                if self.step >= self.config.step_limit {
                    return StepEffect::Limit;
                }
                self.step += 1;
                self.pending_wait = None;
                let t = &mut self.threads[tid.index()];
                t.stats.insts += 1;
                t.top_mut().pc = if v != 0 { then_pc } else { else_pc };
                StepEffect::Continue
            }
            D::LoadGlobalBinRR {
                global,
                gdst,
                op,
                dst,
                rhs,
            } => {
                let v = self.memory.read_global(GlobalId(global));
                self.write_reg_idx(tid, gdst, v);
                if self.step >= self.config.step_limit {
                    return StepEffect::Limit;
                }
                self.step += 1;
                self.pending_wait = None;
                self.threads[tid.index()].stats.insts += 1;
                self.threads[tid.index()].top_mut().pc += 1;
                // `rhs` is re-read after the head's write, so `rhs ==
                // gdst` sees the loaded value — unfused order.
                let r = op.apply(v, self.reg_idx(tid, rhs));
                self.write_reg_idx(tid, dst, r);
                StepEffect::Continue
            }
            D::LoadGlobalBinRC {
                global,
                gdst,
                op,
                dst,
                imm,
            } => {
                let v = self.memory.read_global(GlobalId(global));
                self.write_reg_idx(tid, gdst, v);
                if self.step >= self.config.step_limit {
                    return StepEffect::Limit;
                }
                self.step += 1;
                self.pending_wait = None;
                self.threads[tid.index()].stats.insts += 1;
                self.threads[tid.index()].top_mut().pc += 1;
                let r = op.apply(v, imm);
                self.write_reg_idx(tid, dst, r);
                StepEffect::Continue
            }
        }
    }

    /// Shared store-through-pointer tail of the four `StorePtr` shapes.
    #[inline(always)]
    fn store_ptr(&mut self, tid: ThreadId, addr: i64, v: i64) -> StepEffect {
        match self.memory.read(addr) {
            Ok(old) => {
                self.log_mem_undo(tid, addr, old);
                self.memory.write(addr, v).expect("validated by read");
                StepEffect::Continue
            }
            Err(f) => StepEffect::Fail(FailureKind::SegFault, None, f.to_string()),
        }
    }

    /// Shared `Return` tail: pops the frame, writes the return value
    /// through the logged path, marks the thread done on bottom-frame
    /// return.
    #[inline]
    fn ret(&mut self, tid: ThreadId, v: Option<i64>) -> StepEffect {
        let t = &mut self.threads[tid.index()];
        // pop_frame retires the checkpoint if this was its frame.
        let finished = t.pop_frame();
        if !t.frames().is_empty() {
            if let (Some(dst), Some(v)) = (finished.ret_dst, v) {
                // The pop may have re-exposed the checkpoint frame, so the
                // return-value write must go through the logged path.
                t.write_reg(dst, v);
            }
        } else {
            t.status = ThreadStatus::Done;
            let step = self.step;
            self.eligible_stale = true;
            self.emit(|| TraceEvent::ThreadFinished { step, thread: tid });
        }
        StepEffect::Continue
    }

    /// The failing thread's recorded trace, oldest first.
    fn thread_trace(&self, tid: ThreadId) -> Vec<(u64, conair_ir::Loc)> {
        self.threads[tid.index()].trace.iter().copied().collect()
    }

    /// Accounts for a successful lock acquisition: records the wait time
    /// (if the thread had been blocked on this lock) and emits the event.
    fn note_lock_acquired(&mut self, tid: ThreadId, lock: LockId, timed: bool) {
        let waited = match self.pending_wait {
            Some((l, since)) if l == lock => self.step.saturating_sub(since),
            _ => 0,
        };
        if waited > 0 {
            Arc::make_mut(&mut self.cold).lock_waits.record(waited);
        }
        let step = self.step;
        self.emit(|| TraceEvent::LockAcquired {
            step,
            thread: tid,
            lock,
            timed,
            waited,
        });
    }

    /// Marks a hardened site as passed; completes its recovery timing if it
    /// had failed earlier.
    fn note_site_success(&mut self, tid: ThreadId, site: SiteId) {
        let step = self.step;
        let completed = match Arc::make_mut(&mut self.site_recovery).get_mut(&site) {
            Some(rec) if rec.recovered_step.is_none() && rec.first_failure_step.is_some() => {
                rec.recovered_step = Some(step);
                Some((rec.retries, step - rec.first_failure_step.expect("checked")))
            }
            _ => None,
        };
        if let Some((retries, latency)) = completed {
            Arc::make_mut(&mut self.cold)
                .rollback_latency
                .record(latency);
            self.emit(|| TraceEvent::RecoveryCompleted {
                step,
                thread: tid,
                site,
                retries,
                latency,
            });
        }
    }

    /// Puts a just-rolled-back thread to sleep for a random number of
    /// steps drawn from the backoff RNG. The deadlock path always does
    /// this (livelock breaking); guard failures only under
    /// [`MachineConfig::retry_backoff`].
    fn backoff_sleep(&mut self, tid: ThreadId) {
        let pause = self.backoff_rng.gen_range(0..=self.config.backoff_max);
        if pause > 0 {
            let step = self.step;
            let until = step + pause;
            self.threads[tid.index()].status = ThreadStatus::SleepingUntil(until);
            self.eligible_stale = true;
            self.emit(|| TraceEvent::BackoffSleep {
                step,
                thread: tid,
                until,
            });
        }
    }

    /// The rollback-recovery path shared by guards and lock timeouts.
    fn attempt_recovery(
        &mut self,
        tid: ThreadId,
        site: SiteId,
        kind: FailureKind,
    ) -> RecoveryOutcome {
        let step = self.step;
        self.emit(|| TraceEvent::FailureDetected {
            step,
            thread: tid,
            site,
            kind,
        });
        let rec = Arc::make_mut(&mut self.site_recovery)
            .entry(site)
            .or_default();
        if rec.first_failure_step.is_none() {
            rec.first_failure_step = Some(self.step);
        }
        rec.retries += 1;

        let prior = *self.threads[tid.index()].retries.entry(site).or_insert(0);
        if prior >= self.config.max_retries {
            self.emit(|| TraceEvent::RecoveryExhausted {
                step,
                thread: tid,
                site,
                kind,
            });
            return RecoveryOutcome::Exhausted;
        }
        let retry = prior + 1;
        self.threads[tid.index()].retries.insert(site, retry);

        if self.threads[tid.index()].checkpoint.is_none() {
            self.emit(|| TraceEvent::RecoveryExhausted {
                step,
                thread: tid,
                site,
                kind,
            });
            return RecoveryOutcome::Exhausted;
        }

        // Compensation (Section 4.1): release resources acquired in the
        // current epoch, in reverse acquisition order. The buffer is the
        // thread's own (retained in place) and is handed back afterwards
        // so rollback stays allocation-free.
        let mut records = self.threads[tid.index()].take_current_epoch_compensation();
        for record in records.drain(..).rev() {
            match record {
                CompensationRecord::Allocation { base, .. } => {
                    // The block may already be freed only if the region
                    // contained a free — which regions never do.
                    let _ = self.memory.free(base);
                    Arc::make_mut(&mut self.cold).compensation_frees += 1;
                    self.emit(|| TraceEvent::CompensationFree {
                        step,
                        thread: tid,
                        base,
                    });
                }
                CompensationRecord::Lock { lock, .. } => {
                    self.locks.force_release(lock);
                    Arc::make_mut(&mut self.cold).compensation_unlocks += 1;
                    self.emit(|| TraceEvent::CompensationUnlock {
                        step,
                        thread: tid,
                        lock,
                    });
                }
            }
        }
        self.threads[tid.index()].recycle_compensation_buffer(records);

        // Undo log (buffered-writes ablation): restore memory of the
        // current epoch in reverse write order.
        let mut undo_restored = 0u64;
        if self.config.buffered_writes {
            let epoch = self.threads[tid.index()].epoch;
            let undo: Vec<UndoRecord> = {
                let t = &mut self.threads[tid.index()];
                let all = std::mem::take(&mut t.undo);
                all.into_iter().filter(|u| u.epoch() == epoch).collect()
            };
            undo_restored = undo.len() as u64;
            for u in undo.into_iter().rev() {
                match u {
                    UndoRecord::Mem { addr, old, .. } => {
                        let _ = self.memory.write(addr, old);
                    }
                    UndoRecord::Local { slot, old, .. } => {
                        self.threads[tid.index()].top_mut().locals[slot] = old;
                    }
                }
            }
        }

        // Rollback cost in registers: how many undo records this epoch
        // accumulated (what restore is about to walk).
        let regs_undone = self.threads[tid.index()].undo_depth() as u64;
        Arc::make_mut(&mut self.cold).undo_depth.record(regs_undone);
        if let Some(log) = self.undo_log.as_mut() {
            log.push(regs_undone);
        }
        let restored = self.threads[tid.index()].restore_checkpoint();
        debug_assert!(restored, "checkpoint checked above");
        self.rolled_back.get_mut()[tid.index()] = true;
        self.emit(|| TraceEvent::RolledBack {
            step,
            thread: tid,
            site,
            retry,
            undo_restored,
            regs_undone,
        });
        RecoveryOutcome::RolledBack
    }
}

enum RecoveryOutcome {
    RolledBack,
    Exhausted,
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_ir::{FuncBuilder, ModuleBuilder};

    /// Two threads over one global and one lock.
    fn program() -> Program {
        let mut mb = ModuleBuilder::new("cont");
        let g = mb.global("g", 0);
        let l = mb.lock("l");
        for name in ["a", "b"] {
            let mut fb = FuncBuilder::new(name, 0);
            fb.lock(l);
            let v = fb.load_global(g);
            let v = fb.add(v, 1);
            fb.store_global(g, v);
            fb.unlock(l);
            fb.ret();
            mb.function(fb.finish());
        }
        Program::from_entry_names(mb.finish(), &["a", "b"])
    }

    #[test]
    fn continuation_eq_ignores_outputs_only() {
        let p = program();
        let cfg = MachineConfig::default();
        let img = Machine::new(&p, cfg).lone_image();
        let same = Machine::new(&p, cfg);
        assert!(same.continuation_eq(&img));
        assert_eq!(same.lone_key(), Machine::new(&p, cfg).lone_key());
        // Outputs are append-only history: a machine that printed more
        // continues the same way.
        let mut printed = Machine::new(&p, cfg);
        printed.outputs.push(OutputRecord {
            thread: ThreadId(1),
            label: "x".into(),
            value: 7,
        });
        assert!(printed.continuation_eq(&img));
        assert!(!printed.snapshot().state_eq(&img), "state_eq sees outputs");
    }

    #[test]
    fn continuation_eq_rejects_any_other_difference() {
        let p = program();
        let cfg = MachineConfig::default();
        let img = Machine::new(&p, cfg).lone_image();
        type Perturb = fn(&mut Machine<'_>);
        let perturbations: [(&str, Perturb); 6] = [
            ("step", |m| m.step += 1),
            ("last thread", |m| m.last_picked = Some(ThreadId(0))),
            ("backoff rng", |m| {
                m.backoff_rng.gen_range(0..=1u64);
            }),
            ("held lock", |m| {
                m.locks.try_acquire(LockId(0), ThreadId(1));
            }),
            ("one register", |m| m.threads[0].write_reg(Reg(0), 1)),
            ("one memory word", |m| {
                let g = m.memory.global_addr(GlobalId(0));
                m.memory.write(g, 1).unwrap();
            }),
        ];
        for (what, perturb) in perturbations {
            let mut m = Machine::new(&p, cfg);
            perturb(&mut m);
            assert!(!m.continuation_eq(&img), "{what}: must not match");
            assert!(
                !m.lone_image().continuation_eq(&img),
                "{what}: image compare"
            );
        }
    }
}
