//! # conair-runtime
//!
//! A deterministic multithreaded interpreter for `conair-ir` programs with
//! built-in support for ConAir's single-threaded idempotent rollback
//! recovery (the `setjmp`/`longjmp` analog of the paper, Section 3.3).
//!
//! The runtime substitutes for the paper's pthreads + Linux testbed:
//!
//! * threads interleave at instruction granularity under a seeded
//!   [`Scheduler`], so every experiment is reproducible;
//! * bug-forcing uses [`ScheduleScript`] gates — the analog of the sleeps
//!   the paper injects to force failure-inducing interleavings;
//! * `Checkpoint` is O(1) — it notes the stack depth and resume position
//!   in a thread-local slot and bumps the epoch; registers are protected
//!   by an epoch-tagged undo-log maintained on the register-write path.
//!   Rollback restores registers and the program counter but **never**
//!   memory — exactly the property that makes idempotent regions (and only
//!   idempotent regions) safe to reexecute;
//! * compensation (Section 4.1) releases locks and frees heap blocks
//!   acquired in the current reexecution epoch before each rollback;
//! * timed locks implement the time-out based deadlock detection of
//!   Figure 5d, with random backoff against recovery livelock.
//!
//! ## Example
//!
//! ```rust
//! use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder};
//! use conair_runtime::{run_once, MachineConfig, Program};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let g = mb.global("x", 41);
//! let mut fb = FuncBuilder::new("main", 0);
//! let v = fb.load_global(g);
//! let w = fb.add(v, 1);
//! fb.output("answer", w);
//! fb.ret();
//! mb.function(fb.finish());
//! let program = Program::from_entry_names(mb.finish(), &["main"]);
//!
//! let result = run_once(&program, &MachineConfig::default(), 1);
//! assert!(result.outcome.is_completed());
//! assert_eq!(result.outputs_for("answer"), vec![42]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cow;
mod deadlock;
mod dense;
mod harness;
mod locks;
mod machine;
mod memory;
mod metrics;
mod outcome;
mod program;
mod sched;
mod thread;
mod trace;

pub use deadlock::{find_wait_cycle, WaitCycle, WaitEdge};
pub use dense::{DenseProgram, FuncLayout};
pub use harness::{
    measure_overhead, measure_restart, run_once, run_scripted, run_trials, OverheadReport,
    RestartReport, TrialPool, TrialSummary,
};
pub use locks::{AcquireResult, LockTable, ThreadId, UnlockError};
pub use machine::{BranchCapture, CapturePlacement, Machine, MachineConfig, MachineSnapshot};
pub use memory::{MemFault, Memory, DEFAULT_LOWER_BOUND, GLOBAL_BASE, HEAP_BASE, MAX_HEAP_WORDS};
pub use metrics::Histogram;
pub use outcome::{FailureRecord, OutputRecord, RunOutcome, RunResult, RunStats, SiteRecovery};
pub use program::{Program, ThreadSpec};
pub use sched::{
    explore, explore_observed, minimize, run_replay, Consult, Consults, DecisionTrace, Divergence,
    DporCounters, ExploreConfig, ExploreObserver, ExplorePhases, ExploreReport, ExploreStrategy,
    Footprint, FoundSchedule, FrontierScheduler, Gate, MinimizeReport, PctConfig, PctScheduler,
    PointKind, PointMask, ReplayScheduler, RoundRobin, SchedContext, ScheduleScript, Scheduler,
    SeededRandom,
};
pub use thread::{
    Checkpoint, CompensationRecord, Frame, ThreadState, ThreadStats, ThreadStatus, UndoRecord,
    MAX_CALL_DEPTH, MAX_STACK_WORDS,
};
pub use trace::{
    from_jsonl, summarize_events, to_chrome_trace, to_jsonl, EventBuffer, TraceEvent, TraceSink,
};
