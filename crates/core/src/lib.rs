//! # conair
//!
//! A Rust reproduction of **ConAir** (ASPLOS 2013): featherweight
//! concurrency-bug recovery via single-threaded idempotent execution.
//!
//! ConAir helps multithreaded software survive concurrency-bug failures at
//! production time. Its two key observations:
//!
//! 1. **Single-threaded rollback suffices** for most concurrency-bug
//!    failures — the failing thread is usually part of the buggy
//!    interleaving, so re-executing just that thread serializes or reorders
//!    the racing accesses.
//! 2. **Idempotent regions need no checkpointing** — a region with no
//!    shared-memory writes, no stack-slot writes and no I/O can be
//!    reexecuted any number of times; saving the register image at its
//!    start (the `setjmp` analog) is all the state recovery needs.
//!
//! This crate is the public entry point: a [`Conair`] pipeline configures
//! the static analyses (`conair-analysis`), applies the code transformation
//! (`conair-transform`) and yields a program the deterministic runtime
//! (`conair-runtime`) can execute with rollback recovery.
//!
//! ## Quickstart
//!
//! ```rust
//! use conair::Conair;
//! use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder};
//! use conair_runtime::{run_once, MachineConfig, Program};
//!
//! // A tiny program with one assertion failure site.
//! let mut mb = ModuleBuilder::new("demo");
//! let flag = mb.global("flag", 1);
//! let mut fb = FuncBuilder::new("main", 0);
//! let v = fb.load_global(flag);
//! let ok = fb.cmp(CmpKind::Ne, v, 0);
//! fb.assert(ok, "flag must be set");
//! fb.ret();
//! mb.function(fb.finish());
//! let program = Program::from_entry_names(mb.finish(), &["main"]);
//!
//! // Harden it (survival mode) and run it.
//! let hardened = Conair::survival().harden(&program);
//! assert_eq!(hardened.plan.stats.static_points, 1);
//! let result = run_once(&hardened.program, &MachineConfig::default(), 0);
//! assert!(result.outcome.is_completed());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod oracle;
mod pipeline;
pub mod properties;
pub mod prune;
mod timing;

pub use oracle::{infer_oracles, instrument_oracles, InferConfig, Invariant, OracleSet};
pub use pipeline::{Conair, HardenedProgram};
pub use prune::{harden_with_pruning, prune_plan, well_tested_sites, PruneConfig, PruneReport};
pub use timing::{PhaseSpan, PhaseSpans};

// Re-export the pieces users need to drive the pipeline end to end.
pub use conair_analysis::{
    AnalysisConfig, HardeningPlan, PlanStats, RegionPolicy, SitePlan, SiteSelection,
};
pub use conair_transform::TransformStats;
