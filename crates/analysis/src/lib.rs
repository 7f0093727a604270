//! # conair-analysis
//!
//! The static analyses of ConAir (ASPLOS'13), implemented over the
//! `conair-ir` representation:
//!
//! * [`sites`] — failure-site identification, survival and fix mode
//!   (paper Section 3.1);
//! * [`classify`](mod@classify) — idempotency classification of instructions under the
//!   three [`RegionPolicy`] points of the Figure-4 design spectrum
//!   (Sections 2.2, 3.2, 4.1);
//! * [`ctx`](mod@ctx) — memoized per-function contexts (CFG, flat
//!   instruction layout, instruction-class bitsets) shared by every pass;
//! * [`region`] — the backward depth-first search that places reexecution
//!   points and delimits reexecution regions (Section 3.2.2);
//! * [`slicing`] — region-restricted backward slicing (Section 4.2,
//!   Figure 8);
//! * [`optimize`] — removal of statically-unrecoverable sites
//!   (Section 4.2, Figure 7);
//! * [`interproc`] — inter-procedural promotion (Section 4.3);
//! * [`plan`] — the end-to-end driver producing a [`HardeningPlan`] for
//!   `conair-transform`.
//!
//! ## Example
//!
//! ```rust
//! use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder};
//! use conair_analysis::{analyze, AnalysisConfig};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let flag = mb.global("flag", 0);
//! let mut fb = FuncBuilder::new("main", 0);
//! let v = fb.load_global(flag);
//! let ok = fb.cmp(CmpKind::Ne, v, 0);
//! fb.assert(ok, "flag must be set");
//! fb.ret();
//! mb.function(fb.finish());
//! let module = mb.finish();
//!
//! let plan = analyze(&module, &AnalysisConfig::default());
//! assert_eq!(plan.sites.len(), 1);
//! assert_eq!(plan.checkpoints.len(), 1); // one checkpoint at the entrance
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classify;
pub mod ctx;
pub mod interproc;
pub mod optimize;
pub mod plan;
pub mod region;
pub mod sites;
pub mod slicing;

pub use classify::{classify, CompensationKind, DestroyReason, InstClass, RegionPolicy};
pub use ctx::{AnalysisCache, FuncCtx};
pub use interproc::{InterprocConfig, Promotion};
pub use optimize::RecoverabilityVerdict;
pub use plan::{analyze, AnalysisConfig, HardeningPlan, PlanStats, SitePlan};
pub use region::{find_reexec_points, ReexecPoint, SiteRegion};
pub use sites::{identify_sites, FailureSite, SiteSelection, SiteTable};
pub use slicing::{criterion_regs, slice_in_region, RegionSlice};
