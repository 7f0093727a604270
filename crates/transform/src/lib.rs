//! # conair-transform
//!
//! The code-transformation component of the ConAir reproduction: consumes a
//! [`conair_analysis::HardeningPlan`] and rewrites a `conair-ir` module so
//! the runtime can perform single-threaded idempotent rollback recovery
//! (paper Sections 3.3 and 4.1).
//!
//! ## Example
//!
//! ```rust
//! use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder, validate_hardened};
//! use conair_analysis::{analyze, AnalysisConfig};
//! use conair_transform::harden;
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let flag = mb.global("flag", 1);
//! let mut fb = FuncBuilder::new("main", 0);
//! let v = fb.load_global(flag);
//! let ok = fb.cmp(CmpKind::Ne, v, 0);
//! fb.assert(ok, "flag must be set");
//! fb.ret();
//! mb.function(fb.finish());
//! let module = mb.finish();
//!
//! let plan = analyze(&module, &AnalysisConfig::default());
//! let hardened = harden(module, &plan);
//! assert!(validate_hardened(&hardened.module).is_ok());
//! assert_eq!(hardened.num_points, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod harden;

pub use harden::{harden, HardenedModule, TransformStats};
