//! # conair-ir
//!
//! The SSA-style compiler intermediate representation used by the ConAir
//! reproduction — the analog of the LLVM bitcode the original system
//! analyzed and transformed.
//!
//! The IR models exactly the program properties ConAir's algorithms are
//! stated over:
//!
//! * **Virtual registers** ([`Reg`]) vs **stack slots** ([`LocalId`]):
//!   a `Checkpoint` (the `setjmp` analog) saves the whole per-frame register
//!   file, so register writes never destroy idempotency, while stack-slot
//!   writes do (the paper's "writes to local variables that are not
//!   allocated in virtual registers").
//! * **Shared memory**: globals ([`GlobalId`]) and the heap, written by
//!   [`Inst::StoreGlobal`] / [`Inst::StorePtr`] — always
//!   idempotency-destroying, and the memory whose reads drive the
//!   Section 4.2 optimization.
//! * **Synchronization, allocation, I/O and checks** as first-class
//!   instructions so the failure-site identification of Section 3.1 is a
//!   simple classification.
//!
//! ## Example
//!
//! ```rust
//! use conair_ir::{FuncBuilder, ModuleBuilder, CmpKind, validate};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let flag = mb.global("flag", 0);
//! let mut fb = FuncBuilder::new("main", 0);
//! let v = fb.load_global(flag);
//! let ok = fb.cmp(CmpKind::Ge, v, 0);
//! fb.assert(ok, "flag must be non-negative");
//! fb.ret();
//! mb.function(fb.finish());
//! let module = mb.finish();
//! assert!(validate(&module).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod block;
mod builder;
pub mod cfg;
pub mod flat;
mod inst;
mod module;
mod parse;
mod types;
mod validate;
mod value;

pub use block::{BasicBlock, FuncRef, Function};
pub use builder::{FuncBuilder, ModuleBuilder};
pub use cfg::{dominates, immediate_dominators, Cfg, InstPos};
pub use flat::{DOp, DecodedFunc, DecodedInst, FlatLayout, InstSet, MARKER_UNPATCHED};
pub use inst::{GuardKind, Inst};
pub use module::{GlobalDecl, LockDecl, Module};
pub use parse::{parse_module, ParseError};
pub use types::{
    BlockId, FailureKind, FuncId, GlobalId, Loc, LocalId, LockId, PointId, Reg, SiteId,
};
pub use validate::{
    validate, validate_hardened, validate_with, ValidateError, ValidateOptions, MAX_FRAME_WORDS,
    MAX_GLOBAL_WORDS,
};
pub use value::{BinOpKind, CmpKind, Operand};
