//! The instruction set.
//!
//! The instruction set mirrors the subset of LLVM bitcode that ConAir's
//! analyses are stated over: virtual-register arithmetic, loads/stores
//! distinguished by address space (global/heap vs stack slot), calls,
//! pthread-style locks, heap allocation, output, assertions and control
//! flow. Two instructions (`Checkpoint` and the `*Guard` family plus
//! `TimedLock`) only appear in *hardened* modules — they are emitted by
//! `conair-transform`, never written by front-ends.

use std::fmt;

use crate::types::{BlockId, FuncId, GlobalId, LocalId, LockId, PointId, Reg, SiteId};
use crate::value::{BinOpKind, CmpKind, Operand};

/// One IR instruction.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Inst {
    // ---- register computation -------------------------------------------
    /// `dst = value` — materialize a constant or copy a register.
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = op(lhs, rhs)` — wrapping integer arithmetic.
    BinOp {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: BinOpKind,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = cmp(lhs, rhs)` — comparison yielding 0/1.
    Cmp {
        /// Destination register.
        dst: Reg,
        /// Comparison operator.
        op: CmpKind,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },

    // ---- shared memory (globals + heap) ----------------------------------
    /// `dst = global` — read a shared global word. A *shared read* for the
    /// Section 4.2 optimization.
    LoadGlobal {
        /// Destination register.
        dst: Reg,
        /// Global variable read.
        global: GlobalId,
    },
    /// `global = value` — write a shared global word. Idempotency-destroying.
    StoreGlobal {
        /// Global variable written.
        global: GlobalId,
        /// Value stored.
        src: Operand,
    },
    /// `dst = &global` — take the address of a global word (the address of
    /// word 0 of the global's allocation).
    AddrOfGlobal {
        /// Destination register.
        dst: Reg,
        /// Global whose address is taken.
        global: GlobalId,
    },
    /// `dst = *ptr` — dereference a heap/global pointer. A potential
    /// segmentation-fault site (Section 3.1.1) and a shared read.
    LoadPtr {
        /// Destination register.
        dst: Reg,
        /// Pointer operand.
        ptr: Operand,
    },
    /// `*ptr = value` — store through a heap/global pointer.
    /// Idempotency-destroying and a potential segmentation-fault site.
    StorePtr {
        /// Pointer operand.
        ptr: Operand,
        /// Value stored.
        src: Operand,
    },

    // ---- stack slots ------------------------------------------------------
    /// `dst = local` — read a stack slot.
    LoadLocal {
        /// Destination register.
        dst: Reg,
        /// Stack slot read.
        local: LocalId,
    },
    /// `local = value` — write a stack slot. Stack slots are not part of the
    /// checkpointed register image, so this is idempotency-destroying
    /// (paper Figure 3b).
    StoreLocal {
        /// Stack slot written.
        local: LocalId,
        /// Value stored.
        src: Operand,
    },

    // ---- heap management --------------------------------------------------
    /// `dst = malloc(words)` — allocate a heap block. Allowed inside
    /// reexecution regions under the Section 4.1 extension (compensated by a
    /// `free` at the failure site).
    Alloc {
        /// Destination register receiving the block address.
        dst: Reg,
        /// Number of 64-bit words to allocate.
        words: Operand,
    },
    /// `free(ptr)` — release a heap block. Idempotency-destroying (cannot be
    /// compensated: the region may free a block allocated before it began).
    Free {
        /// Pointer to the block being freed.
        ptr: Operand,
    },

    // ---- synchronization ---------------------------------------------------
    /// `pthread_mutex_lock(lock)` — blocking acquisition. In hardened modules
    /// the transform rewrites recoverable ones to [`Inst::TimedLock`].
    Lock {
        /// The mutex acquired.
        lock: LockId,
    },
    /// `pthread_mutex_unlock(lock)`. Idempotency-destroying (may release a
    /// lock acquired before the region began).
    Unlock {
        /// The mutex released.
        lock: LockId,
    },
    /// `pthread_mutex_timedlock(lock)` — transform-generated deadlock failure
    /// site. On timeout the runtime attempts rollback recovery for `site`;
    /// when retries are exhausted it reports a deadlock failure.
    TimedLock {
        /// The mutex acquired.
        lock: LockId,
        /// The deadlock failure site this acquisition detects.
        site: SiteId,
    },

    // ---- I/O ---------------------------------------------------------------
    /// Emit one value on the program's output log, tagged with a label
    /// (the `printf` analog). Idempotency-destroying and a potential
    /// wrong-output site.
    Output {
        /// Output tag (format-string analog).
        label: String,
        /// Value emitted.
        value: Operand,
    },

    // ---- checks -------------------------------------------------------------
    /// `assert(cond)` — a potential assertion-violation failure site.
    Assert {
        /// Condition expected non-zero.
        cond: Operand,
        /// Message reported on violation.
        msg: String,
    },
    /// A developer-specified output-correctness oracle (paper Figure 5b):
    /// semantically an assertion, but classified as a wrong-output site.
    OutputAssert {
        /// Condition expected non-zero.
        cond: Operand,
        /// Message reported on violation.
        msg: String,
    },

    // ---- control flow --------------------------------------------------------
    /// Unconditional branch.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch: non-zero condition takes `then_bb`.
    Branch {
        /// Condition operand.
        cond: Operand,
        /// Target when the condition is non-zero.
        then_bb: BlockId,
        /// Target when the condition is zero.
        else_bb: BlockId,
    },
    /// Return from the current function.
    Return {
        /// Optional return value.
        value: Option<Operand>,
    },
    /// Direct call. Idempotency-destroying in the basic design
    /// (Section 3.2.1); the inter-procedural extension (Section 4.3) may
    /// place reexecution points in callers instead.
    Call {
        /// Register receiving the return value, if any.
        dst: Option<Reg>,
        /// Callee.
        callee: FuncId,
        /// Argument operands, bound to the callee's first registers.
        args: Vec<Operand>,
    },

    // ---- miscellany -------------------------------------------------------------
    /// A named no-op used by schedule scripts, fix-mode site selection and
    /// tests to name program locations.
    Marker {
        /// Marker name, unique within a module by convention.
        name: String,
    },
    /// No operation.
    Nop,

    // ---- transform-generated (hardened modules only) ----------------------------
    /// Reexecution point: save the frame's register image + continuation into
    /// the thread-local checkpoint slot and bump the compensation epoch
    /// (the `setjmp` analog, paper Figure 6 line 5).
    Checkpoint {
        /// The reexecution point identity (for dynamic counting).
        point: PointId,
    },
    /// Hardened failure check (the transformed `if (e) {} else { retry-loop;
    /// fail }` of paper Figure 6, with the retry loop folded into runtime
    /// semantics): if `cond` is zero, attempt rollback recovery for `site`;
    /// once retries are exhausted, report the failure.
    FailGuard {
        /// The failure kind checked (assertion or wrong output).
        kind: GuardKind,
        /// Condition expected non-zero.
        cond: Operand,
        /// The failure site identity.
        site: SiteId,
        /// Message reported on unrecovered failure.
        msg: String,
    },
    /// Hardened pointer sanity check inserted before a dereference
    /// (paper Figure 5c): if `ptr` is below the lower bound or not mapped,
    /// attempt rollback recovery for `site`.
    PtrGuard {
        /// Pointer operand validated.
        ptr: Operand,
        /// The failure site identity.
        site: SiteId,
    },
}

/// The two failure kinds a [`Inst::FailGuard`] can check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum GuardKind {
    /// An `assert` site.
    Assert,
    /// An output-oracle site.
    WrongOutput,
}

impl Inst {
    /// Whether this instruction terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Jump { .. } | Inst::Branch { .. } | Inst::Return { .. }
        )
    }

    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Copy { dst, .. }
            | Inst::BinOp { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::LoadGlobal { dst, .. }
            | Inst::AddrOfGlobal { dst, .. }
            | Inst::LoadPtr { dst, .. }
            | Inst::LoadLocal { dst, .. }
            | Inst::Alloc { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// All operands this instruction reads, in order.
    pub fn uses(&self) -> Vec<Operand> {
        match self {
            Inst::Copy { src, .. } => vec![*src],
            Inst::BinOp { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::LoadGlobal { .. }
            | Inst::AddrOfGlobal { .. }
            | Inst::LoadLocal { .. }
            | Inst::Lock { .. }
            | Inst::Unlock { .. }
            | Inst::TimedLock { .. }
            | Inst::Jump { .. }
            | Inst::Marker { .. }
            | Inst::Nop
            | Inst::Checkpoint { .. } => Vec::new(),
            Inst::StoreGlobal { src, .. } | Inst::StoreLocal { src, .. } => vec![*src],
            Inst::LoadPtr { ptr, .. } | Inst::Free { ptr } | Inst::PtrGuard { ptr, .. } => {
                vec![*ptr]
            }
            Inst::StorePtr { ptr, src } => vec![*ptr, *src],
            Inst::Alloc { words, .. } => vec![*words],
            Inst::Output { value, .. } => vec![*value],
            Inst::Assert { cond, .. }
            | Inst::OutputAssert { cond, .. }
            | Inst::Branch { cond, .. }
            | Inst::FailGuard { cond, .. } => vec![*cond],
            Inst::Return { value } => value.iter().copied().collect(),
            Inst::Call { args, .. } => args.clone(),
        }
    }

    /// The registers this instruction reads.
    pub fn used_regs(&self) -> Vec<Reg> {
        self.uses()
            .into_iter()
            .filter_map(Operand::as_reg)
            .collect()
    }

    /// Whether this instruction only appears in hardened (transformed)
    /// modules.
    pub fn is_transform_generated(&self) -> bool {
        matches!(
            self,
            Inst::Checkpoint { .. }
                | Inst::FailGuard { .. }
                | Inst::PtrGuard { .. }
                | Inst::TimedLock { .. }
        )
    }

    /// Short mnemonic used in printing and diagnostics.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Inst::Copy { .. } => "copy",
            Inst::BinOp { .. } => "binop",
            Inst::Cmp { .. } => "cmp",
            Inst::LoadGlobal { .. } => "ldg",
            Inst::StoreGlobal { .. } => "stg",
            Inst::AddrOfGlobal { .. } => "addrg",
            Inst::LoadPtr { .. } => "ldp",
            Inst::StorePtr { .. } => "stp",
            Inst::LoadLocal { .. } => "ldl",
            Inst::StoreLocal { .. } => "stl",
            Inst::Alloc { .. } => "alloc",
            Inst::Free { .. } => "free",
            Inst::Lock { .. } => "lock",
            Inst::Unlock { .. } => "unlock",
            Inst::TimedLock { .. } => "timedlock",
            Inst::Output { .. } => "output",
            Inst::Assert { .. } => "assert",
            Inst::OutputAssert { .. } => "oassert",
            Inst::Jump { .. } => "jump",
            Inst::Branch { .. } => "br",
            Inst::Return { .. } => "ret",
            Inst::Call { .. } => "call",
            Inst::Marker { .. } => "marker",
            Inst::Nop => "nop",
            Inst::Checkpoint { .. } => "checkpoint",
            Inst::FailGuard { .. } => "failguard",
            Inst::PtrGuard { .. } => "ptrguard",
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Copy { dst, src } => write!(f, "{dst} = copy {src}"),
            Inst::BinOp { dst, op, lhs, rhs } => write!(f, "{dst} = {op} {lhs}, {rhs}"),
            Inst::Cmp { dst, op, lhs, rhs } => write!(f, "{dst} = cmp.{op} {lhs}, {rhs}"),
            Inst::LoadGlobal { dst, global } => write!(f, "{dst} = ldg {global}"),
            Inst::StoreGlobal { global, src } => write!(f, "stg {global}, {src}"),
            Inst::AddrOfGlobal { dst, global } => write!(f, "{dst} = addrg {global}"),
            Inst::LoadPtr { dst, ptr } => write!(f, "{dst} = ldp {ptr}"),
            Inst::StorePtr { ptr, src } => write!(f, "stp {ptr}, {src}"),
            Inst::LoadLocal { dst, local } => write!(f, "{dst} = ldl {local}"),
            Inst::StoreLocal { local, src } => write!(f, "stl {local}, {src}"),
            Inst::Alloc { dst, words } => write!(f, "{dst} = alloc {words}"),
            Inst::Free { ptr } => write!(f, "free {ptr}"),
            Inst::Lock { lock } => write!(f, "lock {lock}"),
            Inst::Unlock { lock } => write!(f, "unlock {lock}"),
            Inst::TimedLock { lock, site } => write!(f, "timedlock {lock} !{site}"),
            Inst::Output { label, value } => write!(f, "output \"{label}\", {value}"),
            Inst::Assert { cond, msg } => write!(f, "assert {cond}, \"{msg}\""),
            Inst::OutputAssert { cond, msg } => write!(f, "oassert {cond}, \"{msg}\""),
            Inst::Jump { target } => write!(f, "jump {target}"),
            Inst::Branch {
                cond,
                then_bb,
                else_bb,
            } => write!(f, "br {cond}, {then_bb}, {else_bb}"),
            Inst::Return { value: Some(v) } => write!(f, "ret {v}"),
            Inst::Return { value: None } => write!(f, "ret"),
            Inst::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call {callee}(")?;
                } else {
                    write!(f, "call {callee}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Marker { name } => write!(f, "marker \"{name}\""),
            Inst::Nop => write!(f, "nop"),
            Inst::Checkpoint { point } => write!(f, "checkpoint !{point}"),
            Inst::FailGuard {
                kind,
                cond,
                site,
                msg,
            } => {
                let k = match kind {
                    GuardKind::Assert => "assert",
                    GuardKind::WrongOutput => "output",
                };
                write!(f, "failguard.{k} {cond} !{site}, \"{msg}\"")
            }
            Inst::PtrGuard { ptr, site } => write!(f, "ptrguard {ptr} !{site}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminators_are_classified() {
        assert!(Inst::Jump { target: BlockId(0) }.is_terminator());
        assert!(Inst::Return { value: None }.is_terminator());
        assert!(Inst::Branch {
            cond: Operand::Const(1),
            then_bb: BlockId(0),
            else_bb: BlockId(1)
        }
        .is_terminator());
        assert!(!Inst::Nop.is_terminator());
        assert!(!Inst::Call {
            dst: None,
            callee: FuncId(0),
            args: vec![]
        }
        .is_terminator());
    }

    #[test]
    fn defs_and_uses_are_complete() {
        let i = Inst::BinOp {
            dst: Reg(2),
            op: BinOpKind::Add,
            lhs: Operand::Reg(Reg(0)),
            rhs: Operand::Const(1),
        };
        assert_eq!(i.def(), Some(Reg(2)));
        assert_eq!(i.used_regs(), vec![Reg(0)]);

        let st = Inst::StorePtr {
            ptr: Operand::Reg(Reg(1)),
            src: Operand::Reg(Reg(3)),
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.used_regs(), vec![Reg(1), Reg(3)]);

        let call = Inst::Call {
            dst: Some(Reg(5)),
            callee: FuncId(1),
            args: vec![Operand::Reg(Reg(4)), Operand::Const(9)],
        };
        assert_eq!(call.def(), Some(Reg(5)));
        assert_eq!(call.used_regs(), vec![Reg(4)]);
    }

    #[test]
    fn transform_generated_flags() {
        assert!(Inst::Checkpoint { point: PointId(0) }.is_transform_generated());
        assert!(Inst::TimedLock {
            lock: LockId(0),
            site: SiteId(0)
        }
        .is_transform_generated());
        assert!(!Inst::Lock { lock: LockId(0) }.is_transform_generated());
    }

    #[test]
    fn display_is_stable() {
        let i = Inst::FailGuard {
            kind: GuardKind::Assert,
            cond: Operand::Reg(Reg(1)),
            site: SiteId(4),
            msg: "e".into(),
        };
        assert_eq!(i.to_string(), "failguard.assert %r1 !site4, \"e\"");
        assert_eq!(
            Inst::Output {
                label: "balance".into(),
                value: Operand::Const(7)
            }
            .to_string(),
            "output \"balance\", 7"
        );
    }
}
