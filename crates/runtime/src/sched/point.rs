//! Scheduling-point kinds and masks.
//!
//! A *scheduling point* is the moment just before a thread's next
//! instruction executes. The machine classifies that instruction into a
//! [`PointKind`]; a strategy's [`PointMask`](crate::Scheduler) says at
//! which kinds it wants to be consulted. Interleavings of data-race-free
//! synchronization-only programs are fully determined by their order of
//! sync operations, so masks restricted to sync-relevant kinds shrink the
//! decision space from "every instruction" to "every lock/marker/exit"
//! without losing the schedules that matter — the same insight CHESS and
//! PCT build on.

use conair_ir::Inst;

/// What kind of instruction a thread is about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PointKind {
    /// Thread-local work (arithmetic, locals, control flow).
    Local,
    /// A lock acquisition (`lock` or hardened `timedlock`).
    LockAcquire,
    /// A lock release.
    LockRelease,
    /// A shared-memory access (global/pointer load or store, alloc/free,
    /// observable output).
    SharedAccess,
    /// A named marker — the instrumentation points schedule-script gates
    /// reference.
    Marker,
    /// The thread's very first instruction.
    ThreadSpawn,
    /// The thread's final return.
    ThreadExit,
}

impl PointKind {
    /// The mask bit for this kind.
    #[inline]
    pub const fn bit(self) -> u8 {
        1u8 << (self as u8)
    }

    /// Classifies an instruction (spawn/exit refinement is the machine's:
    /// it knows instruction counts and stack depths).
    pub fn of_inst(inst: &Inst) -> PointKind {
        match inst {
            Inst::Lock { .. } | Inst::TimedLock { .. } => PointKind::LockAcquire,
            Inst::Unlock { .. } => PointKind::LockRelease,
            Inst::LoadGlobal { .. }
            | Inst::StoreGlobal { .. }
            | Inst::LoadPtr { .. }
            | Inst::StorePtr { .. }
            | Inst::Alloc { .. }
            | Inst::Free { .. }
            | Inst::Output { .. }
            | Inst::OutputAssert { .. } => PointKind::SharedAccess,
            Inst::Marker { .. } => PointKind::Marker,
            // `Return` may be a call return or a thread exit; the table
            // marks it Exit and the machine downgrades to Local when the
            // thread still has frames below.
            Inst::Return { .. } => PointKind::ThreadExit,
            _ => PointKind::Local,
        }
    }
}

/// A set of [`PointKind`]s a scheduler wants to decide at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PointMask(u8);

impl PointMask {
    /// Every kind, including [`PointKind::Local`] — every instruction is
    /// a consult (those of a lone thread's local span are settled in one
    /// [`Scheduler::forced`](crate::Scheduler::forced) call).
    pub const ALL: PointMask = PointMask(0x7F);

    /// Synchronization-relevant points only: lock acquire/release, markers,
    /// thread spawn/exit. The default exploration mask — compact decision
    /// logs, and every gate-expressible interleaving remains reachable
    /// (gates hold threads at markers, which are masked).
    pub const SYNC: PointMask = PointMask(
        PointKind::LockAcquire.bit()
            | PointKind::LockRelease.bit()
            | PointKind::Marker.bit()
            | PointKind::ThreadSpawn.bit()
            | PointKind::ThreadExit.bit(),
    );

    /// [`PointMask::SYNC`] plus shared-memory accesses — finer-grained
    /// exploration for races not bracketed by locks or markers, at the
    /// price of much longer decision logs.
    pub const SYNC_SHARED: PointMask = PointMask(Self::SYNC.0 | PointKind::SharedAccess.bit());

    /// The raw bits (for serialization into decision traces).
    #[inline]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs a mask from trace bits.
    #[inline]
    pub const fn from_bits(bits: u8) -> PointMask {
        PointMask(bits & 0x7F)
    }

    /// Whether `kind` is in the mask.
    #[inline]
    pub const fn contains(self, kind: PointKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// Whether this is the consult-every-step mask.
    #[inline]
    pub const fn is_all(self) -> bool {
        self.0 == Self::ALL.0
    }

    /// Parses a CLI-facing mask name: `sync`, `shared`, or `all`.
    pub fn parse(name: &str) -> Option<PointMask> {
        match name {
            "sync" => Some(Self::SYNC),
            "shared" => Some(Self::SYNC_SHARED),
            "all" => Some(Self::ALL),
            _ => None,
        }
    }

    /// The CLI-facing name of the mask, when it is one of the named masks.
    pub fn name(self) -> &'static str {
        if self == Self::SYNC {
            "sync"
        } else if self == Self::SYNC_SHARED {
            "shared"
        } else if self == Self::ALL {
            "all"
        } else {
            "custom"
        }
    }
}

impl Default for PointMask {
    fn default() -> Self {
        Self::ALL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_ir::{FuncBuilder, ModuleBuilder};

    #[test]
    fn masks_contain_their_kinds() {
        assert!(PointMask::ALL.contains(PointKind::Local));
        assert!(PointMask::ALL.is_all());
        assert!(!PointMask::SYNC.contains(PointKind::Local));
        assert!(!PointMask::SYNC.contains(PointKind::SharedAccess));
        assert!(PointMask::SYNC.contains(PointKind::LockAcquire));
        assert!(PointMask::SYNC.contains(PointKind::Marker));
        assert!(PointMask::SYNC.contains(PointKind::ThreadExit));
        assert!(PointMask::SYNC_SHARED.contains(PointKind::SharedAccess));
        assert!(!PointMask::SYNC.is_all());
    }

    #[test]
    fn bits_roundtrip() {
        for mask in [PointMask::ALL, PointMask::SYNC, PointMask::SYNC_SHARED] {
            assert_eq!(PointMask::from_bits(mask.bits()), mask);
            assert_eq!(PointMask::parse(mask.name()), Some(mask));
        }
        assert_eq!(PointMask::parse("bogus"), None);
    }

    #[test]
    fn classification_covers_sync_ops() {
        let mut mb = ModuleBuilder::new("t");
        let lk = mb.lock("l");
        let g = mb.global("g", 0);
        let mut fb = FuncBuilder::new("f", 0);
        fb.lock(lk);
        let v = fb.load_global(g);
        fb.unlock(lk);
        fb.marker("m");
        fb.output("out", v);
        fb.ret();
        mb.function(fb.finish());
        let module = mb.finish();
        let kinds: Vec<PointKind> = module.functions[0].blocks[0]
            .insts
            .iter()
            .map(PointKind::of_inst)
            .collect();
        assert_eq!(
            kinds,
            vec![
                PointKind::LockAcquire,
                PointKind::SharedAccess,
                PointKind::LockRelease,
                PointKind::Marker,
                PointKind::SharedAccess,
                PointKind::ThreadExit,
            ]
        );
    }
}
