//! Dense program lowering: flat-indexed instruction tables built once
//! before execution, so the step loop fetches a `Copy`
//! [`DecodedInst`] by `u32` program counter with zero per-step cloning.
//!
//! The numbering is [`conair_ir::FlatLayout`] — the same flat index the
//! analyses key their region bitsets by — so a resume position in a
//! checkpoint is a plain `u32` and block entry of `BlockId(0)` is always
//! pc `0`.
//!
//! Lowering also interns marker names module-wide to dense `u32` ids (so
//! marker hit counts are a `Vec` index instead of a string-keyed map probe)
//! and pre-classifies every instruction into its scheduling
//! [`PointKind`](crate::PointKind), so per-step gate checks and decision
//! masking never inspect instruction payloads.

use conair_ir::{DOp, DecodedFunc, DecodedInst, FlatLayout, FuncId, Inst, InstPos, Loc, Module};

use crate::sched::PointKind;

/// Sentinel in the per-pc marker-id table for "not a marker".
const NOT_A_MARKER: u32 = u32::MAX;

/// One function's pre-lowered instruction table.
pub struct FuncLayout<'p> {
    layout: FlatLayout,
    /// Interned marker id per pc (`NOT_A_MARKER` elsewhere).
    marker_ids: Vec<u32>,
    /// Scheduling-point kind per pc. `Return` is classified
    /// [`PointKind::ThreadExit`]; the machine downgrades it to `Local`
    /// when the thread has caller frames below.
    kinds: Vec<PointKind>,
    /// Pre-decoded fixed-size instruction streams (plain + fused), with
    /// marker ids already patched to this module's interning.
    decoded: DecodedFunc<'p>,
    num_regs: usize,
    num_locals: usize,
}

impl<'p> FuncLayout<'p> {
    fn new(func: &'p conair_ir::Function, interner: &mut MarkerInterner<'p>) -> Self {
        let layout = FlatLayout::new(func);
        let insts = || func.blocks.iter().flat_map(|b| b.insts.iter());
        let marker_ids: Vec<u32> = insts()
            .map(|i| match i {
                Inst::Marker { name } => interner.intern(name.as_str()),
                _ => NOT_A_MARKER,
            })
            .collect();
        let kinds = insts().map(PointKind::of_inst).collect();
        let mut decoded = DecodedFunc::decode(func, &layout);
        for (pc, &id) in marker_ids.iter().enumerate() {
            if id != NOT_A_MARKER {
                decoded.patch_marker_id(pc as u32, id);
            }
        }
        Self {
            layout,
            marker_ids,
            kinds,
            decoded,
            num_regs: func.num_regs,
            num_locals: func.num_locals,
        }
    }

    /// The interned marker id at `pc`, when the instruction there is a
    /// marker (out-of-range pcs included).
    #[inline]
    pub fn marker_id(&self, pc: u32) -> Option<u32> {
        match self.marker_ids.get(pc as usize) {
            Some(&id) if id != NOT_A_MARKER => Some(id),
            _ => None,
        }
    }

    /// The scheduling-point kind at `pc` (`Local` past the end).
    #[inline]
    pub fn point_kind(&self, pc: u32) -> PointKind {
        self.kinds
            .get(pc as usize)
            .copied()
            .unwrap_or(PointKind::Local)
    }

    /// The pre-decoded instruction at `pc` (plain stream — one logical
    /// step per entry).
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn decoded(&self, pc: u32) -> DecodedInst {
        self.decoded.code(pc)
    }

    /// The pre-decoded instruction at `pc` from the *fused* stream
    /// (superinstructions on pair heads).
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn decoded_fused(&self, pc: u32) -> DecodedInst {
        self.decoded.fused(pc)
    }

    /// One flattened `Call` argument from the decoded side table.
    #[inline]
    pub fn call_arg(&self, i: u32) -> DOp {
        self.decoded.call_arg(i)
    }

    /// An interned string (label/message) from the decoded side table.
    /// Borrows the program (`'p`), not this table.
    #[inline]
    pub fn str_at(&self, i: u32) -> &'p str {
        self.decoded.str_at(i)
    }

    /// How many instruction pairs the fusion pass collapsed.
    pub fn fused_pairs(&self) -> usize {
        self.decoded.fused_pairs()
    }

    /// The `(block, inst)` position of a pc (trace/diagnostics only).
    #[inline]
    pub fn pos(&self, pc: u32) -> InstPos {
        self.layout.pos(pc)
    }

    /// A source location for diagnostics.
    pub fn loc(&self, func: FuncId, pc: u32) -> Loc {
        let pos = self.pos(pc);
        Loc::new(func, pos.block, pos.inst)
    }

    /// The shared flat numbering.
    pub fn layout(&self) -> &FlatLayout {
        &self.layout
    }

    /// Register-file width of the function's frames (pre-lowered so the
    /// call path never consults the module).
    #[inline]
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Stack-slot count of the function's frames.
    #[inline]
    pub fn num_locals(&self) -> usize {
        self.num_locals
    }
}

/// Module-wide marker interner: first-seen order over functions in id
/// order, so ids are deterministic for a given module.
#[derive(Default)]
struct MarkerInterner<'p> {
    names: Vec<&'p str>,
}

impl<'p> MarkerInterner<'p> {
    fn intern(&mut self, name: &'p str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u32;
        }
        self.names.push(name);
        (self.names.len() - 1) as u32
    }
}

/// The pre-lowered instruction tables of every function in a module.
pub struct DenseProgram<'p> {
    funcs: Vec<FuncLayout<'p>>,
    /// Interned marker names, indexed by marker id.
    markers: Vec<&'p str>,
}

impl<'p> DenseProgram<'p> {
    /// Lowers `module` (one pass, before execution starts).
    pub fn new(module: &'p Module) -> Self {
        let mut interner = MarkerInterner::default();
        let funcs = module
            .functions
            .iter()
            .map(|f| FuncLayout::new(f, &mut interner))
            .collect();
        Self {
            funcs,
            markers: interner.names,
        }
    }

    /// One function's table.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    #[inline]
    pub fn func(&self, func: FuncId) -> &FuncLayout<'p> {
        &self.funcs[func.index()]
    }

    /// Distinct marker names in the module.
    pub fn num_markers(&self) -> usize {
        self.markers.len()
    }

    /// The interned id of a marker name, when the module contains it.
    /// Linear scan — this is a compile-time (script/gate resolution)
    /// lookup, never on the execution path.
    pub fn marker_id(&self, name: &str) -> Option<u32> {
        self.markers
            .iter()
            .position(|n| *n == name)
            .map(|i| i as u32)
    }

    /// The marker name for an interned id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn marker_name(&self, id: u32) -> &'p str {
        self.markers[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_ir::{FuncBuilder, ModuleBuilder};

    #[test]
    fn lowering_matches_block_walk() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = FuncBuilder::new("main", 0);
        let c = fb.copy(1);
        let (then_bb, else_bb) = (fb.new_block(), fb.new_block());
        fb.branch(c, then_bb, else_bb);
        fb.switch_to(then_bb);
        fb.ret();
        fb.switch_to(else_bb);
        fb.ret();
        mb.function(fb.finish());
        let module = mb.finish();

        let dense = DenseProgram::new(&module);
        let table = dense.func(FuncId(0));
        let func = module.func(FuncId(0));
        let mut flat = 0u32;
        for (bid, block) in func.iter_blocks() {
            assert_eq!(table.layout().block_start(bid), flat);
            for (i, inst) in block.insts.iter().enumerate() {
                assert_eq!(table.pos(flat), InstPos::new(bid, i));
                assert_eq!(table.point_kind(flat), PointKind::of_inst(inst));
                flat += 1;
            }
        }
        assert_eq!(flat as usize, func.num_insts());
    }

    #[test]
    fn markers_are_interned_module_wide() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = FuncBuilder::new("a", 0);
        fb.marker("shared");
        fb.marker("only_a");
        fb.ret();
        mb.function(fb.finish());
        let mut fb = FuncBuilder::new("b", 0);
        fb.marker("only_b");
        fb.marker("shared");
        fb.ret();
        mb.function(fb.finish());
        let module = mb.finish();

        let dense = DenseProgram::new(&module);
        assert_eq!(dense.num_markers(), 3);
        let shared = dense.marker_id("shared").unwrap();
        assert_eq!(dense.marker_name(shared), "shared");
        assert_eq!(dense.marker_id("missing"), None);
        // The same name gets the same id in both functions.
        assert_eq!(dense.func(FuncId(0)).marker_id(0), Some(shared));
        assert_eq!(dense.func(FuncId(1)).marker_id(1), Some(shared));
        // Non-marker pcs and out-of-range pcs report no marker.
        assert_eq!(dense.func(FuncId(0)).marker_id(2), None);
        assert_eq!(dense.func(FuncId(0)).marker_id(999), None);
    }

    #[test]
    fn decoded_markers_carry_module_interned_ids() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = FuncBuilder::new("a", 0);
        fb.marker("shared");
        fb.ret();
        mb.function(fb.finish());
        let mut fb = FuncBuilder::new("b", 0);
        fb.marker("other");
        fb.marker("shared");
        fb.ret();
        mb.function(fb.finish());
        let module = mb.finish();
        let dense = DenseProgram::new(&module);
        let shared = dense.marker_id("shared").unwrap();
        let other = dense.marker_id("other").unwrap();
        assert_eq!(
            dense.func(FuncId(0)).decoded(0),
            DecodedInst::Marker { id: shared }
        );
        assert_eq!(
            dense.func(FuncId(1)).decoded(0),
            DecodedInst::Marker { id: other }
        );
        assert_eq!(
            dense.func(FuncId(1)).decoded_fused(1),
            DecodedInst::Marker { id: shared }
        );
    }

    #[test]
    fn point_kinds_are_prelowered() {
        use crate::sched::PointKind;
        let mut mb = ModuleBuilder::new("t");
        let lk = mb.lock("l");
        let mut fb = FuncBuilder::new("f", 0);
        fb.lock(lk);
        fb.marker("m");
        fb.unlock(lk);
        fb.ret();
        mb.function(fb.finish());
        let module = mb.finish();
        let dense = DenseProgram::new(&module);
        let table = dense.func(FuncId(0));
        assert_eq!(table.point_kind(0), PointKind::LockAcquire);
        assert_eq!(table.point_kind(1), PointKind::Marker);
        assert_eq!(table.point_kind(2), PointKind::LockRelease);
        assert_eq!(table.point_kind(3), PointKind::ThreadExit);
        assert_eq!(table.point_kind(999), PointKind::Local, "past the end");
    }
}
