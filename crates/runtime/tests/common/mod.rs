//! Hand-hardened programs shared by more than one integration test.

use conair_ir::{CmpKind, FuncBuilder, GuardKind, Inst, ModuleBuilder, Operand, PointId, SiteId};
use conair_runtime::{Gate, Program, ScheduleScript};

/// A reader that allocates a heap block inside its reexecution region and
/// then asserts a flag the writer sets late, with a script holding the
/// writer until the reader has started. Every rollback's compensation
/// frees the region's block — the one program here whose runs exercise
/// compensation frees.
pub fn compensation_alloc_program() -> (Program, ScheduleScript) {
    let mut mb = ModuleBuilder::new("alloc");
    let flag = mb.global("flag", 0);
    let sink = mb.global("sink", 0);

    let mut reader = FuncBuilder::new("reader", 0);
    reader.marker("reader_started");
    reader.push(Inst::Checkpoint { point: PointId(0) });
    let block = reader.alloc(4); // allocated inside the region
    let v = reader.load_global(flag);
    let c = reader.cmp(CmpKind::Ne, v, 0);
    reader.push(Inst::FailGuard {
        kind: GuardKind::Assert,
        cond: Operand::Reg(c),
        site: SiteId(0),
        msg: "flag".into(),
    });
    // Block survives on success: publish it.
    reader.store_global(sink, block);
    reader.ret();
    mb.function(reader.finish());

    let mut writer = FuncBuilder::new("writer", 0);
    writer.marker("before_init");
    // Let the reader spin for a while before releasing.
    writer.store_global(flag, 1);
    writer.ret();
    mb.function(writer.finish());

    let program = Program::from_entry_names(mb.finish(), &["reader", "writer"]);
    let script = ScheduleScript::with_gates(vec![Gate::new(1, "before_init", "reader_started")]);
    (program, script)
}
