//! Module validation.
//!
//! A valid module is one the interpreter can execute without internal
//! panics: all ids in range, all blocks terminated (with the terminator the
//! final instruction), markers unique, hardened-only instructions absent
//! unless explicitly allowed, and frames and globals small enough to
//! allocate.

use std::collections::HashSet;
use std::fmt;

use crate::inst::Inst;
use crate::module::Module;
use crate::types::{BlockId, FuncId, Loc};
use crate::value::Operand;

/// Most words one frame may hold (`regs + locals`). Frames are allocated
/// whole on every call, so a larger declaration would abort the process
/// on allocation instead of failing validation.
pub const MAX_FRAME_WORDS: usize = 1 << 16;

/// Most global words a module may declare in total — the same bound as
/// the interpreter's live-heap cap.
pub const MAX_GLOBAL_WORDS: usize = 1 << 24;

/// A single validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Where the error was found (block-granular when `inst` is the block's
    /// length).
    pub loc: Loc,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.loc, self.message)
    }
}

impl std::error::Error for ValidateError {}

/// Options for [`validate_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidateOptions {
    /// Allow transform-generated instructions (checkpoints, guards,
    /// timed locks). Set for hardened modules.
    pub allow_hardened: bool,
}

/// Validates `module` with default options (front-end modules: no
/// transform-generated instructions allowed).
///
/// # Errors
///
/// Returns every violation found, not only the first.
pub fn validate(module: &Module) -> Result<(), Vec<ValidateError>> {
    validate_with(module, ValidateOptions::default())
}

/// Validates a hardened module (transform-generated instructions allowed).
///
/// # Errors
///
/// Returns every violation found.
pub fn validate_hardened(module: &Module) -> Result<(), Vec<ValidateError>> {
    validate_with(
        module,
        ValidateOptions {
            allow_hardened: true,
        },
    )
}

/// Validates `module` under `options`.
///
/// # Errors
///
/// Returns every violation found.
pub fn validate_with(module: &Module, options: ValidateOptions) -> Result<(), Vec<ValidateError>> {
    let mut errors = Vec::new();
    let mut seen_markers: HashSet<&str> = HashSet::new();
    let mut seen_funcs: HashSet<&str> = HashSet::new();

    let global_words = module
        .globals
        .iter()
        .fold(0usize, |n, g| n.saturating_add(g.words));
    if global_words > MAX_GLOBAL_WORDS {
        errors.push(ValidateError {
            loc: Loc::new(FuncId(0), BlockId(0), 0),
            message: format!(
                "globals declare {global_words} words, past the {MAX_GLOBAL_WORDS}-word global cap"
            ),
        });
    }
    for (fi, func) in module.functions.iter().enumerate() {
        let fid = FuncId::from_index(fi);
        if !seen_funcs.insert(func.name.as_str()) {
            errors.push(ValidateError {
                loc: Loc::new(fid, BlockId(0), 0),
                message: format!("duplicate function name `{}`", func.name),
            });
        }
        if func.num_params > func.num_regs {
            errors.push(ValidateError {
                loc: Loc::new(fid, BlockId(0), 0),
                message: format!(
                    "num_params ({}) exceeds num_regs ({})",
                    func.num_params, func.num_regs
                ),
            });
        }
        let frame_words = func.num_regs.saturating_add(func.num_locals);
        if frame_words > MAX_FRAME_WORDS {
            errors.push(ValidateError {
                loc: Loc::new(fid, BlockId(0), 0),
                message: format!(
                    "frame of `{}` holds {frame_words} words (regs + locals), past the \
                     {MAX_FRAME_WORDS}-word frame cap",
                    func.name
                ),
            });
        }
        if func.blocks.is_empty() {
            errors.push(ValidateError {
                loc: Loc::new(fid, BlockId(0), 0),
                message: "function has no blocks".into(),
            });
            continue;
        }
        for (bi, block) in func.blocks.iter().enumerate() {
            let bid = BlockId::from_index(bi);
            match block.insts.last() {
                Some(t) if t.is_terminator() => {}
                _ => errors.push(ValidateError {
                    loc: Loc::new(fid, bid, block.insts.len()),
                    message: "block does not end in a terminator".into(),
                }),
            }
            for (ii, inst) in block.insts.iter().enumerate() {
                let loc = Loc::new(fid, bid, ii);
                if inst.is_terminator() && ii + 1 != block.insts.len() {
                    errors.push(ValidateError {
                        loc,
                        message: "terminator not at end of block".into(),
                    });
                }
                if inst.is_transform_generated() && !options.allow_hardened {
                    errors.push(ValidateError {
                        loc,
                        message: format!(
                            "transform-generated instruction `{}` in front-end module",
                            inst.mnemonic()
                        ),
                    });
                }
                if let Some(d) = inst.def() {
                    if d.index() >= func.num_regs {
                        errors.push(ValidateError {
                            loc,
                            message: format!("register {d} out of range"),
                        });
                    }
                }
                for u in inst.uses() {
                    if let Operand::Reg(r) = u {
                        if r.index() >= func.num_regs {
                            errors.push(ValidateError {
                                loc,
                                message: format!("register {r} out of range"),
                            });
                        }
                    }
                }
                match inst {
                    Inst::LoadGlobal { global, .. }
                    | Inst::StoreGlobal { global, .. }
                    | Inst::AddrOfGlobal { global, .. }
                        if global.index() >= module.globals.len() =>
                    {
                        errors.push(ValidateError {
                            loc,
                            message: format!("global {global} out of range"),
                        });
                    }
                    Inst::LoadLocal { local, .. } | Inst::StoreLocal { local, .. }
                        if local.index() >= func.num_locals =>
                    {
                        errors.push(ValidateError {
                            loc,
                            message: format!("local {local} out of range"),
                        });
                    }
                    Inst::Lock { lock } | Inst::Unlock { lock } | Inst::TimedLock { lock, .. }
                        if lock.index() >= module.locks.len() =>
                    {
                        errors.push(ValidateError {
                            loc,
                            message: format!("lock {lock} out of range"),
                        });
                    }
                    Inst::Jump { target } if target.index() >= func.blocks.len() => {
                        errors.push(ValidateError {
                            loc,
                            message: format!("jump target {target} out of range"),
                        });
                    }
                    Inst::Branch {
                        then_bb, else_bb, ..
                    } => {
                        for t in [then_bb, else_bb] {
                            if t.index() >= func.blocks.len() {
                                errors.push(ValidateError {
                                    loc,
                                    message: format!("branch target {t} out of range"),
                                });
                            }
                        }
                    }
                    Inst::Call { callee, args, .. } => {
                        if callee.index() >= module.functions.len() {
                            errors.push(ValidateError {
                                loc,
                                message: format!("callee {callee} out of range"),
                            });
                        } else {
                            let want = module.func(*callee).num_params;
                            if args.len() != want {
                                errors.push(ValidateError {
                                    loc,
                                    message: format!(
                                        "call to `{}` passes {} args, expects {}",
                                        module.func(*callee).name,
                                        args.len(),
                                        want
                                    ),
                                });
                            }
                        }
                    }
                    Inst::Marker { name } if !seen_markers.insert(name.as_str()) => {
                        errors.push(ValidateError {
                            loc,
                            message: format!("duplicate marker `{name}`"),
                        });
                    }
                    _ => {}
                }
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Function;
    use crate::types::{GlobalId, LocalId, LockId, PointId, Reg};

    fn module_with(insts: Vec<Inst>) -> Module {
        let mut m = Module::new("t");
        let mut f = Function::new("main", 0);
        f.num_regs = 8;
        f.num_locals = 2;
        f.blocks[0].insts = insts;
        m.add_function(f);
        m
    }

    #[test]
    fn valid_module_passes() {
        let m = module_with(vec![Inst::Nop, Inst::Return { value: None }]);
        assert!(validate(&m).is_ok());
    }

    #[test]
    fn missing_terminator_rejected() {
        let m = module_with(vec![Inst::Nop]);
        let errs = validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("terminator")));
    }

    #[test]
    fn terminator_mid_block_rejected() {
        let m = module_with(vec![
            Inst::Return { value: None },
            Inst::Nop,
            Inst::Return { value: None },
        ]);
        let errs = validate(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("terminator not at end")));
    }

    #[test]
    fn out_of_range_ids_rejected() {
        let m = module_with(vec![
            Inst::LoadGlobal {
                dst: Reg(0),
                global: GlobalId(5),
            },
            Inst::StoreLocal {
                local: LocalId(9),
                src: Operand::Const(0),
            },
            Inst::Lock { lock: LockId(0) },
            Inst::Jump { target: BlockId(7) },
        ]);
        let errs = validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("global")));
        assert!(errs.iter().any(|e| e.message.contains("local")));
        assert!(errs.iter().any(|e| e.message.contains("lock")));
        assert!(errs.iter().any(|e| e.message.contains("jump target")));
    }

    #[test]
    fn register_range_checked() {
        let m = module_with(vec![
            Inst::Copy {
                dst: Reg(100),
                src: Operand::Reg(Reg(99)),
            },
            Inst::Return { value: None },
        ]);
        let errs = validate(&m).unwrap_err();
        assert_eq!(
            errs.iter()
                .filter(|e| e.message.contains("out of range"))
                .count(),
            2
        );
    }

    #[test]
    fn call_arity_checked() {
        let mut m = module_with(vec![
            Inst::Call {
                dst: None,
                callee: FuncId(1),
                args: vec![Operand::Const(1)],
            },
            Inst::Return { value: None },
        ]);
        let mut callee = Function::new("two_params", 2);
        callee.blocks[0].insts.push(Inst::Return { value: None });
        m.add_function(callee);
        let errs = validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("expects 2")));
    }

    #[test]
    fn hardened_insts_gated() {
        let m = module_with(vec![
            Inst::Checkpoint { point: PointId(0) },
            Inst::Return { value: None },
        ]);
        assert!(validate(&m).is_err());
        assert!(validate_hardened(&m).is_ok());
    }

    #[test]
    fn duplicate_markers_rejected() {
        let m = module_with(vec![
            Inst::Marker { name: "a".into() },
            Inst::Marker { name: "a".into() },
            Inst::Return { value: None },
        ]);
        let errs = validate(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("duplicate marker")));
    }

    #[test]
    fn duplicate_function_names_rejected() {
        let mut m = module_with(vec![Inst::Return { value: None }]);
        let mut f = Function::new("main", 0);
        f.blocks[0].insts.push(Inst::Return { value: None });
        m.add_function(f);
        let errs = validate(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("duplicate function name")));
    }

    #[test]
    fn frame_and_global_sizes_capped() {
        let mut m = module_with(vec![Inst::Return { value: None }]);
        m.functions[0].num_regs = MAX_FRAME_WORDS - 2;
        m.functions[0].num_locals = 2;
        m.add_global_array("g", MAX_GLOBAL_WORDS, 0);
        assert!(validate(&m).is_ok(), "at the caps");

        m.functions[0].num_locals = usize::MAX;
        m.add_global_array("h", 1, 0);
        let errs = validate_hardened(&m).unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(
            errs[0].message.contains("16777216-word global cap"),
            "{errs:?}"
        );
        assert!(errs[1].message.contains("65536-word frame cap"), "{errs:?}");
    }
}
