//! Schedule scripts: gate-based bug forcing.
//!
//! A gate holds a thread whenever its next instruction is a given marker,
//! until some other marker has executed a given number of times — the
//! analog of the sleeps the paper injects to force failure-inducing
//! interleavings. Gates are evaluated by the machine before scheduling, so
//! they compose with any scheduler.
//!
//! The string-keyed [`ScheduleScript`] is the authoring surface; at machine
//! construction it is compiled against the module's interned marker ids
//! into a [`CompiledScript`] — a per-thread table keyed by `u32` marker id,
//! so the per-step hold check is integer compares over the holding thread's
//! own gates instead of string compares over every gate.

use crate::dense::DenseProgram;

/// A gate: hold `thread` at `at_marker` until `until_marker` has executed
/// `until_count` times (the sleep-injection analog).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// The held thread (index into the program's thread list).
    pub thread: usize,
    /// Hold while the thread's next instruction is this marker…
    pub at_marker: String,
    /// …until this marker has executed…
    pub until_marker: String,
    /// …this many times.
    pub until_count: u64,
}

impl Gate {
    /// Convenience constructor with `until_count = 1`.
    pub fn new(
        thread: usize,
        at_marker: impl Into<String>,
        until_marker: impl Into<String>,
    ) -> Self {
        Self {
            thread,
            at_marker: at_marker.into(),
            until_marker: until_marker.into(),
            until_count: 1,
        }
    }
}

/// A set of gates forcing one interleaving.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleScript {
    /// The gates, all active simultaneously.
    pub gates: Vec<Gate>,
}

impl ScheduleScript {
    /// The empty script (no forcing).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a script from gates.
    pub fn with_gates(gates: Vec<Gate>) -> Self {
        Self { gates }
    }

    /// Whether `thread`, whose next instruction is the marker named
    /// `next_marker` (if any), is held given current marker counts.
    ///
    /// This is the string-keyed reference semantics; the machine's hot
    /// path uses the compiled-script equivalent.
    pub fn is_held(
        &self,
        thread: usize,
        next_marker: Option<&str>,
        marker_count: impl Fn(&str) -> u64,
    ) -> bool {
        let Some(marker) = next_marker else {
            return false;
        };
        self.gates.iter().any(|g| {
            g.thread == thread
                && g.at_marker == marker
                && marker_count(&g.until_marker) < g.until_count
        })
    }

    /// Compiles the script against a lowered program's marker interner:
    /// marker names become `u32` ids and gates are bucketed per thread.
    pub(crate) fn compile(&self, threads: usize, dense: &DenseProgram<'_>) -> CompiledScript {
        let mut by_thread: Vec<Vec<CompiledGate>> = vec![Vec::new(); threads];
        for g in &self.gates {
            if g.thread >= threads || g.until_count == 0 {
                // A gate for a thread that doesn't run, or one already
                // satisfied, never holds anything.
                continue;
            }
            // A gate at a marker the module doesn't contain can never
            // match a thread's next instruction.
            let Some(at) = dense.marker_id(&g.at_marker) else {
                continue;
            };
            // An `until` marker the module doesn't contain keeps its count
            // at zero forever — the gate holds unconditionally.
            let until = dense.marker_id(&g.until_marker);
            by_thread[g.thread].push(CompiledGate {
                at,
                until,
                count: g.until_count,
            });
        }
        let any = by_thread.iter().any(|v| !v.is_empty());
        CompiledScript { by_thread, any }
    }
}

/// One gate, resolved to interned marker ids.
#[derive(Debug, Clone, Copy)]
struct CompiledGate {
    /// Interned id of the gate's `at` marker.
    at: u32,
    /// Interned id of the `until` marker (`None`: the marker does not
    /// exist in the module, so its count is zero forever and the gate
    /// never releases).
    until: Option<u32>,
    /// Release threshold.
    count: u64,
}

/// A [`ScheduleScript`] compiled against a module's marker interner.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledScript {
    by_thread: Vec<Vec<CompiledGate>>,
    any: bool,
}

impl CompiledScript {
    /// Whether any compiled gate exists (cheap per-step early-out).
    #[inline]
    pub(crate) fn any(&self) -> bool {
        self.any
    }

    /// Whether any gate could still hold a thread given `counts` (indexed
    /// by marker id). Marker counts only grow during a run, so once this
    /// returns `false` every gate has released for good — the machine
    /// re-evaluates it only when a marker executes, and treats a fully
    /// released script like an empty one on the per-step path.
    pub(crate) fn any_unreleased(&self, counts: &[u64]) -> bool {
        self.by_thread.iter().flatten().any(|g| match g.until {
            Some(u) => counts[u as usize] < g.count,
            None => true,
        })
    }

    /// Whether `thread`, whose next instruction is the marker with interned
    /// id `marker`, is held given `counts` (indexed by marker id).
    #[inline]
    pub(crate) fn is_held(&self, thread: usize, marker: u32, counts: &[u64]) -> bool {
        let Some(gates) = self.by_thread.get(thread) else {
            return false;
        };
        gates.iter().any(|g| {
            g.at == marker
                && match g.until {
                    Some(u) => counts[u as usize] < g.count,
                    None => true,
                }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_ir::{FuncBuilder, ModuleBuilder};
    use std::collections::HashMap;

    #[test]
    fn gates_hold_until_marker_count() {
        let script = ScheduleScript::with_gates(vec![Gate::new(1, "init_start", "read_done")]);
        let mut counts: HashMap<&str, u64> = HashMap::new();
        let count = |m: &str| counts.get(m).copied().unwrap_or(0);
        assert!(script.is_held(1, Some("init_start"), count));
        assert!(
            !script.is_held(0, Some("init_start"), count),
            "other thread unaffected"
        );
        assert!(
            !script.is_held(1, Some("other"), count),
            "other marker unaffected"
        );
        assert!(!script.is_held(1, None, count));
        counts.insert("read_done", 1);
        let count = |m: &str| counts.get(m).copied().unwrap_or(0);
        assert!(!script.is_held(1, Some("init_start"), count), "released");
    }

    #[test]
    fn gate_with_higher_count() {
        let mut g = Gate::new(0, "a", "b");
        g.until_count = 3;
        let script = ScheduleScript::with_gates(vec![g]);
        assert!(script.is_held(0, Some("a"), |_| 2));
        assert!(!script.is_held(0, Some("a"), |_| 3));
    }

    fn two_marker_module() -> conair_ir::Module {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = FuncBuilder::new("f", 0);
        fb.marker("a");
        fb.marker("b");
        fb.ret();
        mb.function(fb.finish());
        mb.finish()
    }

    #[test]
    fn compiled_script_matches_reference_semantics() {
        let module = two_marker_module();
        let dense = DenseProgram::new(&module);
        let a = dense.marker_id("a").unwrap();
        let mut g = Gate::new(0, "a", "b");
        g.until_count = 2;
        let script = ScheduleScript::with_gates(vec![g]);
        let compiled = script.compile(2, &dense);
        assert!(compiled.any());

        let b = dense.marker_id("b").unwrap() as usize;
        let mut counts = vec![0u64; 2];
        assert!(compiled.is_held(0, a, &counts));
        assert!(!compiled.is_held(1, a, &counts), "other thread unaffected");
        counts[b] = 1;
        assert!(compiled.is_held(0, a, &counts), "count not reached yet");
        counts[b] = 2;
        assert!(!compiled.is_held(0, a, &counts), "released");
    }

    #[test]
    fn compiled_script_drops_unmatchable_and_keeps_unreleasable_gates() {
        let module = two_marker_module();
        let dense = DenseProgram::new(&module);
        let a = dense.marker_id("a").unwrap();
        let script = ScheduleScript::with_gates(vec![
            Gate::new(0, "no_such_marker", "b"), // can never match: dropped
            Gate::new(1, "a", "no_such_marker"), // can never release: holds
        ]);
        let compiled = script.compile(2, &dense);
        let counts = vec![u64::MAX; 2];
        assert!(!compiled.is_held(0, a, &counts));
        assert!(compiled.is_held(1, a, &counts), "holds forever");
    }

    #[test]
    fn empty_script_compiles_to_inactive() {
        let module = two_marker_module();
        let dense = DenseProgram::new(&module);
        let compiled = ScheduleScript::none().compile(2, &dense);
        assert!(!compiled.any());
    }
}
