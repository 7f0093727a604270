//! In-memory span recording around calls into the library's public API.
//!
//! A span has a name, a start and end (ns since the tracer was created), the
//! index of the span that was open when it began (its parent) and the id of
//! the operation it belongs to. Spans stay in memory until the run ends and
//! are then written out as JSON lines. A layer's self time is its spans'
//! durations minus the parts their child spans cover.
//!
//! When disabled, [`Tracer::span`] is a branch and a direct call: the
//! untraced run that produces the end-to-end metrics pays nothing else.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans on the calling thread.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    op: Cell<u64>,
    open: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            op: Cell::new(0),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: spans opened from now on share its id.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = self.open_span(name);
        let out = f();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        self.open.borrow_mut().pop();
        out
    }

    fn open_span(&self, name: &'static str) -> usize {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        let start = self.now_ns();
        spans.push(Span {
            name,
            op: self.op.get(),
            parent,
            start_ns: start,
            end_ns: start,
        });
        self.open.borrow_mut().push(idx);
        idx
    }

    /// Records already-measured consecutive phases as children of the
    /// innermost open span, laid end to end from that span's start. Used for
    /// the phase breakdown a library call reports about itself.
    pub fn phases(&self, phases: &[(&'static str, Duration)]) {
        if !self.enabled {
            return;
        }
        let Some(&parent) = self.open.borrow().last() else {
            return;
        };
        let mut spans = self.spans.borrow_mut();
        let mut at = spans[parent].start_ns;
        for &(name, wall) in phases {
            let end = at + wall.as_nanos() as u64;
            spans.push(Span {
                name,
                op: self.op.get(),
                parent: Some(parent),
                start_ns: at,
                end_ns: end,
            });
            at = end;
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time per span name, in ns: each span's duration minus the
    /// durations of its direct children.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(kids);
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.phases(&[
                ("a", Duration::from_nanos(100)),
                ("b", Duration::from_nanos(50)),
            ]);
            std::thread::sleep(Duration::from_millis(1));
        });
        let s = t.self_ns();
        assert_eq!(s["a"], 100);
        assert_eq!(s["b"], 50);
        assert!(s["outer"] >= 1_000_000 - 150);
        assert_eq!(t.span_count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.span_count(), 0);
    }
}
