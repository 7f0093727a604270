//! Bit-identical re-execution of a recorded [`DecisionTrace`].
//!
//! The interpreter is deterministic: given the same program, the same
//! [`MachineConfig`] and the same sequence of scheduler picks at the same
//! decision mask, every instruction executes identically. A
//! [`ReplayScheduler`] therefore reproduces a recorded run's `RunOutcome`
//! exactly — including failure site, step and message — which is what
//! makes explored failures debuggable artifacts instead of one-off
//! observations (the in-situ replay idea of iReplayer, scaled down to a
//! deterministic interpreter).
//!
//! Replay is *lenient*: if a recorded decision names a thread that is not
//! eligible (the program, config or mask changed since recording), the
//! scheduler falls back to the default continuation and records the first
//! [`Divergence`] for the caller to surface. A clean replay of an
//! unmodified trace never diverges.

use super::bounded::default_pick;
use super::decision::DecisionTrace;
use super::point::PointMask;
use super::{SchedContext, Scheduler};
use crate::locks::ThreadId;
use crate::machine::{Machine, MachineConfig};
use crate::outcome::RunResult;
use crate::program::Program;

/// Where a replay first stopped following its trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Decision index at which replay diverged.
    pub at: usize,
    /// The recorded thread that was not eligible (`None`: the trace was
    /// exhausted and the run still needed decisions).
    pub wanted: Option<ThreadId>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.wanted {
            Some(t) => write!(f, "decision {}: recorded {t} not eligible", self.at),
            None => write!(f, "trace exhausted after {} decisions", self.at),
        }
    }
}

/// Replays a [`DecisionTrace`] decision by decision.
#[derive(Debug)]
pub struct ReplayScheduler {
    trace: DecisionTrace,
    idx: usize,
    divergence: Option<Divergence>,
}

impl ReplayScheduler {
    /// A scheduler replaying `trace`.
    pub fn new(trace: DecisionTrace) -> Self {
        Self {
            trace,
            idx: 0,
            divergence: None,
        }
    }

    /// The first divergence, if the run stopped following the trace.
    pub fn divergence(&self) -> Option<&Divergence> {
        self.divergence.as_ref()
    }

    /// Decisions consumed from the trace.
    pub fn consumed(&self) -> usize {
        self.idx
    }
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, ctx: &SchedContext<'_>) -> ThreadId {
        if let Some(&d) = self.trace.decisions.get(self.idx) {
            let at = self.idx;
            self.idx += 1;
            let want = ThreadId(d as usize);
            if ctx.eligible.contains(&want) {
                return want;
            }
            if self.divergence.is_none() {
                self.divergence = Some(Divergence {
                    at,
                    wanted: Some(want),
                });
            }
        } else if self.divergence.is_none() {
            self.divergence = Some(Divergence {
                at: self.idx,
                wanted: None,
            });
        }
        default_pick(ctx.eligible, ctx.last)
    }

    fn name(&self) -> &'static str {
        "replay"
    }

    fn decision_mask(&self) -> PointMask {
        self.trace.point_mask()
    }
}

/// Replays `trace` on `program` and returns the result plus the first
/// divergence, if any. `config.record_decisions` is honored, so a replay
/// can re-record its own canonical trace.
pub fn run_replay(
    program: &Program,
    config: &MachineConfig,
    trace: &DecisionTrace,
) -> (RunResult, Option<Divergence>) {
    let mut sched = ReplayScheduler::new(trace.clone());
    let result = Machine::new(program, *config).run(&mut sched);
    let divergence = sched.divergence().cloned();
    (result, divergence)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn follows_trace_then_falls_back() {
        let mut trace = DecisionTrace::new("test", 0, PointMask::ALL);
        trace.push(ThreadId(1));
        trace.push(ThreadId(0));
        let mut s = ReplayScheduler::new(trace);
        let all = [ThreadId(0), ThreadId(1)];
        assert_eq!(s.pick(&SchedContext::simple(&all, 1)), ThreadId(1));
        assert_eq!(s.pick(&SchedContext::simple(&all, 2)), ThreadId(0));
        assert!(s.divergence().is_none());
        // Trace exhausted: default continuation (no last → lowest id),
        // divergence recorded.
        assert_eq!(s.pick(&SchedContext::simple(&all, 3)), ThreadId(0));
        assert_eq!(
            s.divergence(),
            Some(&Divergence {
                at: 2,
                wanted: None
            })
        );
    }

    /// The default `forced` is `n` lone picks: it consumes exactly `n`
    /// decisions and reports the first one naming another thread — or
    /// the end of the trace — at the index a pick would.
    #[test]
    fn forced_consumes_and_diverges_like_picks() {
        let lone = [ThreadId(1)];
        let mut first = SchedContext::simple(&lone, 5);
        first.last = Some(ThreadId(1));
        for recorded in [vec![1, 1, 1, 1], vec![1, 1, 0, 1, 0], vec![1, 1]] {
            let mut trace = DecisionTrace::new("test", 0, PointMask::ALL);
            for &d in &recorded {
                trace.push(ThreadId(d));
            }
            for n in 0..=5u64 {
                let mut forced = ReplayScheduler::new(trace.clone());
                let mut picked = ReplayScheduler::new(trace.clone());
                forced.forced(&first, n);
                for k in 0..n {
                    let ctx = SchedContext {
                        step: 5 + k,
                        ..first
                    };
                    assert_eq!(picked.pick(&ctx), ThreadId(1));
                }
                assert_eq!(forced.consumed(), (n as usize).min(recorded.len()));
                assert_eq!(forced.consumed(), picked.consumed());
                assert_eq!(forced.divergence(), picked.divergence());
            }
        }
        let mut trace = DecisionTrace::new("test", 0, PointMask::ALL);
        for d in [1, 1, 0, 1] {
            trace.push(ThreadId(d));
        }
        let mut s = ReplayScheduler::new(trace);
        s.forced(&first, 4);
        assert_eq!(
            s.divergence(),
            Some(&Divergence {
                at: 2,
                wanted: Some(ThreadId(0))
            })
        );
        s.forced(&first, 2);
        assert_eq!((s.consumed(), s.divergence().unwrap().at), (4, 2));
    }

    #[test]
    fn ineligible_decision_diverges_once() {
        let mut trace = DecisionTrace::new("test", 0, PointMask::ALL);
        trace.push(ThreadId(5));
        trace.push(ThreadId(1));
        let mut s = ReplayScheduler::new(trace);
        let all = [ThreadId(0), ThreadId(1)];
        let mut ctx = SchedContext::simple(&all, 1);
        ctx.last = Some(ThreadId(1));
        assert_eq!(s.pick(&ctx), ThreadId(1), "falls back to last");
        assert_eq!(
            s.divergence(),
            Some(&Divergence {
                at: 0,
                wanted: Some(ThreadId(5))
            })
        );
        // Later valid decisions still apply; the first divergence sticks.
        assert_eq!(s.pick(&SchedContext::simple(&all, 2)), ThreadId(1));
        assert_eq!(s.divergence().unwrap().at, 0);
        assert_eq!(s.consumed(), 2);
    }
}
