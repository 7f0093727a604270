//! Structured execution tracing: the [`TraceSink`] interface the machine
//! emits [`TraceEvent`]s into, an in-memory [`EventBuffer`] sink, and the
//! JSONL / Chrome-trace exporters.
//!
//! Tracing is strictly opt-in. The machine holds an `Option<Box<dyn
//! TraceSink>>` and every emission site goes through a closure that only
//! *constructs* the event when a sink is installed, so a run without a sink
//! performs no event allocation or formatting at all — the hardened-run
//! instruction counts of the overhead benches are identical with and
//! without the tracing layer compiled in.
//!
//! Event-count invariants (relied on by the CLI's consistency check):
//!
//! * `CheckpointSaved` events == [`crate::RunStats::checkpoints`];
//! * `RolledBack` events == [`crate::RunStats::rollbacks`];
//! * `FailureDetected` events == [`crate::RunStats::total_retries`] (the
//!   per-site retry counter is bumped once per detection, whether the
//!   attempt rolls back or exhausts);
//! * `RecoveryCompleted` events == sites in
//!   [`crate::RunStats::site_recovery`] with a `recovered_step`.

use std::cell::RefCell;
use std::rc::Rc;

use conair_ir::{FailureKind, LockId, SiteId};
use serde::{Deserialize, Serialize};

use crate::locks::ThreadId;
use crate::outcome::RunStats;

/// One structured event emitted by the machine.
///
/// Every variant carries the global `step` at emission; steps are the
/// timeline's clock (the interpreter's deterministic time unit).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A thread exists and is about to start executing.
    ThreadStarted {
        /// Emission step.
        step: u64,
        /// The thread.
        thread: ThreadId,
        /// Its spec name.
        name: String,
    },
    /// A thread executed its final return.
    ThreadFinished {
        /// Emission step.
        step: u64,
        /// The thread.
        thread: ThreadId,
    },
    /// The scheduler picked a different thread than last step.
    ContextSwitch {
        /// Emission step.
        step: u64,
        /// Previously running thread (`None` on the first pick).
        from: Option<ThreadId>,
        /// Newly running thread.
        to: ThreadId,
        /// How many threads were eligible.
        eligible: usize,
    },
    /// A thread failed to acquire a lock and blocked.
    LockWait {
        /// Emission step.
        step: u64,
        /// The blocked thread.
        thread: ThreadId,
        /// The contended lock.
        lock: LockId,
        /// The deadlock site for timed (hardened) acquisitions.
        site: Option<SiteId>,
        /// Current owner of the lock (the wait edge).
        owner: Option<ThreadId>,
    },
    /// A lock was acquired.
    LockAcquired {
        /// Emission step.
        step: u64,
        /// The acquiring thread.
        thread: ThreadId,
        /// The lock.
        lock: LockId,
        /// Whether this was a timed (hardened) acquisition.
        timed: bool,
        /// Steps spent blocked before acquiring (0 = uncontended).
        waited: u64,
    },
    /// A lock was released by its owner.
    LockReleased {
        /// Emission step.
        step: u64,
        /// The releasing thread.
        thread: ThreadId,
        /// The lock.
        lock: LockId,
    },
    /// A timed lock's timeout fired (`pthread_mutex_timedlock` returning
    /// `ETIMEDOUT` — the deadlock detection signal).
    LockTimeout {
        /// Emission step.
        step: u64,
        /// The timed-out thread.
        thread: ThreadId,
        /// The lock it waited for.
        lock: LockId,
        /// The deadlock failure site.
        site: SiteId,
        /// Steps waited before the timeout.
        waited: u64,
    },
    /// A checkpoint instruction executed (the `setjmp`).
    CheckpointSaved {
        /// Emission step.
        step: u64,
        /// The thread.
        thread: ThreadId,
        /// The thread's reexecution epoch after the save.
        epoch: u64,
        /// Whether this execution re-entered the checkpoint after a
        /// rollback (vs a first-time capture).
        reexecution: bool,
    },
    /// A failure was detected at a hardened site (one event per recovery
    /// attempt, before the rollback/exhaustion decision).
    FailureDetected {
        /// Emission step.
        step: u64,
        /// The failing thread.
        thread: ThreadId,
        /// The hardened site.
        site: SiteId,
        /// The failure class.
        kind: FailureKind,
    },
    /// Compensation freed a heap block allocated in the current epoch.
    CompensationFree {
        /// Emission step.
        step: u64,
        /// The recovering thread.
        thread: ThreadId,
        /// Base address of the freed block.
        base: i64,
    },
    /// Compensation force-released a lock acquired in the current epoch.
    CompensationUnlock {
        /// Emission step.
        step: u64,
        /// The recovering thread.
        thread: ThreadId,
        /// The released lock.
        lock: LockId,
    },
    /// The thread rolled back to its checkpoint (the `longjmp`).
    RolledBack {
        /// Emission step.
        step: u64,
        /// The thread.
        thread: ThreadId,
        /// The site being recovered.
        site: SiteId,
        /// This thread's retry count for the site, after this rollback.
        retry: u64,
        /// Undo-log records replayed (buffered-writes policy only).
        undo_restored: u64,
        /// Registers restored from the epoch's register undo-log (the
        /// rollback cost of the featherweight checkpoint).
        regs_undone: u64,
    },
    /// A recovery attempt found no budget or no checkpoint; the original
    /// failure fires.
    RecoveryExhausted {
        /// Emission step.
        step: u64,
        /// The thread.
        thread: ThreadId,
        /// The site.
        site: SiteId,
        /// The failure class about to be reported.
        kind: FailureKind,
    },
    /// Random backoff after a deadlock rollback (anti-livelock).
    BackoffSleep {
        /// Emission step.
        step: u64,
        /// The sleeping thread.
        thread: ThreadId,
        /// Step at which the thread wakes.
        until: u64,
    },
    /// A previously failing site finally passed — recovery complete.
    RecoveryCompleted {
        /// Emission step.
        step: u64,
        /// The thread that passed the site.
        thread: ThreadId,
        /// The recovered site.
        site: SiteId,
        /// Total rollbacks the site needed.
        retries: u64,
        /// Steps from first failure detection to this pass.
        latency: u64,
    },
    /// The recorded schedule's identity, emitted once at the end of a run
    /// with [`crate::MachineConfig::record_decisions`] set. `trace_hash`
    /// is [`crate::DecisionTrace::hash`]: two runs with equal hashes
    /// executed the same interleaving.
    ScheduleInfo {
        /// Final step.
        step: u64,
        /// Scheduler name (e.g. `round-robin`, `pct`, `replay`).
        scheduler: String,
        /// Decisions recorded.
        decisions: u64,
        /// FNV-1a hash of the decision trace.
        trace_hash: u64,
    },
    /// The run ended.
    RunEnded {
        /// Final step.
        step: u64,
        /// Outcome label: `completed`, `failed`, `hang` or `step-limit`.
        outcome: String,
    },
    /// A periodic sampled view of an exploration in flight, emitted by
    /// [`crate::explore_observed`] at wave boundaries no more often than
    /// the observer's sampling interval. Unlike machine events, `step` is
    /// wall-clock milliseconds since exploration start — the stream's
    /// clock. Rates (schedules/sec) are left to renderers so the event
    /// stays integer-only.
    ExploreProgress {
        /// Milliseconds since exploration start.
        step: u64,
        /// Schedules executed so far.
        schedules: u64,
        /// Schedule budget.
        budget: u64,
        /// Failing schedules found so far.
        failures: u64,
        /// Schedule index of the first failure, when one has been found.
        first_failure: Option<u64>,
        /// Frontier queue depth (0 for PCT).
        frontier: u64,
        /// Live snapshot-tree nodes.
        snapshot_nodes: u64,
        /// Bytes the snapshot tree holds that no other image shares
        /// (insert-time accounting — the eviction pressure signal).
        resident_bytes: u64,
        /// Interpreter steps saved by prefix-sharing snapshot resume and
        /// by splicing lone-thread remainders.
        steps_saved: u64,
        /// Waves completed.
        wave: u64,
    },
    /// One completed exploration wave with its self-profiling phase
    /// breakdown. `step` is wall-clock milliseconds since exploration
    /// start at the moment the wave finished; durations are microseconds.
    ExploreWave {
        /// Milliseconds since exploration start at wave end.
        step: u64,
        /// Wave index (0-based).
        wave: u64,
        /// Planned wave width (the 16→256 ramp).
        width: u64,
        /// Schedules actually executed this wave (dedup/pruning can shrink
        /// it below `width`).
        executed: u64,
        /// Wave wall time, µs.
        wall_us: u64,
        /// µs spent capturing machine snapshots.
        capture_us: u64,
        /// µs spent restoring machine snapshots.
        restore_us: u64,
        /// µs spent interpreting schedules.
        interpret_us: u64,
        /// µs spent assembling and merging the wave.
        merge_us: u64,
    },
}

impl TraceEvent {
    /// The emission step.
    pub fn step(&self) -> u64 {
        use TraceEvent::*;
        match self {
            ThreadStarted { step, .. }
            | ThreadFinished { step, .. }
            | ContextSwitch { step, .. }
            | LockWait { step, .. }
            | LockAcquired { step, .. }
            | LockReleased { step, .. }
            | LockTimeout { step, .. }
            | CheckpointSaved { step, .. }
            | FailureDetected { step, .. }
            | CompensationFree { step, .. }
            | CompensationUnlock { step, .. }
            | RolledBack { step, .. }
            | RecoveryExhausted { step, .. }
            | BackoffSleep { step, .. }
            | RecoveryCompleted { step, .. }
            | ScheduleInfo { step, .. }
            | RunEnded { step, .. }
            | ExploreProgress { step, .. }
            | ExploreWave { step, .. } => *step,
        }
    }

    /// The subject thread, when the event has one.
    pub fn thread(&self) -> Option<ThreadId> {
        use TraceEvent::*;
        match self {
            ThreadStarted { thread, .. }
            | ThreadFinished { thread, .. }
            | ContextSwitch { to: thread, .. }
            | LockWait { thread, .. }
            | LockAcquired { thread, .. }
            | LockReleased { thread, .. }
            | LockTimeout { thread, .. }
            | CheckpointSaved { thread, .. }
            | FailureDetected { thread, .. }
            | CompensationFree { thread, .. }
            | CompensationUnlock { thread, .. }
            | RolledBack { thread, .. }
            | RecoveryExhausted { thread, .. }
            | BackoffSleep { thread, .. }
            | RecoveryCompleted { thread, .. } => Some(*thread),
            ScheduleInfo { .. } | RunEnded { .. } | ExploreProgress { .. } | ExploreWave { .. } => {
                None
            }
        }
    }

    /// A stable kebab-case label for the variant.
    pub fn kind_name(&self) -> &'static str {
        use TraceEvent::*;
        match self {
            ThreadStarted { .. } => "thread-started",
            ThreadFinished { .. } => "thread-finished",
            ContextSwitch { .. } => "context-switch",
            LockWait { .. } => "lock-wait",
            LockAcquired { .. } => "lock-acquired",
            LockReleased { .. } => "lock-released",
            LockTimeout { .. } => "lock-timeout",
            CheckpointSaved { .. } => "checkpoint",
            FailureDetected { .. } => "failure-detected",
            CompensationFree { .. } => "compensation-free",
            CompensationUnlock { .. } => "compensation-unlock",
            RolledBack { .. } => "rollback",
            RecoveryExhausted { .. } => "recovery-exhausted",
            BackoffSleep { .. } => "backoff",
            RecoveryCompleted { .. } => "recovery-completed",
            ScheduleInfo { .. } => "schedule-info",
            RunEnded { .. } => "run-ended",
            ExploreProgress { .. } => "explore-progress",
            ExploreWave { .. } => "explore-wave",
        }
    }
}

/// Receiver of machine trace events.
///
/// Implementations should be cheap: the machine calls `record` inline from
/// the interpreter loop. Heavy sinks (files, sockets) should buffer.
pub trait TraceSink {
    /// Accepts one event.
    fn record(&mut self, event: TraceEvent);
}

/// An in-memory sink with shared handles: clone it, hand one clone to the
/// machine, and read the events from another after the run.
#[derive(Debug, Clone, Default)]
pub struct EventBuffer {
    events: Rc<RefCell<Vec<TraceEvent>>>,
}

impl EventBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the recorded events, leaving the buffer empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

impl TraceSink for EventBuffer {
    fn record(&mut self, event: TraceEvent) {
        self.events.borrow_mut().push(event);
    }
}

/// Serializes events as JSON Lines (one event object per line).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("trace events serialize"));
        out.push('\n');
    }
    out
}

/// Parses a JSON Lines trace back into events (blank lines skipped).
///
/// # Errors
///
/// Returns the first line's parse error with its 1-based line number.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str::<TraceEvent>(line).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// Converts events to Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto). Steps map to microseconds; lock waits become complete (`X`)
/// events spanning the wait, everything else becomes an instant (`i`)
/// event on its thread's track.
///
/// Exploration events ([`TraceEvent::ExploreWave`],
/// [`TraceEvent::ExploreProgress`]) live on their own track (pid 2): each
/// wave is a complete event spanning its wall time on tid 0, its
/// capture/restore/interpret/merge phases are laid back-to-back as spans on
/// tid 1, and progress samples are instants on tid 0. Their `step` clock is
/// milliseconds, so they are scaled to the µs timeline.
pub fn to_chrome_trace(events: &[TraceEvent]) -> serde::Value {
    use serde::Value;
    let mut entries: Vec<Value> = Vec::with_capacity(events.len());
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    for e in events {
        let tid = e.thread().map(|t| t.index() as u64).unwrap_or(0);
        let common = |name: &str, ph: &str, ts: u64| {
            vec![
                ("name", Value::Str(name.to_string())),
                ("ph", Value::Str(ph.to_string())),
                ("ts", Value::UInt(ts)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(tid)),
            ]
        };
        let explore = |name: String, ph: &str, ts: u64, tid: u64| {
            vec![
                ("name", Value::Str(name)),
                ("ph", Value::Str(ph.to_string())),
                ("ts", Value::UInt(ts)),
                ("pid", Value::UInt(2)),
                ("tid", Value::UInt(tid)),
            ]
        };
        match e {
            TraceEvent::LockAcquired {
                step, lock, waited, ..
            } if *waited > 0 => {
                let mut pairs = common(&format!("wait {lock}"), "X", step - waited);
                pairs.push(("dur", Value::UInt(*waited)));
                entries.push(obj(pairs));
            }
            TraceEvent::LockTimeout {
                step, lock, waited, ..
            } => {
                let mut pairs = common(&format!("wait-timeout {lock}"), "X", step - waited);
                pairs.push(("dur", Value::UInt(*waited)));
                entries.push(obj(pairs));
            }
            TraceEvent::ExploreWave {
                step,
                wave,
                width,
                executed,
                wall_us,
                capture_us,
                restore_us,
                interpret_us,
                merge_us,
            } => {
                let start = (step * 1000).saturating_sub(*wall_us);
                let mut pairs = explore(format!("wave {wave} ({executed}/{width})"), "X", start, 0);
                pairs.push(("dur", Value::UInt(*wall_us)));
                entries.push(obj(pairs));
                let mut at = start;
                for (phase, dur) in [
                    ("capture", *capture_us),
                    ("restore", *restore_us),
                    ("interpret", *interpret_us),
                    ("merge", *merge_us),
                ] {
                    if dur == 0 {
                        continue;
                    }
                    let mut pairs = explore(format!("{phase} (wave {wave})"), "X", at, 1);
                    pairs.push(("dur", Value::UInt(dur)));
                    entries.push(obj(pairs));
                    at += dur;
                }
            }
            TraceEvent::ExploreProgress {
                step,
                schedules,
                budget,
                ..
            } => {
                let mut pairs = explore(
                    format!("progress {schedules}/{budget}"),
                    "i",
                    step * 1000,
                    0,
                );
                pairs.push(("s", Value::Str("p".to_string())));
                entries.push(obj(pairs));
            }
            other => {
                let mut pairs = common(other.kind_name(), "i", other.step());
                pairs.push(("s", Value::Str("t".to_string())));
                entries.push(obj(pairs));
            }
        }
    }
    Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(entries)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ])
}

/// Rebuilds the event-determined [`RunStats`] fields from an event stream
/// — the aggregation `conair report` performs over a JSONL trace: `steps`,
/// `checkpoints`, `rollbacks`, `site_recovery`, the three histograms, and
/// the re-execution, compensation and context-switch counters. For a
/// stream produced by a traced run each of these equals the machine's
/// own; every other field stays at its default.
pub fn summarize_events(events: &[TraceEvent]) -> RunStats {
    let mut s = RunStats::default();
    for e in events {
        match e {
            TraceEvent::ContextSwitch { from: Some(_), .. } => s.context_switches += 1,
            TraceEvent::LockAcquired { waited, .. } if *waited > 0 => {
                s.lock_waits.record(*waited);
            }
            TraceEvent::LockTimeout { waited, .. } => s.lock_waits.record(*waited),
            TraceEvent::CheckpointSaved { reexecution, .. } => {
                s.checkpoints += 1;
                if *reexecution {
                    s.checkpoint_reexecutions += 1;
                }
            }
            TraceEvent::FailureDetected { step, site, .. } => {
                let rec = s.site_recovery.entry(*site).or_default();
                rec.first_failure_step.get_or_insert(*step);
                rec.retries += 1;
            }
            TraceEvent::CompensationFree { .. } => s.compensation_frees += 1,
            TraceEvent::CompensationUnlock { .. } => s.compensation_unlocks += 1,
            TraceEvent::RolledBack { regs_undone, .. } => {
                s.rollbacks += 1;
                s.undo_depth.record(*regs_undone);
            }
            TraceEvent::RecoveryCompleted {
                step,
                site,
                latency,
                ..
            } => {
                if let Some(rec) = s.site_recovery.get_mut(site) {
                    rec.recovered_step.get_or_insert(*step);
                }
                s.rollback_latency.record(*latency);
            }
            TraceEvent::RunEnded { step, .. } => s.steps = *step,
            _ => {}
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ThreadStarted {
                step: 0,
                thread: ThreadId(0),
                name: "t1".into(),
            },
            TraceEvent::ContextSwitch {
                step: 1,
                from: None,
                to: ThreadId(0),
                eligible: 2,
            },
            TraceEvent::CheckpointSaved {
                step: 2,
                thread: ThreadId(0),
                epoch: 1,
                reexecution: false,
            },
            TraceEvent::LockAcquired {
                step: 9,
                thread: ThreadId(0),
                lock: LockId(1),
                timed: true,
                waited: 5,
            },
            TraceEvent::FailureDetected {
                step: 12,
                thread: ThreadId(0),
                site: SiteId(3),
                kind: FailureKind::Deadlock,
            },
            TraceEvent::RolledBack {
                step: 12,
                thread: ThreadId(0),
                site: SiteId(3),
                retry: 1,
                undo_restored: 0,
                regs_undone: 4,
            },
            TraceEvent::RecoveryCompleted {
                step: 30,
                thread: ThreadId(0),
                site: SiteId(3),
                retries: 1,
                latency: 18,
            },
            TraceEvent::RunEnded {
                step: 31,
                outcome: "completed".into(),
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip() {
        let events = sample_events();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn jsonl_errors_carry_line_numbers() {
        let err =
            from_jsonl("{\"RunEnded\":{\"step\":1,\"outcome\":\"x\"}}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn event_buffer_shares_state_across_clones() {
        let buf = EventBuffer::new();
        let mut sink = buf.clone();
        sink.record(TraceEvent::RunEnded {
            step: 1,
            outcome: "completed".into(),
        });
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.take().len(), 1);
        assert!(buf.is_empty());
    }

    #[test]
    fn summary_rebuilds_metrics() {
        let m = summarize_events(&sample_events());
        assert_eq!(m.steps, 31);
        assert_eq!(m.checkpoints, 1);
        assert_eq!(m.checkpoint_reexecutions, 0);
        assert_eq!(m.rollbacks, 1);
        assert_eq!(m.total_retries(), 1);
        assert_eq!(
            m.max_recovery_steps(),
            Some(18),
            "failed at 12, recovered at 30"
        );
        assert_eq!(m.rollback_latency.max(), Some(18));
        assert_eq!(m.lock_waits.count(), 1);
        assert_eq!(m.undo_depth.count(), 1);
        assert_eq!(m.undo_depth.max(), Some(4));
        assert_eq!(m.context_switches, 0, "first pick is not a switch");
    }

    #[test]
    fn chrome_trace_shape() {
        let v = to_chrome_trace(&sample_events());
        let entries = v["traceEvents"].as_array().unwrap();
        assert_eq!(entries.len(), sample_events().len());
        // The waited lock acquisition became a complete event.
        let x = entries
            .iter()
            .find(|e| e["ph"] == "X")
            .expect("one X event");
        assert_eq!(x["ts"], 4u64); // 9 - 5
        assert_eq!(x["dur"], 5u64);
    }

    #[test]
    fn accessors_cover_all_variants() {
        for e in sample_events() {
            assert!(!e.kind_name().is_empty());
            let _ = e.step();
            let _ = e.thread();
        }
    }

    fn explore_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ExploreWave {
                step: 10,
                wave: 0,
                width: 16,
                executed: 14,
                wall_us: 9_000,
                capture_us: 1_000,
                restore_us: 500,
                interpret_us: 6_000,
                merge_us: 1_500,
            },
            TraceEvent::ExploreProgress {
                step: 10,
                schedules: 14,
                budget: 256,
                failures: 1,
                first_failure: Some(3),
                frontier: 7,
                snapshot_nodes: 12,
                resident_bytes: 8_192,
                steps_saved: 400,
                wave: 1,
            },
        ]
    }

    #[test]
    fn explore_events_roundtrip_jsonl() {
        let events = explore_events();
        let back = from_jsonl(&to_jsonl(&events)).unwrap();
        assert_eq!(back, events);
        assert_eq!(events[0].kind_name(), "explore-wave");
        assert_eq!(events[1].kind_name(), "explore-progress");
        assert_eq!(events[0].step(), 10);
        assert_eq!(events[1].thread(), None);
    }

    #[test]
    fn chrome_trace_gives_explore_events_their_own_track() {
        let v = to_chrome_trace(&explore_events());
        let entries = v["traceEvents"].as_array().unwrap();
        // Wave span + 4 phase spans + 1 progress instant.
        assert_eq!(entries.len(), 6);
        for e in entries {
            assert_eq!(e["pid"], 2u64, "explore events live on pid 2");
        }
        let wave = &entries[0];
        assert_eq!(wave["ph"], "X");
        assert_eq!(wave["ts"], 1_000u64); // 10ms*1000 - 9000µs
        assert_eq!(wave["dur"], 9_000u64);
        assert_eq!(wave["tid"], 0u64);
        // Phases are back-to-back on tid 1, starting at the wave start.
        assert_eq!(entries[1]["tid"], 1u64);
        assert_eq!(entries[1]["ts"], 1_000u64);
        assert_eq!(entries[2]["ts"], 2_000u64);
        let progress = &entries[5];
        assert_eq!(progress["ph"], "i");
        assert_eq!(progress["ts"], 10_000u64);
    }
}
