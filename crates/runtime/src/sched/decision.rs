//! Recorded scheduler decisions — the serialized schedule.
//!
//! A [`DecisionTrace`] is the compact log of every pick the machine asked
//! its scheduler for during one run: one `u32` thread index per decision
//! point, plus the [`PointMask`](super::PointMask) the decisions were made
//! under. Because the interpreter is deterministic, *(program, config,
//! decision trace)* fully determines a run — replaying the trace with a
//! [`ReplayScheduler`](super::ReplayScheduler) under the same machine
//! config reproduces the original `RunOutcome` bit-identically.

use serde::{Deserialize, Serialize};

use super::point::PointMask;
use crate::locks::ThreadId;

/// One run's scheduling decisions, in decision order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionTrace {
    /// The strategy that produced the schedule (informational).
    pub scheduler: String,
    /// The seed the strategy ran with (informational; replay does not
    /// need it).
    pub seed: u64,
    /// [`PointMask`] bits the decisions were recorded under. Replay *must*
    /// use the same mask, or decision points would not line up.
    pub mask: u8,
    /// The chosen thread index at each decision point.
    pub decisions: Vec<u32>,
}

impl DecisionTrace {
    /// An empty trace for a strategy.
    pub fn new(scheduler: impl Into<String>, seed: u64, mask: PointMask) -> Self {
        Self {
            scheduler: scheduler.into(),
            seed,
            mask: mask.bits(),
            decisions: Vec::new(),
        }
    }

    /// Appends a decision.
    #[inline]
    pub fn push(&mut self, tid: ThreadId) {
        self.decisions.push(tid.index() as u32);
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether no decision was recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The decision mask.
    pub fn point_mask(&self) -> PointMask {
        PointMask::from_bits(self.mask)
    }

    /// A stable 64-bit FNV-1a hash over the *schedule identity* — the mask
    /// and the decision sequence, deliberately excluding the strategy name
    /// and seed so the same interleaving found by different strategies
    /// hashes equal.
    pub fn hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        };
        eat(self.mask);
        for d in &self.decisions {
            for b in d.to_le_bytes() {
                eat(b);
            }
        }
        h
    }

    /// Serializes to pretty JSON (the `--out` / `--replay` file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("decision trace serializes")
    }

    /// Parses the JSON form.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, and on a mask with bits outside
    /// [`PointMask::ALL`]: such a trace would replay under the truncated
    /// mask but hash differently from it, so its hash would not survive a
    /// replay-and-record round trip.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let trace: Self =
            serde_json::from_str(text).map_err(|e| format!("invalid decision trace: {e}"))?;
        let undefined = trace.mask & !PointMask::ALL.bits();
        if undefined != 0 {
            return Err(format!(
                "invalid decision trace: mask {:#04x} sets undefined point bits {undefined:#04x}",
                trace.mask
            ));
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let mut t = DecisionTrace::new("pct", 7, PointMask::SYNC);
        t.push(ThreadId(0));
        t.push(ThreadId(2));
        t.push(ThreadId(1));
        let back = DecisionTrace::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.len(), 3);
        assert_eq!(back.point_mask(), PointMask::SYNC);
    }

    #[test]
    fn hash_ignores_provenance_but_not_schedule() {
        let mut a = DecisionTrace::new("pct", 1, PointMask::SYNC);
        let mut b = DecisionTrace::new("bounded", 99, PointMask::SYNC);
        for d in [0, 1, 1, 0] {
            a.push(ThreadId(d));
            b.push(ThreadId(d));
        }
        assert_eq!(a.hash(), b.hash(), "provenance excluded");
        b.push(ThreadId(0));
        assert_ne!(a.hash(), b.hash(), "decisions included");
        let c = DecisionTrace::new("pct", 1, PointMask::ALL);
        let d = DecisionTrace::new("pct", 1, PointMask::SYNC);
        assert_ne!(c.hash(), d.hash(), "mask included");
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(DecisionTrace::from_json("not json").is_err());
    }

    #[test]
    fn undefined_mask_bits_are_an_error() {
        let mut t = DecisionTrace::new("pct", 7, PointMask::ALL);
        t.push(ThreadId(1));
        assert!(DecisionTrace::from_json(&t.to_json()).is_ok());
        t.mask = 0xFF;
        let err = DecisionTrace::from_json(&t.to_json()).unwrap_err();
        assert!(err.contains("undefined point bits 0x80"), "{err}");
    }
}
