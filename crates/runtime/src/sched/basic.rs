//! The original strategies: deterministic round-robin and seeded random.
//!
//! Both keep the default [`PointMask::ALL`](super::PointMask::ALL) mask —
//! they see a consult before every instruction, exactly as before the
//! scheduler layer grew decision masks, so every historical seed still
//! produces the same interleaving. The random pick reduces one draw with
//! a mask when the eligible count is a power of two and `%` otherwise —
//! the value `gen_range` gives for the same draw, without its division on
//! the one- and two-thread consults that dominate scripted runs.
//!
//! Most consults of a scripted run have one eligible thread, and the
//! machine runs the local work of such a lone thread as one span, then
//! settles the span's consults in one [`Scheduler::forced`] call. Both
//! strategies settle them without picking: round-robin's cursor ends at
//! zero after any lone pick, and the random strategy jumps its generator
//! past the draws those picks would have made ([`SmallRng::advance`]).

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use super::{SchedContext, Scheduler};
use crate::locks::ThreadId;

/// Deterministic round-robin.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn pick(&mut self, ctx: &SchedContext<'_>) -> ThreadId {
        // Rotate over eligible threads by a moving cursor on thread ids, so
        // the choice is stable regardless of how eligibility fluctuates.
        let chosen = ctx
            .eligible
            .iter()
            .copied()
            .find(|t| t.index() >= self.next)
            .unwrap_or(ctx.eligible[0]);
        self.next = chosen.index() + 1;
        if ctx.eligible.iter().all(|t| t.index() < self.next) {
            self.next = 0;
        }
        chosen
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }

    /// A pick from one eligible thread leaves the cursor past every
    /// eligible id, so it wraps to zero.
    fn forced(&mut self, _first: &SchedContext<'_>, n: u64) {
        if n > 0 {
            self.next = 0;
        }
    }
}

/// Seeded uniform-random scheduler; the workhorse for overhead and
/// recovery trials (same seed ⇒ same interleaving).
#[derive(Debug)]
pub struct SeededRandom {
    rng: SmallRng,
}

impl SeededRandom {
    /// Creates a random scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for SeededRandom {
    fn pick(&mut self, ctx: &SchedContext<'_>) -> ThreadId {
        let n = ctx.eligible.len() as u64;
        let x = self.rng.next_u64();
        let i = if n.is_power_of_two() {
            x & (n - 1)
        } else {
            x % n
        };
        ctx.eligible[i as usize]
    }

    fn name(&self) -> &'static str {
        "seeded-random"
    }

    /// Each lone pick spends one draw and nothing else.
    fn forced(&mut self, _first: &SchedContext<'_>, n: u64) {
        self.rng.advance(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scheduler state after `n` lone consults of thread 2 settled by
    /// `forced`, against the state after `n` picks.
    fn forced_vs_picked<S: Scheduler + std::fmt::Debug>(make: impl Fn() -> S) {
        let lone = [ThreadId(2)];
        let all = [ThreadId(0), ThreadId(1), ThreadId(2), ThreadId(3)];
        for n in [0, 1, 2, 17, 1000] {
            let (mut forced, mut picked) = (make(), make());
            // A few mixed picks first, so the cursor / draw count is not
            // at its initial value.
            for s in [&mut forced, &mut picked] {
                for step in 0..3 {
                    s.pick(&SchedContext::simple(&all[..1 + step as usize], step));
                }
            }
            let mut first = SchedContext::simple(&lone, 10);
            first.last = Some(ThreadId(2));
            forced.forced(&first, n);
            for k in 0..n {
                let mut ctx = SchedContext::simple(&lone, 10 + k);
                ctx.last = Some(ThreadId(2));
                assert_eq!(picked.pick(&ctx), ThreadId(2));
            }
            assert_eq!(format!("{forced:?}"), format!("{picked:?}"), "n {n}");
            let after: Vec<_> = (0..16)
                .map(|step| forced.pick(&SchedContext::simple(&all, step)))
                .collect();
            let twin: Vec<_> = (0..16)
                .map(|step| picked.pick(&SchedContext::simple(&all, step)))
                .collect();
            assert_eq!(after, twin, "n {n}");
        }
    }

    #[test]
    fn forced_matches_lone_picks() {
        forced_vs_picked(RoundRobin::new);
        for seed in [0, 1, 7, 0xdead_beef] {
            forced_vs_picked(|| SeededRandom::new(seed));
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        let all = [ThreadId(0), ThreadId(1), ThreadId(2)];
        let picks: Vec<usize> = (0..6)
            .map(|s| rr.pick(&SchedContext::simple(&all, s)).index())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_ineligible() {
        let mut rr = RoundRobin::new();
        let some = [ThreadId(0), ThreadId(2)];
        let a = rr.pick(&SchedContext::simple(&some, 0)).index();
        let b = rr.pick(&SchedContext::simple(&some, 1)).index();
        assert_eq!((a, b), (0, 2));
    }

    #[test]
    fn seeded_random_is_deterministic() {
        let all = [ThreadId(0), ThreadId(1), ThreadId(2), ThreadId(3)];
        let run = |seed| {
            let mut s = SeededRandom::new(seed);
            (0..32)
                .map(|step| s.pick(&SchedContext::simple(&all, step)).index())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    /// The masked pick is `gen_range`'s draw: for every eligible count
    /// 1..=9, the same thread as `eligible[gen_range(0..n)]` on a twin
    /// generator, which ends in the same state.
    #[test]
    fn seeded_random_pick_matches_gen_range() {
        use rand::Rng;
        let all: Vec<ThreadId> = (0..9).map(ThreadId).collect();
        for n in 1..=9 {
            let eligible = &all[..n];
            for seed in [0, 1, 7, 42, 0xdead_beef, u64::MAX] {
                let mut s = SeededRandom::new(seed);
                let mut twin = SmallRng::seed_from_u64(seed);
                for step in 0..10_000 {
                    let got = s.pick(&SchedContext::simple(eligible, step));
                    assert_eq!(got, eligible[twin.gen_range(0..n)], "n {n} seed {seed}");
                }
                assert_eq!(
                    format!("{:?}", s.rng),
                    format!("{twin:?}"),
                    "n {n} seed {seed}"
                );
            }
        }
    }
}
