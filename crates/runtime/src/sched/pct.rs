//! PCT: probabilistic concurrency testing (Burckhardt et al., ASPLOS '10).
//!
//! Each run draws a random priority permutation over the threads and `d−1`
//! *priority-change points* uniformly from `[1, k]` (`k` ≈ the run's
//! decision count, estimated by a probe run). The scheduler always runs
//! the highest-priority eligible thread; when the decision counter crosses
//! a change point, the thread just picked drops to a fresh low priority.
//! For a bug of depth `d` this guarantees detection probability at least
//! `1/(n·k^(d−1))` per run — which is why PCT finds shallow ordering and
//! atomicity bugs in tens of runs where uniform random scheduling needs
//! thousands.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::point::PointMask;
use super::{SchedContext, Scheduler};
use crate::locks::ThreadId;

/// PCT parameters.
#[derive(Debug, Clone, Copy)]
pub struct PctConfig {
    /// Bug depth `d`: the number of ordering constraints the target bug
    /// needs (`d−1` priority-change points are inserted). Depth 3 covers
    /// single order violations and atomicity violations.
    pub depth: usize,
    /// Estimated decisions per run `k` (change points are drawn from
    /// `[1, k]`). [`explore`](super::explore) measures it with a probe run.
    pub k: u64,
    /// The decision mask PCT runs under.
    pub mask: PointMask,
}

impl Default for PctConfig {
    fn default() -> Self {
        Self {
            depth: 3,
            k: 256,
            mask: PointMask::SYNC,
        }
    }
}

/// The PCT scheduler for one run.
#[derive(Debug, Clone)]
pub struct PctScheduler {
    cfg: PctConfig,
    rng: SmallRng,
    /// Per-thread priority; higher runs first. Initial values are
    /// `d+1 ..= d+n` (a random permutation), change points hand out
    /// `d−1, d−2, …, 1` — all below every initial value and distinct.
    priorities: Vec<u64>,
    /// Sorted decision counts at which the running thread is demoted.
    change_points: Vec<u64>,
    next_change: usize,
    decisions: u64,
    demotions: u64,
}

impl PctScheduler {
    /// A PCT scheduler for one run; `seed` draws both the priority
    /// permutation and the change points.
    pub fn new(seed: u64, cfg: PctConfig) -> Self {
        Self {
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            priorities: Vec::new(),
            change_points: Vec::new(),
            next_change: 0,
            decisions: 0,
            demotions: 0,
        }
    }

    /// Decisions made so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Priority demotions applied so far (change points crossed) — at most
    /// `depth − 1` per run, surfaced by the exploration observer.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    fn init(&mut self, threads: usize) {
        let d = self.cfg.depth.max(1) as u64;
        self.priorities = (0..threads).map(|i| d + 1 + i as u64).collect();
        // Fisher–Yates; the vendored rand has no shuffle helper.
        for i in (1..self.priorities.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            self.priorities.swap(i, j);
        }
        let k = self.cfg.k.max(1);
        self.change_points = (1..self.cfg.depth)
            .map(|_| self.rng.gen_range(1..=k))
            .collect();
        self.change_points.sort_unstable();
    }
}

impl Scheduler for PctScheduler {
    /// Reads only `ctx.eligible` and `ctx.threads` — which is what lets
    /// the explorer replay a run's picks down the snapshot tree without
    /// running the machine.
    fn pick(&mut self, ctx: &SchedContext<'_>) -> ThreadId {
        if self.priorities.is_empty() {
            self.init(ctx.threads.max(ctx.eligible.len()));
        }
        self.decisions += 1;
        let chosen = ctx
            .eligible
            .iter()
            .copied()
            .max_by_key(|t| self.priorities[t.index()])
            .expect("eligible is non-empty");
        // Crossing the i-th change point (1-based) demotes the running
        // thread to priority d−i — strictly below all initial priorities
        // and all earlier demotions.
        while self.next_change < self.change_points.len()
            && self.change_points[self.next_change] <= self.decisions
        {
            let d = self.cfg.depth.max(1) as u64;
            self.priorities[chosen.index()] = d - 1 - self.next_change as u64;
            self.next_change += 1;
            self.demotions += 1;
        }
        chosen
    }

    fn name(&self) -> &'static str {
        "pct"
    }

    fn decision_mask(&self) -> PointMask {
        self.cfg.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn picks(seed: u64, cfg: PctConfig, rounds: u64) -> Vec<usize> {
        let all = [ThreadId(0), ThreadId(1), ThreadId(2)];
        let mut s = PctScheduler::new(seed, cfg);
        (0..rounds)
            .map(|step| s.pick(&SchedContext::simple(&all, step)).index())
            .collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = PctConfig::default();
        assert_eq!(picks(11, cfg, 64), picks(11, cfg, 64));
    }

    #[test]
    fn seeds_draw_different_priority_orders() {
        let cfg = PctConfig::default();
        let first: Vec<usize> = (0..32).map(|s| picks(s, cfg, 1)[0]).collect();
        for t in 0..3 {
            assert!(
                first.contains(&t),
                "thread {t} never highest-priority across 32 seeds"
            );
        }
    }

    #[test]
    fn change_points_demote_the_running_thread() {
        // With k = 1 every change point fires on the first decision, so a
        // depth-2 run must switch threads after the first pick.
        let cfg = PctConfig {
            depth: 2,
            k: 1,
            mask: PointMask::SYNC,
        };
        let p = picks(5, cfg, 8);
        assert_ne!(p[0], p[1], "first pick demoted, second differs");
        assert!(
            p[1..].iter().all(|&t| t == p[1]),
            "single change point: priorities stable afterwards"
        );
    }

    #[test]
    fn highest_priority_runs_until_demoted() {
        // No change points (depth 1): the same thread is picked while
        // eligible.
        let cfg = PctConfig {
            depth: 1,
            k: 100,
            mask: PointMask::SYNC,
        };
        let p = picks(3, cfg, 16);
        assert!(p.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn respects_eligibility() {
        let cfg = PctConfig::default();
        let mut s = PctScheduler::new(9, cfg);
        let all = [ThreadId(0), ThreadId(1), ThreadId(2)];
        let top = s.pick(&SchedContext::simple(&all, 0));
        let without_top: Vec<ThreadId> = all.iter().copied().filter(|t| *t != top).collect();
        let mut ctx = SchedContext::simple(&without_top, 1);
        ctx.threads = 3;
        let next = s.pick(&ctx);
        assert_ne!(next, top);
    }

    #[test]
    fn counts_decisions_and_demotions() {
        // k = 1: every change point fires on the first decision.
        let cfg = PctConfig {
            depth: 3,
            k: 1,
            mask: PointMask::SYNC,
        };
        let mut s = PctScheduler::new(7, cfg);
        let all = [ThreadId(0), ThreadId(1)];
        for step in 0..4 {
            s.pick(&SchedContext::simple(&all, step));
        }
        assert_eq!(s.decisions(), 4);
        assert_eq!(s.demotions(), 2, "depth 3 ⇒ two change points");
    }
}
