//! Dynamic partial-order reduction (Flanagan–Godefroid) over the bounded
//! explorer's frontier: persistent-set backtracking with sleep sets.
//!
//! Where the bounded search enqueues *every* unchosen eligible thread at
//! every consult, DPOR enqueues only the alternatives that reverse a
//! detected **race**: after each executed schedule, the engine assigns a
//! [`VectorClock`] to every decision (program order plus an edge from each
//! *dependent* — non-commuting by [`Footprint::independent`] — earlier
//! step) and, for each pair of dependent steps neither of which
//! happens-before the other, inserts a backtrack candidate at the earlier
//! step that forces the later step's thread there instead. Schedules that
//! merely reorder independent steps are never generated, because
//! reordering them reaches the same state.
//!
//! Two classic refinements keep the persistent sets tight:
//!
//! * **Sleep sets** — when a node's subtree has been fully explored under
//!   choice `t`, siblings explored later carry `t` in their sleep set
//!   until a step dependent with `t`'s pending operation wakes it;
//!   spawning a sleeping alternative (or executing one) is provably
//!   redundant and skipped.
//! * **Node table** — every branch node the search has seen records the
//!   choices already explored there (keyed by decision-prefix hash), so a
//!   race detected again along a sibling path cannot re-spawn the same
//!   candidate.
//!
//! The analysis runs on the exploring thread, in schedule-index order,
//! over each run's *composed* consult history — the candidate's inherited
//! prefix ([`Hist`], shared `Arc` slices of ancestor runs' consults) plus
//! the consults the run recorded live past its snapshot resume point — so
//! results are deterministic and bit-identical across `--jobs` and
//! snapshot-cache settings, exactly like the bounded search.
//!
//! Soundness rests on the commutation axiom (two adjacent independent
//! steps reach the same state in either order), which holds only when a
//! consult's transition is a single shared instruction wide: DPOR
//! therefore requires a decision mask containing
//! [`PointKind::SharedAccess`](super::PointKind::SharedAccess), and
//! [`explore`](super::explore) upgrades narrower masks automatically. The
//! axiom itself is pinned by a property test over the workload catalog
//! (`tests/independence.rs`).

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use super::bounded::Consult;
use super::footprint::{Footprint, VectorClock};
use crate::locks::ThreadId;

/// DPOR search counters, reported in
/// [`ExploreReport::dpor`](super::ExploreReport). All three are functions
/// of the search alone — deterministic across `--jobs` and snapshot-cache
/// settings (pinned by tests) — but [`normalized`] reports zero them
/// anyway, like the cache counters, so pre-DPOR and non-DPOR reports stay
/// comparable.
///
/// [`normalized`]: super::ExploreReport::normalized
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DporCounters {
    /// Reversible races detected in executed schedules (dependent step
    /// pairs with concurrent vector clocks).
    pub races_detected: u64,
    /// Backtrack candidates inserted into the frontier.
    pub backtrack_points: u64,
    /// Backtrack alternatives suppressed because they were asleep at the
    /// target node.
    pub sleep_skips: u64,
}

/// One consult range borrowed from an executed run's recorded consults.
#[derive(Clone)]
struct HistSlice {
    src: Arc<Vec<Consult>>,
    off: usize,
    len: usize,
}

/// The composed consult history of a candidate's forced prefix: decision
/// indices `[0, len)` covered by shared slices of ancestor runs' consults,
/// ending with the branch consult (the parent's consult at the reversal
/// point, re-recorded with the forced alternative as its choice). Runs
/// resumed from a mid-tree snapshot record no consults below the resume
/// depth, so the race analysis reads the missing ones from here.
#[derive(Clone, Default)]
pub(crate) struct Hist {
    slices: Vec<HistSlice>,
    total: usize,
}

impl Hist {
    pub(crate) fn len(&self) -> usize {
        self.total
    }

    fn get(&self, mut i: usize) -> &Consult {
        for s in &self.slices {
            if i < s.len {
                return &s.src[s.off + i];
            }
            i -= s.len;
        }
        panic!("Hist index {i} past composed history");
    }

    /// The first `n` consults, sharing the underlying slices.
    fn truncated(&self, n: usize) -> Hist {
        let mut out = Hist::default();
        let mut left = n;
        for s in &self.slices {
            if left == 0 {
                break;
            }
            let take = left.min(s.len);
            out.slices.push(HistSlice {
                src: s.src.clone(),
                off: s.off,
                len: take,
            });
            out.total += take;
            left -= take;
        }
        debug_assert_eq!(left, 0, "truncation within history");
        out
    }

    /// Appends one branch consult.
    fn pushed(mut self, c: Consult) -> Hist {
        self.slices.push(HistSlice {
            src: Arc::new(vec![c]),
            off: 0,
            len: 1,
        });
        self.total += 1;
        self
    }
}

/// A candidate in a systematic search's frontier: a forced prefix and the
/// preemptions it spends. DPOR's backtrack candidates also carry the
/// inherited consult history and the sleep set at their branch; the
/// bounded search's leave both empty.
pub(crate) struct Candidate {
    /// Forced decision prefix: the spawning run's decisions up to the
    /// reversal point, then the reversed thread.
    pub prefix: Vec<u32>,
    /// Preemptions the prefix spends.
    pub cost: usize,
    /// Sleep set at the state right after the branch decision: threads
    /// (with the footprint of their pending step, frozen while they
    /// sleep) whose exploration from here is provably redundant.
    pub sleep: Vec<(ThreadId, Footprint)>,
    /// Composed consult history of `prefix`.
    pub hist: Hist,
}

impl Candidate {
    /// A candidate with an empty sleep set and history.
    pub(crate) fn new(prefix: Vec<u32>, cost: usize) -> Self {
        Self {
            prefix,
            cost,
            sleep: Vec::new(),
            hist: Hist::default(),
        }
    }

    /// The search root: empty prefix (the non-preemptive probe).
    pub(crate) fn root() -> Self {
        Self::new(Vec::new(), 0)
    }
}

/// Search state at one branch node, keyed by decision-prefix hash in the
/// [`NodeTable`].
struct NodeState {
    /// Sleep set inherited when the node was first reached.
    sleep: Vec<(ThreadId, Footprint)>,
    /// Choices already executed or enqueued at this node.
    explored: Vec<ThreadId>,
}

/// Every branch node (consult with ≥ 2 eligible threads) the search has
/// executed through, accumulated across the whole exploration on the
/// exploring thread.
#[derive(Default)]
pub(crate) struct NodeTable {
    nodes: HashMap<u64, NodeState>,
}

/// What analyzing one executed run produced.
#[derive(Default)]
pub(crate) struct Analysis {
    /// New backtrack candidates, in deterministic (decision index,
    /// thread) discovery order.
    pub candidates: Vec<Candidate>,
    /// Races detected (including ones whose reversal was already explored
    /// or asleep).
    pub races: u64,
    /// Alternatives suppressed by a sleep set.
    pub sleep_skips: u64,
}

/// An executed run's full consult view: inherited history below the
/// candidate's prefix, live consults (recorded from the snapshot resume
/// depth `consult_base`) above it.
struct RunView<'a> {
    hist: &'a Hist,
    own: &'a Arc<Vec<Consult>>,
    consult_base: usize,
}

impl RunView<'_> {
    fn len(&self) -> usize {
        self.consult_base + self.own.len()
    }

    fn get(&self, i: usize) -> &Consult {
        if i < self.hist.len() {
            self.hist.get(i)
        } else {
            &self.own[i - self.consult_base]
        }
    }

    /// The composed history of decisions `[0, j)` — a child candidate's
    /// inheritance.
    fn prefix_hist(&self, j: usize) -> Hist {
        if j <= self.hist.len() {
            self.hist.truncated(j)
        } else {
            let mut h = self.hist.clone();
            h.slices.push(HistSlice {
                src: self.own.clone(),
                off: h.total - self.consult_base,
                len: j - h.total,
            });
            h.total = j;
            h
        }
    }
}

fn asleep(sleep: &[(ThreadId, Footprint)], t: ThreadId) -> bool {
    sleep.iter().any(|&(s, _)| s == t)
}

/// Analyzes one executed run: assigns vector clocks, detects reversible
/// races, and spawns the backtrack candidates that reverse them.
///
/// `cand` is the candidate that ran ([`Candidate::root`] for the
/// probe), `own`/`consult_base` the consults the run recorded live,
/// `decisions` its full decision trace (always recorded from zero — the
/// resume snapshot restores the decision log), `bound` the preemption
/// budget, and `hash_prefix` the explorer's prefix-hash function (node
/// keys share the dedup set's hashing).
#[allow(clippy::too_many_arguments)]
pub(crate) fn analyze(
    cand: &Candidate,
    own: &Arc<Vec<Consult>>,
    consult_base: usize,
    decisions: &[u32],
    threads: usize,
    bound: usize,
    nodes: &mut NodeTable,
    hash_prefix: impl Fn(&[u32]) -> u64,
) -> Analysis {
    let view = RunView {
        hist: &cand.hist,
        own,
        consult_base,
    };
    let n = view.len().min(decisions.len());
    debug_assert_eq!(view.len(), decisions.len(), "one consult per decision");
    let prefix_len = cand.prefix.len();
    // Only races whose later step is new to this run (at or past the
    // branch decision) spawn candidates: earlier pairs lie in the shared
    // prefix and were analyzed when an ancestor executed it.
    let spawn_floor = prefix_len.saturating_sub(1);

    let mut out = Analysis::default();
    // Happens-before state. `thread_clock[t]` is the clock of t's last
    // step (its accumulated knowledge); the per-object maps hold the last
    // dependent accesses: per lock the last operation, per address the
    // last write and the reads since it, plus the last step of every
    // thread (for Opaque steps, which conservatively depend on
    // everything) and the last Opaque step (which everything depends on).
    let mut thread_clock: Vec<VectorClock> = vec![VectorClock::new(threads); threads];
    let mut last_step: Vec<Option<(usize, ThreadId, VectorClock)>> = vec![None; threads];
    let mut lock_last: HashMap<u32, (usize, ThreadId, VectorClock)> = HashMap::new();
    let mut write_last: HashMap<i64, (usize, ThreadId, VectorClock)> = HashMap::new();
    let mut reads_since: HashMap<i64, Vec<(usize, ThreadId, VectorClock)>> = HashMap::new();
    let mut opaque_last: Option<(usize, ThreadId, VectorClock)> = None;
    // Preemptions spent by decisions `[0, i)` — candidate costs.
    let mut pre: Vec<usize> = Vec::with_capacity(n);
    let mut used = 0usize;
    // Sleep set propagated along the run from the branch onward.
    let mut cur_sleep = cand.sleep.clone();
    let mut redundant = false;
    // Each thread's pending next operation: recorded whenever the thread
    // is eligible but passed over, consumed when it executes. Threads
    // whose entry survives the walk never ran their pending op — the run
    // aborted (failure, deadlock) with it still in flight — and get a
    // virtual race check below, the executed-trace analog of
    // Flanagan–Godefroid's `next(s, p)`.
    let mut pending: Vec<Option<Footprint>> = vec![None; threads];

    for i in 0..n {
        let c = view.get(i);
        let p = c.chosen;
        let fp = c.footprint_for(p);
        for &q in &c.eligible {
            pending[q.index()] = Some(c.footprint_for(q));
        }
        pending[p.index()] = None;
        pre.push(used);
        used += usize::from(c.is_preemption());

        if i >= prefix_len && !redundant {
            // First run through a branch node records its inherited sleep
            // set and its own choice; later spawns at the node consult and
            // extend the entry.
            if c.eligible.len() >= 2 {
                nodes
                    .nodes
                    .entry(hash_prefix(&decisions[..i]))
                    .or_insert_with(|| NodeState {
                        sleep: cur_sleep.clone(),
                        explored: vec![p],
                    });
            }
            if asleep(&cur_sleep, p) {
                // The default continuation executed a sleeping thread: the
                // whole suffix is equivalent to schedules explored from the
                // sibling that put it to sleep. Stop spawning (the run
                // itself already executed and is counted).
                redundant = true;
            } else {
                cur_sleep.retain(|&(_, sfp)| sfp.independent(fp));
            }
        }

        // Dependent predecessors of step i, each a candidate race.
        let deps = collect_deps(
            fp,
            &lock_last,
            &write_last,
            &reads_since,
            &last_step,
            &opaque_last,
        );

        // Joining in ascending step order lets a dependence chain
        // `j → k → i` mark `j` as happened-before by the time it is
        // checked — only genuinely concurrent pairs count as races.
        //
        // Backtracking follows Flanagan–Godefroid: only the *latest*
        // concurrent dependent transition spawns a reversal here. Earlier
        // races along the same step re-surface in the reversed child's own
        // analysis (the spawn gate is on the later step's index, so a
        // child may backtrack below its own branch) — spawning all of them
        // at once would square the frontier on long dependence chains
        // without covering anything extra.
        let mut clock = thread_clock[p.index()].clone();
        let mut racing: Option<usize> = None;
        for &(j, q, cj) in &deps {
            if q == p {
                clock.join(cj);
                continue; // program order, never a race
            }
            if !cj.leq(&clock) {
                out.races += 1;
                racing = Some(j);
            }
            clock.join(cj);
        }
        if let Some(j) = racing {
            if i >= spawn_floor && !redundant {
                spawn(
                    &mut out,
                    &view,
                    decisions,
                    &pre,
                    j,
                    p,
                    bound,
                    nodes,
                    &hash_prefix,
                );
            }
        }
        clock.bump(p);

        match fp {
            Footprint::Lock(l) => {
                lock_last.insert(l, (i, p, clock.clone()));
            }
            Footprint::Read(a) => {
                reads_since
                    .entry(a)
                    .or_default()
                    .push((i, p, clock.clone()));
            }
            Footprint::Write(a) => {
                write_last.insert(a, (i, p, clock.clone()));
                reads_since.remove(&a);
            }
            Footprint::Opaque => {
                opaque_last = Some((i, p, clock.clone()));
            }
        }
        last_step[p.index()] = Some((i, p, clock.clone()));
        thread_clock[p.index()] = clock;
    }

    // Virtual race check for pending-but-never-executed operations. A run
    // that aborts (assertion failure, deadlock) leaves threads whose next
    // step was recorded in consult footprints but never appeared as an
    // executed transition — analyzing executed pairs only would miss every
    // race against those steps, and a probe that fails immediately would
    // wrongly exhaust the search with its sibling schedules unexplored.
    if !redundant && n >= spawn_floor {
        for (q, slot) in pending.iter().enumerate().take(threads) {
            let Some(fq) = *slot else { continue };
            let q = ThreadId(q);
            let deps = collect_deps(
                fq,
                &lock_last,
                &write_last,
                &reads_since,
                &last_step,
                &opaque_last,
            );
            // Latest racing dependency only, as in the main loop.
            let mut clock = thread_clock[q.index()].clone();
            let mut racing: Option<usize> = None;
            for &(j, r, cj) in &deps {
                if r == q {
                    clock.join(cj);
                    continue;
                }
                if !cj.leq(&clock) {
                    out.races += 1;
                    racing = Some(j);
                }
                clock.join(cj);
            }
            if let Some(j) = racing {
                spawn(
                    &mut out,
                    &view,
                    decisions,
                    &pre,
                    j,
                    q,
                    bound,
                    nodes,
                    &hash_prefix,
                );
            }
        }
    }
    out
}

/// Dependent predecessors of a step with footprint `fp`, in ascending
/// decision order: the last same-lock operation, the last same-address
/// write (plus, for writes, the reads since it), every thread's last step
/// for Opaque footprints (conservatively dependent with everything), and
/// the last Opaque step for everything else.
fn collect_deps<'m>(
    fp: Footprint,
    lock_last: &'m HashMap<u32, (usize, ThreadId, VectorClock)>,
    write_last: &'m HashMap<i64, (usize, ThreadId, VectorClock)>,
    reads_since: &'m HashMap<i64, Vec<(usize, ThreadId, VectorClock)>>,
    last_step: &'m [Option<(usize, ThreadId, VectorClock)>],
    opaque_last: &'m Option<(usize, ThreadId, VectorClock)>,
) -> Vec<(usize, ThreadId, &'m VectorClock)> {
    let mut deps: Vec<(usize, ThreadId, &VectorClock)> = Vec::new();
    match fp {
        Footprint::Lock(l) => {
            if let Some(d) = lock_last.get(&l) {
                deps.push((d.0, d.1, &d.2));
            }
        }
        Footprint::Read(a) => {
            if let Some(d) = write_last.get(&a) {
                deps.push((d.0, d.1, &d.2));
            }
        }
        Footprint::Write(a) => {
            if let Some(d) = write_last.get(&a) {
                deps.push((d.0, d.1, &d.2));
            }
            if let Some(rs) = reads_since.get(&a) {
                deps.extend(rs.iter().map(|d| (d.0, d.1, &d.2)));
            }
        }
        Footprint::Opaque => {
            deps.extend(last_step.iter().flatten().map(|d| (d.0, d.1, &d.2)));
        }
    }
    if !matches!(fp, Footprint::Opaque) {
        if let Some(d) = opaque_last {
            deps.push((d.0, d.1, &d.2));
        }
    }
    deps.sort_by_key(|&(j, _, _)| j);
    deps
}

/// Spawns the backtrack alternatives reversing a race whose earlier step
/// is decision `j` and whose later step belongs to thread `p`: `p` itself
/// when it was eligible at `j`, else every other eligible thread (the
/// Flanagan–Godefroid fallback — some of them must run before `p`'s step
/// can move).
#[allow(clippy::too_many_arguments)]
fn spawn(
    out: &mut Analysis,
    view: &RunView<'_>,
    decisions: &[u32],
    pre: &[usize],
    j: usize,
    p: ThreadId,
    bound: usize,
    nodes: &mut NodeTable,
    hash_prefix: &impl Fn(&[u32]) -> u64,
) {
    let cj = view.get(j);
    // A node entry exists for every executed branch node (consults with
    // one eligible thread have no alternatives to spawn).
    let Some(node) = nodes.nodes.get_mut(&hash_prefix(&decisions[..j])) else {
        debug_assert!(cj.eligible.len() < 2, "branch node not recorded");
        return;
    };
    let alts: Vec<ThreadId> = if cj.eligible.contains(&p) {
        vec![p]
    } else {
        cj.eligible
            .iter()
            .copied()
            .filter(|&t| t != cj.chosen)
            .collect()
    };
    for alt in alts {
        if node.explored.contains(&alt) {
            continue;
        }
        if asleep(&node.sleep, alt) {
            out.sleep_skips += 1;
            continue;
        }
        let cost = pre[j] + usize::from(cj.is_preemption_for(alt));
        if cost > bound {
            continue;
        }
        let alt_fp = cj.footprint_for(alt);
        // Classic sleep inheritance: siblings already explored here (and
        // the threads asleep at the node) sleep in the new child while
        // their pending step is independent of the child's branch step.
        let mut sleep: Vec<(ThreadId, Footprint)> = node.sleep.clone();
        sleep.extend(node.explored.iter().map(|&e| (e, cj.footprint_for(e))));
        sleep.retain(|&(t, sfp)| t != alt && sfp.independent(alt_fp));
        node.explored.push(alt);
        let mut prefix = decisions[..j].to_vec();
        prefix.push(alt.index() as u32);
        out.candidates.push(Candidate {
            prefix,
            cost,
            sleep,
            hist: view.prefix_hist(j).pushed(cj.with_chosen(alt)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consult(eligible: &[usize], chosen: usize, last: Option<usize>) -> Consult {
        Consult::new(
            eligible.iter().map(|&t| ThreadId(t)).collect(),
            ThreadId(chosen),
            last.map(ThreadId),
        )
    }

    fn with_fps(mut c: Consult, fps: &[Footprint]) -> Consult {
        c.footprints = fps.to_vec();
        c
    }

    fn hash(decisions: &[u32]) -> u64 {
        // Any injective-enough hash works for tests.
        decisions.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &d| {
            (h ^ u64::from(d)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Two threads racing on one address — with an unrelated write in
    /// between: the probe (t0 writes 8, t0 writes 99, t1 writes 8) must
    /// detect exactly the one write-write race on address 8 and spawn the
    /// reversal candidate at the root node.
    #[test]
    fn conflicting_writes_spawn_reversal() {
        let w8 = Footprint::Write(8);
        let consults = vec![
            with_fps(consult(&[0, 1], 0, None), &[w8, w8]),
            with_fps(consult(&[0, 1], 0, Some(0)), &[Footprint::Write(99), w8]),
            with_fps(consult(&[1], 1, Some(0)), &[w8]),
        ];
        let decisions = vec![0, 0, 1];
        let own = Arc::new(consults);
        let mut nodes = NodeTable::default();
        let a = analyze(
            &Candidate::root(),
            &own,
            0,
            &decisions,
            2,
            2,
            &mut nodes,
            hash,
        );
        assert_eq!(a.races, 1, "one write-write race, on address 8 only");
        assert_eq!(a.candidates.len(), 1);
        let cand = &a.candidates[0];
        assert_eq!(cand.prefix, vec![1], "reverse at the racing step");
        assert_eq!(cand.hist.len(), 1);
        assert_eq!(cand.hist.get(0).chosen, ThreadId(1), "branch override");
        assert_eq!(cand.cost, 0, "the first decision preempts nothing");
    }

    /// Independent accesses (distinct addresses) never race.
    #[test]
    fn independent_steps_spawn_nothing() {
        let consults = vec![
            with_fps(
                consult(&[0, 1], 0, None),
                &[Footprint::Write(8), Footprint::Write(16)],
            ),
            with_fps(consult(&[1], 1, Some(0)), &[Footprint::Write(16)]),
        ];
        let decisions = vec![0, 1];
        let own = Arc::new(consults);
        let mut nodes = NodeTable::default();
        let a = analyze(
            &Candidate::root(),
            &own,
            0,
            &decisions,
            2,
            2,
            &mut nodes,
            hash,
        );
        assert_eq!(a.races, 0);
        assert!(a.candidates.is_empty());
    }

    /// The node table suppresses re-spawning a reversal the search already
    /// holds, and the preemption bound drops over-budget candidates.
    #[test]
    fn node_table_dedups_and_bound_applies() {
        let w8 = Footprint::Write(8);
        // `last: Some(0)` makes switching to t1 at the first consult a
        // preemption, so the reversal costs one unit of budget.
        let consults = vec![
            with_fps(consult(&[0, 1], 0, Some(0)), &[w8, w8]),
            with_fps(consult(&[1], 1, Some(0)), &[w8]),
        ];
        let decisions = vec![0, 1];
        let own = Arc::new(consults);
        let mut nodes = NodeTable::default();
        let first = analyze(
            &Candidate::root(),
            &own,
            0,
            &decisions,
            2,
            1,
            &mut nodes,
            hash,
        );
        assert_eq!(first.candidates.len(), 1);
        // Re-analyzing the same run (as if a sibling path re-detected the
        // race) spawns nothing new.
        let again = analyze(
            &Candidate::root(),
            &own,
            0,
            &decisions,
            2,
            1,
            &mut nodes,
            hash,
        );
        assert!(again.candidates.is_empty(), "node table dedups");
        // Bound 0 admits no preemptive reversal at all.
        let mut fresh = NodeTable::default();
        let bounded = analyze(
            &Candidate::root(),
            &own,
            0,
            &decisions,
            2,
            0,
            &mut fresh,
            hash,
        );
        assert_eq!(bounded.races, again.races, "detection is bound-independent");
        assert!(bounded.candidates.is_empty(), "reversal costs a preemption");
    }

    /// A run that aborts before a conflicting pending operation executes
    /// (the failing-probe shape: the reader crashes before the writer's
    /// store ever runs) must still spawn the reversal — the virtual-step
    /// pass over pending footprints.
    #[test]
    fn aborted_run_reverses_pending_conflict() {
        // t0 reads address 8 and the run ends (assertion failure); t1 was
        // eligible the whole time with a pending Write(8) that never ran.
        let consults = vec![with_fps(
            consult(&[0, 1], 0, None),
            &[Footprint::Read(8), Footprint::Write(8)],
        )];
        let decisions = vec![0];
        let own = Arc::new(consults);
        let mut nodes = NodeTable::default();
        let a = analyze(
            &Candidate::root(),
            &own,
            0,
            &decisions,
            2,
            2,
            &mut nodes,
            hash,
        );
        assert_eq!(a.races, 1, "pending write vs executed read");
        assert_eq!(a.candidates.len(), 1);
        assert_eq!(a.candidates[0].prefix, vec![1], "run the writer first");
    }

    /// Hist composition: truncation and the branch override share slices.
    #[test]
    fn hist_slices_compose() {
        let base = Arc::new(vec![
            consult(&[0, 1], 0, None),
            consult(&[0, 1], 0, Some(0)),
            consult(&[0, 1], 1, Some(0)),
        ]);
        let view = RunView {
            hist: &Hist::default(),
            own: &base,
            consult_base: 0,
        };
        let h = view.prefix_hist(2).pushed(base[2].with_chosen(ThreadId(0)));
        assert_eq!(h.len(), 3);
        assert_eq!(h.get(0).chosen, ThreadId(0));
        assert_eq!(h.get(2).chosen, ThreadId(0), "override applied");
        let t = h.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1).chosen, ThreadId(0));
    }
}
