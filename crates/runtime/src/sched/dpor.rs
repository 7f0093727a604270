//! Dynamic partial-order reduction (Flanagan–Godefroid) over the bounded
//! explorer's frontier: persistent-set backtracking with sleep sets.
//!
//! Where the bounded search enqueues *every* unchosen eligible thread at
//! every consult, DPOR enqueues only the alternatives that reverse a
//! detected **race**: after each executed schedule, the engine assigns a
//! vector clock to every decision (program order plus an edge from each
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
//!   choices already explored there, so a race detected again along a
//!   sibling path cannot re-spawn the same candidate. A node is identified
//!   by a dense id stamped on its branch consult ([`Consult`]) the first
//!   time a run reaches it, never by a hash of its decision prefix.
//!
//! The analysis runs on the exploring thread, in schedule-index order,
//! over each run's *composed* consult history — the candidate's inherited
//! prefix ([`Hist`], shared `Arc` slices of ancestor runs' consults) plus
//! the consults the run recorded live past its snapshot resume point — so
//! results are deterministic and bit-identical across `--jobs` and
//! snapshot-cache settings, exactly like the bounded search. The history
//! is flattened once per run, and the clocks live in one flat arena with
//! a row per decision, so the analysis is linear in run length and
//! allocates nothing per decision.
//!
//! Soundness rests on the commutation axiom (two adjacent independent
//! steps reach the same state in either order), which holds only when a
//! consult's transition is a single shared instruction wide: DPOR
//! therefore requires a decision mask containing
//! [`PointKind::SharedAccess`](super::PointKind::SharedAccess), and
//! [`explore`](super::explore) upgrades narrower masks automatically. The
//! axiom itself is pinned by a property test over the workload catalog
//! (`tests/independence.rs`).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use super::bounded::Consult;
use super::footprint::{clock_join, clock_leq, Footprint};
use super::WordMap;
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

    #[cfg(test)]
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

/// Search state at one branch node, at its id's slot in [`Dpor`]'s node
/// table.
struct NodeState {
    /// Sleep set inherited when the node was first reached.
    sleep: Vec<(ThreadId, Footprint)>,
    /// Choices already executed or enqueued at this node.
    explored: Vec<ThreadId>,
}

/// DPOR's state on the exploring thread: the node table — every branch
/// node (consult with ≥ 2 eligible threads) the search has executed
/// through, indexed by the id stamped on the node's consult — and the
/// buffers [`Dpor::analyze`] reuses from run to run.
#[derive(Default)]
pub(crate) struct Dpor {
    nodes: Vec<NodeState>,
    /// One vector clock per decision of the analyzed run, `threads` words
    /// each: row `i` is the clock of step `i` after its own event.
    clocks: Vec<u32>,
    /// Preemptions spent by decisions `[0, i)` — candidate costs.
    pre: Vec<usize>,
    /// Dependent predecessors of the step being analyzed.
    deps: Vec<usize>,
    /// Last operation per lock.
    lock_last: WordMap<u32, usize>,
    /// Last write per address.
    write_last: WordMap<i64, usize>,
    /// Reads per address since its last write.
    reads_since: WordMap<i64, Vec<usize>>,
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
/// depth `consult_base`) above it, flattened once into `steps`.
struct RunView<'a> {
    hist: &'a Hist,
    own: &'a Arc<Vec<Consult>>,
    consult_base: usize,
    /// The consult of every decision, in order.
    steps: Vec<&'a Consult>,
}

impl<'a> RunView<'a> {
    fn new(hist: &'a Hist, own: &'a Arc<Vec<Consult>>, consult_base: usize) -> Self {
        let mut steps = Vec::with_capacity(consult_base + own.len());
        for s in &hist.slices {
            steps.extend(&s.src[s.off..s.off + s.len]);
        }
        steps.extend(&own[hist.len() - consult_base..]);
        Self {
            hist,
            own,
            consult_base,
            steps,
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

impl Dpor {
    /// Analyzes one executed run: assigns vector clocks, detects reversible
    /// races, and spawns the backtrack candidates that reverse them.
    ///
    /// `cand` is the candidate that ran ([`Candidate::root`] for the
    /// probe), `own`/`consult_base` the consults the run recorded live,
    /// `decisions` its full decision trace (always recorded from zero —
    /// the resume snapshot restores the decision log) and `bound` the
    /// preemption budget.
    ///
    /// Every branch consult the run reached past its forced prefix is a
    /// node no earlier run passed: the run's last forced decision deviates
    /// from the default continuation, and every other run continues by
    /// default past its own prefix. So each such consult is stamped with a
    /// fresh node id before `own` is shared, and children inherit the
    /// stamped consults through their [`Hist`]. Node identity never rests
    /// on a hash of the decision prefix.
    pub(crate) fn analyze(
        &mut self,
        cand: &Candidate,
        mut own: Vec<Consult>,
        consult_base: usize,
        decisions: &[u32],
        threads: usize,
        bound: usize,
    ) -> Analysis {
        let prefix_len = cand.prefix.len();
        debug_assert_eq!(cand.hist.len(), prefix_len, "history covers the prefix");
        debug_assert!(consult_base <= prefix_len, "resume point is an ancestor");
        debug_assert_eq!(
            consult_base + own.len(),
            decisions.len(),
            "one consult per decision"
        );
        // Only races whose later step is new to this run (at or past the
        // branch decision) spawn candidates: earlier pairs lie in the
        // shared prefix and were analyzed when an ancestor executed it.
        let spawn_floor = prefix_len.saturating_sub(1);

        // Propagate the sleep set along the run from the branch onward,
        // recording each new branch node with its inherited sleep set and
        // its own choice; later spawns at the node consult and extend the
        // entry. A step that executes a sleeping thread makes the whole
        // suffix equivalent to schedules explored from the sibling that put
        // it to sleep: spawning stops from `live_until` on (the run itself
        // already executed and is counted).
        let mut cur_sleep = cand.sleep.clone();
        let mut live_until = decisions.len();
        for (i, c) in own
            .iter_mut()
            .enumerate()
            .skip(prefix_len - consult_base)
            .map(|(k, c)| (consult_base + k, c))
        {
            let p = c.chosen;
            if c.eligible.len() >= 2 {
                c.node = Some(self.nodes.len() as u32);
                self.nodes.push(NodeState {
                    sleep: cur_sleep.clone(),
                    explored: vec![p],
                });
            }
            if asleep(&cur_sleep, p) {
                live_until = i;
                break;
            }
            let fp = c.footprint_for(p);
            cur_sleep.retain(|&(_, sfp)| sfp.independent(fp));
        }

        let own = Arc::new(own);
        let view = RunView::new(&cand.hist, &own, consult_base);
        let n = view.steps.len().min(decisions.len());
        let mut out = Analysis::default();
        let Dpor {
            nodes,
            clocks,
            pre,
            deps,
            lock_last,
            write_last,
            reads_since,
        } = self;
        // Happens-before state. Row `i` of `clocks` is step `i`'s clock;
        // a thread's accumulated knowledge is the row of its last step.
        // The per-object maps hold the last dependent accesses: per lock
        // the last operation, per address the last write and the reads
        // since it, plus the last step of every thread (for Opaque steps,
        // which conservatively depend on everything) and the last Opaque
        // step (which everything depends on).
        clocks.clear();
        clocks.resize(n * threads, 0);
        pre.clear();
        lock_last.clear();
        write_last.clear();
        reads_since.values_mut().for_each(Vec::clear);
        let mut last_step: Vec<Option<usize>> = vec![None; threads];
        let mut opaque_last: Option<usize> = None;
        let mut used = 0usize;

        for i in 0..n {
            let c = view.steps[i];
            let p = c.chosen;
            let fp = c.footprint_for(p);
            pre.push(used);
            used += usize::from(c.is_preemption());

            // Dependent predecessors of step i, each a candidate race.
            collect_deps(
                fp,
                lock_last,
                write_last,
                reads_since,
                &last_step,
                opaque_last,
                deps,
            );
            let (done, rest) = clocks.split_at_mut(i * threads);
            let clock = &mut rest[..threads];
            if let Some(k) = last_step[p.index()] {
                clock.copy_from_slice(&done[k * threads..(k + 1) * threads]);
            }
            // Joining in ascending step order lets a dependence chain
            // `j → k → i` mark `j` as happened-before by the time it is
            // checked — only genuinely concurrent pairs count as races.
            //
            // Backtracking follows Flanagan–Godefroid: only the *latest*
            // concurrent dependent transition spawns a reversal here.
            // Earlier races along the same step re-surface in the reversed
            // child's own analysis (the spawn gate is on the later step's
            // index, so a child may backtrack below its own branch) —
            // spawning all of them at once would square the frontier on
            // long dependence chains without covering anything extra.
            let racing = join_deps(clock, done, threads, deps, &view.steps, p, &mut out.races);
            if let Some(j) = racing {
                if i >= spawn_floor && i < live_until {
                    spawn(&mut out, &view, decisions, pre, j, p, bound, nodes);
                }
            }
            clock[p.index()] += 1;

            match fp {
                Footprint::Lock(l) => {
                    lock_last.insert(l, i);
                }
                Footprint::Read(a) => reads_since.entry(a).or_default().push(i),
                Footprint::Write(a) => {
                    write_last.insert(a, i);
                    if let Some(reads) = reads_since.get_mut(&a) {
                        reads.clear();
                    }
                }
                Footprint::Opaque => opaque_last = Some(i),
            }
            last_step[p.index()] = Some(i);
        }

        // Virtual race check for pending-but-never-executed operations. A
        // run that aborts (assertion failure, deadlock) leaves threads
        // whose next step was recorded in consult footprints but never
        // appeared as an executed transition — analyzing executed pairs
        // only would miss every race against those steps, and a probe that
        // fails immediately would wrongly exhaust the search with its
        // sibling schedules unexplored.
        if live_until == decisions.len() && n >= spawn_floor {
            let mut clock = vec![0u32; threads];
            for (q, slot) in pending_ops(&view.steps[..n], threads).iter().enumerate() {
                let Some(fq) = *slot else { continue };
                let q = ThreadId(q);
                collect_deps(
                    fq,
                    lock_last,
                    write_last,
                    reads_since,
                    &last_step,
                    opaque_last,
                    deps,
                );
                match last_step[q.index()] {
                    Some(k) => clock.copy_from_slice(&clocks[k * threads..(k + 1) * threads]),
                    None => clock.fill(0),
                }
                // Latest racing dependency only, as in the main loop.
                let racing = join_deps(
                    &mut clock,
                    clocks,
                    threads,
                    deps,
                    &view.steps,
                    q,
                    &mut out.races,
                );
                if let Some(j) = racing {
                    spawn(&mut out, &view, decisions, pre, j, q, bound, nodes);
                }
            }
        }
        out
    }
}

/// Each thread's pending next operation at the end of a run: its footprint
/// at the last consult where it was eligible, unless it ran there. A
/// thread with a pending operation never ran it — the run aborted
/// (failure, deadlock) with it still in flight — and gets a virtual race
/// check, the executed-trace analog of Flanagan–Godefroid's `next(s, p)`.
fn pending_ops(steps: &[&Consult], threads: usize) -> Vec<Option<Footprint>> {
    let mut pending = vec![None; threads];
    let mut seen = vec![false; threads];
    let mut unseen = threads;
    for c in steps.iter().rev() {
        if unseen == 0 {
            break;
        }
        for (k, &q) in c.eligible.iter().enumerate() {
            if !std::mem::replace(&mut seen[q.index()], true) {
                unseen -= 1;
                if q != c.chosen {
                    pending[q.index()] = Some(c.footprints.get(k).copied().unwrap_or_default());
                }
            }
        }
    }
    pending
}

/// Fills `deps` with the dependent predecessors of a step with footprint
/// `fp`, in ascending decision order: the last same-lock operation, the
/// last same-address write (plus, for writes, the reads since it), every
/// thread's last step for Opaque footprints (conservatively dependent with
/// everything), and the last Opaque step for everything else.
fn collect_deps(
    fp: Footprint,
    lock_last: &WordMap<u32, usize>,
    write_last: &WordMap<i64, usize>,
    reads_since: &WordMap<i64, Vec<usize>>,
    last_step: &[Option<usize>],
    opaque_last: Option<usize>,
    deps: &mut Vec<usize>,
) {
    deps.clear();
    match fp {
        Footprint::Lock(l) => deps.extend(lock_last.get(&l)),
        Footprint::Read(a) => deps.extend(write_last.get(&a)),
        Footprint::Write(a) => {
            deps.extend(write_last.get(&a));
            if let Some(reads) = reads_since.get(&a) {
                deps.extend(reads);
            }
        }
        Footprint::Opaque => deps.extend(last_step.iter().flatten()),
    }
    if !matches!(fp, Footprint::Opaque) {
        deps.extend(opaque_last);
    }
    deps.sort_unstable();
}

/// Joins the clocks of `deps` (rows of `clocks`, all earlier than the step
/// whose clock is `clock`) into `clock` for a step of thread `p`, counting
/// each concurrent dependency by another thread as a race. Returns the
/// latest racing dependency.
fn join_deps(
    clock: &mut [u32],
    clocks: &[u32],
    threads: usize,
    deps: &[usize],
    steps: &[&Consult],
    p: ThreadId,
    races: &mut u64,
) -> Option<usize> {
    let mut racing = None;
    for &j in deps {
        let cj = &clocks[j * threads..(j + 1) * threads];
        // Program order is never a race.
        if steps[j].chosen != p && !clock_leq(cj, clock) {
            *races += 1;
            racing = Some(j);
        }
        clock_join(clock, cj);
    }
    racing
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
    nodes: &mut [NodeState],
) {
    let cj = view.steps[j];
    // Every executed branch consult carries its node's id (consults with
    // one eligible thread have no alternatives to spawn).
    let Some(id) = cj.node else {
        debug_assert!(cj.eligible.len() < 2, "branch node not recorded");
        return;
    };
    let node = &mut nodes[id as usize];
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

    /// Analyzes a from-scratch run of `cand` on `dpor`: `consults` were
    /// recorded from decision 0, over two threads.
    fn run(
        dpor: &mut Dpor,
        cand: &Candidate,
        consults: Vec<Consult>,
        decisions: &[u32],
        bound: usize,
    ) -> Analysis {
        dpor.analyze(cand, consults, 0, decisions, 2, bound)
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
        let mut nodes = Dpor::default();
        let a = run(
            &mut nodes,
            &Candidate::root(),
            consults.clone(),
            &decisions,
            2,
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
        let mut nodes = Dpor::default();
        let a = run(
            &mut nodes,
            &Candidate::root(),
            consults.clone(),
            &decisions,
            2,
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
        let mut dpor = Dpor::default();
        let first = run(
            &mut dpor,
            &Candidate::root(),
            consults.clone(),
            &decisions,
            1,
        );
        assert_eq!(first.candidates.len(), 1);
        let child = &first.candidates[0];
        assert_eq!(child.prefix, vec![1]);
        assert_eq!(
            child.hist.get(0).node,
            Some(0),
            "the branch consult keeps the root node's id"
        );
        // The child runs t1 then t0 and re-detects the same race, now with
        // t0's write second: its reversal (t0 first at the root) is the
        // probe itself, so nothing new spawns.
        let child_run = vec![
            with_fps(consult(&[0, 1], 1, Some(0)), &[w8, w8]),
            with_fps(consult(&[0], 0, Some(1)), &[w8]),
        ];
        let again = run(&mut dpor, child, child_run, &[1, 0], 1);
        assert_eq!(again.races, 1, "the race is detected again");
        assert!(again.candidates.is_empty(), "node table dedups");
        // Bound 0 admits no preemptive reversal at all.
        let mut fresh = Dpor::default();
        let bounded = run(&mut fresh, &Candidate::root(), consults, &decisions, 0);
        assert_eq!(bounded.races, first.races, "detection is bound-independent");
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
        let mut nodes = Dpor::default();
        let a = run(
            &mut nodes,
            &Candidate::root(),
            consults.clone(),
            &decisions,
            2,
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
        let hist = Hist::default();
        let view = RunView::new(&hist, &base, 0);
        let h = view.prefix_hist(2).pushed(base[2].with_chosen(ThreadId(0)));
        assert_eq!(h.len(), 3);
        assert_eq!(h.get(0).chosen, ThreadId(0));
        assert_eq!(h.get(2).chosen, ThreadId(0), "override applied");
        let t = h.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1).chosen, ThreadId(0));
    }
}
