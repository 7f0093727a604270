//! The shared resume runner: one prefix-keyed snapshot tree and one way to
//! execute a schedule from its deepest retained ancestor, used by every
//! search that re-executes schedules sharing decision prefixes.
//!
//! * **Bounded and DPOR** candidates carry a forced decision prefix; they
//!   resume from the deepest retained ancestor of that prefix
//!   ([`SnapshotTree::lookup`]: one hashing pass over the prefix, index
//!   probes at the depths that hold nodes, and an exact key compare
//!   before any resume).
//! * **PCT** runs have no forced prefix, but a PCT pick reads only the
//!   eligible set and the thread count. Each node stores the eligible set
//!   of the consult it precedes, and links record runs of single-choice
//!   decisions between branch points, so [`SnapshotTree::walk_pct`] can
//!   advance a run's [`PctScheduler`] down the retained nodes exactly as
//!   the machine would, and the run resumes from the deepest node on its
//!   own path.
//!
//! Lookups, walks and inserts all happen on the exploring thread in
//! schedule-index order, so hits, evictions and the LRU order are
//! deterministic and identical across `--jobs`. Workers only ever read
//! images through the `Arc`.
//!
//! Runs also share their ends. Once a run is past its forced prefix (a
//! PCT run has none) and every other thread is done, the rest of it is a
//! single-threaded continuation decided by the machine state alone: the
//! one eligible thread is every scheduler's only pick. At such *lone
//! consults* the run looks itself up in the [`LoneMemo`] of lone points
//! earlier runs recorded, and on an exact match stops interpreting and
//! splices the earlier run's remaining consults, decisions and outcome
//! ([`TailRef`]). The memo changes only between waves, on the exploring
//! thread, so splices too are identical across `--jobs`. Frontier and
//! PCT runs execute through one body ([`Runner::frontier`] and
//! [`Runner::pct`] only build their schedulers), and both record their
//! consults, which a lone point's remainder is made of.
//!
//! [`super::minimize`] uses the runner without a tree: its few candidates
//! run from step zero ([`Runner::replay`]) on the runner's one
//! lowering of the program.

use std::sync::Arc;
use std::time::{Duration, Instant};

use super::bounded::{Consult, Consults, FrontierScheduler};
use super::decision::DecisionTrace;
use super::footprint::Footprint;
use super::pct::{PctConfig, PctScheduler};
use super::point::PointMask;
use super::{SchedContext, Scheduler, WordMap};
use crate::dense::DenseProgram;
use crate::locks::ThreadId;
use crate::machine::{
    BranchCapture, CapturePlacement, LoneHook, Machine, MachineConfig, MachineSnapshot,
    SnapshotFootprint,
};
use crate::metrics::Histogram;
use crate::outcome::RunOutcome;
use crate::program::Program;

/// Snapshots one run may deposit into the tree. A frontier run spreads
/// them evenly over its branch points at or past its own frontier, where
/// its children branch ([`CapturePlacement::Spread`]); a PCT run takes its
/// first ones past its resume point, the contiguous chain
/// [`SnapshotTree::walk_pct`] can follow ([`CapturePlacement::First`]).
pub(super) const CAPTURE_PER_RUN: usize = 64;

/// Default node budget of the tree, sized for CoW images — mostly
/// refcount bumps each, with [`SNAPSHOT_BYTE_BUDGET`] bounding actual
/// residency.
pub(super) const DEFAULT_SNAPSHOT_BUDGET: usize = 8192;

/// Resident-bytes ceiling for the snapshot tree. With CoW images the
/// node-count budget alone no longer bounds memory (8192 mostly-shared
/// images are cheap, 8192 fully-dirtied ones are not); eviction also
/// fires when insert-time owned bytes exceed this.
const SNAPSHOT_BYTE_BUDGET: u64 = 256 << 20;

/// A retained ancestor a run resumes from.
pub(super) struct Resume {
    pub snap: Arc<MachineSnapshot>,
    /// Decisions made before the image.
    pub depth: usize,
    /// Preemptions spent by those decisions.
    pub preemptions: usize,
}

/// One executed schedule: outcome + recorded decisions and consults + the
/// branch captures it deposits.
pub(super) struct Executed {
    pub outcome: RunOutcome,
    pub trace: DecisionTrace,
    /// The consults the run made live; a splice's follow in `splice`.
    pub consults: Consults,
    /// Decision index of the first recorded consult: the snapshot depth
    /// when the run resumed mid-tree, 0 from scratch.
    pub consult_base: usize,
    /// Preemptions spent by the decisions before `consult_base`.
    pub base_preemptions: usize,
    /// Branch captures, ascending depth.
    pub snaps: Vec<BranchCapture>,
    /// A forced decision named an ineligible thread and the run fell back
    /// to the default continuation (see [`FrontierScheduler::infeasible`]).
    pub infeasible: bool,
    /// The run's wall time (capture time included).
    pub run_wall: Duration,
    /// Portion of `run_wall` spent capturing snapshots.
    pub capture_wall: Duration,
    /// Wall time spent restoring the resume snapshot (zero from scratch).
    pub restore_wall: Duration,
    /// Live scheduler decisions (excludes decisions a resume skipped or a
    /// splice made).
    pub picks: u64,
    /// PCT priority demotions of the whole schedule, fast-forwarded and
    /// spliced ones included (0 for frontier runs).
    pub demotions: u64,
    /// Register undo-log depths at the run's rollbacks (prefix samples
    /// repeat across schedules sharing a resumed prefix), a splice's
    /// included.
    pub undo_depth: Histogram,
    /// The remainder the run spliced from the lone memo, if it did.
    pub splice: Option<Splice>,
    /// The lone points the run recorded for the memo, if any.
    pub lone: Option<LoneRecord>,
}

impl Executed {
    /// The lone-thread consults the run spliced after `consults`.
    pub fn tail(&self) -> Option<&TailRef> {
        self.splice.as_ref().map(|s| &s.tail)
    }

    /// Interpreter steps the run's splice skipped.
    pub fn spliced_steps(&self) -> u64 {
        self.splice.as_ref().map_or(0, |s| s.steps)
    }
}

/// How to execute one frontier candidate.
pub(super) struct RunPlan {
    /// Forced decisions (lenient: an ineligible one falls back to the
    /// non-preemptive default).
    pub prefix: Vec<u32>,
    /// Deepest retained ancestor, when the tree held one.
    pub resume: Option<Resume>,
    /// Maximum snapshots this run may capture (0 = none).
    pub capture: usize,
    /// First decision index worth capturing at.
    pub capture_from: usize,
}

/// How to execute one PCT run: its scheduler, already advanced to the
/// resume point by [`SnapshotTree::walk_pct`].
pub(super) struct PctPlan {
    pub seed: u64,
    pub sched: PctScheduler,
    pub resume: Option<Resume>,
    pub capture: usize,
}

/// One program, one config, one lowering shared by every run (and every
/// worker) of a search.
pub(super) struct Runner<'p> {
    program: &'p Program,
    config: MachineConfig,
    dense: Arc<DenseProgram<'p>>,
}

impl<'p> Runner<'p> {
    /// A runner for `program` under `config`, with decision recording on.
    pub fn new(program: &'p Program, config: &MachineConfig) -> Self {
        Self {
            program,
            config: MachineConfig {
                record_decisions: true,
                ..*config
            },
            dense: Arc::new(DenseProgram::new(&program.module)),
        }
    }

    /// Threads in the program (the `threads` every consult reports).
    pub fn threads(&self) -> usize {
        self.program.threads.len()
    }

    /// Runs `sched` from `resume` (or from step zero), capturing up to
    /// `capture` branch points from decision `capture_from` on, placed per
    /// `placement`. With a `memo`, the run looks up its lone consults,
    /// splices the first one the memo already holds, and records lone
    /// points of its own unless the memo is sealed.
    fn execute<S: RunScheduler>(
        &self,
        mut sched: S,
        resume: Option<&Resume>,
        capture_from: usize,
        capture: usize,
        placement: CapturePlacement,
        memo: Option<&LoneMemo>,
    ) -> Executed {
        let mut machine = Machine::with_shared_dense(self.program, self.dense.clone(), self.config);
        let restore_wall = match resume {
            Some(r) => {
                let restore_start = Instant::now();
                machine.restore_from(&r.snap);
                restore_start.elapsed()
            }
            None => Duration::ZERO,
        };
        let mut hook = memo.map(|memo| LoneRun::new(memo, sched.lone_from()));
        let (result, snaps) = match hook.as_mut() {
            Some(hook) => machine.run_frontier(&mut sched, capture_from, capture, placement, hook),
            None => machine.run_frontier(&mut sched, capture_from, capture, placement, &mut ()),
        };
        let (consult_base, base_preemptions) = resume.map_or((0, 0), |r| (r.depth, r.preemptions));
        let mut ex = Executed {
            outcome: result.outcome,
            trace: result.decisions.expect("the runner records decisions"),
            consults: Consults::default(),
            consult_base,
            base_preemptions,
            snaps,
            infeasible: false,
            run_wall: result.stats.wall,
            capture_wall: result.stats.snapshot_wall,
            restore_wall,
            picks: 0,
            demotions: 0,
            undo_depth: result.stats.undo_depth,
            splice: None,
            lone: None,
        };
        if let Some(hook) = hook {
            hook.close(&mut ex, result.stats.steps);
        }
        sched.close(&mut ex, self.threads());
        ex
    }

    /// Executes a frontier candidate. Its captures spread over the whole
    /// run: its children branch anywhere past its prefix.
    pub fn frontier(&self, plan: &RunPlan, mask: PointMask, memo: Option<&LoneMemo>) -> Executed {
        let start = plan.resume.as_ref().map_or(0, |r| r.depth);
        self.execute(
            FrontierScheduler::resume(plan.prefix.clone(), start, mask),
            plan.resume.as_ref(),
            plan.capture_from,
            plan.capture,
            CapturePlacement::Spread,
            memo,
        )
    }

    /// Executes `prefix` as a frontier candidate from step zero, capturing
    /// nothing and splicing nothing.
    pub fn replay(&self, prefix: Vec<u32>, mask: PointMask) -> Executed {
        let plan = RunPlan {
            prefix,
            resume: None,
            capture: 0,
            capture_from: 0,
        };
        self.frontier(&plan, mask, None)
    }

    /// Executes a PCT run. Its own captures are the first branch points
    /// just past its resume point: everything shallower is already in the
    /// tree, and [`SnapshotTree::walk_pct`] can only follow a contiguous
    /// chain of nodes from the root.
    pub fn pct(&self, plan: &PctPlan, memo: Option<&LoneMemo>) -> Executed {
        let depth = plan.resume.as_ref().map_or(0, |r| r.depth);
        let sched = PctRun {
            sched: plan.sched.clone(),
            consults: Consults::default(),
            picks: 0,
        };
        let mut ex = self.execute(
            sched,
            plan.resume.as_ref(),
            depth + 1,
            plan.capture,
            CapturePlacement::First,
            memo,
        );
        ex.trace.seed = plan.seed;
        ex
    }
}

/// A scheduler the runner executes: once the run (and its splice, if
/// any) is over, it hands `ex` its record of the run.
trait RunScheduler: Scheduler {
    /// First decision index whose pick, when one thread is eligible, is
    /// that thread: where the run's lone consults start.
    fn lone_from(&self) -> usize;

    /// Fills in `ex`'s live consults and picks and the scheduler's own
    /// counters. `ex.splice` is final: a scheduler that counts the whole
    /// schedule also counts the spliced picks.
    fn close(self, ex: &mut Executed, threads: usize);
}

impl RunScheduler for FrontierScheduler {
    /// Past the forced prefix, where the default continuation takes over.
    fn lone_from(&self) -> usize {
        self.prefix_len()
    }

    fn close(self, ex: &mut Executed, _threads: usize) {
        ex.picks = self.picks();
        ex.infeasible = self.infeasible();
        ex.consults = self.into_consults();
    }
}

/// A PCT run's scheduler: records its consults as a
/// [`FrontierScheduler`] does, so the run can record lone points and
/// splice.
struct PctRun {
    sched: PctScheduler,
    consults: Consults,
    picks: u64,
}

impl Scheduler for PctRun {
    fn pick(&mut self, ctx: &SchedContext<'_>) -> ThreadId {
        let chosen = self.sched.pick(ctx);
        self.picks += 1;
        self.consults
            .push(ctx.eligible, ctx.footprints, chosen, ctx.last);
        chosen
    }

    fn name(&self) -> &'static str {
        self.sched.name()
    }

    fn decision_mask(&self) -> PointMask {
        self.sched.decision_mask()
    }
}

impl RunScheduler for PctRun {
    /// Every decision: a PCT pick from one eligible thread is that thread,
    /// whatever the priorities.
    fn lone_from(&self) -> usize {
        0
    }

    /// Picks the splice made for the run still advance the scheduler, so
    /// `ex.demotions` counts the whole schedule; `ex.picks` counts live
    /// picks only.
    fn close(mut self, ex: &mut Executed, threads: usize) {
        ex.picks = self.picks;
        if let Some(tail) = ex.tail() {
            let lone = [tail.thread()];
            for _ in 0..tail.len() {
                self.sched.pick(&pct_context(&lone, threads));
            }
        }
        ex.demotions = self.sched.demotions();
        ex.consults = self.consults;
    }
}

/// The consult a PCT pick sees, as far as [`PctScheduler::pick`] reads it:
/// the eligible set and the thread count.
fn pct_context(eligible: &[ThreadId], threads: usize) -> SchedContext<'_> {
    SchedContext {
        eligible,
        step: 0,
        threads,
        last: None,
        point: None,
        footprints: &[],
    }
}

/// Start of the rolling decision-prefix hash.
const HASH_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends a decision-prefix hash by one decision. The hash only selects
/// index entries: every hit is confirmed by an exact key compare.
#[inline]
fn hash_push(h: u64, d: u32) -> u64 {
    (h ^ u64::from(d))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(29)
}

/// Hashes every prefix of `decisions` into `out`: `out[d]` is the hash of
/// `decisions[..d]`.
fn prefix_hashes(decisions: &[u32], out: &mut Vec<u64>) {
    out.clear();
    out.push(HASH_START);
    let mut h = HASH_START;
    for &d in decisions {
        h = hash_push(h, d);
        out.push(h);
    }
}

/// Prefix hash → node slot.
type PrefixIndex = WordMap<u64, u32>;

/// No slot: the end of the LRU list.
const NIL: u32 = u32::MAX;

/// Retained snapshots keyed by decision prefix. Nodes live in slots,
/// found through a prefix-hash index whose hits are confirmed by an exact
/// key compare, and chained in least-recently-used order.
pub(super) struct SnapshotTree {
    budget: usize,
    /// Node slots; `None` marks a free slot (listed in `free`).
    slots: Vec<Option<TreeNode>>,
    free: Vec<u32>,
    live: usize,
    /// Hash of each node's key → its slot. A key whose hash is taken by
    /// another key is simply not retained.
    index: PrefixIndex,
    /// Hash of `key[..singles_from]` → slot of a node whose decisions from
    /// `singles_from` up to its depth all had a single eligible thread —
    /// the edges [`SnapshotTree::walk_pct`] follows between branch nodes.
    links: PrefixIndex,
    /// Live nodes per key depth: lookups probe only depths that hold one.
    at_depth: Vec<u32>,
    /// Least and most recently used nodes.
    lru_head: u32,
    lru_tail: u32,
    /// Prefix hashes of the key being looked up or absorbed.
    hashes: Vec<u64>,
    /// LRU evictions performed so far (observer telemetry).
    pub evictions: u64,
    /// Running totals of the retained nodes' insert-time footprints.
    /// Snapshots are CoW images, so node count says little about memory
    /// pressure — a node whose pages are all shared with its parent is
    /// nearly free, a node whose run dirtied everything is not. Resident
    /// *owned* bytes is the eviction pressure signal; each node's
    /// contribution is recorded once at insert (on the exploring thread,
    /// after the wave's workers have joined, so it is deterministic and
    /// jobs-invariant) and subtracted verbatim at evict.
    pub resident_bytes: u64,
    pub owned_pages: u64,
    pub shared_pages: u64,
}

struct TreeNode {
    /// The key is `path[..depth]`; the captures of one run share `path`.
    path: Arc<[u32]>,
    depth: usize,
    /// Index key of `path[..depth]`.
    hash: u64,
    snap: Arc<MachineSnapshot>,
    /// Preemptions spent by the first `depth` decisions of any schedule
    /// through this node (a function of the prefix alone).
    preemptions: usize,
    /// Threads eligible at the consult the image precedes.
    eligible: Vec<ThreadId>,
    /// Start of the single-choice run leading here (the node's link key
    /// length when below its depth).
    singles_from: usize,
    /// Index key of the node's entry in `links`, when it holds one.
    link: Option<u64>,
    /// Neighbors in LRU order.
    prev: u32,
    next: u32,
    /// Insert-time sharing accounting, subtracted from the tree totals at
    /// evict — never recomputed, so totals stay deterministic even though
    /// live sharing drifts as neighbors are inserted and dropped.
    footprint: SnapshotFootprint,
}

impl TreeNode {
    fn key(&self) -> &[u32] {
        &self.path[..self.depth]
    }
}

impl SnapshotTree {
    pub fn new(budget: usize) -> Self {
        Self {
            budget,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            index: PrefixIndex::default(),
            links: PrefixIndex::default(),
            at_depth: Vec::new(),
            lru_head: NIL,
            lru_tail: NIL,
            hashes: Vec::new(),
            evictions: 0,
            resident_bytes: 0,
            owned_pages: 0,
            shared_pages: 0,
        }
    }

    /// Live nodes (tree occupancy).
    pub fn len(&self) -> usize {
        self.live
    }

    fn node(&self, slot: u32) -> &TreeNode {
        self.slots[slot as usize].as_ref().expect("slot is live")
    }

    fn node_mut(&mut self, slot: u32) -> &mut TreeNode {
        self.slots[slot as usize].as_mut().expect("slot is live")
    }

    /// The node keyed exactly by `key`, whose hash is `h`.
    fn find(&self, h: u64, key: &[u32]) -> Option<u32> {
        let &slot = self.index.get(&h)?;
        (self.node(slot).key() == key).then_some(slot)
    }

    /// The node whose link starts exactly at `prefix` (hash `h`).
    fn find_link(&self, h: u64, prefix: &[u32]) -> Option<u32> {
        let &slot = self.links.get(&h)?;
        let node = self.node(slot);
        (node.singles_from == prefix.len() && &node.key()[..prefix.len()] == prefix).then_some(slot)
    }

    /// Removes `slot` from the LRU list.
    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let n = self.node(slot);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.lru_head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.lru_tail = prev,
            n => self.node_mut(n).prev = prev,
        }
    }

    /// Appends `slot` to the LRU list as the most recently used node.
    fn push_back(&mut self, slot: u32) {
        let tail = self.lru_tail;
        {
            let n = self.node_mut(slot);
            n.prev = tail;
            n.next = NIL;
        }
        match tail {
            NIL => self.lru_head = slot,
            t => self.node_mut(t).next = slot,
        }
        self.lru_tail = slot;
    }

    /// Marks `slot`'s node most recently used and returns it as a resume
    /// point.
    fn touch(&mut self, slot: u32) -> Resume {
        self.unlink(slot);
        self.push_back(slot);
        let node = self.node(slot);
        Resume {
            snap: node.snap.clone(),
            depth: node.depth,
            preemptions: node.preemptions,
        }
    }

    /// The deepest retained ancestor of `prefix` (depth `1..=len`),
    /// LRU-touched. Depth `len` is the prefix itself — a full hit. Depth 0
    /// is never held: the first consult fires on the run's first step, so
    /// a pre-decision image is the (worthless) initial state. Hashes the
    /// prefix once, probes only depths that hold a node, and resumes only
    /// from an exact key match.
    pub fn lookup(&mut self, prefix: &[u32]) -> Option<Resume> {
        if self.live == 0 {
            return None;
        }
        let top = prefix.len().min(self.at_depth.len().saturating_sub(1));
        let mut hashes = std::mem::take(&mut self.hashes);
        prefix_hashes(&prefix[..top], &mut hashes);
        let found = (1..=top)
            .rev()
            .filter(|&d| self.at_depth[d] > 0)
            .find_map(|d| self.find(hashes[d], &prefix[..d]));
        self.hashes = hashes;
        found.map(|slot| self.touch(slot))
    }

    /// PCT's resume point for run `seed`: simulates its scheduler from the
    /// root consult (eligible set `root`) down the retained nodes, picking
    /// at each node from the node's eligible set and following links
    /// through single-choice decisions, until its path leaves the tree.
    /// Returns the scheduler positioned at the deepest node reached (fresh
    /// when none was) and that node, LRU-touched.
    pub fn walk_pct(
        &mut self,
        seed: u64,
        cfg: PctConfig,
        root: &[ThreadId],
        threads: usize,
    ) -> (PctScheduler, Option<Resume>) {
        if self.live == 0 || root.is_empty() {
            return (PctScheduler::new(seed, cfg), None);
        }
        let mut live = PctScheduler::new(seed, cfg);
        let mut best: Option<(u32, PctScheduler)> = None;
        let mut path: Vec<u32> = Vec::new();
        let mut h = HASH_START;
        let mut eligible: &[ThreadId] = root;
        loop {
            let d = live.pick(&pct_context(eligible, threads)).index() as u32;
            path.push(d);
            h = hash_push(h, d);
            let slot = if let Some(slot) = self.find(h, &path) {
                slot
            } else if let Some(slot) = self.find_link(h, &path) {
                let node = self.node(slot);
                for &d in &node.key()[path.len()..] {
                    live.pick(&pct_context(&[ThreadId(d as usize)], threads));
                }
                path.extend_from_slice(&node.key()[path.len()..]);
                h = node.hash;
                slot
            } else {
                break;
            };
            eligible = &self.node(slot).eligible;
            best = Some((slot, live.clone()));
        }
        match best {
            Some((slot, sched)) => (sched, Some(self.touch(slot))),
            None => (PctScheduler::new(seed, cfg), None),
        }
    }

    /// Drops the least-recently-used node.
    fn evict_lru(&mut self) {
        let slot = self.lru_head;
        self.unlink(slot);
        let node = self.slots[slot as usize].take().expect("LRU head is live");
        self.free.push(slot);
        self.live -= 1;
        self.index.remove(&node.hash);
        if let Some(link) = node.link {
            self.links.remove(&link);
        }
        self.at_depth[node.depth] -= 1;
        self.resident_bytes -= node.footprint.owned_bytes;
        self.owned_pages -= node.footprint.owned_pages;
        self.shared_pages -= node.footprint.shared_pages;
        self.evictions += 1;
    }

    /// Retains `capture` under the key `path[..capture.depth]` unless
    /// present; `hashes` are `path`'s prefix hashes. Over either capacity —
    /// node count, or [`SNAPSHOT_BYTE_BUDGET`] resident owned bytes — the
    /// least-recently-used nodes are evicted first. Subtrees the search
    /// has exhausted stop being looked up, so their nodes age out
    /// naturally. Returns whether a new node was added.
    fn insert(
        &mut self,
        path: &Arc<[u32]>,
        hashes: &[u64],
        capture: BranchCapture,
        preemptions: usize,
    ) -> bool {
        let depth = capture.depth;
        let hash = hashes[depth];
        if self.budget == 0 || self.index.contains_key(&hash) {
            return false;
        }
        let footprint = capture.snap.footprint();
        while self.live > 0
            && (self.live >= self.budget
                || self.resident_bytes + footprint.owned_bytes > SNAPSHOT_BYTE_BUDGET)
        {
            self.evict_lru();
        }
        self.resident_bytes += footprint.owned_bytes;
        self.owned_pages += footprint.owned_pages;
        self.shared_pages += footprint.shared_pages;
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        // Determinism makes a link unique: every run through the link key
        // makes the same single choices up to the same branch point.
        let link = (capture.singles_from < depth)
            .then(|| hashes[capture.singles_from])
            .filter(|h| !self.links.contains_key(h));
        if let Some(h) = link {
            self.links.insert(h, slot);
        }
        self.index.insert(hash, slot);
        if self.at_depth.len() <= depth {
            self.at_depth.resize(depth + 1, 0);
        }
        self.at_depth[depth] += 1;
        self.slots[slot as usize] = Some(TreeNode {
            path: path.clone(),
            depth,
            hash,
            snap: Arc::new(capture.snap),
            preemptions,
            eligible: capture.eligible,
            singles_from: capture.singles_from,
            link,
            prev: NIL,
            next: NIL,
            footprint,
        });
        self.live += 1;
        self.push_back(slot);
        true
    }

    /// Deposits an executed run's captures, in ascending depth order, in
    /// one pass over its decisions and consults. Returns how many became
    /// new nodes.
    pub fn absorb(&mut self, ex: &mut Executed) -> u64 {
        let snaps = std::mem::take(&mut ex.snaps);
        let Some(top) = snaps.last().map(|c| c.depth) else {
            return 0;
        };
        if self.budget == 0 {
            return 0;
        }
        let path: Arc<[u32]> = ex.trace.decisions[..top].into();
        let mut hashes = std::mem::take(&mut self.hashes);
        prefix_hashes(&path, &mut hashes);
        // Preemptions spent before each capture: the resume point's, plus
        // those among the run's consults up to it.
        let mut consults = ex.consults.iter();
        let (mut at, mut used) = (ex.consult_base, ex.base_preemptions);
        let mut added = 0;
        for capture in snaps {
            debug_assert!(capture.depth >= at, "captures ascend past the resume point");
            while at < capture.depth {
                let Some(c) = consults.next() else { break };
                used += usize::from(c.is_preemption());
                at += 1;
            }
            if self.insert(&path, &hashes, capture, used) {
                added += 1;
            }
        }
        self.hashes = hashes;
        added
    }
}

/// Lone points one run may record.
const LONE_PER_RUN: usize = 16;

/// Decision-index stride of lone points: a run records its lone consults
/// at depths that are multiples of it. Runs that converge on one
/// continuation make their consults at the same depths, so they record
/// the same points, and a later run finds one within this many lone
/// consults of wherever it joins.
const LONE_STRIDE: usize = 4;

/// Waves a memo entry outlives the last wave that added or spliced it.
/// On the catalog almost every splice reads an entry added or spliced
/// one wave earlier.
const LONE_KEEP: usize = 2;

/// The end of a run from its first lone point on: the consults
/// it interpreted there, then the remainder it spliced, if any. Every
/// consult here had one eligible thread, the lone one, which it chose; so
/// one footprint per consult describes it. Shared (never copied) by the
/// memo entries and the runs that splice it.
pub(crate) struct LoneTail {
    /// The lone thread, as the one-thread eligible set of every consult.
    thread: [ThreadId; 1],
    /// The running thread at the first consult of `fps`; every later
    /// consult follows a pick of the lone thread.
    first_last: Option<ThreadId>,
    /// The lone thread's footprint at each consult the run interpreted.
    fps: Vec<Footprint>,
    /// Undo-depth samples of the rollbacks among those consults.
    undo: Vec<u64>,
    /// The remainder the run spliced after `fps`.
    rest: Option<TailRef>,
    /// Consults in `fps` and `rest`.
    len: usize,
    outcome: RunOutcome,
    /// The step counter at the run's end.
    end_step: u64,
}

/// The remainder of a run from one lone point on: a shared [`LoneTail`]
/// read from an offset.
#[derive(Clone)]
pub(crate) struct TailRef {
    tail: Arc<LoneTail>,
    /// First consult of the remainder in `tail.fps`.
    at: usize,
    /// First undo sample of the remainder in `tail.undo`.
    undo_at: usize,
}

impl TailRef {
    /// Consults in the remainder.
    pub(crate) fn len(&self) -> usize {
        self.tail.len - self.at
    }

    /// The remainder's consults, in decision order.
    pub(crate) fn consults(&self) -> TailConsults<'_> {
        TailConsults {
            tail: &self.tail,
            i: self.at,
        }
    }

    /// The lone thread.
    fn thread(&self) -> ThreadId {
        self.tail.thread[0]
    }

    /// Undo-depth samples of the remainder's rollbacks, in order.
    fn undo_samples(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::successors(Some(self), |r| r.tail.rest.as_ref())
            .flat_map(|r| r.tail.undo[r.undo_at..].iter().copied())
    }
}

/// Iterator over a [`TailRef`]'s consults, following spliced remainders.
pub(crate) struct TailConsults<'a> {
    tail: &'a LoneTail,
    i: usize,
}

impl<'a> Iterator for TailConsults<'a> {
    type Item = Consult<'a>;

    fn next(&mut self) -> Option<Consult<'a>> {
        while self.i == self.tail.fps.len() {
            let rest = self.tail.rest.as_ref()?;
            self.tail = &rest.tail;
            self.i = rest.at;
        }
        let (t, i) = (self.tail, self.i);
        self.i += 1;
        Some(Consult {
            eligible: &t.thread,
            footprints: &t.fps[i..=i],
            chosen: t.thread[0],
            last: if i == 0 {
                t.first_last
            } else {
                Some(t.thread[0])
            },
            node: None,
        })
    }
}

/// A splice: where a run stopped interpreting and what it appended.
pub(super) struct Splice {
    /// The appended remainder.
    pub tail: TailRef,
    /// The memo entry it came from.
    entry: u32,
    /// Interpreter steps the splice skipped.
    pub steps: u64,
}

/// One lone point a run recorded: the machine just before the pick at a
/// lone consult.
struct LonePoint {
    /// Decision index of the consult.
    depth: usize,
    key: u64,
    image: MachineSnapshot,
    /// Undo samples the run had logged before it.
    undo_at: usize,
}

/// What a run hands the memo at merge.
pub(super) struct LoneRecord {
    /// Ascending depth; never empty.
    points: Vec<LonePoint>,
    /// Undo-depth samples from the first point on.
    undo: Vec<u64>,
    /// The step counter at the run's end, a splice's steps included.
    end_step: u64,
}

/// A run's [`LoneHook`]: looks each lone consult up in the memo, and
/// records a few lone points of its own while the memo is not sealed.
struct LoneRun<'m> {
    memo: &'m LoneMemo,
    from: usize,
    points: Vec<LonePoint>,
    /// The entry matched and the step counter there.
    hit: Option<(u32, u64)>,
    undo: Vec<u64>,
}

impl<'m> LoneRun<'m> {
    fn new(memo: &'m LoneMemo, from: usize) -> Self {
        Self {
            memo,
            from,
            points: Vec::new(),
            hit: None,
            undo: Vec::new(),
        }
    }

    /// Appends the splice to `ex` and hands over the recorded points.
    /// `steps` is the step counter where the run stopped.
    fn close(self, ex: &mut Executed, steps: u64) {
        let mut end_step = steps;
        if let Some((entry, step)) = self.hit {
            let tail = self.memo.entries[entry as usize].tail.clone();
            let n = tail.len();
            ex.trace
                .decisions
                .extend(std::iter::repeat_n(tail.thread().index() as u32, n));
            for v in tail.undo_samples() {
                ex.undo_depth.record(v);
            }
            end_step = tail.tail.end_step;
            ex.splice = Some(Splice {
                steps: end_step + 1 - step,
                tail,
                entry,
            });
        }
        if !self.points.is_empty() {
            ex.lone = Some(LoneRecord {
                points: self.points,
                undo: self.undo,
                end_step,
            });
        }
    }
}

impl LoneHook for LoneRun<'_> {
    const ACTIVE: bool = true;

    fn from(&self) -> usize {
        self.from
    }

    fn at_lone(&mut self, m: &mut Machine<'_>) -> Option<RunOutcome> {
        let depth = m.decisions();
        let due = !self.memo.sealed
            && self.points.len() < LONE_PER_RUN
            && depth.is_multiple_of(LONE_STRIDE);
        if self.memo.entries.is_empty() && !due {
            return None;
        }
        let key = m.lone_key();
        if let Some(entry) = self.memo.find(key, |img| m.continuation_eq(img)) {
            self.hit = Some((entry, m.step()));
            return Some(self.memo.entries[entry as usize].tail.tail.outcome.clone());
        }
        if due {
            m.log_undo();
            self.points.push(LonePoint {
                depth,
                key,
                undo_at: m.undo_log().len(),
                image: m.lone_image(),
            });
        }
        None
    }

    fn finish(&mut self, m: &mut Machine<'_>) {
        self.undo = m.take_undo_log();
    }
}

/// One memo entry: a lone point and the remainder from it.
struct LoneEntry {
    key: u64,
    image: MachineSnapshot,
    tail: TailRef,
    /// The next older entry with the same key ([`NIL`] at the end).
    next: u32,
    /// Last wave that added or spliced the entry.
    used: usize,
}

/// The lone points of earlier runs, looked up by a cheap key over the
/// machine state and confirmed by an exact continuation compare. Workers
/// read it during a wave; the exploring thread adds the wave's points at
/// merge, in schedule order.
#[derive(Default)]
pub(super) struct LoneMemo {
    entries: Vec<LoneEntry>,
    /// Key → newest entry with that key.
    index: WordMap<u64, u32>,
    /// Runs record no lone points: no later wave would read them.
    sealed: bool,
}

impl LoneMemo {
    /// The newest entry under `key` whose image `eq` accepts.
    fn find(&self, key: u64, mut eq: impl FnMut(&MachineSnapshot) -> bool) -> Option<u32> {
        let mut slot = *self.index.get(&key)?;
        while slot != NIL {
            let e = &self.entries[slot as usize];
            if eq(&e.image) {
                return Some(slot);
            }
            slot = e.next;
        }
        None
    }

    fn insert(&mut self, key: u64, image: MachineSnapshot, tail: TailRef, used: usize) {
        let slot = self.entries.len() as u32;
        let next = self.index.insert(key, slot).unwrap_or(NIL);
        self.entries.push(LoneEntry {
            key,
            image,
            tail,
            next,
            used,
        });
    }

    /// Takes an executed run's lone points in and marks the entry it
    /// spliced as used in `wave`. A point some entry already matches
    /// exactly is dropped.
    pub fn commit(&mut self, ex: &mut Executed, wave: usize) {
        if let Some(s) = &ex.splice {
            self.entries[s.entry as usize].used = wave;
        }
        let Some(rec) = ex.lone.take() else {
            return;
        };
        let d0 = rec.points[0].depth;
        let k0 = d0 - ex.consult_base;
        let first = ex.consults.get(k0);
        let thread = first.chosen;
        let fps: Vec<Footprint> = (k0..ex.consults.len())
            .map(|k| ex.consults.get(k).footprint_for(thread))
            .collect();
        let rest = ex.splice.as_ref().map(|s| s.tail.clone());
        let tail = Arc::new(LoneTail {
            thread: [thread],
            first_last: first.last,
            len: fps.len() + rest.as_ref().map_or(0, TailRef::len),
            fps,
            undo: rec.undo,
            rest,
            outcome: ex.outcome.clone(),
            end_step: rec.end_step,
        });
        for p in rec.points {
            if self
                .find(p.key, |img| img.continuation_eq(&p.image))
                .is_some()
            {
                continue;
            }
            let tail = TailRef {
                tail: tail.clone(),
                at: p.depth - d0,
                undo_at: p.undo_at,
            };
            self.insert(p.key, p.image, tail, wave);
        }
    }

    /// Stops runs from recording lone points, before the wave that spends
    /// the budget: no later wave could splice them. Runs still splice.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Drops, after merging `wave`, the entries no later wave is expected
    /// to reach: those neither added nor spliced in the last
    /// [`LONE_KEEP`] waves. Compacts the slots, so it runs only between
    /// waves, when no splice in flight names one.
    pub fn retire(&mut self, wave: usize) {
        let live = |e: &LoneEntry| wave < e.used + LONE_KEEP;
        if self.entries.iter().all(live) {
            return;
        }
        self.entries.retain(live);
        self.index.clear();
        for (slot, e) in self.entries.iter_mut().enumerate() {
            e.next = self.index.insert(e.key, slot as u32).unwrap_or(NIL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::basic::RoundRobin;
    use conair_ir::{CmpKind, FuncBuilder, ModuleBuilder};

    /// reader asserts a flag that writer sets — fails only when the
    /// reader's load runs before the writer's store.
    fn order_violation() -> Program {
        let mut mb = ModuleBuilder::new("ov");
        let flag = mb.global("flag", 0);
        let mut fb = FuncBuilder::new("reader", 0);
        let v = fb.load_global(flag);
        let ok = fb.cmp(CmpKind::Ne, v, 0);
        fb.assert(ok, "writer must have published");
        fb.ret();
        mb.function(fb.finish());
        let mut fb = FuncBuilder::new("writer", 0);
        fb.store_global(flag, 1);
        fb.ret();
        mb.function(fb.finish());
        Program::from_entry_names(mb.finish(), &["reader", "writer"])
    }

    /// Two threads each bump a shared counter three times per round, three
    /// rounds, under a lock, with local work between rounds: a run with
    /// many branch points, so PCT runs share long prefixes with the probe.
    /// Preempting a lock holder blocks the other thread, so the holder's
    /// remaining consults in that round are single-choice.
    fn counters() -> Program {
        let mut mb = ModuleBuilder::new("counters");
        let count = mb.global("count", 0);
        let lock = mb.lock("l");
        for name in ["a", "b"] {
            let mut fb = FuncBuilder::new(name, 0);
            for _ in 0..3 {
                fb.lock(lock);
                for _ in 0..3 {
                    let v = fb.load_global(count);
                    let v = fb.add(v, 1);
                    fb.store_global(count, v);
                }
                fb.unlock(lock);
                let mut x = fb.copy(0);
                for _ in 0..8 {
                    x = fb.add(x, 1);
                }
            }
            fb.ret();
            mb.function(fb.finish());
        }
        Program::from_entry_names(mb.finish(), &["a", "b"])
    }

    /// `hashes[d]` is the prefix hash of `key[..d]`.
    fn hashes_of(key: &[u32]) -> Vec<u64> {
        let mut hashes = Vec::new();
        prefix_hashes(key, &mut hashes);
        hashes
    }

    /// Inserts `capture` (taken at depth `key.len()`) under `key`.
    fn put(tree: &mut SnapshotTree, key: &[u32], capture: BranchCapture, pre: usize) -> bool {
        assert_eq!(capture.depth, key.len());
        tree.insert(&key.into(), &hashes_of(key), capture, pre)
    }

    /// The live node keyed exactly by `key`.
    fn node_at<'t>(tree: &'t SnapshotTree, key: &[u32]) -> Option<&'t TreeNode> {
        let slot = tree.find(hashes_of(key)[key.len()], key)?;
        Some(tree.node(slot))
    }

    /// Every live key, sorted.
    fn keys(tree: &SnapshotTree) -> Vec<Vec<u32>> {
        let mut keys: Vec<Vec<u32>> = tree
            .slots
            .iter()
            .flatten()
            .map(|n| n.key().to_vec())
            .collect();
        keys.sort();
        keys
    }

    /// A capture of `machine`'s current state posing as a branch point.
    fn capture(machine: &mut Machine<'_>, singles_from: usize, depth: usize) -> BranchCapture {
        BranchCapture {
            depth,
            snap: machine.snapshot(),
            eligible: vec![ThreadId(0), ThreadId(1)],
            singles_from,
        }
    }

    /// `b` prints and exits; `a` prints, then makes many shared stores.
    /// Run `b` first, or preempt `a` after its print: either way `a`
    /// ends up alone in the same state at the same step, with the two
    /// prints in opposite orders.
    fn printers() -> Program {
        let mut mb = ModuleBuilder::new("printers");
        let g = mb.global("g", 0);
        let mut fb = FuncBuilder::new("a", 0);
        fb.output("a", 1);
        for i in 0..24 {
            fb.store_global(g, i);
        }
        fb.ret();
        mb.function(fb.finish());
        let mut fb = FuncBuilder::new("b", 0);
        fb.output("b", 2);
        fb.ret();
        mb.function(fb.finish());
        Program::from_entry_names(mb.finish(), &["a", "b"])
    }

    /// A from-scratch frontier plan forcing `prefix`.
    fn forced(prefix: Vec<u32>) -> RunPlan {
        RunPlan {
            prefix,
            resume: None,
            capture: 0,
            capture_from: 0,
        }
    }

    /// Every consult of `ex`, a splice's included.
    fn all_consults(ex: &Executed) -> Vec<Consult<'_>> {
        let tail = ex.tail().into_iter().flat_map(TailRef::consults);
        ex.consults.iter().chain(tail).collect()
    }

    #[test]
    fn later_run_splices_the_lone_tail_of_an_earlier_one() {
        let program = printers();
        let runner = Runner::new(&program, &MachineConfig::default());
        let mask = PointMask::SYNC_SHARED;
        let mut memo = LoneMemo::default();
        let mut first = runner.frontier(&forced(vec![1]), mask, Some(&memo));
        assert!(first.splice.is_none(), "an empty memo splices nothing");
        assert!(first.lone.is_some(), "a is alone once b exits");
        memo.commit(&mut first, 0);
        assert!(!memo.entries.is_empty());
        let spliced = runner.frontier(&forced(vec![0, 1]), mask, Some(&memo));
        let plain = runner.frontier(&forced(vec![0, 1]), mask, None);
        assert!(spliced.spliced_steps() > 0, "the second run splices");
        assert!(spliced.consults.len() < plain.consults.len());
        assert_eq!(spliced.outcome, plain.outcome);
        assert_eq!(spliced.trace, plain.trace);
        assert_eq!(all_consults(&spliced), all_consults(&plain));
        assert_eq!(spliced.undo_depth, plain.undo_depth);
        assert_eq!(spliced.infeasible, plain.infeasible);
        // The earlier run's tail printed in the other order: the
        // continuation compare does not read outputs.
        let outputs = |prefix: Vec<u32>| {
            let mut sched = FrontierScheduler::new(prefix, mask);
            let r = Machine::new(&program, MachineConfig::default()).run(&mut sched);
            r.outputs.into_iter().map(|o| o.label).collect::<Vec<_>>()
        };
        assert_eq!(outputs(vec![1]), ["b", "a"]);
        assert_eq!(outputs(vec![0, 1]), ["a", "b"]);
    }

    #[test]
    fn pct_run_splices_and_still_counts_the_whole_schedule() {
        // PCT runs splice lone tails as frontier runs do: the trace, the
        // consults, the rollbacks and the demotions come out as
        // unspliced, and only the live picks drop.
        let program = printers();
        let runner = Runner::new(&program, &MachineConfig::default());
        let mask = PointMask::SYNC_SHARED;
        let mut memo = LoneMemo::default();
        let mut first = runner.frontier(&forced(vec![1]), mask, Some(&memo));
        memo.commit(&mut first, 0);
        let cfg = PctConfig {
            depth: 3,
            k: 8,
            mask,
        };
        let mut spliced = 0;
        for seed in 0..32 {
            let plan = PctPlan {
                seed,
                sched: PctScheduler::new(seed, cfg),
                resume: None,
                capture: 0,
            };
            let (a, b) = (runner.pct(&plan, Some(&memo)), runner.pct(&plan, None));
            assert_eq!(a.outcome, b.outcome, "seed {seed}");
            assert_eq!(a.trace, b.trace, "seed {seed}");
            assert_eq!(all_consults(&a), all_consults(&b), "seed {seed}");
            assert_eq!(a.undo_depth, b.undo_depth, "seed {seed}");
            assert_eq!(a.demotions, b.demotions, "seed {seed}");
            let tail = a.tail().map_or(0, TailRef::len) as u64;
            assert_eq!(a.picks + tail, b.picks, "seed {seed}: live picks only");
            spliced += usize::from(a.spliced_steps() > 0);
        }
        assert!(spliced > 0, "some seed runs into the recorded tail");
    }

    #[test]
    fn sealed_memo_splices_but_records_nothing() {
        let program = printers();
        let runner = Runner::new(&program, &MachineConfig::default());
        let mask = PointMask::SYNC_SHARED;
        let mut memo = LoneMemo::default();
        let mut first = runner.frontier(&forced(vec![1]), mask, Some(&memo));
        memo.commit(&mut first, 0);
        memo.seal();
        let again = runner.frontier(&forced(vec![0, 1]), mask, Some(&memo));
        assert!(again.spliced_steps() > 0, "a sealed memo still splices");
        let fresh = runner.frontier(&forced(vec![0, 0, 1]), mask, Some(&memo));
        assert!(again.lone.is_none() && fresh.lone.is_none());
    }

    #[test]
    fn memo_confirms_every_key_match_exactly() {
        let program = printers();
        let runner = Runner::new(&program, &MachineConfig::default());
        let mask = PointMask::SYNC_SHARED;
        let mut memo = LoneMemo::default();
        let mut first = runner.frontier(&forced(vec![1]), mask, Some(&memo));
        memo.commit(&mut first, 0);
        // A key every machine hashes to: only the exact compare decides.
        for e in &mut memo.entries {
            e.key = 0;
            e.next = NIL;
        }
        memo.index.clear();
        memo.index.insert(0, 0);
        let mut m = Machine::new(&program, MachineConfig::default());
        assert!(
            memo.find(0, |img| m.continuation_eq(img)).is_none(),
            "a fresh machine is not a lone point"
        );
        m.restore_from(&memo.entries[0].image);
        assert_eq!(memo.find(0, |img| m.continuation_eq(img)), Some(0));
    }

    #[test]
    fn memo_drops_entries_idle_for_lone_keep_waves() {
        let program = printers();
        let runner = Runner::new(&program, &MachineConfig::default());
        let mask = PointMask::SYNC_SHARED;
        let mut memo = LoneMemo::default();
        let mut first = runner.frontier(&forced(vec![1]), mask, Some(&memo));
        memo.commit(&mut first, 0);
        let n = memo.entries.len();
        assert!(n >= 2, "the first run records several lone points");
        memo.retire(LONE_KEEP - 1);
        assert_eq!(memo.entries.len(), n, "still within reach");
        // A splice keeps the entry it read alive; the idle ones go.
        let mut again = runner.frontier(&forced(vec![0, 1]), mask, Some(&memo));
        let entry = again.splice.as_ref().expect("spliced").entry;
        let key = memo.entries[entry as usize].key;
        memo.commit(&mut again, LONE_KEEP);
        memo.retire(LONE_KEEP);
        assert!(memo.entries.len() < n, "idle entries dropped");
        assert!(memo.entries.iter().all(|e| e.used == LONE_KEEP));
        let slot = memo.index[&key];
        assert_eq!(memo.entries[slot as usize].key, key, "index rebuilt");
        memo.retire(2 * LONE_KEEP);
        assert!(memo.entries.is_empty());
        assert!(memo.index.is_empty());
    }

    #[test]
    fn snapshot_tree_lru_evicts_deterministically() {
        // Build a real snapshot to populate entries with.
        let program = order_violation();
        let cfg = MachineConfig {
            record_decisions: true,
            ..MachineConfig::default()
        };
        let mut sched = RoundRobin::default();
        let (_, snaps) = Machine::new(&program, cfg).run_captured_at_branches(
            &mut sched,
            1,
            1,
            CapturePlacement::First,
        );
        let snap = snaps.into_iter().next().expect("one capture");
        let at = |depth: usize| BranchCapture {
            depth,
            singles_from: depth,
            ..snap.clone()
        };

        let mut tree = SnapshotTree::new(2);
        assert!(put(&mut tree, &[0], at(1), 0));
        assert!(put(&mut tree, &[0, 1], at(2), 1));
        assert!(!put(&mut tree, &[0, 1], at(2), 1), "no duplicate keys");
        // Touch [0] so [0, 1] is the LRU victim.
        assert!(tree.lookup(&[0, 7]).is_some());
        assert!(put(&mut tree, &[1], at(1), 0));
        assert_eq!(
            tree.lookup(&[0, 1]).map(|r| r.depth),
            Some(1),
            "evicted to ancestor"
        );
        // Deepest ancestor wins and carries its preemption count.
        assert!(put(&mut tree, &[1, 2], at(2), 1));
        let r = tree.lookup(&[1, 2, 3]).expect("ancestor");
        assert_eq!((r.depth, r.preemptions), (2, 1));
        // Budget 0 disables everything.
        let mut off = SnapshotTree::new(0);
        assert!(off.lookup(&[0]).is_none());
    }

    /// Seeds a tree with `n` distinct single-decision prefixes captured
    /// from one machine (structurally shared images, so thousands are
    /// cheap) and returns the surviving keys plus the eviction count.
    fn fill_tree(budget: usize, n: u32) -> (SnapshotTree, Vec<Vec<u32>>, u64) {
        let program = order_violation();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut tree = SnapshotTree::new(budget);
        for i in 0..n {
            assert!(put(&mut tree, &[i], capture(&mut machine, 1, 1), 0));
        }
        let keys = keys(&tree);
        let evictions = tree.evictions;
        (tree, keys, evictions)
    }

    #[test]
    fn snapshot_tree_lru_eviction_is_deterministic_past_4096_nodes() {
        // Overfill a 4096-node tree and check eviction is exact,
        // oldest-first, and bit-identical across repetitions (the LRU
        // list, not the index's iteration order, picks which node dies).
        let (tree, keys, evictions) = fill_tree(4096, 5000);
        assert_eq!(tree.len(), 4096);
        assert_eq!(evictions, 5000 - 4096);
        let expect: Vec<Vec<u32>> = (904u32..5000).map(|i| vec![i]).collect();
        assert_eq!(keys, expect, "untouched nodes die strictly oldest-first");
        let (_, keys2, evictions2) = fill_tree(4096, 5000);
        assert_eq!((keys, evictions), (keys2, evictions2));
    }

    #[test]
    fn snapshot_tree_lookup_refreshes_lru_rank() {
        let program = order_violation();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut tree = SnapshotTree::new(8);
        for i in 0..8u32 {
            assert!(put(&mut tree, &[i], capture(&mut machine, 1, 1), 0));
        }
        // Touch the oldest node, then overflow: the refreshed node must
        // outlive its untouched (now-oldest) neighbor.
        assert!(tree.lookup(&[0]).is_some());
        for i in 8..10u32 {
            assert!(put(&mut tree, &[i], capture(&mut machine, 1, 1), 0));
        }
        assert!(node_at(&tree, &[0]).is_some());
        assert!(node_at(&tree, &[1]).is_none());
        assert!(node_at(&tree, &[2]).is_none());
        assert_eq!(tree.evictions, 2);
    }

    #[test]
    fn snapshot_tree_resumes_only_on_an_exact_key_match() {
        // Point the index entry of prefix [6] at the node keyed [5], as a
        // 64-bit hash collision would: the lookup must not resume from it.
        let program = order_violation();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut tree = SnapshotTree::new(8);
        assert!(put(&mut tree, &[5], capture(&mut machine, 1, 1), 0));
        let slot = tree.index[&hashes_of(&[5])[1]];
        tree.index.insert(hashes_of(&[6])[1], slot);
        assert!(tree.lookup(&[6, 0]).is_none(), "collision is not a hit");
        assert_eq!(tree.lookup(&[5, 0]).map(|r| r.depth), Some(1));
        // A key whose hash is taken is not retained, and breaks nothing.
        assert!(!put(&mut tree, &[6], capture(&mut machine, 1, 1), 0));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn snapshot_tree_byte_accounting_survives_eviction_churn() {
        // The running resident-bytes/pages totals must equal the sum of
        // the retained nodes' insert-time footprints at every point, or
        // the byte-budget eviction signal drifts over a long search.
        let (tree, _, _) = fill_tree(512, 2000);
        let bytes: u64 = tree
            .slots
            .iter()
            .flatten()
            .map(|n| n.footprint.owned_bytes)
            .sum();
        let owned: u64 = tree
            .slots
            .iter()
            .flatten()
            .map(|n| n.footprint.owned_pages)
            .sum();
        let shared: u64 = tree
            .slots
            .iter()
            .flatten()
            .map(|n| n.footprint.shared_pages)
            .sum();
        assert_eq!(tree.resident_bytes, bytes);
        assert_eq!(tree.owned_pages, owned);
        assert_eq!(tree.shared_pages, shared);
    }

    #[test]
    fn links_die_with_their_node() {
        let program = order_violation();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut tree = SnapshotTree::new(1);
        // Decisions 1 and 2 of [0, 1, 1] were single-choice.
        assert!(put(&mut tree, &[0, 1, 1], capture(&mut machine, 1, 3), 0));
        let linked = tree
            .links
            .get(&hashes_of(&[0])[1])
            .map(|&slot| tree.node(slot).key());
        assert_eq!(linked, Some([0, 1, 1].as_slice()));
        assert!(put(&mut tree, &[1], capture(&mut machine, 1, 1), 0));
        assert!(tree.links.is_empty(), "evicting the node drops its link");
    }

    #[test]
    fn pct_walk_resumes_exactly_where_the_run_would_be() {
        // A PCT run resumed from the node its walk reaches must make the
        // same decisions and end the same way as the same seed from
        // scratch, for every seed.
        let program = counters();
        let runner = Runner::new(&program, &MachineConfig::default());
        let mask = PointMask::SYNC_SHARED;
        let probe = runner.frontier(
            &RunPlan {
                prefix: Vec::new(),
                resume: None,
                capture: CAPTURE_PER_RUN,
                capture_from: 1,
            },
            mask,
            None,
        );
        let root = probe.consults.get(0).eligible.to_vec();
        let cfg = PctConfig {
            depth: 3,
            k: 16,
            mask,
        };
        let mut tree = SnapshotTree::new(256);
        let mut probe = probe;
        tree.absorb(&mut probe);
        // Runs that preempt thread 0 inside its first critical section:
        // thread 1 blocks, and thread 0's consults up to its unlock are
        // single-choice — the gaps links bridge.
        for i in 1..8 {
            let mut prefix = vec![0; i];
            prefix.push(1);
            let mut ex = runner.frontier(
                &RunPlan {
                    capture_from: prefix.len(),
                    prefix,
                    resume: None,
                    capture: CAPTURE_PER_RUN,
                },
                mask,
                None,
            );
            tree.absorb(&mut ex);
        }
        assert!(!tree.links.is_empty(), "single-choice gaps were captured");
        let (mut resumed, mut bridged) = (0, 0);
        for seed in 0..64 {
            let (sched, resume) = tree.walk_pct(seed, cfg, &root, runner.threads());
            let skipped = resume.as_ref().map_or(0, |r| r.depth as u64);
            resumed += usize::from(resume.is_some());
            let plan = PctPlan {
                seed,
                sched,
                resume,
                capture: 0,
            };
            let fresh = PctPlan {
                seed,
                sched: PctScheduler::new(seed, cfg),
                resume: None,
                capture: 0,
            };
            let (a, b) = (runner.pct(&plan, None), runner.pct(&fresh, None));
            if skipped > 0 {
                let node =
                    node_at(&tree, &a.trace.decisions[..skipped as usize]).expect("resumed node");
                bridged += usize::from(node.singles_from < skipped as usize);
            }
            assert_eq!(a.outcome, b.outcome, "seed {seed}");
            assert_eq!(a.trace, b.trace, "seed {seed}");
            assert_eq!(a.demotions, b.demotions, "seed {seed}");
            assert_eq!(a.picks + skipped, b.picks, "seed {seed}: live picks only");
        }
        assert!(resumed > 0, "some seed follows the probe's first choice");
        assert!(bridged > 0, "some walk followed a link");
    }

    #[test]
    fn pct_decision_counter_counts_live_picks_only() {
        // Picks a resumed run's scheduler replayed during the tree walk
        // were made by no live run: the observer must not count them.
        use crate::sched::explore::observer_test_guard;
        use crate::sched::{explore_observed, ExploreConfig, ExploreObserver, ExploreStrategy};
        let _guard = observer_test_guard();
        let program = counters();
        let decisions = |snapshot_budget: usize| {
            let mut ec = ExploreConfig::new(ExploreStrategy::Pct { depth: 3 });
            ec.mask = PointMask::SYNC_SHARED;
            ec.budget = 48;
            ec.stop_at_first = false;
            ec.snapshot_budget = snapshot_budget;
            let mut obs = ExploreObserver::new();
            let config = MachineConfig::default();
            let report = explore_observed(&program, &config, &ec, Some(&mut obs));
            (report, obs.decisions_pct)
        };
        let (cached, live) = decisions(DEFAULT_SNAPSHOT_BUDGET);
        let (uncached, all) = decisions(0);
        assert_eq!(cached.normalized(), uncached.normalized());
        assert!(cached.snapshot_hits > 0, "some runs resumed");
        assert!(0 < live && live < all, "live {live} vs all {all}");
    }
}
