//! Shared memory: globals and heap.
//!
//! All memory is word-addressed: one address = one 64-bit word. The address
//! space is segmented so that the paper's pointer sanity check (Figure 5c:
//! `l_ptr > LowerBound`, default 10,000) is meaningful:
//!
//! * `0 .. LOWER_BOUND`           — never mapped (NULL page analog);
//! * `GLOBAL_BASE ..`             — global variables, laid out in
//!   declaration order;
//! * `HEAP_BASE ..`               — heap blocks from a bump allocator.
//!
//! Dereferencing an unmapped or freed address is a memory fault — the
//! segmentation-fault analog.
//!
//! ## Copy-on-write pages
//!
//! Globals are chunked into fixed-size pages and every page (and heap
//! block) is a two-state [`CowWords`]: `Owned` words are written in place
//! with no synchronization at all, `Shared` words sit behind an `Arc` and
//! are copied out on the first write. [`Memory::fork`] moves every owned
//! buffer behind an `Arc` (no copy) and clones the resulting all-shared
//! image — a handful of refcount bumps, cost proportional to the pages
//! dirtied since the previous fork rather than to program state size.
//! This is the iReplayer-style lightweight checkpoint the snapshot tree
//! is built on: the first write after a fork re-owns just that page.
//!
//! The two-state enum deliberately replaces a bare `Arc<Vec<i64>>` +
//! `Arc::make_mut` representation: `make_mut` performs atomic refcount
//! traffic on *every* write, while `Owned` keeps the interpreter's
//! global-store fast path a plain indexed store.

use std::collections::BTreeMap;
use std::sync::Arc;

use conair_ir::{GlobalId, Module};

/// Default pointer lower bound (paper Figure 5c: 10,000).
pub const DEFAULT_LOWER_BOUND: i64 = 10_000;

/// First address of the global segment.
pub const GLOBAL_BASE: i64 = 0x1_0000;

/// First address of the heap segment.
pub const HEAP_BASE: i64 = 0x100_0000;

/// Words per global page: small enough that one dirtied scalar re-owns
/// only 512 bytes, large enough that a fork of a quiescent memory is a
/// short run of refcount bumps.
pub const PAGE_WORDS: usize = 64;
const PAGE_SHIFT: usize = PAGE_WORDS.trailing_zeros() as usize;
const PAGE_MASK: usize = PAGE_WORDS - 1;

/// Most heap words one run may hold live at once (128 MiB of words). An
/// allocation past it is refused, so a program that computes a huge count
/// ends its run with a failure instead of exhausting the host.
pub const MAX_HEAP_WORDS: usize = 1 << 24;

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting address.
    pub addr: i64,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid memory access at {:#x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

/// A clone-on-first-write word buffer — one global page or one heap block.
///
/// `Owned` is the post-write state: reads and writes are direct slice
/// accesses. `Shared` is the post-fork state: reads go through the `Arc`,
/// the first write copies the words out and flips the state back to
/// `Owned`. Cloning bumps a refcount for `Shared` and copies the words for
/// `Owned` — so `Memory::clone` after [`Memory::fork`] (which shares
/// everything) never copies word data.
#[derive(Debug, Clone)]
enum CowWords {
    Owned(Vec<i64>),
    Shared(Arc<Vec<i64>>),
}

impl CowWords {
    #[inline(always)]
    fn as_slice(&self) -> &[i64] {
        match self {
            CowWords::Owned(w) => w,
            CowWords::Shared(a) => a,
        }
    }

    #[inline(always)]
    fn get(&self, i: usize) -> i64 {
        self.as_slice()[i]
    }

    /// Writes one word, copying the buffer out of the `Arc` first if it is
    /// shared (clone-on-first-write).
    #[inline(always)]
    fn set(&mut self, i: usize, v: i64) {
        match self {
            CowWords::Owned(w) => w[i] = v,
            CowWords::Shared(a) => {
                let mut w = a.as_ref().clone();
                w[i] = v;
                *self = CowWords::Owned(w);
            }
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Moves an owned buffer behind an `Arc` (no word copy) so subsequent
    /// clones are refcount bumps.
    fn share(&mut self) {
        if let CowWords::Owned(w) = self {
            *self = CowWords::Shared(Arc::new(std::mem::take(w)));
        }
    }

    /// Whether this buffer's words are resident in (owned by) the holder:
    /// either genuinely `Owned`, or `Shared` with no other referent.
    fn is_resident(&self) -> bool {
        match self {
            CowWords::Owned(_) => true,
            CowWords::Shared(a) => Arc::strong_count(a) == 1,
        }
    }
}

/// Page-sharing accounting of one [`Memory`] image (globals pages + heap
/// blocks), used by the snapshot tree's eviction-by-bytes pressure signal
/// and the observability gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Pages/blocks whose words only this image holds (owned, or shared
    /// with refcount 1).
    pub owned_pages: u64,
    /// Pages/blocks structurally shared with at least one other image.
    pub shared_pages: u64,
    /// Bytes of word data behind the owned pages.
    pub owned_bytes: u64,
}

/// The shared-memory state of one program run.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Global words, chunked into [`PAGE_WORDS`]-word CoW pages (the last
    /// page is zero-padded to full size so indexing never branches).
    pages: Vec<CowWords>,
    /// Number of addressable global words (excludes tail padding).
    globals_len: usize,
    /// Word offset of each global in the flat global space. Immutable
    /// after construction, so clones (one per snapshot fork) share it.
    offsets: Arc<Vec<usize>>,
    /// Live heap blocks keyed by base address.
    heap: BTreeMap<i64, CowWords>,
    next_heap: i64,
    /// Words held by the live heap blocks (at most [`MAX_HEAP_WORDS`]).
    live_words: usize,
    /// Words allocated over the lifetime of the run (diagnostics).
    pub total_allocated: usize,
}

impl Memory {
    /// Initializes memory for `module`'s globals.
    pub fn new(module: &Module) -> Self {
        let mut globals = Vec::new();
        let mut offsets = Vec::with_capacity(module.globals.len());
        for g in &module.globals {
            offsets.push(globals.len());
            globals.extend(std::iter::repeat_n(g.init, g.words));
        }
        let globals_len = globals.len();
        let pages = globals
            .chunks(PAGE_WORDS)
            .map(|c| {
                let mut w = c.to_vec();
                w.resize(PAGE_WORDS, 0);
                CowWords::Owned(w)
            })
            .collect();
        Self {
            pages,
            globals_len,
            offsets: Arc::new(offsets),
            heap: BTreeMap::new(),
            next_heap: HEAP_BASE,
            live_words: 0,
            total_allocated: 0,
        }
    }

    /// The address of word 0 of `global`.
    ///
    /// # Panics
    ///
    /// Panics if `global` is out of range (validated modules never do this).
    pub fn global_addr(&self, global: GlobalId) -> i64 {
        GLOBAL_BASE + self.offsets[global.index()] as i64
    }

    /// Reads global word 0 directly (the common scalar-global fast path).
    #[inline(always)]
    pub fn read_global(&self, global: GlobalId) -> i64 {
        let off = self.offsets[global.index()];
        self.pages[off >> PAGE_SHIFT].get(off & PAGE_MASK)
    }

    /// Writes global word 0 directly.
    #[inline(always)]
    pub fn write_global(&mut self, global: GlobalId, value: i64) {
        let off = self.offsets[global.index()];
        self.pages[off >> PAGE_SHIFT].set(off & PAGE_MASK, value);
    }

    /// Allocates `words` heap words, returning the block base address, or
    /// `None` (allocating nothing) if the live heap would exceed
    /// [`MAX_HEAP_WORDS`].
    pub fn alloc(&mut self, words: usize) -> Option<i64> {
        let words = words.max(1);
        if words > MAX_HEAP_WORDS - self.live_words {
            return None;
        }
        self.live_words += words;
        let base = self.next_heap;
        // Pad between blocks so off-by-one pointers fault rather than
        // silently touching a neighbor.
        self.next_heap += words as i64 + 1;
        self.heap.insert(base, CowWords::Owned(vec![0; words]));
        self.total_allocated += words;
        Some(base)
    }

    /// Structural content equality: same addressable globals (word for
    /// word), same live heap blocks, same allocation cursor. CoW sharing
    /// state and the `total_allocated` diagnostic are representation
    /// details and do not participate — two images that print the same are
    /// equal.
    pub fn content_eq(&self, other: &Memory) -> bool {
        self.globals_len == other.globals_len
            && self.next_heap == other.next_heap
            && self.pages.len() == other.pages.len()
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| a.as_slice() == b.as_slice())
            && self.heap.len() == other.heap.len()
            && self
                .heap
                .iter()
                .zip(&other.heap)
                .all(|((ab, aw), (bb, bw))| ab == bb && aw.as_slice() == bw.as_slice())
    }

    /// Frees the block based at `base`.
    ///
    /// # Errors
    ///
    /// Faults if `base` is not the base of a live block (double free or
    /// wild free).
    pub fn free(&mut self, base: i64) -> Result<(), MemFault> {
        let block = self.heap.remove(&base).ok_or(MemFault { addr: base })?;
        self.live_words -= block.len();
        Ok(())
    }

    /// Whether `addr` is a currently-valid (mapped) address.
    pub fn is_valid(&self, addr: i64) -> bool {
        self.resolve(addr).is_some()
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses.
    pub fn read(&self, addr: i64) -> Result<i64, MemFault> {
        match self.resolve(addr) {
            Some(Slot::Global(off)) => Ok(self.pages[off >> PAGE_SHIFT].get(off & PAGE_MASK)),
            Some(Slot::Heap(base, idx)) => Ok(self.heap[&base].get(idx)),
            None => Err(MemFault { addr }),
        }
    }

    /// Writes the word at `addr`.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses.
    pub fn write(&mut self, addr: i64, value: i64) -> Result<(), MemFault> {
        match self.resolve(addr) {
            Some(Slot::Global(off)) => {
                self.pages[off >> PAGE_SHIFT].set(off & PAGE_MASK, value);
                Ok(())
            }
            Some(Slot::Heap(base, idx)) => {
                self.heap
                    .get_mut(&base)
                    .expect("resolved block")
                    .set(idx, value);
                Ok(())
            }
            None => Err(MemFault { addr }),
        }
    }

    /// Number of live heap blocks (leak checks in tests).
    pub fn live_blocks(&self) -> usize {
        self.heap.len()
    }

    /// A structurally shared copy of this memory: every owned page and heap
    /// block is first moved behind an `Arc` (no word copy), then the image
    /// is cloned — refcount bumps only. Writes to either copy afterwards
    /// re-own just the touched page. This is the snapshot capture path;
    /// cost is proportional to the pages dirtied since the previous fork.
    pub fn fork(&mut self) -> Memory {
        for p in &mut self.pages {
            p.share();
        }
        for b in self.heap.values_mut() {
            b.share();
        }
        self.clone()
    }

    /// Page-sharing accounting: which of this image's pages/blocks are the
    /// holder's own (eviction would release their bytes) vs structurally
    /// shared with other images.
    pub fn cow_footprint(&self) -> MemoryFootprint {
        let mut fp = MemoryFootprint::default();
        for words in self.pages.iter().chain(self.heap.values()) {
            if words.is_resident() {
                fp.owned_pages += 1;
                fp.owned_bytes += words.len() as u64 * 8;
            } else {
                fp.shared_pages += 1;
            }
        }
        fp
    }

    fn resolve(&self, addr: i64) -> Option<Slot> {
        if (GLOBAL_BASE..GLOBAL_BASE + self.globals_len as i64).contains(&addr) {
            return Some(Slot::Global((addr - GLOBAL_BASE) as usize));
        }
        if addr >= HEAP_BASE {
            if let Some((&base, block)) = self.heap.range(..=addr).next_back() {
                let idx = (addr - base) as usize;
                if idx < block.len() {
                    return Some(Slot::Heap(base, idx));
                }
            }
        }
        None
    }
}

enum Slot {
    Global(usize),
    Heap(i64, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use conair_ir::ModuleBuilder;

    fn memory() -> (Memory, GlobalId, GlobalId) {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.global("a", 7);
        let b = mb.global_array("b", 4, -1);
        let m = mb.finish();
        (Memory::new(&m), a, b)
    }

    #[test]
    fn globals_initialized_and_addressable() {
        let (mem, a, b) = memory();
        assert_eq!(mem.read_global(a), 7);
        assert_eq!(mem.read(mem.global_addr(a)).unwrap(), 7);
        // Array words are contiguous.
        for i in 0..4 {
            assert_eq!(mem.read(mem.global_addr(b) + i).unwrap(), -1);
        }
        // One past the end faults.
        assert!(mem.read(mem.global_addr(b) + 4).is_err());
    }

    #[test]
    fn global_writes_via_both_paths_agree() {
        let (mut mem, a, _) = memory();
        mem.write_global(a, 42);
        assert_eq!(mem.read(mem.global_addr(a)).unwrap(), 42);
        mem.write(mem.global_addr(a), 43).unwrap();
        assert_eq!(mem.read_global(a), 43);
    }

    #[test]
    fn heap_alloc_read_write_free() {
        let (mut mem, _, _) = memory();
        let p = mem.alloc(3).unwrap();
        assert!(p >= HEAP_BASE);
        mem.write(p + 2, 99).unwrap();
        assert_eq!(mem.read(p + 2).unwrap(), 99);
        assert_eq!(mem.read(p).unwrap(), 0, "heap zero-initialized");
        assert!(mem.read(p + 3).is_err(), "past-the-end faults");
        assert_eq!(mem.live_blocks(), 1);
        mem.free(p).unwrap();
        assert_eq!(mem.live_blocks(), 0);
        assert!(mem.read(p).is_err(), "use-after-free faults");
        assert!(mem.free(p).is_err(), "double free faults");
    }

    #[test]
    fn null_and_low_addresses_fault() {
        let (mem, _, _) = memory();
        assert!(mem.read(0).is_err());
        assert!(mem.read(DEFAULT_LOWER_BOUND - 1).is_err());
        assert!(!mem.is_valid(0));
    }

    #[test]
    fn blocks_are_padded() {
        let (mut mem, _, _) = memory();
        let p1 = mem.alloc(2).unwrap();
        let p2 = mem.alloc(2).unwrap();
        assert!(p2 > p1 + 2, "gap between blocks");
        assert!(mem.read(p1 + 2).is_err(), "gap word is unmapped");
    }

    #[test]
    fn zero_word_alloc_rounds_up() {
        let (mut mem, _, _) = memory();
        let p = mem.alloc(0).unwrap();
        assert!(mem.read(p).is_ok());
    }

    #[test]
    fn live_heap_is_capped() {
        let (mut mem, _, _) = memory();
        assert_eq!(mem.alloc(MAX_HEAP_WORDS + 1), None);
        assert_eq!(mem.live_blocks(), 0, "a refused allocation maps nothing");
        let p = mem.alloc(MAX_HEAP_WORDS - 1).unwrap();
        assert_eq!(mem.alloc(2), None);
        mem.alloc(1).expect("exactly at the cap");
        mem.free(p).unwrap();
        assert!(mem.alloc(2).is_some(), "a free returns its words");
    }

    #[test]
    fn fork_isolates_both_directions() {
        let (mut mem, a, b) = memory();
        let p = mem.alloc(2).unwrap();
        mem.write(p, 5).unwrap();
        let snap = mem.fork();

        // Writes to the live memory never leak into the fork…
        mem.write_global(a, 100);
        mem.write(mem.global_addr(b) + 1, 200).unwrap();
        mem.write(p, 300).unwrap();
        assert_eq!(snap.read_global(a), 7);
        assert_eq!(snap.read(snap.global_addr(b) + 1).unwrap(), -1);
        assert_eq!(snap.read(p).unwrap(), 5);

        // …and a restored (cloned) fork is equally isolated from later
        // writes to the restored copy.
        let mut restored = snap.clone();
        restored.write_global(a, 999);
        assert_eq!(snap.read_global(a), 7);
        assert_eq!(restored.read_global(a), 999);
        assert_eq!(mem.read_global(a), 100);
    }

    #[test]
    fn fork_shares_alloc_free_structure() {
        let (mut mem, _, _) = memory();
        let p1 = mem.alloc(2).unwrap();
        let snap = mem.fork();
        // Post-fork alloc/free stay local to the live memory.
        let p2 = mem.alloc(2).unwrap();
        mem.free(p1).unwrap();
        assert_eq!(mem.live_blocks(), 1);
        assert_eq!(snap.live_blocks(), 1);
        assert!(snap.read(p1).is_ok(), "fork keeps the freed block alive");
        assert!(snap.read(p2).is_err(), "fork predates the second alloc");
        // The bump allocator resumes from the snapshot's watermark after a
        // restore, so addresses replay identically.
        let mut restored = snap.clone();
        assert_eq!(restored.alloc(2), Some(p2));
    }

    #[test]
    fn footprint_tracks_page_ownership() {
        let (mut mem, a, _) = memory();
        mem.alloc(8).unwrap();
        let all = mem.cow_footprint();
        // 5 global words → 1 page, plus 1 heap block; everything owned.
        assert_eq!(all.owned_pages, 2);
        assert_eq!(all.shared_pages, 0);
        assert_eq!(all.owned_bytes, (PAGE_WORDS as u64 + 8) * 8);

        let snap = mem.fork();
        assert_eq!(snap.cow_footprint().owned_pages, 0);
        assert_eq!(snap.cow_footprint().shared_pages, 2);
        assert_eq!(snap.cow_footprint().owned_bytes, 0);

        // Dirtying the global page re-owns it in the live memory only.
        mem.write_global(a, 1);
        let fp = mem.cow_footprint();
        assert_eq!(fp.owned_pages, 1);
        assert_eq!(fp.shared_pages, 1);
        assert_eq!(fp.owned_bytes, PAGE_WORDS as u64 * 8);
        // The snapshot is now the sole holder of the old page version —
        // evicting it would genuinely release those bytes.
        assert_eq!(snap.cow_footprint().owned_pages, 1);

        // Dropping the live memory makes the snapshot sole owner of all.
        drop(mem);
        assert_eq!(snap.cow_footprint().shared_pages, 0);
        assert_eq!(snap.cow_footprint().owned_pages, 2);
    }
}
