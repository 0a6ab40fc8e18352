//! Reusable scratch memory for the multilevel partitioner.
//!
//! Partitioning is called in a loop by every dynamic-repartitioning workload
//! (the paper's motivating use case), so its cost must stay negligible next
//! to a solver iteration. The allocation profile used to be dominated by
//! per-level / per-pass `Vec` churn; [`PartitionWorkspace`] hoists every
//! scratch buffer out of the hot loops so that repeated calls are
//! allocation-free after warm-up:
//!
//! * **Scratch arenas** — FM gains, lock flags, matching/stamp arrays,
//!   subgraph-extraction maps: plain `Vec`s resized (never shrunk) to the
//!   current instance, so the first — largest — call pays all allocations.
//! * **Buffer pools** — coarse-level CSR arrays, extraction results and
//!   side/projection buffers cycle through best-fit free-lists (`Pool`:
//!   `pool_u32` / `pool_u8` / `pool_levels`); a dead `CsrGraph` is
//!   decomposed with [`CsrGraph::into_parts`] and its arrays are reused by
//!   the next level or sibling bisection instead of being freed and
//!   re-allocated. Every take names the length it will fill and gets the
//!   smallest pooled buffer that holds it, so a workspace carries capacity
//!   bounded by its deepest live set of buffers, not by the largest role
//!   each buffer ever played.
//! * **[`GainBuckets`]** — the classic FM bounded-gain bucket structure
//!   (doubly linked lists indexed by gain) replacing the lazy-deletion
//!   `BinaryHeap`: O(1) insert/remove/update on neighbour-gain change, and
//!   best-feasible selection by walking buckets downward.
//!
//! Determinism: none of this changes the *inputs* to any decision; the only
//! behavioural change is the FM/rebalance tie-break order, which is
//! documented at [`GainBuckets`] and fixed (most-recently-touched first
//! within a gain bucket — every operation is a pure function of the
//! insertion/update sequence, which is itself seed-deterministic).

use tempart_graph::CsrGraph;
use tempart_obs::Recorder;

/// Sentinel for "no vertex / no bucket".
const NONE: u32 = u32::MAX;

/// Largest |gain| with a bucket of its own. Larger gains share the end
/// buckets, so edge weights near `u32::MAX` cost 2^21 bucket heads, not
/// `2·max_gain + 1`; callers keep the exact gains beside the structure.
const GAIN_CAP: i64 = 1 << 20;

/// Bounded-gain bucket priority structure for FM refinement.
///
/// Vertices live in doubly linked lists indexed by gain (offset so the most
/// negative representable gain maps to bucket 0; gains beyond ±2^20 share
/// the end buckets). All operations are O(1)
/// except [`GainBuckets::pop_best`], which walks from the highest non-empty
/// bucket downward past infeasible candidates.
///
/// **Tie-break (documented determinism contract):** within one gain bucket,
/// candidates are visited most-recently-inserted first (LIFO). Insertion
/// order is deterministic — vertices enter in ascending id during seeding
/// and in adjacency order during neighbour updates — so the whole structure
/// is a pure function of the operation sequence. This replaces the previous
/// `BinaryHeap<(gain, vertex)>` order (highest vertex id first among equal
/// gains, modulo stale entries).
#[derive(Debug, Default)]
pub struct GainBuckets {
    /// Head vertex per gain bucket (`NONE` = empty).
    heads: Vec<u32>,
    /// Next vertex in the same bucket.
    next: Vec<u32>,
    /// Previous vertex in the same bucket (`NONE` for the head).
    prev: Vec<u32>,
    /// Current bucket index per vertex (`NONE` = not present).
    gidx: Vec<u32>,
    /// `gain + offset` = bucket index (`offset` = `bound` capped at 2^20).
    offset: i64,
    /// The instance's gain bound: every |gain| stays within it.
    bound: i64,
    /// Highest bucket index that may be non-empty.
    cur_max: usize,
    /// Number of vertices currently stored.
    len: usize,
    /// Vertex count of the current instance (`gidx[..n]` is the active range).
    n: usize,
    /// Bucket count of the current instance (`heads[..nbuckets]` is active).
    nbuckets: usize,
}

impl GainBuckets {
    /// Grows the structure to fit `n` vertices with gains in
    /// `[-max_gain, max_gain]`, then clears it. May allocate; call once per
    /// refinement instance (the warm-up), then use [`Self::clear`] per pass.
    pub fn ensure(&mut self, n: usize, max_gain: i64) {
        // Wipe what the previous instance left before its range is forgotten.
        self.clear();
        let bound = max_gain.max(0);
        let max_gain = bound.min(GAIN_CAP);
        let nbuckets = (2 * max_gain + 1) as usize;
        if self.heads.len() < nbuckets {
            self.heads.resize(nbuckets, NONE);
        }
        if self.next.len() < n {
            self.next.resize(n, NONE);
            self.prev.resize(n, NONE);
            self.gidx.resize(n, NONE);
        }
        self.offset = max_gain;
        self.bound = bound;
        self.n = n;
        self.nbuckets = nbuckets;
    }

    /// Empties the structure without releasing memory (no allocation).
    ///
    /// Invariant: `heads` and `gidx` are all-`NONE` outside the stored
    /// vertices' entries — [`Self::remove`] unlinks fully and nothing writes
    /// beyond the active range — so an empty structure is already clean, and
    /// a non-empty one only needs the current instance's range wiped, not
    /// the high-water capacity.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.heads[..self.nbuckets].fill(NONE);
            self.gidx[..self.n].fill(NONE);
            self.len = 0;
        }
        self.cur_max = 0;
    }

    /// Number of stored vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no vertex is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `v` is currently stored.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.gidx[v as usize] != NONE
    }

    #[inline]
    fn index_of(&self, gain: i64) -> usize {
        debug_assert!(
            gain.abs() <= self.bound,
            "gain {gain} out of bound ±{}",
            self.bound
        );
        (gain.clamp(-GAIN_CAP, GAIN_CAP) + self.offset) as usize
    }

    /// Inserts `v` with `gain`. `v` must not already be present. Inlined:
    /// FM's neighbour loop and the repart transfers call it once per
    /// touched vertex.
    #[inline]
    pub fn insert(&mut self, v: u32, gain: i64) {
        debug_assert!((v as usize) < self.n, "vertex {v} outside the instance");
        debug_assert!(!self.contains(v), "vertex {v} already bucketed");
        let idx = self.index_of(gain);
        let head = self.heads[idx];
        self.next[v as usize] = head;
        self.prev[v as usize] = NONE;
        if head != NONE {
            self.prev[head as usize] = v;
        }
        self.heads[idx] = v;
        self.gidx[v as usize] = idx as u32;
        if idx > self.cur_max {
            self.cur_max = idx;
        }
        self.len += 1;
    }

    /// Removes `v` if present (no-op otherwise).
    pub fn remove(&mut self, v: u32) {
        let idx = self.gidx[v as usize];
        if idx == NONE {
            return;
        }
        let p = self.prev[v as usize];
        let nx = self.next[v as usize];
        if p == NONE {
            self.heads[idx as usize] = nx;
        } else {
            self.next[p as usize] = nx;
        }
        if nx != NONE {
            self.prev[nx as usize] = p;
        }
        self.gidx[v as usize] = NONE;
        self.len -= 1;
    }

    /// Moves `v` to the bucket for `gain` (inserts if absent). O(1).
    pub fn update(&mut self, v: u32, gain: i64) {
        self.remove(v);
        self.insert(v, gain);
    }

    /// Extracts the best-gain vertex accepted by `feasible`, scanning from
    /// the highest non-empty bucket downward. Rejected candidates stay in
    /// place (they may become feasible after the next applied move). Gives
    /// up after examining `scan_limit` rejected candidates, returning
    /// `None` — mirroring the bounded "stash" of the previous
    /// heap implementation.
    pub fn pop_best(
        &mut self,
        scan_limit: usize,
        mut feasible: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut scanned = 0usize;
        // Lower `cur_max` past empty top buckets (amortised O(1): it only
        // grows via insert).
        let mut idx = self.cur_max;
        while self.heads[idx] == NONE {
            if idx == 0 {
                self.cur_max = 0;
                return None;
            }
            idx -= 1;
        }
        self.cur_max = idx;
        loop {
            let mut v = self.heads[idx];
            while v != NONE {
                if feasible(v) {
                    self.remove(v);
                    return Some(v);
                }
                scanned += 1;
                if scanned >= scan_limit {
                    return None;
                }
                v = self.next[v as usize];
            }
            // This bucket exhausted (but possibly non-empty with infeasible
            // entries — do not lower cur_max below it).
            loop {
                if idx == 0 {
                    return None;
                }
                idx -= 1;
                if self.heads[idx] != NONE {
                    break;
                }
            }
        }
    }
}

/// Reusable scratch memory threaded through
/// [`partition_graph_with`](crate::partition_graph_with) and every stage
/// below it (`coarsen` / `initial` / `refine` / `bisect` / `par_kway`).
///
/// Construction is cheap (every arena starts empty); arenas grow to the
/// largest instance seen and are never shrunk, and the buffer pools hold
/// what the deepest live set of buffers of a call needs (every take names
/// its length and gets the best fit), so a long-lived workspace makes
/// repeated partitioning calls allocation-free after the first.
/// A workspace carries **no state** between calls — only capacity. Two
/// consecutive `partition_graph_with` calls sharing one workspace return
/// bit-identical results to fresh-workspace calls (covered by
/// `tests/workspace_reuse.rs`).
#[derive(Debug, Default)]
pub struct PartitionWorkspace {
    // --- observability ---
    /// Structured-event recorder the partitioner phases emit into. Defaults
    /// to the process-wide disabled recorder ([`Recorder::off`]) — every
    /// emission is then a single branch, preserving the zero-allocation
    /// contract of the hot loops. Install an enabled recorder
    /// (`ws.obs = rec.clone()`) to trace coarsen/initial/refine/bisect/kway
    /// phases with per-level move and gain-bucket counters.
    pub obs: Recorder,
    /// Current uncoarsening level, used as the counter track by the FM /
    /// rebalance emissions (set by the multilevel driver).
    pub(crate) obs_level: u32,

    // --- FM refinement ---
    /// Per-vertex FM gain.
    pub(crate) gain: Vec<i64>,
    /// Per-vertex count of edges to the other side (FM's boundary test).
    pub(crate) ext: Vec<u32>,
    /// Per-vertex lock flag (moved this pass).
    pub(crate) locked: Vec<bool>,
    /// Applied moves this pass, for best-prefix rollback.
    pub(crate) history: Vec<u32>,
    /// Gain buckets of FM, of the rebalance candidate index and of the
    /// diffusion transfers, one user at a time.
    pub(crate) buckets: GainBuckets,
    /// Per-side/per-constraint weight bookkeeping.
    pub(crate) side_weights: crate::initial::SideWeights,

    // --- coarsening ---
    /// Matching result per vertex.
    pub(crate) match_of: Vec<u32>,
    /// Shuffled visit order.
    pub(crate) order: Vec<u32>,
    /// Matched flags.
    pub(crate) matched: Vec<bool>,
    /// Dominant weight class per vertex (multi-constraint matching only).
    pub(crate) class_of: Vec<u32>,
    /// Stamp array for coarse-adjacency accumulation.
    pub(crate) stamp: Vec<u32>,
    /// Slot of each stamped coarse neighbour in the adjacency being built
    /// (CSR offsets are `u32`).
    pub(crate) slot: Vec<u32>,
    /// Sorting scratch for one coarse vertex's adjacency.
    pub(crate) pairs: Vec<(u32, u32)>,

    // --- initial bisection (coarsest graph only) ---
    /// Frontier max-heap for greedy graph growing.
    pub(crate) grow_heap: crate::initial::GrowHeap,
    /// Current growth attempt (swapped with the best-so-far buffer).
    pub(crate) grow_side: Vec<u8>,

    // --- subgraph extraction ---
    /// Original-vertex → sub-vertex map.
    pub(crate) to_sub: Vec<u32>,

    // --- k-way refinement ---
    /// Part weights (`part * ncon + c`).
    pub(crate) kw_pw: Vec<i64>,
    /// Part populations.
    pub(crate) kw_psize: Vec<usize>,
    /// Boundary pair and candidate lists of the pairwise passes
    /// ([`crate::par_kway`], [`crate::repart`]), with their build scratch.
    pub(crate) boundary: crate::par_kway::Boundary,
    /// Scratch of the pair colouring.
    pub(crate) kw_used: Vec<u64>,
    /// Colour per boundary pair, the pairs in schedule order and the
    /// counting sort's cursor ([`crate::par_kway::schedule_order`]).
    pub(crate) kw_colours: Vec<u32>,
    pub(crate) kw_order: Vec<u32>,
    pub(crate) kw_cursor: Vec<usize>,
    /// The diffusion repartitioner's round-plan buffers between calls.
    pub(crate) plan: crate::repart::RoundPlan,
    /// Per-constraint weight totals.
    pub(crate) kw_tot: Vec<i64>,
    /// Per-constraint part allowance (average × ub).
    pub(crate) kw_allow: Vec<f64>,

    // --- space-filling curve ---
    /// Scratch of the curve partition ([`crate::sfc_partition_by`]), so a
    /// workspace leased from a [`WorkspacePool`](crate::WorkspacePool)
    /// serves the geometric strategies as it serves the multilevel ones.
    /// Its recorder is reset with `obs` by the pool.
    pub sfc: crate::SfcWorkspace,

    // --- buffer pools (best-fit free-lists) ---
    pool_u32: Pool<u32>,
    pool_u8: Pool<u8>,
    pool_levels: Pool<crate::coarsen::CoarseLevel>,
}

impl PartitionWorkspace {
    /// An empty workspace (allocates nothing until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty `Vec<u32>` with room for `len` elements: the pooled buffer
    /// with the smallest sufficient capacity, or a fresh one of exactly
    /// `len` (see [`Pool::take`]).
    pub(crate) fn take_u32(&mut self, len: usize) -> Vec<u32> {
        self.pool_u32.take(len)
    }

    /// Returns a `Vec<u32>` to the pool.
    pub(crate) fn give_u32(&mut self, v: Vec<u32>) {
        self.pool_u32.give(v);
    }

    /// An empty `Vec<u8>` with room for `len` elements (best fit, as
    /// [`Self::take_u32`]).
    pub(crate) fn take_u8(&mut self, len: usize) -> Vec<u8> {
        self.pool_u8.take(len)
    }

    /// Returns a `Vec<u8>` to the pool.
    pub(crate) fn give_u8(&mut self, v: Vec<u8>) {
        self.pool_u8.give(v);
    }

    /// Decomposes a dead graph and pools its CSR arrays for reuse.
    pub(crate) fn give_graph(&mut self, g: CsrGraph) {
        let (xadj, adjncy, adjwgt, vwgt, _ncon) = g.into_parts();
        for v in [xadj, adjncy, adjwgt, vwgt] {
            self.pool_u32.give(v);
        }
    }

    /// An empty level vector with room for `len` levels, for a new
    /// coarsening hierarchy (best fit, as [`Self::take_u32`]).
    pub(crate) fn take_levels(&mut self, len: usize) -> Vec<crate::coarsen::CoarseLevel> {
        self.pool_levels.take(len)
    }

    /// Recycles one coarse level's graph and projection map.
    pub(crate) fn give_level(&mut self, level: crate::coarsen::CoarseLevel) {
        self.give_graph(level.graph);
        self.pool_u32.give(level.fine_to_coarse);
    }

    /// Recycles a whole coarsening hierarchy (graphs, maps and the level
    /// vector itself).
    pub(crate) fn give_hierarchy(&mut self, mut h: crate::coarsen::Hierarchy) {
        for level in h.levels.drain(..) {
            self.give_level(level);
        }
        self.pool_levels.give(h.levels);
    }
}

/// A best-fit free-list of `Vec<T>` buffers.
///
/// [`Pool::take`] hands out the pooled buffer with the *smallest* capacity
/// that holds the requested length, and allocates exactly that length when
/// none does. A buffer therefore serves the smallest role it fits rather
/// than whichever role returned last, so no buffer grows to the largest role
/// it ever held, and the pool's capacity stays bounded by the deepest live
/// set of requests. Callers pass an upper bound on the length they will
/// fill, so a taken buffer never grows. A call that returns its buffers in
/// reverse order of taking (consecutive returns in any order), as the
/// one-worker partitioner does, then finds a fit at every take when it is
/// replayed on the pool it left behind: a warm call allocates nothing.
/// Capacity never reaches a result: every buffer comes back empty.
#[derive(Debug)]
pub(crate) struct Pool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self { free: Vec::new() }
    }
}

impl<T> Pool<T> {
    /// An empty buffer with capacity for at least `len` elements: the
    /// smallest sufficient pooled one, else a fresh one of exactly `len`.
    pub(crate) fn take(&mut self, len: usize) -> Vec<T> {
        let best = (0..self.free.len())
            .filter(|&i| self.free[i].capacity() >= len)
            .min_by_key(|&i| self.free[i].capacity());
        match best {
            Some(i) => {
                let mut v = self.free.swap_remove(i);
                v.clear();
                v
            }
            None => Vec::with_capacity(len),
        }
    }

    /// Returns a buffer to the pool.
    pub(crate) fn give(&mut self, v: Vec<T>) {
        self.free.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_pop_in_gain_order() {
        let mut b = GainBuckets::default();
        b.ensure(8, 10);
        b.insert(0, -3);
        b.insert(1, 5);
        b.insert(2, 5);
        b.insert(3, 0);
        // LIFO within bucket: 2 (inserted after 1) pops first at gain 5.
        assert_eq!(b.pop_best(64, |_| true), Some(2));
        assert_eq!(b.pop_best(64, |_| true), Some(1));
        assert_eq!(b.pop_best(64, |_| true), Some(3));
        assert_eq!(b.pop_best(64, |_| true), Some(0));
        assert_eq!(b.pop_best(64, |_| true), None);
        assert!(b.is_empty());
    }

    #[test]
    fn buckets_update_moves_vertex() {
        let mut b = GainBuckets::default();
        b.ensure(4, 6);
        b.insert(0, 1);
        b.insert(1, 2);
        b.update(0, 6); // 0 overtakes 1
        assert_eq!(b.pop_best(64, |_| true), Some(0));
        assert_eq!(b.pop_best(64, |_| true), Some(1));
    }

    #[test]
    fn buckets_skip_infeasible_and_keep_them() {
        let mut b = GainBuckets::default();
        b.ensure(4, 4);
        b.insert(0, 4);
        b.insert(1, 2);
        // 0 rejected, 1 accepted; 0 must survive for the next call.
        assert_eq!(b.pop_best(64, |v| v != 0), Some(1));
        assert!(b.contains(0));
        assert_eq!(b.pop_best(64, |_| true), Some(0));
    }

    #[test]
    fn buckets_scan_limit_bounds_the_walk() {
        let mut b = GainBuckets::default();
        b.ensure(8, 2);
        for v in 0..8 {
            b.insert(v, 1);
        }
        let mut seen = 0;
        let r = b.pop_best(3, |_| {
            seen += 1;
            false
        });
        assert_eq!(r, None);
        assert_eq!(seen, 3);
        assert_eq!(b.len(), 8, "nothing removed by a failed scan");
    }

    #[test]
    fn buckets_remove_mid_list() {
        let mut b = GainBuckets::default();
        b.ensure(4, 2);
        b.insert(0, 0);
        b.insert(1, 0);
        b.insert(2, 0);
        b.remove(1); // middle of the LIFO list 2 -> 1 -> 0
        assert_eq!(b.pop_best(64, |_| true), Some(2));
        assert_eq!(b.pop_best(64, |_| true), Some(0));
        assert_eq!(b.pop_best(64, |_| true), None);
    }

    #[test]
    fn buckets_clear_reuses_capacity() {
        let mut b = GainBuckets::default();
        b.ensure(4, 4);
        b.insert(3, -4);
        b.clear();
        assert!(b.is_empty());
        assert!(!b.contains(3));
        b.insert(3, 4);
        assert_eq!(b.pop_best(64, |_| true), Some(3));
    }

    #[test]
    fn buckets_small_instance_after_large_nonempty_one_sees_no_stale_entry() {
        // A large instance abandoned non-empty (FM stops a pass with
        // candidates still queued), then a small one in the same structure:
        // the bounded clear must have wiped the large instance's range.
        let mut b = GainBuckets::default();
        b.ensure(4096, 500);
        for v in 0..4096u32 {
            b.insert(v, i64::from(v % 1001) - 500);
        }
        assert_eq!(b.len(), 4096);
        b.ensure(16, 3);
        assert!(b.is_empty());
        assert!((0..16).all(|v| !b.contains(v)));
        assert_eq!(b.pop_best(64, |_| true), None);
        // Pop order as documented: best gain first, LIFO within a bucket.
        b.insert(5, 3);
        b.insert(9, -3);
        b.insert(2, 3);
        b.insert(7, 0);
        for want in [2, 5, 7, 9] {
            assert_eq!(b.pop_best(64, |_| true), Some(want));
        }
        assert!(b.is_empty());
        // Back to a large instance (drained, so `clear` took the empty fast
        // path): nothing of either earlier instance is visible.
        b.ensure(4096, 500);
        assert!((0..4096).all(|v| !b.contains(v)));
        assert_eq!(b.pop_best(usize::MAX, |_| true), None);
        b.insert(4000, -500);
        b.insert(17, 500);
        assert_eq!(b.pop_best(64, |_| true), Some(17));
        assert_eq!(b.pop_best(64, |_| true), Some(4000));
    }

    #[test]
    fn buckets_clear_mid_pass_wipes_the_active_range() {
        let mut b = GainBuckets::default();
        b.ensure(64, 8);
        for v in 0..64u32 {
            b.insert(v, i64::from(v % 17) - 8);
        }
        let _ = b.pop_best(64, |_| true);
        b.clear();
        assert!(b.is_empty());
        assert!((0..64).all(|v| !b.contains(v)));
        assert_eq!(b.pop_best(64, |_| true), None);
        b.insert(63, -8);
        assert_eq!(b.pop_best(64, |_| true), Some(63));
    }

    #[test]
    fn buckets_cap_their_range_and_share_the_end_buckets() {
        let mut b = GainBuckets::default();
        b.ensure(6, 8_000_000_000);
        assert_eq!(b.heads.len(), 2 * GAIN_CAP as usize + 1);
        b.insert(0, 5);
        b.insert(1, 8_000_000_000);
        b.insert(2, GAIN_CAP);
        b.insert(3, -8_000_000_000);
        b.insert(4, -GAIN_CAP + 1);
        // 1 and 2 share the top bucket (LIFO: 2 first), 3 the bottom one.
        for want in [2, 1, 0, 4, 3] {
            assert_eq!(b.pop_best(64, |_| true), Some(want));
        }
        assert!(b.is_empty());
    }

    #[test]
    fn pool_roundtrip_reuses_buffers() {
        let mut ws = PartitionWorkspace::new();
        let mut v = ws.take_u32(3);
        v.extend_from_slice(&[1, 2, 3]);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        ws.give_u32(v);
        let v2 = ws.take_u32(3);
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr, "same buffer came back");
    }

    /// `(address, capacity)` of every buffer in `pool`.
    fn inventory(pool: &Pool<u32>) -> Vec<(usize, usize)> {
        pool.free
            .iter()
            .map(|v| (v.as_ptr() as usize, v.capacity()))
            .collect()
    }

    #[test]
    fn pool_take_returns_the_smallest_sufficient_buffer() {
        let mut pool = Pool::<u32>::default();
        let bufs: Vec<Vec<u32>> = [32, 16, 64].map(Vec::with_capacity).into();
        let ptrs: Vec<*const u32> = bufs.iter().map(|v| v.as_ptr()).collect();
        bufs.into_iter().for_each(|v| pool.give(v));
        // The last buffer given (64) is not the one that fits best.
        let v = pool.take(20);
        assert_eq!((v.as_ptr(), v.capacity()), (ptrs[0], 32));
        let w = pool.take(16);
        assert_eq!((w.as_ptr(), w.capacity()), (ptrs[1], 16));
        let x = pool.take(0);
        assert_eq!((x.as_ptr(), x.capacity()), (ptrs[2], 64));
    }

    #[test]
    fn pool_miss_allocates_exactly_the_request() {
        let mut pool = Pool::<u32>::default();
        pool.give(Vec::with_capacity(8));
        let before = inventory(&pool);
        let v = pool.take(100);
        assert_eq!(v.capacity(), 100, "a miss allocates the request, no more");
        assert_eq!(inventory(&pool), before, "the small buffer stays pooled");
        let w = pool.take(8);
        assert_eq!((w.as_ptr() as usize, w.capacity()), before[0]);
    }

    /// A call's worth of nested takes and gives: a coarsening hierarchy
    /// (five arrays a level, all live until it dies at once), then two
    /// sibling extractions, each returned before the next is taken.
    /// Returns `(address, capacity)` of every buffer it was handed.
    fn partition_like_call(pool: &mut Pool<u32>) -> Vec<(usize, usize)> {
        let mut seen = Vec::new();
        let mut take = |pool: &mut Pool<u32>, len: usize| {
            let v = pool.take(len);
            assert!(v.capacity() >= len);
            seen.push((v.as_ptr() as usize, v.capacity()));
            v
        };
        let mut live = Vec::new();
        for n in [1000, 520, 270, 140] {
            for len in [n, n + 1, 3 * n, 3 * n, n] {
                live.push(take(pool, len));
            }
        }
        live.drain(..).for_each(|v| pool.give(v));
        for ns in [600, 400] {
            let map = take(pool, ns);
            let adj = take(pool, 3 * ns);
            pool.give(adj);
            pool.give(map);
        }
        seen
    }

    #[test]
    fn pool_replay_on_a_warm_pool_allocates_nothing() {
        let mut pool = Pool::<u32>::default();
        partition_like_call(&mut pool);
        let warm = inventory(&pool);
        for _ in 0..3 {
            let seen = partition_like_call(&mut pool);
            assert!(
                seen.iter().all(|b| warm.contains(b)),
                "a warm replay was handed a buffer the pool did not hold"
            );
            let mut after = inventory(&pool);
            after.sort_unstable();
            let mut want = warm.clone();
            want.sort_unstable();
            assert_eq!(after, want, "the pool neither grew nor shrank");
        }
    }
}
