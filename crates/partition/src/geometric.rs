//! Geometric partitioning via space-filling curves.
//!
//! The paper's related work contrasts connectivity-based partitioners
//! (METIS/Scotch) with geometric ones (Zoltan, space-filling curves for CFD
//! [Aftosmis et al.]). This module provides that baseline: cells are sorted
//! along a Morton or Hilbert curve through their centroids and the curve is
//! cut into `k` consecutive, weight-balanced chunks. Geometric methods give
//! compact, cheap partitions but ignore connectivity — and support only a
//! single balancing criterion, which is precisely why the paper needs the
//! multi-constraint machinery of the multilevel partitioner.
//!
//! # Paper-scale fast path
//!
//! SFC partitioning is the O(n) route to the paper's 6.4M–12.6M-cell meshes
//! (Borrell et al., "Parallel SFC-based mesh partitioning and load
//! balancing"). Cutting the curve into `k` chunks only needs to know which
//! chunk every point falls in, not the full curve order, so the pipeline
//! sorts only the few points that sit where a chunk boundary falls:
//!
//! 1. **Keys.** Every 48-bit curve key is computed once into a pooled
//!    arena, sharded over [`tempart_runtime::fork_join`] in contiguous id
//!    ranges. The points are read where the caller keeps them
//!    ([`sfc_partition_by`]: a mesh's cells and levels, through a position
//!    and a weight accessor), never gathered into a point cloud first.
//! 2. **Buckets.** One pass counts the points and sums the weights of every
//!    bucket of the keys' top bits; a prefix sum and one scatter put the
//!    ids in bucket order (ascending id inside a bucket).
//! 3. **Walk.** The buckets are visited in curve order under the exact
//!    running-remainder rule of the canonical walk (below). A bucket in
//!    which no chunk can close after its first point is assigned whole from
//!    its count and weight sum; only the others ("boundary buckets") have
//!    their points sorted by `(key, id)` and walked one at a time.
//!
//! The canonical walk visits the points in lexicographic `(key, id)` order
//! with the state `(cur, part_w, target)` (open chunk, its weight, its
//! target). Before assigning the point at curve position `pos` it closes
//! the chunk when `cur + 1 < k` and either `part_w ≥ target` (the weight
//! test) or `n − pos < k − cur` (the must-close guard, so that every chunk
//! still unopened gets a point); a close opens chunk `cur + 1` with target
//! `⌈remaining weight / parts left⌉` (at least 1) and `part_w = 0`.
//!
//! **Why a bulk bucket is exact.** A bucket's points are consecutive in the
//! canonical order, since its keys share their top bits. The close test at
//! its first point reads only the state left by the buckets before it, so
//! it is applied as it is. After it, let the state be `(cur, part_w,
//! target)` at position `pos`, and let the bucket hold `c` points of total
//! weight `W`. The bucket is assigned whole to `cur` when `cur + 1 == k`,
//! or when both `part_w + W < target` and `n − (pos + c − 1) ≥ k − cur`
//! hold. If `cur + 1 == k` no close can ever fire. Otherwise, at the
//! bucket's `j`-th point (`1 ≤ j < c`) the open chunk weighs `part_w` plus
//! the first `j` weights, at most `part_w + W < target`, so the weight test
//! fails; and `n − (pos + j) ≥ n − (pos + c − 1) ≥ k − cur`, so the guard
//! fails. No close fires inside the bucket, every point of it lands in
//! `cur`, and the state after it is `(cur, part_w + W, target)`: exactly
//! what the canonical walk leaves. The strict `<` matters for zero
//! weights: with `part_w + W == target` a zero-weight tail point would see
//! `part_w ≥ target` and close. A bucket that is not bulk is walked point by
//! point in `(key, id)` order, which *is* the canonical walk on that
//! stretch. So the output equals the canonical walk's for every bucket
//! width; the width (a pure function of `n`, at most 16 bits) decides only
//! how many points are sorted — on the 474 496-cell PPRIME_NOZZLE mesh at
//! 512 chunks, 42 119 at 16 bits.
//!
//! Every buffer is leased from an [`SfcWorkspace`], so a warm call allocates
//! the returned part vector and, above one worker, the key step's one
//! fork-join scope — nothing else at one worker and about 1.1 KiB at two,
//! whatever `n` (`crates/partition/tests/zero_alloc.rs` pins the bytes).
//! The output is **bit-identical at every worker count**: the workers only
//! compute keys, each into its own slot, and everything after that is one
//! sequential pass (enforced by the `ci.sh` worker matrix and
//! `tests/property_sfc.rs`, which checks every width against a
//! sort-and-walk oracle).
//!
//! # Keys
//!
//! Both curves start from the Morton key: 16 bits per axis, bit `b` of
//! x / y / z at `3b` / `3b+1` / `3b+2`. The Hilbert key is Skilling's
//! transpose-form construction, computed as a walk over that key instead of
//! his 45-step loop. At level `b` his transform only permutes and reflects
//! the axes of the bits *below* `b`, and his final `t` mask XORs level `b`
//! with the parity of the Gray-coded third axis over the levels above. So
//! what the levels above `b` leave behind is one of 96 states: an axis
//! permutation (6), a reflection mask (8) and that parity (2). A `const fn`
//! applies exactly Skilling's per-level rules to every state and every
//! 6-bit input of a level pair, into one `static` table of `u16` entries
//! (the pair's six key bits and the next state). A key is then three
//! `spread16` plus eight lookups, and equals Skilling's bit for bit by
//! construction. Level 0's transform only picks the state that the last
//! lookup discards, so the same table serves all eight pairs. Skilling's
//! loop stays as the test oracle: `hilbert_oracle` in this module's tests
//! checks every key on random clouds, dyadic grids and the quantiser's
//! edges.
//!
//! The key step makes two passes over its shard: every Morton key in one
//! plain loop, then the Hilbert walks over them in place. The eight lookups
//! of one key form a dependent chain, so the second pass walks four keys in
//! lockstep, level pair by level pair, and the lookups of independent keys
//! overlap. A lane runs the same step (`hilbert_pair`) as
//! [`hilbert_index`], so the two cannot drift apart (EXPERIMENTS.md, "The
//! curve keys and the classification, pass by pass", has the variants).

use tempart_graph::PartId;
use tempart_obs::Recorder;
use tempart_runtime::fork_join;

/// Which space-filling curve to order cells by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Curve {
    /// Morton (Z-order): bit-interleaving, cheapest, more jumps.
    Morton,
    /// Hilbert: locality-optimal, no jumps between consecutive cells.
    Hilbert,
}

/// Number of bits per coordinate used for curve indexing. Three axes at 16
/// bits interleave into 48 significant bits, so every curve key fits a `u64`
/// with room to spare.
const BITS: u32 = 16;

/// Contiguous points per key shard. Shards only decide which worker computes
/// which keys, never a key's value, so the grain is a pure scheduling knob.
const SHARD_GRAIN: usize = 2048;

/// Widest bucket index, in top key bits: 65 536 buckets, 768 KiB of tables.
const MAX_BUCKET_BITS: u32 = 16;

/// Bucket width for `n` points: about eight points a bucket, at most
/// [`MAX_BUCKET_BITS`]. A pure function of `n`; the walk's output does not
/// depend on it (see the module docs), only how many points it sorts.
fn bucket_bits(n: usize) -> u32 {
    (usize::BITS - n.leading_zeros())
        .saturating_sub(3)
        .min(MAX_BUCKET_BITS)
}

/// Quantises a coordinate in `[0, 1]` to `BITS` bits, rounding half away
/// from zero like `f64::round`, without the libm call and without a
/// float-to-integer conversion: adding 2^52 to `y ∈ [0, 65535]` rounds it
/// to the nearest integer `r`, ties to even, and leaves `r` in the low
/// mantissa bits. `y − r` is exact, so it is 0.5 exactly when a tie went
/// down, the one case `round` takes up. NaN maps to 0, ±∞ clamp to the
/// ends.
#[inline]
fn quantise(x: f64) -> u64 {
    const TO_INTEGER: f64 = (1u64 << 52) as f64;
    // Both tests are false for NaN, which so lands on 0.
    let x = if x > 0.0 { x } else { 0.0 };
    let x = if x < 1.0 { x } else { 1.0 };
    let y = x * ((1u64 << BITS) - 1) as f64;
    let r = y + TO_INTEGER;
    (r.to_bits() & ((1 << 52) - 1)) + u64::from(y - (r - TO_INTEGER) == 0.5)
}

/// Spreads the low 16 bits of `v` so bit `b` lands at bit `3*b` — the
/// classic mask-shift dilation (constant-time, no per-bit loop).
#[inline]
fn spread16(v: u64) -> u64 {
    let mut v = v & 0xFFFF;
    v = (v | v << 32) & 0x001F_0000_0000_FFFF;
    v = (v | v << 16) & 0x001F_0000_FF00_00FF;
    v = (v | v << 8) & 0x100F_00F0_0F00_F00F;
    v = (v | v << 4) & 0x10C3_0C30_C30C_30C3;
    v = (v | v << 2) & 0x1249_2492_4924_9249;
    v
}

/// Morton (Z-order) index of a point in the unit cube: 48 significant bits
/// (bit `b` of x/y/z lands at `3b` / `3b+1` / `3b+2`).
pub fn morton_index(p: [f64; 3]) -> u64 {
    let (x, y, z) = (quantise(p[0]), quantise(p[1]), quantise(p[2]));
    spread16(x) | spread16(y) << 1 | spread16(z) << 2
}

/// The six axis permutations a Hilbert state can carry, identity first.
const PERMS: [[u8; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Hilbert states: axis permutation (6) × reflection mask (8) × running
/// Gray parity (2).
const STATES: usize = 96;

/// One level of Skilling's transform seen from a state. Axis `j` of the
/// transformed coordinates reads input axis `perm[j]`, flipped when bit `j`
/// of `refl` is set; `par` is the XOR of the Gray-coded third axis over the
/// levels above, which Skilling's final `t` mask applies to this level.
/// `m` holds the level's input bits in Morton order (x at bit 0). Returns
/// the level's key digit (transformed axis 0 at bit 2, as in the key) and
/// the state the levels below see.
const fn hilbert_level(perm: [u8; 3], refl: u8, par: u8, m: usize) -> (usize, [u8; 3], u8, u8) {
    let mut a = [0u8; 3];
    let mut j = 0;
    while j < 3 {
        a[j] = ((m >> perm[j]) & 1) as u8 ^ ((refl >> j) & 1);
        j += 1;
    }
    let (g0, g1) = (a[0], a[0] ^ a[1]);
    let g2 = g1 ^ a[2];
    let digit = ((g0 ^ par) << 2 | (g1 ^ par) << 1 | (g2 ^ par)) as usize;
    // The level's three steps on the bits below it: a set bit inverts
    // axis 0, a clear one swaps axis 0 with axis i (a no-op for i = 0).
    let (mut perm, mut refl) = (perm, refl);
    let mut i = 0;
    while i < 3 {
        if a[i] == 1 {
            refl ^= 1;
        } else if i > 0 {
            let p = perm[0];
            perm[0] = perm[i];
            perm[i] = p;
            let (r0, ri) = (refl & 1, (refl >> i) & 1);
            refl ^= (r0 ^ ri) | (r0 ^ ri) << i;
        }
        i += 1;
    }
    (digit, perm, refl, par ^ g2)
}

/// Index of a state in [`PERMS`]-major, reflection, parity order.
const fn state_index(perm: [u8; 3], refl: u8, par: u8) -> usize {
    let mut p = 0;
    while PERMS[p][0] != perm[0] || PERMS[p][1] != perm[1] {
        p += 1;
    }
    (p * 8 + refl as usize) * 2 + par as usize
}

/// Two Hilbert levels per lookup: entry `state · 64 + m`, for the six
/// Morton bits `m` of a level pair (the higher level in bits 3–5), holds
/// the pair's six key bits in its low six bits and `next_state · 64` above
/// them.
const fn hilbert_table() -> [u16; STATES * 64] {
    let mut table = [0u16; STATES * 64];
    let mut s = 0;
    while s < STATES {
        let (perm, refl, par) = (PERMS[s / 16], (s / 2 % 8) as u8, (s % 2) as u8);
        let mut m = 0;
        while m < 64 {
            let (hi, perm1, refl1, par1) = hilbert_level(perm, refl, par, m >> 3);
            let (lo, perm2, refl2, par2) = hilbert_level(perm1, refl1, par1, m & 7);
            table[s * 64 + m] = (state_index(perm2, refl2, par2) << 6 | hi << 3 | lo) as u16;
            m += 1;
        }
        s += 1;
    }
    table
}

static HILBERT: [u16; STATES * 64] = hilbert_table();

/// Hilbert index of a point in the unit cube (3-D Hilbert curve of order
/// `BITS`): 48 significant bits, equal to Skilling's transpose-form
/// construction (see the module docs) — eight state-table lookups over the
/// point's Morton key, most significant level pair first.
pub fn hilbert_index(p: [f64; 3]) -> u64 {
    hilbert_of_morton(morton_index(p))
}

/// The Hilbert key of a point from its Morton key: the walk from state 0,
/// most significant level pair first.
fn hilbert_of_morton(morton: u64) -> u64 {
    let (mut key, mut row) = (0u64, 0usize);
    for pair in (0..BITS / 2).rev() {
        hilbert_pair(&mut key, &mut row, morton, pair);
    }
    key
}

/// One step of the Hilbert walk: the level pair `pair` of `morton`, read
/// from the state whose row (`state · 64`) is `row`, ORs its six key bits
/// into `key` and moves `row` to the next state's. The walk starts in
/// state 0.
#[inline(always)]
fn hilbert_pair(key: &mut u64, row: &mut usize, morton: u64, pair: u32) {
    let shift = 6 * pair;
    let e = HILBERT[*row | (morton >> shift) as usize & 63];
    *key |= u64::from(e & 63) << shift;
    *row = usize::from(e & !63);
}

/// Keys whose Hilbert walks run in lockstep.
const LANES: usize = 4;

/// Turns Morton keys into Hilbert keys in place. A Hilbert key is a chain
/// of eight dependent table lookups; [`LANES`] keys run their chains level
/// pair by level pair, so that the lookups of independent keys overlap
/// instead of waiting on each other, and a short tail walks alone. Every
/// key equals [`hilbert_index`] of its point: they share [`hilbert_pair`].
fn hilbert_keys(keys: &mut [u64]) {
    let mut lanes = keys.chunks_exact_mut(LANES);
    for lane in &mut lanes {
        let morton: [u64; LANES] = std::array::from_fn(|j| lane[j]);
        let (mut key, mut row) = ([0u64; LANES], [0usize; LANES]);
        for pair in (0..BITS / 2).rev() {
            for j in 0..LANES {
                hilbert_pair(&mut key[j], &mut row[j], morton[j], pair);
            }
        }
        lane.copy_from_slice(&key);
    }
    for key in lanes.into_remainder() {
        *key = hilbert_of_morton(*key);
    }
}

/// Reusable scratch for [`sfc_partition_with`], in the
/// [`PartitionWorkspace`](crate::PartitionWorkspace) mould: buffers grow to
/// the largest instance seen and are never shrunk, so with a long-lived
/// workspace a repeated SFC partition allocates only the returned part
/// vector and the fork-join job boxes, a constant in `n` (see the module
/// docs). Carries **no state** between calls — only capacity.
#[derive(Debug, Default)]
pub struct SfcWorkspace {
    /// Structured-event recorder for the `part.sfc.*` spans and counters.
    /// Defaults to the process-wide disabled recorder; install an enabled
    /// one (`ws.obs = rec.clone()`) to trace the geometric path.
    pub obs: Recorder,
    /// Curve key of every point, indexed by id.
    keys: Vec<u64>,
    /// Point ids in bucket order.
    order: Vec<u32>,
    /// Per bucket: its point count, then its start, then (after the
    /// scatter) its end in `order`.
    ends: Vec<u32>,
    /// Per bucket: the sum of its points' weights.
    wsum: Vec<u64>,
    /// `(key, id)` pairs of the boundary bucket being walked.
    pairs: Vec<(u64, u32)>,
}

impl SfcWorkspace {
    /// An empty workspace (allocates nothing until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently held by the workspace's buffers — the
    /// peak-buffer figure the paper-scale audit reports through `obs`.
    pub fn peak_bytes(&self) -> u64 {
        (self.keys.capacity() * 8
            + self.order.capacity() * 4
            + self.ends.capacity() * 4
            + self.wsum.capacity() * 8
            + self.pairs.capacity() * std::mem::size_of::<(u64, u32)>()) as u64
    }
}

/// Partitions points along a space-filling curve into `k` chunks of
/// (approximately) equal total weight.
///
/// Returns one part id per point. Weights must be non-negative; at least one
/// must be positive. Convenience wrapper over [`sfc_partition_with`] with a
/// fresh workspace and one worker; loops should hold a long-lived
/// [`SfcWorkspace`] and call the `_with` form directly.
pub fn sfc_partition(
    centroids: &[[f64; 3]],
    weights: &[u64],
    k: usize,
    curve: Curve,
) -> Vec<PartId> {
    sfc_partition_with(centroids, weights, k, curve, 1, &mut SfcWorkspace::new())
}

/// [`sfc_partition`] with explicit worker count and leased scratch: the
/// paper-scale entry point for a plain point cloud, [`sfc_partition_by`] on
/// the points and weights themselves.
pub fn sfc_partition_with(
    centroids: &[[f64; 3]],
    weights: &[u64],
    k: usize,
    curve: Curve,
    workers: usize,
    ws: &mut SfcWorkspace,
) -> Vec<PartId> {
    assert_eq!(centroids.len(), weights.len(), "one weight per point");
    sfc_partition_by(centroids, |&p| p, |i| weights[i], k, curve, workers, ws)
}

/// [`sfc_partition_with`] over the caller's own records: item `i` sits at
/// `pos(&items[i])` and weighs `weight(i)`, so a mesh's cells and the
/// operating cost of their levels are read in place instead of being
/// copied into a point cloud and a weight vector first.
///
/// The curve keys are computed in parallel shards; the chunks are cut by one
/// bucket pass that sorts only the points of the buckets a chunk boundary
/// falls in (see the module docs). The result is the canonical sort-and-walk
/// partition, bit-identical at every `workers` value.
///
/// Emits `part.sfc` / `part.sfc.{keys,sort,chunk}` spans and
/// `part.sfc.{points,sorted,peak_bytes}` counters into `ws.obs`.
pub fn sfc_partition_by<T: Sync>(
    items: &[T],
    pos: impl Fn(&T) -> [f64; 3] + Sync,
    weight: impl Fn(usize) -> u64,
    k: usize,
    curve: Curve,
    workers: usize,
    ws: &mut SfcWorkspace,
) -> Vec<PartId> {
    assert!(k >= 1, "need at least one part");
    assert!(workers >= 1, "need at least one worker");
    let n = items.len();
    let rec = ws.obs.clone();
    let _span = tempart_obs::span!(&rec, "part.sfc", track = 0, arg = n as u64);
    rec.counter("part.sfc.points", 0, n as u64);
    let mut part = vec![0 as PartId; n];
    if n == 0 {
        return part;
    }
    let bits = bucket_bits(n);
    let (shift, buckets) = (3 * BITS - bits, 1usize << bits);
    let SfcWorkspace {
        keys,
        order,
        ends,
        wsum,
        pairs,
        ..
    } = ws;
    if keys.len() < n {
        keys.resize(n, 0);
        order.resize(n, 0);
    }
    if ends.len() < buckets {
        ends.resize(buckets, 0);
        wsum.resize(buckets, 0);
    }
    let (keys, order) = (&mut keys[..n], &mut order[..n]);
    let (ends, wsum) = (&mut ends[..buckets], &mut wsum[..buckets]);

    // Step 1: every curve key computed exactly once, sharded over the
    // fork-join pool in contiguous id ranges.
    {
        let _s = tempart_obs::span!(&rec, "part.sfc.keys", track = 0, arg = n as u64);
        if workers == 1 {
            fill_keys(keys, items, &pos, curve);
        } else {
            let shard = n
                .div_ceil(n.div_ceil(SHARD_GRAIN).min(workers * 8))
                .next_multiple_of(LANES);
            let pos = &pos;
            fork_join(workers, |ctx| {
                for (keys, items) in keys.chunks_mut(shard).zip(items.chunks(shard)) {
                    ctx.spawn(move |_| fill_keys(keys, items, pos, curve));
                }
            });
        }
    }

    // Step 2: count and weigh every bucket, then scatter the ids into
    // bucket order; `ends[b]` goes count → start → end.
    {
        let _s = tempart_obs::span!(&rec, "part.sfc.sort", track = 0, arg = n as u64);
        ends.fill(0);
        wsum.fill(0);
        for (id, &key) in keys.iter().enumerate() {
            let b = (key >> shift) as usize;
            ends[b] += 1;
            wsum[b] += weight(id);
        }
        let mut start = 0u32;
        for e in ends.iter_mut() {
            (*e, start) = (start, start + *e);
        }
        for (id, &key) in keys.iter().enumerate() {
            let e = &mut ends[(key >> shift) as usize];
            order[*e as usize] = id as u32;
            *e += 1;
        }
    }

    // Step 3: the walk along the curve, bucket by bucket.
    let _s = tempart_obs::span!(&rec, "part.sfc.chunk", track = 0, arg = k as u64);
    let mut cut = Cut::new(wsum.iter().sum(), n, k);
    let (mut begin, mut sorted) = (0usize, 0u64);
    for (&end, &w) in ends.iter().zip(wsum.iter()) {
        let end = end as usize;
        if end == begin {
            continue;
        }
        let bucket = &order[begin..end];
        cut.close_if_due(begin);
        // Bulk: no close can fire after the bucket's first point (the
        // module docs prove it); otherwise walk the bucket in curve order.
        if cut.cur + 1 == k || (cut.part_w + w < cut.target && n - (end - 1) >= k - cut.cur) {
            for &id in bucket {
                part[id as usize] = cut.cur as PartId;
            }
            cut.part_w += w;
        } else {
            sorted += bucket.len() as u64;
            pairs.clear();
            pairs.extend(bucket.iter().map(|&id| (keys[id as usize], id)));
            pairs.sort_unstable();
            for (pos, &(_, id)) in (begin..).zip(pairs.iter()) {
                if pos > begin {
                    cut.close_if_due(pos);
                }
                part[id as usize] = cut.cur as PartId;
                cut.part_w += weight(id as usize);
            }
        }
        begin = end;
    }
    rec.counter("part.sfc.sorted", 0, sorted);
    rec.counter("part.sfc.peak_bytes", 0, ws.peak_bytes());
    part
}

/// Writes the curve key of every item to the matching slot of `keys`: every
/// Morton key in one plain pass, then, for the Hilbert curve, the table
/// walks over them in place ([`hilbert_keys`]).
fn fill_keys<T>(keys: &mut [u64], items: &[T], pos: &impl Fn(&T) -> [f64; 3], curve: Curve) {
    for (key, item) in keys.iter_mut().zip(items) {
        *key = morton_index(pos(item));
    }
    if curve == Curve::Hilbert {
        hilbert_keys(keys);
    }
}

/// The state of the canonical walk, which cuts the curve order into `k`
/// consecutive chunks with a **running-remainder** weight target: when
/// chunk `cur` opens, its target is `ceil(remaining_weight /
/// remaining_parts)` (at least 1), so weight swallowed early by a huge cell
/// shrinks the targets of the chunks after it instead of starving the
/// tail. A must-close guard (`points left == chunks still unopened`)
/// additionally hands every remaining chunk one point each, so the last
/// chunk can never be starved to zero when `k` is large relative to the
/// number of distinct keys.
struct Cut {
    n: usize,
    k: usize,
    /// The open chunk.
    cur: usize,
    /// Weight assigned to the open chunk so far.
    part_w: u64,
    /// The open chunk's target weight.
    target: u64,
    /// Weight not assigned to a closed chunk.
    remaining: u64,
}

impl Cut {
    fn new(total: u64, n: usize, k: usize) -> Self {
        Self {
            n,
            k,
            cur: 0,
            part_w: 0,
            target: total.div_ceil(k as u64).max(1),
            remaining: total,
        }
    }

    /// The close test the walk applies once before the point at curve
    /// position `pos`.
    #[inline]
    fn close_if_due(&mut self, pos: usize) {
        if self.cur + 1 < self.k && (self.part_w >= self.target || self.n - pos < self.k - self.cur)
        {
            self.cur += 1;
            self.remaining -= self.part_w;
            self.target = self.remaining.div_ceil((self.k - self.cur) as u64).max(1);
            self.part_w = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton_orders_octants() {
        // The eight octant centres must sort in Z-order.
        let a = morton_index([0.25, 0.25, 0.25]);
        let b = morton_index([0.75, 0.25, 0.25]);
        let c = morton_index([0.25, 0.75, 0.25]);
        let e = morton_index([0.75, 0.75, 0.75]);
        assert!(a < b && b < c && c < e);
    }

    #[test]
    fn spread16_matches_naive_interleave() {
        // The mask-shift dilation must place bit b at bit 3b exactly like
        // the per-bit loop it replaced.
        for v in [0u64, 1, 0xFFFF, 0x8000, 0xA5A5, 0x1234, 0x7FFF] {
            let mut naive = 0u64;
            for b in 0..BITS {
                naive |= ((v >> b) & 1) << (3 * b);
            }
            assert_eq!(spread16(v), naive, "v={v:#x}");
        }
    }

    /// The quantiser `quantise` replaced, with libm's `round`.
    fn quantise_round(x: f64) -> u64 {
        let max = (1u64 << BITS) - 1;
        ((x.clamp(0.0, 1.0) * max as f64).round() as u64).min(max)
    }

    /// Morton key by a per-bit interleave of the `quantise_round` coordinates.
    fn morton_oracle(p: [f64; 3]) -> u64 {
        let mut key = 0u64;
        for (a, &x) in p.iter().enumerate() {
            let q = quantise_round(x);
            for b in 0..BITS {
                key |= ((q >> b) & 1) << (3 * b + a as u32);
            }
        }
        key
    }

    /// Skilling's transpose-form Hilbert construction on the `quantise_round`
    /// coordinates: the oracle the state table is built to reproduce.
    fn hilbert_oracle(p: [f64; 3]) -> u64 {
        let mut x = p.map(quantise_round);
        let m = 1u64 << (BITS - 1);
        // Inverse undo of Skilling's transform.
        let mut q = m;
        while q > 1 {
            let pmask = q - 1;
            for i in 0..3 {
                if x[i] & q != 0 {
                    x[0] ^= pmask; // invert
                } else {
                    let t = (x[0] ^ x[i]) & pmask;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        // Gray encode.
        for i in 1..3 {
            x[i] ^= x[i - 1];
        }
        let mut t = 0u64;
        q = m;
        while q > 1 {
            if x[2] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in &mut x {
            *xi ^= t;
        }
        // Bit b of axis a becomes bit 3b + (2 − a): most significant axis
        // first.
        spread16(x[0]) << 2 | spread16(x[1]) << 1 | spread16(x[2])
    }

    fn assert_keys_match_oracles(p: [f64; 3]) {
        assert_eq!(morton_index(p), morton_oracle(p), "morton {p:?}");
        assert_eq!(hilbert_index(p), hilbert_oracle(p), "hilbert {p:?}");
    }

    /// Coordinates where the quantiser can go wrong: the ends of the cube,
    /// signed zero, values outside it, non-finite values, and the rounding
    /// midpoints `(k + 0.5) / 65535` with their neighbouring floats.
    fn quantiser_edges() -> Vec<f64> {
        let mut v = vec![
            0.0,
            -0.0,
            1.0,
            1.0f64.next_down(),
            1.0f64.next_up(),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            -0.25,
            -1.0,
            2.0,
            1e300,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for k in [
            0u32, 1, 2, 3, 255, 256, 4095, 21845, 32767, 32768, 65533, 65534,
        ] {
            let x = (f64::from(k) + 0.5) / 65535.0;
            v.extend([x.next_down(), x, x.next_up()]);
        }
        v
    }

    #[test]
    fn quantise_matches_round() {
        for x in quantiser_edges() {
            assert_eq!(quantise(x), quantise_round(x), "x={x:e}");
        }
        for k in 0..65535u32 {
            let x = (f64::from(k) + 0.5) / 65535.0;
            for x in [x.next_down(), x, x.next_up()] {
                assert_eq!(quantise(x), quantise_round(x), "x={x:e}");
            }
        }
    }

    /// Every point of the cube of [`quantiser_edges`].
    fn edge_points() -> Vec<[f64; 3]> {
        let edges = quantiser_edges();
        let mut pts = Vec::new();
        for &x in &edges {
            for &y in &edges {
                for &z in &edges {
                    pts.push([x, y, z]);
                }
            }
        }
        pts
    }

    /// Every cell centre and every corner of the 2^b grid, b = 1..6.
    fn dyadic_points() -> Vec<[f64; 3]> {
        let mut pts = Vec::new();
        for b in 1..=6u32 {
            let side = 1usize << b;
            let h = 1.0 / side as f64;
            for (offset, count) in [(0.5, side), (0.0, side + 1)] {
                let c = |i: usize| (i as f64 + offset) * h;
                for i in 0..count {
                    for j in 0..count {
                        for k in 0..count {
                            pts.push([c(i), c(j), c(k)]);
                        }
                    }
                }
            }
        }
        pts
    }

    /// Arbitrary doubles over the cube and a margin around it, then the
    /// quantiser's lattice points.
    fn cloud_points() -> Vec<[f64; 3]> {
        let mut rng = tempart_testkit::rng::Rng::seed_from_u64(0x5EED_4B45);
        let mut pts: Vec<[f64; 3]> = (0..1 << 17)
            .map(|_| [(); 3].map(|_| rng.gen_range(-0.1..1.1)))
            .collect();
        pts.extend(random_points(1 << 15, 0xC0FFEE));
        pts
    }

    #[test]
    fn keys_match_oracles_on_quantiser_edges() {
        edge_points()
            .into_iter()
            .for_each(assert_keys_match_oracles);
    }

    #[test]
    fn keys_match_oracles_on_dyadic_grids() {
        dyadic_points()
            .into_iter()
            .for_each(assert_keys_match_oracles);
    }

    #[test]
    fn keys_match_oracles_on_random_clouds() {
        cloud_points()
            .into_iter()
            .for_each(assert_keys_match_oracles);
    }

    /// One point's key from the single-point functions.
    fn curve_key(curve: Curve, p: [f64; 3]) -> u64 {
        match curve {
            Curve::Morton => morton_index(p),
            Curve::Hilbert => hilbert_index(p),
        }
    }

    /// The lockstep keys of `fill_keys` equal the single-point keys, point
    /// for point, on the last `LANES` prefixes of `pts`: every tail length
    /// `n mod LANES`.
    fn assert_batch_matches_single_keys(pts: &[[f64; 3]]) {
        for curve in [Curve::Morton, Curve::Hilbert] {
            let expect: Vec<u64> = pts.iter().map(|&p| curve_key(curve, p)).collect();
            for n in pts.len().saturating_sub(LANES - 1)..=pts.len() {
                let mut keys = vec![u64::MAX; n];
                fill_keys(&mut keys, &pts[..n], &|&p| p, curve);
                let diff = keys.iter().zip(&expect).position(|(a, b)| a != b);
                assert_eq!(diff, None, "{curve:?} n={n} (tail {})", n % LANES);
            }
        }
    }

    #[test]
    fn batch_keys_match_single_point_keys_at_every_tail() {
        for pts in [edge_points(), dyadic_points(), cloud_points()] {
            assert_batch_matches_single_keys(&pts);
        }
        // Inputs shorter than one lane group: only a padded tail.
        let few = random_points(LANES - 1, 11);
        for n in 0..LANES {
            assert_batch_matches_single_keys(&few[..n]);
        }
    }

    #[test]
    fn keys_fit_48_bits() {
        for p in [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.37, 0.91, 0.02]] {
            assert!(morton_index(p) < 1u64 << 48);
            assert!(hilbert_index(p) < 1u64 << 48);
        }
        assert_eq!(morton_index([1.0, 1.0, 1.0]), (1u64 << 48) - 1);
    }

    #[test]
    fn hilbert_neighbours_are_adjacent() {
        // The defining property Morton lacks: consecutive cells of a full 3-D
        // grid in Hilbert order are face-adjacent (distance exactly one cell
        // step).
        let nside = 8usize;
        let h = 1.0 / nside as f64;
        let mut pts = Vec::new();
        for z in 0..nside {
            for y in 0..nside {
                for x in 0..nside {
                    pts.push([
                        (x as f64 + 0.5) * h,
                        (y as f64 + 0.5) * h,
                        (z as f64 + 0.5) * h,
                    ]);
                }
            }
        }
        let jump = |curve: Curve| -> f64 {
            let mut idx: Vec<usize> = (0..pts.len()).collect();
            idx.sort_by_key(|&i| match curve {
                Curve::Hilbert => hilbert_index(pts[i]),
                Curve::Morton => morton_index(pts[i]),
            });
            let mut max_jump = 0.0f64;
            for w in idx.windows(2) {
                let (a, b) = (pts[w[0]], pts[w[1]]);
                let d =
                    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
                max_jump = max_jump.max(d);
            }
            max_jump
        };
        let hilbert_jump = jump(Curve::Hilbert);
        let morton_jump = jump(Curve::Morton);
        assert!(
            hilbert_jump < 1.01 * h,
            "hilbert max jump {hilbert_jump} (cell step {h})"
        );
        assert!(
            morton_jump > 2.0 * h,
            "morton is expected to jump: {morton_jump}"
        );
    }

    #[test]
    fn sfc_balances_weights() {
        let n = 1000usize;
        let centroids: Vec<[f64; 3]> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                [t, (t * 7.0).fract(), (t * 13.0).fract()]
            })
            .collect();
        let weights = vec![1u64; n];
        for curve in [Curve::Morton, Curve::Hilbert] {
            let part = sfc_partition(&centroids, &weights, 8, curve);
            let mut counts = vec![0usize; 8];
            for &p in &part {
                counts[p as usize] += 1;
            }
            for &c in &counts {
                assert!((100..=150).contains(&c), "{curve:?}: {counts:?}");
            }
        }
    }

    #[test]
    fn sfc_handles_skewed_weights() {
        let centroids: Vec<[f64; 3]> = (0..100).map(|i| [i as f64 / 100.0, 0.5, 0.5]).collect();
        let mut weights = vec![1u64; 100];
        weights[0] = 100; // one huge cell
        let part = sfc_partition(&centroids, &weights, 4, Curve::Morton);
        let mut sums = vec![0u64; 4];
        for (i, &p) in part.iter().enumerate() {
            sums[p as usize] += weights[i];
        }
        let max = *sums.iter().max().unwrap();
        // The huge cell dominates; every part still gets something and the
        // heaviest part is the one holding it.
        assert!(sums.iter().all(|&s| s > 0), "{sums:?}");
        assert!(max >= 100);
    }

    #[test]
    fn single_part_trivial() {
        let part = sfc_partition(&[[0.1, 0.2, 0.3]], &[5], 1, Curve::Hilbert);
        assert_eq!(part, vec![0]);
    }

    #[test]
    fn trailing_heavy_weights_do_not_starve_parts() {
        // Regression: the old absolute-fraction close (`acc >=
        // total*(cut+1)/k`) left parts 1..k empty when the weight sat at the
        // end of the curve — the running-remainder target closes each part
        // after its fair share of the *remaining* weight.
        let centroids: Vec<[f64; 3]> = (0..4).map(|i| [i as f64 / 4.0, 0.5, 0.5]).collect();
        let weights = vec![1u64, 1, 1, 100];
        let part = sfc_partition(&centroids, &weights, 4, Curve::Morton);
        let mut counts = vec![0usize; 4];
        for &p in &part {
            counts[p as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn duplicate_centroids_fill_every_part() {
        // All keys identical: the must-close guard still hands each of the
        // k parts at least one point, in canonical ascending-id order.
        let centroids = vec![[0.5, 0.5, 0.5]; 10];
        let weights = vec![1u64; 10];
        let part = sfc_partition(&centroids, &weights, 4, Curve::Hilbert);
        let mut counts = vec![0usize; 4];
        for &p in &part {
            counts[p as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        // Canonical order over equal keys is ascending id, so the part
        // vector must be monotone.
        let mut sorted = part.clone();
        sorted.sort_unstable();
        assert_eq!(part, sorted);
    }

    /// Pseudo-random point cloud (splitmix64 over the index).
    fn random_points(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| {
                [
                    (next() % 65536) as f64 / 65535.0,
                    (next() % 65536) as f64 / 65535.0,
                    (next() % 65536) as f64 / 65535.0,
                ]
            })
            .collect()
    }

    /// The reference partition: every `(key, id)` pair sorted, then the
    /// canonical walk point by point.
    fn sort_and_walk(pts: &[[f64; 3]], weights: &[u64], k: usize, curve: Curve) -> Vec<PartId> {
        let mut pairs: Vec<(u64, u32)> = (0u32..)
            .zip(pts)
            .map(|(id, &p)| (curve_key(curve, p), id))
            .collect();
        pairs.sort_unstable();
        let mut part = vec![0; pts.len()];
        let mut cut = Cut::new(weights.iter().sum(), pts.len(), k);
        for (pos, &(_, id)) in pairs.iter().enumerate() {
            cut.close_if_due(pos);
            part[id as usize] = cut.cur as PartId;
            cut.part_w += weights[id as usize];
        }
        part
    }

    #[test]
    fn bucket_walk_matches_sort_and_walk() {
        // ns across several bucket widths, k from one part to more parts
        // than points, duplicate keys (the quantiser's lattice), zero
        // weights and one weight that dwarfs the rest.
        for n in [1usize, 7, 8, 64, 2049, 5000, 70_000] {
            let pts = random_points(n, 42 + n as u64);
            let mut weights: Vec<u64> = (0..n as u64).map(|i| i % 7 % 3).collect();
            weights[n / 2] = 1 << 40;
            for k in [1usize, 2, 16, 512, n, n + 3] {
                for curve in [Curve::Morton, Curve::Hilbert] {
                    let expect = sort_and_walk(&pts, &weights, k, curve);
                    let mut ws = SfcWorkspace::new();
                    for workers in [1usize, 2, 4] {
                        let got = sfc_partition_with(&pts, &weights, k, curve, workers, &mut ws);
                        assert_eq!(got, expect, "{curve:?} n={n} k={k} workers={workers}");
                    }
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_is_deterministic() {
        // One workspace across calls of different sizes: capacity carries
        // over, results do not.
        let mut ws = SfcWorkspace::new();
        let big = random_points(6000, 7);
        let small = random_points(300, 9);
        let wb = vec![1u64; big.len()];
        let wsm = vec![1u64; small.len()];
        let b1 = sfc_partition_with(&big, &wb, 8, Curve::Hilbert, 2, &mut ws);
        let s1 = sfc_partition_with(&small, &wsm, 8, Curve::Hilbert, 2, &mut ws);
        let b2 = sfc_partition_with(&big, &wb, 8, Curve::Hilbert, 2, &mut ws);
        let s2 = sfc_partition_with(&small, &wsm, 8, Curve::Hilbert, 2, &mut ws);
        assert_eq!(b1, b2);
        assert_eq!(s1, s2);
        assert_eq!(b1, sfc_partition(&big, &wb, 8, Curve::Hilbert));
        assert!(ws.peak_bytes() > 0);
    }

    #[test]
    fn sfc_emits_spans_and_counters() {
        let rec = Recorder::new(1 << 12);
        let pts = random_points(5000, 3);
        let weights = vec![1u64; pts.len()];
        let mut ws = SfcWorkspace::new();
        ws.obs = rec.clone();
        let _ = sfc_partition_with(&pts, &weights, 8, Curve::Morton, 2, &mut ws);
        let trace = rec.take();
        assert_eq!(trace.dropped, 0);
        for name in [
            "part.sfc",
            "part.sfc.keys",
            "part.sfc.sort",
            "part.sfc.chunk",
        ] {
            assert!(
                trace.events.iter().any(|e| e.name == name),
                "missing span {name}: {:?}",
                trace.events.iter().map(|e| e.name).collect::<Vec<_>>()
            );
        }
        assert!(trace
            .events
            .iter()
            .any(|e| e.name == "part.sfc.peak_bytes" && e.val > 0));
        // Seven chunk boundaries fall in at most seven of the 1 024
        // buckets, so only a few points are sorted.
        let sorted = trace.last_counter("part.sfc.sorted").unwrap();
        assert!(sorted > 0 && sorted < 500, "sorted {sorted}");
    }
}
