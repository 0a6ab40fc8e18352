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
//! balancing"): above [`SFC_RADIX_CUTOFF`] points the pipeline
//!
//! 1. computes every 48-bit curve key **once** into a pooled arena, sharded
//!    over [`tempart_runtime::fork_join`] in contiguous id ranges,
//! 2. sorts `(key, id)` with a **deterministic parallel LSD radix sort**
//!    (six 8-bit passes; per-shard counting, one fixed-order digit-major /
//!    shard-minor prefix-sum merge, parallel scatter into disjoint slots),
//! 3. walks the curve once, cutting it into `k` chunks with a
//!    running-remainder weight target.
//!
//! Every buffer is leased from an [`SfcWorkspace`], so a warm call allocates
//! the returned part vector and the fork-join scopes' job boxes — a few
//! hundred small blocks, about 18 KiB, whose number follows the worker
//! count and not `n` (`crates/partition/tests/zero_alloc.rs` pins the
//! bytes). The output is
//! **bit-identical at every worker count** and identical to the
//! comparison-sort path used below the cutoff: both realise the canonical
//! lexicographic `(key, id)` order (LSD radix is stable, so ties keep
//! ascending-id order; the small path sorts the `(key, id)` pair directly).
//! Shard boundaries are a pure function of `n` — never of the worker count —
//! and the merge visits shards in a fixed order, so `TEMPART_WORKERS` can
//! only change wall-clock, never bytes (enforced by the `ci.sh` worker
//! matrix and `tests/property_sfc.rs`).
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

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
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

/// Below this many points the comparison sort wins (no histogram setup, no
/// ping-pong buffers); above it the pipeline switches to the parallel LSD
/// radix sort. Both paths produce identical output (canonical `(key, id)`
/// order), so the cutoff is a pure scheduling knob.
pub const SFC_RADIX_CUTOFF: usize = 4096;

/// Contiguous points per radix shard. A pure function of `n` only — shard
/// boundaries (and therefore the fixed merge order) never depend on the
/// worker count.
const SHARD_GRAIN: usize = 2048;

/// Radix-sort digit width: six 8-bit passes cover all 48 key bits.
const RADIX_BITS: u32 = 8;
/// Number of buckets per radix pass.
const RADIX: usize = 1 << RADIX_BITS;
/// Radix passes needed for a 48-bit key.
const PASSES: u32 = 3 * BITS / RADIX_BITS;

/// Quantises a coordinate in `[0, 1]` to `BITS` bits, rounding half away
/// from zero like `f64::round` without the libm call: for `y ∈ [0, 65535]`
/// the fraction `y − ⌊y⌋` is exact, so comparing it with 0.5 is the
/// rounding. NaN maps to 0, ±∞ clamp to the ends.
#[inline]
fn quantise(x: f64) -> u64 {
    let y = x.clamp(0.0, 1.0) * ((1u64 << BITS) - 1) as f64;
    let i = y as u64;
    i + u64::from(y - i as f64 >= 0.5)
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
    let morton = morton_index(p);
    let mut key = 0u64;
    // The current state's row, `state · 64`; the walk starts in state 0.
    let mut row = 0usize;
    for pair in (0..BITS / 2).rev() {
        let shift = 6 * pair;
        let e = HILBERT[row | (morton >> shift) as usize & 63];
        key |= u64::from(e & 63) << shift;
        row = usize::from(e & !63);
    }
    key
}

#[inline]
fn curve_key(curve: Curve, p: [f64; 3]) -> u64 {
    match curve {
        Curve::Morton => morton_index(p),
        Curve::Hilbert => hilbert_index(p),
    }
}

/// Reusable scratch for [`sfc_partition_with`], in the
/// [`PartitionWorkspace`](crate::PartitionWorkspace) mould: buffers grow to
/// the largest instance seen and are never shrunk, so with a long-lived
/// workspace a repeated SFC partition allocates only the returned part
/// vector and the fork-join job boxes, a constant in `n` (see the module
/// docs). Carries **no state** between calls — only capacity.
///
/// The key/id arrays are atomics because the radix scatter writes to
/// globally disjoint but non-contiguous slots from several workers at once
/// (the repo's safe-code idiom for disjoint-slot output; the fork-join scope
/// join provides the happens-before edge between phases).
#[derive(Debug, Default)]
pub struct SfcWorkspace {
    /// Structured-event recorder for the `part.sfc.*` spans and counters.
    /// Defaults to the process-wide disabled recorder; install an enabled
    /// one (`ws.obs = rec.clone()`) to trace the geometric path.
    pub obs: Recorder,
    /// Primary key buffer (holds the final curve keys after an even number
    /// of scatter passes).
    keys: Vec<AtomicU64>,
    /// Ping-pong partner of `keys`.
    keys_tmp: Vec<AtomicU64>,
    /// Point ids, permuted alongside the keys.
    ids: Vec<AtomicU32>,
    /// Ping-pong partner of `ids`.
    ids_tmp: Vec<AtomicU32>,
    /// Per-shard digit histograms, `shards * RADIX` entries; turned into
    /// scatter cursors in place by the prefix-sum merge.
    hist: Vec<u32>,
    /// `(key, id)` pairs for the comparison-sort path below the cutoff.
    pairs: Vec<(u64, u32)>,
}

impl SfcWorkspace {
    /// An empty workspace (allocates nothing until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the radix buffers to hold `n` points and `shards` histograms.
    fn ensure(&mut self, n: usize, shards: usize) {
        if self.keys.len() < n {
            self.keys.resize_with(n, || AtomicU64::new(0));
            self.keys_tmp.resize_with(n, || AtomicU64::new(0));
            self.ids.resize_with(n, || AtomicU32::new(0));
            self.ids_tmp.resize_with(n, || AtomicU32::new(0));
        }
        if self.hist.len() < shards * RADIX {
            self.hist.resize(shards * RADIX, 0);
        }
    }

    /// Total bytes currently held by the workspace's buffers — the
    /// peak-buffer figure the paper-scale audit reports through `obs`.
    pub fn peak_bytes(&self) -> u64 {
        (self.keys.capacity() * 8
            + self.keys_tmp.capacity() * 8
            + self.ids.capacity() * 4
            + self.ids_tmp.capacity() * 4
            + self.hist.capacity() * 4
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
/// paper-scale entry point.
///
/// Above [`SFC_RADIX_CUTOFF`] points the curve keys are computed in
/// parallel shards and sorted by the deterministic parallel LSD radix sort
/// (see the module docs); below it a sequential comparison sort on the
/// `(key, id)` pairs is used. The result is bit-identical across paths and
/// across every `workers` value.
///
/// Emits `part.sfc` / `part.sfc.{keys,sort,chunk}` spans and
/// `part.sfc.{points,shards,peak_bytes}` counters into `ws.obs`.
pub fn sfc_partition_with(
    centroids: &[[f64; 3]],
    weights: &[u64],
    k: usize,
    curve: Curve,
    workers: usize,
    ws: &mut SfcWorkspace,
) -> Vec<PartId> {
    sfc_partition_impl(centroids, weights, k, curve, workers, ws, SFC_RADIX_CUTOFF)
}

/// Test-only entry that overrides the radix cutoff, so the comparison and
/// radix paths can be forced onto the same input and diffed bit for bit.
#[doc(hidden)]
pub fn sfc_partition_forced(
    centroids: &[[f64; 3]],
    weights: &[u64],
    k: usize,
    curve: Curve,
    workers: usize,
    ws: &mut SfcWorkspace,
    radix_cutoff: usize,
) -> Vec<PartId> {
    sfc_partition_impl(centroids, weights, k, curve, workers, ws, radix_cutoff)
}

fn sfc_partition_impl(
    centroids: &[[f64; 3]],
    weights: &[u64],
    k: usize,
    curve: Curve,
    workers: usize,
    ws: &mut SfcWorkspace,
    radix_cutoff: usize,
) -> Vec<PartId> {
    assert_eq!(centroids.len(), weights.len(), "one weight per point");
    assert!(k >= 1, "need at least one part");
    assert!(workers >= 1, "need at least one worker");
    let n = centroids.len();
    let rec = ws.obs.clone();
    let _span = tempart_obs::span!(&rec, "part.sfc", track = 0, arg = n as u64);
    rec.counter("part.sfc.points", 0, n as u64);
    let mut part = vec![0 as PartId; n];
    if n == 0 {
        return part;
    }

    if n < radix_cutoff {
        // Small path: sort the (key, id) pairs directly. Sorting the full
        // pair (id breaks key ties) realises the same canonical order as the
        // stable radix sort, and `sort_unstable` keeps the path in-place.
        let pairs = &mut ws.pairs;
        {
            let _s = tempart_obs::span!(&rec, "part.sfc.keys", track = 0, arg = n as u64);
            pairs.clear();
            pairs.extend(
                centroids
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (curve_key(curve, c), i as u32)),
            );
        }
        {
            let _s = tempart_obs::span!(&rec, "part.sfc.sort", track = 0, arg = n as u64);
            pairs.sort_unstable();
        }
        let _s = tempart_obs::span!(&rec, "part.sfc.chunk", track = 0, arg = k as u64);
        chunk_greedy(pairs.iter().map(|&(_, id)| id), n, weights, k, &mut part);
        rec.counter("part.sfc.peak_bytes", 0, ws.peak_bytes());
        return part;
    }

    // Shard layout: contiguous id ranges, a pure function of n alone.
    let shards = n.div_ceil(SHARD_GRAIN);
    // Job grouping is a scheduling choice (it may depend on the worker
    // count): each job owns a contiguous run of shards. Which thread runs
    // which job never affects the bytes produced.
    let jobs = shards.min(workers * 8).max(1);
    let job_range = |j: usize| -> (usize, usize) {
        // Balanced contiguous split of `shards` into `jobs` runs.
        (shards * j / jobs, shards * (j + 1) / jobs)
    };
    let shard_range =
        |s: usize| -> (usize, usize) { (s * SHARD_GRAIN, ((s + 1) * SHARD_GRAIN).min(n)) };
    ws.ensure(n, shards);
    rec.counter("part.sfc.shards", 0, shards as u64);

    // Phase 1: every curve key computed exactly once, sharded over the
    // fork-join pool in contiguous id ranges.
    let keys = &ws.keys[..n];
    let keys_tmp = &ws.keys_tmp[..n];
    let ids = &ws.ids[..n];
    let ids_tmp = &ws.ids_tmp[..n];
    {
        let _s = tempart_obs::span!(&rec, "part.sfc.keys", track = 0, arg = n as u64);
        fork_join(workers, |ctx| {
            for j in 0..jobs {
                let (s0, s1) = job_range(j);
                let (lo, hi) = (shard_range(s0).0, shard_range(s1 - 1).1);
                ctx.spawn(move |_| {
                    for i in lo..hi {
                        keys[i].store(curve_key(curve, centroids[i]), Ordering::Relaxed);
                        ids[i].store(i as u32, Ordering::Relaxed);
                    }
                });
            }
        });
    }

    // Phase 2: deterministic parallel LSD radix sort of (key, id), least
    // significant 8-bit digit first. Each pass: per-shard counting
    // (disjoint &mut histogram slices), one sequential digit-major /
    // shard-minor exclusive prefix sum (the fixed-order merge), then a
    // parallel scatter where shard s writes bucket d at positions
    // start[d][s] .. start[d][s] + count[s][d] — globally disjoint slots.
    // Stability: within a digit, elements stay in (shard, in-shard) order =
    // ascending previous position, so six passes realise the canonical
    // lexicographic (key, id) order regardless of shard or worker count.
    let (mut src_k, mut dst_k) = (keys, keys_tmp);
    let (mut src_i, mut dst_i) = (ids, ids_tmp);
    {
        let _s = tempart_obs::span!(&rec, "part.sfc.sort", track = 0, arg = n as u64);
        for pass in 0..PASSES {
            let shift = pass * RADIX_BITS;
            let hist = &mut ws.hist[..shards * RADIX];
            hist.fill(0);
            fork_join(workers, |ctx| {
                let mut rest = hist;
                let mut s0 = 0usize;
                for j in 0..jobs {
                    let (_, s1) = job_range(j);
                    let (mine, r) = rest.split_at_mut((s1 - s0) * RADIX);
                    rest = r;
                    ctx.spawn(move |_| {
                        for (s, h) in (s0..s1).zip(mine.chunks_mut(RADIX)) {
                            let (lo, hi) = shard_range(s);
                            for e in &src_k[lo..hi] {
                                let d = (e.load(Ordering::Relaxed) >> shift) as usize & (RADIX - 1);
                                h[d] += 1;
                            }
                        }
                    });
                    s0 = s1;
                }
            });
            let hist = &mut ws.hist[..shards * RADIX];
            // If every key shares this digit the scatter would be the
            // identity permutation: skip the pass (a data-dependent — hence
            // deterministic — shortcut that pays off on clustered inputs).
            let uniform = (0..RADIX).any(|d| {
                (0..shards)
                    .map(|s| hist[s * RADIX + d] as usize)
                    .sum::<usize>()
                    == n
            });
            if uniform {
                continue;
            }
            // Fixed-order merge: exclusive prefix sum over (digit, shard) in
            // digit-major, shard-minor order turns counts into the start
            // cursor of every (shard, digit) output run.
            let mut running = 0u32;
            for d in 0..RADIX {
                for s in 0..shards {
                    let c = hist[s * RADIX + d];
                    hist[s * RADIX + d] = running;
                    running += c;
                }
            }
            fork_join(workers, |ctx| {
                let mut rest = hist;
                let mut s0 = 0usize;
                for j in 0..jobs {
                    let (_, s1) = job_range(j);
                    let (mine, r) = rest.split_at_mut((s1 - s0) * RADIX);
                    rest = r;
                    ctx.spawn(move |_| {
                        for (s, cur) in (s0..s1).zip(mine.chunks_mut(RADIX)) {
                            let (lo, hi) = shard_range(s);
                            for i in lo..hi {
                                let key = src_k[i].load(Ordering::Relaxed);
                                let d = (key >> shift) as usize & (RADIX - 1);
                                let pos = cur[d] as usize;
                                cur[d] += 1;
                                dst_k[pos].store(key, Ordering::Relaxed);
                                dst_i[pos]
                                    .store(src_i[i].load(Ordering::Relaxed), Ordering::Relaxed);
                            }
                        }
                    });
                    s0 = s1;
                }
            });
            std::mem::swap(&mut src_k, &mut dst_k);
            std::mem::swap(&mut src_i, &mut dst_i);
        }
    }

    // Phase 3: one sequential walk along the curve.
    let _s = tempart_obs::span!(&rec, "part.sfc.chunk", track = 0, arg = k as u64);
    chunk_greedy(
        src_i.iter().map(|id| id.load(Ordering::Relaxed)),
        n,
        weights,
        k,
        &mut part,
    );
    rec.counter("part.sfc.peak_bytes", 0, ws.peak_bytes());
    part
}

/// Cuts the curve order into `k` consecutive chunks with a
/// **running-remainder** weight target: when part `p` opens, its target is
/// `ceil(remaining_weight / remaining_parts)` (at least 1), so weight
/// swallowed early by a huge cell shrinks the targets of the parts after it
/// instead of starving the tail. A must-close guard (`points left ==
/// parts still unopened`) additionally hands every remaining part one point
/// each, so the last part can never be starved to zero when `k` is large
/// relative to the number of distinct keys.
fn chunk_greedy(
    order: impl Iterator<Item = u32>,
    n: usize,
    weights: &[u64],
    k: usize,
    part: &mut [PartId],
) {
    let total: u64 = weights.iter().sum();
    let mut remaining = total;
    let mut parts_left = k as u64;
    let mut target = (remaining.div_ceil(parts_left)).max(1);
    let mut cur = 0usize;
    let mut part_w = 0u64;
    for (pos, id) in order.enumerate() {
        if cur + 1 < k && (part_w >= target || n - pos < k - cur) {
            cur += 1;
            remaining -= part_w;
            parts_left -= 1;
            target = (remaining.div_ceil(parts_left)).max(1);
            part_w = 0;
        }
        part[id as usize] = cur as PartId;
        part_w += weights[id as usize];
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

    #[test]
    fn keys_match_oracles_on_quantiser_edges() {
        let edges = quantiser_edges();
        for &x in &edges {
            for &y in &edges {
                for &z in &edges {
                    assert_keys_match_oracles([x, y, z]);
                }
            }
        }
    }

    #[test]
    fn keys_match_oracles_on_dyadic_grids() {
        // Every cell centre and every corner of the 2^b grid, b = 1..6.
        for b in 1..=6u32 {
            let side = 1usize << b;
            let h = 1.0 / side as f64;
            for (offset, count) in [(0.5, side), (0.0, side + 1)] {
                let c = |i: usize| (i as f64 + offset) * h;
                for i in 0..count {
                    for j in 0..count {
                        for k in 0..count {
                            assert_keys_match_oracles([c(i), c(j), c(k)]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn keys_match_oracles_on_random_clouds() {
        // Arbitrary doubles over the cube and a margin around it, and the
        // quantiser's lattice points.
        let mut rng = tempart_testkit::rng::Rng::seed_from_u64(0x5EED_4B45);
        for _ in 0..1 << 17 {
            let p = [(); 3].map(|_| rng.gen_range(-0.1..1.1));
            assert_keys_match_oracles(p);
        }
        for p in random_points(1 << 15, 0xC0FFEE) {
            assert_keys_match_oracles(p);
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

    #[test]
    fn radix_matches_comparison_sort_bit_for_bit() {
        // The two sort paths on the same input, at several worker counts
        // and ns straddling shard boundaries (including duplicate keys from
        // the quantiser at n > 2^16 distinct values per axis).
        for n in [64usize, 2048, 2049, 4096, 5000] {
            let pts = random_points(n, 42 + n as u64);
            let weights: Vec<u64> = (0..n as u64).map(|i| 1 + i % 7).collect();
            for curve in [Curve::Morton, Curve::Hilbert] {
                let mut ws = SfcWorkspace::new();
                let expect =
                    sfc_partition_forced(&pts, &weights, 16, curve, 1, &mut ws, usize::MAX);
                for workers in [1usize, 2, 4] {
                    let got = sfc_partition_forced(&pts, &weights, 16, curve, workers, &mut ws, 1);
                    assert_eq!(got, expect, "{curve:?} n={n} workers={workers}");
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
        assert_eq!(
            trace.last_counter("part.sfc.shards"),
            Some(5000u64.div_ceil(SHARD_GRAIN as u64))
        );
    }
}
