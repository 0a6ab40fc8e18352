//! The sort-and-walk SFC partition that `tests/property_sfc.rs` and
//! `tests/paper_scale.rs` check `sfc_partition_with` against.

use tempart::partition::{hilbert_index, morton_index, Curve};

/// Sort-and-walk: every `(key, id)` pair sorted, then one pass along the
/// curve. A chunk closes before a point when it has reached its target
/// (`ceil(remaining weight / chunks left)`, at least 1) or when the points
/// left would not give every unopened chunk one; the last chunk never
/// closes.
pub fn oracle(centroids: &[[f64; 3]], weights: &[u64], k: usize, curve: Curve) -> Vec<u32> {
    let key = |p| match curve {
        Curve::Morton => morton_index(p),
        Curve::Hilbert => hilbert_index(p),
    };
    let mut pairs: Vec<(u64, u32)> = (0u32..)
        .zip(centroids)
        .map(|(id, &p)| (key(p), id))
        .collect();
    pairs.sort_unstable();
    let n = pairs.len();
    let mut part = vec![0u32; n];
    let mut remaining: u64 = weights.iter().sum();
    let mut target = remaining.div_ceil(k as u64).max(1);
    let (mut cur, mut part_w) = (0usize, 0u64);
    for (pos, &(_, id)) in pairs.iter().enumerate() {
        if cur + 1 < k && (part_w >= target || n - pos < k - cur) {
            cur += 1;
            remaining -= part_w;
            target = remaining.div_ceil((k - cur) as u64).max(1);
            part_w = 0;
        }
        part[id as usize] = cur as u32;
        part_w += weights[id as usize];
    }
    part
}
