//! Graded octree refinement with 2:1 balance.
//!
//! The octree lives in the unit cube `[0,1]^3`. A leaf at depth `d` occupies
//! an axis-aligned cube of side `2^{-d}` at integer coordinates
//! `(x, y, z) ∈ [0, 2^d)^3`. Refinement is driven by a caller-supplied
//! predicate; after refinement the tree is *2:1 balanced*: face-adjacent
//! leaves differ by at most one depth level, which bounds hanging faces to
//! 4-to-1 and keeps face enumeration local.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Key of a leaf: `(depth, x, y, z)`.
pub type LeafKey = (u8, u32, u32, u32);

/// Multiply-rotate (Fx-style) hasher for leaf keys: one rotate, xor and
/// multiply per field instead of SipHash's rounds. The keys are the tree's
/// own coordinates, never attacker-chosen, and the map's iteration order
/// never reaches a mesh (`Octree::finalize` sorts the keys), so neither
/// HashDoS resistance nor a random seed buys anything here.
#[derive(Debug, Clone, Copy, Default)]
struct LeafHasher(u64);

impl LeafHasher {
    /// Odd multiplier with well-spread bits (the 64-bit Fx constant).
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for LeafHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    /// The last multiply leaves the high bits best mixed; the table indexes
    /// buckets by the low ones, so rotate the high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The leaf set: key → cell id.
type LeafMap = HashMap<LeafKey, u32, BuildHasherDefault<LeafHasher>>;

/// Configuration of an octree build.
#[derive(Debug, Clone)]
pub struct OctreeConfig {
    /// Uniform starting depth: the build begins from a `2^base_depth`³ grid.
    pub base_depth: u8,
    /// Maximum depth leaves may reach through refinement.
    pub max_depth: u8,
}

impl OctreeConfig {
    /// Deepest level a leaf may reach (the coordinate budget of a `u32`
    /// with headroom).
    pub const MAX_DEPTH: u8 = 20;

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth < base_depth` or `max_depth` exceeds
    /// [`Self::MAX_DEPTH`].
    pub fn checked(self) -> Self {
        assert!(self.max_depth >= self.base_depth, "max_depth < base_depth");
        assert!(self.max_depth <= Self::MAX_DEPTH, "max_depth too large");
        self
    }
}

/// A balanced, graded octree. Leaves are the finite-volume cells.
#[derive(Debug, Clone)]
pub struct Octree {
    /// Leaf set; value is the leaf's index in insertion order (rebuilt at the
    /// end so iteration order is deterministic).
    leaves: LeafMap,
    /// Sorted leaf keys, index = cell id.
    ordered: Vec<LeafKey>,
    max_depth: u8,
}

/// The six axis directions used for neighbour lookups.
pub const DIRECTIONS: [(i64, i64, i64); 6] = [
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
];

impl Octree {
    /// Builds an octree: start from a uniform grid at `base_depth`, refine
    /// every leaf for which `refine(centre, size, depth)` returns true (until
    /// `max_depth`), then enforce 2:1 balance.
    ///
    /// `refine` receives the leaf centre in `[0,1]^3`, its side length and its
    /// current depth.
    pub fn build<F>(config: &OctreeConfig, mut refine: F) -> Self
    where
        F: FnMut([f64; 3], f64, u8) -> bool,
    {
        let config = config.clone().checked();
        let mut leaves = LeafMap::default();
        let n0 = 1u32 << config.base_depth;
        let mut work: Vec<LeafKey> = Vec::new();
        for z in 0..n0 {
            for y in 0..n0 {
                for x in 0..n0 {
                    work.push((config.base_depth, x, y, z));
                }
            }
        }
        // Refinement pass: depth-first over the worklist.
        while let Some(key) = work.pop() {
            let (d, x, y, z) = key;
            if d < config.max_depth && refine(Self::centre_of(key), Self::size_of(d), d) {
                for dz in 0..2u32 {
                    for dy in 0..2u32 {
                        for dx in 0..2u32 {
                            work.push((d + 1, 2 * x + dx, 2 * y + dy, 2 * z + dz));
                        }
                    }
                }
            } else {
                leaves.insert(key, 0);
            }
        }
        let mut tree = Self {
            leaves,
            ordered: Vec::new(),
            max_depth: config.max_depth,
        };
        tree.balance();
        tree.finalize();
        tree
    }

    /// Centre of a leaf in `[0,1]^3`.
    pub fn centre_of(key: LeafKey) -> [f64; 3] {
        let (d, x, y, z) = key;
        let h = Self::size_of(d);
        [
            (f64::from(x) + 0.5) * h,
            (f64::from(y) + 0.5) * h,
            (f64::from(z) + 0.5) * h,
        ]
    }

    /// Side length of a leaf at depth `d`.
    #[inline]
    pub fn size_of(d: u8) -> f64 {
        1.0 / f64::from(1u32 << d)
    }

    /// Enforces the 2:1 balance condition by splitting coarse leaves adjacent
    /// to much finer ones, iterating to a fixed point.
    fn balance(&mut self) {
        let mut queue: Vec<LeafKey> = self.leaves.keys().copied().collect();
        while let Some(key) = queue.pop() {
            if !self.leaves.contains_key(&key) {
                continue; // already split
            }
            let (d, x, y, z) = key;
            if d == 0 {
                continue;
            }
            // For each direction, the neighbour *region* at our depth must be
            // covered by leaves of depth >= d-1. If it is covered by an
            // ancestor at depth <= d-2, that ancestor must split.
            for &(dx, dy, dz) in &DIRECTIONS {
                let n = 1i64 << d;
                let (nx, ny, nz) = (i64::from(x) + dx, i64::from(y) + dy, i64::from(z) + dz);
                if nx < 0 || ny < 0 || nz < 0 || nx >= n || ny >= n || nz >= n {
                    continue; // domain boundary
                }
                let (nx, ny, nz) = (nx as u32, ny as u32, nz as u32);
                // Walk up ancestors of the neighbour coordinate.
                let mut ad = d;
                let (mut ax, mut ay, mut az) = (nx, ny, nz);
                let found = loop {
                    if self.leaves.contains_key(&(ad, ax, ay, az)) {
                        break Some(ad);
                    }
                    if ad == 0 {
                        break None;
                    }
                    ad -= 1;
                    ax >>= 1;
                    ay >>= 1;
                    az >>= 1;
                };
                if let Some(ad) = found {
                    if ad + 1 < d {
                        // Too coarse: split the ancestor leaf.
                        let split_key = (ad, ax, ay, az);
                        self.leaves.remove(&split_key);
                        for cz in 0..2u32 {
                            for cy in 0..2u32 {
                                for cx in 0..2u32 {
                                    let child = (ad + 1, 2 * ax + cx, 2 * ay + cy, 2 * az + cz);
                                    self.leaves.insert(child, 0);
                                    queue.push(child);
                                }
                            }
                        }
                        // Re-examine ourselves: the new children may still be
                        // too coarse relative to us.
                        queue.push(key);
                    }
                }
            }
        }
    }

    /// Sorts leaves deterministically and assigns cell ids.
    fn finalize(&mut self) {
        let mut keys: Vec<LeafKey> = self.leaves.keys().copied().collect();
        keys.sort_unstable();
        for (i, k) in keys.iter().enumerate() {
            *self.leaves.get_mut(k).unwrap() = i as u32;
        }
        self.ordered = keys;
    }

    /// Number of leaves (cells).
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// True when the tree has no leaves (never the case after `build`).
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// Leaf keys in cell-id order.
    pub fn leaves(&self) -> &[LeafKey] {
        &self.ordered
    }

    /// Maximum depth the build was allowed to reach.
    pub fn max_depth(&self) -> u8 {
        self.max_depth
    }

    /// Deepest depth actually present among leaves.
    pub fn deepest_leaf(&self) -> u8 {
        self.ordered.iter().map(|&(d, ..)| d).max().unwrap_or(0)
    }

    /// Looks up the cell id of the leaf covering neighbour of `key` in
    /// direction `dir`, searching same depth then coarser depths.
    ///
    /// Returns `None` at the domain boundary or if only *finer* leaves cover
    /// the region (the caller enumerates those from the finer side).
    pub fn same_or_coarser_neighbor(
        &self,
        key: LeafKey,
        dir: (i64, i64, i64),
    ) -> Option<(LeafKey, u32)> {
        let (d, x, y, z) = key;
        let n = 1i64 << d;
        let (nx, ny, nz) = (
            i64::from(x) + dir.0,
            i64::from(y) + dir.1,
            i64::from(z) + dir.2,
        );
        if nx < 0 || ny < 0 || nz < 0 || nx >= n || ny >= n || nz >= n {
            return None;
        }
        let (mut ax, mut ay, mut az) = (nx as u32, ny as u32, nz as u32);
        let mut ad = d;
        loop {
            if let Some(&id) = self.leaves.get(&(ad, ax, ay, az)) {
                return Some(((ad, ax, ay, az), id));
            }
            if ad == 0 {
                return None;
            }
            ad -= 1;
            ax >>= 1;
            ay >>= 1;
            az >>= 1;
        }
    }

    /// Verifies the 2:1 balance invariant; returns the first violating pair.
    pub fn check_balance(&self) -> Result<(), (LeafKey, LeafKey)> {
        for &key in &self.ordered {
            for &dir in &DIRECTIONS {
                if let Some((nk, _)) = self.same_or_coarser_neighbor(key, dir) {
                    if key.0 > nk.0 + 1 {
                        return Err((key, nk));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_tree_has_grid_leaves() {
        let cfg = OctreeConfig {
            base_depth: 2,
            max_depth: 2,
        };
        let t = Octree::build(&cfg, |_, _, _| false);
        assert_eq!(t.len(), 64);
        assert_eq!(t.deepest_leaf(), 2);
        assert!(t.check_balance().is_ok());
    }

    #[test]
    fn refine_everything_once() {
        let cfg = OctreeConfig {
            base_depth: 1,
            max_depth: 2,
        };
        let t = Octree::build(&cfg, |_, _, d| d < 2);
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn corner_refinement_is_balanced() {
        // Refine aggressively near the origin corner only.
        let cfg = OctreeConfig {
            base_depth: 2,
            max_depth: 6,
        };
        let t = Octree::build(&cfg, |c, _, _| c[0] + c[1] + c[2] < 0.5);
        assert!(t.len() > 64);
        assert!(t.check_balance().is_ok());
        assert!(t.deepest_leaf() > 2);
    }

    #[test]
    fn neighbor_lookup_same_level() {
        let cfg = OctreeConfig {
            base_depth: 1,
            max_depth: 1,
        };
        let t = Octree::build(&cfg, |_, _, _| false);
        let key = (1u8, 0u32, 0u32, 0u32);
        let (nk, _) = t.same_or_coarser_neighbor(key, (1, 0, 0)).unwrap();
        assert_eq!(nk, (1, 1, 0, 0));
        assert!(t.same_or_coarser_neighbor(key, (-1, 0, 0)).is_none());
    }

    #[test]
    fn neighbor_lookup_coarser() {
        // Refine only the origin octant once.
        let cfg = OctreeConfig {
            base_depth: 1,
            max_depth: 2,
        };
        let t = Octree::build(&cfg, |c, _, d| {
            d == 1 && c[0] < 0.5 && c[1] < 0.5 && c[2] < 0.5
        });
        // A fine leaf at depth 2 adjacent to the coarse neighbour octant.
        let fine = (2u8, 1u32, 0u32, 0u32);
        assert!(t.leaves.contains_key(&fine));
        let (nk, _) = t.same_or_coarser_neighbor(fine, (1, 0, 0)).unwrap();
        assert_eq!(nk, (1, 1, 0, 0));
    }

    #[test]
    fn centres_and_sizes() {
        assert_eq!(Octree::size_of(0), 1.0);
        assert_eq!(Octree::size_of(3), 0.125);
        let c = Octree::centre_of((1, 1, 0, 1));
        assert_eq!(c, [0.75, 0.25, 0.75]);
    }

    #[test]
    fn determinism() {
        let cfg = OctreeConfig {
            base_depth: 2,
            max_depth: 5,
        };
        let f = |c: [f64; 3], _: f64, _: u8| (c[0] - 0.5).abs() < 0.2;
        let a = Octree::build(&cfg, f);
        let b = Octree::build(&cfg, f);
        assert_eq!(a.leaves(), b.leaves());
    }

    #[test]
    #[should_panic(expected = "max_depth < base_depth")]
    fn bad_config_panics() {
        let cfg = OctreeConfig {
            base_depth: 3,
            max_depth: 2,
        };
        let _ = Octree::build(&cfg, |_, _, _| false);
    }
}
