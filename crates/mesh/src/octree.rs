//! Graded octree refinement with 2:1 balance.
//!
//! The octree lives in the unit cube `[0,1]^3`. A leaf at depth `d` occupies
//! an axis-aligned cube of side `2^{-d}` at integer coordinates
//! `(x, y, z) ∈ [0, 2^d)^3`. Refinement is driven by a caller-supplied
//! predicate; after refinement the tree is *2:1 balanced*: face-adjacent
//! leaves differ by at most one depth level, which bounds hanging faces to
//! 4-to-1 and keeps face enumeration local.
//!
//! The tree is one array of `u32` nodes: the `8^base_depth` base cells
//! (`x` fastest, then `y`, then `z`), then one block of eight children per
//! split, child `cx + 2cy + 4cz` in its parent's octant `(cx, cy, cz)`. A
//! node is either a leaf, a tag bit plus its cell id, or the index of its
//! first child, so the leaf covering a point is at most `max_depth −
//! base_depth` reads below its base cell.

/// Key of a leaf: `(depth, x, y, z)`.
pub type LeafKey = (u8, u32, u32, u32);

/// Tag bit of a leaf node; the bits below it are the leaf's cell id. An
/// inner node holds its first child's index, which stays below it too.
const LEAF: u32 = 1 << 31;

/// Deepest base grid whose `8^base_depth` cells fit below [`LEAF`].
pub(crate) const MAX_BASE_DEPTH: u8 = 10;

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
    /// Panics if `max_depth < base_depth`, if `max_depth` exceeds
    /// [`Self::MAX_DEPTH`], or if the base grid has more than 2^31 cells
    /// (`base_depth > 10`), more than a node can name.
    pub fn checked(self) -> Self {
        assert!(self.max_depth >= self.base_depth, "max_depth < base_depth");
        assert!(self.max_depth <= Self::MAX_DEPTH, "max_depth too large");
        assert!(
            self.base_depth <= MAX_BASE_DEPTH,
            "base grid of 8^{} cells exceeds 2^31",
            self.base_depth
        );
        self
    }
}

/// A balanced, graded octree. Leaves are the finite-volume cells.
#[derive(Debug, Clone)]
pub struct Octree {
    /// The node array (see the module docs).
    nodes: Vec<u32>,
    /// Sorted leaf keys, index = cell id.
    ordered: Vec<LeafKey>,
    base_depth: u8,
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

/// The eight children of `key`, whose block starts at node `first`, in node
/// order.
fn children((d, x, y, z): LeafKey, first: u32) -> impl Iterator<Item = (LeafKey, u32)> {
    (0..8u32).map(move |c| {
        let (cx, cy, cz) = (c & 1, (c >> 1) & 1, c >> 2);
        ((d + 1, 2 * x + cx, 2 * y + cy, 2 * z + cz), first + c)
    })
}

/// The neighbour of `(d, x, y, z)` one step along `dir` at depth `d`, or
/// `None` past the domain boundary.
fn step((d, x, y, z): LeafKey, (dx, dy, dz): (i64, i64, i64)) -> Option<LeafKey> {
    let at = |c: u32, s: i64| u32::try_from(i64::from(c) + s).ok().filter(|&p| p < 1 << d);
    Some((d, at(x, dx)?, at(y, dy)?, at(z, dz)?))
}

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
        let mut tree = Self {
            nodes: vec![LEAF; 1 << (3 * u32::from(config.base_depth))],
            ordered: Vec::new(),
            base_depth: config.base_depth,
            max_depth: config.max_depth,
        };
        // Refinement pass: depth-first, one base cell at a time from the last
        // (the order a LIFO worklist of every base cell pops them in).
        let mut work = Vec::new();
        for base in tree.base_cells().rev() {
            work.push(base);
            while let Some((key @ (d, ..), node)) = work.pop() {
                if d < config.max_depth && refine(Self::centre_of(key), Self::size_of(d), d) {
                    work.extend(children(key, tree.split(node)));
                }
            }
        }
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

    /// The base cells and their nodes, in node order.
    fn base_cells(&self) -> impl DoubleEndedIterator<Item = (LeafKey, u32)> {
        let b = self.base_depth;
        let n0 = 1u32 << b;
        (0..n0 * n0 * n0).map(move |i| ((b, i % n0, i / n0 % n0, i / (n0 * n0)), i))
    }

    /// Turns leaf `node` into an inner node over eight new leaves; returns
    /// the first child's index.
    fn split(&mut self, node: u32) -> u32 {
        assert!(
            self.nodes.len() + 8 <= LEAF as usize,
            "octree node count exceeds 2^31"
        );
        let first = self.nodes.len() as u32;
        self.nodes[node as usize] = first;
        self.nodes.extend([LEAF; 8]);
        first
    }

    /// The node covering `key`'s region, read down from its base cell to a
    /// leaf or to `key`'s depth, with its key. `None` above the base grid.
    fn locate(&self, (d, x, y, z): LeafKey) -> Option<(LeafKey, usize)> {
        let s = d.checked_sub(self.base_depth)?;
        let n0 = 1usize << self.base_depth;
        let (bx, by, bz) = ((x >> s) as usize, (y >> s) as usize, (z >> s) as usize);
        let mut node = bx + n0 * (by + n0 * bz);
        let mut ad = self.base_depth;
        while ad < d && self.nodes[node] & LEAF == 0 {
            ad += 1;
            let s = d - ad;
            let c = ((x >> s) & 1) | (((y >> s) & 1) << 1) | (((z >> s) & 1) << 2);
            node = (self.nodes[node] + c) as usize;
        }
        let s = d - ad;
        Some(((ad, x >> s, y >> s, z >> s), node))
    }

    /// Enforces the 2:1 balance condition by splitting coarse leaves adjacent
    /// to much finer ones, iterating to a fixed point from each leaf in
    /// turn. The closure is unique, so the order is free.
    fn balance(&mut self) {
        let mut queue = Vec::new();
        self.for_each_leaf(|tree, leaf, node| {
            queue.push((leaf, node));
            while let Some((key, node)) = queue.pop() {
                // Skip a leaf split since it was queued, and one too shallow for
                // any leaf (none is above the base depth) to be two coarser.
                if tree.nodes[node as usize] & LEAF == 0 || key.0 < tree.base_depth + 2 {
                    continue;
                }
                // For each direction, the neighbour *region* at our depth must
                // be covered by leaves of depth >= d-1. If it is covered by an
                // ancestor at depth <= d-2, that ancestor must split.
                for &dir in &DIRECTIONS {
                    let Some(region) = step(key, dir) else {
                        continue; // domain boundary
                    };
                    let (coarse, at) = tree.locate(region).expect("leaves lie below the base grid");
                    if coarse.0 + 1 < key.0 {
                        let first = tree.split(at as u32);
                        queue.extend(children(coarse, first));
                        // Re-examine ourselves: the new children may still be
                        // too coarse relative to us. Each face sibling splits
                        // the chain of coarse ancestors only once, so a path
                        // seven or more levels deep needs the leaf to look
                        // again (`single_path_trees_are_balanced`).
                        queue.push((key, node));
                    }
                }
            }
        });
    }

    /// Calls `f` with every leaf's key and node, depth-first from each base
    /// cell; a leaf `f` splits is walked into.
    fn for_each_leaf(&mut self, mut f: impl FnMut(&mut Self, LeafKey, u32)) {
        let mut stack = Vec::new();
        for base in self.base_cells() {
            stack.push(base);
            while let Some((key, node)) = stack.pop() {
                match self.nodes[node as usize] {
                    v if v & LEAF != 0 => f(self, key, node),
                    first => stack.extend(children(key, first)),
                }
            }
        }
    }

    /// Sorts leaves deterministically — by depth, then `x`, `y`, `z` — and
    /// writes each cell id into its node.
    fn finalize(&mut self) {
        // Coordinates at depth `d <= MAX_DEPTH` fit 20 bits, so a depth's
        // leaves sort as one packed `u64` each.
        const MASK: u32 = (1 << 20) - 1;
        let mut by_depth = vec![Vec::new(); usize::from(self.max_depth) + 1];
        self.for_each_leaf(|_, (d, x, y, z), _| {
            let packed = (u64::from(x) << 40) | (u64::from(y) << 20) | u64::from(z);
            by_depth[usize::from(d)].push(packed);
        });
        let mut keys = Vec::with_capacity(by_depth.iter().map(Vec::len).sum());
        for (d, mut packed) in (0u8..).zip(by_depth) {
            packed.sort_unstable();
            let unpack = |p: u64| {
                (
                    d,
                    (p >> 40) as u32,
                    (p >> 20) as u32 & MASK,
                    p as u32 & MASK,
                )
            };
            keys.extend(packed.iter().map(|&p| unpack(p)));
        }
        for (id, &key) in keys.iter().enumerate() {
            let (_, node) = self.locate(key).expect("leaves lie below the base grid");
            self.nodes[node] = LEAF | id as u32;
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
        let (nk, node) = self.locate(step(key, dir)?)?;
        let v = self.nodes[node];
        (v & LEAF != 0).then_some((nk, v & !LEAF))
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
    use crate::mesh::{Face, FaceNeighbor, Mesh};
    use std::collections::HashMap;
    use tempart_testkit::rng::Rng;

    /// The hash-map octree the node array replaced, kept as the oracle: the
    /// same LIFO build, balance by ancestor lookups, ids from sorted keys.
    struct MapTree {
        leaves: HashMap<LeafKey, u32>,
        ordered: Vec<LeafKey>,
    }

    impl MapTree {
        fn build(cfg: &OctreeConfig, mut refine: impl FnMut([f64; 3], f64, u8) -> bool) -> Self {
            let mut leaves = HashMap::new();
            let n0 = 1u32 << cfg.base_depth;
            let mut work = Vec::new();
            for z in 0..n0 {
                for y in 0..n0 {
                    for x in 0..n0 {
                        work.push((cfg.base_depth, x, y, z));
                    }
                }
            }
            while let Some(key) = work.pop() {
                let d = key.0;
                if d < cfg.max_depth && refine(Octree::centre_of(key), Octree::size_of(d), d) {
                    work.extend(Self::children(key));
                } else {
                    leaves.insert(key, 0);
                }
            }
            let mut queue: Vec<LeafKey> = leaves.keys().copied().collect();
            while let Some(key) = queue.pop() {
                if !leaves.contains_key(&key) {
                    continue;
                }
                for &dir in &DIRECTIONS {
                    if let Some((coarse, _)) = Self::neighbor(&leaves, key, dir) {
                        if coarse.0 + 1 < key.0 {
                            leaves.remove(&coarse);
                            for child in Self::children(coarse) {
                                leaves.insert(child, 0);
                                queue.push(child);
                            }
                            queue.push(key);
                        }
                    }
                }
            }
            let mut ordered: Vec<LeafKey> = leaves.keys().copied().collect();
            ordered.sort_unstable();
            for (id, key) in ordered.iter().enumerate() {
                leaves.insert(*key, id as u32);
            }
            Self { leaves, ordered }
        }

        fn children((d, x, y, z): LeafKey) -> Vec<LeafKey> {
            let mut out = Vec::new();
            for dz in 0..2 {
                for dy in 0..2 {
                    for dx in 0..2 {
                        out.push((d + 1, 2 * x + dx, 2 * y + dy, 2 * z + dz));
                    }
                }
            }
            out
        }

        fn neighbor(
            leaves: &HashMap<LeafKey, u32>,
            (d, x, y, z): LeafKey,
            dir: (i64, i64, i64),
        ) -> Option<(LeafKey, u32)> {
            let n = 1i64 << d;
            let p = [
                i64::from(x) + dir.0,
                i64::from(y) + dir.1,
                i64::from(z) + dir.2,
            ];
            if p.iter().any(|&c| c < 0 || c >= n) {
                return None;
            }
            let mut key = (d, p[0] as u32, p[1] as u32, p[2] as u32);
            loop {
                if let Some(&id) = leaves.get(&key) {
                    return Some((key, id));
                }
                let (ad, ax, ay, az) = key;
                if ad == 0 {
                    return None;
                }
                key = (ad - 1, ax >> 1, ay >> 1, az >> 1);
            }
        }

        /// Faces by the mesh's rule: a boundary face per outward side, an
        /// interior one from the finer side, at equal depth from the
        /// positive direction.
        fn faces(&self) -> Vec<Face> {
            let mut faces = Vec::new();
            for (id, &key) in self.ordered.iter().enumerate() {
                let (d, x, y, z) = key;
                let n = 1i64 << d;
                for (dir, &step) in (0u8..).zip(&DIRECTIONS) {
                    let p = [
                        i64::from(x) + step.0,
                        i64::from(y) + step.1,
                        i64::from(z) + step.2,
                    ];
                    let neighbor = if p.iter().any(|&c| c < 0 || c >= n) {
                        FaceNeighbor::Boundary
                    } else {
                        match Self::neighbor(&self.leaves, key, step) {
                            Some((nk, nid)) if nk.0 < d || step.0 + step.1 + step.2 > 0 => {
                                FaceNeighbor::Interior(nid)
                            }
                            _ => continue,
                        }
                    };
                    faces.push(Face {
                        owner: id as u32,
                        neighbor,
                        dir,
                        depth: d,
                    });
                }
            }
            faces
        }
    }

    /// 1 000 seeded random predicates over base depths 0–3 and up to four
    /// more levels — coin flips thinning with depth, or a ball refined to the
    /// full depth — call the predicate in the oracle's order and give its
    /// leaves, its every neighbour answer and its mesh.
    #[test]
    fn random_trees_match_the_hash_map_oracle() {
        for seed in 0..1000u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let base_depth = rng.gen_range(0..4u64) as u8;
            let cfg = OctreeConfig {
                base_depth,
                max_depth: base_depth + rng.gen_range(0..5u64) as u8,
            };
            let ball = rng.gen_bool();
            let p = 0.25 * rng.gen_f64();
            let r = 0.06 * rng.gen_f64();
            let centre = [rng.gen_f64(), rng.gen_f64(), rng.gen_f64()];
            let coin_seed = rng.next_u64();
            let refine =
                |calls: &mut Vec<([f64; 3], u8)>, coin: &mut Rng, c: [f64; 3], h: f64, d: u8| {
                    calls.push((c, d));
                    if ball {
                        let d2: f64 = (0..3).map(|i| (c[i] - centre[i]).powi(2)).sum();
                        d2 < (r + h) * (r + h)
                    } else {
                        coin.gen_f64() < p / f64::from(1u32 << (d - base_depth))
                    }
                };
            let (mut calls, mut coin) = (Vec::new(), Rng::seed_from_u64(coin_seed));
            let tree = Octree::build(&cfg, |c, h, d| refine(&mut calls, &mut coin, c, h, d));
            let (mut want_calls, mut coin) = (Vec::new(), Rng::seed_from_u64(coin_seed));
            let oracle =
                MapTree::build(&cfg, |c, h, d| refine(&mut want_calls, &mut coin, c, h, d));
            assert_eq!(calls, want_calls, "seed {seed}: predicate calls");
            assert_eq!(tree.leaves(), &oracle.ordered[..], "seed {seed}: leaves");
            for &key in tree.leaves() {
                for &dir in &DIRECTIONS {
                    assert_eq!(
                        tree.same_or_coarser_neighbor(key, dir),
                        MapTree::neighbor(&oracle.leaves, key, dir),
                        "seed {seed}: {key:?} towards {dir:?}"
                    );
                }
            }
            let mesh = Mesh::from_octree(&tree);
            assert_eq!(mesh.faces(), &oracle.faces()[..], "seed {seed}: faces");
        }
    }

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

    /// Trees refined along one path from the origin base cell: child `first`
    /// of the base cell, then child `later` at every level down to
    /// `max_depth`, for every pair of child indices, base depths 0–2 and
    /// 5–8 levels past the base. A path seven or more levels deep ends
    /// unbalanced unless `balance` re-examines a leaf after splitting a
    /// neighbour (base depth 0, `max_depth` 7, child 0 then child 7 leaves
    /// `(7, 62, 62, 63)` next to `(5, 15, 15, 16)` without it).
    #[test]
    fn single_path_trees_are_balanced() {
        for base_depth in 0..3u8 {
            for levels in 5..9u8 {
                let cfg = OctreeConfig {
                    base_depth,
                    max_depth: base_depth + levels,
                };
                for (first, later) in (0..8u32).flat_map(|a| (0..8u32).map(move |b| (a, b))) {
                    // The path's key at each depth below the base.
                    let mut path = vec![(base_depth, 0, 0, 0)];
                    for l in 0..levels {
                        let c = if l == 0 { first } else { later };
                        let (d, x, y, z) = path[usize::from(l)];
                        path.push((
                            d + 1,
                            2 * x + (c & 1),
                            2 * y + (c >> 1 & 1),
                            2 * z + (c >> 2),
                        ));
                    }
                    let t = Octree::build(&cfg, |c, h, d| {
                        let at = |i: usize| (c[i] / h) as u32;
                        path[usize::from(d - base_depth)] == (d, at(0), at(1), at(2))
                    });
                    assert_eq!(t.deepest_leaf(), cfg.max_depth);
                    assert_eq!(
                        t.check_balance(),
                        Ok(()),
                        "base depth {base_depth}, max depth {}, child {first} then {later}",
                        cfg.max_depth
                    );
                }
            }
        }
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
        assert!(t.leaves().contains(&fine));
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
    #[should_panic(expected = "base grid of 8^11 cells exceeds 2^31")]
    fn base_grid_past_the_cell_ids_panics() {
        let _ = OctreeConfig {
            base_depth: 11,
            max_depth: 11,
        }
        .checked();
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
