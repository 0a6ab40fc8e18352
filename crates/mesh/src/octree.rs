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
//! (`z` fastest, then `y`, then `x`: the order cell ids take), then one
//! block of eight children per split, child `cx + 2cy + 4cz` in its parent's
//! octant `(cx, cy, cz)`. A node is either a leaf, a tag bit plus its cell
//! id, or the index of its first child, so the leaf covering a point is at
//! most `max_depth − base_depth` reads below its base cell, and a leaf's
//! same-depth neighbour is one read: a base cell one stride away or a
//! sibling in its block.

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
    /// Each leaf's node, index = cell id.
    leaf_nodes: Vec<u32>,
    base_depth: u8,
    max_depth: u8,
}

/// The six axis directions used for neighbour lookups. Direction `dir` runs
/// along axis `dir / 2`, up it for an even `dir` and down it for an odd one.
pub const DIRECTIONS: [(i64, i64, i64); 6] = [
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
];

/// What lies across one side of a leaf ([`Octree::side`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The domain boundary.
    Boundary,
    /// One leaf as deep as this one or coarser: its depth and cell id.
    Leaf(u8, u32),
    /// Finer leaves.
    Finer,
}

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

/// Whether side `dir` (an index into [`DIRECTIONS`]) of `key`, below the
/// base grid, faces a sibling in its parent's block: up an axis from the
/// block's lower half, down it from the upper.
fn faces_sibling((_, x, y, z): LeafKey, dir: u8) -> bool {
    ([x, y, z][usize::from(dir / 2)] & 1 == 0) == (dir.is_multiple_of(2))
}

impl Octree {
    /// Builds an octree: start from a uniform grid at `base_depth`, refine
    /// every leaf for which `refine(centre, size, depth)` returns true (until
    /// `max_depth`), then enforce 2:1 balance.
    ///
    /// `refine` receives the leaf centre in `[0,1]^3`, its side length and its
    /// current depth.
    pub fn build<F>(config: &OctreeConfig, refine: F) -> Self
    where
        F: FnMut([f64; 3], f64, u8) -> bool,
    {
        let mut tree = Self::grow(config, refine);
        tree.finalize();
        tree
    }

    /// The refined and balanced tree [`Self::build`] numbers.
    fn grow<F>(config: &OctreeConfig, mut refine: F) -> Self
    where
        F: FnMut([f64; 3], f64, u8) -> bool,
    {
        let config = config.clone().checked();
        let mut tree = Self {
            nodes: vec![LEAF; 1 << (3 * u32::from(config.base_depth))],
            ordered: Vec::new(),
            leaf_nodes: Vec::new(),
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

    /// The base cells and their nodes, `x` fastest, then `y`, then `z`.
    fn base_cells(&self) -> impl DoubleEndedIterator<Item = (LeafKey, u32)> {
        let b = self.base_depth;
        let n0 = 1u32 << b;
        (0..n0 * n0 * n0).map(move |i| {
            let (x, y, z) = (i % n0, i / n0 % n0, i / (n0 * n0));
            ((b, x, y, z), z + n0 * (y + n0 * x))
        })
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
        let mut node = bz + n0 * (by + n0 * bx);
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
                // ancestor at depth <= d-2, that ancestor must split. A
                // sibling's region is a node at our depth.
                for (side, &dir) in (0u8..).zip(&DIRECTIONS) {
                    if faces_sibling(key, side) {
                        continue;
                    }
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

    /// Numbers the leaves deterministically — by depth, then `x`, `y`, `z` —
    /// and writes each cell id into its node. No leaf is shallower than the
    /// base grid, so its leaves come first, read off the grid in that order;
    /// only the leaves below it are sorted.
    ///
    /// The blocks are laid out again on the way, each base cell's subtree
    /// after the previous one's in base-grid order, so that leaves numbered
    /// close together lie close together in the node array.
    fn finalize(&mut self) {
        // Coordinates at depth `d <= MAX_DEPTH` fit 20 bits, so a depth's
        // leaves sort as one packed `u64` each.
        const MASK: u32 = (1 << 20) - 1;
        let b = self.base_depth;
        let n0 = 1u32 << b;
        let base = n0 * n0 * n0;
        let old = std::mem::take(&mut self.nodes);
        let mut nodes = Vec::with_capacity(old.len());
        nodes.extend_from_slice(&old[..base as usize]);
        // Each split turns one leaf into eight.
        let n_leaves = base as usize + (old.len() - base as usize) / 8 * 7;
        let mut keys = Vec::with_capacity(n_leaves);
        let mut leaf_nodes = Vec::with_capacity(n_leaves);
        let mut number = |nodes: &mut [u32], key: LeafKey, node: u32| {
            nodes[node as usize] = LEAF | keys.len() as u32;
            keys.push(key);
            leaf_nodes.push(node);
        };
        let mut by_depth = vec![Vec::new(); usize::from(self.max_depth - b)];
        let mut stack = Vec::new();
        for node in 0..base {
            let key = (b, node / (n0 * n0), node / n0 % n0, node % n0);
            if nodes[node as usize] & LEAF != 0 {
                number(&mut nodes, key, node);
                continue;
            }
            stack.push((key, node));
            while let Some((key @ (d, x, y, z), node)) = stack.pop() {
                let v = nodes[node as usize];
                if v & LEAF != 0 {
                    let packed = (u64::from(x) << 40) | (u64::from(y) << 20) | u64::from(z);
                    by_depth[usize::from(d - b - 1)].push((packed, node));
                } else {
                    let first = nodes.len() as u32;
                    nodes.extend_from_slice(&old[v as usize..v as usize + 8]);
                    nodes[node as usize] = first;
                    stack.extend(children(key, first));
                }
            }
        }
        for (d, mut leaves) in (b + 1..).zip(by_depth) {
            leaves.sort_unstable_by_key(|&(packed, _)| packed);
            for (p, node) in leaves {
                let key = (
                    d,
                    (p >> 40) as u32,
                    (p >> 20) as u32 & MASK,
                    p as u32 & MASK,
                );
                number(&mut nodes, key, node);
            }
        }
        self.nodes = nodes;
        self.ordered = keys;
        self.leaf_nodes = leaf_nodes;
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
        self.leaf_covering(step(key, dir)?)
    }

    /// The leaf covering `region` with its cell id, or `None` if finer
    /// leaves cover it.
    fn leaf_covering(&self, region: LeafKey) -> Option<(LeafKey, u32)> {
        let (nk, node) = self.locate(region)?;
        let v = self.nodes[node];
        (v & LEAF != 0).then_some((nk, v & !LEAF))
    }

    /// At most how many faces [`crate::Mesh::from_octree`] emits: a face
    /// per side of its owner, a same-depth pair's from the upper side. Each
    /// of a leaf's three upper sides emits at most one. A lower side facing
    /// a same-depth base cell or sibling emits none, so only a base cell on
    /// the domain's lower boundary (at most `3 · 4^base_depth` sides) or a
    /// leaf below the base across its block boundary (twelve sides a block)
    /// emits from a lower side.
    pub(crate) fn max_faces(&self) -> usize {
        let n0 = 1usize << self.base_depth;
        let blocks = (self.nodes.len() - n0 * n0 * n0) / 8;
        3 * self.len() + 12 * blocks + 3 * n0 * n0
    }

    /// Each leaf's node, in cell-id order.
    pub(crate) fn leaf_nodes(&self) -> &[u32] {
        &self.leaf_nodes
    }

    /// What lies across side `dir` (an index into [`DIRECTIONS`]) of the leaf
    /// `key` at `node`: what [`Self::same_or_coarser_neighbor`] finds, read
    /// off the node array. The same-depth neighbour of a base cell is the
    /// base cell one stride away, and that of a deeper leaf inside its
    /// block the sibling one child index away; only a neighbour across a
    /// block boundary is read down from its base cell.
    // Left out of line, it makes generating PPRIME_NOZZLE at depth 6 take
    // ~1.3× as long.
    #[inline]
    pub(crate) fn side(&self, key: LeafKey, node: u32, dir: u8) -> Side {
        let (d, x, y, z) = key;
        let axis = u32::from(dir / 2);
        let up = dir.is_multiple_of(2);
        let c = [x, y, z][axis as usize];
        if (up && c + 1 == 1 << d) || (!up && c == 0) {
            return Side::Boundary;
        }
        let stride = if d == self.base_depth {
            1 << ((2 - axis) * u32::from(d))
        } else if faces_sibling(key, dir) {
            1 << axis
        } else {
            let mut at = [x, y, z];
            at[axis as usize] = if up { c + 1 } else { c - 1 };
            return match self.leaf_covering((d, at[0], at[1], at[2])) {
                Some(((nd, ..), id)) => Side::Leaf(nd, id),
                None => Side::Finer,
            };
        };
        let v = self.nodes[if up { node + stride } else { node - stride } as usize];
        if v & LEAF != 0 {
            Side::Leaf(d, v & !LEAF)
        } else {
            Side::Finer
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

    /// A seeded random predicate over base depths 0–3 and up to four more
    /// levels: coin flips thinning with depth, or a ball refined to the full
    /// depth.
    struct RandomRefine {
        cfg: OctreeConfig,
        ball: bool,
        p: f64,
        r: f64,
        centre: [f64; 3],
        coin_seed: u64,
    }

    impl RandomRefine {
        fn new(seed: u64) -> Self {
            let mut rng = Rng::seed_from_u64(seed);
            let base_depth = rng.gen_range(0..4u64) as u8;
            let cfg = OctreeConfig {
                base_depth,
                max_depth: base_depth + rng.gen_range(0..5u64) as u8,
            };
            Self {
                cfg,
                ball: rng.gen_bool(),
                p: 0.25 * rng.gen_f64(),
                r: 0.06 * rng.gen_f64(),
                centre: [rng.gen_f64(), rng.gen_f64(), rng.gen_f64()],
                coin_seed: rng.next_u64(),
            }
        }

        /// The predicate, with a fresh coin.
        fn predicate(&self) -> impl FnMut([f64; 3], f64, u8) -> bool + '_ {
            let mut coin = Rng::seed_from_u64(self.coin_seed);
            move |c, h, d| {
                if self.ball {
                    let d2: f64 = (0..3).map(|i| (c[i] - self.centre[i]).powi(2)).sum();
                    d2 < (self.r + h) * (self.r + h)
                } else {
                    coin.gen_f64() < self.p / f64::from(1u32 << (d - self.cfg.base_depth))
                }
            }
        }
    }

    /// 1 000 seeded random predicates ([`RandomRefine`]) call the predicate
    /// in the oracle's order and give its leaves, its every neighbour answer
    /// and its mesh.
    #[test]
    fn random_trees_match_the_hash_map_oracle() {
        for seed in 0..1000u64 {
            let spec = RandomRefine::new(seed);
            let cfg = &spec.cfg;
            let (mut calls, mut refine) = (Vec::new(), spec.predicate());
            let tree = Octree::build(cfg, |c, h, d| {
                calls.push((c, d));
                refine(c, h, d)
            });
            let (mut want_calls, mut refine) = (Vec::new(), spec.predicate());
            let oracle = MapTree::build(cfg, |c, h, d| {
                want_calls.push((c, d));
                refine(c, h, d)
            });
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

    /// The numbering the base-grid scan replaced, kept as the oracle: every
    /// leaf bucketed by depth and sorted, then found by a search from its
    /// base cell.
    fn finalize_by_sorting(tree: &mut Octree) {
        const MASK: u32 = (1 << 20) - 1;
        let mut by_depth = vec![Vec::new(); usize::from(tree.max_depth) + 1];
        tree.for_each_leaf(|_, (d, x, y, z), _| {
            let packed = (u64::from(x) << 40) | (u64::from(y) << 20) | u64::from(z);
            by_depth[usize::from(d)].push(packed);
        });
        let mut keys = Vec::new();
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
        let mut leaf_nodes = Vec::new();
        for (id, &key) in keys.iter().enumerate() {
            let (_, node) = tree.locate(key).expect("leaves lie below the base grid");
            tree.nodes[node] = LEAF | id as u32;
            leaf_nodes.push(node as u32);
        }
        tree.ordered = keys;
        tree.leaf_nodes = leaf_nodes;
    }

    /// `finalize`, `side` and `Mesh::from_octree` against the searches they
    /// replaced: the numbered nodes, leaves and leaf nodes of
    /// [`finalize_by_sorting`], [`Octree::same_or_coarser_neighbor`] (and the
    /// domain boundary) on every side of every leaf, and the cells, faces
    /// and cell → face CSR of [`Mesh::from_octree_by_lookup`].
    fn assert_matches_the_lookup_oracles(
        cfg: &OctreeConfig,
        refine: impl FnMut([f64; 3], f64, u8) -> bool,
        what: &str,
    ) -> Octree {
        let mut tree = Octree::grow(cfg, refine);
        let mut oracle = tree.clone();
        tree.finalize();
        finalize_by_sorting(&mut oracle);
        assert_eq!(tree.leaves(), oracle.leaves(), "{what}: leaves");
        assert_eq!(tree.nodes.len(), oracle.nodes.len(), "{what}: nodes");
        for (id, (&key, &node)) in (0u32..).zip(tree.leaves().iter().zip(tree.leaf_nodes())) {
            assert_eq!(
                tree.locate(key),
                Some((key, node as usize)),
                "{what}: {key:?}"
            );
            assert_eq!(tree.nodes[node as usize], LEAF | id, "{what}: {key:?}");
        }
        for (&key, &node) in tree.leaves().iter().zip(tree.leaf_nodes()) {
            for (dir, &towards) in (0u8..).zip(&DIRECTIONS) {
                let want = match tree.same_or_coarser_neighbor(key, towards) {
                    Some(((nd, ..), id)) => Side::Leaf(nd, id),
                    None if step(key, towards).is_none() => Side::Boundary,
                    None => Side::Finer,
                };
                let got = tree.side(key, node, dir);
                assert_eq!(got, want, "{what}: {key:?} towards {towards:?}");
            }
        }
        let (mesh, want) = (Mesh::from_octree(&tree), Mesh::from_octree_by_lookup(&tree));
        assert!(mesh.parts() == want.parts(), "{what}: mesh");
        tree
    }

    /// The 1 000 trees of `random_trees_match_the_hash_map_oracle`, a tree
    /// with no refinement, one refined everywhere to its maximum depth and
    /// one over a single base cell.
    #[test]
    fn random_and_edge_trees_match_the_lookup_oracles() {
        for seed in 0..1000u64 {
            let spec = RandomRefine::new(seed);
            assert_matches_the_lookup_oracles(&spec.cfg, spec.predicate(), &format!("seed {seed}"));
        }
        let cfg = |base_depth, max_depth| OctreeConfig {
            base_depth,
            max_depth,
        };
        let flat = assert_matches_the_lookup_oracles(&cfg(3, 5), |_, _, _| false, "no refinement");
        assert_eq!((flat.len(), flat.deepest_leaf()), (512, 3));
        let full =
            assert_matches_the_lookup_oracles(&cfg(2, 4), |_, _, _| true, "all at max depth");
        assert_eq!((full.len(), full.deepest_leaf()), (4096, 4));
        let near = |c: [f64; 3], h: f64, _| {
            (c[0] - 0.2).abs() + (c[1] - 0.3).abs() + (c[2] - 0.4).abs() < h
        };
        let graded = assert_matches_the_lookup_oracles(&cfg(0, 5), near, "base depth 0");
        assert_eq!(graded.deepest_leaf(), 5);
        assert!(graded.leaves().iter().any(|&(d, ..)| d == 2));
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
