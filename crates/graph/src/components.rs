//! Connected components, whole-graph and per-part.

use crate::{CsrGraph, PartId};

/// Labels each vertex with its connected-component id (0-based, in order of
/// discovery) and returns `(labels, component_count)`.
pub fn connected_components(graph: &CsrGraph) -> (Vec<u32>, usize) {
    let n = graph.nvtx();
    let mut label = vec![u32::MAX; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next = 0u32;
    for s in 0..n as u32 {
        if label[s as usize] != u32::MAX {
            continue;
        }
        label[s as usize] = next;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for u in graph.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    (label, next as usize)
}

/// Number of connected components of the whole graph.
pub fn count_components(graph: &CsrGraph) -> usize {
    connected_components(graph).1
}

/// Sum over all parts of the number of connected components *within* that
/// part (edges crossing parts are ignored). A partition in which every domain
/// is contiguous scores exactly `nparts`; disconnected domains — the artefact
/// the paper attributes to MC_TL — push the score above `nparts`.
///
/// Empty parts contribute zero: a [`UnionFind`] over vertex ids unites the
/// endpoints of every same-part edge once, from `v` with `u < v`.
pub fn part_connectivity(graph: &CsrGraph, part: &[PartId], nparts: usize) -> usize {
    assert_eq!(part.len(), graph.nvtx(), "partition vector length");
    let mut sets = UnionFind::new(graph.nvtx());
    for v in 0..graph.nvtx() as u32 {
        let p = part[v as usize];
        assert!((p as usize) < nparts, "part id out of range");
        for u in graph.neighbors(v) {
            if u < v && part[u as usize] == p {
                sets.union(u, v);
            }
        }
    }
    sets.components()
}

/// Disjoint sets over `0..n`, counting its merges: after any sequence of
/// [`Self::union`] calls, [`Self::components`] is the number of connected
/// components of the graph those calls describe.
///
/// Every parent id is at most its child's, so a root is its set's smallest
/// id. [`Self::union`] is Rem's algorithm with splicing (Patwary, Blair &
/// Manne, "Experiments on Union-Find Algorithms for the Disjoint-Set Data
/// Structure", SEA 2010): it climbs both paths at once and stops at the
/// first common parent, with no separate find.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    merges: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the `u32` id range.
    pub fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "union-find ids are u32");
        Self {
            parent: (0..n as u32).collect(),
            merges: 0,
        }
    }

    /// Unites the sets of `a` and `b`.
    ///
    /// Of the two nodes climbed, the one with the larger parent moves: a
    /// root is linked under the other node's parent (the merge), any other
    /// node is spliced there and the climb goes on from its old parent. A
    /// splice keeps every parent at most its child, and both sets are one
    /// after the link, so each call merges at most once, and exactly when
    /// `a` and `b` were apart.
    pub fn union(&mut self, a: u32, b: u32) {
        let parent = &mut self.parent;
        let (mut x, mut y) = (a, b);
        loop {
            let (px, py) = (parent[x as usize], parent[y as usize]);
            if px == py {
                return;
            }
            // Move the side whose parent is larger.
            let (node, up, other_up) = if px > py { (x, px, py) } else { (y, py, px) };
            parent[node as usize] = other_up;
            if node == up {
                self.merges += 1;
                return;
            }
            if px > py {
                x = up;
            } else {
                y = up;
            }
        }
    }

    /// Number of disjoint sets: `n` minus the merges so far.
    pub fn components(&self) -> usize {
        self.parent.len() - self.merges
    }
}

/// Per-part components by depth-first search from every unseen vertex: the
/// oracle of [`part_connectivity`]'s [`UnionFind`].
#[cfg(test)]
pub(crate) fn part_connectivity_dfs(graph: &CsrGraph, part: &[PartId]) -> usize {
    let n = graph.nvtx();
    let mut seen = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut total = 0usize;
    for s in 0..n as u32 {
        if seen[s as usize] {
            continue;
        }
        let p = part[s as usize];
        seen[s as usize] = true;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for u in graph.neighbors(v) {
                if !seen[u as usize] && part[u as usize] == p {
                    seen[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        total += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::grid_graph;
    use crate::GraphBuilder;

    #[test]
    fn single_component_grid() {
        let g = grid_graph(5, 5);
        assert_eq!(count_components(&g), 1);
    }

    #[test]
    fn disjoint_edges() {
        let mut b = GraphBuilder::new(5, 1);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let (labels, n) = connected_components(&g);
        assert_eq!(n, 3); // {0,1}, {2,3}, {4}
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
    }

    #[test]
    fn contiguous_partition_scores_nparts() {
        let g = grid_graph(4, 2);
        let part = vec![0, 0, 1, 1, 0, 0, 1, 1];
        assert_eq!(part_connectivity(&g, &part, 2), 2);
    }

    #[test]
    fn striped_partition_is_disconnected() {
        // Alternating columns of a 4x1 path: part 0 holds {0,2}, disconnected.
        let g = grid_graph(4, 1);
        let part = vec![0, 1, 0, 1];
        assert_eq!(part_connectivity(&g, &part, 2), 4);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0, 1).build();
        assert_eq!(count_components(&g), 0);
        assert_eq!(part_connectivity(&g, &[], 4), 0);
    }

    tempart_testkit::proptest! {
        #![config(cases = 512, seed = 0x0F1D_5E75)]

        // Same-part edges in random order and orientation, some repeated,
        // with self-unions mixed in: the spliced union counts exactly the
        // per-part components the depth-first search finds.
        fn spliced_union_find_counts_the_dfs_components(
            n in 1u32..40,
            raw_edges in tempart_testkit::prop::vec_of((0u32..40, 0u32..40, 0u8..4), 0..160),
            raw_part in tempart_testkit::prop::vec_of(0u32..4, 40..41),
        ) {
            let part = &raw_part[..n as usize];
            let edges: Vec<(u32, u32, u8)> =
                raw_edges.iter().map(|&(a, b, how)| (a % n, b % n, how)).collect();
            let mut b = GraphBuilder::new(n as usize, 1);
            for &(u, v, _) in &edges {
                if u != v {
                    b.add_edge(u, v, 1);
                }
            }
            let g = b.build();
            let oracle = part_connectivity_dfs(&g, part);
            let mut sets = UnionFind::new(n as usize);
            for &(u, v, how) in &edges {
                if part[u as usize] != part[v as usize] {
                    continue;
                }
                match how {
                    0 => sets.union(u, v),
                    1 => sets.union(v, u),
                    2 => {
                        sets.union(u, v);
                        sets.union(v, u);
                    }
                    _ => {
                        sets.union(u, u);
                        sets.union(v, u);
                        sets.union(v, v);
                    }
                }
            }
            tempart_testkit::prop_assert_eq!(sets.components(), oracle);
            tempart_testkit::prop_assert_eq!(part_connectivity(&g, part, 4), oracle);
        }
    }
}
