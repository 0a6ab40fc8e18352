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
/// Empty parts contribute zero: a union-find over vertex ids (path halving)
/// unites the endpoints of every same-part edge once, from `v` with `u < v`,
/// and `n − merges` components remain.
pub fn part_connectivity(graph: &CsrGraph, part: &[PartId], nparts: usize) -> usize {
    assert_eq!(part.len(), graph.nvtx(), "partition vector length");
    let mut parent: Vec<u32> = (0..graph.nvtx() as u32).collect();
    let mut merges = 0usize;
    for v in 0..graph.nvtx() as u32 {
        let p = part[v as usize];
        assert!((p as usize) < nparts, "part id out of range");
        for u in graph.neighbors(v) {
            if u < v && part[u as usize] == p {
                let (a, b) = (find(&mut parent, u), find(&mut parent, v));
                if a != b {
                    parent[a.max(b) as usize] = a.min(b);
                    merges += 1;
                }
            }
        }
    }
    parent.len() - merges
}

/// Root of `v`'s union-find tree, halving the path on the way up.
fn find(parent: &mut [u32], mut v: u32) -> u32 {
    while parent[v as usize] != v {
        let up = parent[parent[v as usize] as usize];
        parent[v as usize] = up;
        v = up;
    }
    v
}

/// Per-part components by depth-first search from every unseen vertex: the
/// oracle of [`part_connectivity`]'s union-find.
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
}
