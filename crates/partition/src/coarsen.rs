//! Coarsening: heavy-edge matching and graph contraction.
//!
//! All stages are workspace-backed: matching scratch (incl. the per-level
//! weight-class table), stamp/slot accumulators and the coarse CSR arrays
//! themselves come from the
//! [`PartitionWorkspace`](crate::PartitionWorkspace) arenas/pools, so a
//! warm workspace coarsens without touching the allocator. Each level's
//! graph is built exactly once and **moved** into the hierarchy — the old
//! per-level `CsrGraph` clone is gone.

use crate::PartitionWorkspace;
use tempart_graph::CsrGraph;
use tempart_testkit::rng::Rng;

/// A single level of the coarsening hierarchy.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarse graph.
    pub graph: CsrGraph,
    /// For every *fine* vertex, the coarse vertex it maps to.
    pub fine_to_coarse: Vec<u32>,
}

/// Computes a heavy-edge matching of `graph`.
///
/// Vertices are visited in a random order; each unmatched vertex matches the
/// unmatched neighbour connected by the heaviest edge (ties broken by lower
/// vertex id for determinism). Returns `match_of[v]`, with `match_of[v] == v`
/// for unmatched vertices.
pub fn heavy_edge_matching(graph: &CsrGraph, rng: &mut Rng) -> Vec<u32> {
    let mut ws = PartitionWorkspace::new();
    heavy_edge_matching_ws(graph, rng, &mut ws);
    std::mem::take(&mut ws.match_of)
}

/// Workspace-backed [`heavy_edge_matching`]: the result lands in
/// `ws.match_of` (valid until the next matching call).
pub(crate) fn heavy_edge_matching_ws(graph: &CsrGraph, rng: &mut Rng, ws: &mut PartitionWorkspace) {
    let n = graph.nvtx();
    let ncon = graph.ncon();
    // Dominant weight class per vertex; multi-constraint matching prefers
    // same-class pairs so coarse vertices keep (nearly) one-hot weight
    // vectors — mixed coarse vertices make per-class balancing impossible at
    // coarse levels. Computed once per level; single-constraint graphs have
    // one class and skip it.
    let class_of = &mut ws.class_of;
    class_of.clear();
    if ncon > 1 {
        class_of.extend((0..n as u32).map(|v| {
            let w = graph.vertex_weights(v);
            let mut best = 0usize;
            for c in 1..ncon {
                if w[c] > w[best] {
                    best = c;
                }
            }
            best as u32
        }));
    }
    let match_of = &mut ws.match_of;
    match_of.clear();
    match_of.extend(0..n as u32);
    let order = &mut ws.order;
    order.clear();
    order.extend(0..n as u32);
    rng.shuffle(order);
    let matched = &mut ws.matched;
    matched.clear();
    matched.resize(n, false);
    for &v in order.iter() {
        if matched[v as usize] {
            continue;
        }
        let vclass = if ncon > 1 { class_of[v as usize] } else { 0 };
        let mut best: Option<(bool, u32, u32)> = None; // (same class, weight, neighbor)
        for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
            if matched[u as usize] {
                continue;
            }
            let same = ncon == 1 || class_of[u as usize] == vclass;
            let cand = (same, w, u);
            let better = match best {
                None => true,
                Some((bs, bw, bu)) => (same, w) > (bs, bw) || (same == bs && w == bw && u < bu),
            };
            if better {
                best = Some(cand);
            }
        }
        if let Some((_, _, u)) = best {
            matched[v as usize] = true;
            matched[u as usize] = true;
            match_of[v as usize] = u;
            match_of[u as usize] = v;
        }
    }
}

/// Contracts `graph` along `match_of`, producing the coarse level.
///
/// Matched pairs merge into one coarse vertex whose weight vector is the
/// component-wise sum; parallel edges merge by summing weights; edges inside
/// a pair disappear.
pub fn contract(graph: &CsrGraph, match_of: &[u32]) -> CoarseLevel {
    let mut ws = PartitionWorkspace::new();
    contract_ws(graph, match_of, &mut ws)
}

/// Workspace-backed [`contract`]: coarse CSR arrays and the projection map
/// come from the workspace pools, scratch from its arenas.
pub(crate) fn contract_ws(
    graph: &CsrGraph,
    match_of: &[u32],
    ws: &mut PartitionWorkspace,
) -> CoarseLevel {
    let n = graph.nvtx();
    let ncon = graph.ncon();
    let mut fine_to_coarse = ws.take_u32(n);
    fine_to_coarse.resize(n, u32::MAX);
    let mut next = 0u32;
    for v in 0..n as u32 {
        if fine_to_coarse[v as usize] != u32::MAX {
            continue;
        }
        let m = match_of[v as usize];
        fine_to_coarse[v as usize] = next;
        if m != v {
            fine_to_coarse[m as usize] = next;
        }
        next += 1;
    }
    let nc = next as usize;

    // Every merged pair drops the edge joining it, in both directions (a
    // matching pairs neighbours), so the fine adjacency less those bounds
    // the coarse one.
    let adj_bound = graph.adjncy().len().saturating_sub(2 * (n - nc));
    let mut vwgt = ws.take_u32(nc * ncon);
    let mut xadj = ws.take_u32(nc + 1);
    let mut adjncy = ws.take_u32(adj_bound);
    let mut adjwgt = ws.take_u32(adj_bound);
    xadj.push(0u32);

    // Coarse adjacency: accumulate per coarse vertex with a dense scratch map
    // (coarse-neighbour -> slot), reset between vertices via a stamp array.
    let stamp = &mut ws.stamp;
    stamp.clear();
    stamp.resize(nc, u32::MAX);
    let slot = &mut ws.slot;
    slot.clear();
    slot.resize(nc, 0);
    let pairs = &mut ws.pairs;
    // Coarse ids were handed out in ascending order of each pair's lower
    // fine vertex, so visiting those in order builds the CSR rows in order;
    // a coarse vertex's members are `v` and (if matched) `match_of[v]`.
    for v in 0..n as u32 {
        let m = match_of[v as usize];
        if m < v {
            continue; // row already built from the lower partner
        }
        let cv = fine_to_coarse[v as usize];
        let members = [v, m];
        let members = &members[..1 + usize::from(m != v)];

        let vw = graph.vertex_weights(v);
        if m == v {
            vwgt.extend_from_slice(vw);
        } else {
            vwgt.extend(vw.iter().zip(graph.vertex_weights(m)).map(|(a, b)| a + b));
        }

        let start = adjncy.len();
        for &f in members {
            for (u, w) in graph.neighbors(f).zip(graph.edge_weights(f)) {
                let cu = fine_to_coarse[u as usize];
                if cu == cv {
                    continue; // internal edge disappears
                }
                let cu = cu as usize;
                if stamp[cu] == cv {
                    adjwgt[slot[cu] as usize] += w;
                } else {
                    stamp[cu] = cv;
                    slot[cu] = adjncy.len() as u32;
                    adjncy.push(cu as u32);
                    adjwgt.push(w);
                }
            }
        }
        sort_adjacency(&mut adjncy[start..], &mut adjwgt[start..], pairs);
        xadj.push(adjncy.len() as u32);
    }

    CoarseLevel {
        graph: CsrGraph::from_parts_unchecked(xadj, adjncy, adjwgt, vwgt, ncon),
        fine_to_coarse,
    }
}

/// Lists up to this long are insertion-sorted in place.
const INSERTION_SORT_MAX: usize = 24;

/// Sorts one coarse adjacency list (parallel `adj` / `wgt` slices) by
/// neighbour id. Ids within a list are unique, so every sort yields the same
/// list; short lists — nearly all of them on mesh graphs — are insertion-
/// sorted in place, longer ones go through the `pairs` scratch.
fn sort_adjacency(adj: &mut [u32], wgt: &mut [u32], pairs: &mut Vec<(u32, u32)>) {
    if adj.len() <= INSERTION_SORT_MAX {
        for i in 1..adj.len() {
            let (u, w) = (adj[i], wgt[i]);
            let mut j = i;
            while j > 0 && adj[j - 1] > u {
                adj[j] = adj[j - 1];
                wgt[j] = wgt[j - 1];
                j -= 1;
            }
            adj[j] = u;
            wgt[j] = w;
        }
        return;
    }
    pairs.clear();
    pairs.extend(adj.iter().copied().zip(wgt.iter().copied()));
    pairs.sort_unstable_by_key(|&(u, _)| u);
    for (i, &(u, w)) in pairs.iter().enumerate() {
        adj[i] = u;
        wgt[i] = w;
    }
}

/// The full coarsening hierarchy: `levels[0]` is one step coarser than the
/// input, `levels.last()` is the coarsest.
#[derive(Debug)]
pub struct Hierarchy {
    /// Successive coarse levels (possibly empty if the input was small).
    pub levels: Vec<CoarseLevel>,
}

impl Hierarchy {
    /// The coarsest graph, or `original` if no coarsening happened.
    pub fn coarsest<'a>(&'a self, original: &'a CsrGraph) -> &'a CsrGraph {
        self.levels.last().map_or(original, |l| &l.graph)
    }
}

/// A level is kept only if it has at most this fraction of its parent's
/// vertices; a worse matching ends the coarsening.
const MAX_SHRINK: f64 = 0.92;

/// The most levels [`coarsen_ws`] can keep from `n` vertices: each kept
/// level has at most [`MAX_SHRINK`] of its parent's vertices (rounded up
/// here, against float error) and at least one fewer, and a level is built
/// only above `target_nvtx` vertices.
fn max_levels(n: usize, target_nvtx: usize) -> usize {
    let (mut m, mut levels) = (n, 0);
    while m > target_nvtx {
        m = ((m as f64 * MAX_SHRINK).ceil() as usize).min(m - 1);
        levels += 1;
    }
    levels
}

/// Coarsens `graph` until it has at most `target_nvtx` vertices or matching
/// stops making progress (a level keeps more than [`MAX_SHRINK`] of its
/// parent's vertices). Each level's graph is built once (into pooled
/// buffers) and moved into the hierarchy — never cloned; the next level
/// reads it through `levels.last()`. Recycle the returned hierarchy with
/// the workspace when done to keep the buffers in circulation.
pub fn coarsen_ws(
    graph: &CsrGraph,
    target_nvtx: usize,
    seed: u64,
    ws: &mut PartitionWorkspace,
) -> Hierarchy {
    let mut rng = Rng::seed_from_u64(seed);
    let mut levels: Vec<CoarseLevel> = ws.take_levels(max_levels(graph.nvtx(), target_nvtx));
    loop {
        let (cur_nvtx, level) = {
            let current = levels.last().map_or(graph, |l| &l.graph);
            if current.nvtx() <= target_nvtx {
                break;
            }
            heavy_edge_matching_ws(current, &mut rng, ws);
            let match_of = std::mem::take(&mut ws.match_of);
            let level = contract_ws(current, &match_of, ws);
            ws.match_of = match_of;
            (current.nvtx(), level)
        };
        let shrink = level.graph.nvtx() as f64 / cur_nvtx as f64;
        if shrink > MAX_SHRINK {
            ws.give_level(level);
            break; // mostly unmatched: contracting further is useless
        }
        levels.push(level);
    }
    Hierarchy { levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_graph::builder::grid_graph;

    #[test]
    fn matching_is_valid() {
        let g = grid_graph(8, 8);
        let mut rng = Rng::seed_from_u64(7);
        let m = heavy_edge_matching(&g, &mut rng);
        for v in 0..g.nvtx() as u32 {
            let u = m[v as usize];
            assert_eq!(m[u as usize], v, "matching must be symmetric");
            if u != v {
                assert!(g.neighbors(v).any(|x| x == u), "matched along an edge");
            }
        }
        // A grid has a near-perfect matching; expect most vertices matched.
        let unmatched = (0..g.nvtx() as u32).filter(|&v| m[v as usize] == v).count();
        assert!(unmatched < g.nvtx() / 4, "{unmatched} unmatched");
    }

    #[test]
    fn contraction_conserves_weight() {
        let g = grid_graph(8, 8);
        let mut rng = Rng::seed_from_u64(3);
        let m = heavy_edge_matching(&g, &mut rng);
        let lvl = contract(&g, &m);
        assert!(lvl.graph.validate().is_ok());
        assert_eq!(lvl.graph.total_weights(), g.total_weights());
        assert!(lvl.graph.nvtx() < g.nvtx());
        // Every fine vertex maps to a valid coarse vertex.
        for &cv in &lvl.fine_to_coarse {
            assert!((cv as usize) < lvl.graph.nvtx());
        }
    }

    #[test]
    fn contraction_conserves_cut_structure() {
        // Edge weight across any coarse split equals the fine-edge weight sum:
        // check total edge weight only drops by internal (matched) edges.
        let g = grid_graph(6, 6);
        let mut rng = Rng::seed_from_u64(11);
        let m = heavy_edge_matching(&g, &mut rng);
        let internal: i64 = (0..g.nvtx() as u32)
            .filter(|&v| m[v as usize] > v)
            .map(|v| {
                let u = m[v as usize];
                g.neighbors(v)
                    .zip(g.edge_weights(v))
                    .filter(|&(x, _)| x == u)
                    .map(|(_, w)| i64::from(w))
                    .sum::<i64>()
            })
            .sum();
        let lvl = contract(&g, &m);
        assert_eq!(
            lvl.graph.total_edge_weight(),
            g.total_edge_weight() - internal
        );
    }

    #[test]
    fn multiconstraint_weights_add() {
        let g = grid_graph(4, 4);
        let mut vwgt = vec![0u32; 16 * 2];
        for v in 0..16 {
            vwgt[v * 2 + (v % 2)] = 2;
        }
        let g2 = g.with_vertex_weights(vwgt, 2);
        let mut rng = Rng::seed_from_u64(5);
        let m = heavy_edge_matching(&g2, &mut rng);
        let lvl = contract(&g2, &m);
        assert_eq!(lvl.graph.total_weights(), g2.total_weights());
        assert_eq!(lvl.graph.ncon(), 2);
    }

    /// Contraction oracle: the pre-rewrite structure (explicit member CSR,
    /// separate vertex-weight pass) with an ordered map per coarse row in
    /// place of the stamp/slot accumulator and the sort.
    fn contract_reference(graph: &CsrGraph, match_of: &[u32]) -> CoarseLevel {
        let n = graph.nvtx();
        let ncon = graph.ncon();
        let mut fine_to_coarse = vec![u32::MAX; n];
        let mut next = 0u32;
        for v in 0..n as u32 {
            if fine_to_coarse[v as usize] != u32::MAX {
                continue;
            }
            let m = match_of[v as usize];
            fine_to_coarse[v as usize] = next;
            if m != v {
                fine_to_coarse[m as usize] = next;
            }
            next += 1;
        }
        let nc = next as usize;
        let mut vwgt = vec![0u32; nc * ncon];
        for (v, &cv) in fine_to_coarse.iter().enumerate() {
            let fw = graph.vertex_weights(v as u32);
            for c in 0..ncon {
                vwgt[cv as usize * ncon + c] += fw[c];
            }
        }
        let mut members_off = vec![0usize; nc + 1];
        for v in 0..n {
            members_off[fine_to_coarse[v] as usize + 1] += 1;
        }
        for i in 0..nc {
            members_off[i + 1] += members_off[i];
        }
        let mut members = vec![0u32; n];
        let mut cursor = members_off.clone();
        for v in 0..n as u32 {
            let cv = fine_to_coarse[v as usize] as usize;
            members[cursor[cv]] = v;
            cursor[cv] += 1;
        }
        let (mut xadj, mut adjncy, mut adjwgt) = (vec![0u32], Vec::new(), Vec::new());
        for cv in 0..nc {
            let mut acc = std::collections::BTreeMap::<u32, u32>::new();
            for &v in &members[members_off[cv]..members_off[cv + 1]] {
                for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
                    let cu = fine_to_coarse[u as usize];
                    if cu as usize != cv {
                        *acc.entry(cu).or_insert(0) += w;
                    }
                }
            }
            adjncy.extend(acc.keys().copied());
            adjwgt.extend(acc.values().copied());
            xadj.push(adjncy.len() as u32);
        }
        CoarseLevel {
            graph: CsrGraph::from_parts_unchecked(xadj, adjncy, adjwgt, vwgt, ncon),
            fine_to_coarse,
        }
    }

    #[test]
    fn contraction_matches_reference_on_random_matchings() {
        let mut rng = Rng::seed_from_u64(0x00C0_A25E);
        let mut ws = PartitionWorkspace::new();
        let mut longest = 0usize;
        for round in 0..120 {
            let ncon = 1 + round % 3;
            let n = rng.gen_range(2..220usize);
            let mut b = tempart_graph::GraphBuilder::new(n, ncon);
            for v in 0..n as u32 {
                let w: Vec<u32> = (0..ncon).map(|_| rng.gen_range(0..5u32)).collect();
                b.set_vertex_weights(v, &w);
            }
            for v in 1..n as u32 {
                b.add_edge(v - 1, v, rng.gen_range(0..4u32));
                let u = rng.gen_range(0..n) as u32;
                if u != v && u + 1 != v {
                    b.add_edge(u, v, rng.gen_range(1..4u32));
                }
                // Hubs 0 and 1 see half the graph each, so their merged
                // coarse lists outgrow the insertion-sort threshold.
                if v > 2 && round % 2 == 0 {
                    b.add_edge(v % 2, v, 1);
                }
            }
            let g = b.build();
            // A random valid matching with unmatched vertices: heavy-edge
            // pairs, a random third of them dissolved again.
            let mut m = heavy_edge_matching(&g, &mut rng);
            for v in 0..n as u32 {
                let u = m[v as usize];
                if u > v && rng.gen_range(0..3usize) == 0 {
                    m[v as usize] = v;
                    m[u as usize] = u;
                }
            }
            let got = contract_ws(&g, &m, &mut ws);
            let want = contract_reference(&g, &m);
            assert_eq!(got.fine_to_coarse, want.fine_to_coarse, "round {round}");
            assert_eq!(got.graph, want.graph, "round {round}: n {n}");
            assert!(got.graph.validate().is_ok());
            longest = longest.max(
                (0..got.graph.nvtx() as u32)
                    .map(|v| got.graph.degree(v))
                    .max()
                    .unwrap_or(0),
            );
            ws.give_level(got);
        }
        assert!(longest > INSERTION_SORT_MAX, "longest list {longest}");
    }

    #[test]
    fn hierarchy_reaches_target() {
        let g = grid_graph(32, 32);
        let h = coarsen_ws(&g, 64, 42, &mut PartitionWorkspace::new());
        assert!(
            h.coarsest(&g).nvtx() <= 130,
            "coarsest {}",
            h.coarsest(&g).nvtx()
        );
        assert!(!h.levels.is_empty());
        // Monotone shrink.
        let mut prev = g.nvtx();
        for l in &h.levels {
            assert!(l.graph.nvtx() < prev);
            prev = l.graph.nvtx();
        }
    }

    #[test]
    fn coarsen_small_graph_is_noop_or_fast() {
        let g = grid_graph(4, 4);
        let h = coarsen_ws(&g, 100, 1, &mut PartitionWorkspace::new());
        assert!(h.levels.is_empty());
        assert_eq!(h.coarsest(&g).nvtx(), 16);
    }

    #[test]
    fn workspace_coarsen_matches_fresh() {
        // Same seed, shared vs fresh workspace: identical hierarchies.
        let g = grid_graph(24, 24);
        let mut ws = PartitionWorkspace::new();
        let a = coarsen_ws(&g, 64, 9, &mut ws);
        let b = coarsen_ws(&g, 64, 9, &mut ws); // warm reuse
        let c = coarsen_ws(&g, 64, 9, &mut PartitionWorkspace::new()); // fresh
        assert_eq!(a.levels.len(), b.levels.len());
        assert_eq!(a.levels.len(), c.levels.len());
        for ((la, lb), lc) in a.levels.iter().zip(&b.levels).zip(&c.levels) {
            assert_eq!(la.fine_to_coarse, lb.fine_to_coarse);
            assert_eq!(la.graph, lb.graph);
            assert_eq!(la.fine_to_coarse, lc.fine_to_coarse);
            assert_eq!(la.graph, lc.graph);
        }
    }
}
