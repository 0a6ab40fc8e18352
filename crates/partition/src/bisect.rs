//! Multilevel bisection and the recursive-bisection k-way driver.
//!
//! Everything below [`recursive_bisection_ws`] is workspace-backed: the
//! coarsening hierarchy, extracted subgraphs, side vectors and projection
//! buffers all cycle through the [`PartitionWorkspace`] pools, and the
//! recursion is ordered so each subgraph is recycled as soon as its subtree
//! finishes — the peak number of live subgraphs is O(tree depth), not O(k),
//! and a warm workspace partitions without touching the allocator.

use crate::coarsen::{coarsen_ws, Hierarchy};
use crate::initial::{initial_bisection_into, SideWeights};
use crate::refine::{fm_refine_ws, project_into, rebalance_ws};
use crate::{PartitionConfig, PartitionWorkspace};
use tempart_graph::{CsrGraph, PartId};
use tempart_testkit::rng::Rng;

/// One multilevel bisection: coarsen, split, uncoarsen with refinement
/// (allocating wrapper around [`multilevel_bisection_ws`]).
///
/// `frac0` is the share of every constraint's total weight that side 0
/// should receive. Returns the 0/1 side per vertex.
pub fn multilevel_bisection(
    graph: &CsrGraph,
    frac0: f64,
    config: &PartitionConfig,
    ub: f64,
    seed: u64,
) -> Vec<u8> {
    multilevel_bisection_ws(
        graph,
        frac0,
        config,
        ub,
        seed,
        &mut PartitionWorkspace::new(),
    )
}

/// Workspace-backed [`multilevel_bisection`]. The returned side vector comes
/// from the workspace's buffer pool; hand it back with `ws.give_u8` when
/// done to keep the buffer in circulation.
pub fn multilevel_bisection_ws(
    graph: &CsrGraph,
    frac0: f64,
    config: &PartitionConfig,
    ub: f64,
    seed: u64,
    ws: &mut PartitionWorkspace,
) -> Vec<u8> {
    let rec = ws.obs.clone();
    let _bspan = tempart_obs::span!(&rec, "part.bisect", track = 0, arg = graph.nvtx() as u64);
    let mut rng = Rng::seed_from_u64(seed);
    // Multi-constraint instances need a larger coarsest graph to have enough
    // mixing freedom.
    let target = config.coarsen_to * graph.ncon().max(1);
    let hierarchy: Hierarchy = {
        let _s = tempart_obs::span!(&rec, "part.coarsen", track = 0, arg = target as u64);
        coarsen_ws(graph, target, seed ^ 0x9E37_79B9_7F4A_7C15, ws)
    };
    rec.counter("part.coarsen.levels", 0, hierarchy.levels.len() as u64);
    let coarsest = hierarchy.coarsest(graph);
    rec.counter("part.coarsen.nvtx", 0, coarsest.nvtx() as u64);

    let mut side = ws.take_u8();
    ws.obs_level = hierarchy.levels.len() as u32;
    {
        let _s = tempart_obs::span!(
            &rec,
            "part.initial",
            track = 0,
            arg = config.initial_tries as u64
        );
        let _ = initial_bisection_into(
            coarsest,
            frac0,
            config.initial_tries,
            ub,
            &mut rng,
            ws,
            &mut side,
        );
        rebalance_ws(coarsest, &mut side, frac0, ub, ws);
        fm_refine_ws(coarsest, &mut side, frac0, ub, config.refine_passes, ws);
    }

    // Walk the hierarchy back up: the projection target of levels[i] is
    // levels[i-1].graph (or the original graph for i == 0). An explicit
    // rebalance pass precedes FM at every level: projection and coarse moves
    // can leave per-constraint violations that boundary-seeded FM cannot
    // reach (especially for one-hot multi-constraint instances).
    let mut fine = ws.take_u8();
    for i in (0..hierarchy.levels.len()).rev() {
        let fine_graph = if i == 0 {
            graph
        } else {
            &hierarchy.levels[i - 1].graph
        };
        let _s = tempart_obs::span!(
            &rec,
            "part.uncoarsen",
            track = i as u32,
            arg = fine_graph.nvtx() as u64
        );
        ws.obs_level = i as u32;
        project_into(&hierarchy.levels[i].fine_to_coarse, &side, &mut fine);
        std::mem::swap(&mut side, &mut fine);
        rebalance_ws(fine_graph, &mut side, frac0, ub, ws);
        fm_refine_ws(fine_graph, &mut side, frac0, ub, config.refine_passes, ws);
    }
    ws.give_u8(fine);
    ws.give_hierarchy(hierarchy);
    side
}

/// Extracts the induced subgraph of the vertices with `side[v] == which`
/// (allocating wrapper around [`extract_subgraph_ws`]).
///
/// Returns the subgraph and the mapping from sub-vertex index to original
/// vertex index.
pub fn extract_subgraph(graph: &CsrGraph, side: &[u8], which: u8) -> (CsrGraph, Vec<u32>) {
    extract_subgraph_ws(graph, side, which, &mut PartitionWorkspace::new())
}

/// Workspace-backed [`extract_subgraph`]: the subgraph's CSR arrays and the
/// index map come from the workspace pools (recycle them with
/// `ws.give_graph` / `ws.give_u32`), the original→sub map lives in the
/// `to_sub` arena.
pub fn extract_subgraph_ws(
    graph: &CsrGraph,
    side: &[u8],
    which: u8,
    ws: &mut PartitionWorkspace,
) -> (CsrGraph, Vec<u32>) {
    let n = graph.nvtx();
    let ncon = graph.ncon();
    let mut to_orig = ws.take_u32();
    let mut xadj = ws.take_u32();
    let mut adjncy = ws.take_u32();
    let mut adjwgt = ws.take_u32();
    let mut vwgt = ws.take_u32();
    let to_sub = &mut ws.to_sub;
    to_sub.clear();
    to_sub.resize(n, u32::MAX);
    for v in 0..n {
        if side[v] == which {
            to_sub[v] = to_orig.len() as u32;
            to_orig.push(v as u32);
        }
    }
    let ns = to_orig.len();
    xadj.reserve(ns + 1);
    xadj.push(0u32);
    vwgt.reserve(ns * ncon);
    for &ov in &to_orig {
        for (u, w) in graph.neighbors(ov).zip(graph.edge_weights(ov)) {
            if to_sub[u as usize] != u32::MAX {
                adjncy.push(to_sub[u as usize]);
                adjwgt.push(w);
            }
        }
        xadj.push(adjncy.len() as u32);
        vwgt.extend_from_slice(graph.vertex_weights(ov));
    }
    (
        CsrGraph::from_parts_unchecked(xadj, adjncy, adjwgt, vwgt, ncon),
        to_orig,
    )
}

/// Recursive bisection into `config.nparts` parts.
pub fn recursive_bisection_ws(
    graph: &CsrGraph,
    config: &PartitionConfig,
    ws: &mut PartitionWorkspace,
) -> Vec<PartId> {
    let mut part = vec![0 as PartId; graph.nvtx()];
    // Balance errors compound multiplicatively down the bisection tree, so
    // each bisection gets the per-level share of the global tolerance:
    // ub_bisect^levels == ub.
    let ub = config.ubvec.iter().copied().fold(1.0f64, f64::max);
    let levels = (config.nparts as f64).log2().ceil().max(1.0);
    let ub_bisect = ub.powf(1.0 / levels).max(1.001);
    // Uniform targets are only materialised when the config carries none;
    // explicit targets are borrowed, never cloned.
    let uniform;
    let fracs: &[f64] = match &config.target_fracs {
        Some(t) => t,
        None => {
            uniform = vec![1.0 / config.nparts as f64; config.nparts];
            &uniform
        }
    };
    split_recursive(
        graph,
        config,
        fracs,
        0,
        ub_bisect,
        config.seed,
        ws,
        &mut |v, p| {
            part[v as usize] = p;
        },
    );
    part
}

/// Recursively splits `graph` into `k` parts, assigning part ids starting at
/// `base` through the `assign(original_vertex, part)` callback.
///
/// `graph` vertices are identified via an implicit identity map at the top
/// call; recursion passes explicit maps through closures. The recursion is
/// depth-first with eager reclamation: the left subgraph is extracted,
/// recursed into and recycled into the workspace pools *before* the right
/// subgraph is built, so sibling subtrees reuse each other's buffers.
///
/// `pub(crate)` so the parallel driver ([`crate::par`]) can run sequential
/// subtrees below its fan-out cutoff through *exactly* this code — the
/// bit-identity of parallel and sequential partitions rests on both paths
/// sharing every per-node decision.
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_recursive(
    graph: &CsrGraph,
    config: &PartitionConfig,
    fracs: &[f64],
    base: PartId,
    ub_bisect: f64,
    seed: u64,
    ws: &mut PartitionWorkspace,
    assign: &mut dyn FnMut(u32, PartId),
) {
    let k = fracs.len();
    if k <= 1 {
        for v in 0..graph.nvtx() as u32 {
            assign(v, base);
        }
        return;
    }
    // Left child takes the first floor(k/2) leaves; side 0's share of this
    // subgraph's weight is the leaves' combined target fraction.
    let kl = k / 2;
    let total: f64 = fracs.iter().sum();
    let left: f64 = fracs[..kl].iter().sum();
    let frac0 = left / total;
    let side = if graph.nvtx() <= k {
        // Degenerate: fewer vertices than parts; round-robin split.
        let mut s = ws.take_u8();
        s.extend((0..graph.nvtx()).map(|v| u8::from(v % k >= kl)));
        s
    } else {
        multilevel_bisection_ws(graph, frac0, config, ub_bisect, seed, ws)
    };
    let s0 = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let s1 = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(2);
    let (g0, map0) = extract_subgraph_ws(graph, &side, 0, ws);
    split_recursive(
        &g0,
        config,
        &fracs[..kl],
        base,
        ub_bisect,
        s0,
        ws,
        &mut |v, p| assign(map0[v as usize], p),
    );
    ws.give_graph(g0);
    ws.give_u32(map0);
    let (g1, map1) = extract_subgraph_ws(graph, &side, 1, ws);
    ws.give_u8(side);
    split_recursive(
        &g1,
        config,
        &fracs[kl..],
        base + kl as PartId,
        ub_bisect,
        s1,
        ws,
        &mut |v, p| assign(map1[v as usize], p),
    );
    ws.give_graph(g1);
    ws.give_u32(map1);
}

/// Reports the worst normalised side load of a bisection (test helper).
pub fn bisection_norm(graph: &CsrGraph, side: &[u8], frac0: f64) -> f64 {
    SideWeights::measure(graph, side, frac0).max_norm()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_graph::builder::grid_graph;
    use tempart_graph::edge_cut;

    #[test]
    fn multilevel_bisection_of_large_grid() {
        let g = grid_graph(40, 40);
        let cfg = PartitionConfig::new(2);
        let side = multilevel_bisection(&g, 0.5, &cfg, 1.05, 1);
        let norm = bisection_norm(&g, &side, 0.5);
        assert!(norm <= 1.06, "norm {norm}");
        let part: Vec<u32> = side.iter().map(|&s| u32::from(s)).collect();
        // Ideal cut 40; multilevel should stay well under 2x.
        assert!(edge_cut(&g, &part) <= 80, "cut {}", edge_cut(&g, &part));
    }

    #[test]
    fn extract_preserves_structure() {
        let g = grid_graph(4, 4);
        let side: Vec<u8> = (0..16).map(|v| u8::from(v % 4 >= 2)).collect();
        let (sub, map) = extract_subgraph(&g, &side, 0);
        assert_eq!(sub.nvtx(), 8);
        assert!(sub.validate().is_ok());
        // Left 2x4 block has 10 internal edges.
        assert_eq!(sub.nedges(), 10);
        for (sv, &ov) in map.iter().enumerate() {
            assert_eq!(side[ov as usize], 0, "mapped vertex on wrong side");
            assert_eq!(sub.vertex_weights(sv as u32), g.vertex_weights(ov));
        }
    }

    #[test]
    fn extract_with_warm_workspace_matches_fresh() {
        let g = grid_graph(9, 7);
        let side: Vec<u8> = (0..63).map(|v| u8::from(v % 3 == 0)).collect();
        let mut ws = PartitionWorkspace::new();
        // Warm the pools with an unrelated extraction first.
        let (w0, wm0) = extract_subgraph_ws(&g, &side, 0, &mut ws);
        ws.give_graph(w0);
        ws.give_u32(wm0);
        let (a, am) = extract_subgraph_ws(&g, &side, 1, &mut ws);
        let (b, bm) = extract_subgraph(&g, &side, 1);
        assert_eq!(a, b);
        assert_eq!(am, bm);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn recursive_bisection_nonpow2() {
        let g = grid_graph(15, 15);
        let cfg = PartitionConfig::new(5);
        let part = recursive_bisection_ws(&g, &cfg, &mut PartitionWorkspace::new());
        let mut counts = vec![0usize; 5];
        for &p in &part {
            counts[p as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        let imb = tempart_graph::max_imbalance(&g, &part, 5);
        assert!(imb <= 1.35, "imbalance {imb}");
    }

    #[test]
    fn degenerate_more_parts_than_vertices() {
        let g = grid_graph(2, 2);
        let cfg = PartitionConfig::new(4);
        let part = recursive_bisection_ws(&g, &cfg, &mut PartitionWorkspace::new());
        let mut seen: Vec<_> = part.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
