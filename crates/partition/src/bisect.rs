//! Multilevel bisection and the recursive-bisection k-way driver.
//!
//! Everything here is workspace-backed: the coarsening hierarchy, extracted
//! subgraphs, side vectors and projection buffers all cycle through the
//! [`PartitionWorkspace`] pools, and the recursion is ordered so each
//! subgraph is recycled as soon as its subtree finishes — the peak number of
//! live subgraphs is O(tree depth), not O(k), and a warm workspace
//! partitions without touching the allocator.
//!
//! # One tree walk for every width
//!
//! Recursive bisection is a binary tree whose shape is a pure function of
//! `(graph, config)`, and one walk (`split`) runs it at every fork-join
//! width. Each node bisects its graph, runs its left subtree inline, and
//! then either spawns its right subtree as a fork-join job or runs it
//! inline. A node's subproblem — its map back to root vertex ids, its part
//! range and target fractions, its seed (derived from the parent's by one
//! splitmix step) — is fixed before any child runs, a [`PartitionWorkspace`]
//! carries capacity and no state, and every leaf writes its part id into
//! disjoint `AtomicU32` slots of one output vector (each root vertex belongs
//! to exactly one leaf). The partition is therefore the same at every
//! worker count and steal order; only the schedule changes.

use crate::coarsen::{coarsen_ws, Hierarchy};
use crate::initial::{initial_bisection_into, SideWeights};
use crate::refine::{fm_refine_ws, project_into, rebalance_ws};
use crate::{PartitionConfig, PartitionWorkspace, WorkspacePool};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use tempart_graph::{CsrGraph, PartId};
use tempart_obs::{Clock, Recorder};
use tempart_runtime::{fork_join, ForkCtx};
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

/// Subgraphs above this many vertices (with more than two leaves) hand
/// their right subtree to the fork-join deques when the walk runs wide;
/// smaller ones run their whole subtree inline. A cutoff on the problem, not
/// the schedule: it decides where the fan-out stops, never the result.
const FORK_CUTOFF: usize = 512;

/// What every node of one recursive bisection shares.
struct Tree<'a> {
    config: &'a PartitionConfig,
    /// Per-part target fractions; a node owns the slice `lo..hi`.
    fracs: &'a [f64],
    /// Per-bisection tolerance: balance errors compound multiplicatively
    /// down the tree, so `ub_bisect^levels == ub`.
    ub_bisect: f64,
    /// One disjoint output slot per root vertex. Relaxed stores suffice:
    /// each slot has one writer, and the fork-join scope's join orders
    /// every store before the final read.
    part: &'a [AtomicU32],
    /// A wide walk's workspace pool and the recorder of its `part.par.*`
    /// events; `None` at one worker.
    fork: Option<(&'a WorkspacePool, &'a Recorder)>,
    /// Nodes run under a fork context (the `part.par.nodes` counter).
    nodes: AtomicU64,
}

impl Tree<'_> {
    /// Start time of a node event, or 0 when no event will be emitted.
    fn now(&self) -> u64 {
        match self.fork {
            Some((_, rec)) if rec.enabled() => rec.now_ns(),
            _ => 0,
        }
    }

    /// One self-contained `part.par.node` / `part.par.leaf` event, parented
    /// by heap index.
    fn emit(&self, name: &'static str, ctx: &ForkCtx<'_, '_>, t0: u64, id: u64) {
        if let Some((_, rec)) = self.fork.filter(|(_, rec)| rec.enabled()) {
            let dur = rec.now_ns().saturating_sub(t0);
            let track = ctx.worker_index() as u32;
            rec.complete_at(Clock::Wall, name, track, t0, dur, id, id / 2);
        }
    }
}

/// A node's graph: the root borrows the caller's graph with an implicit
/// identity map; every other node owns its extracted subgraph plus the map
/// back to *root* vertex ids.
enum NodeGraph<'g> {
    Root(&'g CsrGraph),
    Sub { graph: CsrGraph, to_orig: Vec<u32> },
}

impl<'g> NodeGraph<'g> {
    fn graph(&self) -> &CsrGraph {
        match self {
            NodeGraph::Root(g) => g,
            NodeGraph::Sub { graph, .. } => graph,
        }
    }

    /// Maps a node-local vertex id to the root graph's vertex id.
    fn orig(&self, v: u32) -> u32 {
        match self {
            NodeGraph::Root(_) => v,
            NodeGraph::Sub { to_orig, .. } => to_orig[v as usize],
        }
    }

    /// A child subgraph extracted from this one, its map composed with this
    /// node's so the child addresses root vertices directly.
    fn child(&self, (graph, mut to_orig): (CsrGraph, Vec<u32>)) -> NodeGraph<'g> {
        if let NodeGraph::Sub { to_orig: own, .. } = self {
            for m in &mut to_orig {
                *m = own[*m as usize];
            }
        }
        NodeGraph::Sub { graph, to_orig }
    }

    /// Recycles an owned subgraph and its map into `ws`'s buffer pools
    /// (no-op for the borrowed root).
    fn recycle(self, ws: &mut PartitionWorkspace) {
        if let NodeGraph::Sub { graph, to_orig } = self {
            ws.give_graph(graph);
            ws.give_u32(to_orig);
        }
    }
}

/// One tree node: its graph, its leaves `lo..hi` (part ids start at `lo`),
/// its seed and its heap id (root 1, children `2i` / `2i + 1`).
struct Node<'g> {
    graph: NodeGraph<'g>,
    lo: usize,
    hi: usize,
    seed: u64,
    id: u64,
}

/// Recursive bisection into `config.nparts` parts: the one tree walk behind
/// both bisecting schemes, at every width.
///
/// `fork = None` runs every node on `ws`. `fork = Some((n_workers, pool))`
/// runs the walk as a fork-join job tree whose branches lease workspaces
/// from `pool`; `ws` is lent to the pool for the duration, so a warm pool
/// of `n_workers` workspaces serves the whole tree, and `ws.obs` receives
/// the `part.par.*` events instead of the per-phase spans (begin/end
/// nesting does not cross threads).
pub(crate) fn recursive_bisection(
    graph: &CsrGraph,
    config: &PartitionConfig,
    ws: &mut PartitionWorkspace,
    fork: Option<(usize, &WorkspacePool)>,
) -> Vec<PartId> {
    let ub = config.ubvec.iter().copied().fold(1.0f64, f64::max);
    let levels = (config.nparts as f64).log2().ceil().max(1.0);
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
    let part: Vec<AtomicU32> = (0..graph.nvtx()).map(|_| AtomicU32::new(0)).collect();
    let rec = ws.obs.clone();
    let tree = Tree {
        config,
        fracs,
        ub_bisect: ub.powf(1.0 / levels).max(1.001),
        part: &part,
        fork: fork.map(|(_, pool)| (pool, &rec)),
        nodes: AtomicU64::new(0),
    };
    let root = Node {
        graph: NodeGraph::Root(graph),
        lo: 0,
        hi: fracs.len(),
        seed: config.seed,
        id: 1,
    };
    match fork {
        None => split(&tree, root, ws, None),
        Some((n_workers, pool)) => {
            pool.give_back(0, std::mem::take(ws));
            let tree = &tree;
            fork_join(n_workers, move |ctx| {
                lease(pool, ctx, |ws| split(tree, root, ws, Some(ctx)))
            });
            *ws = pool.checkout(0);
            ws.obs = rec.clone();
            rec.counter("part.par.workers", 0, n_workers as u64);
            rec.counter("part.par.nodes", 0, tree.nodes.load(Ordering::Relaxed));
        }
    }
    part.into_iter().map(AtomicU32::into_inner).collect()
}

/// Runs `job` on a workspace leased from `pool` for the current worker.
fn lease(pool: &WorkspacePool, ctx: &ForkCtx<'_, '_>, job: impl FnOnce(&mut PartitionWorkspace)) {
    let mut ws = pool.checkout(ctx.worker_index());
    job(&mut ws);
    pool.give_back(ctx.worker_index(), ws);
}

/// One node of the walk: bisect, run the left subtree inline, then spawn
/// the right subtree (under a fork context, above [`FORK_CUTOFF`] vertices
/// and two leaves) or run it inline after the left one and recycle this
/// node's graph after both — the order a one-worker walk needs to reuse
/// sibling buffers depth-first. Every decision that shapes the result is
/// made here once, whatever the width.
///
/// Under a fork context each node counts itself and emits one event: a
/// forking node `part.par.node` for its own bisection, a node that runs its
/// subtree inline `part.par.leaf` for the whole subtree (its descendants run
/// without a context and emit nothing).
fn split<'t>(
    tree: &'t Tree<'t>,
    node: Node<'t>,
    ws: &mut PartitionWorkspace,
    ctx: Option<&ForkCtx<'_, 't>>,
) {
    if ctx.is_some() {
        tree.nodes.fetch_add(1, Ordering::Relaxed);
    }
    let t0 = ctx.map_or(0, |_| tree.now());
    let Node {
        graph,
        lo,
        hi,
        seed,
        id,
    } = node;
    let g = graph.graph();
    let (n, k) = (g.nvtx(), hi - lo);
    if k <= 1 {
        for v in 0..n as u32 {
            tree.part[graph.orig(v) as usize].store(lo as PartId, Ordering::Relaxed);
        }
    } else {
        // Left child takes the first floor(k/2) leaves; side 0's share of
        // this subgraph's weight is the leaves' combined target fraction.
        let kl = k / 2;
        let fracs = &tree.fracs[lo..hi];
        let frac0 = fracs[..kl].iter().sum::<f64>() / fracs.iter().sum::<f64>();
        let side = if n <= k {
            // Degenerate: fewer vertices than parts; round-robin split.
            let mut s = ws.take_u8();
            s.extend((0..n).map(|v| u8::from(v % k >= kl)));
            s
        } else {
            multilevel_bisection_ws(g, frac0, tree.config, tree.ub_bisect, seed, ws)
        };
        let s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let left = Node {
            graph: graph.child(extract_subgraph_ws(g, &side, 0, ws)),
            lo,
            hi: lo + kl,
            seed: s.wrapping_add(1),
            id: 2 * id,
        };
        let right = |side: Vec<u8>, ws: &mut PartitionWorkspace| {
            let sub = extract_subgraph_ws(g, &side, 1, ws);
            ws.give_u8(side);
            Node {
                graph: graph.child(sub),
                lo: lo + kl,
                hi,
                seed: s.wrapping_add(2),
                id: 2 * id + 1,
            }
        };
        let wide = ctx.filter(|_| k > 2 && n > FORK_CUTOFF).zip(tree.fork);
        if let Some((ctx, (pool, _))) = wide {
            let right = right(side, ws);
            graph.recycle(ws);
            tree.emit("part.par.node", ctx, t0, id);
            // Right subtree to the deque (a thief takes the largest
            // untouched subtree); left inline, depth-first and cache-hot.
            ctx.spawn(move |c| lease(pool, c, |ws| split(tree, right, ws, Some(c))));
            split(tree, left, ws, Some(ctx));
            return;
        }
        split(tree, left, ws, None);
        let right = right(side, ws);
        split(tree, right, ws, None);
    }
    graph.recycle(ws);
    if let Some(ctx) = ctx {
        tree.emit("part.par.leaf", ctx, t0, id);
    }
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
        let part = recursive_bisection(&g, &cfg, &mut PartitionWorkspace::new(), None);
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
        let part = recursive_bisection(&g, &cfg, &mut PartitionWorkspace::new(), None);
        let mut seen: Vec<_> = part.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
