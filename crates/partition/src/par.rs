//! Deterministic parallel recursive bisection on the in-tree fork-join
//! runtime.
//!
//! After one multilevel bisection splits a (sub)graph, the left and right
//! subproblems share **nothing**: each is a pure function of its own
//! `(subgraph, target-fraction slice, seed)` triple — the seeds are derived
//! from the parent's seed by the same splitmix step the sequential recursion
//! uses, and a [`PartitionWorkspace`] carries *capacity, not state*, so which
//! pooled workspace a branch happens to grab cannot change its result. The
//! driver therefore submits the right subtree to the work-stealing deques
//! ([`tempart_runtime::fork_join`]) and recurses into the left inline; every
//! leaf writes its part ids into **disjoint slots** of one shared
//! `[AtomicU32]` output (each original vertex belongs to exactly one leaf),
//! and the merged partition is the fixed tree-order reduction of the leaf
//! results — bit-identical to [`crate::partition_graph_with`] at every worker
//! count and steal order. `tests/parallel_partition.rs` and the `ci.sh`
//! worker-matrix stage enforce exactly that cross-check.
//!
//! # Workspace pool
//!
//! [`WorkspacePool`] is a striped free-list of [`PartitionWorkspace`]s:
//! checkout *moves* a workspace out from under a stripe mutex (two branches
//! can never alias one arena), and branches return workspaces to their
//! worker's stripe so a warm pool keeps per-worker cache locality. Warm or
//! fresh, pooled or not — the partition is the same; only allocation traffic
//! changes (`crates/partition/tests/workspace_reuse.rs` pins this).
//!
//! # Observability
//!
//! Parallel branches keep their workspace recorders **off** (begin/end span
//! nesting is only meaningful within one thread); instead the driver emits
//! one self-contained `part.par.node` [`Kind::Complete`] event per tree node
//! with `a` = the node's heap index (root = 1, children = `2i`/`2i+1`) and
//! `b` = the parent's index — cross-thread span *parenting by id*, safe under
//! any interleaving. `part.par.nodes` / `part.par.workers` counters summarise
//! the fan-out.
//!
//! [`Kind::Complete`]: tempart_obs::Kind::Complete

use crate::bisect::{extract_subgraph_ws, multilevel_bisection_ws, split_recursive};
use crate::{PartitionConfig, PartitionWorkspace, Scheme};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use tempart_graph::{CsrGraph, PartId};
use tempart_obs::{Clock, Recorder};
use tempart_runtime::{fork_join, ForkCtx};

/// A striped pool of [`PartitionWorkspace`]s for concurrent branches.
///
/// Each stripe is an independent mutex-guarded free-list; callers pass a
/// stripe hint (their fork-join worker index) so that under steady state a
/// worker keeps re-borrowing the workspaces it warmed. Checkout **moves**
/// the workspace out of the pool — the same arena can never back two live
/// branches — and an empty pool simply grows: checkout falls back to
/// scanning the other stripes and finally to a fresh workspace.
///
/// Pooled workspaces always carry the disabled recorder: [`Self::checkout`]
/// and [`Self::give_back`] both reset `obs`, so an enabled recorder
/// installed for a sequential traced call can never leak into (or out of) a
/// parallel branch.
#[derive(Debug)]
pub struct WorkspacePool {
    stripes: Vec<Mutex<Vec<PartitionWorkspace>>>,
}

impl WorkspacePool {
    /// A pool with `n_stripes` independent free-lists (at least one). The
    /// natural choice is the fork-join worker count.
    pub fn new(n_stripes: usize) -> Self {
        Self {
            stripes: (0..n_stripes.max(1))
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Moves a workspace out of the pool (preferring the hinted stripe,
    /// then scanning the others), or creates a fresh one when every stripe
    /// is empty. The returned workspace carries the disabled recorder.
    pub fn checkout(&self, stripe_hint: usize) -> PartitionWorkspace {
        let n = self.stripes.len();
        let start = stripe_hint % n;
        for i in 0..n {
            let mut stripe = self.stripes[(start + i) % n]
                .lock()
                .expect("workspace pool stripe poisoned");
            if let Some(mut ws) = stripe.pop() {
                ws.obs = Recorder::default();
                ws.obs_level = 0;
                return ws;
            }
        }
        PartitionWorkspace::new()
    }

    /// Returns a workspace to the hinted stripe for reuse. The recorder is
    /// reset to disabled so pooled workspaces never pin a live recorder.
    pub fn give_back(&self, stripe_hint: usize, mut ws: PartitionWorkspace) {
        ws.obs = Recorder::default();
        ws.obs_level = 0;
        self.stripes[stripe_hint % self.stripes.len()]
            .lock()
            .expect("workspace pool stripe poisoned")
            .push(ws);
    }

    /// Total workspaces currently pooled across all stripes (diagnostics;
    /// racy by nature under concurrent checkouts).
    pub fn pooled(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("workspace pool stripe poisoned").len())
            .sum()
    }
}

/// Shared, read-only state of one parallel partitioning call.
struct ParShared<'a> {
    config: &'a PartitionConfig,
    /// Full per-part target fractions; nodes index by `(lo, hi)` range.
    fracs: &'a [f64],
    /// Per-bisection balance tolerance (same derivation as the sequential
    /// driver: `ub^(1/levels)`).
    ub_bisect: f64,
    /// One disjoint output slot per original vertex.
    part: &'a [AtomicU32],
    pool: &'a WorkspacePool,
    rec: &'a Recorder,
    /// Tree nodes processed (parallel fan-out nodes + sequential subtrees).
    nodes: AtomicU64,
}

/// A tree node's view of its graph: the root borrows the caller's graph
/// with an implicit identity map; interior nodes own their extracted
/// subgraph plus the composed map back to *root* vertex ids.
enum NodeGraph<'e> {
    Root(&'e CsrGraph),
    Sub { graph: CsrGraph, to_orig: Vec<u32> },
}

impl NodeGraph<'_> {
    fn graph(&self) -> &CsrGraph {
        match self {
            NodeGraph::Root(g) => g,
            NodeGraph::Sub { graph, .. } => graph,
        }
    }

    /// Maps a node-local vertex id to the root graph's vertex id.
    #[inline]
    fn orig(&self, v: u32) -> u32 {
        match self {
            NodeGraph::Root(_) => v,
            NodeGraph::Sub { to_orig, .. } => to_orig[v as usize],
        }
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

/// One tree node: bisect, extract children, spawn right / recurse left.
/// Every arithmetic decision matches [`split_recursive`] exactly; only the
/// execution order of *independent* subtrees differs.
#[allow(clippy::too_many_arguments)]
fn node_par<'e>(
    ctx: &ForkCtx<'_, 'e>,
    sh: &'e ParShared<'e>,
    ng: NodeGraph<'e>,
    lo: usize,
    hi: usize,
    base: PartId,
    seed: u64,
    node_id: u64,
    parent_id: u64,
) {
    sh.nodes.fetch_add(1, Ordering::Relaxed);
    let trace = sh.rec.enabled();
    let t0 = if trace { sh.rec.now_ns() } else { 0 };
    let k = hi - lo;
    let g = ng.graph();
    let n = g.nvtx();

    // Subgraphs at or below `par_seq_cutoff` vertices (or with ≤ 2 leaves)
    // run their whole subtree sequentially through `split_recursive` instead
    // of spawning further jobs. The cutoff is part of the determinism story
    // only in that it must not depend on worker count — it never affects
    // results, only where the fan-out stops.
    if k <= 2 || n <= sh.config.par_seq_cutoff {
        // Sequential subtree: the exact code the sequential driver runs,
        // writing through the node's root-vertex map into the shared slots.
        let mut ws = sh.pool.checkout(ctx.worker_index());
        split_recursive(
            g,
            sh.config,
            &sh.fracs[lo..hi],
            base,
            sh.ub_bisect,
            seed,
            &mut ws,
            &mut |v, p| {
                sh.part[ng.orig(v) as usize].store(p, Ordering::Relaxed);
            },
        );
        ng.recycle(&mut ws);
        sh.pool.give_back(ctx.worker_index(), ws);
        if trace {
            let dur = sh.rec.now_ns().saturating_sub(t0);
            sh.rec.complete_at(
                Clock::Wall,
                "part.par.leaf",
                ctx.worker_index() as u32,
                t0,
                dur,
                node_id,
                parent_id,
            );
        }
        return;
    }

    // Interior node: same split arithmetic as `split_recursive`.
    let kl = k / 2;
    let fr = &sh.fracs[lo..hi];
    let total: f64 = fr.iter().sum();
    let left: f64 = fr[..kl].iter().sum();
    let frac0 = left / total;
    let mut ws = sh.pool.checkout(ctx.worker_index());
    let side = if n <= k {
        // Degenerate: fewer vertices than parts; round-robin split.
        let mut s = ws.take_u8();
        s.extend((0..n).map(|v| u8::from(v % k >= kl)));
        s
    } else {
        multilevel_bisection_ws(g, frac0, sh.config, sh.ub_bisect, seed, &mut ws)
    };
    let s0 = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let s1 = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(2);
    let (g0, mut map0) = extract_subgraph_ws(g, &side, 0, &mut ws);
    let (g1, mut map1) = extract_subgraph_ws(g, &side, 1, &mut ws);
    ws.give_u8(side);
    // Compose the child maps with this node's own map so children address
    // root vertices directly — composition is eager, so a child is fully
    // self-contained the moment it is spawned.
    if let NodeGraph::Sub { to_orig, .. } = &ng {
        for m in map0.iter_mut() {
            *m = to_orig[*m as usize];
        }
        for m in map1.iter_mut() {
            *m = to_orig[*m as usize];
        }
    }
    // This node's graph is dead: recycle it into the workspace going back
    // to the pool so the arrays feed the next checkout on this stripe.
    ng.recycle(&mut ws);
    sh.pool.give_back(ctx.worker_index(), ws);
    if trace {
        let dur = sh.rec.now_ns().saturating_sub(t0);
        sh.rec.complete_at(
            Clock::Wall,
            "part.par.node",
            ctx.worker_index() as u32,
            t0,
            dur,
            node_id,
            parent_id,
        );
    }

    // Right subtree goes to the deque (FIFO steal target: a thief takes the
    // largest untouched subtree); left subtree continues inline, keeping
    // this worker depth-first and cache-hot.
    ctx.spawn(move |c| {
        node_par(
            c,
            sh,
            NodeGraph::Sub {
                graph: g1,
                to_orig: map1,
            },
            lo + kl,
            hi,
            base + kl as PartId,
            s1,
            2 * node_id + 1,
            node_id,
        );
    });
    node_par(
        ctx,
        sh,
        NodeGraph::Sub {
            graph: g0,
            to_orig: map0,
        },
        lo,
        lo + kl,
        base,
        s0,
        2 * node_id,
        node_id,
    );
}

/// Parallel recursive bisection: identical inputs per tree node as the
/// sequential [`crate::bisect::recursive_bisection_ws`], executed as a
/// fork-join job tree.
fn recursive_bisection_par(
    graph: &CsrGraph,
    config: &PartitionConfig,
    n_workers: usize,
    pool: &WorkspacePool,
    rec: &Recorder,
) -> Vec<PartId> {
    // Same tolerance/targets derivation as the sequential driver.
    let ub = config.ubvec.iter().copied().fold(1.0f64, f64::max);
    let levels = (config.nparts as f64).log2().ceil().max(1.0);
    let ub_bisect = ub.powf(1.0 / levels).max(1.001);
    let uniform;
    let fracs: &[f64] = match &config.target_fracs {
        Some(t) => t,
        None => {
            uniform = vec![1.0 / config.nparts as f64; config.nparts];
            &uniform
        }
    };
    let part: Vec<AtomicU32> = (0..graph.nvtx()).map(|_| AtomicU32::new(0)).collect();
    let shared = ParShared {
        config,
        fracs,
        ub_bisect,
        part: &part,
        pool,
        rec,
        nodes: AtomicU64::new(0),
    };
    {
        let sh = &shared;
        fork_join(n_workers, move |ctx| {
            node_par(
                ctx,
                sh,
                NodeGraph::Root(graph),
                0,
                sh.fracs.len(),
                0,
                sh.config.seed,
                1,
                0,
            );
        });
    }
    rec.counter("part.par.workers", 0, n_workers as u64);
    rec.counter("part.par.nodes", 0, shared.nodes.load(Ordering::Relaxed));
    part.into_iter().map(AtomicU32::into_inner).collect()
}

/// Parallel [`crate::partition_graph_with`]: same result, `n_workers`-wide
/// execution (allocating wrapper without tracing; see
/// [`partition_graph_par_traced`]).
///
/// # Panics
///
/// Panics on invalid configuration (see [`PartitionConfig`]) or
/// `n_workers == 0`.
pub fn partition_graph_par(
    graph: &CsrGraph,
    config: &PartitionConfig,
    n_workers: usize,
    pool: &WorkspacePool,
) -> Vec<PartId> {
    partition_graph_par_traced(graph, config, n_workers, pool, Recorder::off())
}

/// Parallel, traced [`crate::partition_graph_with`].
///
/// The result is **bit-identical** to the sequential entry point for the
/// same `(graph, config)` at every `n_workers` — enforced by
/// `tests/parallel_partition.rs` and the `ci.sh` worker matrix. With
/// `n_workers == 1` the sequential code runs directly (on a pooled
/// workspace, with `rec` installed for the full phase-level span tree); with
/// more workers the bisection tree fans out as fork-join jobs and `rec`
/// receives the self-contained `part.par.*` events described in the module
/// docs. [`Scheme::KWayRefined`] follows the parallel bisection with the
/// pairwise k-way refinement on its one pinned schedule
/// ([`crate::par_kway::pairwise_kway_refine_ws`], `part.kway` span and
/// counters); [`Scheme::MultilevelKWay`] has no bisection tree to fan out
/// and runs as at one worker.
///
/// # Panics
///
/// Panics on invalid configuration (see [`PartitionConfig`]) or
/// `n_workers == 0`.
pub fn partition_graph_par_traced(
    graph: &CsrGraph,
    config: &PartitionConfig,
    n_workers: usize,
    pool: &WorkspacePool,
    rec: &Recorder,
) -> Vec<PartId> {
    assert!(n_workers >= 1, "need at least one worker");
    config.validate(graph);
    if config.nparts == 1 || graph.nvtx() <= 1 {
        return vec![0; graph.nvtx()];
    }
    if n_workers == 1 || config.scheme == Scheme::MultilevelKWay {
        // Sequential path on a pooled workspace: identical to
        // `partition_graph_with`, with the caller's recorder installed so
        // the phase-level span tree (single-threaded B/E nesting) appears.
        let mut ws = pool.checkout(0);
        ws.obs = rec.clone();
        let out = crate::partition_graph_with(graph, config, &mut ws);
        pool.give_back(0, ws);
        return out;
    }
    let _span = tempart_obs::span!(rec, "part.par", track = 0, arg = n_workers as u64);
    rec.counter("part.nvtx", 0, graph.nvtx() as u64);
    let mut part = recursive_bisection_par(graph, config, n_workers, pool, rec);
    if config.scheme == Scheme::KWayRefined {
        let mut ws = pool.checkout(0);
        ws.obs = rec.clone();
        crate::par_kway::pairwise_kway_refine_ws(graph, &mut part, config, &mut ws);
        pool.give_back(0, ws);
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_graph_with;
    use tempart_graph::builder::grid_graph;

    fn check_all_widths(graph: &CsrGraph, config: &PartitionConfig) {
        let seq = partition_graph_with(graph, config, &mut PartitionWorkspace::new());
        for workers in [1usize, 2, 4] {
            let pool = WorkspacePool::new(workers);
            let par = partition_graph_par(graph, config, workers, &pool);
            assert_eq!(
                par, seq,
                "workers={workers}: parallel partition diverged from sequential"
            );
            // And again on the now-warm pool: capacity, not state.
            let par2 = partition_graph_par(graph, config, workers, &pool);
            assert_eq!(par2, seq, "workers={workers}: warm pool diverged");
        }
    }

    #[test]
    fn parallel_matches_sequential_bisection() {
        let g = grid_graph(40, 40);
        for k in [2usize, 5, 8, 16] {
            check_all_widths(&g, &PartitionConfig::new(k));
        }
    }

    #[test]
    fn parallel_matches_sequential_with_targets() {
        let g = grid_graph(36, 36);
        let cfg = PartitionConfig::new(4)
            .with_ub(1.05)
            .with_targets(vec![0.4, 0.3, 0.2, 0.1]);
        check_all_widths(&g, &cfg);
    }

    #[test]
    fn parallel_matches_sequential_multiconstraint() {
        let g = grid_graph(32, 32);
        let nv = g.nvtx();
        let mut vwgt = vec![0u32; nv * 2];
        for v in 0..nv {
            let class = usize::from(v % 32 >= 16);
            vwgt[v * 2 + class] = 1;
        }
        let g2 = g.with_vertex_weights(vwgt, 2);
        let cfg = PartitionConfig {
            ubvec: vec![1.1],
            ..PartitionConfig::new(8)
        };
        check_all_widths(&g2, &cfg);
    }

    #[test]
    fn parallel_matches_sequential_kway_refined() {
        let g = grid_graph(40, 40);
        let cfg = PartitionConfig::new(8).with_scheme(Scheme::KWayRefined);
        check_all_widths(&g, &cfg);
    }

    #[test]
    fn multilevel_kway_parallel_matches_sequential() {
        let g = grid_graph(24, 24);
        let cfg = PartitionConfig::new(6).with_scheme(Scheme::MultilevelKWay);
        check_all_widths(&g, &cfg);
    }

    #[test]
    fn every_scheme_matches_sequential_with_zero_cutoff() {
        // Zero cutoff: the bisection tree fans out down to two-leaf nodes
        // even on this small instance.
        let g = grid_graph(32, 32);
        for scheme in [
            Scheme::RecursiveBisection,
            Scheme::KWayRefined,
            Scheme::MultilevelKWay,
        ] {
            let cfg = PartitionConfig {
                par_seq_cutoff: 0,
                ..PartitionConfig::new(8).with_scheme(scheme)
            };
            check_all_widths(&g, &cfg);
        }
    }

    #[test]
    fn traced_kway_refined_run_records_one_kway_span() {
        let g = grid_graph(40, 40);
        let cfg = PartitionConfig::new(8).with_scheme(Scheme::KWayRefined);
        let pool = WorkspacePool::new(2);
        let rec = Recorder::new(1 << 12);
        let part = partition_graph_par_traced(&g, &cfg, 2, &pool, &rec);
        let seq = partition_graph_with(&g, &cfg, &mut PartitionWorkspace::new());
        assert_eq!(part, seq, "tracing must not perturb the result");
        let trace = rec.take();
        assert_eq!(trace.dropped, 0);
        let named = |name: &str| trace.events.iter().filter(|e| e.name == name).count();
        // One span = one begin + one end event.
        assert_eq!(named("part.kway"), 2);
        for counter in ["part.kway.pairs", "part.kway.colours", "part.kway.moves"] {
            assert_eq!(named(counter), 1, "{counter}");
        }
        assert_eq!(named("part.kway.pair") + named("part.kway.colour"), 0);
    }

    #[test]
    fn trivial_cases_short_circuit() {
        let g = grid_graph(4, 4);
        let pool = WorkspacePool::new(2);
        assert_eq!(
            partition_graph_par(&g, &PartitionConfig::new(1), 2, &pool),
            vec![0; 16]
        );
    }

    #[test]
    fn pool_checkout_moves_ownership() {
        let pool = WorkspacePool::new(2);
        pool.give_back(0, PartitionWorkspace::new());
        assert_eq!(pool.pooled(), 1);
        let a = pool.checkout(0);
        // The stripe is now empty: a second checkout must build fresh, not
        // alias `a`.
        let b = pool.checkout(0);
        assert_eq!(pool.pooled(), 0);
        pool.give_back(0, a);
        pool.give_back(1, b);
        assert_eq!(pool.pooled(), 2);
    }

    #[test]
    fn pool_scans_other_stripes_before_allocating() {
        let pool = WorkspacePool::new(3);
        let mut ws = PartitionWorkspace::new();
        let v = {
            let mut v = ws.take_u32();
            v.reserve(4096);
            v
        };
        let marker_cap = v.capacity();
        ws.give_u32(v);
        pool.give_back(2, ws);
        // Hinting stripe 0 must still find the warm workspace on stripe 2.
        let mut got = pool.checkout(0);
        assert!(got.take_u32().capacity() >= marker_cap, "warm arena reused");
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn traced_parallel_run_emits_node_spans() {
        let g = grid_graph(40, 40);
        let cfg = PartitionConfig::new(8);
        let pool = WorkspacePool::new(2);
        let rec = Recorder::new(1 << 12);
        let part = partition_graph_par_traced(&g, &cfg, 2, &pool, &rec);
        let seq = partition_graph_with(&g, &cfg, &mut PartitionWorkspace::new());
        assert_eq!(part, seq, "tracing must not perturb the result");
        let trace = rec.take();
        assert_eq!(trace.dropped, 0);
        let nodes: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.name == "part.par.node" || e.name == "part.par.leaf")
            .collect();
        assert!(!nodes.is_empty(), "expected part.par.* complete events");
        // Heap-index parenting: every non-root node's parent id is its
        // heap-index half, and the root's parent is 0.
        for e in &nodes {
            if e.a == 1 {
                assert_eq!(e.b, 0, "root parent id");
            } else {
                assert_eq!(e.b, e.a / 2, "heap-index parenting");
            }
        }
        assert_eq!(
            trace.last_counter("part.par.workers"),
            Some(2),
            "worker-count counter"
        );
        assert_eq!(
            trace.last_counter("part.par.nodes"),
            Some(nodes.len() as u64),
            "node counter matches emitted spans"
        );
    }
}
