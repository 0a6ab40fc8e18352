//! The fork-join partitioner entry point and its workspace pool.
//!
//! [`partition_graph_par_traced`] runs the same scheme dispatch and the same
//! recursive-bisection tree walk as [`crate::partition_graph_with`]; at two
//! or more workers the walk submits right subtrees to the work-stealing
//! deques ([`tempart_runtime::fork_join`]) and each branch leases its
//! workspace from a [`WorkspacePool`]. Why the answer cannot depend on the
//! width is in [`crate::bisect`]; `tests/parallel_partition.rs` and the
//! `ci.sh` worker-matrix stage enforce it.
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
//! nesting is only meaningful within one thread); instead the walk emits one
//! self-contained [`Kind::Complete`] event per node it reaches with a fork
//! context — `part.par.node` for a node that forks, `part.par.leaf` for a
//! subtree that runs inline — with `a` = the node's heap index (root = 1,
//! children = `2i`/`2i+1`) and `b` = the parent's index: cross-thread span
//! *parenting by id*, safe under any interleaving. `part.par.nodes` /
//! `part.par.workers` counters summarise the fan-out.
//!
//! [`Kind::Complete`]: tempart_obs::Kind::Complete

use crate::{PartitionConfig, PartitionWorkspace};
use std::sync::Mutex;
use tempart_graph::{CsrGraph, PartId};
use tempart_obs::Recorder;

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
/// and [`Self::give_back`] both reset `obs` and `sfc.obs`, so an enabled
/// recorder installed for a sequential traced call can never leak into (or
/// out of) a parallel branch.
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
                reset_obs(&mut ws);
                return ws;
            }
        }
        PartitionWorkspace::new()
    }

    /// Returns a workspace to the hinted stripe for reuse. The recorders
    /// are reset to disabled so pooled workspaces never pin a live recorder.
    pub fn give_back(&self, stripe_hint: usize, mut ws: PartitionWorkspace) {
        reset_obs(&mut ws);
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

/// Installs the disabled recorder in `ws` and in its curve scratch.
fn reset_obs(ws: &mut PartitionWorkspace) {
    ws.obs = Recorder::default();
    ws.obs_level = 0;
    ws.sfc.obs = Recorder::default();
}

/// Parallel, traced [`crate::partition_graph_with`].
///
/// The result is **bit-identical** to the sequential entry point for the
/// same `(graph, config)` at every `n_workers` — enforced by
/// `tests/parallel_partition.rs` and the `ci.sh` worker matrix: both run the
/// same scheme dispatch and the same bisection tree walk
/// ([`crate::bisect`]), here on a workspace leased from `pool`. With
/// `n_workers == 1` every node runs inline and `rec` is installed for the
/// full phase-level span tree; with more workers the tree fans out as
/// fork-join jobs and `rec` receives the self-contained `part.par.*` events
/// described in the module docs.
/// [`KWayRefined`](crate::Scheme::KWayRefined) follows the bisection with
/// the pairwise k-way refinement on its one pinned schedule
/// ([`crate::par_kway::pairwise_kway_refine_ws`], `part.kway` span and
/// counters).
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
    let mut ws = pool.checkout(0);
    ws.obs = rec.clone();
    let part = crate::partition(
        graph,
        config,
        &mut ws,
        (n_workers > 1).then_some((n_workers, pool)),
    );
    pool.give_back(0, ws);
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition_graph_with, Scheme};
    use tempart_graph::builder::grid_graph;

    fn check_all_widths(graph: &CsrGraph, config: &PartitionConfig) {
        let seq = partition_graph_with(graph, config, &mut PartitionWorkspace::new());
        for workers in [1usize, 2, 4] {
            let pool = WorkspacePool::new(workers);
            let par = partition_graph_par_traced(graph, config, workers, &pool, Recorder::off());
            assert_eq!(
                par, seq,
                "workers={workers}: parallel partition diverged from sequential"
            );
            // And again on the now-warm pool: capacity, not state.
            let par2 = partition_graph_par_traced(graph, config, workers, &pool, Recorder::off());
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
    fn every_scheme_matches_sequential_four_fork_levels_deep() {
        // 16 384 vertices into 32 parts: nodes fork down to 2 048-vertex,
        // 4-leaf subgraphs (four levels of forks, 15 forking nodes) and
        // the 16 two-leaf subtrees below them run inline.
        let g = grid_graph(128, 128);
        for scheme in [Scheme::RecursiveBisection, Scheme::KWayRefined] {
            let cfg = PartitionConfig::new(32).with_scheme(scheme);
            let seq = partition_graph_with(&g, &cfg, &mut PartitionWorkspace::new());
            for workers in 2..=4 {
                let rec = Recorder::new(1 << 12);
                let par = partition_graph_par_traced(
                    &g,
                    &cfg,
                    workers,
                    &WorkspacePool::new(workers),
                    &rec,
                );
                assert_eq!(par, seq, "{scheme:?}, workers={workers}: diverged");
                let nodes = rec.take().last_counter("part.par.nodes");
                assert!(
                    nodes >= Some(31),
                    "{scheme:?}, workers={workers}: {nodes:?} nodes"
                );
            }
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
            partition_graph_par_traced(&g, &PartitionConfig::new(1), 2, &pool, Recorder::off()),
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
        let v = ws.take_u32(4096);
        let marker_cap = v.capacity();
        ws.give_u32(v);
        pool.give_back(2, ws);
        // Hinting stripe 0 must still find the warm workspace on stripe 2.
        let mut got = pool.checkout(0);
        assert!(
            got.take_u32(0).capacity() >= marker_cap,
            "warm arena reused"
        );
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
