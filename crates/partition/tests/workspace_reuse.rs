//! Workspace-reuse equivalence: `partition_graph_with` on a *warm* (shared,
//! previously used) [`PartitionWorkspace`] must produce bit-identical part
//! vectors to `partition_graph` with a fresh workspace. The workspace is a
//! capacity cache, never state: stale arena contents, pooled buffers from
//! other graphs, and recycled coarse hierarchies must all be invisible in
//! the output.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use tempart_graph::builder::{grid_graph, GraphBuilder};
use tempart_graph::CsrGraph;
use tempart_obs::Recorder;
use tempart_partition::{
    partition_graph, partition_graph_par_traced, partition_graph_with, PartitionConfig,
    PartitionWorkspace, Scheme, WorkspacePool,
};
use tempart_testkit::prop::vec_of;
use tempart_testkit::{prop_assert_eq, proptest};

/// A graded multi-constraint grid: one-hot temporal-level weights (the
/// MC_TL shape), level chosen by column band.
fn graded_mc_grid(nx: usize, ny: usize, nlevels: usize) -> CsrGraph {
    let n = nx * ny;
    let mut b = GraphBuilder::new(n, nlevels);
    let idx = |x: usize, y: usize| (y * nx + x) as u32;
    let mut w = vec![0u32; nlevels];
    for y in 0..ny {
        for x in 0..nx {
            if x + 1 < nx {
                b.add_edge(idx(x, y), idx(x + 1, y), 1);
            }
            if y + 1 < ny {
                b.add_edge(idx(x, y), idx(x, y + 1), 1);
            }
            let level = (x * nlevels) / nx;
            w.iter_mut().for_each(|e| *e = 0);
            w[level] = 1;
            b.set_vertex_weights(idx(x, y), &w);
        }
    }
    b.build()
}

/// Random connected graph: spanning path plus extra edges.
fn random_graph(n: usize, extra: &[(usize, usize)], weights: &[u32]) -> CsrGraph {
    let mut b = GraphBuilder::new(n, 1);
    for v in 1..n {
        b.add_edge((v - 1) as u32, v as u32, 1);
    }
    for &(a, bb) in extra {
        let (a, bb) = (a % n, bb % n);
        if a != bb {
            b.add_edge(a as u32, bb as u32, 1);
        }
    }
    for (v, &w) in weights.iter().take(n).enumerate() {
        b.set_vertex_weights(v as u32, &[w.max(1)]);
    }
    b.build()
}

#[test]
fn shared_workspace_is_bit_identical_across_schemes_and_graphs() {
    // One workspace threaded through every call, in an order chosen so each
    // call sees arenas sized (and dirtied) by a *different* graph and
    // scheme than its own.
    let graphs: Vec<CsrGraph> = vec![
        grid_graph(24, 24),
        graded_mc_grid(32, 16, 4),
        grid_graph(7, 5),
        graded_mc_grid(12, 12, 2),
    ];
    let schemes = [Scheme::RecursiveBisection, Scheme::KWayRefined];
    let mut ws = PartitionWorkspace::new();
    for pass in 0..2 {
        for (gi, g) in graphs.iter().enumerate() {
            for (si, &scheme) in schemes.iter().enumerate() {
                let k = [2, 3, 5, 8][(gi + si + pass) % 4];
                let cfg = PartitionConfig::new(k)
                    .with_seed(0xC0FFEE ^ (gi as u64) << 8 ^ si as u64)
                    .with_ub(1.2)
                    .with_scheme(scheme);
                let fresh = partition_graph(g, &cfg);
                let warm = partition_graph_with(g, &cfg, &mut ws);
                assert_eq!(
                    fresh, warm,
                    "graph {gi}, {scheme:?}, k={k}, pass {pass}: warm workspace diverged"
                );
            }
        }
    }
}

#[test]
fn workspace_survives_degenerate_inputs_between_real_ones() {
    // Tiny/degenerate graphs between real ones must not corrupt the pools.
    let mut ws = PartitionWorkspace::new();
    let big = grid_graph(20, 20);
    let cfg = PartitionConfig::new(4).with_seed(7);
    let reference = partition_graph(&big, &cfg);
    assert_eq!(partition_graph_with(&big, &cfg, &mut ws), reference);
    // Single vertex, k > n, one part.
    let tiny = grid_graph(1, 1);
    let _ = partition_graph_with(&tiny, &PartitionConfig::new(1), &mut ws);
    let path = grid_graph(3, 1);
    let _ = partition_graph_with(&path, &PartitionConfig::new(8).with_ub(4.0), &mut ws);
    // The big instance must still come out bit-identical.
    assert_eq!(partition_graph_with(&big, &cfg, &mut ws), reference);
}

/// N threads checking out of a shared striped [`WorkspacePool`] must each
/// receive an exclusively owned workspace — never an aliased arena. Aliasing
/// is observable two ways: the pooled count would not drain to zero when
/// every pre-seeded workspace is simultaneously held (a workspace handed out
/// twice leaves a phantom behind), and concurrent `partition_graph_with`
/// calls through shared arenas would race and diverge from the sequential
/// reference. Both are checked under a barrier so all threads genuinely
/// overlap.
#[test]
fn pool_checkout_is_exclusive_across_threads() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 8;
    let pool = WorkspacePool::new(THREADS);
    // Pre-seed every stripe with one warm workspace.
    let warm_graph = grid_graph(16, 16);
    for s in 0..THREADS {
        let mut ws = PartitionWorkspace::new();
        let _ = partition_graph_with(&warm_graph, &PartitionConfig::new(4), &mut ws);
        pool.give_back(s, ws);
    }
    assert_eq!(pool.pooled(), THREADS);

    let graphs: Vec<CsrGraph> = (0..THREADS)
        .map(|t| graded_mc_grid(18 + 2 * t, 12, 1 + t % 3 + 1))
        .collect();
    let configs: Vec<PartitionConfig> = (0..THREADS)
        .map(|t| {
            PartitionConfig::new(2 + t)
                .with_ub(1.2)
                .with_seed(0xA11A5 ^ t as u64)
        })
        .collect();
    let references: Vec<Vec<u32>> = graphs
        .iter()
        .zip(&configs)
        .map(|(g, c)| partition_graph(g, c))
        .collect();

    let all_held = Barrier::new(THREADS);
    let divergences = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (pool, all_held, divergences) = (&pool, &all_held, &divergences);
            let (g, cfg, reference) = (&graphs[t], &configs[t], &references[t]);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let mut ws = pool.checkout(t);
                    if round == 0 {
                        // Every thread holds one of the N pre-seeded
                        // workspaces at this barrier; a double-hand-out
                        // would leave pooled() > 0.
                        all_held.wait();
                        assert_eq!(pool.pooled(), 0, "pool handed a workspace out twice");
                        all_held.wait();
                    }
                    let part = partition_graph_with(g, cfg, &mut ws);
                    if &part != reference {
                        divergences.fetch_add(1, Ordering::Relaxed);
                    }
                    pool.give_back(t, ws);
                }
            });
        }
    });
    assert_eq!(
        divergences.load(Ordering::Relaxed),
        0,
        "concurrent pooled workspaces diverged from the sequential reference"
    );
    assert_eq!(pool.pooled(), THREADS, "give_back lost workspaces");
}

/// The pool carries **capacity, not state**: `partition_graph_par_traced` from a
/// pool warmed by unrelated instances (different graph, ncon, k, scheme)
/// must be bit-identical to the same call on a fresh pool.
#[test]
fn warm_pool_parallel_is_bit_identical_to_fresh_pool() {
    let g = graded_mc_grid(32, 24, 4);
    let cfg = PartitionConfig::new(8).with_ub(1.1).with_seed(0xBEEF);
    for workers in [1usize, 2, 4] {
        let fresh = partition_graph_par_traced(
            &g,
            &cfg,
            workers,
            &WorkspacePool::new(workers),
            Recorder::off(),
        );
        // Pollute a pool with unrelated work first.
        let warm = WorkspacePool::new(workers);
        let _ = partition_graph_par_traced(
            &grid_graph(24, 24),
            &PartitionConfig::new(5).with_scheme(Scheme::KWayRefined),
            workers,
            &warm,
            Recorder::off(),
        );
        let _ = partition_graph_par_traced(
            &graded_mc_grid(10, 10, 2),
            &PartitionConfig::new(3).with_ub(1.5),
            workers,
            &warm,
            Recorder::off(),
        );
        let polluted = partition_graph_par_traced(&g, &cfg, workers, &warm, Recorder::off());
        assert_eq!(fresh, polluted, "workers={workers}: warm pool diverged");
    }
}

proptest! {
    #![config(cases = 32, seed = 0x5EED_0003)]

    fn warm_workspace_matches_fresh_on_random_graphs(
        n in 8usize..140,
        extra in vec_of((0usize..300, 0usize..300), 0..50),
        weights in vec_of(1u32..9, 0..140),
        k in 2usize..7,
        seed in 0u64..1000,
        warm_nx in 2usize..20,
    ) {
        let g = random_graph(n, &extra, &weights);
        let cfg = PartitionConfig::new(k).with_seed(seed);
        let fresh = partition_graph(&g, &cfg);
        // Pollute the workspace with two unrelated instances first: a
        // single-constraint grid and a graded 3-constraint grid.
        let mut ws = PartitionWorkspace::new();
        let _ = partition_graph_with(&grid_graph(warm_nx, 3), &PartitionConfig::new(2), &mut ws);
        let _ = partition_graph_with(
            &graded_mc_grid(warm_nx + 2, 4, 3),
            &PartitionConfig::new(3).with_ub(1.5).with_scheme(Scheme::KWayRefined),
            &mut ws,
        );
        let warm = partition_graph_with(&g, &cfg, &mut ws);
        prop_assert_eq!(fresh, warm);
    }
}
