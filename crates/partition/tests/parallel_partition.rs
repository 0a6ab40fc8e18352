//! Determinism contract of the fork-join partitioner entry point:
//! [`partition_graph_par_traced`] must be **bit-identical** to the
//! sequential [`partition_graph_with`] for the same `(graph, config)` at
//! every worker count, from a fresh or warm [`WorkspacePool`], across
//! schemes, constraint counts, and random graphs. The schedule is
//! nondeterministic; the answer never is.
//!
//! The walk forks only at nodes above 512 vertices with more than two
//! leaves, so the grids here fork at most at the root and the random graphs
//! span that cutoff; the fan-out at depth is the in-crate
//! `par::tests::every_scheme_matches_sequential_four_fork_levels_deep`.

use tempart_graph::builder::{grid_graph, GraphBuilder};
use tempart_graph::CsrGraph;
use tempart_obs::Recorder;
use tempart_partition::{
    partition_graph_par_traced, partition_graph_with, PartitionConfig, PartitionWorkspace, Scheme,
    WorkspacePool,
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
fn parallel_matches_sequential_across_widths_schemes_and_k() {
    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("grid-24x24", grid_graph(24, 24)),
        ("graded-mc-32x16x4", graded_mc_grid(32, 16, 4)),
        ("graded-mc-12x12x2", graded_mc_grid(12, 12, 2)),
    ];
    let schemes = [
        Scheme::RecursiveBisection,
        Scheme::KWayRefined,
        Scheme::MultilevelKWay,
    ];
    for (name, g) in &graphs {
        for &scheme in &schemes {
            for &k in &[2usize, 5, 16] {
                let cfg = PartitionConfig::new(k)
                    .with_ub(1.2)
                    .with_seed(0xDEC0DE)
                    .with_scheme(scheme);
                let seq = partition_graph_with(g, &cfg, &mut PartitionWorkspace::new());
                for workers in [1usize, 2, 3, 4] {
                    let pool = WorkspacePool::new(workers);
                    let par = partition_graph_par_traced(g, &cfg, workers, &pool, Recorder::off());
                    assert_eq!(
                        seq, par,
                        "{name}, {scheme:?}, k={k}, workers={workers}: diverged"
                    );
                    // Second run from the now-warm pool must agree too.
                    let par2 = partition_graph_par_traced(g, &cfg, workers, &pool, Recorder::off());
                    assert_eq!(seq, par2, "{name}, {scheme:?}, k={k}: warm pool diverged");
                }
            }
        }
    }
}

#[test]
fn parallel_respects_target_fractions() {
    let g = grid_graph(20, 20);
    let cfg = PartitionConfig::new(4)
        .with_ub(1.05)
        .with_targets(vec![0.4, 0.3, 0.2, 0.1]);
    let seq = partition_graph_with(&g, &cfg, &mut PartitionWorkspace::new());
    for workers in [2usize, 4] {
        let pool = WorkspacePool::new(workers);
        assert_eq!(
            seq,
            partition_graph_par_traced(&g, &cfg, workers, &pool, Recorder::off())
        );
    }
}

proptest! {
    #![config(cases = 24, seed = 0x5EED_0007)]

    fn parallel_matches_sequential_on_random_graphs(
        // Spans the fork cutoff (512): small instances run as single
        // leaves, large ones actually fork.
        n in 8usize..900,
        extra in vec_of((0usize..900, 0usize..900), 0..50),
        weights in vec_of(1u32..9, 0..900),
        k in 2usize..9,
        seed in 0u64..1000,
        workers in 1usize..5,
    ) {
        let g = random_graph(n, &extra, &weights);
        let cfg = PartitionConfig::new(k).with_seed(seed);
        let seq = partition_graph_with(&g, &cfg, &mut PartitionWorkspace::new());
        let pool = WorkspacePool::new(workers);
        let par = partition_graph_par_traced(&g, &cfg, workers, &pool, Recorder::off());
        prop_assert_eq!(seq, par);
    }
}
