//! Wall-clock benches for the multilevel partitioner: SC vs MC weighting,
//! scheme ablations (recursive bisection vs k-way-refined), and the raw
//! coarsening stage. Runs on the in-tree `tempart_testkit` harness
//! (warmup + samples, median/MAD, printed only).

use std::hint::black_box;
use tempart_core::{strategy_weights, PartitionStrategy};
use tempart_mesh::{
    cloud_cell_count, cylinder_like, paper_scale_nside, sfc_cloud, GeneratorConfig, MeshCase,
};
use tempart_obs::Recorder;
use tempart_partition::{
    coarsen::coarsen, partition_graph, partition_graph_par_traced, partition_graph_with,
    repartition_ws, sfc_partition, sfc_partition_with, Curve, PartitionConfig, PartitionWorkspace,
    RepartConfig, Scheme, SfcWorkspace, WorkspacePool,
};
use tempart_testkit::bench::Bencher;
use tempart_testkit::peak_rss_bytes;

fn bench_strategies(b: &mut Bencher) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let graph = mesh.to_graph();
    b.set_samples(10);
    for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
        let (w, ncon) = strategy_weights(&mesh, strategy);
        let g = graph.with_vertex_weights(w, ncon);
        b.bench(&format!("partition/strategy/{}", strategy.label()), || {
            let cfg = PartitionConfig::new(16).with_ub(if ncon > 1 { 1.10 } else { 1.05 });
            black_box(partition_graph(black_box(&g), &cfg))
        });
    }
}

fn bench_schemes(b: &mut Bencher) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let graph = mesh.to_graph();
    let (w, _) = strategy_weights(&mesh, PartitionStrategy::ScOc);
    let g = graph.with_vertex_weights(w, 1);
    b.set_samples(10);
    for (name, scheme) in [
        ("recursive-bisection", Scheme::RecursiveBisection),
        ("kway-refined", Scheme::KWayRefined),
    ] {
        b.bench(&format!("partition/scheme/{name}"), || {
            let cfg = PartitionConfig::new(16).with_scheme(scheme);
            black_box(partition_graph(black_box(&g), &cfg))
        });
    }
}

/// The dynamic-repartitioning shape: one long-lived [`PartitionWorkspace`]
/// threaded through every call, so all scratch (gain buckets, match arrays,
/// pooled coarse graphs) is warm — the steady-state cost of re-running the
/// partitioner inside a time loop.
fn bench_workspace_reuse(b: &mut Bencher) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let graph = mesh.to_graph();
    b.set_samples(10);
    for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
        let (w, ncon) = strategy_weights(&mesh, strategy);
        let g = graph.with_vertex_weights(w, ncon);
        let mut ws = PartitionWorkspace::new();
        let cfg = PartitionConfig::new(16).with_ub(if ncon > 1 { 1.10 } else { 1.05 });
        // Warm the arenas once outside the measured region.
        let _ = partition_graph_with(&g, &cfg, &mut ws);
        b.bench(
            &format!("partition/reuse-warm/{}", strategy.label()),
            || black_box(partition_graph_with(black_box(&g), &cfg, &mut ws)),
        );
    }
}

/// The fork-join entry point on the same graded-cylinder MC_TL instance as
/// `partition/strategy/MC_TL`, at several worker counts with a **warm**
/// [`WorkspacePool`] (the dynamic-repartitioning steady state). Results are
/// bit-identical to the sequential rows; these measure the schedule, not the
/// answer. On single-core CI boxes `w2`/`w4` bound the fork-join overhead
/// rather than showing speedup.
fn bench_parallel(b: &mut Bencher) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let graph = mesh.to_graph();
    let (w, ncon) = strategy_weights(&mesh, PartitionStrategy::McTl);
    let g = graph.with_vertex_weights(w, ncon);
    let cfg = PartitionConfig::new(16).with_ub(1.10);
    b.set_samples(10);
    for workers in [1usize, 2, 4] {
        let pool = WorkspacePool::new(workers);
        // Warm the pool's arenas once outside the measured region.
        let _ = partition_graph_par_traced(&g, &cfg, workers, &pool, Recorder::off());
        b.bench(&format!("partition/parallel/MC_TL-w{workers}"), || {
            black_box(partition_graph_par_traced(
                black_box(&g),
                &cfg,
                workers,
                &pool,
                Recorder::off(),
            ))
        });
    }
}

/// The geometric space-filling-curve baselines: one key sort along the
/// curve plus one weighted prefix-sum split — no graph build, no
/// refinement. These bound the cost floor the multilevel rows are judged
/// against.
fn bench_sfc(b: &mut Bencher) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let centroids: Vec<[f64; 3]> = mesh.cells().iter().map(|c| c.centroid).collect();
    let (w, _) = strategy_weights(&mesh, PartitionStrategy::ScOc);
    let weights: Vec<u64> = w.into_iter().map(u64::from).collect();
    b.set_samples(10);
    for (name, curve) in [("morton", Curve::Morton), ("hilbert", Curve::Hilbert)] {
        b.bench(&format!("partition/sfc/{name}"), || {
            black_box(sfc_partition(black_box(&centroids), &weights, 16, curve))
        });
    }
}

/// Recursive bisection plus pairwise k-way refinement
/// (`Scheme::KWayRefined`) on the graded cylinder at k = 16, through
/// [`partition_graph_par_traced`] with a warm pool. One worker: the refinement
/// runs one pinned schedule at every width, and the bisection fan-out is
/// `partition/parallel/MC_TL-w{1,2,4}`.
fn bench_kway_refined(b: &mut Bencher) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let graph = mesh.to_graph();
    let (w, ncon) = strategy_weights(&mesh, PartitionStrategy::McTl);
    let g = graph.with_vertex_weights(w, ncon);
    let cfg = PartitionConfig::new(16)
        .with_ub(1.10)
        .with_scheme(Scheme::KWayRefined);
    b.set_samples(10);
    let pool = WorkspacePool::new(1);
    // Warm the pool's arenas once outside the measured region.
    let _ = partition_graph_par_traced(&g, &cfg, 1, &pool, Recorder::off());
    b.bench("partition/parallel/kway-w1", || {
        black_box(partition_graph_par_traced(
            black_box(&g),
            &cfg,
            1,
            &pool,
            Recorder::off(),
        ))
    });
}

/// The incremental repartitioner against the rebuild it replaces: one
/// diffusion refresh of a drifted graded-cylinder MC_TL instance
/// (`repart/diffuse`, warm workspace) versus one from-scratch multilevel
/// MC_TL partition of the same drifted graph (`repart/scratch`). `main`
/// asserts the refresh undercuts the rebuild — the whole point of
/// repartitioning incrementally.
fn bench_repart(b: &mut Bencher) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let drift = tempart_mesh::DriftConfig::graded_cylinder();
    let mut m = mesh.clone();
    drift.apply(&mut m, 0);
    let (w0, ncon) = strategy_weights(&m, PartitionStrategy::McTl);
    let g0 = m.to_graph().with_vertex_weights(w0, ncon);
    let mcfg = PartitionConfig::new(16).with_ub(1.10);
    let mut ws = PartitionWorkspace::new();
    let part0 = partition_graph_with(&g0, &mcfg, &mut ws);
    drift.apply(&mut m, 1);
    let (w1, _) = strategy_weights(&m, PartitionStrategy::McTl);
    let g1 = m.to_graph().with_vertex_weights(w1, ncon);
    let rcfg = RepartConfig::new(16).with_ub(1.08);
    let mut part = part0.clone();
    // Warm the repart arenas once outside the measured region.
    let _ = repartition_ws(&g1, &mut part, &rcfg, &mut ws);
    b.set_samples(10);
    b.bench("partition/repart/diffuse", || {
        part.copy_from_slice(&part0);
        black_box(repartition_ws(black_box(&g1), &mut part, &rcfg, &mut ws))
    });
    b.bench("partition/repart/scratch", || {
        black_box(partition_graph_with(black_box(&g1), &mcfg, &mut ws))
    });
}

fn bench_coarsening(b: &mut Bencher) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let graph = mesh.to_graph();
    b.bench("partition/coarsen-to-128", || {
        black_box(coarsen(black_box(&graph), 128, 42))
    });
}

/// Opt-in paper-scale suite (`TEMPART_PAPER_SCALE=1`): the SFC fast path at
/// the paper's actual Table I sizes (12.6M-cell PPRIME_NOZZLE class), racing
/// the geometric strategy against the multilevel ones on the largest mesh
/// the runner can turn around, plus an RSS / workspace-bytes report.
///
/// The paper meshes are generated as faces-free [`SfcCloud`]s (~25 B/cell),
/// so the 12.6M-point run fits comfortably in bounded memory; the
/// zero-allocation [`cloud_cell_count`] size check runs first and the
/// suite refuses sizes that drifted away from Table I.
fn bench_paper(b: &mut Bencher) {
    if std::env::var("TEMPART_PAPER_SCALE").as_deref() != Ok("1") {
        return;
    }

    // -- Paper-scale SFC rows: PPRIME_NOZZLE class, ~12.6M cells. ---------
    let case = MeshCase::PprimeNozzle;
    let nside = paper_scale_nside(case);
    let n = cloud_cell_count(case, nside);
    let paper_n = case.paper_cell_count();
    let drift = (n as f64 - paper_n as f64).abs() / paper_n as f64;
    assert!(
        drift < 0.05,
        "paper-scale cloud drifted from Table I: {n} vs {paper_n}"
    );
    eprintln!(
        "paper-scale: generating {} cloud ({n} cells)...",
        case.name()
    );
    let cloud = sfc_cloud(case, nside);
    let weights = cloud.operating_costs();
    let k = 64;
    let mut ws = SfcWorkspace::new();
    // Warm the workspace once outside the measured region.
    let _ = sfc_partition_with(&cloud.centroids, &weights, k, Curve::Morton, 1, &mut ws);
    b.set_samples(3);
    for (name, curve, workers) in [
        ("sfc-morton", Curve::Morton, 1usize),
        ("sfc-hilbert", Curve::Hilbert, 1),
        ("sfc-par-w4", Curve::Hilbert, 4),
    ] {
        b.bench(&format!("partition/paper/{name}"), || {
            black_box(sfc_partition_with(
                black_box(&cloud.centroids),
                &weights,
                k,
                curve,
                workers,
                &mut ws,
            ))
        });
    }
    let cloud_bytes = cloud.centroids.len() * 24 + cloud.tau.len() + weights.len() * 8;
    let ws_bytes = ws.peak_bytes();
    drop(cloud);
    drop(weights);

    // -- Racing rows: SFC_OC vs the multilevel strategies. ----------------
    // The full 12.6M-cell multilevel build is out of reach for a bench loop
    // on a single-core runner, so the race runs on the largest graded
    // cylinder the harness turns around quickly (base_depth 6, ~1.1M faces'
    // worth of graph); the SFC row uses the same mesh so the ratio is the
    // paper's "orders of magnitude faster" claim at matched size.
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 6 });
    let graph = mesh.to_graph();
    let centroids: Vec<[f64; 3]> = mesh.cells().iter().map(|c| c.centroid).collect();
    b.set_samples(2);
    for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
        let (w, ncon) = strategy_weights(&mesh, strategy);
        let g = graph.with_vertex_weights(w, ncon);
        let mut mws = PartitionWorkspace::new();
        let cfg = PartitionConfig::new(k).with_ub(if ncon > 1 { 1.10 } else { 1.05 });
        let _ = partition_graph_with(&g, &cfg, &mut mws);
        b.bench(
            &format!("partition/paper/race/{}", strategy.label()),
            || black_box(partition_graph_with(black_box(&g), &cfg, &mut mws)),
        );
    }
    {
        let (w, _) = strategy_weights(&mesh, PartitionStrategy::ScOc);
        let sfc_weights: Vec<u64> = w.into_iter().map(u64::from).collect();
        let _ = sfc_partition_with(&centroids, &sfc_weights, k, Curve::Hilbert, 1, &mut ws);
        b.bench("partition/paper/race/SFC_OC", || {
            black_box(sfc_partition_with(
                black_box(&centroids),
                &sfc_weights,
                k,
                Curve::Hilbert,
                1,
                &mut ws,
            ))
        });
    }

    // -- Memory report. ---------------------------------------------------
    let fmt_mb = |bytes: u64| format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0));
    eprintln!("paper-scale memory report ({n} cells, k = {k}):");
    eprintln!(
        "  cloud (centroids+tau+weights): {}",
        fmt_mb(cloud_bytes as u64)
    );
    eprintln!(
        "  SfcWorkspace peak (key and bucket arenas): {}",
        fmt_mb(ws_bytes)
    );
    match peak_rss_bytes() {
        Some(rss) => eprintln!("  process peak RSS (VmHWM): {}", fmt_mb(rss)),
        None => eprintln!("  process peak RSS: unavailable (no procfs)"),
    }
}

fn main() {
    let mut b = Bencher::new("partitioner");
    bench_strategies(&mut b);
    bench_schemes(&mut b);
    bench_workspace_reuse(&mut b);
    bench_parallel(&mut b);
    bench_sfc(&mut b);
    bench_kway_refined(&mut b);
    bench_repart(&mut b);
    bench_coarsening(&mut b);
    bench_paper(&mut b);
    let stats = b.finish();
    // An incremental refresh that costs as much as the rebuild it replaces
    // is a bug, not a tuning matter — fail the suite.
    let median = |name: &str| {
        stats
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.median_ns)
            .expect("repart bench row missing")
    };
    let diffuse = median("partition/repart/diffuse");
    let scratch = median("partition/repart/scratch");
    assert!(
        diffuse < scratch,
        "diffusion refresh ({diffuse} ns) did not beat from-scratch MC_TL ({scratch} ns)"
    );
}
