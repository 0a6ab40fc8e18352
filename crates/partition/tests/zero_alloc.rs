//! Zero-allocation contract for the partitioner's hot loops, measured with
//! the testkit counting allocator installed as this binary's global
//! allocator. Three layers of coverage:
//!
//! 1. **Explicit**: a warm `fm_refine_ws` / `rebalance_ws` call performs
//!    *zero* heap allocations end to end (all scratch lives in the
//!    workspace arenas, already sized by the warm-up call).
//!    The greedy-growing initial bisection is crate-private and is covered
//!    through the public driver on a graph too small to coarsen.
//! 2. **Implicit**: running the full partitioner here arms the
//!    `debug_assert`s inside the FM pass loop, the rebalance move loop and
//!    the pairwise k-way pass — any allocation inside those regions aborts
//!    the test, whatever the warm-up state.
//! 3. **Pinned**: a warm `pairwise_kway_refine_ws` / `repartition_ws` call
//!    performs *zero* heap allocations — boundary lists, their patch
//!    scratch, the colouring's tables and the diffusion promotion's
//!    incident-pair index and realizability memo all live in the
//!    workspace, under one constraint and under three. (In this
//!    debug-profile binary the patch oracle of `par_kway::Boundary` runs
//!    inside the measured call, so it is covered too.) A warm
//!    `partition_graph_with` allocates its result and nothing else, at any
//!    k. A warm `sfc_partition_with` allocates its
//!    result plus a constant number of bytes that does not grow with n
//!    (none at one worker).
//! 4. **Peak**: a cold `partition_graph_with` holds at most a fixed
//!    multiple of its graph's bytes at once, and a warm one nothing beyond
//!    its result — read off the allocator's live-byte
//!    high-water mark, so pooled buffers that outgrow their role show.

use tempart_graph::builder::grid_graph;
use tempart_partition::geometric::{sfc_partition_with, Curve, SfcWorkspace};
use tempart_partition::par_kway::pairwise_kway_refine_ws;
use tempart_partition::refine::{fm_refine_ws, rebalance_ws};
use tempart_partition::{
    partition_graph_with, repartition_ws, PartitionConfig, PartitionWorkspace, RepartConfig, Scheme,
};
use tempart_testkit::alloc::{
    allocated_bytes, count_allocations, live_bytes, peak_live_bytes, reset_peak_live_bytes,
    CountingAllocator,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warm_fm_refine_does_not_allocate() {
    let g = grid_graph(48, 48);
    let mut ws = PartitionWorkspace::new();
    // A deliberately poor initial bisection: left/right stripes interleaved,
    // so FM has real work to do on every call.
    let make_side = || -> Vec<u8> { (0..g.nvtx()).map(|v| ((v / 4) % 2) as u8).collect() };
    // Warm-up: sizes every arena and the gain buckets.
    let mut side = make_side();
    fm_refine_ws(&g, &mut side, 0.5, 1.05, 6, &mut ws);
    // Measured run on a fresh copy of the same instance.
    let mut side = make_side();
    let (cut, allocs) = count_allocations(|| fm_refine_ws(&g, &mut side, 0.5, 1.05, 6, &mut ws));
    assert!(cut >= 0);
    assert_eq!(allocs, 0, "warm fm_refine_ws allocated {allocs} times");
}

#[test]
fn warm_rebalance_does_not_allocate() {
    let g = grid_graph(32, 32);
    let make_side = || -> Vec<u8> { (0..g.nvtx()).map(|v| u8::from(v % 32 >= 24)).collect() };
    let mut ws = PartitionWorkspace::new();
    let mut side = make_side();
    rebalance_ws(&g, &mut side, 0.5, 1.1, &mut ws);
    let mut side = make_side();
    let (moves, allocs) = count_allocations(|| rebalance_ws(&g, &mut side, 0.5, 1.1, &mut ws));
    assert!(moves > 0, "imbalanced stripe must trigger moves");
    assert_eq!(allocs, 0, "warm rebalance_ws allocated {allocs} times");
}

#[test]
fn warm_initial_bisection_tries_do_not_allocate() {
    // GGGP (`initial_bisection_into`) is crate-private; reach it through the
    // public driver with a graph below the coarsening target, so the one
    // bisection is growth + rebalance + FM with no hierarchy. One-hot
    // 3-constraint weights make the frontier heap drop inadmissible vertices
    // and re-seed. Its heap arrays live in the workspace, so a warm call's
    // allocation count is the driver's fixed handful — whatever the number
    // of growth attempts.
    let ncon = 3;
    let base = grid_graph(16, 16);
    let mut vwgt = vec![0u32; base.nvtx() * ncon];
    for v in 0..base.nvtx() {
        vwgt[v * ncon + (v / 7) % ncon] = 1;
    }
    let g = base.with_vertex_weights(vwgt, ncon);
    assert!(g.nvtx() <= PartitionConfig::new(2).coarsen_to * ncon);
    let mut ws = PartitionWorkspace::new();
    let mut warm_allocs = |tries: usize| -> u64 {
        let mut cfg = PartitionConfig::new(2).with_seed(5).with_ub(1.10);
        cfg.initial_tries = tries;
        let _ = partition_graph_with(&g, &cfg, &mut ws);
        count_allocations(|| partition_graph_with(&g, &cfg, &mut ws)).1
    };
    let many = warm_allocs(32);
    let one = warm_allocs(1);
    assert_eq!(
        many, one,
        "growth attempts allocate: 32 tries {many} vs 1 try {one}"
    );
    // The result vector and the uniform target fractions.
    assert!(many <= 2, "warm 2-way partition allocated {many} times");
}

#[test]
fn warm_recursive_bisection_allocates_the_result_only() {
    // The whole tree walk — k − 1 bisections, 2(k − 1) extracted subgraphs,
    // their composed vertex maps — runs out of one warm workspace: a walk
    // that boxed its jobs or built per-node vectors would show here.
    let g = grid_graph(96, 96);
    let mut ws = PartitionWorkspace::new();
    for k in [8usize, 64, 128] {
        let cfg = PartitionConfig::new(k);
        for _ in 0..8 {
            let _ = partition_graph_with(&g, &cfg, &mut ws);
        }
        let (part, allocs) = count_allocations(|| partition_graph_with(&g, &cfg, &mut ws));
        assert_eq!(part.len(), g.nvtx());
        // The result vector: its atomic slots become the part ids in place.
        assert_eq!(allocs, 1, "k={k}: warm call allocated {allocs} times");
    }
}

/// Heap bytes `f` held above what was live when it started, at its most.
fn peak_above_start<R>(f: impl FnOnce() -> R) -> (R, u64) {
    reset_peak_live_bytes();
    let start = live_bytes();
    let r = f();
    (r, (peak_live_bytes() - start) as u64)
}

/// The most heap a cold `partition_graph_with` may hold at once above its
/// start, in units of the input graph's own CSR bytes. Measured 3.03× on
/// the instance below with best-fit pools sized at every take, 5.06× when
/// each take popped the last buffer returned, whatever its size; the bound
/// leaves 9 % for a new arena or a looser take bound.
const COLD_PEAK_OVER_GRAPH: f64 = 3.3;

#[test]
fn cold_partition_peak_is_bounded_by_the_graph_and_a_warm_one_adds_the_result() {
    // One-hot 4-constraint weights in column bands (the MC_TL shape), 128
    // parts: the workspace's buffers must track the live set of the tree
    // walk, not the largest role each pooled buffer ever held.
    let (nx, ncon, k) = (230usize, 4usize, 128usize);
    let base = grid_graph(nx, nx);
    let n = base.nvtx();
    let mut vwgt = vec![0u32; n * ncon];
    for v in 0..n {
        vwgt[v * ncon + (v % nx) * ncon / nx] = 1;
    }
    let g = base.with_vertex_weights(vwgt, ncon);
    let graph_bytes = 4 * (g.xadj().len() + g.adjncy().len() + g.adjwgt().len() + g.vwgt().len());
    let cfg = PartitionConfig::new(k).with_ub(1.10);
    let mut ws = PartitionWorkspace::new();
    let (cold, cold_peak) = peak_above_start(|| partition_graph_with(&g, &cfg, &mut ws));
    let ratio = cold_peak as f64 / graph_bytes as f64;
    assert!(
        ratio <= COLD_PEAK_OVER_GRAPH,
        "cold call peaked at {cold_peak} B, {ratio:.2}x the graph's {graph_bytes} B"
    );
    // A warm call holds nothing new but the result vector.
    let (warm, warm_peak) = peak_above_start(|| partition_graph_with(&g, &cfg, &mut ws));
    assert_eq!(cold, warm);
    assert_eq!(
        warm_peak,
        4 * n as u64,
        "warm call peaked at {warm_peak} B above its start, the result is {} B",
        4 * n
    );
}

#[test]
fn warm_sfc_partition_allocates_its_result_plus_a_constant() {
    // The key, order and bucket tables and the boundary-bucket scratch are
    // leased from the workspace. What a warm call still allocates is the
    // part vector (4 bytes a point) and, above one worker, what this
    // thread allocates to open the key step's one fork-join scope: nothing
    // at one worker, 1 080 to 1 224 bytes at two as measured, a function of
    // the worker count, not of n.
    const SLACK: u64 = 1536;
    for workers in [1usize, 2] {
        for n in [20_000usize, 160_000] {
            let pts: Vec<[f64; 3]> = (0..n)
                .map(|i| {
                    let t = i as f64 / n as f64;
                    [t, (t * 7.0).fract(), (t * 13.0).fract()]
                })
                .collect();
            let weights = vec![1u64; n];
            let mut ws = SfcWorkspace::new();
            let mut run =
                || sfc_partition_with(&pts, &weights, 64, Curve::Hilbert, workers, &mut ws);
            run();
            let before = allocated_bytes();
            let part = run();
            let bytes = allocated_bytes() - before;
            assert_eq!(part.len(), n);
            let slack = if workers == 1 { 0 } else { SLACK };
            assert!(
                bytes <= 4 * n as u64 + slack,
                "w{workers} n={n}: warm call allocated {bytes} bytes"
            );
        }
    }
}

#[test]
fn full_partitioner_hot_loops_hold_their_debug_asserts() {
    // With the counting allocator installed, the partitioner's internal
    // `debug_assert_eq!(allocation_count(), ..)` guards are live: an
    // allocation inside the FM inner loop or a pairwise k-way pass fails here.
    let g = grid_graph(40, 40);
    let mut ws = PartitionWorkspace::new();
    for scheme in [Scheme::RecursiveBisection, Scheme::KWayRefined] {
        let cfg = PartitionConfig::new(8).with_seed(11).with_scheme(scheme);
        let part = partition_graph_with(&g, &cfg, &mut ws);
        assert_eq!(part.len(), g.nvtx());
    }
}

#[test]
fn warm_partitioner_allocates_far_less_than_cold() {
    // Not a strict-zero contract (the result vector and a few per-call
    // temporaries are real allocations), but reuse must eliminate the bulk:
    // a warm call may allocate at most a tenth of a cold one.
    let g = grid_graph(40, 40);
    let cfg = PartitionConfig::new(8).with_seed(3);
    let (_, cold) = count_allocations(|| {
        let mut ws = PartitionWorkspace::new();
        partition_graph_with(&g, &cfg, &mut ws)
    });
    let mut ws = PartitionWorkspace::new();
    let _ = partition_graph_with(&g, &cfg, &mut ws);
    let (_, warm) = count_allocations(|| partition_graph_with(&g, &cfg, &mut ws));
    assert!(
        warm * 10 <= cold,
        "workspace reuse too weak: cold {cold} allocations vs warm {warm}"
    );
}

/// `grid_graph(96, 96)` split into 16 under unit weights, handed back with
/// weights graded ×4 along the columns: both the pairwise refinement and the
/// diffusion repartitioner have real work to do on it.
fn graded_grid() -> (tempart_graph::CsrGraph, Vec<u32>) {
    let g = grid_graph(96, 96);
    let part = partition_graph_with(
        &g,
        &PartitionConfig::new(16),
        &mut PartitionWorkspace::new(),
    );
    let vwgt = (0..g.nvtx())
        .map(|v| 1 + (v % 96 * 4 / 96) as u32)
        .collect();
    (g.with_vertex_weights(vwgt, 1), part)
}

#[test]
fn warm_pairwise_kway_refine_does_not_allocate() {
    let (g, _) = graded_grid();
    // A hash-scattered start: every part pair is adjacent and most boundary
    // vertices have a positive-gain move.
    let start: Vec<u32> = (0..g.nvtx() as u64)
        .map(|v| ((v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 16) as u32)
        .collect();
    let cfg = PartitionConfig::new(16).with_ub(1.30);
    let mut ws = PartitionWorkspace::new();
    let run = |ws: &mut PartitionWorkspace| {
        let mut part = start.clone();
        count_allocations(|| pairwise_kway_refine_ws(&g, &mut part, &cfg, ws))
    };
    run(&mut ws);
    run(&mut ws);
    let (moves, allocs) = run(&mut ws);
    assert!(moves > 0, "graded weights must leave positive-gain moves");
    assert_eq!(allocs, 0, "warm call allocated {allocs} times");
}

/// Runs `repartition_ws` on `g` from `start` three times on one workspace
/// and asserts that the third call moved cells over several rounds and
/// allocated nothing.
fn assert_warm_repartition_does_not_allocate(
    g: &tempart_graph::CsrGraph,
    start: &[u32],
    cfg: &RepartConfig,
) {
    let mut ws = PartitionWorkspace::new();
    let run = |ws: &mut PartitionWorkspace| {
        let mut part = start.to_vec();
        count_allocations(|| repartition_ws(g, &mut part, cfg, ws))
    };
    run(&mut ws);
    run(&mut ws);
    let (stats, allocs) = run(&mut ws);
    assert!(stats.cells_moved > 0 && stats.rounds > 1);
    assert_eq!(
        allocs, 0,
        "warm call allocated {allocs} times over {} rounds",
        stats.rounds
    );
}

#[test]
fn warm_repartition_does_not_allocate() {
    let (g, start) = graded_grid();
    assert_warm_repartition_does_not_allocate(&g, &start, &RepartConfig::new(16).with_ub(1.05));
}

#[test]
fn warm_multi_constraint_repartition_does_not_allocate() {
    // `graded_grid`'s partition under three one-hot constraints: the left
    // third of the columns carries constraint 1 (a graded drift), one cell
    // in 61 constraint 2 — about nine per part, so its surpluses are
    // sub-cell and the promotion's incident-pair index and realizability
    // memo are built and asked in the measured call — the rest constraint 0.
    let (g, start) = graded_grid();
    let vwgt = (0..g.nvtx())
        .flat_map(|v| {
            let c = if v % 61 == 0 {
                2
            } else {
                usize::from(v % 96 < 32)
            };
            (0..3).map(move |x| u32::from(x == c))
        })
        .collect();
    let g = g.with_vertex_weights(vwgt, 3);
    assert_warm_repartition_does_not_allocate(&g, &start, &RepartConfig::new(16));
}
