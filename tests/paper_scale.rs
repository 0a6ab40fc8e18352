//! Opt-in paper-scale suite (`TEMPART_PAPER_SCALE=1`).
//!
//! These tests exercise the SFC partition at the paper's actual Table I
//! sizes — a 12.6M-cell PPRIME_NOZZLE-class cloud — and a full-connectivity
//! mesh one octave past the laptop scale, which takes tens of seconds and
//! hundreds of MB, so they no-op (with a note) unless the environment opts
//! in. ci.sh runs them in its `paper-scale` stage; the
//! default tier-1 / workspace stages never pay for them.

mod common;

use common::oracle;
use std::time::Instant;
use tempart::mesh::{cloud_cell_count, paper_scale_nside, sfc_cloud, GeneratorConfig, MeshCase};
use tempart::partition::{sfc_partition_with, Curve, SfcWorkspace};
use tempart_testkit::alloc::{live_bytes, CountingAllocator};
use tempart_testkit::{peak_rss_bytes, SplitMix64};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn enabled(test: &str) -> bool {
    if std::env::var("TEMPART_PAPER_SCALE").as_deref() == Ok("1") {
        true
    } else {
        eprintln!("{test}: skipped (set TEMPART_PAPER_SCALE=1 to run)");
        false
    }
}

/// The calibration contract behind `paper_scale_nside`: each case's cloud
/// lands within 1 % of the paper's Table I cell count.
#[test]
fn cloud_counts_match_table1() {
    if !enabled("cloud_counts_match_table1") {
        return;
    }
    for case in MeshCase::ALL {
        let n = cloud_cell_count(case, paper_scale_nside(case));
        let paper = case.paper_cell_count();
        let drift = (n as f64 - paper as f64).abs() / paper as f64;
        assert!(
            drift < 0.01,
            "{}: cloud {n} vs Table I {paper} ({:+.2} %)",
            case.name(),
            (n as f64 / paper as f64 - 1.0) * 100.0
        );
    }
}

/// The bucket walk past the widest bucket table (≥1M uniformly random
/// points, about 16 a bucket): parallel widths 1/2/4 diffed bit for bit
/// against the sort-and-walk oracle.
#[test]
fn million_point_sort_matches_sequential() {
    if !enabled("million_point_sort_matches_sequential") {
        return;
    }
    let n = 1 << 20;
    let mut rng = SplitMix64::new(0x9A9E_125C_A1E5);
    let mut centroids = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        let f = |r: &mut SplitMix64| (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        centroids.push([f(&mut rng), f(&mut rng), f(&mut rng)]);
        weights.push(1 + rng.next_u64() % 8);
    }
    let k = 96;
    for curve in [Curve::Morton, Curve::Hilbert] {
        let seq = oracle(&centroids, &weights, k, curve);
        let mut ws = SfcWorkspace::new();
        for workers in [1usize, 2, 4] {
            let par = sfc_partition_with(&centroids, &weights, k, curve, workers, &mut ws);
            assert_eq!(par, seq, "{curve:?} w{workers} diverged at n = {n}");
        }
    }
}

/// The headline acceptance: a 12.6M-cell-class cloud partitions through the
/// parallel SFC pipeline in bounded memory, every part populated and
/// balanced, with each call's elapsed time and the RSS numbers printed.
#[test]
fn pprime_scale_cloud_partitions_in_bounded_memory() {
    if !enabled("pprime_scale_cloud_partitions_in_bounded_memory") {
        return;
    }
    let case = MeshCase::PprimeNozzle;
    let cloud = sfc_cloud(case, paper_scale_nside(case));
    let n = cloud.n_points();
    assert!(n > 12_000_000, "expected a 12.6M-class cloud, got {n}");
    let weights = cloud.operating_costs();
    let total: u64 = weights.iter().sum();
    let k = 96;
    let mut ws = SfcWorkspace::new();
    let timed = |workers: usize, ws: &mut SfcWorkspace| {
        let start = Instant::now();
        let part = sfc_partition_with(&cloud.centroids, &weights, k, Curve::Hilbert, workers, ws);
        eprintln!(
            "paper-scale SFC report: Hilbert w{workers}: {n} points partitioned in {:.2} s",
            start.elapsed().as_secs_f64()
        );
        part
    };
    // The first call also allocates the workspace's arenas; the w1 call
    // below reuses them.
    let part = timed(4, &mut ws);
    assert_eq!(part.len(), n);
    // Every part populated, and no part above ~1.05× the ideal load (the
    // greedy splitter's worst case is ideal + one max-weight point, which
    // at 12.6M points is far below 5 %).
    let mut loads = vec![0u64; k];
    for (i, &p) in part.iter().enumerate() {
        loads[p as usize] += weights[i];
    }
    let ideal = total as f64 / k as f64;
    for (p, &l) in loads.iter().enumerate() {
        assert!(l > 0, "part {p} is empty");
        assert!(
            (l as f64) < ideal * 1.05,
            "part {p} load {l} vs ideal {ideal:.0}"
        );
    }
    // Parallel, sequential and the sort-and-walk oracle agree at full
    // scale too.
    let seq = timed(1, &mut ws);
    assert_eq!(part, seq, "w4 diverged from w1 at n = {n}");
    let expect = oracle(&cloud.centroids, &weights, k, Curve::Hilbert);
    assert_eq!(
        part, expect,
        "bucket walk diverged from the oracle at n = {n}"
    );
    // Bounded memory: the whole run — cloud, weights, sort arenas, part
    // vectors — must stay well under 4 GiB peak RSS (the seed's u128-keyed
    // comparison sort with a full faces mesh needed several times that).
    eprintln!(
        "paper-scale RSS report: workspace peak {} MiB",
        ws.peak_bytes() / (1024 * 1024)
    );
    if let Some(rss) = peak_rss_bytes() {
        eprintln!(
            "paper-scale RSS report: process peak {} MiB",
            rss / (1024 * 1024)
        );
        assert!(
            rss < 4 << 30,
            "peak RSS {} MiB exceeds the 4 GiB paper-scale budget",
            rss / (1024 * 1024)
        );
    }
}

/// The full-connectivity row: a CYLINDER mesh at `base_depth` 6 (cells,
/// faces, the cell → face CSR and τ) holds at most 128 live heap bytes a
/// cell, the bound that puts the paper's 6.4M-cell CYLINDER under 800 MiB.
#[test]
fn full_mesh_at_depth_six_holds_at_most_128_bytes_a_cell() {
    if !enabled("full_mesh_at_depth_six_holds_at_most_128_bytes_a_cell") {
        return;
    }
    let before = live_bytes();
    let start = Instant::now();
    let mesh = MeshCase::Cylinder.generate(&GeneratorConfig { base_depth: 6 });
    let secs = start.elapsed().as_secs_f64();
    let held = live_bytes() - before;
    let per_cell = held as f64 / mesh.n_cells() as f64;
    eprintln!(
        "paper-scale mesh report: CYLINDER depth 6: {} cells, {} faces, {held} B live \
         ({per_cell:.1} B/cell), generated in {secs:.2} s",
        mesh.n_cells(),
        mesh.n_faces(),
    );
    if let Some(rss) = peak_rss_bytes() {
        eprintln!(
            "paper-scale mesh report: process peak {} MiB (every test of this binary so far)",
            rss / (1024 * 1024)
        );
    }
    assert!(
        per_cell <= 128.0,
        "CYLINDER depth 6: {per_cell:.1} B/cell above 128"
    );
}
