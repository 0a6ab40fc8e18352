//! Property tests for the geometric SFC partition.
//!
//! The contract under test: `sfc_partition_with` returns exactly what the
//! textbook method returns — every point's curve key from the public
//! `hilbert_index` / `morton_index`, the `(key, id)` pairs sorted, and the
//! sorted order cut into `k` chunks by the running-remainder walk — at every
//! fork-join width, on one workspace reused across widths. The oracle
//! (`tests/common/mod.rs`) is written out independently of the crate's
//! bucket walk, so that a wrong bulk-assignment rule (a bucket handed to one
//! chunk although a chunk boundary falls inside it) shows up as a
//! part-vector diff.

mod common;

use common::oracle;
use tempart::core_api::{strategy_weights, PartitionStrategy};
use tempart::mesh::{Mesh, Octree, OctreeConfig, TemporalScheme};
use tempart::partition::{
    sfc_partition, sfc_partition_by, sfc_partition_with, Curve, SfcWorkspace,
};
use tempart_testkit::rng::Rng;
use tempart_testkit::{prop_assert, prop_assert_eq, proptest};

/// A point of the cube drawn from `rng`.
fn point(rng: &mut Rng) -> [f64; 3] {
    [rng.gen_f64(), rng.gen_f64(), rng.gen_f64()]
}

/// `n` points of one of six clouds: uniform, all on one key, the cell
/// centres of a 2-, 4- or 64-cell-wide lattice (many points a key), and a
/// cluster narrower than one quantiser step at the top bits (every point in
/// a few buckets).
fn cloud(shape: usize, n: usize, rng: &mut Rng) -> Vec<[f64; 3]> {
    let centre = point(rng);
    (0..n)
        .map(|_| match shape {
            0 => point(rng),
            1 => centre,
            2..=4 => {
                let side = [2u64, 4, 64][shape - 2];
                [(); 3].map(|_| (rng.bounded_u64(side) as f64 + 0.5) / side as f64)
            }
            _ => centre.map(|c| c + rng.gen_f64() * 1e-4),
        })
        .collect()
}

/// Unit weights, weights in 0..=3 (many zeros), or weights in 1..=8 with
/// one point of weight 2^40.
fn weights(kind: usize, n: usize, rng: &mut Rng) -> Vec<u64> {
    let mut w: Vec<u64> = (0..n)
        .map(|_| match kind {
            0 => 1,
            1 => rng.bounded_u64(4),
            _ => 1 + rng.bounded_u64(8),
        })
        .collect();
    if kind == 2 && n > 0 {
        let heavy = rng.bounded_u64(n as u64) as usize;
        w[heavy] = 1 << 40;
    }
    w
}

/// Runs `sfc_partition_with` at widths 1..=4 on one workspace and compares
/// every result with the oracle.
fn assert_matches_oracle(
    centroids: &[[f64; 3]],
    weights: &[u64],
    k: usize,
    curve: Curve,
    ws: &mut SfcWorkspace,
) -> Result<(), String> {
    let expect = oracle(centroids, weights, k, curve);
    for workers in 1usize..=4 {
        let got = sfc_partition_with(centroids, weights, k, curve, workers, ws);
        prop_assert!(
            got == expect,
            "{curve:?} n={} k={k} w{workers}: first diff at {:?}",
            centroids.len(),
            got.iter().zip(&expect).position(|(a, b)| a != b)
        );
    }
    Ok(())
}

/// Builds a random graded mesh from octant refinement choices.
fn random_mesh(r1: bool, r2: bool, levels: u8) -> Mesh {
    let cfg = OctreeConfig {
        base_depth: 2,
        max_depth: 4,
    };
    let tree = Octree::build(&cfg, |c, _, d| {
        let near_origin = c[0] < 0.4 && c[1] < 0.4 && c[2] < 0.4;
        let near_far = c[0] > 0.6 && c[1] > 0.6;
        (d == 2 && r1 && near_origin) || (d == 3 && r2 && near_origin) || (d == 2 && near_far)
    });
    let mut m = Mesh::from_octree(&tree);
    TemporalScheme::new(levels).assign(&mut m);
    m
}

proptest! {
    #![config(cases = 64, seed = 0x5FC_2035)]

    fn bucket_walk_matches_the_sort_and_walk_oracle(
        shape in 0usize..6,
        n_pick in 0usize..6,
        n_any in 2usize..140_000,
        k_pick in 0usize..5,
        k_any in 1usize..1024,
        kind in 0usize..3,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        // The edges of the bucket widths and of the old sort cutoff, more
        // points than one 16-bit bucket table, and anything up to 140 000.
        let n = [0, 1, 4095, 4096, 65_537 + n_any % 8192, n_any][n_pick];
        let pts = cloud(shape, n, &mut rng);
        let w = weights(kind, n, &mut rng);
        let k = [1, 2, n.max(1), n + 3, k_any][k_pick];
        let mut ws = SfcWorkspace::new();
        for curve in [Curve::Morton, Curve::Hilbert] {
            assert_matches_oracle(&pts, &w, k, curve, &mut ws)?;
        }
    }
}

proptest! {
    #![config(cases = 8, seed = 0x5FC_2026)]

    fn graded_meshes_match_the_sort_and_walk_oracle(
        r1 in tempart_testkit::prop::bools(),
        r2 in tempart_testkit::prop::bools(),
        k_idx in 0usize..3,
    ) {
        let m = random_mesh(r1, r2, 3);
        let centroids: Vec<[f64; 3]> = m.cells().iter().map(|c| c.centroid).collect();
        let (w, _) = strategy_weights(&m, PartitionStrategy::ScOc);
        let weights: Vec<u64> = w.into_iter().map(u64::from).collect();
        let k = [4usize, 16, 48][k_idx];
        let mut ws = SfcWorkspace::new();
        for curve in [Curve::Morton, Curve::Hilbert] {
            assert_matches_oracle(&centroids, &weights, k, curve, &mut ws)?;
            // The one-worker wrapper is the same call.
            let part = sfc_partition(&centroids, &weights, k, curve);
            prop_assert_eq!(&part, &oracle(&centroids, &weights, k, curve));
            // Every part is used when enough points exist.
            if m.n_cells() >= k {
                let mut seen = vec![false; k];
                for &p in &part {
                    seen[p as usize] = true;
                }
                prop_assert!(seen.iter().all(|&s| s));
            }
        }
    }
}

proptest! {
    #![config(cases = 16, seed = 0x5FC_2046)]

    fn the_cell_reading_entry_matches_gathered_centroids(
        r1 in tempart_testkit::prop::bools(),
        r2 in tempart_testkit::prop::bools(),
        k_idx in 0usize..4,
        heavy in tempart_testkit::prop::bools(),
        seed in 0u64..1 << 32,
    ) {
        // The mesh's own `u32` weights, or random ones up to `u32::MAX`
        // whose sum overflows a `u32`.
        let m = random_mesh(r1, r2, 3);
        let w: Vec<u32> = if heavy {
            let mut rng = Rng::seed_from_u64(seed);
            (0..m.n_cells()).map(|_| rng.bounded_u64(1 << 32) as u32).collect()
        } else {
            strategy_weights(&m, PartitionStrategy::ScOc).0
        };
        let centroids: Vec<[f64; 3]> = m.cells().iter().map(|c| c.centroid).collect();
        let weights: Vec<u64> = w.iter().map(|&x| u64::from(x)).collect();
        let k = [1usize, 7, 64, m.n_cells() + 2][k_idx];
        let mut ws = SfcWorkspace::new();
        for curve in [Curve::Morton, Curve::Hilbert] {
            for workers in 1usize..=4 {
                let gathered = sfc_partition_with(&centroids, &weights, k, curve, workers, &mut ws);
                let weight = |i: usize| u64::from(w[i]);
                let got = sfc_partition_by(m.cells(), |c| c.centroid, weight, k, curve, workers, &mut ws);
                prop_assert!(got == gathered, "{curve:?} k={k} w{workers}");
            }
        }
    }
}
