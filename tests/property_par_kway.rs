//! Property tests for the partitioner's width invariance and for the edge
//! colouring behind the pairwise k-way schedule.
//!
//! The contract under test: `partition_graph_par_traced` is
//! **bit-identical** to the sequential `partition_graph` for every scheme
//! at every fork-join width — one bisection tree walk serves every width,
//! the pairwise k-way refinement runs its one pinned schedule. These graded
//! meshes (176–421 cells) sit below the walk's 512-vertex fork cutoff, so
//! every width runs the whole tree as one inline subtree; the fan-out at
//! depth is checked in the partition crate
//! (`par::tests::every_scheme_matches_sequential_four_fork_levels_deep`).

use tempart::core_api::{strategy_weights, PartitionStrategy};
use tempart::mesh::{Mesh, Octree, OctreeConfig, TemporalScheme};
use tempart::obs::Recorder;
use tempart::partition::{
    colour_pairs, partition_graph, partition_graph_par_traced, PartitionConfig, Scheme,
    WorkspacePool,
};
use tempart_testkit::prop::vec_of;
use tempart_testkit::{prop_assert, prop_assert_eq, proptest};

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
    #![config(cases = 6, seed = 0x7E57_0077)]

    fn every_scheme_is_width_invariant(
        r1 in tempart_testkit::prop::bools(),
        r2 in tempart_testkit::prop::bools(),
        k_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let m = random_mesh(r1, r2, 3);
        let k = [4usize, 8, 16][k_idx];
        for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
            let (w, ncon) = strategy_weights(&m, strategy);
            let g = m.to_graph().with_vertex_weights(w, ncon);
            for scheme in [Scheme::RecursiveBisection, Scheme::KWayRefined] {
                let cfg = PartitionConfig::new(k)
                    .with_seed(seed)
                    .with_scheme(scheme)
                    .with_ub(if ncon > 1 { 1.10 } else { 1.05 });
                let seq = partition_graph(&g, &cfg);
                prop_assert_eq!(seq.len(), m.n_cells());
                for workers in 1usize..=4 {
                    let pool = WorkspacePool::new(workers);
                    let par = partition_graph_par_traced(&g, &cfg, workers, &pool, Recorder::off());
                    prop_assert_eq!(&par, &seq);
                    // Warm pool rerun: leased workspaces are capacity, not
                    // state — the answer must not change.
                    let warm = partition_graph_par_traced(&g, &cfg, workers, &pool, Recorder::off());
                    prop_assert_eq!(&warm, &seq);
                }
            }
        }
    }

    fn greedy_edge_colouring_is_valid_on_random_pair_lists(
        raw in vec_of((0u32..24, 0u32..24), 1..80),
    ) {
        // Normalise to the pair-list invariant: p < q, sorted, deduped.
        let mut pairs: Vec<(u32, u32)> = raw
            .iter()
            .filter(|&&(a, b)| a != b)
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        if pairs.is_empty() {
            return Ok(());
        }
        let (mut used, mut colours) = (Vec::new(), Vec::new());
        let ncolours = colour_pairs(&pairs, 24, &mut used, &mut colours);
        prop_assert_eq!(colours.len(), pairs.len());
        // Proper edge colouring: no part appears twice within a colour.
        for colour in 0..ncolours as u32 {
            let mut seen = [false; 24];
            for (i, &(p, q)) in pairs.iter().enumerate() {
                if colours[i] != colour {
                    continue;
                }
                prop_assert!(!seen[p as usize] && !seen[q as usize]);
                seen[p as usize] = true;
                seen[q as usize] = true;
            }
        }
        // Deterministic: same input, same colouring (dirty scratch too).
        let mut colours2 = Vec::new();
        let ncolours2 = colour_pairs(&pairs, 24, &mut used, &mut colours2);
        prop_assert_eq!(ncolours, ncolours2);
        prop_assert_eq!(&colours, &colours2);
    }
}
