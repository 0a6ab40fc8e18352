//! Partition-quality metrics: edge cut, communication volume, imbalance.

use crate::{CsrGraph, PartId};

/// Sum of the weights of edges whose endpoints lie in different parts.
///
/// This is the classic objective minimized by graph partitioners and the
/// quantity the paper uses to estimate inter-process communication
/// (Fig. 11b): "a communication is considered to be an edge of the task graph
/// connecting two nodes whose domains are distributed across two different
/// processes".
pub fn edge_cut(graph: &CsrGraph, part: &[PartId]) -> i64 {
    assert_eq!(part.len(), graph.nvtx(), "partition vector length");
    let mut cut = 0i64;
    for v in 0..graph.nvtx() as u32 {
        let pv = part[v as usize];
        for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
            if part[u as usize] != pv {
                cut += i64::from(w);
            }
        }
    }
    cut / 2
}

/// Total communication volume: for every vertex, the number of *distinct*
/// remote parts among its neighbours (each boundary vertex must be sent once
/// to each remote part that reads it).
pub fn communication_volume(graph: &CsrGraph, part: &[PartId]) -> i64 {
    assert_eq!(part.len(), graph.nvtx(), "partition vector length");
    let mut volume = 0i64;
    let mut seen: Vec<PartId> = Vec::with_capacity(8);
    for v in 0..graph.nvtx() as u32 {
        let pv = part[v as usize];
        seen.clear();
        for u in graph.neighbors(v) {
            let pu = part[u as usize];
            if pu != pv && !seen.contains(&pu) {
                seen.push(pu);
            }
        }
        volume += seen.len() as i64;
    }
    volume
}

/// Per-part, per-constraint weight sums: `result[p][c]`.
pub fn part_weights(graph: &CsrGraph, part: &[PartId], nparts: usize) -> Vec<Vec<i64>> {
    assert_eq!(part.len(), graph.nvtx(), "partition vector length");
    let ncon = graph.ncon();
    let mut w = vec![vec![0i64; ncon]; nparts];
    for (v, &p) in part.iter().enumerate() {
        let p = p as usize;
        assert!(p < nparts, "part id {p} out of range");
        let vw = graph.vertex_weights(v as u32);
        for c in 0..ncon {
            w[p][c] += i64::from(vw[c]);
        }
    }
    w
}

/// Per-constraint imbalance factors.
///
/// For constraint `c`, the imbalance is `max_p w[p][c] / (total[c] / nparts)`;
/// a perfectly balanced constraint yields `1.0`. Constraints whose total
/// weight is zero report `1.0`.
pub fn constraint_imbalances(graph: &CsrGraph, part: &[PartId], nparts: usize) -> Vec<f64> {
    let w = part_weights(graph, part, nparts);
    let ncon = graph.ncon();
    let mut out = Vec::with_capacity(ncon);
    for c in 0..ncon {
        let total: i64 = w.iter().map(|pw| pw[c]).sum();
        if total == 0 {
            out.push(1.0);
            continue;
        }
        let maxp = w.iter().map(|pw| pw[c]).max().unwrap_or(0);
        out.push(maxp as f64 * nparts as f64 / total as f64);
    }
    out
}

/// The worst per-constraint imbalance (see [`constraint_imbalances`]).
pub fn max_imbalance(graph: &CsrGraph, part: &[PartId], nparts: usize) -> f64 {
    constraint_imbalances(graph, part, nparts)
        .into_iter()
        .fold(1.0f64, f64::max)
}

/// Volume of data migration between two partitions of the same vertex set:
/// the total vertex weight (first constraint; falls back to vertex count for
/// all-zero weights) that changes part. This is the repartitioning cost the
/// drift experiments trade against staleness.
pub fn migration_volume(graph: &CsrGraph, old: &[PartId], new: &[PartId]) -> i64 {
    assert_eq!(old.len(), graph.nvtx(), "old partition length");
    assert_eq!(new.len(), graph.nvtx(), "new partition length");
    let mut vol = 0i64;
    for v in 0..graph.nvtx() {
        if old[v] != new[v] {
            let w = i64::from(graph.vertex_weights(v as u32)[0]);
            vol += w.max(1);
        }
    }
    vol
}

/// What moving from one partition to another costs: the migration ledger
/// of one repartitioning step, pricing cell moves the way the task graph
/// prices halo exchanges (`face_payload_bytes`, 40 bytes per conservative
/// state vector by default).
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationStats {
    /// Number of cells whose part changed.
    pub cells_moved: usize,
    /// Weighted migration volume (see [`migration_volume`]).
    pub volume: i64,
    /// Migration traffic in bytes: `cells_moved × payload_bytes`.
    pub bytes: u64,
    /// Per-constraint imbalance factors before the move.
    pub imbalance_before: Vec<f64>,
    /// Per-constraint imbalance factors after the move.
    pub imbalance_after: Vec<f64>,
}

impl MigrationStats {
    /// Measures the migration from `old` to `new` under per-cell payload
    /// `payload_bytes`.
    pub fn measure(
        graph: &CsrGraph,
        old: &[PartId],
        new: &[PartId],
        nparts: usize,
        payload_bytes: u64,
    ) -> Self {
        let cells_moved = old.iter().zip(new).filter(|(a, b)| a != b).count();
        Self {
            cells_moved,
            volume: migration_volume(graph, old, new),
            bytes: cells_moved as u64 * payload_bytes,
            imbalance_before: constraint_imbalances(graph, old, nparts),
            imbalance_after: constraint_imbalances(graph, new, nparts),
        }
    }
}

/// Aggregate quality report for a partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionQuality {
    /// Number of parts the report was computed for.
    pub nparts: usize,
    /// Edge cut (see [`edge_cut`]).
    pub edge_cut: i64,
    /// Communication volume (see [`communication_volume`]).
    pub comm_volume: i64,
    /// Per-constraint imbalance factors (1.0 = perfect).
    pub imbalances: Vec<f64>,
    /// Number of connected components summed over all parts; equals `nparts`
    /// when every domain is connected (the paper notes MC_TL often is not).
    pub part_components: usize,
}

impl PartitionQuality {
    /// Computes all metrics for `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part` has the wrong length or holds a part id `≥ nparts`.
    pub fn measure(graph: &CsrGraph, part: &[PartId], nparts: usize) -> Self {
        Self {
            nparts,
            edge_cut: edge_cut(graph, part),
            comm_volume: communication_volume(graph, part),
            imbalances: constraint_imbalances(graph, part, nparts),
            part_components: crate::components::part_connectivity(graph, part, nparts),
        }
    }

    /// Worst per-constraint imbalance.
    pub fn max_imbalance(&self) -> f64 {
        self.imbalances.iter().copied().fold(1.0f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::grid_graph;
    use crate::GraphBuilder;

    #[test]
    fn cut_of_split_path() {
        // 0-1-2-3 split [0,0,1,1] cuts exactly edge {1,2}.
        let mut b = GraphBuilder::new(4, 1);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 7);
        b.add_edge(2, 3, 1);
        let g = b.build();
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 7);
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0);
    }

    #[test]
    fn comm_volume_counts_distinct_parts() {
        // Star: centre 0 with leaves in parts 1,1,2 -> centre sends to 2 parts,
        // each leaf sends to 1 (part 0 of centre).
        let mut b = GraphBuilder::new(4, 1);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(0, 3, 1);
        let g = b.build();
        assert_eq!(communication_volume(&g, &[0, 1, 1, 2]), 2 + 1 + 1 + 1);
    }

    #[test]
    fn imbalance_perfect_and_skewed() {
        let g = grid_graph(4, 1); // path of 4, unit weights
        let bal = constraint_imbalances(&g, &[0, 0, 1, 1], 2);
        assert!((bal[0] - 1.0).abs() < 1e-12);
        let skew = constraint_imbalances(&g, &[0, 0, 0, 1], 2);
        assert!((skew[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn multiconstraint_imbalance() {
        // Two vertices, ncon=2; weights [1,0] and [0,1]; each part holds all of
        // one constraint -> imbalance 2.0 in both.
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 1, 1);
        b.set_vertex_weights(0, &[1, 0]);
        b.set_vertex_weights(1, &[0, 1]);
        let g = b.build();
        let bal = constraint_imbalances(&g, &[0, 1], 2);
        assert_eq!(bal, vec![2.0, 2.0]);
        assert!((max_imbalance(&g, &[0, 1], 2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_total_constraint_reports_one() {
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 1, 1);
        b.set_vertex_weights(0, &[0]);
        b.set_vertex_weights(1, &[0]);
        let g = b.build();
        assert_eq!(constraint_imbalances(&g, &[0, 1], 2), vec![1.0]);
    }

    #[test]
    fn migration_stats_ledger() {
        let g = grid_graph(4, 1); // path of 4, unit weights
        let old = [0u32, 0, 0, 1];
        let new = [0u32, 0, 1, 1];
        let stats = MigrationStats::measure(&g, &old, &new, 2, 40);
        assert_eq!(stats.cells_moved, 1);
        assert_eq!(stats.volume, 1);
        assert_eq!(stats.bytes, 40);
        assert_eq!(stats.imbalance_before, vec![1.5]);
        assert_eq!(stats.imbalance_after, vec![1.0]);
        let frozen = MigrationStats::measure(&g, &old, &old, 2, 40);
        assert_eq!(frozen.cells_moved, 0);
        assert_eq!(frozen.bytes, 0);
    }

    #[test]
    fn migration_counts_moved_weight() {
        let g = grid_graph(4, 1);
        assert_eq!(migration_volume(&g, &[0, 0, 1, 1], &[0, 0, 1, 1]), 0);
        assert_eq!(migration_volume(&g, &[0, 0, 1, 1], &[0, 1, 1, 0]), 2);
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 1, 1);
        b.set_vertex_weights(0, &[5]);
        let g2 = b.build();
        assert_eq!(migration_volume(&g2, &[0, 0], &[1, 0]), 5);
    }

    #[test]
    fn quality_report() {
        let g = grid_graph(4, 4);
        let part: Vec<u32> = (0..16).map(|i| if i % 4 < 2 { 0 } else { 1 }).collect();
        let q = PartitionQuality::measure(&g, &part, 2);
        assert_eq!(q.edge_cut, 4);
        assert_eq!(q.comm_volume, 8);
        assert!((q.max_imbalance() - 1.0).abs() < 1e-12);
        assert_eq!(q.part_components, 2);
    }

    /// A random instance for the quality oracle: `n` vertices with `ncon`
    /// weights in 0..=4, up to `3n` edges of weight 0..=3 among the first
    /// `n − n/4` vertices (the rest stay isolated), and `k ≤ n` parts of
    /// which only the first few are used, so the others are empty.
    fn random_instance(n: usize, ncon: usize, seed: u64) -> (CsrGraph, Vec<PartId>, usize) {
        let mut rng = tempart_testkit::rng::Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n, ncon);
        for v in 0..n as u32 {
            let w: Vec<u32> = (0..ncon).map(|_| rng.bounded_u64(5) as u32).collect();
            b.set_vertex_weights(v, &w);
        }
        let linked = (n - n / 4) as u64;
        if linked >= 2 {
            for _ in 0..rng.bounded_u64(3 * n as u64) {
                let u = rng.bounded_u64(linked) as u32;
                let v = rng.bounded_u64(linked) as u32;
                if u != v {
                    b.add_edge(u, v, rng.bounded_u64(4) as u32);
                }
            }
        }
        let k = 1 + rng.bounded_u64(n.max(1) as u64) as usize;
        let used = 1 + rng.bounded_u64(k as u64);
        let part = (0..n).map(|_| rng.bounded_u64(used) as PartId).collect();
        (b.build(), part, k)
    }

    tempart_testkit::proptest! {
        #![config(cases = 512, seed = 0x0A11_7E57)]

        fn measure_equals_the_standalone_metrics(
            n in 0usize..48,
            ncon in 1usize..4,
            seed in 0u64..1 << 32,
        ) {
            let (g, part, k) = random_instance(n, ncon, seed);
            let oracle = PartitionQuality {
                nparts: k,
                edge_cut: edge_cut(&g, &part),
                comm_volume: communication_volume(&g, &part),
                imbalances: constraint_imbalances(&g, &part, k),
                part_components: crate::components::part_connectivity_dfs(&g, &part),
            };
            tempart_testkit::prop_assert_eq!(PartitionQuality::measure(&g, &part, k), oracle);
        }
    }

    #[test]
    #[should_panic(expected = "part id 3 out of range")]
    fn measure_rejects_an_out_of_range_part_id() {
        // The bad id sits on the last vertex.
        PartitionQuality::measure(&grid_graph(4, 1), &[0, 0, 1, 3], 3);
    }
}
