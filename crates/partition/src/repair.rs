//! Contiguity repair: post-processing disconnected domains.
//!
//! The paper's conclusion flags this as future work: multi-constraint
//! partitioners "tend to create disconnected subdomains that increase the
//! number of domain borders and, thus, the number of communications and
//! tasks". This pass finds, inside every domain, all connected fragments
//! except the heaviest one, and migrates each fragment to the neighbouring
//! domain with the strongest edge connection — provided the move does not
//! push that domain's constraints above an allowance.

use crate::PartitionConfig;
use tempart_graph::{CsrGraph, PartId};
use tempart_obs::Recorder;

/// Outcome of a repair pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Fragments migrated to a neighbour.
    pub fragments_moved: usize,
    /// Vertices reassigned in total.
    pub vertices_moved: usize,
    /// Fragments left in place because every candidate target would have
    /// exceeded its balance allowance.
    pub fragments_kept: usize,
}

/// Repairs domain contiguity in `part` (in place).
///
/// A *fragment* is a connected component of a domain's induced subgraph that
/// is not the domain's largest component (by total first-constraint weight).
/// Each fragment moves to the neighbouring domain with the largest connecting
/// edge weight if that domain stays within `config.ub(c) × (total_c / nparts)`
/// for every constraint `c`; otherwise it stays.
///
/// `rec` receives a `"part.repair"` wall span and `part.repair.*` counters
/// (fragments moved / vertices moved / fragments kept).
pub fn repair_contiguity(
    graph: &CsrGraph,
    part: &mut [PartId],
    config: &PartitionConfig,
    rec: &Recorder,
) -> RepairReport {
    let _span = tempart_obs::span!(rec, "part.repair", track = 0, arg = config.nparts as u64);
    let report = repair_impl(graph, part, config);
    if rec.enabled() {
        rec.counter(
            "part.repair.fragments_moved",
            0,
            report.fragments_moved as u64,
        );
        rec.counter(
            "part.repair.vertices_moved",
            0,
            report.vertices_moved as u64,
        );
        rec.counter(
            "part.repair.fragments_kept",
            0,
            report.fragments_kept as u64,
        );
    }
    report
}

fn repair_impl(graph: &CsrGraph, part: &mut [PartId], config: &PartitionConfig) -> RepairReport {
    let n = graph.nvtx();
    let k = config.nparts;
    let ncon = graph.ncon();
    assert_eq!(part.len(), n, "partition vector length");

    // Label connected fragments per domain.
    let mut frag = vec![u32::MAX; n];
    let mut frags: Vec<Vec<u32>> = Vec::new(); // fragment -> vertices
    let mut frag_domain: Vec<PartId> = Vec::new();
    let mut stack = Vec::new();
    for s in 0..n as u32 {
        if frag[s as usize] != u32::MAX {
            continue;
        }
        let fid = frags.len() as u32;
        let d = part[s as usize];
        frag[s as usize] = fid;
        stack.push(s);
        let mut members = Vec::new();
        while let Some(v) = stack.pop() {
            members.push(v);
            for u in graph.neighbors(v) {
                if frag[u as usize] == u32::MAX && part[u as usize] == d {
                    frag[u as usize] = fid;
                    stack.push(u);
                }
            }
        }
        frags.push(members);
        frag_domain.push(d);
    }

    // Current per-domain constraint weights and allowances.
    let totals = graph.total_weights();
    let mut dw = vec![0i64; k * ncon];
    for (v, &d) in part.iter().enumerate() {
        let d = d as usize;
        let vw = graph.vertex_weights(v as u32);
        for c in 0..ncon {
            dw[d * ncon + c] += i64::from(vw[c]);
        }
    }
    let allowance: Vec<f64> = (0..ncon)
        .map(|c| totals[c] as f64 / k as f64 * config.ub(c))
        .collect();
    // Per-constraint ceiling for move targets: the configured allowance, or
    // the current worst domain load when the partition already exceeds it.
    // Contiguity repair must not be vetoed by pre-existing imbalance it did
    // not cause — but it may never make the worst load worse either (targets
    // stay at or below the initial per-constraint maximum).
    let ceiling: Vec<f64> = (0..ncon)
        .map(|c| {
            let worst = (0..k).map(|d| dw[d * ncon + c]).max().unwrap_or(0);
            allowance[c].max(1.0).max(worst as f64)
        })
        .collect();

    // Per domain, the heaviest fragment stays. Weight is summed over *all*
    // constraints: for one-hot multi-constraint instances (MC_TL) this is the
    // cell count, whereas ranking by the first constraint alone would keep
    // whichever fragment happens to hold the most level-0 cells — possibly a
    // sliver — and try to migrate the domain's actual bulk.
    let frag_weight = |members: &[u32]| -> i64 {
        members
            .iter()
            .map(|&v| {
                graph
                    .vertex_weights(v)
                    .iter()
                    .map(|&x| i64::from(x))
                    .sum::<i64>()
            })
            .sum::<i64>()
            .max(members.len() as i64) // all-zero weights: use size
    };
    let mut keep = vec![false; frags.len()];
    let mut best_per_domain: Vec<Option<(i64, u32)>> = vec![None; k];
    for (fid, members) in frags.iter().enumerate() {
        let d = frag_domain[fid] as usize;
        let w = frag_weight(members);
        if best_per_domain[d].is_none_or(|(bw, _)| w > bw) {
            best_per_domain[d] = Some((w, fid as u32));
        }
    }
    for b in best_per_domain.into_iter().flatten() {
        keep[b.1 as usize] = true;
    }

    let mut report = RepairReport {
        fragments_moved: 0,
        vertices_moved: 0,
        fragments_kept: 0,
    };
    for (fid, members) in frags.iter().enumerate() {
        if keep[fid] {
            continue;
        }
        let from = frag_domain[fid] as usize;
        // Connection strength to each neighbouring domain.
        let mut conn = vec![0i64; k];
        for &v in members {
            for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
                let du = part[u as usize] as usize;
                if du != from {
                    conn[du] += i64::from(w);
                }
            }
        }
        // Fragment weight vector.
        let mut fw = vec![0i64; ncon];
        for &v in members {
            for (c, &x) in graph.vertex_weights(v).iter().enumerate() {
                fw[c] += i64::from(x);
            }
        }
        // Candidate targets by descending connection.
        let mut targets: Vec<usize> = (0..k).filter(|&d| conn[d] > 0).collect();
        targets.sort_by_key(|&d| std::cmp::Reverse(conn[d]));
        let chosen = targets.into_iter().find(|&d| {
            (0..ncon).all(|c| fw[c] == 0 || (dw[d * ncon + c] + fw[c]) as f64 <= ceiling[c])
        });
        match chosen {
            Some(d) => {
                for &v in members {
                    part[v as usize] = d as PartId;
                }
                for c in 0..ncon {
                    dw[from * ncon + c] -= fw[c];
                    dw[d * ncon + c] += fw[c];
                }
                report.fragments_moved += 1;
                report.vertices_moved += members.len();
            }
            None => report.fragments_kept += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_graph::builder::grid_graph;
    use tempart_graph::part_connectivity;

    #[test]
    fn repairs_stray_fragment() {
        // 6x1 path; part 0 holds {0,1,5} (5 disconnected), part 1 holds rest.
        let g = grid_graph(6, 1);
        let mut part: Vec<PartId> = vec![0, 0, 1, 1, 1, 0];
        let cfg = PartitionConfig::new(2).with_ub(2.0);
        let r = repair_contiguity(&g, &mut part, &cfg, Recorder::off());
        assert_eq!(r.fragments_moved, 1);
        assert_eq!(r.vertices_moved, 1);
        assert_eq!(part, vec![0, 0, 1, 1, 1, 1]);
        assert_eq!(part_connectivity(&g, &part, 2), 2);
    }

    #[test]
    fn keeps_fragment_when_target_full() {
        // Tight allowance: the stray vertex cannot move without overloading.
        let g = grid_graph(6, 1);
        let mut part: Vec<PartId> = vec![0, 0, 1, 1, 1, 0];
        let cfg = PartitionConfig::new(2).with_ub(1.0); // target exactly 3 each
        let r = repair_contiguity(&g, &mut part, &cfg, Recorder::off());
        assert_eq!(r.fragments_moved, 0);
        assert_eq!(r.fragments_kept, 1);
        assert_eq!(part, vec![0, 0, 1, 1, 1, 0]);
    }

    #[test]
    fn contiguous_partition_untouched() {
        let g = grid_graph(8, 8);
        let mut part: Vec<PartId> = (0..64).map(|v| u32::from(v % 8 >= 4)).collect();
        let before = part.clone();
        let cfg = PartitionConfig::new(2);
        let r = repair_contiguity(&g, &mut part, &cfg, Recorder::off());
        assert_eq!(r.fragments_moved + r.fragments_kept, 0);
        assert_eq!(part, before);
    }

    #[test]
    fn improves_real_mc_partition_connectivity() {
        // A striped partition has many fragments; repair must reduce them.
        let g = grid_graph(12, 12);
        let mut part: Vec<PartId> = (0..144).map(|v| ((v / 3) % 3) as PartId).collect();
        let before = part_connectivity(&g, &part, 3);
        let cfg = PartitionConfig::new(3).with_ub(1.6);
        let r = repair_contiguity(&g, &mut part, &cfg, Recorder::off());
        let after = part_connectivity(&g, &part, 3);
        assert!(r.fragments_moved > 0);
        assert!(after < before, "connectivity {before} -> {after}");
    }
}
