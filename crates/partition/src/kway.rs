//! Direct k-way partitioning: k-way balance restoration and the full
//! multilevel k-way scheme (the `METIS_PartGraphKway` analogue: coarsen the
//! whole graph once, split the coarsest graph, refine pairwise
//! ([`crate::par_kway`]) during uncoarsening).
//!
//! Part-weight tables, connection scratch and projection buffers come from
//! the caller's [`PartitionWorkspace`].

use crate::coarsen::coarsen_ws;
use crate::par_kway::pairwise_kway_refine_ws;
use crate::{PartitionConfig, PartitionWorkspace};
use tempart_graph::{CsrGraph, PartId};

/// Fills `tot` with the per-constraint weight totals of `graph` (the
/// allocation-free sibling of [`CsrGraph::total_weights`]).
pub(crate) fn total_weights_into(graph: &CsrGraph, tot: &mut Vec<i64>) {
    let ncon = graph.ncon();
    tot.clear();
    tot.resize(ncon, 0);
    let vwgt = graph.vwgt();
    for v in 0..graph.nvtx() {
        for (c, t) in tot.iter_mut().enumerate() {
            *t += i64::from(vwgt[v * ncon + c]);
        }
    }
}

/// K-way balance restoration: while some `(part, constraint)` load exceeds
/// its allowance, move the best-gain vertex carrying that constraint out of
/// the overloaded part into its best-connected part with headroom. The
/// k-way analogue of `refine::rebalance` — without it, projected k-way
/// partitions of one-hot multi-constraint graphs can stay arbitrarily
/// imbalanced (greedy refinement only ever takes positive-gain moves).
///
/// Returns the number of moves applied.
pub fn kway_rebalance_ws(
    graph: &CsrGraph,
    part: &mut [PartId],
    config: &PartitionConfig,
    ws: &mut PartitionWorkspace,
) -> usize {
    let n = graph.nvtx();
    let k = config.nparts;
    let ncon = graph.ncon();
    if n == 0 || k <= 1 {
        return 0;
    }
    total_weights_into(graph, &mut ws.kw_tot);
    let totals = &mut ws.kw_tot;
    let pw = &mut ws.kw_pw;
    pw.clear();
    pw.resize(k * ncon, 0);
    for (v, &p) in part.iter().enumerate() {
        let vw = graph.vertex_weights(v as u32);
        for c in 0..ncon {
            pw[p as usize * ncon + c] += i64::from(vw[c]);
        }
    }
    let allowance = &mut ws.kw_allow;
    allowance.clear();
    allowance.extend((0..ncon).map(|c| (totals[c] as f64 / k as f64 * config.ub(c)).max(1.0)));

    let mut moves = 0usize;
    while moves < n {
        // Worst (part, constraint) violation.
        let mut worst: Option<(f64, usize, usize)> = None; // (ratio, part, con)
        for p in 0..k {
            for c in 0..ncon {
                if totals[c] == 0 {
                    continue;
                }
                let ratio = pw[p * ncon + c] as f64 / allowance[c];
                if ratio > 1.0 && worst.is_none_or(|(r, _, _)| ratio > r) {
                    worst = Some((ratio, p, c));
                }
            }
        }
        let Some((_, wp, wc)) = worst else { break };
        // Best-gain movable vertex: in part `wp`, carrying `wc`, going to a
        // connected part with headroom for all its constraints; if the
        // overloaded part has no usable boundary (e.g. everything crammed
        // into one part), fall back to the least-loaded part that fits.
        let mut best: Option<(i64, u32, usize)> = None; // (gain, vertex, target)
        let mut fallback: Option<(i64, u32)> = None; // (-internal, vertex)
        for v in 0..n as u32 {
            if part[v as usize] as usize != wp {
                continue;
            }
            let vw = graph.vertex_weights(v);
            if vw[wc] == 0 {
                continue;
            }
            // Connection per candidate part.
            let mut internal = 0i64;
            let mut best_target: Option<(i64, usize)> = None;
            for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
                let pu = part[u as usize] as usize;
                if pu == wp {
                    internal += i64::from(w);
                } else {
                    let fits = (0..ncon).all(|c| {
                        vw[c] == 0 || (pw[pu * ncon + c] + i64::from(vw[c])) as f64 <= allowance[c]
                    });
                    if fits && best_target.is_none_or(|(bw, _)| i64::from(w) > bw) {
                        best_target = Some((i64::from(w), pu));
                    }
                }
            }
            if let Some((conn, target)) = best_target {
                let gain = conn - internal;
                if best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, v, target));
                }
            } else if fallback.is_none_or(|(bi, _)| -internal > bi) {
                fallback = Some((-internal, v));
            }
        }
        let chosen = best.map(|(_, v, t)| (v, t)).or_else(|| {
            let (_, v) = fallback?;
            let vw = graph.vertex_weights(v);
            // Least-loaded (on wc) part that fits every constraint.
            (0..k)
                .filter(|&p| p != wp)
                .filter(|&p| {
                    (0..ncon).all(|c| {
                        vw[c] == 0 || (pw[p * ncon + c] + i64::from(vw[c])) as f64 <= allowance[c]
                    })
                })
                .min_by_key(|&p| pw[p * ncon + wc])
                .map(|p| (v, p))
        });
        let Some((v, target)) = chosen else { break };
        let vw = graph.vertex_weights(v);
        for c in 0..ncon {
            pw[wp * ncon + c] -= i64::from(vw[c]);
            pw[target * ncon + c] += i64::from(vw[c]);
        }
        part[v as usize] = target as PartId;
        moves += 1;
    }
    moves
}

/// Full multilevel k-way partitioning: one global coarsening pass, an
/// initial k-way split of the coarsest graph by recursive bisection, then
/// pairwise k-way refinement ([`crate::par_kway`]) at every uncoarsening
/// level.
///
/// Compared to recursive bisection of the full graph this trades some cut
/// quality (the paper found RB better on its meshes) for a single coarsening
/// hierarchy — the classic quality/speed trade-off METIS exposes as its two
/// entry points.
pub fn multilevel_kway_ws(
    graph: &CsrGraph,
    config: &PartitionConfig,
    ws: &mut PartitionWorkspace,
) -> Vec<PartId> {
    let k = config.nparts;
    if k <= 1 || graph.nvtx() <= 1 {
        return vec![0; graph.nvtx()];
    }
    // Keep the coarsest graph large enough to seat k parts comfortably.
    let target = (config.coarsen_to * graph.ncon().max(1)).max(8 * k);
    let hierarchy = coarsen_ws(graph, target, config.seed ^ 0x6B77_6179, ws);
    let coarsest = hierarchy.coarsest(graph);

    let mut part = crate::bisect::recursive_bisection(coarsest, config, ws, None);
    kway_rebalance_ws(coarsest, &mut part, config, ws);
    pairwise_kway_refine_ws(coarsest, &mut part, config, ws);

    // Both projection buffers end `graph.nvtx()` long: size them once.
    part.reserve_exact(graph.nvtx() - part.len());
    let mut fine: Vec<PartId> = ws.take_u32(graph.nvtx());
    for i in (0..hierarchy.levels.len()).rev() {
        let fine_graph = if i == 0 {
            graph
        } else {
            &hierarchy.levels[i - 1].graph
        };
        // Project: each fine vertex inherits its coarse image's part.
        let map = &hierarchy.levels[i].fine_to_coarse;
        fine.clear();
        fine.extend(map.iter().map(|&cv| part[cv as usize]));
        std::mem::swap(&mut part, &mut fine);
        kway_rebalance_ws(fine_graph, &mut part, config, ws);
        pairwise_kway_refine_ws(fine_graph, &mut part, config, ws);
    }
    ws.give_u32(fine);
    ws.give_hierarchy(hierarchy);
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisect::recursive_bisection;
    use tempart_graph::builder::grid_graph;
    use tempart_graph::{edge_cut, max_imbalance};

    #[test]
    fn multilevel_kway_quality() {
        let g = grid_graph(24, 24);
        let cfg = PartitionConfig::new(8).with_ub(1.10);
        let mut ws = PartitionWorkspace::new();
        let part = multilevel_kway_ws(&g, &cfg, &mut ws);
        let mut used = [false; 8];
        for &p in &part {
            used[p as usize] = true;
        }
        assert!(used.iter().all(|&u| u), "all parts populated");
        assert!(max_imbalance(&g, &part, 8) <= 1.35);
        // Quality within 2x of full recursive bisection on a grid.
        let rb = recursive_bisection(&g, &cfg, &mut ws, None);
        assert!(
            edge_cut(&g, &part) <= 2 * edge_cut(&g, &rb),
            "mlkway {} vs rb {}",
            edge_cut(&g, &part),
            edge_cut(&g, &rb)
        );
    }

    #[test]
    fn kway_rebalance_fixes_violations() {
        // Cram everything into part 0 of 4: rebalance must spread it out.
        let g = grid_graph(8, 8);
        let mut part = vec![0 as PartId; 64];
        let cfg = PartitionConfig::new(4).with_ub(1.20);
        let moves = kway_rebalance_ws(&g, &mut part, &cfg, &mut PartitionWorkspace::new());
        assert!(moves > 0);
        let imb = max_imbalance(&g, &part, 4);
        assert!(imb <= 1.25, "imbalance {imb} after rebalance");
    }

    #[test]
    fn multilevel_kway_multiconstraint() {
        let g = grid_graph(16, 16);
        let mut vwgt = vec![0u32; 256 * 2];
        for v in 0..256 {
            vwgt[v * 2 + usize::from(v % 16 >= 8)] = 1;
        }
        let g2 = g.with_vertex_weights(vwgt, 2);
        let cfg = PartitionConfig::new(4).with_ub(1.15);
        let part = multilevel_kway_ws(&g2, &cfg, &mut PartitionWorkspace::new());
        assert!(max_imbalance(&g2, &part, 4) <= 1.5);
    }
}
