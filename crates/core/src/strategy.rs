//! Partitioning strategies: SC_OC, MC_TL and the dual-phase variant.

use crate::exec::Exec;
use tempart_graph::{PartId, Weight};
use tempart_mesh::{operating_cost, Mesh};
use tempart_obs::Recorder;
use tempart_partition::{
    bisect::extract_subgraph, partition_graph_par_traced, repair_contiguity, sfc_partition_by,
    Curve, PartitionConfig, RepairReport, WorkspacePool,
};

/// How to weight and partition the cell graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Unit weights: balance cell counts only (naive baseline).
    Uniform,
    /// Single-constraint operating cost: weight `2^(τmax−τ)` per cell —
    /// FLUSEPA's historical strategy, balances the iteration total.
    ScOc,
    /// Multi-constraint temporal level: one-hot weight vectors, one slot per
    /// temporal level — the paper's contribution, balances every
    /// subiteration at once.
    McTl,
    /// Two partitioning phases (Section VII): MC_TL across
    /// `n_domains / domains_per_process` process slots, then SC_OC within
    /// each slot to split it into `domains_per_process` domains. Trades a
    /// little balance for locality (less communication).
    DualPhase {
        /// Number of domains carved inside each process-level part.
        domains_per_process: usize,
    },
    /// Geometric baseline (related work: Zoltan / space-filling curves for
    /// CFD): cells ordered along a space-filling curve, cut into chunks of
    /// equal operating cost. Compact and cheap, connectivity-blind, and
    /// inherently single-criterion.
    SfcOc {
        /// The curve to order cells by.
        curve: Curve,
    },
}

impl PartitionStrategy {
    /// Short label matching the paper's naming.
    pub fn label(self) -> &'static str {
        match self {
            PartitionStrategy::Uniform => "UNIFORM",
            PartitionStrategy::ScOc => "SC_OC",
            PartitionStrategy::McTl => "MC_TL",
            PartitionStrategy::DualPhase { .. } => "DUAL_PHASE",
            PartitionStrategy::SfcOc {
                curve: Curve::Morton,
            } => "SFC_OC(Z)",
            PartitionStrategy::SfcOc {
                curve: Curve::Hilbert,
            } => "SFC_OC(H)",
        }
    }
}

/// Builds the `(vertex weights, ncon)` pair a strategy assigns to a mesh's
/// cell graph.
pub fn strategy_weights(mesh: &Mesh, strategy: PartitionStrategy) -> (Vec<Weight>, usize) {
    let n = mesh.n_cells();
    let nl = mesh.n_tau_levels() as usize;
    let tau_max = mesh.n_tau_levels() - 1;
    match strategy {
        PartitionStrategy::Uniform => (vec![1; n], 1),
        // The dual-phase inner split is SC_OC; its outer split is built
        // explicitly in `decompose`, so `strategy_weights` maps it to MC_TL
        // weights (the outer criterion).
        PartitionStrategy::McTl | PartitionStrategy::DualPhase { .. } => {
            let mut w = vec![0 as Weight; n * nl];
            for (v, &t) in mesh.tau().iter().enumerate() {
                w[v * nl + t as usize] = 1;
            }
            (w, nl)
        }
        PartitionStrategy::ScOc | PartitionStrategy::SfcOc { .. } => (
            mesh.tau()
                .iter()
                .map(|&t| operating_cost(t, tau_max) as Weight)
                .collect(),
            1,
        ),
    }
}

/// Default partitioner settings per strategy: multi-constraint instances get
/// a little more slack, as METIS users do in practice.
fn partition_config(nparts: usize, ncon: usize, seed: u64) -> PartitionConfig {
    let ub = if ncon > 1 { 1.10 } else { 1.05 };
    PartitionConfig::new(nparts).with_ub(ub).with_seed(seed)
}

/// Partitions `mesh` into `n_domains` domains with the given strategy and
/// returns the per-cell domain assignment — the general entry.
///
/// The graph-partitioner strategies run through the deterministic parallel
/// driver ([`tempart_partition::partition_graph_par_traced`]) on
/// `exec.workers` fork-join workers with per-branch workspaces from
/// `exec.pool`; at one worker that driver *is* the sequential partitioner on
/// a pooled workspace. The SFC strategies lease their curve scratch
/// ([`tempart_partition::PartitionWorkspace::sfc`]) from the same pool, so
/// a warm pool serves every strategy without re-allocating its scratch.
/// The result is **bit-identical** for every strategy at every worker
/// count: the multilevel strategies inherit the parallel driver's fixed
/// tree-order merge, the dual-phase inner splits use one seed per process
/// slot, and the SFC strategies shard only the curve keys over the workers
/// and cut the curve in one sequential bucket walk
/// (`tempart_partition::geometric`).
///
/// `exec.rec` receives a `"core.decompose"` wall span around the whole
/// strategy (`a` = domain count) plus the partitioner's own `part.*` spans
/// and counters.
///
/// # Panics
///
/// Panics if `n_domains` or `exec.workers` is zero, or (dual-phase) if
/// `n_domains` is not divisible by `domains_per_process`.
pub fn decompose_with(
    mesh: &Mesh,
    strategy: PartitionStrategy,
    n_domains: usize,
    seed: u64,
    exec: &Exec,
) -> Vec<PartId> {
    assert!(n_domains >= 1, "need at least one domain");
    let Exec { workers, pool, rec } = *exec;
    let _span = rec.span("core.decompose", 0, n_domains as u64);
    match strategy {
        PartitionStrategy::DualPhase {
            domains_per_process,
        } => {
            assert!(domains_per_process >= 1, "domains_per_process must be >= 1");
            assert_eq!(
                n_domains % domains_per_process,
                0,
                "n_domains must be a multiple of domains_per_process"
            );
            let n_outer = n_domains / domains_per_process;
            dual_phase(mesh, n_outer, domains_per_process, seed, exec)
        }
        PartitionStrategy::SfcOc { curve } => {
            // The SC_OC weights of `strategy_weights`, read off the levels
            // in place.
            let (tau, tau_max) = (mesh.tau(), mesh.n_tau_levels() - 1);
            let mut ws = pool.checkout(0);
            ws.sfc.obs = rec.clone();
            let part = sfc_partition_by(
                mesh.cells(),
                |c| c.centroid,
                |i| u64::from(operating_cost(tau[i], tau_max)),
                n_domains,
                curve,
                workers,
                &mut ws.sfc,
            );
            pool.give_back(0, ws);
            part
        }
        _ => {
            let (w, ncon) = strategy_weights(mesh, strategy);
            let g = mesh.to_graph().with_vertex_weights(w, ncon);
            let config = partition_config(n_domains, ncon, seed);
            partition_graph_par_traced(&g, &config, workers, pool, rec)
        }
    }
}

/// [`decompose_with`] on one worker with fresh scratch memory, untraced.
pub fn decompose(
    mesh: &Mesh,
    strategy: PartitionStrategy,
    n_domains: usize,
    seed: u64,
) -> Vec<PartId> {
    let pool = WorkspacePool::new(1);
    let exec = Exec::new(1, &pool, Recorder::off());
    decompose_with(mesh, strategy, n_domains, seed, &exec)
}

/// MC_TL across `n_outer` process slots, then SC_OC inside each slot.
fn dual_phase(mesh: &Mesh, n_outer: usize, inner: usize, seed: u64, exec: &Exec) -> Vec<PartId> {
    let Exec { workers, pool, rec } = *exec;
    let graph = mesh.to_graph();
    // Phase 1: MC_TL at process granularity.
    let (w_mc, ncon) = strategy_weights(mesh, PartitionStrategy::McTl);
    let g_mc = graph.with_vertex_weights(w_mc, ncon);
    let outer_config = partition_config(n_outer, ncon, seed);
    let outer = partition_graph_par_traced(&g_mc, &outer_config, workers, pool, rec);

    if inner == 1 {
        return outer;
    }
    // Phase 2: SC_OC inside each outer part, one derived seed per slot.
    let (w_sc, _) = strategy_weights(mesh, PartitionStrategy::ScOc);
    let g_sc = graph.with_vertex_weights(w_sc, 1);
    let mut part = vec![0 as PartId; mesh.n_cells()];
    for p in 0..n_outer {
        let side: Vec<u8> = outer.iter().map(|&o| u8::from(o as usize == p)).collect();
        let (sub, map) = extract_subgraph(&g_sc, &side, 1);
        let sub_part = if sub.nvtx() == 0 {
            Vec::new()
        } else {
            let slot_seed = seed ^ (p as u64).wrapping_mul(0x9E37);
            let inner_config = partition_config(inner, 1, slot_seed);
            partition_graph_par_traced(&sub, &inner_config, workers, pool, rec)
        };
        for (sv, &ov) in map.iter().enumerate() {
            part[ov as usize] = (p * inner) as PartId + sub_part[sv];
        }
    }
    part
}

/// Partitions like [`decompose_with`], then runs the contiguity-repair
/// post-processing pass (the paper's future-work item on partitioner
/// artifacts): stray fragments of disconnected domains migrate to their
/// best-connected neighbour domain when balance allows. The repair is one
/// sequential pass, so the result is bit-identical at every `exec.workers`.
/// `exec.rec` receives the partition events of [`decompose_with`] plus the
/// repair pass's `part.repair` span and counters.
pub fn decompose_with_repair(
    mesh: &Mesh,
    strategy: PartitionStrategy,
    n_domains: usize,
    seed: u64,
    exec: &Exec,
) -> (Vec<PartId>, RepairReport) {
    let mut part = decompose_with(mesh, strategy, n_domains, seed, exec);
    let (w, ncon) = strategy_weights(mesh, strategy);
    let g = mesh.to_graph().with_vertex_weights(w, ncon);
    // Repair uses a looser allowance than the partitioner so that
    // near-tolerance domains can still absorb small fragments: contiguity is
    // worth a little balance slack (the paper flags disconnected domains as
    // the dominant partitioner artifact). Multi-constraint levels with few
    // cells are integer-quantised, so they need the most headroom.
    let cfg = PartitionConfig {
        ubvec: vec![if ncon > 1 { 1.25 } else { 1.08 }],
        ..PartitionConfig::new(n_domains)
    };
    let report = repair_contiguity(&g, &mut part, &cfg, exec.rec);
    (part, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_graph::{max_imbalance, PartitionQuality};
    use tempart_mesh::{cube_like, GeneratorConfig};

    fn small_mesh() -> Mesh {
        cube_like(&GeneratorConfig { base_depth: 4 })
    }

    #[test]
    fn weights_shapes() {
        let m = small_mesh();
        let (u, nu) = strategy_weights(&m, PartitionStrategy::Uniform);
        assert_eq!((u.len(), nu), (m.n_cells(), 1));
        let (sc, nsc) = strategy_weights(&m, PartitionStrategy::ScOc);
        assert_eq!(nsc, 1);
        // SC_OC weights are powers of two in 1..=2^τmax.
        let tau_max = m.n_tau_levels() - 1;
        for (&w, &t) in sc.iter().zip(m.tau()) {
            assert_eq!(w, 1 << (tau_max - t));
        }
        let (mc, nmc) = strategy_weights(&m, PartitionStrategy::McTl);
        assert_eq!(nmc, m.n_tau_levels() as usize);
        // One-hot rows.
        for v in 0..m.n_cells() {
            let row = &mc[v * nmc..(v + 1) * nmc];
            assert_eq!(row.iter().sum::<u32>(), 1);
            assert_eq!(row[m.tau()[v] as usize], 1);
        }
    }

    #[test]
    fn sc_oc_balances_total_cost() {
        let m = small_mesh();
        let part = decompose(&m, PartitionStrategy::ScOc, 4, 1);
        let (w, _) = strategy_weights(&m, PartitionStrategy::ScOc);
        let g = m.to_graph().with_vertex_weights(w, 1);
        assert!(max_imbalance(&g, &part, 4) < 1.12);
    }

    #[test]
    fn mc_tl_balances_every_level() {
        let m = small_mesh();
        let part = decompose(&m, PartitionStrategy::McTl, 4, 1);
        let (w, ncon) = strategy_weights(&m, PartitionStrategy::McTl);
        let g = m.to_graph().with_vertex_weights(w, ncon);
        let imb = max_imbalance(&g, &part, 4);
        assert!(imb < 1.35, "per-level imbalance {imb}");
        // SC_OC on the same instance leaves levels much more imbalanced.
        let sc_part = decompose(&m, PartitionStrategy::ScOc, 4, 1);
        let sc_imb = max_imbalance(&g, &sc_part, 4);
        assert!(
            sc_imb > imb,
            "SC_OC should not beat MC_TL on per-level balance ({sc_imb} vs {imb})"
        );
    }

    #[test]
    fn dual_phase_covers_all_domains() {
        let m = small_mesh();
        let part = decompose(
            &m,
            PartitionStrategy::DualPhase {
                domains_per_process: 4,
            },
            16,
            1,
        );
        let mut used = [false; 16];
        for &p in &part {
            used[p as usize] = true;
        }
        assert!(used.iter().all(|&u| u), "all 16 domains populated");
    }

    #[test]
    fn dual_phase_cut_between_extremes() {
        // Dual-phase should communicate less than flat MC_TL at the same
        // domain count (its inner splits are locality-friendly SC_OC).
        let m = small_mesh();
        let g = m.to_graph();
        let mc = decompose(&m, PartitionStrategy::McTl, 16, 1);
        let dp = decompose(
            &m,
            PartitionStrategy::DualPhase {
                domains_per_process: 4,
            },
            16,
            1,
        );
        let q_mc = PartitionQuality::measure(&g, &mc, 16);
        let q_dp = PartitionQuality::measure(&g, &dp, 16);
        assert!(
            q_dp.edge_cut < q_mc.edge_cut * 13 / 10,
            "dual-phase cut {} should not exceed MC_TL cut {} by much",
            q_dp.edge_cut,
            q_mc.edge_cut
        );
    }

    #[test]
    #[should_panic(expected = "multiple of domains_per_process")]
    fn dual_phase_divisibility_enforced() {
        let m = small_mesh();
        let _ = decompose(
            &m,
            PartitionStrategy::DualPhase {
                domains_per_process: 3,
            },
            16,
            1,
        );
    }

    #[test]
    fn sfc_strategies_balance_operating_cost() {
        let m = small_mesh();
        for curve in [Curve::Morton, Curve::Hilbert] {
            let part = decompose(&m, PartitionStrategy::SfcOc { curve }, 8, 1);
            let (w, _) = strategy_weights(&m, PartitionStrategy::ScOc);
            let g = m.to_graph().with_vertex_weights(w, 1);
            let imb = max_imbalance(&g, &part, 8);
            // Curve cuts are greedy prefixes: coarse cells (weight up to
            // 2^τmax) make the split grainy, so allow more slack than the
            // multilevel partitioner.
            assert!(imb < 1.5, "{curve:?} imbalance {imb}");
            let mut used = [false; 8];
            for &p in &part {
                used[p as usize] = true;
            }
            assert!(used.iter().all(|&u| u));
        }
    }

    #[test]
    fn hilbert_cuts_less_than_morton() {
        let m = small_mesh();
        let g = m.to_graph();
        let h = decompose(
            &m,
            PartitionStrategy::SfcOc {
                curve: Curve::Hilbert,
            },
            8,
            1,
        );
        let z = decompose(
            &m,
            PartitionStrategy::SfcOc {
                curve: Curve::Morton,
            },
            8,
            1,
        );
        let qh = PartitionQuality::measure(&g, &h, 8);
        let qz = PartitionQuality::measure(&g, &z, 8);
        assert!(
            qh.edge_cut <= qz.edge_cut,
            "hilbert {} vs morton {}",
            qh.edge_cut,
            qz.edge_cut
        );
    }

    #[test]
    fn repair_is_worker_count_invariant() {
        let m = small_mesh();
        let repaired = |workers: usize| {
            let pool = WorkspacePool::new(workers);
            let exec = Exec::new(workers, &pool, Recorder::off());
            decompose_with_repair(&m, PartitionStrategy::McTl, 8, 1, &exec)
        };
        let (part, report) = repaired(1);
        assert_eq!(repaired(2), (part, report));
    }

    #[test]
    fn repair_reduces_mc_tl_fragmentation() {
        let m = small_mesh();
        let g = m.to_graph();
        let raw = decompose(&m, PartitionStrategy::McTl, 8, 1);
        let q_raw = PartitionQuality::measure(&g, &raw, 8);
        let pool = WorkspacePool::new(1);
        let exec = Exec::new(1, &pool, Recorder::off());
        let (fixed, report) = decompose_with_repair(&m, PartitionStrategy::McTl, 8, 1, &exec);
        let q_fixed = PartitionQuality::measure(&g, &fixed, 8);
        assert!(
            q_fixed.part_components <= q_raw.part_components,
            "components {} -> {}",
            q_raw.part_components,
            q_fixed.part_components
        );
        if q_raw.part_components > 8 {
            assert!(report.fragments_moved > 0);
            assert!(q_fixed.edge_cut <= q_raw.edge_cut);
        }
    }
}
