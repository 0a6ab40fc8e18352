#![warn(missing_docs)]
//! A multilevel graph partitioner with single- and multi-constraint support.
//!
//! This crate is a from-scratch substitute for the subset of METIS the paper
//! relies on (Section V): k-way partitioning of a cell-connectivity graph by
//! **recursive bisection**, minimising edge cut subject to balancing every
//! component of the vertex-weight vectors within a per-constraint tolerance
//! (`ubvec`). It follows the classic Karypis–Kumar multilevel scheme:
//!
//! 1. **Coarsening** — heavy-edge matching + contraction until the graph is
//!    small ([`coarsen`]);
//! 2. **Initial partitioning** — greedy graph growing on the coarsest graph,
//!    best of several random seeds ([`initial`]);
//! 3. **Uncoarsening** — project the partition back up, running
//!    Fiduccia–Mattheyses boundary refinement at every level ([`refine`]).
//!
//! The paper's two strategies map onto it directly: `SC_OC` is `ncon == 1`
//! with operating-cost weights, `MC_TL` is `ncon == L` with one-hot
//! temporal-level vectors.

pub mod bisect;
pub mod coarsen;
pub mod geometric;
pub mod initial;
pub mod par;
pub mod par_kway;
pub mod refine;
pub mod repair;
pub mod repart;
pub mod workspace;

use tempart_graph::{CsrGraph, PartId};

pub use geometric::{
    hilbert_index, morton_index, sfc_partition, sfc_partition_by, sfc_partition_with, Curve,
    SfcWorkspace,
};
pub use par::{partition_graph_par_traced, WorkspacePool};
pub use par_kway::colour_pairs;
pub use repair::{repair_contiguity, RepairReport};
pub use repart::{diffusion_plan, repartition_ws, RepartConfig, RepartStats, RepartStop};
pub use workspace::{GainBuckets, PartitionWorkspace};

/// Which k-way scheme to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Recursive bisection — the method the paper selects ("it produces
    /// higher quality solutions on our meshes").
    RecursiveBisection,
    /// Recursive bisection followed by a pairwise k-way refinement pass
    /// ([`par_kway`]).
    KWayRefined,
}

/// Partitioner configuration.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Number of parts to produce.
    pub nparts: usize,
    /// Per-constraint allowed imbalance (METIS `ubvec`); e.g. `1.05` allows
    /// the heaviest part to exceed the average by 5%. One entry per
    /// constraint; a single entry is broadcast to all constraints.
    pub ubvec: Vec<f64>,
    /// RNG seed; the partitioner is deterministic for a fixed seed.
    pub seed: u64,
    /// K-way scheme.
    pub scheme: Scheme,
    /// Coarsening stops once a bisection instance has at most this many
    /// vertices (scaled internally with `ncon`).
    pub coarsen_to: usize,
    /// Number of random initial-bisection attempts to keep the best of.
    pub initial_tries: usize,
    /// Maximum FM passes per uncoarsening level.
    pub refine_passes: usize,
}

impl PartitionConfig {
    /// A sensible default configuration for `nparts` parts.
    pub fn new(nparts: usize) -> Self {
        Self {
            nparts,
            ubvec: vec![1.05],
            seed: 0x5EED,
            scheme: Scheme::RecursiveBisection,
            coarsen_to: 120,
            initial_tries: 8,
            refine_passes: 6,
        }
    }

    /// Overrides the imbalance tolerance for all constraints.
    pub fn with_ub(mut self, ub: f64) -> Self {
        self.ubvec = vec![ub];
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// The tolerance to apply to constraint `c`.
    pub fn ub(&self, c: usize) -> f64 {
        if self.ubvec.len() == 1 {
            self.ubvec[0]
        } else {
            self.ubvec[c]
        }
    }

    fn validate(&self, graph: &CsrGraph) {
        assert!(self.nparts >= 1, "nparts must be at least 1");
        assert!(
            self.ubvec.len() == 1 || self.ubvec.len() == graph.ncon(),
            "ubvec must have 1 or ncon entries"
        );
        assert!(
            self.ubvec.iter().all(|&u| u >= 1.0),
            "imbalance tolerances must be >= 1.0"
        );
        assert!(self.initial_tries >= 1, "initial_tries must be >= 1");
    }
}

/// Partitions `graph` into `config.nparts` parts.
///
/// Returns one part id per vertex. Every part id in `0..nparts` is used
/// unless the graph has fewer vertices than parts.
///
/// Allocating convenience wrapper around [`partition_graph_with`]; callers
/// that partition in a loop (dynamic repartitioning) should hold a
/// [`PartitionWorkspace`] and use the `_with` variant — repeated calls are
/// then allocation-free after warm-up.
///
/// # Panics
///
/// Panics on invalid configuration (see [`PartitionConfig`]).
pub fn partition_graph(graph: &CsrGraph, config: &PartitionConfig) -> Vec<PartId> {
    partition_graph_with(graph, config, &mut PartitionWorkspace::new())
}

/// Partitions `graph` into `config.nparts` parts using caller-provided
/// scratch memory.
///
/// The workspace carries **capacity, not state**: results are bit-identical
/// to [`partition_graph`] for the same inputs regardless of what the
/// workspace was previously used for (covered by `tests/workspace_reuse.rs`).
///
/// # Panics
///
/// Panics on invalid configuration (see [`PartitionConfig`]).
pub fn partition_graph_with(
    graph: &CsrGraph,
    config: &PartitionConfig,
    ws: &mut PartitionWorkspace,
) -> Vec<PartId> {
    partition(graph, config, ws, None)
}

/// The one scheme dispatch behind both entry points. `fork = Some((n_workers,
/// pool))` runs the bisection tree `n_workers` wide under a `part.par` span
/// (see [`par`]). `ws.obs` receives the events.
fn partition(
    graph: &CsrGraph,
    config: &PartitionConfig,
    ws: &mut PartitionWorkspace,
    fork: Option<(usize, &WorkspacePool)>,
) -> Vec<PartId> {
    config.validate(graph);
    if config.nparts == 1 || graph.nvtx() <= 1 {
        return vec![0; graph.nvtx()];
    }
    let rec = ws.obs.clone();
    let (name, arg) = match fork {
        None => ("part.partition", config.nparts),
        Some((n_workers, _)) => ("part.par", n_workers),
    };
    let _span = tempart_obs::span!(&rec, name, track = 0, arg = arg as u64);
    rec.counter("part.nvtx", 0, graph.nvtx() as u64);
    match config.scheme {
        Scheme::RecursiveBisection => bisect::recursive_bisection(graph, config, ws, fork),
        Scheme::KWayRefined => {
            let mut part = bisect::recursive_bisection(graph, config, ws, fork);
            par_kway::pairwise_kway_refine_ws(graph, &mut part, config, ws);
            part
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_graph::builder::grid_graph;
    use tempart_graph::{edge_cut, max_imbalance};

    #[test]
    fn trivial_cases() {
        let g = grid_graph(4, 4);
        assert_eq!(partition_graph(&g, &PartitionConfig::new(1)), vec![0; 16]);
    }

    #[test]
    fn bisect_grid_is_balanced_and_cheap() {
        let g = grid_graph(16, 16);
        let cfg = PartitionConfig::new(2);
        let part = partition_graph(&g, &cfg);
        assert!(max_imbalance(&g, &part, 2) <= 1.06);
        // Optimal cut of a 16x16 grid in half is 16; allow slack.
        assert!(edge_cut(&g, &part) <= 26, "cut {}", edge_cut(&g, &part));
    }

    #[test]
    fn kway_uses_all_parts() {
        let g = grid_graph(20, 20);
        for &k in &[3usize, 5, 8] {
            let cfg = PartitionConfig::new(k);
            let part = partition_graph(&g, &cfg);
            let mut used = vec![false; k];
            for &p in &part {
                used[p as usize] = true;
            }
            assert!(used.iter().all(|&u| u), "k={k} missing a part");
            assert!(max_imbalance(&g, &part, k) <= 1.35, "k={k}");
        }
    }

    #[test]
    fn multiconstraint_balances_every_class() {
        // 2-class weights on a grid: MC partitioning must split each class
        // evenly even though the classes are spatially segregated — the same
        // hard instance temporal levels pose in a mesh.
        let g = grid_graph(16, 16);
        let mut vwgt = vec![0u32; 256 * 2];
        for v in 0..256 {
            let class = usize::from(v % 16 >= 8);
            vwgt[v * 2 + class] = 1;
        }
        let g2 = g.with_vertex_weights(vwgt, 2);
        let cfg = PartitionConfig {
            ubvec: vec![1.1],
            ..PartitionConfig::new(4)
        };
        let part = partition_graph(&g2, &cfg);
        let imb = max_imbalance(&g2, &part, 4);
        assert!(imb <= 1.3, "multi-constraint imbalance {imb}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid_graph(24, 24);
        let cfg = PartitionConfig::new(6);
        let a = partition_graph(&g, &cfg);
        let b = partition_graph(&g, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn kway_refined_no_worse_than_rb() {
        let g = grid_graph(24, 24);
        let rb = partition_graph(&g, &PartitionConfig::new(8));
        let kw = partition_graph(
            &g,
            &PartitionConfig::new(8).with_scheme(Scheme::KWayRefined),
        );
        assert!(edge_cut(&g, &kw) <= edge_cut(&g, &rb));
        assert!(max_imbalance(&g, &kw, 8) <= 1.4);
    }
}
