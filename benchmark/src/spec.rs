//! The fixed names: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repo root declares the same names; the
//! `names_match_benchmark_json` test keeps the two in step. Every later
//! issue states its claim in these names, so they do not change.

use tempart_core::PartitionStrategy;
use tempart_mesh::{cylinder_like, pprime_nozzle_like, GeneratorConfig, Mesh};
use tempart_partition::Curve;

/// A metric name and its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as it appears in `BENCHMARK.json` and in every result line.
    pub name: &'static str,
    /// Unit string printed beside every value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("op_s_p50", "s"),
    m("op_s_p90", "s"),
    m("peak_rss_mib", "MiB"),
    m("makespan_units", "units"),
    m("edge_cut", "edges"),
    m("max_imbalance", "ratio"),
    m("migration_volume", "cellwt"),
];

/// Single-layer measurements from the traced run, `<crate>.<what>`.
pub const PER_LAYER: &[Metric] = &[
    m("mesh.cells", "count"),
    m("mesh.generate_s", "s"),
    m("mesh.to_graph_s", "s"),
    m("mesh.drift_apply_s", "s"),
    m("graph.reweight_s", "s"),
    m("graph.quality_s", "s"),
    m("graph.migration_stats_s", "s"),
    m("core.weights_s", "s"),
    m("core.decompose_s", "s"),
    m("core.onecall_s", "s"),
    m("core.staged_sum_s", "s"),
    m("core.unattributed_frac", "ratio"),
    m("partition.graph_s", "s"),
    m("partition.graph_w2_s", "s"),
    m("partition.par_speedup_w2", "ratio"),
    m("partition.coarsen_root_s", "s"),
    m("partition.initial_root_s", "s"),
    m("partition.refine_root_s", "s"),
    m("partition.coarsen_levels", "count"),
    m("partition.coarsest_nvtx", "count"),
    m("partition.coarsen_self_s", "s"),
    m("partition.initial_self_s", "s"),
    m("partition.uncoarsen_self_s", "s"),
    m("partition.fm_self_s", "s"),
    m("partition.rebalance_self_s", "s"),
    m("partition.split_self_s", "s"),
    m("partition.bisections", "count"),
    m("partition.fm_moves", "count"),
    m("partition.fm_kept_ratio", "ratio"),
    m("partition.rebalance_moves", "count"),
    m("partition.allocs", "count"),
    m("partition.sfc_s", "s"),
    m("partition.sfc_keys_self_s", "s"),
    m("partition.sfc_sort_self_s", "s"),
    m("partition.sfc_chunk_self_s", "s"),
    m("partition.sfc_w2_s", "s"),
    m("partition.sfc_speedup_w2", "ratio"),
    m("partition.repart_s", "s"),
    m("partition.repart_self_s", "s"),
    m("partition.repart_plan_s", "s"),
    m("partition.repart_rounds", "count"),
    m("partition.repart_moves", "count"),
    m("partition.repart_over_scratch", "ratio"),
    m("taskgraph.domains_s", "s"),
    m("taskgraph.domains_w2_s", "s"),
    m("taskgraph.generate_s", "s"),
    m("taskgraph.tasks", "count"),
    m("taskgraph.edges", "count"),
    m("flusim.simulate_s", "s"),
    m("flusim.simulate_net_s", "s"),
    m("flusim.race_s", "s"),
    m("flusim.race_w2_s", "s"),
    m("flusim.race_speedup_w2", "ratio"),
    m("flusim.tasks_per_s", "1/s"),
    m("flusim.xfers", "count"),
    m("flusim.net_bytes", "B"),
    m("flusim.allocs", "count"),
    m("flusim.best_over_fifo", "ratio"),
    m("runtime.forkjoin_job_s", "s"),
    m("obs.trace_overhead_frac", "ratio"),
    m("obs.events", "count"),
    m("obs.dropped", "count"),
    m("calib.spin_s", "s"),
    m("calib.stream_s", "s"),
];

/// End-to-end metrics that are a pure function of `--seed` (no timing).
pub const EXACT_REPEAT: &[&str] = &[
    "makespan_units",
    "edge_cut",
    "max_imbalance",
    "migration_volume",
];

/// Which synthetic mesh a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshKind {
    /// `cylinder_like`: one hotspot, 4 temporal levels.
    Cylinder,
    /// `pprime_nozzle_like`: jet cone, 3 temporal levels.
    PprimeNozzle,
}

/// What one timed operation of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `core::run_flusim` with this strategy.
    Pipeline(PartitionStrategy),
    /// `flusim::race_network` over a task graph made in set-up.
    Race,
    /// One drift step of incremental repartitioning.
    Drift,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Final name.
    pub name: &'static str,
    /// Mesh generator.
    pub mesh: MeshKind,
    /// Octree base depth of the full-size run.
    pub depth: u8,
    /// Number of domains.
    pub k: usize,
    /// The timed operation.
    pub kind: Kind,
    /// Number of seeds (derived from `--seed`) the operation cycles through.
    /// The quality metrics are medians over this panel, which is what keeps
    /// them steady from one `--seed` to the next.
    pub panel: usize,
}

/// Steps in one drift sequence of `cyl5-repart-drift`.
pub const DRIFT_STEPS: u32 = 16;
/// Amplitude of the seeded wobble of the drifting front.
pub const DRIFT_JITTER: f64 = 0.002;
/// Per-cell migration payload, as `RepartSequenceConfig::graded_cylinder`.
pub const PAYLOAD_BYTES: u64 = 40;

/// The five workloads, in report order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cyl5-mctl-128",
        mesh: MeshKind::Cylinder,
        depth: 5,
        k: 128,
        kind: Kind::Pipeline(PartitionStrategy::McTl),
        panel: 24,
    },
    Workload {
        name: "cyl5-scoc-128",
        mesh: MeshKind::Cylinder,
        depth: 5,
        k: 128,
        kind: Kind::Pipeline(PartitionStrategy::ScOc),
        panel: 24,
    },
    Workload {
        name: "pprime6-sfc-512",
        mesh: MeshKind::PprimeNozzle,
        depth: 6,
        k: 512,
        kind: Kind::Pipeline(PartitionStrategy::SfcOc {
            curve: Curve::Hilbert,
        }),
        // The curve partition ignores the seed: one instance is the panel.
        panel: 1,
    },
    Workload {
        name: "cyl5-flusim-race",
        mesh: MeshKind::Cylinder,
        depth: 5,
        k: 128,
        kind: Kind::Race,
        panel: 16,
    },
    Workload {
        name: "cyl5-repart-drift",
        mesh: MeshKind::Cylinder,
        depth: 5,
        k: 64,
        kind: Kind::Drift,
        panel: 8,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The strategy whose weights and partitioner the traced run probes:
    /// the pipeline's own, MC_TL for the race and drift workloads.
    pub fn strategy(&self) -> PartitionStrategy {
        match self.kind {
            Kind::Pipeline(s) => s,
            Kind::Race | Kind::Drift => PartitionStrategy::McTl,
        }
    }

    /// Generates the workload's mesh (`--quick` uses depth 4 everywhere).
    pub fn generate(&self, quick: bool) -> Mesh {
        let config = GeneratorConfig {
            base_depth: if quick { 4 } else { self.depth },
        };
        match self.mesh {
            MeshKind::Cylinder => cylinder_like(&config),
            MeshKind::PprimeNozzle => pprime_nozzle_like(&config),
        }
    }

    /// The seed this workload derives its panel from. The race itself is
    /// deterministic and has no seed; deriving its 16 decompositions from
    /// `--seed` would only inject the partitioner's seed-to-seed variance
    /// (7 % of the best-of-race makespan per decomposition) into the one
    /// workload that exists to isolate FLUSIM, and would force the
    /// `makespan_units` bound from 5 % to 20 % for every workload. Its
    /// inputs are therefore a fixed set.
    pub fn base_seed(&self, seed: u64) -> u64 {
        match self.kind {
            Kind::Race => 0x5EED,
            Kind::Pipeline(_) | Kind::Drift => seed,
        }
    }

    /// Panel size of this run.
    pub fn panel_size(&self, quick: bool) -> usize {
        if quick {
            self.panel.min(2)
        } else {
            self.panel
        }
    }
}
