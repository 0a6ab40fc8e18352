//! The configurations the workloads fix: cluster, network, partitioner
//! settings, drift. Shared by the end-to-end run and the traced run so both
//! measure the same thing.

use crate::spec::DRIFT_JITTER;
use tempart_flusim::{ClusterConfig, Link, NetworkModel};
use tempart_graph::Weight;
use tempart_mesh::DriftConfig;
use tempart_partition::PartitionConfig;
use tempart_taskgraph::{DomainDecomposition, TaskGraphConfig};

/// The paper's cluster: 16 processes × 32 cores
/// (`PipelineConfig::paper_default`).
pub fn cluster() -> ClusterConfig {
    ClusterConfig::new(16, 32)
}

/// The priced network of `cyl5-flusim-race`: nodes of 4 processes, cheap
/// links inside a node, expensive ones between, 2 NIC channels, message
/// sizes from the decomposition's own halos.
pub fn race_network(dd: &DomainDecomposition) -> NetworkModel {
    let intra = Link {
        latency: 40,
        cost_per_byte: 1,
    };
    let inter = Link {
        latency: 400,
        cost_per_byte: 2,
    };
    NetworkModel::two_level(4, intra, inter, 2)
        .with_halo(dd, TaskGraphConfig::default().face_payload_bytes)
}

/// The partitioner settings `core::decompose` applies per strategy (private
/// there): 10 % slack for multi-constraint instances, 5 % otherwise. The
/// traced run checks its staged result against `core::decompose` bit for
/// bit, so a drift between the two copies fails the benchmark.
pub fn partition_config(nparts: usize, ncon: usize, seed: u64) -> PartitionConfig {
    let ub = if ncon > 1 { 1.10 } else { 1.05 };
    PartitionConfig::new(nparts).with_ub(ub).with_seed(seed)
}

/// The graded-cylinder drift with a seeded wobble.
pub fn drift(seed: u64) -> DriftConfig {
    DriftConfig::graded_cylinder().with_jitter(DRIFT_JITTER, seed)
}

/// Cell-weight units shipped when every cell is placed once — what adopting
/// a from-scratch decomposition costs, in `graph::migration_volume`'s
/// pricing (first constraint weight, at least 1 per cell).
pub fn shipped_volume(weights: &[Weight], ncon: usize) -> i64 {
    weights
        .chunks_exact(ncon)
        .map(|w| i64::from(w[0].max(1)))
        .sum()
}
