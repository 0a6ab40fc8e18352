#![warn(missing_docs)]
//! Compressed-sparse-row graphs with multi-constraint vertex weights.
//!
//! This crate is the shared substrate of the `tempart` workspace. Meshes are
//! converted into [`CsrGraph`]s (cells become vertices, interior faces become
//! edges) before partitioning, and the partition-quality metrics used by the
//! paper's evaluation (edge cut, communication volume, per-constraint load
//! imbalance) are computed here.
//!
//! The vertex-weight model follows METIS: every vertex carries `ncon`
//! integer weights. Single-constraint operating-cost partitioning (`SC_OC` in
//! the paper) uses `ncon == 1` with weight `2^(τmax − τ)`; the paper's
//! multi-constraint temporal-level strategy (`MC_TL`) uses `ncon == L` one-hot
//! vectors, one slot per temporal level.

pub mod builder;
pub mod components;
pub mod csr;
pub mod io;
pub mod metrics;

pub use builder::GraphBuilder;
pub use components::{connected_components, count_components, part_connectivity, UnionFind};
pub use csr::CsrGraph;
pub use io::{parse_metis_graph, to_metis_graph, to_metis_partition, MetisParseError};
pub use metrics::{
    communication_volume, constraint_imbalances, edge_cut, max_imbalance, migration_volume,
    part_weights, MigrationStats, PartitionQuality,
};

/// Identifier of a partition (domain) a vertex is assigned to.
pub type PartId = u32;

/// Integer weight type used for vertices and edges.
///
/// Operating costs are powers of two (`2^(τmax−τ)`) and cell counts fit
/// comfortably; `i64` accumulators are used for sums.
pub type Weight = u32;
