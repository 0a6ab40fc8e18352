#![warn(missing_docs)]
//! High-level API of the `tempart` workspace: partitioning strategies and the
//! mesh → partition → task graph → execution pipeline.
//!
//! This crate packages the paper's contribution behind three strategy
//! choices:
//!
//! * [`PartitionStrategy::ScOc`] — the baseline **S**ingle-**C**onstraint
//!   **O**perating-**C**ost partitioning: each cell weighs `2^(τmax−τ)` and
//!   the partitioner balances total weight (Section II-A of the paper);
//! * [`PartitionStrategy::McTl`] — the contribution, **M**ulti-**C**onstraint
//!   **T**emporal-**L**evel partitioning: each cell carries a one-hot vector
//!   over temporal levels and every level is balanced independently
//!   (Sections IV–V);
//! * [`PartitionStrategy::DualPhase`] — the Section VII perspective: MC_TL
//!   across processes, then SC_OC within each process's subdomain to recover
//!   granularity with less communication.

pub mod exec;
pub mod pipeline;
pub mod repart;
pub mod report;
pub mod strategy;

pub use exec::Exec;
pub use pipeline::{
    comm_crossover, run_flusim, run_flusim_with, run_portfolio, run_sweep, simulate_decomposition,
    CommCrossover, CommCrossoverRow, FlusimOutcome, PipelineConfig, PortfolioOutcome,
};
pub use repart::{
    default_repart_config, repartition_sequence, RepartMode, RepartSequenceConfig,
    RepartSequenceOutcome, RepartStep,
};
pub use strategy::{
    decompose, decompose_with, decompose_with_repair, strategy_weights, PartitionStrategy,
};
pub use tempart_partition::{Curve, WorkspacePool};
pub use tempart_runtime::env_workers;
