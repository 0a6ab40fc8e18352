#![warn(missing_docs)]
//! FLUSIM: an idealized discrete-event simulator for task-distributed
//! executions.
//!
//! Reimplementation of the paper's FLUSIM submodule (Section III-A): given a
//! cluster configuration (processes × cores), a domain→process mapping and a
//! scheduling strategy, it replays a task DAG with list scheduling and
//! reports makespan, per-process activity and a Gantt trace. By default no
//! communication or runtime overheads are modelled — deliberately, so that
//! any remaining idleness is attributable to the *shape of the task graph*
//! alone. The [`network`] module lifts that idealisation: a deterministic
//! per-process-pair latency/bandwidth model prices the halo edge cut as
//! first-class NIC transfers that overlap with compute.

pub mod cluster;
pub mod lattice;
pub mod network;
pub mod portfolio;
// The event loop stays phased (`rank` / `seed_ready` / `run_loop` /
// `account`): no function of it may grow past clippy's 100 lines.
#[warn(clippy::too_many_lines)]
pub mod sim;
pub mod svg;
pub mod trace;

pub use cluster::{ClusterConfig, UNBOUNDED_CORES};
pub use lattice::{DynamicListStrategy, ProcessCriterion, TaskCriterion, TieBreak};
pub use network::{
    parse_preset, HaloBytes, Link, MessageSizes, NetworkModel, Topology, TransferSegment,
    UNBOUNDED_CHANNELS,
};
pub use portfolio::{race, race_network, ComboOutcome, Leaderboard};
pub use sim::{
    simulate, simulate_lattice_with_network, simulate_lattice_with_network_traced, simulate_traced,
    simulate_with, SimResult, Strategy,
};
pub use svg::{gantt_svg, write_gantt_svg, SvgOptions};
pub use tempart_obs::replay::NetStats;
pub use trace::{ascii_gantt, bin_occupancy, segments_csv, Segment};
