#![warn(missing_docs)]
//! Task-graph generation for the temporal-adaptive solver (Algorithm 1).
//!
//! Given a mesh with temporal levels and a domain decomposition, this crate
//! builds the task DAG the paper's solver executes: one iteration is split
//! into `2^τmax` subiterations; subiteration `s` runs phases for every active
//! temporal level in descending order; each phase emits, per domain, up to
//! four tasks — {faces, cells} × {external, internal} — when the
//! corresponding active-object set is non-empty.
//!
//! Dependencies follow the paper's rule ("calculations involve values of
//! neighbouring objects or previous values of the elements they process"):
//! face tasks read the latest cell values of their own domain (and, for
//! external faces, of neighbouring domains); cell tasks consume the fluxes of
//! the faces computed in the same phase; write-after-read dependencies stop a
//! domain from overwriting boundary cells a neighbour is still reading.

pub mod dag;
pub mod domains;
pub mod generate;
pub mod stats;

pub use dag::{Task, TaskGraph, TaskId, TaskKind};
pub use domains::{DomainDecomposition, ObjectClass, ObjectLists};
pub use generate::{generate_taskgraph, generate_taskgraph_traced, TaskGraphConfig};
pub use stats::{DomainLevelCosts, SubiterationLoads};
