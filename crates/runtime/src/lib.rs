#![warn(missing_docs)]
//! A StarPU-like threaded task runtime with MPI-like process groups.
//!
//! The paper's FLUSEPA delegates task scheduling to StarPU within each MPI
//! process; tasks never migrate between processes (their domain is pinned to
//! a rank). This crate reproduces that execution model in shared memory:
//! worker threads are partitioned into *groups*; each group owns the tasks of
//! the domains mapped to it; workers steal within their group but **never**
//! across groups. That boundary is what makes per-subiteration load imbalance
//! show up as idle cores, exactly as in the distributed setting.
//!
//! There is one runtime: the grouped work-stealing scope of [`forkjoin`].
//! [`fork_join`] is its one-group case, used by the partitioner and the
//! pipeline; [`execute`] ([`dag_exec`]) runs a task graph on it as one job
//! per task, with one group per process.

pub mod dag_exec;
pub mod forkjoin;
mod groups;
pub mod trace;

pub use dag_exec::{execute, ExecReport, RuntimeConfig};
pub use forkjoin::{env_workers, fork_join, ForkCtx};
pub use trace::{wall_segments, WallSegment};
