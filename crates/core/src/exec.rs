//! The execution context every general pipeline entry point takes.

use tempart_obs::Recorder;
use tempart_partition::WorkspacePool;

/// How a pipeline operation executes: fork-join width, partitioner scratch
/// memory and where its events go. None of the three changes a result —
/// every stage is bit-identical at every `workers`, on a warm or a fresh
/// `pool`, traced or not.
///
/// The caller owns the pool and the recorder; `Exec` only borrows them, so
/// one pool can serve many calls (workspaces carry capacity, never state —
/// holding a pool across calls is the warm-reuse idiom that keeps repeated
/// runs allocation-free) and a fan-out can hand each job its own width and
/// recorder over the *same* pool, as [`crate::run_sweep`] does. The price
/// of warmth is memory: a pool keeps its idle workspaces allocated until it
/// is dropped.
#[derive(Debug, Clone, Copy)]
pub struct Exec<'a> {
    /// Fork-join workers for the partitioner, domain classification and
    /// portfolio/sweep fan-outs (≥ 1).
    pub workers: usize,
    /// Partitioner workspaces, the scratch of every strategy (the curve
    /// strategies' in [`PartitionWorkspace::sfc`]);
    /// [`WorkspacePool::new`]`(workers)` stripes is the natural size.
    ///
    /// [`PartitionWorkspace::sfc`]: tempart_partition::PartitionWorkspace::sfc
    pub pool: &'a WorkspacePool,
    /// Event sink; [`Recorder::off`] costs one relaxed branch per emission.
    pub rec: &'a Recorder,
}

impl<'a> Exec<'a> {
    /// `workers` wide over `pool`, recording into `rec`.
    pub fn new(workers: usize, pool: &'a WorkspacePool, rec: &'a Recorder) -> Self {
        Self { workers, pool, rec }
    }
}
