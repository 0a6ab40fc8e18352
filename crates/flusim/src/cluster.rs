//! Cluster configuration and domain→process mapping.

/// Sentinel for an unlimited number of cores per process, used by the
/// paper's Fig. 6 experiment ("the number of cores per node is greater than
/// the maximum number of ready tasks available at any given time").
pub const UNBOUNDED_CORES: usize = usize::MAX;

/// The emulated cluster: `n_processes` MPI ranks with `cores_per_process`
/// workers each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of MPI processes.
    pub n_processes: usize,
    /// Worker cores per process; [`UNBOUNDED_CORES`] removes the limit.
    pub cores_per_process: usize,
}

impl ClusterConfig {
    /// A bounded cluster.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(n_processes: usize, cores_per_process: usize) -> Self {
        assert!(n_processes >= 1, "need at least one process");
        assert!(cores_per_process >= 1, "need at least one core per process");
        Self {
            n_processes,
            cores_per_process,
        }
    }

    /// A cluster with unlimited cores per process (Fig. 6 configuration).
    pub fn unbounded(n_processes: usize) -> Self {
        Self {
            n_processes: n_processes.max(1),
            cores_per_process: UNBOUNDED_CORES,
        }
    }

    /// Total core count; `None` when unbounded.
    pub fn total_cores(&self) -> Option<usize> {
        if self.cores_per_process == UNBOUNDED_CORES {
            None
        } else {
            Some(self.n_processes * self.cores_per_process)
        }
    }

    /// Per-process core counts, the shape `simulate_with` takes: every
    /// process gets `cores_per_process`.
    pub fn cores(&self) -> Vec<usize> {
        vec![self.cores_per_process; self.n_processes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_and_unbounded() {
        let c = ClusterConfig::new(16, 32);
        assert_eq!(c.total_cores(), Some(512));
        let u = ClusterConfig::unbounded(64);
        assert_eq!(u.total_cores(), None);
        assert_eq!(u.cores_per_process, UNBOUNDED_CORES);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = ClusterConfig::new(4, 0);
    }
}
