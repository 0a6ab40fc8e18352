//! Task DAG storage, validation and critical-path analysis.

use tempart_graph::PartId;

/// Index of a task in its [`TaskGraph`].
pub type TaskId = u32;

/// The four task kinds Algorithm 1 emits per (subiteration, phase, domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Flux computation on faces bordering another domain.
    FaceExternal,
    /// Flux computation on faces interior to the domain.
    FaceInternal,
    /// Update of cells bordering another domain.
    CellExternal,
    /// Update of cells interior to the domain.
    CellInternal,
}

impl TaskKind {
    /// All kinds in generation order (faces before cells, external before
    /// internal so boundary results ship as early as possible).
    pub const ALL: [TaskKind; 4] = [
        TaskKind::FaceExternal,
        TaskKind::FaceInternal,
        TaskKind::CellExternal,
        TaskKind::CellInternal,
    ];

    /// True for the two face kinds.
    pub fn is_face(self) -> bool {
        matches!(self, TaskKind::FaceExternal | TaskKind::FaceInternal)
    }

    /// True for the two external kinds.
    pub fn is_external(self) -> bool {
        matches!(self, TaskKind::FaceExternal | TaskKind::CellExternal)
    }
}

/// One task of the DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Subiteration index within the iteration (`0..2^τmax`).
    pub subiter: u32,
    /// Temporal level of the phase that emitted the task.
    pub tau: u8,
    /// Runge–Kutta stage within the phase (0 = predictor; 1 = corrector for
    /// Heun-configured graphs).
    pub stage: u8,
    /// Domain the task's objects belong to.
    pub domain: PartId,
    /// Task kind.
    pub kind: TaskKind,
    /// Number of objects (cells or faces) the task processes.
    pub n_objects: u32,
    /// Abstract execution cost (object count × per-kind unit cost).
    pub cost: u64,
}

/// An immutable task DAG in CSR form.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    /// CSR of predecessor lists.
    pred_offsets: Vec<usize>,
    preds: Vec<TaskId>,
    /// CSR of successor lists (derived from predecessors).
    succ_offsets: Vec<usize>,
    succs: Vec<TaskId>,
    /// Number of domains in the decomposition the graph was generated from.
    pub n_domains: usize,
    /// Number of subiterations in the iteration.
    pub n_subiterations: u32,
}

impl TaskGraph {
    /// Assembles a DAG from tasks and their predecessor lists.
    ///
    /// # Panics
    ///
    /// Panics if a predecessor id is out of range or not strictly smaller
    /// than the task id (tasks must be supplied in a topological order, which
    /// generation order guarantees).
    pub fn assemble(
        tasks: Vec<Task>,
        pred_lists: Vec<Vec<TaskId>>,
        n_domains: usize,
        n_subiterations: u32,
    ) -> Self {
        assert_eq!(tasks.len(), pred_lists.len(), "one pred list per task");
        let n = tasks.len();
        let mut pred_offsets = Vec::with_capacity(n + 1);
        pred_offsets.push(0usize);
        let mut preds = Vec::new();
        let mut succ_count = vec![0usize; n];
        for (t, list) in pred_lists.iter().enumerate() {
            for &p in list {
                assert!(
                    (p as usize) < t,
                    "predecessor {p} of task {t} breaks topological order"
                );
                preds.push(p);
                succ_count[p as usize] += 1;
            }
            pred_offsets.push(preds.len());
        }
        let mut succ_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        succ_offsets.push(0);
        for &c in &succ_count {
            acc += c;
            succ_offsets.push(acc);
        }
        let mut succs = vec![0 as TaskId; acc];
        let mut cursor = succ_offsets.clone();
        for (t, list) in pred_lists.iter().enumerate() {
            for &p in list {
                succs[cursor[p as usize]] = t as TaskId;
                cursor[p as usize] += 1;
            }
        }
        Self {
            tasks,
            pred_offsets,
            preds,
            succ_offsets,
            succs,
            n_domains,
            n_subiterations,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// All tasks, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// One task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id as usize]
    }

    /// Predecessors of `id`.
    pub fn preds(&self, id: TaskId) -> &[TaskId] {
        let i = id as usize;
        &self.preds[self.pred_offsets[i]..self.pred_offsets[i + 1]]
    }

    /// Successors of `id`.
    pub fn succs(&self, id: TaskId) -> &[TaskId] {
        let i = id as usize;
        &self.succs[self.succ_offsets[i]..self.succ_offsets[i + 1]]
    }

    /// Number of dependency edges.
    pub fn n_edges(&self) -> usize {
        self.preds.len()
    }

    /// Total cost of all tasks — invariant under the partitioning strategy
    /// (the paper: "the total amount of work is independent of partitioning
    /// strategy").
    pub fn total_cost(&self) -> u64 {
        self.tasks.iter().map(|t| t.cost).sum()
    }

    /// Length of the longest cost-weighted path — a lower bound on any
    /// schedule's makespan.
    pub fn critical_path(&self) -> u64 {
        let mut finish = vec![0u64; self.tasks.len()];
        let mut best = 0u64;
        for t in 0..self.tasks.len() {
            let start = self
                .preds(t as TaskId)
                .iter()
                .map(|&p| finish[p as usize])
                .max()
                .unwrap_or(0);
            finish[t] = start + self.tasks[t].cost;
            best = best.max(finish[t]);
        }
        best
    }

    /// Returns a copy of the DAG with task costs replaced (same topology).
    ///
    /// Used for *measured-cost replay*: re-simulating a schedule with
    /// wall-clock kernel durations measured on real hardware instead of
    /// abstract object counts.
    ///
    /// # Panics
    ///
    /// Panics if `costs.len() != self.len()`.
    pub fn with_costs(&self, costs: &[u64]) -> Self {
        assert_eq!(costs.len(), self.tasks.len(), "one cost per task");
        let mut g = self.clone();
        for (t, &c) in g.tasks.iter_mut().zip(costs) {
            t.cost = c;
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(cost: u64) -> Task {
        Task {
            subiter: 0,
            tau: 0,
            stage: 0,
            domain: 0,
            kind: TaskKind::CellInternal,
            n_objects: cost as u32,
            cost,
        }
    }

    #[test]
    fn assemble_diamond() {
        //   0
        //  / \
        // 1   2
        //  \ /
        //   3
        let tasks = vec![task(1), task(2), task(3), task(4)];
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let g = TaskGraph::assemble(tasks, preds, 1, 1);
        assert_eq!(g.len(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.preds(3), &[1, 2]);
        assert_eq!(g.succs(0), &[1, 2]);
        assert_eq!(g.total_cost(), 10);
        // Critical path: 0 -> 2 -> 3 = 1 + 3 + 4.
        assert_eq!(g.critical_path(), 8);
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn assemble_rejects_forward_edge() {
        let tasks = vec![task(1), task(1)];
        let preds = vec![vec![1], vec![]];
        let _ = TaskGraph::assemble(tasks, preds, 1, 1);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::assemble(Vec::new(), Vec::new(), 0, 0);
        assert!(g.is_empty());
        assert_eq!(g.critical_path(), 0);
        assert_eq!(g.total_cost(), 0);
    }

    #[test]
    fn chain_critical_path_is_total() {
        let tasks = vec![task(2), task(3), task(5)];
        let preds = vec![vec![], vec![0], vec![1]];
        let g = TaskGraph::assemble(tasks, preds, 1, 1);
        assert_eq!(g.critical_path(), g.total_cost());
    }
}
