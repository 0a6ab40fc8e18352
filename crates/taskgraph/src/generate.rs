//! Algorithm 1: task generation with dependencies.

use crate::dag::{Task, TaskGraph, TaskId, TaskKind};
use crate::domains::{DomainDecomposition, ObjectClass};
use tempart_mesh::{Mesh, TemporalScheme};
use tempart_obs::Recorder;

/// Cost model and shape options for generated tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskGraphConfig {
    /// Abstract cost of processing one face (flux computation).
    pub face_unit: u64,
    /// Abstract cost of processing one cell (state update).
    pub cell_unit: u64,
    /// Runge–Kutta stages per phase: `1` = forward Euler, `2` = Heun's
    /// second-order method (the scheme FLUSEPA uses). Each stage emits its
    /// own face and cell tasks; stage `s+1` consumes stage `s`'s state.
    pub stages: u8,
    /// Bytes exchanged per shared interface face when a halo is
    /// communicated between two domains — the payload the network model
    /// multiplies the halo edge cut by. Defaults to 40 bytes: five `f64`
    /// conserved quantities (ρ, ρu, ρv, ρw, ρE) per face.
    pub face_payload_bytes: u64,
}

impl Default for TaskGraphConfig {
    fn default() -> Self {
        // Flux evaluation (one approximate Riemann solve per face) costs
        // roughly twice a cell state update in explicit FV codes.
        Self {
            face_unit: 2,
            cell_unit: 1,
            stages: 1,
            face_payload_bytes: 40,
        }
    }
}

impl TaskGraphConfig {
    /// The Heun (RK2) configuration FLUSEPA uses.
    pub fn heun() -> Self {
        Self {
            stages: 2,
            ..Self::default()
        }
    }
}

/// Generates the task DAG of **one full iteration** following Algorithm 1.
///
/// For every subiteration `s ∈ 0..2^τmax`, phases run over the active
/// temporal levels in descending order; each phase emits, per domain, a task
/// per non-empty object set in the order external faces, internal faces,
/// external cells, internal cells.
pub fn generate_taskgraph(
    mesh: &Mesh,
    dd: &DomainDecomposition,
    config: &TaskGraphConfig,
) -> TaskGraph {
    generate_taskgraph_traced(mesh, dd, config, Recorder::off())
}

/// Like [`generate_taskgraph`], recording a `"tg.generate"` wall span and the
/// `tg.tasks` / `tg.edges` / `tg.subiters` counters into `rec`.
pub fn generate_taskgraph_traced(
    mesh: &Mesh,
    dd: &DomainDecomposition,
    config: &TaskGraphConfig,
    rec: &Recorder,
) -> TaskGraph {
    let _span = rec.span("tg.generate", 0, dd.n_domains as u64);
    let graph = generate_impl(mesh, dd, config);
    if rec.enabled() {
        rec.counter("tg.tasks", 0, graph.len() as u64);
        let edges: u64 = (0..graph.len() as TaskId)
            .map(|t| graph.preds(t).len() as u64)
            .sum();
        rec.counter("tg.edges", 0, edges);
        rec.counter("tg.subiters", 0, graph.n_subiterations as u64);
    }
    graph
}

fn generate_impl(mesh: &Mesh, dd: &DomainDecomposition, config: &TaskGraphConfig) -> TaskGraph {
    assert!(
        (1..=2).contains(&config.stages),
        "stages must be 1 (forward Euler) or 2 (Heun)"
    );
    let scheme = TemporalScheme::new(mesh.n_tau_levels());
    let n_sub = scheme.subiterations();
    let nd = dd.n_domains;

    let mut tasks: Vec<Task> = Vec::new();
    let mut preds: Vec<Vec<TaskId>> = Vec::new();

    // Rolling dependency state.
    const NONE: TaskId = TaskId::MAX;
    let mut last_cell_int = vec![NONE; nd]; // last internal-cell task
    let mut last_cell_ext = vec![NONE; nd]; // last external-cell task
    let mut last_face_ext = vec![NONE; nd]; // last external-face task

    // Per-phase scratch: the face tasks of the current (subiter, τ, domain).
    let mut phase_face_ext = vec![NONE; nd];
    let mut phase_face_int = vec![NONE; nd];

    let push =
        |tasks: &mut Vec<Task>, preds: &mut Vec<Vec<TaskId>>, task: Task, deps: Vec<TaskId>| {
            let id = tasks.len() as TaskId;
            tasks.push(task);
            let mut deps: Vec<TaskId> = deps.into_iter().filter(|&d| d != NONE).collect();
            deps.sort_unstable();
            deps.dedup();
            preds.push(deps);
            id
        };

    for s in 0..n_sub {
        let top = scheme.max_active_level(s);
        for tau in (0..=top).rev() {
            for stage in 0..config.stages {
                for pf in phase_face_ext.iter_mut() {
                    *pf = NONE;
                }
                for pf in phase_face_int.iter_mut() {
                    *pf = NONE;
                }
                // Faces first, then cells (Algorithm 1 line 3); external before
                // internal so boundary data ships as early as possible.
                for kind in TaskKind::ALL {
                    for d in 0..nd as u32 {
                        let class = if kind.is_external() {
                            ObjectClass::External
                        } else {
                            ObjectClass::Internal
                        };
                        let n_objects = if kind.is_face() {
                            dd.face_count(d, tau, class)
                        } else {
                            dd.cell_count(d, tau, class)
                        };
                        if n_objects == 0 {
                            continue;
                        }
                        let unit = if kind.is_face() {
                            config.face_unit
                        } else {
                            config.cell_unit
                        };
                        let task = Task {
                            subiter: s,
                            tau,
                            stage,
                            domain: d,
                            kind,
                            n_objects: n_objects as u32,
                            cost: n_objects as u64 * unit,
                        };
                        let deps = match kind {
                            TaskKind::FaceExternal => {
                                // Reads own cells (written by either of the
                                // domain's cell-task kinds) + neighbours'
                                // boundary cells.
                                let mut v =
                                    vec![last_cell_int[d as usize], last_cell_ext[d as usize]];
                                for &n in dd.neighbors_of(d) {
                                    v.push(last_cell_ext[n as usize]);
                                }
                                v
                            }
                            TaskKind::FaceInternal => {
                                vec![last_cell_int[d as usize], last_cell_ext[d as usize]]
                            }
                            TaskKind::CellExternal => {
                                // Consumes this phase's fluxes — its own domain's
                                // and those of neighbour-owned boundary faces
                                // (every FaceExternal task of the phase precedes
                                // cell tasks in the kind sweep, so the ids are
                                // known) — and must wait for neighbours that are
                                // still reading our boundary cells
                                // (write-after-read via their older face tasks).
                                let mut v =
                                    vec![phase_face_ext[d as usize], phase_face_int[d as usize]];
                                if v.iter().all(|&x| x == NONE) {
                                    v.push(last_cell_int[d as usize]);
                                    v.push(last_cell_ext[d as usize]);
                                }
                                for &n in dd.neighbors_of(d) {
                                    v.push(phase_face_ext[n as usize]);
                                    v.push(last_face_ext[n as usize]);
                                }
                                v
                            }
                            TaskKind::CellInternal => {
                                let mut v = vec![phase_face_int[d as usize]];
                                if v.iter().all(|&x| x == NONE) {
                                    v.push(last_cell_int[d as usize]);
                                    v.push(last_cell_ext[d as usize]);
                                }
                                v
                            }
                        };
                        let id = push(&mut tasks, &mut preds, task, deps);
                        match kind {
                            TaskKind::FaceExternal => {
                                phase_face_ext[d as usize] = id;
                            }
                            TaskKind::FaceInternal => {
                                phase_face_int[d as usize] = id;
                            }
                            TaskKind::CellExternal => {
                                last_cell_ext[d as usize] = id;
                            }
                            TaskKind::CellInternal => {
                                last_cell_int[d as usize] = id;
                            }
                        }
                    }
                    // Update external-face markers after the whole kind sweep so
                    // same-phase cell tasks of neighbours see *this* phase's
                    // external faces via `phase_face_ext`, while `last_face_ext`
                    // keeps meaning "previous phases".
                }
                for d in 0..nd {
                    if phase_face_ext[d] != NONE {
                        last_face_ext[d] = phase_face_ext[d];
                    }
                }
            }
        }
    }
    TaskGraph::assemble(tasks, preds, nd, n_sub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_graph::PartId;
    use tempart_mesh::{Octree, OctreeConfig};

    /// Uniform 4x4x4 grid, single temporal level, split in two halves.
    fn simple_setup() -> (Mesh, DomainDecomposition) {
        let cfg = OctreeConfig {
            base_depth: 2,
            max_depth: 2,
        };
        let mut m = Mesh::from_octree(&Octree::build(&cfg, |_, _, _| false));
        TemporalScheme::new(1).assign(&mut m);
        let part: Vec<PartId> = m
            .cells()
            .iter()
            .map(|c| u32::from(c.centroid[0] > 0.5))
            .collect();
        let dd = DomainDecomposition::new(&m, &part, 2);
        (m, dd)
    }

    /// Graded mesh with 3 temporal levels split into 2 domains by x.
    fn graded_setup() -> (Mesh, DomainDecomposition) {
        let cfg = OctreeConfig {
            base_depth: 2,
            max_depth: 4,
        };
        let t = Octree::build(&cfg, |c, _, _| {
            let dx = c[0] - 0.5;
            let dy = c[1] - 0.5;
            let dz = c[2] - 0.5;
            (dx * dx + dy * dy + dz * dz).sqrt() < 0.25
        });
        let mut m = Mesh::from_octree(&t);
        TemporalScheme::new(3).assign(&mut m);
        let part: Vec<PartId> = m
            .cells()
            .iter()
            .map(|c| u32::from(c.centroid[0] > 0.5))
            .collect();
        let dd = DomainDecomposition::new(&m, &part, 2);
        (m, dd)
    }

    #[test]
    fn single_level_single_subiteration() {
        let (m, dd) = simple_setup();
        let g = generate_taskgraph(&m, &dd, &TaskGraphConfig::default());
        assert_eq!(g.n_subiterations, 1);
        // 2 domains × 4 kinds, minus domain 1's external-face task: faces on
        // the split plane are all owned by the +x side (domain 0), so domain 1
        // has external cells but no external faces.
        assert_eq!(g.len(), 7);
        // Total cost: faces cost 2 each (counted once), cells 1 each.
        assert_eq!(g.total_cost(), 2 * m.n_faces() as u64 + m.n_cells() as u64);
    }

    #[test]
    fn costs_invariant_under_partitioning() {
        // The paper: total work is independent of the partitioning strategy.
        let (m, _) = graded_setup();
        let part_a: Vec<PartId> = m
            .cells()
            .iter()
            .map(|c| u32::from(c.centroid[0] > 0.5))
            .collect();
        let part_b: Vec<PartId> = (0..m.n_cells()).map(|i| (i % 4) as PartId).collect();
        let ga = generate_taskgraph(
            &m,
            &DomainDecomposition::new(&m, &part_a, 2),
            &TaskGraphConfig::default(),
        );
        let gb = generate_taskgraph(
            &m,
            &DomainDecomposition::new(&m, &part_b, 4),
            &TaskGraphConfig::default(),
        );
        assert_eq!(ga.total_cost(), gb.total_cost());
        assert!(gb.len() > ga.len(), "more domains, more tasks");
    }

    #[test]
    fn activation_counts_match_scheme() {
        let (m, dd) = graded_setup();
        let g = generate_taskgraph(&m, &dd, &TaskGraphConfig::default());
        let scheme = TemporalScheme::new(m.n_tau_levels());
        assert_eq!(g.n_subiterations, 4);
        // Per level, the total number of cell objects processed over the
        // iteration equals count(τ) × activations(τ).
        let mut processed = vec![0u64; m.n_tau_levels() as usize];
        for t in g.tasks() {
            if !t.kind.is_face() {
                processed[t.tau as usize] += u64::from(t.n_objects);
            }
        }
        let hist = tempart_mesh::level_histogram(&m);
        for tau in 0..m.n_tau_levels() {
            let expected = hist[tau as usize] as u64 * u64::from(scheme.activations(tau));
            assert_eq!(processed[tau as usize], expected, "τ={tau}");
        }
    }

    #[test]
    fn dag_is_topologically_valid_and_connected_across_subiters() {
        let (_, dd) = graded_setup();
        let (m, _) = graded_setup();
        let g = generate_taskgraph(&m, &dd, &TaskGraphConfig::default());
        // assemble() already checks topological order; check subiteration
        // monotonicity along edges.
        for t in 0..g.len() as TaskId {
            for &p in g.preds(t) {
                assert!(g.task(p).subiter <= g.task(t).subiter);
            }
        }
        // Tasks of subiteration > 0 with externals must depend (transitively
        // via pred lists) on something; roots only in subiteration 0.
        for t in 0..g.len() as TaskId {
            if g.task(t).subiter > 0 {
                assert!(
                    !g.preds(t).is_empty(),
                    "task {t} in subiter {} has no preds",
                    g.task(t).subiter
                );
            }
        }
    }

    #[test]
    fn neighbour_coupling_exists() {
        // A domain's external face task must depend on the neighbour's
        // external cell task from an earlier point.
        let (m, dd) = graded_setup();
        let g = generate_taskgraph(&m, &dd, &TaskGraphConfig::default());
        let mut found = false;
        for t in 0..g.len() as TaskId {
            let task = g.task(t);
            if task.kind == TaskKind::FaceExternal && task.subiter > 0 {
                for &p in g.preds(t) {
                    let pt = g.task(p);
                    if pt.domain != task.domain && pt.kind == TaskKind::CellExternal {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "no cross-domain dependency found");
    }

    #[test]
    fn heun_config_doubles_every_phase() {
        let (m, dd) = graded_setup();
        let euler = generate_taskgraph(&m, &dd, &TaskGraphConfig::default());
        let heun = generate_taskgraph(&m, &dd, &TaskGraphConfig::heun());
        assert_eq!(heun.len(), 2 * euler.len());
        assert_eq!(heun.total_cost(), 2 * euler.total_cost());
        // Stage-1 tasks exist and are anchored in the DAG.
        let mut saw_stage1 = false;
        for t in 0..heun.len() as TaskId {
            let task = heun.task(t);
            if task.stage == 1 {
                saw_stage1 = true;
                assert!(!heun.preds(t).is_empty(), "stage-1 task {t} unanchored");
            }
        }
        assert!(saw_stage1);
    }

    #[test]
    #[should_panic(expected = "stages must be")]
    fn bad_stage_count_rejected() {
        let (m, dd) = simple_setup();
        let cfg = TaskGraphConfig {
            stages: 3,
            ..TaskGraphConfig::default()
        };
        let _ = generate_taskgraph(&m, &dd, &cfg);
    }

    #[test]
    fn critical_path_below_total_cost() {
        let (m, dd) = graded_setup();
        let g = generate_taskgraph(&m, &dd, &TaskGraphConfig::default());
        assert!(g.critical_path() < g.total_cost());
        assert!(g.critical_path() > 0);
    }
}
