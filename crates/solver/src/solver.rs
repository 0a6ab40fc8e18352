//! The iteration driver: task-graph execution of the adaptive scheme.

use crate::kernels::{cell_task, face_task, CellStage, Fields, SharedArray, SolverArrays};
use crate::state::{EulerState, Primitive};
use crate::timestep::stable_dt;
use crate::viscous::Viscosity;
use tempart_graph::PartId;
use tempart_mesh::{Cell, Mesh};
use tempart_obs::Recorder;
use tempart_runtime::{execute, ExecReport, RuntimeConfig};
use tempart_taskgraph::{
    generate_taskgraph, DomainDecomposition, ObjectClass, ObjectLists, TaskGraph, TaskGraphConfig,
    TaskKind,
};

/// Time-integration scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeIntegration {
    /// Single-stage forward Euler (cheapest; default).
    #[default]
    ForwardEuler,
    /// Heun's second-order two-stage method — the scheme the paper's solver
    /// uses; doubles the face/cell tasks per phase.
    Heun,
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// CFL number for the finest temporal level.
    pub cfl: f64,
    /// Time-integration scheme.
    pub integration: TimeIntegration,
    /// Viscous terms: `None` solves the Euler equations, `Some` the
    /// (thin-layer) Navier–Stokes equations, as in FLUSEPA.
    pub viscosity: Option<Viscosity>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            cfl: 0.4,
            integration: TimeIntegration::ForwardEuler,
            viscosity: None,
        }
    }
}

/// A temporal-adaptive finite-volume solver bound to one mesh and one domain
/// decomposition.
pub struct Solver<'m> {
    mesh: &'m Mesh,
    dd: DomainDecomposition,
    /// The objects each task's kernel walks.
    lists: ObjectLists,
    graph: TaskGraph,
    arrays: SolverArrays,
    config: SolverConfig,
    /// Time step of the finest level for the current iteration.
    dt0: f64,
    /// Physical time advanced so far.
    pub time: f64,
}

impl<'m> Solver<'m> {
    /// Builds a solver: decomposes the mesh along `part`, lists each task's
    /// objects, generates the task graph and initialises the flow with
    /// `init(centroid)`.
    pub fn new<F>(
        mesh: &'m Mesh,
        part: &[PartId],
        n_domains: usize,
        config: SolverConfig,
        init: F,
    ) -> Self
    where
        F: Fn([f64; 3]) -> Primitive,
    {
        let dd = DomainDecomposition::new(mesh, part, n_domains);
        let lists = ObjectLists::new(mesh, part, &dd);
        let tg_config = match config.integration {
            TimeIntegration::ForwardEuler => TaskGraphConfig::default(),
            TimeIntegration::Heun => TaskGraphConfig::heun(),
        };
        let graph = generate_taskgraph(mesh, &dd, &tg_config);
        let state = EulerState::init(mesh.cells().iter().map(|c| c.centroid), init);
        let mut dt0 = stable_dt(mesh, &state.u, config.cfl);
        if let Some(v) = &config.viscosity {
            dt0 = dt0.min(viscous_dt(mesh, &state.u, v));
        }
        let n_cells = mesh.n_cells();
        let arrays = SolverArrays {
            u: SharedArray::new(state.u),
            flux: SharedArray::new(vec![[0.0; 5]; mesh.n_faces()]),
            u0: SharedArray::new(vec![[0.0; 5]; n_cells]),
        };
        Self {
            mesh,
            dd,
            lists,
            graph,
            arrays,
            config,
            dt0,
            time: 0.0,
        }
    }

    /// The generated task graph (one full iteration).
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The domain decomposition.
    pub fn decomposition(&self) -> &DomainDecomposition {
        &self.dd
    }

    /// The finest-level time step currently in use.
    pub fn dt0(&self) -> f64 {
        self.dt0
    }

    fn run_task(&self, id: tempart_taskgraph::TaskId) {
        let task = self.graph.task(id);
        let class = if task.kind.is_external() {
            ObjectClass::External
        } else {
            ObjectClass::Internal
        };
        let fields = Fields {
            mesh: self.mesh,
            lists: &self.lists,
            arrays: &self.arrays,
        };
        // SAFETY: called with the task's DAG dependencies satisfied (either
        // by the runtime or by serial in-order execution), which is exactly
        // the contract of the kernels.
        unsafe {
            match task.kind {
                TaskKind::FaceExternal | TaskKind::FaceInternal => {
                    face_task(
                        fields,
                        task.domain,
                        task.tau,
                        class,
                        self.config.viscosity.as_ref(),
                    );
                }
                TaskKind::CellExternal | TaskKind::CellInternal => {
                    let dt_tau = self.dt0 * f64::from(1u32 << task.tau);
                    let stage = match (self.config.integration, task.stage) {
                        (TimeIntegration::ForwardEuler, _) => CellStage::Euler,
                        (TimeIntegration::Heun, 0) => CellStage::HeunPredict,
                        (TimeIntegration::Heun, _) => CellStage::HeunCorrect,
                    };
                    cell_task(fields, task.domain, task.tau, class, dt_tau, stage);
                }
            }
        }
    }

    /// Runs one full iteration (all subiterations) on the threaded runtime.
    ///
    /// `group_of[d]` maps domain `d` to a process group of `runtime`.
    /// Structured events go into `rec` (pass [`Recorder::off`] for none): a
    /// `"solver.iteration"` wall span around the whole iteration (`a` = task
    /// count) plus the runtime's own `rt.*` events, followed by a
    /// `"solver.dt0"` counter carrying the next iteration's finest-level
    /// time step (f64 bits).
    pub fn run_iteration(
        &mut self,
        runtime: &RuntimeConfig,
        group_of: &[usize],
        rec: &Recorder,
    ) -> ExecReport {
        let span = rec.span("solver.iteration", 0, self.graph.len() as u64);
        let report = execute(&self.graph, runtime, group_of, rec, |id, _| {
            self.run_task(id)
        });
        self.finish_iteration();
        drop(span);
        if rec.enabled() {
            rec.counter("solver.dt0", 0, self.dt0.to_bits());
        }
        report
    }

    /// Runs one full iteration serially, in task order (reference path for
    /// tests and debugging).
    pub fn run_iteration_serial(&mut self) {
        for id in 0..self.graph.len() as u32 {
            self.run_task(id);
        }
        self.finish_iteration();
    }

    /// Runs one full iteration serially, returning the measured wall-clock
    /// duration of every task in nanoseconds (min 1 ns).
    ///
    /// These measured costs can be fed back into the FLUSIM simulator via
    /// [`TaskGraph::with_costs`] for *measured-cost replay*: scheduling real
    /// kernel durations on an emulated cluster. This is how the workspace
    /// reproduces the paper's production-code experiments (Figs. 5 and 13)
    /// without a multicore testbed.
    pub fn run_iteration_timed(&mut self) -> Vec<u64> {
        let mut ns = Vec::with_capacity(self.graph.len());
        for id in 0..self.graph.len() as u32 {
            let t0 = std::time::Instant::now();
            self.run_task(id);
            ns.push((t0.elapsed().as_nanos() as u64).max(1));
        }
        self.finish_iteration();
        ns
    }

    fn finish_iteration(&mut self) {
        let tau_max = self.mesh.n_tau_levels() - 1;
        self.time += self.dt0 * f64::from(1u32 << tau_max);
        // Re-evaluate the stable step for the next iteration.
        let u = self.arrays.u.to_vec();
        self.dt0 = stable_dt(self.mesh, &u, self.config.cfl);
        if let Some(v) = &self.config.viscosity {
            self.dt0 = self.dt0.min(viscous_dt(self.mesh, &u, v));
        }
    }

    /// Snapshot of the current state.
    pub fn state(&mut self) -> EulerState {
        EulerState {
            u: self.arrays.u.to_vec(),
        }
    }

    /// Volume-weighted conserved totals.
    pub fn totals(&mut self) -> [f64; 5] {
        let vols: Vec<f64> = self.mesh.cells().iter().map(Cell::volume).collect();
        self.state().totals(vols.into_iter())
    }
}

/// Largest stable time step for the viscous terms at the finest level:
/// `min over cells of ρ h² / (6 μ)`, normalised like [`stable_dt`].
fn viscous_dt(mesh: &Mesh, u: &[[f64; 5]], visc: &Viscosity) -> f64 {
    let deepest = mesh.cells().iter().map(|c| c.depth).max().unwrap_or(0);
    let mut dt = f64::INFINITY;
    for (cell, state) in mesh.cells().iter().zip(u) {
        let h = cell.volume().cbrt();
        let octaves = f64::from(u32::from(deepest - cell.depth));
        let local = state[0] * h * h / (6.0 * visc.mu) / 2f64.powf(octaves);
        dt = dt.min(local);
    }
    dt
}

/// A ready-made initial condition: quiescent background with a hot
/// high-pressure sphere — a blast-wave setup that exercises all flux paths.
pub fn blast_initial(centre: [f64; 3], radius: f64) -> impl Fn([f64; 3]) -> Primitive {
    move |c| {
        let d2 =
            (c[0] - centre[0]).powi(2) + (c[1] - centre[1]).powi(2) + (c[2] - centre[2]).powi(2);
        if d2 < radius * radius {
            Primitive::at_rest(2.0, 5.0)
        } else {
            Primitive::at_rest(1.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_mesh::{Octree, OctreeConfig, TemporalScheme};

    fn uniform_mesh(depth: u8) -> Mesh {
        let cfg = OctreeConfig {
            base_depth: depth,
            max_depth: depth,
        };
        let mut m = Mesh::from_octree(&Octree::build(&cfg, |_, _, _| false));
        TemporalScheme::new(1).assign(&mut m);
        m
    }

    fn graded_mesh() -> Mesh {
        let cfg = OctreeConfig {
            base_depth: 2,
            max_depth: 4,
        };
        let t = Octree::build(&cfg, |c, _, _| {
            let d2 = (c[0] - 0.5).powi(2) + (c[1] - 0.5).powi(2) + (c[2] - 0.5).powi(2);
            d2 < 0.05
        });
        let mut m = Mesh::from_octree(&t);
        TemporalScheme::new(3).assign(&mut m);
        m
    }

    #[test]
    fn serial_uniform_blast_conserves() {
        let m = uniform_mesh(2);
        let part = vec![0 as PartId; m.n_cells()];
        let mut s = Solver::new(
            &m,
            &part,
            1,
            SolverConfig::default(),
            blast_initial([0.5, 0.5, 0.5], 0.25),
        );
        let before = s.totals();
        for _ in 0..5 {
            s.run_iteration_serial();
        }
        let after = s.totals();
        assert!(
            (after[0] - before[0]).abs() < 1e-11 * before[0].abs(),
            "mass drift {} -> {}",
            before[0],
            after[0]
        );
        assert!(
            (after[4] - before[4]).abs() < 1e-11 * before[4].abs(),
            "energy drift"
        );
        assert!(s.state().is_physical());
        assert!(s.time > 0.0);
    }

    #[test]
    fn graded_multilevel_stays_physical() {
        let m = graded_mesh();
        let part: Vec<PartId> = m
            .cells()
            .iter()
            .map(|c| u32::from(c.centroid[0] > 0.5))
            .collect();
        let mut s = Solver::new(
            &m,
            &part,
            2,
            SolverConfig::default(),
            blast_initial([0.5, 0.5, 0.5], 0.2),
        );
        let before = s.totals();
        for _ in 0..3 {
            s.run_iteration_serial();
        }
        let after = s.totals();
        assert!(s.state().is_physical());
        // Subcycled updates are only approximately conservative (documented
        // substitution); the drift must stay small.
        let drift = (after[0] - before[0]).abs() / before[0];
        assert!(drift < 0.05, "mass drift {drift}");
    }

    #[test]
    fn parallel_matches_serial_when_single_level() {
        // With one temporal level every subiteration is synchronous, so the
        // parallel run must reproduce the serial result bit-for-bit (flux
        // values do not depend on execution order thanks to the DAG).
        let m = uniform_mesh(2);
        let part: Vec<PartId> = m
            .cells()
            .iter()
            .map(|c| u32::from(c.centroid[0] > 0.5))
            .collect();
        let init = blast_initial([0.3, 0.5, 0.5], 0.2);
        let mut serial = Solver::new(&m, &part, 2, SolverConfig::default(), &init);
        let mut parallel = Solver::new(&m, &part, 2, SolverConfig::default(), &init);
        serial.run_iteration_serial();
        let rt = RuntimeConfig::new(2, 2);
        parallel.run_iteration(&rt, &[0, 1], Recorder::off());
        let us = serial.state();
        let up = parallel.state();
        for (a, b) in us.u.iter().zip(&up.u) {
            for k in 0..5 {
                assert!((a[k] - b[k]).abs() < 1e-14, "serial/parallel mismatch");
            }
        }
    }

    #[test]
    fn heun_doubles_tasks_and_conserves() {
        let m = uniform_mesh(2);
        let part = vec![0 as PartId; m.n_cells()];
        let init = blast_initial([0.5, 0.5, 0.5], 0.25);
        let euler_cfg = SolverConfig::default();
        let heun_cfg = SolverConfig {
            integration: TimeIntegration::Heun,
            ..SolverConfig::default()
        };
        let euler = Solver::new(&m, &part, 1, euler_cfg, &init);
        let mut heun = Solver::new(&m, &part, 1, heun_cfg, &init);
        assert_eq!(heun.graph().len(), 2 * euler.graph().len());
        let before = heun.totals();
        for _ in 0..5 {
            heun.run_iteration_serial();
        }
        let after = heun.totals();
        assert!(
            (after[0] - before[0]).abs() < 1e-11 * before[0].abs(),
            "mass"
        );
        assert!(
            (after[4] - before[4]).abs() < 1e-11 * before[4].abs(),
            "energy"
        );
        assert!(heun.state().is_physical());
    }

    #[test]
    fn heun_is_more_accurate_than_euler_on_smooth_flow() {
        // Against a fine-dt reference, Heun's error after a fixed time
        // should undercut forward Euler's (2nd vs 1st order).
        let m = uniform_mesh(2);
        let part = vec![0 as PartId; m.n_cells()];
        // A smooth initial condition (no shock): gentle pressure gradient.
        let init = |c: [f64; 3]| crate::state::Primitive {
            rho: 1.0 + 0.05 * (std::f64::consts::PI * c[0]).sin(),
            vel: [0.0; 3],
            p: 1.0,
        };
        let run = |integration, cfl: f64, iters: usize| -> Vec<[f64; 5]> {
            let cfg = SolverConfig {
                cfl,
                integration,
                viscosity: None,
            };
            let mut s = Solver::new(&m, &part, 1, cfg, init);
            for _ in 0..iters {
                s.run_iteration_serial();
            }
            s.state().u
        };
        // Reference: tiny steps with Heun.
        let reference = run(TimeIntegration::Heun, 0.025, 32);
        let euler = run(TimeIntegration::ForwardEuler, 0.4, 2);
        let heun = run(TimeIntegration::Heun, 0.4, 2);
        let err = |sol: &[[f64; 5]]| -> f64 {
            sol.iter()
                .zip(&reference)
                .map(|(a, b)| (a[0] - b[0]).abs())
                .sum::<f64>()
        };
        assert!(
            err(&heun) < err(&euler),
            "Heun err {} vs Euler err {}",
            err(&heun),
            err(&euler)
        );
    }

    #[test]
    fn heun_parallel_matches_serial() {
        let m = uniform_mesh(2);
        let part: Vec<PartId> = m
            .cells()
            .iter()
            .map(|c| u32::from(c.centroid[2] > 0.5))
            .collect();
        let cfg = SolverConfig {
            integration: TimeIntegration::Heun,
            ..SolverConfig::default()
        };
        let init = blast_initial([0.5, 0.5, 0.3], 0.2);
        let mut serial = Solver::new(&m, &part, 2, cfg, &init);
        let mut parallel = Solver::new(&m, &part, 2, cfg, &init);
        serial.run_iteration_serial();
        parallel.run_iteration(&RuntimeConfig::new(2, 2), &[0, 1], Recorder::off());
        for (a, b) in serial.state().u.iter().zip(&parallel.state().u) {
            for k in 0..5 {
                assert!((a[k] - b[k]).abs() < 1e-14, "heun serial/parallel mismatch");
            }
        }
    }

    #[test]
    fn parallel_graded_stays_physical_and_runs_all_tasks() {
        let m = graded_mesh();
        let part: Vec<PartId> = m
            .cells()
            .iter()
            .map(|c| u32::from(c.centroid[1] > 0.5))
            .collect();
        let mut s = Solver::new(
            &m,
            &part,
            2,
            SolverConfig::default(),
            blast_initial([0.5, 0.5, 0.5], 0.2),
        );
        let rt = RuntimeConfig::new(2, 2);
        let report = s.run_iteration(&rt, &[0, 1], Recorder::off());
        assert_eq!(report.executed, s.graph().len());
        assert!(s.state().is_physical());
    }
}
