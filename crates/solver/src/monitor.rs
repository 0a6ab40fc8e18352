//! Run monitoring: residual norms, flow statistics and convergence history —
//! the bookkeeping layer a production CFD code wraps around its iteration
//! loop.

use crate::state::{to_primitive, EulerState};
use tempart_mesh::Mesh;

/// Global flow statistics at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowStats {
    /// Volume-weighted conserved totals `[ρ, ρu, ρv, ρw, E]`.
    pub totals: [f64; 5],
    /// Total kinetic energy.
    pub kinetic_energy: f64,
    /// Minimum density over cells.
    pub min_density: f64,
    /// Maximum density over cells.
    pub max_density: f64,
    /// Maximum pressure over cells.
    pub max_pressure: f64,
    /// Maximum Mach number over cells.
    pub max_mach: f64,
}

impl FlowStats {
    /// Measures the current state on a mesh.
    pub fn measure(state: &EulerState, mesh: &Mesh) -> Self {
        assert_eq!(state.u.len(), mesh.n_cells(), "one state per cell");
        let mut totals = [0.0f64; 5];
        let mut kinetic = 0.0;
        let mut min_rho = f64::INFINITY;
        let mut max_rho = f64::NEG_INFINITY;
        let mut max_p = f64::NEG_INFINITY;
        let mut max_mach = 0.0f64;
        for (u, cell) in state.u.iter().zip(mesh.cells()) {
            let volume = cell.volume();
            for k in 0..5 {
                totals[k] += u[k] * volume;
            }
            let pr = to_primitive(u);
            let speed2 = pr.vel[0] * pr.vel[0] + pr.vel[1] * pr.vel[1] + pr.vel[2] * pr.vel[2];
            kinetic += 0.5 * pr.rho * speed2 * volume;
            min_rho = min_rho.min(pr.rho);
            max_rho = max_rho.max(pr.rho);
            max_p = max_p.max(pr.p);
            let c = pr.sound_speed();
            if c > 0.0 {
                max_mach = max_mach.max(speed2.sqrt() / c);
            }
        }
        Self {
            totals,
            kinetic_energy: kinetic,
            min_density: min_rho,
            max_density: max_rho,
            max_pressure: max_p,
            max_mach,
        }
    }
}

/// Convergence monitor: records the volume-weighted L2 norm of the state
/// change per iteration (the residual a steady-state solver would drive to
/// zero) plus flow statistics.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    previous: Option<Vec<[f64; 5]>>,
    /// L2 density-residual history, one entry per recorded iteration.
    pub residual_history: Vec<f64>,
    /// Flow statistics history.
    pub stats_history: Vec<FlowStats>,
}

impl Monitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an iteration: computes `‖Δρ‖₂` against the previous recorded
    /// state (0.0 for the first record) and snapshots flow statistics.
    /// Returns the residual.
    pub fn record(&mut self, state: &EulerState, mesh: &Mesh) -> f64 {
        let residual = match &self.previous {
            None => 0.0,
            Some(prev) => {
                let mut acc = 0.0f64;
                let mut vol = 0.0f64;
                for ((u, p), cell) in state.u.iter().zip(prev).zip(mesh.cells()) {
                    let d = u[0] - p[0];
                    let volume = cell.volume();
                    acc += d * d * volume;
                    vol += volume;
                }
                (acc / vol.max(f64::MIN_POSITIVE)).sqrt()
            }
        };
        self.previous = Some(state.u.clone());
        self.residual_history.push(residual);
        self.stats_history.push(FlowStats::measure(state, mesh));
        residual
    }

    /// True when the last `window` residuals are all below `tol` (and at
    /// least `window + 1` iterations have been recorded).
    pub fn converged(&self, tol: f64, window: usize) -> bool {
        let h = &self.residual_history;
        h.len() > window && h[h.len() - window..].iter().all(|&r| r < tol)
    }

    /// CSV dump of the history
    /// (`iter,residual,mass,energy,kinetic,min_rho,max_rho,max_mach`).
    pub fn history_csv(&self) -> String {
        let mut out = String::from("iter,residual,mass,energy,kinetic,min_rho,max_rho,max_mach\n");
        for (i, (r, s)) in self
            .residual_history
            .iter()
            .zip(&self.stats_history)
            .enumerate()
        {
            out.push_str(&format!(
                "{i},{r},{},{},{},{},{},{}\n",
                s.totals[0],
                s.totals[4],
                s.kinetic_energy,
                s.min_density,
                s.max_density,
                s.max_mach
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{blast_initial, Solver, SolverConfig};
    use crate::state::Primitive;
    use tempart_mesh::{Octree, OctreeConfig, TemporalScheme};

    fn uniform_mesh() -> Mesh {
        let cfg = OctreeConfig {
            base_depth: 2,
            max_depth: 2,
        };
        let mut m = Mesh::from_octree(&Octree::build(&cfg, |_, _, _| false));
        TemporalScheme::new(1).assign(&mut m);
        m
    }

    #[test]
    fn stats_of_rest_state() {
        let m = uniform_mesh();
        let s = EulerState::init(m.cells().iter().map(|c| c.centroid), |_| {
            Primitive::at_rest(1.0, 1.0)
        });
        let stats = FlowStats::measure(&s, &m);
        assert!(
            (stats.totals[0] - 1.0).abs() < 1e-12,
            "unit mass in unit box"
        );
        assert!(stats.kinetic_energy.abs() < 1e-15);
        assert!((stats.min_density - 1.0).abs() < 1e-12);
        assert!((stats.max_density - 1.0).abs() < 1e-12);
        assert!(stats.max_mach.abs() < 1e-12);
    }

    #[test]
    fn residuals_decay_as_blast_relaxes() {
        let m = uniform_mesh();
        let part = vec![0u32; m.n_cells()];
        let mut solver = Solver::new(
            &m,
            &part,
            1,
            SolverConfig::default(),
            blast_initial([0.5; 3], 0.25),
        );
        let mut mon = Monitor::new();
        mon.record(&solver.state(), &m);
        for _ in 0..12 {
            solver.run_iteration_serial();
            mon.record(&solver.state(), &m);
        }
        // Early residuals (blast expanding) exceed late ones (ring-down).
        let h = &mon.residual_history;
        let early: f64 = h[1..4].iter().sum();
        let late: f64 = h[h.len() - 3..].iter().sum();
        assert!(
            late < early,
            "residual should decay: early {early}, late {late}"
        );
        assert!(!mon.converged(1e-12, 3), "not converged this fast");
        let csv = mon.history_csv();
        assert_eq!(csv.lines().count(), h.len() + 1);
    }

    #[test]
    fn converged_detection() {
        let m = uniform_mesh();
        let s = EulerState::init(m.cells().iter().map(|c| c.centroid), |_| {
            Primitive::at_rest(1.0, 1.0)
        });
        let mut mon = Monitor::new();
        for _ in 0..5 {
            mon.record(&s, &m); // identical states → zero residuals
        }
        assert!(mon.converged(1e-14, 3));
        assert!(!mon.converged(1e-14, 10), "window larger than history");
    }
}
