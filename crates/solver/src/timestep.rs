//! CFL time-step computation.

use crate::state::to_primitive;
use tempart_mesh::Mesh;

/// Largest stable time step for the *finest* temporal level: the minimum over
/// cells of `CFL · h / (|v| + c)` where `h` is the cell size. Cells of level
/// τ then advance with `dt · 2^τ`, which is what makes the octave-based level
/// assignment CFL-consistent.
pub fn stable_dt(mesh: &Mesh, u: &[[f64; 5]], cfl: f64) -> f64 {
    assert_eq!(u.len(), mesh.n_cells(), "one state per cell");
    assert!(cfl > 0.0, "CFL must be positive");
    let mut dt = f64::INFINITY;
    let deepest = mesh.cells().iter().map(|c| c.depth).max().unwrap_or(0);
    for (cell, state) in mesh.cells().iter().zip(u) {
        let pr = to_primitive(state);
        let speed = (pr.vel[0] * pr.vel[0] + pr.vel[1] * pr.vel[1] + pr.vel[2] * pr.vel[2]).sqrt()
            + pr.sound_speed();
        let h = cell.volume().cbrt();
        // Normalise to the finest level: a τ-cell is 2^τ octaves coarser, so
        // its own stable step is 2^τ larger; dt here is the τ=0 step.
        let tau_octaves = f64::from(u32::from(deepest - cell.depth));
        let local = cfl * h / speed / 2f64.powf(tau_octaves);
        dt = dt.min(local);
    }
    dt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Primitive;
    use tempart_mesh::{Octree, OctreeConfig, TemporalScheme};

    #[test]
    fn uniform_mesh_dt_matches_formula() {
        let cfg = OctreeConfig {
            base_depth: 2,
            max_depth: 2,
        };
        let mut m = tempart_mesh::Mesh::from_octree(&Octree::build(&cfg, |_, _, _| false));
        TemporalScheme::new(1).assign(&mut m);
        let u: Vec<[f64; 5]> = (0..m.n_cells())
            .map(|_| Primitive::at_rest(1.0, 1.0).to_conservative())
            .collect();
        let dt = stable_dt(&m, &u, 0.5);
        let c = Primitive::at_rest(1.0, 1.0).sound_speed();
        let expected = 0.5 * 0.25 / c;
        assert!((dt - expected).abs() < 1e-12);
    }

    #[test]
    fn graded_mesh_dt_set_by_finest_cells() {
        let cfg = OctreeConfig {
            base_depth: 1,
            max_depth: 3,
        };
        let t = Octree::build(&cfg, |c, _, _| c[0] < 0.3 && c[1] < 0.3 && c[2] < 0.3);
        let mut m = tempart_mesh::Mesh::from_octree(&t);
        TemporalScheme::new(3).assign(&mut m);
        let u: Vec<[f64; 5]> = (0..m.n_cells())
            .map(|_| Primitive::at_rest(1.0, 1.0).to_conservative())
            .collect();
        let dt = stable_dt(&m, &u, 1.0);
        let c = Primitive::at_rest(1.0, 1.0).sound_speed();
        // The finest cells have h = 1/8 and sit at τ=0 → dt = h/c.
        assert!((dt - 0.125 / c).abs() < 1e-12);
    }
}
