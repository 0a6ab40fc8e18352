//! Synthetic stand-ins for the paper's three Airbus meshes.
//!
//! Each generator refines an octree around one or more *hotspots* whose
//! per-level capture radii were solved analytically from Table I's per-τ cell
//! fractions (see DESIGN.md): a cell at refinement stage `k` is split further
//! when its centre lies within the stage-`k` hotspot region. Absolute cell
//! counts scale with `base_depth` (each +1 multiplies the count by ~8), while
//! the per-level *fractions* — which drive all the partitioning behaviour the
//! paper studies — stay approximately constant.

use crate::mesh::Mesh;
use crate::octree::{Octree, OctreeConfig};
use crate::temporal::TemporalScheme;

/// Which of the paper's test meshes to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeshCase {
    /// CYLINDER: a single central machinery piece, 4 temporal levels,
    /// 6.4 M cells in the paper.
    Cylinder,
    /// CUBE: three non-contiguous hotspots, 4 temporal levels, 152 k cells —
    /// the paper's "worst case" geometry.
    Cube,
    /// PPRIME_NOZZLE: installed-jet-noise nozzle, 3 temporal levels,
    /// 12.6 M cells in the paper.
    PprimeNozzle,
}

impl MeshCase {
    /// All cases, in the paper's presentation order.
    pub const ALL: [MeshCase; 3] = [MeshCase::Cylinder, MeshCase::Cube, MeshCase::PprimeNozzle];

    /// Human-readable name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            MeshCase::Cylinder => "CYLINDER",
            MeshCase::Cube => "CUBE",
            MeshCase::PprimeNozzle => "PPRIME_NOZZLE",
        }
    }

    /// Number of temporal levels in the paper's version of this mesh.
    pub fn n_levels(self) -> u8 {
        match self {
            MeshCase::Cylinder | MeshCase::Cube => 4,
            MeshCase::PprimeNozzle => 3,
        }
    }

    /// Per-τ cell fractions reported in Table I (τ = 0 first).
    pub fn paper_cell_fractions(self) -> &'static [f64] {
        match self {
            MeshCase::Cylinder => &[0.008, 0.043, 0.326, 0.623],
            MeshCase::Cube => &[0.020, 0.155, 0.003, 0.822],
            MeshCase::PprimeNozzle => &[0.119, 0.322, 0.559],
        }
    }

    /// Total cell count reported in Table I.
    pub fn paper_cell_count(self) -> usize {
        match self {
            MeshCase::Cylinder => 6_400_505,
            MeshCase::Cube => 151_817,
            MeshCase::PprimeNozzle => 12_594_374,
        }
    }

    /// Default `base_depth` giving a laptop-scale model of the paper's mesh.
    pub fn default_base_depth(self) -> u8 {
        match self {
            MeshCase::Cylinder => 5,
            MeshCase::Cube => 5,
            MeshCase::PprimeNozzle => 5,
        }
    }

    /// Generates the mesh with the given configuration.
    pub fn generate(self, config: &GeneratorConfig) -> Mesh {
        match self {
            MeshCase::Cylinder => cylinder_like(config),
            MeshCase::Cube => cube_like(config),
            MeshCase::PprimeNozzle => pprime_nozzle_like(config),
        }
    }

    /// Number of refinement stages above the base grid (`max_depth -
    /// base_depth` of the octree build).
    pub fn extra_depth(self) -> u8 {
        match self {
            MeshCase::Cylinder | MeshCase::Cube => 3,
            MeshCase::PprimeNozzle => 2,
        }
    }

    /// Whether `base_depth` leaves room for this case's refinement stages
    /// under [`OctreeConfig::MAX_DEPTH`]; the error is the `--depth` message
    /// every command line prints, so [`Self::generate`] is never reached
    /// with a depth the octree asserts on.
    pub fn check_base_depth(self, base_depth: u8) -> Result<(), String> {
        let extra = self.extra_depth();
        if base_depth > OctreeConfig::MAX_DEPTH.saturating_sub(extra) {
            return Err(format!(
                "--depth {base_depth}: {} refines {extra} levels past it, beyond the octree's limit of {}",
                self.name(),
                OctreeConfig::MAX_DEPTH
            ));
        }
        Ok(())
    }

    /// The stage-`k` hotspot rule shared by the octree generators and the
    /// faces-free paper-scale cloud ([`crate::cloud`]): a cell centred at
    /// `c` that has already been refined `k` stages past the base grid is
    /// split once more iff this returns `true`. Capture radii per stage were
    /// solved analytically from Table I's per-τ cell fractions (DESIGN.md
    /// §2) and are independent of the base resolution.
    pub fn refine_stage(self, c: [f64; 3], k: usize) -> bool {
        match self {
            MeshCase::Cylinder => {
                // One vertical capsule around the domain centre axis; the
                // capsule half-height tracks the radius so the region volume
                // is ~4πR³ (cylinder of height 4R).
                const RADII: [f64; 3] = [0.162, 0.0437, 0.0123];
                let r = RADII[k];
                let a = [0.5, 0.5, 0.5 - 2.0 * r];
                let b = [0.5, 0.5, 0.5 + 2.0 * r];
                segment_distance(c, a, b) < r
            }
            MeshCase::Cube => {
                // Three non-contiguous spherical hotspots; r1 ≈ r0 makes the
                // τ=2 shell vanishingly thin (the paper's 0.3 %).
                const CENTRES: [[f64; 3]; 3] =
                    [[0.25, 0.25, 0.3], [0.75, 0.35, 0.7], [0.4, 0.75, 0.55]];
                const RADII: [f64; 3] = [0.0650, 0.0648, 0.0156];
                let r = RADII[k];
                CENTRES.iter().any(|&h| {
                    let dx = c[0] - h[0];
                    let dy = c[1] - h[1];
                    let dz = c[2] - h[2];
                    dx * dx + dy * dy + dz * dz < r * r
                })
            }
            MeshCase::PprimeNozzle => {
                // Jet capsule expanding from the nozzle exit along +x, with
                // the radius flaring downstream.
                const NOZZLE: [f64; 3] = [0.15, 0.5, 0.5];
                const SPANS: [f64; 2] = [0.70, 0.50];
                const RADII: [f64; 2] = [0.155, 0.0445];
                let end = [NOZZLE[0] + SPANS[k], NOZZLE[1], NOZZLE[2]];
                let t = ((c[0] - NOZZLE[0]) / SPANS[k]).clamp(0.0, 1.0);
                let r = RADII[k] * (0.85 + 0.45 * t);
                segment_distance(c, NOZZLE, end) < r
            }
        }
    }
}

/// Scale configuration for the generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Uniform octree depth the build starts from; total cell count scales by
    /// roughly `8^base_depth`.
    pub base_depth: u8,
}

fn finish(tree: &Octree, n_levels: u8) -> Mesh {
    let mut mesh = Mesh::from_octree(tree);
    TemporalScheme::new(n_levels).assign(&mut mesh);
    mesh
}

/// Distance from `p` to the segment `a`–`b`.
fn segment_distance(p: [f64; 3], a: [f64; 3], b: [f64; 3]) -> f64 {
    let ab = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
    let ap = [p[0] - a[0], p[1] - a[1], p[2] - a[2]];
    let len2 = ab[0] * ab[0] + ab[1] * ab[1] + ab[2] * ab[2];
    let t = if len2 == 0.0 {
        0.0
    } else {
        ((ap[0] * ab[0] + ap[1] * ab[1] + ap[2] * ab[2]) / len2).clamp(0.0, 1.0)
    };
    let q = [a[0] + t * ab[0], a[1] + t * ab[1], a[2] + t * ab[2]];
    let d = [p[0] - q[0], p[1] - q[1], p[2] - q[2]];
    (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
}

/// CYLINDER-like mesh: one central cylindrical hotspot, 4 temporal levels.
///
/// Capture radii per refinement stage solved from Table I fractions
/// (62.3 / 32.6 / 4.3 / 0.8 % for τ = 3..0): the stage-k region is a vertical
/// capsule of radius `R_k` around the domain centre axis.
pub fn cylinder_like(config: &GeneratorConfig) -> Mesh {
    case_mesh(MeshCase::Cylinder, config)
}

/// Octree build shared by the three cases: refine by
/// [`MeshCase::refine_stage`] for [`MeshCase::extra_depth`] stages past the
/// base grid, then assign temporal levels.
fn case_mesh(case: MeshCase, config: &GeneratorConfig) -> Mesh {
    let b = config.base_depth;
    let cfg = OctreeConfig {
        base_depth: b,
        max_depth: b + case.extra_depth(),
    };
    let tree = Octree::build(&cfg, |c, _, d| case.refine_stage(c, (d - b) as usize));
    finish(&tree, case.n_levels())
}

/// CUBE-like mesh: three non-contiguous spherical hotspots, 4 temporal
/// levels. The paper's CUBE is peculiar: a large τ=1 population but a nearly
/// empty τ=2 shell (0.3 %), so the stage-1 radius hugs the stage-0 radius.
pub fn cube_like(config: &GeneratorConfig) -> Mesh {
    case_mesh(MeshCase::Cube, config)
}

/// PPRIME_NOZZLE-like mesh: a jet cone expanding from a nozzle exit along
/// +x, 3 temporal levels (11.9 / 32.2 / 55.9 % for τ = 0..2).
pub fn pprime_nozzle_like(config: &GeneratorConfig) -> Mesh {
    case_mesh(MeshCase::PprimeNozzle, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::level_histogram;

    fn fractions(mesh: &Mesh) -> Vec<f64> {
        let hist = level_histogram(mesh);
        let total = mesh.n_cells() as f64;
        hist.into_iter().map(|n| n as f64 / total).collect()
    }

    /// Generated fraction must be within an absolute tolerance of Table I.
    fn assert_close(case: MeshCase, mesh: &Mesh, tol: f64) {
        let got = fractions(mesh);
        let want = case.paper_cell_fractions();
        assert_eq!(got.len(), want.len(), "{}", case.name());
        for (t, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() < tol,
                "{} τ={t}: generated {:.3} vs paper {:.3}",
                case.name(),
                g,
                w
            );
        }
    }

    #[test]
    fn cylinder_fractions_match_table1() {
        let m = cylinder_like(&GeneratorConfig { base_depth: 4 });
        assert!(m.n_cells() > 4096);
        assert_close(MeshCase::Cylinder, &m, 0.12);
    }

    #[test]
    fn cube_fractions_match_table1() {
        let m = cube_like(&GeneratorConfig { base_depth: 4 });
        assert_close(MeshCase::Cube, &m, 0.12);
    }

    #[test]
    fn pprime_fractions_match_table1() {
        let m = pprime_nozzle_like(&GeneratorConfig { base_depth: 4 });
        assert_close(MeshCase::PprimeNozzle, &m, 0.12);
    }

    #[test]
    fn all_levels_populated_at_default_scale() {
        for case in MeshCase::ALL {
            let m = case.generate(&GeneratorConfig { base_depth: 4 });
            let hist = level_histogram(&m);
            assert_eq!(hist.len(), case.n_levels() as usize, "{}", case.name());
            for (t, &n) in hist.iter().enumerate() {
                assert!(n > 0, "{} τ={t} empty", case.name());
            }
        }
    }

    #[test]
    fn meshes_are_connected() {
        for case in MeshCase::ALL {
            let m = case.generate(&GeneratorConfig { base_depth: 3 });
            let g = m.to_graph();
            assert_eq!(tempart_graph::count_components(&g), 1, "{}", case.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig { base_depth: 3 };
        let a = cylinder_like(&cfg);
        let b = cylinder_like(&cfg);
        assert_eq!(a.n_cells(), b.n_cells());
        assert_eq!(a.tau(), b.tau());
    }

    #[test]
    fn base_depth_limit_is_the_octree_limit_minus_the_refinement_stages() {
        for case in MeshCase::ALL {
            let deepest = OctreeConfig::MAX_DEPTH - case.extra_depth();
            assert_eq!(case.check_base_depth(deepest), Ok(()));
            let err = case.check_base_depth(deepest + 1).unwrap_err();
            assert!(
                err.contains(case.name()) && err.contains("limit of 20"),
                "{err}"
            );
        }
    }

    #[test]
    fn scaling_grows_roughly_octave() {
        let small = cube_like(&GeneratorConfig { base_depth: 3 });
        let large = cube_like(&GeneratorConfig { base_depth: 4 });
        let ratio = large.n_cells() as f64 / small.n_cells() as f64;
        assert!(ratio > 4.0, "scaling ratio {ratio}");
    }
}
