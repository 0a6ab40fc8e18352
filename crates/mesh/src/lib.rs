#![warn(missing_docs)]
//! Unstructured finite-volume meshes with temporal-adaptive cell levels.
//!
//! The paper's meshes (CYLINDER, CUBE, PPRIME_NOZZLE) are proprietary Airbus
//! meshes. This crate substitutes *synthetic* meshes with the same structural
//! properties: graded unstructured meshes whose cell volumes span several
//! octaves, concentrated around one or more "hotspots" (nozzle exit,
//! machinery piece, ...), with temporal levels derived from cell size through
//! a CFL-style rule. The generators are calibrated so that the per-level cell
//! fractions approximate Table I of the paper.
//!
//! Meshes are produced by graded octree refinement with 2:1 balance, which
//! yields hexahedral cells of volume `8^{-ℓ}` and hanging-node faces —
//! exactly the volume heterogeneity that motivates adaptive time stepping.

pub mod cloud;
pub mod drift;
pub mod generators;
pub mod io;
pub mod mesh;
pub mod octree;
pub mod temporal;

pub use cloud::{cloud_cell_count, paper_scale_nside, sfc_cloud, SfcCloud};
pub use drift::DriftConfig;
pub use generators::{cube_like, cylinder_like, pprime_nozzle_like, GeneratorConfig, MeshCase};
pub use io::{cells_csv, to_vtk, write_cells_csv, write_vtk};
pub use mesh::{Cell, Face, FaceNeighbor, Mesh};
pub use octree::{Octree, OctreeConfig};
pub use temporal::{
    assign_radial, computation_shares, level_histogram, operating_cost, TemporalScheme,
};
