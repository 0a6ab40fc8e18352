//! Task-body kernels: face flux computation and cell updates.
//!
//! Tasks of the DAG touch pairwise-disjoint object sets at any instant (the
//! dependency structure of `tempart-taskgraph` serialises conflicting
//! accesses), so the kernels share the state arrays through [`SharedArray`],
//! an `UnsafeCell`-based container whose safety contract is exactly that
//! disjointness.

use crate::flux::{reflect, rusanov};
use crate::state::to_primitive;
use crate::viscous::{viscous_flux, Viscosity};
use std::cell::UnsafeCell;
use tempart_mesh::{FaceNeighbor, Mesh};
use tempart_taskgraph::{ObjectClass, ObjectLists};

/// A fixed-size array shareable across worker threads with *externally
/// guaranteed* disjoint access.
///
/// The task graph guarantees that, at any instant, each index is accessed by
/// at most one task for writing (and no concurrent readers while written):
/// faces belong to exactly one face task per activation, cells to exactly one
/// cell task, and the DAG orders flux production before consumption.
pub struct SharedArray<T> {
    data: UnsafeCell<Box<[T]>>,
    len: usize,
}

// SAFETY: all concurrent access goes through `get`/`set`, whose contracts
// push the aliasing discipline to the task graph (see type-level docs).
unsafe impl<T: Send> Sync for SharedArray<T> {}

impl<T: Copy> SharedArray<T> {
    /// Wraps a vector.
    pub fn new(v: Vec<T>) -> Self {
        let len = v.len();
        Self {
            data: UnsafeCell::new(v.into_boxed_slice()),
            len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads element `i`.
    ///
    /// # Safety
    ///
    /// No other thread may be writing index `i` concurrently.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        *(*self.data.get()).as_ptr().add(i)
    }

    /// Writes element `i`.
    ///
    /// # Safety
    ///
    /// No other thread may be reading or writing index `i` concurrently.
    #[inline]
    pub unsafe fn set(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        *(*self.data.get()).as_mut_ptr().add(i) = value;
    }

    /// Snapshot copy (safe only while no writers run; takes `&mut self` to
    /// enforce that).
    pub fn to_vec(&mut self) -> Vec<T> {
        self.data.get_mut().to_vec()
    }
}

/// Shared per-run solver arrays.
pub struct SolverArrays {
    /// Conservative state per cell.
    pub u: SharedArray<[f64; 5]>,
    /// Last computed flux (already scaled by face area) per face, oriented
    /// owner → neighbour.
    pub flux: SharedArray<[f64; 5]>,
    /// Stage-0 snapshot per cell, used by Heun's corrector stage.
    pub u0: SharedArray<[f64; 5]>,
}

/// What every task body works on: the mesh, the objects of every task and
/// the shared state arrays.
#[derive(Clone, Copy)]
pub struct Fields<'a> {
    /// The mesh.
    pub mesh: &'a Mesh,
    /// The objects of every `(domain, τ, class)` bin (the task → objects map).
    pub lists: &'a ObjectLists,
    /// The state the tasks read and write.
    pub arrays: &'a SolverArrays,
}

/// Computes fluxes for every face of `(domain, τ, class)`.
///
/// # Safety
///
/// Must only be called from a task whose dependencies (as generated by
/// `tempart-taskgraph`) are satisfied; this guarantees exclusive access to
/// the face entries and read-stability of the adjacent cell states.
pub unsafe fn face_task(
    Fields {
        mesh,
        lists,
        arrays,
    }: Fields<'_>,
    domain: u32,
    tau: u8,
    class: ObjectClass,
    viscosity: Option<&Viscosity>,
) {
    for &fid in lists.faces_of(domain, tau, class) {
        let face = &mesh.faces()[fid as usize];
        let normal = face.normal();
        let ul = arrays.u.get(face.owner as usize);
        let (ur, dist) = match face.neighbor {
            FaceNeighbor::Interior(nb) => {
                let other = arrays.u.get(nb as usize);
                let a = mesh.cells()[face.owner as usize].centroid;
                let b = mesh.cells()[nb as usize].centroid;
                let d =
                    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
                (other, d)
            }
            FaceNeighbor::Boundary => {
                // Slip wall: no viscous contribution (mirror state only).
                let h = mesh.cells()[face.owner as usize].volume().cbrt();
                (reflect(&ul, &normal), h)
            }
        };
        let mut f = rusanov(&ul, &ur, &normal);
        if let Some(visc) = viscosity {
            if matches!(face.neighbor, FaceNeighbor::Interior(_)) {
                let fv = viscous_flux(&ul, &ur, dist, visc);
                for k in 0..5 {
                    f[k] += fv[k];
                }
            }
        }
        let area = face.area();
        let mut scaled = [0.0f64; 5];
        for k in 0..5 {
            scaled[k] = f[k] * area;
        }
        arrays.flux.set(fid as usize, scaled);
    }
}

/// How a cell task advances its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStage {
    /// Single-stage forward-Euler update.
    Euler,
    /// Heun predictor: snapshot the state, take a full Euler step.
    HeunPredict,
    /// Heun corrector: average the snapshot with an Euler step from the
    /// predicted state (`u ← ½u⁰ + ½(u* − Δt·R(u*)/V)`).
    HeunCorrect,
}

/// Updates every cell of `(domain, τ, class)` with its accumulated face
/// fluxes over the level's time step `dt_tau`.
///
/// # Safety
///
/// Same contract as [`face_task`].
pub unsafe fn cell_task(
    Fields {
        mesh,
        lists,
        arrays,
    }: Fields<'_>,
    domain: u32,
    tau: u8,
    class: ObjectClass,
    dt_tau: f64,
    stage: CellStage,
) {
    for &cid in lists.cells_of(domain, tau, class) {
        let cell = &mesh.cells()[cid as usize];
        let mut res = [0.0f64; 5];
        for &fid in mesh.cell_faces(cid) {
            let f = arrays.flux.get(fid as usize);
            let sign = if mesh.faces()[fid as usize].owner == cid {
                1.0
            } else {
                -1.0
            };
            for k in 0..5 {
                res[k] += sign * f[k];
            }
        }
        let cur = arrays.u.get(cid as usize);
        let scale = dt_tau / cell.volume();
        let mut u = cur;
        match stage {
            CellStage::Euler => {
                for k in 0..5 {
                    u[k] -= scale * res[k];
                }
            }
            CellStage::HeunPredict => {
                arrays.u0.set(cid as usize, cur);
                for k in 0..5 {
                    u[k] -= scale * res[k];
                }
            }
            CellStage::HeunCorrect => {
                let u0 = arrays.u0.get(cid as usize);
                for k in 0..5 {
                    u[k] = 0.5 * u0[k] + 0.5 * (cur[k] - scale * res[k]);
                }
            }
        }
        // Positivity floor: keep the state physical under aggressive
        // subcycling (mirrors the limiters production codes apply).
        if u[0] < 1e-8 || to_primitive(&u).p < 1e-10 {
            u = cur;
        }
        arrays.u.set(cid as usize, u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{EulerState, Primitive};
    use tempart_mesh::{Cell, Octree, OctreeConfig, TemporalScheme};
    use tempart_taskgraph::DomainDecomposition;

    fn uniform_mesh() -> Mesh {
        let cfg = OctreeConfig {
            base_depth: 1,
            max_depth: 1,
        };
        let mut m = Mesh::from_octree(&Octree::build(&cfg, |_, _, _| false));
        TemporalScheme::new(1).assign(&mut m);
        m
    }

    #[test]
    fn shared_array_exclusive_access() {
        let mut a = SharedArray::new(vec![1u32, 2, 3]);
        unsafe {
            a.set(1, 9);
            assert_eq!(a.get(1), 9);
        }
        assert_eq!(a.to_vec(), vec![1, 9, 3]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn rest_state_is_a_fixed_point() {
        // A uniform gas at rest in a closed box must stay exactly put.
        let m = uniform_mesh();
        let part = vec![0; m.n_cells()];
        let lists = ObjectLists::new(&m, &part, &DomainDecomposition::new(&m, &part, 1));
        let state = EulerState::init(m.cells().iter().map(|c| c.centroid), |_| {
            Primitive::at_rest(1.0, 1.0)
        });
        let arrays = SolverArrays {
            u: SharedArray::new(state.u.clone()),
            flux: SharedArray::new(vec![[0.0; 5]; m.n_faces()]),
            u0: SharedArray::new(vec![[0.0; 5]; m.n_cells()]),
        };
        let fields = Fields {
            mesh: &m,
            lists: &lists,
            arrays: &arrays,
        };
        unsafe {
            face_task(fields, 0, 0, ObjectClass::Internal, None);
            cell_task(fields, 0, 0, ObjectClass::Internal, 0.01, CellStage::Euler);
        }
        let mut u = arrays.u;
        for (after, before) in u.to_vec().iter().zip(&state.u) {
            for k in 0..5 {
                assert!(
                    (after[k] - before[k]).abs() < 1e-14,
                    "rest state moved: {after:?} vs {before:?}"
                );
            }
        }
    }

    #[test]
    fn single_step_conserves_mass_and_energy() {
        // A pressure bump in a closed box: one synchronous step conserves
        // volume-weighted mass and energy to round-off.
        let m = uniform_mesh();
        let part = vec![0; m.n_cells()];
        let lists = ObjectLists::new(&m, &part, &DomainDecomposition::new(&m, &part, 1));
        let state = EulerState::init(m.cells().iter().map(|c| c.centroid), |c| {
            if c[0] < 0.5 {
                Primitive::at_rest(1.0, 2.0)
            } else {
                Primitive::at_rest(0.8, 1.0)
            }
        });
        let vols: Vec<f64> = m.cells().iter().map(Cell::volume).collect();
        let before = state.totals(vols.iter().copied());
        let arrays = SolverArrays {
            u: SharedArray::new(state.u.clone()),
            flux: SharedArray::new(vec![[0.0; 5]; m.n_faces()]),
            u0: SharedArray::new(vec![[0.0; 5]; m.n_cells()]),
        };
        let fields = Fields {
            mesh: &m,
            lists: &lists,
            arrays: &arrays,
        };
        unsafe {
            face_task(fields, 0, 0, ObjectClass::Internal, None);
            cell_task(fields, 0, 0, ObjectClass::Internal, 1e-3, CellStage::Euler);
        }
        let mut u = arrays.u;
        let after_state = EulerState { u: u.to_vec() };
        let after = after_state.totals(vols.iter().copied());
        assert!((after[0] - before[0]).abs() < 1e-12, "mass drift");
        assert!((after[4] - before[4]).abs() < 1e-12, "energy drift");
        assert!(after_state.is_physical());
        // Something must actually have happened.
        assert!(after_state.u != state.u);
    }
}
