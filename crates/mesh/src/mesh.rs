//! The finite-volume mesh model: cells, faces, adjacency, graph export.

use crate::octree::{Octree, DIRECTIONS};
use tempart_graph::{CsrGraph, Weight};

/// A finite-volume cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Cell centre in the unit cube.
    pub centroid: [f64; 3],
    /// Cell volume.
    pub volume: f64,
    /// Octree depth the cell was generated at (size = `2^-depth`).
    pub depth: u8,
}

/// What lies on the other side of a face.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaceNeighbor {
    /// Another cell of the mesh.
    Interior(u32),
    /// The domain boundary.
    Boundary,
}

/// A face of the mesh. `owner` is always the finer (or equal) adjacent cell,
/// so hanging faces are stored once, from the fine side.
#[derive(Debug, Clone, PartialEq)]
pub struct Face {
    /// The owning cell (the finer side for hanging faces).
    pub owner: u32,
    /// The opposite side.
    pub neighbor: FaceNeighbor,
    /// Face area.
    pub area: f64,
    /// Outward unit normal, pointing from `owner` to `neighbor`.
    pub normal: [f64; 3],
}

impl Face {
    /// The interior neighbour id, if any.
    pub fn interior_neighbor(&self) -> Option<u32> {
        match self.neighbor {
            FaceNeighbor::Interior(c) => Some(c),
            FaceNeighbor::Boundary => None,
        }
    }
}

/// An unstructured mesh with per-cell temporal levels.
#[derive(Debug, Clone)]
pub struct Mesh {
    cells: Vec<Cell>,
    faces: Vec<Face>,
    /// Temporal level τ per cell. τ = 0 is the *finest* level (smallest
    /// allowed time step, computed at every subiteration).
    tau: Vec<u8>,
    /// Number of temporal-level classes present in the scheme (τ ∈ 0..n).
    n_levels: u8,
    /// CSR cell → face-id adjacency.
    cell_face_offsets: Vec<usize>,
    cell_face_ids: Vec<u32>,
}

impl Mesh {
    /// Converts a balanced octree into a mesh. Temporal levels start at zero
    /// for every cell; call [`crate::temporal::TemporalScheme::assign`] to
    /// derive them from cell sizes.
    pub fn from_octree(tree: &Octree) -> Self {
        let leaves = tree.leaves();
        let mut cells = Vec::with_capacity(leaves.len());
        for &key in leaves {
            let h = Octree::size_of(key.0);
            cells.push(Cell {
                centroid: Octree::centre_of(key),
                volume: h * h * h,
                depth: key.0,
            });
        }
        let mut faces = Vec::new();
        for (id, &key) in leaves.iter().enumerate() {
            let id = id as u32;
            let (d, x, y, z) = key;
            let n = 1i64 << d;
            let h = Octree::size_of(d);
            for &dir in &DIRECTIONS {
                let (nx, ny, nz) = (
                    i64::from(x) + dir.0,
                    i64::from(y) + dir.1,
                    i64::from(z) + dir.2,
                );
                let normal = [dir.0 as f64, dir.1 as f64, dir.2 as f64];
                if nx < 0 || ny < 0 || nz < 0 || nx >= n || ny >= n || nz >= n {
                    faces.push(Face {
                        owner: id,
                        neighbor: FaceNeighbor::Boundary,
                        area: h * h,
                        normal,
                    });
                    continue;
                }
                // A `None` lookup means the region is covered by finer
                // leaves: they own the shared faces.
                if let Some((nk, nid)) = tree.same_or_coarser_neighbor(key, dir) {
                    // Emit once per pair: the finer side owns the face; at
                    // equal depth only the positive direction emits.
                    let emit = if nk.0 < d {
                        true
                    } else {
                        dir.0 + dir.1 + dir.2 > 0
                    };
                    if emit {
                        faces.push(Face {
                            owner: id,
                            neighbor: FaceNeighbor::Interior(nid),
                            area: h * h,
                            normal,
                        });
                    }
                }
            }
        }
        let n_cells = cells.len();
        let mut mesh = Self {
            cells,
            faces,
            tau: vec![0; n_cells],
            n_levels: 1,
            cell_face_offsets: Vec::new(),
            cell_face_ids: Vec::new(),
        };
        mesh.rebuild_adjacency();
        mesh
    }

    /// Builds a mesh directly from parts (used by tests and tools).
    ///
    /// # Panics
    ///
    /// Panics if a face references an out-of-range cell.
    pub fn from_parts(cells: Vec<Cell>, faces: Vec<Face>) -> Self {
        let n = cells.len() as u32;
        for f in &faces {
            assert!(f.owner < n, "face owner out of range");
            if let FaceNeighbor::Interior(c) = f.neighbor {
                assert!(c < n, "face neighbor out of range");
                assert_ne!(c, f.owner, "face connects a cell to itself");
            }
        }
        let n_cells = cells.len();
        let mut mesh = Self {
            cells,
            faces,
            tau: vec![0; n_cells],
            n_levels: 1,
            cell_face_offsets: Vec::new(),
            cell_face_ids: Vec::new(),
        };
        mesh.rebuild_adjacency();
        mesh
    }

    fn rebuild_adjacency(&mut self) {
        let n = self.cells.len();
        let mut counts = vec![0usize; n];
        for f in &self.faces {
            counts[f.owner as usize] += 1;
            if let FaceNeighbor::Interior(c) = f.neighbor {
                counts[c as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut ids = vec![0u32; acc];
        let mut cursor = offsets.clone();
        for (fid, f) in self.faces.iter().enumerate() {
            ids[cursor[f.owner as usize]] = fid as u32;
            cursor[f.owner as usize] += 1;
            if let FaceNeighbor::Interior(c) = f.neighbor {
                ids[cursor[c as usize]] = fid as u32;
                cursor[c as usize] += 1;
            }
        }
        self.cell_face_offsets = offsets;
        self.cell_face_ids = ids;
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of faces (interior + boundary).
    pub fn n_faces(&self) -> usize {
        self.faces.len()
    }

    /// Number of interior faces: the cell → face CSR lists every face once
    /// and an interior face once more, from its neighbour's side.
    pub fn n_interior_faces(&self) -> usize {
        self.cell_face_ids.len() - self.faces.len()
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All faces.
    pub fn faces(&self) -> &[Face] {
        &self.faces
    }

    /// Face ids incident to `cell`.
    pub fn cell_faces(&self, cell: u32) -> &[u32] {
        let c = cell as usize;
        &self.cell_face_ids[self.cell_face_offsets[c]..self.cell_face_offsets[c + 1]]
    }

    /// Temporal level of every cell.
    pub fn tau(&self) -> &[u8] {
        &self.tau
    }

    /// Temporal level of one cell.
    pub fn cell_tau(&self, cell: u32) -> u8 {
        self.tau[cell as usize]
    }

    /// Temporal level of a face: the minimum of its adjacent cells' levels
    /// (a face must be updated as often as its most frequently updated cell).
    pub fn face_tau(&self, face: u32) -> u8 {
        let f = &self.faces[face as usize];
        let t = self.tau[f.owner as usize];
        match f.neighbor {
            FaceNeighbor::Interior(c) => t.min(self.tau[c as usize]),
            FaceNeighbor::Boundary => t,
        }
    }

    /// Number of temporal-level classes (τ ranges over `0..n_tau_levels()`).
    pub fn n_tau_levels(&self) -> u8 {
        self.n_levels
    }

    /// Overwrites the temporal levels.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the cell count, if `n_levels`
    /// is zero, or any level is `>= n_levels`.
    pub fn set_tau(&mut self, tau: Vec<u8>, n_levels: u8) {
        assert_eq!(tau.len(), self.cells.len(), "tau vector length");
        assert!(n_levels >= 1, "need at least one temporal level");
        assert!(
            tau.iter().all(|&t| t < n_levels),
            "temporal level out of range"
        );
        self.tau = tau;
        self.n_levels = n_levels;
    }

    /// Exports the cell-connectivity graph: one vertex per cell, one edge per
    /// interior face (multiple faces between the same pair merge into one
    /// edge whose weight is the face multiplicity). Vertex weights are unit
    /// single-constraint; strategies re-weight via
    /// [`CsrGraph::with_vertex_weights`].
    ///
    /// Gathered per cell from the cell → face CSR: the other side of every
    /// interior face is inserted into the cell's short sorted run at the tail
    /// of `adjncy`, so the arrays are written once, at the size the interior
    /// face count gives — the same graph [`tempart_graph::GraphBuilder`]
    /// builds from the interior faces as an edge list.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency exceeds the `u32` offset range (> ~4.29G
    /// directed edges).
    pub fn to_graph(&self) -> CsrGraph {
        let n = self.cells.len();
        let directed = 2 * self.n_interior_faces();
        assert!(
            directed <= u32::MAX as usize,
            "adjacency exceeds u32 offset range"
        );
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0u32);
        let mut adjncy: Vec<u32> = Vec::with_capacity(directed);
        let mut adjwgt: Vec<Weight> = Vec::with_capacity(directed);
        for (c, span) in self.cell_face_offsets.windows(2).enumerate() {
            let c = c as u32;
            let start = adjncy.len();
            for &fid in &self.cell_face_ids[span[0]..span[1]] {
                let f = &self.faces[fid as usize];
                let FaceNeighbor::Interior(nb) = f.neighbor else {
                    continue;
                };
                let other = if f.owner == c { nb } else { f.owner };
                assert_ne!(other, c, "self-loops are not allowed");
                let run = &adjncy[start..];
                let at = start + run.iter().rposition(|&x| x <= other).map_or(0, |i| i + 1);
                if at > start && adjncy[at - 1] == other {
                    adjwgt[at - 1] += 1;
                } else {
                    adjncy.insert(at, other);
                    adjwgt.insert(at, 1);
                }
            }
            xadj.push(adjncy.len() as u32);
        }
        // Repeated faces between one pair merged: give the slack back.
        adjncy.shrink_to_fit();
        adjwgt.shrink_to_fit();
        let g = CsrGraph::from_parts_unchecked(xadj, adjncy, adjwgt, vec![1; n], 1);
        #[cfg(debug_assertions)]
        g.validate().expect("gathered cell graph");
        g
    }

    /// Total mesh volume (should approximate the unit cube for octree
    /// meshes).
    pub fn total_volume(&self) -> f64 {
        self.cells.iter().map(|c| c.volume).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cylinder_like, pprime_nozzle_like, GeneratorConfig};
    use crate::octree::OctreeConfig;
    use tempart_graph::GraphBuilder;
    use tempart_testkit::prop::vec_of;
    use tempart_testkit::{prop_assert, prop_assert_eq, proptest};

    fn uniform(depth: u8) -> Mesh {
        let cfg = OctreeConfig {
            base_depth: depth,
            max_depth: depth,
        };
        Mesh::from_octree(&Octree::build(&cfg, |_, _, _| false))
    }

    #[test]
    fn uniform_grid_counts() {
        let m = uniform(2); // 4x4x4 grid
        assert_eq!(m.n_cells(), 64);
        // Interior faces: 3 * 4*4*3 = 144; boundary: 6 * 16 = 96.
        assert_eq!(m.n_interior_faces(), 144);
        assert_eq!(m.n_faces() - m.n_interior_faces(), 96);
        assert!((m.total_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cell_face_adjacency_is_complete() {
        let m = uniform(2);
        // Every cell of a uniform grid touches exactly 6 faces.
        for c in 0..m.n_cells() as u32 {
            assert_eq!(m.cell_faces(c).len(), 6);
        }
        // Each interior face appears in exactly two cells' lists, boundary in one.
        let mut seen = vec![0usize; m.n_faces()];
        for c in 0..m.n_cells() as u32 {
            for &f in m.cell_faces(c) {
                seen[f as usize] += 1;
            }
        }
        for (fid, &count) in seen.iter().enumerate() {
            let expected = if m.faces()[fid].interior_neighbor().is_some() {
                2
            } else {
                1
            };
            assert_eq!(count, expected, "face {fid}");
        }
    }

    #[test]
    fn refined_mesh_volume_conserved_and_hanging_faces() {
        // Refine one octant: produces 4-to-1 hanging faces.
        let cfg = OctreeConfig {
            base_depth: 1,
            max_depth: 2,
        };
        let t = Octree::build(&cfg, |c, _, d| {
            d == 1 && c[0] < 0.5 && c[1] < 0.5 && c[2] < 0.5
        });
        let m = Mesh::from_octree(&t);
        assert_eq!(m.n_cells(), 7 + 8);
        assert!((m.total_volume() - 1.0).abs() < 1e-12);
        // Hanging faces: the refined octant exposes 3 outer coarse contacts,
        // each split into 4 fine faces owned by the fine cells.
        let hanging = m
            .faces()
            .iter()
            .filter(|f| {
                f.interior_neighbor()
                    .map(|nb| m.cells()[f.owner as usize].depth != m.cells()[nb as usize].depth)
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(hanging, 12);
        // Hanging faces have the fine cell as owner.
        for f in m.faces() {
            if let Some(nb) = f.interior_neighbor() {
                assert!(m.cells()[f.owner as usize].depth >= m.cells()[nb as usize].depth);
            }
        }
    }

    #[test]
    fn graph_matches_adjacency() {
        let m = uniform(2);
        let g = m.to_graph();
        assert_eq!(g.nvtx(), 64);
        assert_eq!(g.nedges(), 144);
        assert!(g.validate().is_ok());
    }

    /// The edge-list build of the same graph: what `to_graph` must equal.
    fn graph_builder_oracle(m: &Mesh) -> CsrGraph {
        let mut b = GraphBuilder::new(m.n_cells(), 1);
        for f in m.faces() {
            if let Some(nb) = f.interior_neighbor() {
                b.add_edge(f.owner, nb, 1);
            }
        }
        b.build()
    }

    #[test]
    fn gathered_graph_equals_the_edge_list_build_on_generated_meshes() {
        for base_depth in [3u8, 4] {
            let cfg = GeneratorConfig { base_depth };
            for m in [cylinder_like(&cfg), pprime_nozzle_like(&cfg)] {
                assert_eq!(m.to_graph(), graph_builder_oracle(&m), "depth {base_depth}");
            }
        }
    }

    proptest! {
        #![config(cases = 256, seed = 0x7E57_0023)]

        // Paths octree meshes never take: several faces between one pair of
        // cells (in either orientation), cells with boundary faces only or
        // no face at all, faces in no particular order.
        fn gathered_graph_equals_the_edge_list_build_on_random_meshes(
            n_cells in 1u32..12,
            raw_faces in vec_of((0u32..12, 0u32..16), 0..40),
        ) {
            let cells = vec![
                Cell { centroid: [0.5; 3], volume: 1.0, depth: 0 };
                n_cells as usize
            ];
            let faces = raw_faces
                .iter()
                .map(|&(a, b)| {
                    let owner = a % n_cells;
                    // `b` in 12..16, or landing on the owner: a boundary face.
                    let neighbor = if b < 12 && b % n_cells != owner {
                        FaceNeighbor::Interior(b % n_cells)
                    } else {
                        FaceNeighbor::Boundary
                    };
                    Face { owner, neighbor, area: 1.0, normal: [1.0, 0.0, 0.0] }
                })
                .collect();
            let m = Mesh::from_parts(cells, faces);
            let g = m.to_graph();
            prop_assert!(g.validate().is_ok());
            prop_assert_eq!(g, graph_builder_oracle(&m));
        }
    }

    #[test]
    fn face_tau_is_min_of_cells() {
        let mut m = uniform(1); // 8 cells
        let mut tau = vec![1u8; 8];
        tau[0] = 0;
        m.set_tau(tau, 2);
        for (fid, f) in m.faces().iter().enumerate() {
            if let Some(nb) = f.interior_neighbor() {
                if f.owner == 0 || nb == 0 {
                    assert_eq!(m.face_tau(fid as u32), 0);
                } else {
                    assert_eq!(m.face_tau(fid as u32), 1);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "temporal level out of range")]
    fn set_tau_rejects_out_of_range() {
        let mut m = uniform(1);
        m.set_tau(vec![3; 8], 2);
    }
}
