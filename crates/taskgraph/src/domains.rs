//! Domain decomposition analysis: object classification and neighbourhoods.

use tempart_graph::PartId;
use tempart_mesh::{FaceNeighbor, Mesh};

/// Whether an object (cell or face) sits strictly inside its domain or on the
/// border to another domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectClass {
    /// No contact with another domain.
    Internal,
    /// Borders at least one other domain.
    External,
}

/// Object ids grouped by bin, ascending within each bin: one id array in bin
/// order plus one offset per bin.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bins {
    /// `ids[offsets[b]..offsets[b + 1]]` are the objects of bin `b`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Bins {
    /// Stable counting sort of the objects `0..bin_of.len()` by bin.
    fn sort(bin_of: &[u32], n_bins: usize) -> Self {
        let mut offsets = vec![0u32; n_bins + 1];
        for &b in bin_of {
            offsets[b as usize + 1] += 1;
        }
        // `offsets[b + 1]` = where bin `b` starts; the fill below advances it
        // to where bin `b` ends, which is where bin `b + 1` starts.
        let mut start = 0u32;
        for slot in &mut offsets[1..] {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut ids = vec![0u32; bin_of.len()];
        for (id, &b) in bin_of.iter().enumerate() {
            let slot = &mut offsets[b as usize + 1];
            ids[*slot as usize] = id as u32;
            *slot += 1;
        }
        Self { offsets, ids }
    }

    /// The ids of bins `bins.start..bins.end`, concatenated.
    fn get(&self, bins: std::ops::Range<usize>) -> &[u32] {
        &self.ids[self.offsets[bins.start] as usize..self.offsets[bins.end] as usize]
    }
}

/// A mesh + partition bundle with everything Algorithm 1 needs precomputed:
/// per-domain, per-level object lists split into internal/external classes,
/// and the domain adjacency (which domains share faces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainDecomposition {
    /// Domain of every cell.
    pub cell_domain: Vec<PartId>,
    /// Number of domains.
    pub n_domains: usize,
    /// Number of temporal levels in the mesh.
    pub n_levels: u8,
    /// Cell ids binned by `(domain, τ, class)` (see [`bin_index`]).
    cells: Bins,
    /// Face ids binned the same way. A face belongs to the domain of its
    /// owner cell; its level is the min of its adjacent cells' levels; it is
    /// external when its two cells live in different domains.
    faces: Bins,
    /// Sorted neighbour domains of every domain.
    neighbors: Vec<Vec<PartId>>,
    /// `halo_faces[d][i]` → number of interface faces domain `d` shares with
    /// `neighbors[d][i]` (aligned with the sorted neighbour lists). This is
    /// the per-pair halo edge cut the network model prices.
    halo_faces: Vec<Vec<u32>>,
}

/// Index of bin `(domain, τ, class)` among the `n_domains · n_levels · 2`
/// bins of a decomposition with `n_levels` temporal levels.
fn bin_index(n_levels: u8, domain: PartId, tau: u8, external: bool) -> usize {
    assert!(tau < n_levels, "temporal level out of range");
    (domain as usize * n_levels as usize + tau as usize) * 2 + usize::from(external)
}

/// Bumps the interface-face count of neighbour `n` in one domain's
/// accumulation row (linear scan — domain adjacency lists are tiny).
fn bump_pair(row: &mut Vec<(PartId, u32)>, n: PartId) {
    match row.iter_mut().find(|(d, _)| *d == n) {
        Some((_, count)) => *count += 1,
        None => row.push((n, 1)),
    }
}

impl DomainDecomposition {
    /// Builds the decomposition from a mesh and a per-cell domain assignment.
    ///
    /// # Panics
    ///
    /// Panics if `part.len() != mesh.n_cells()`, a part id is `>= n_domains`,
    /// or the cell, face or `(domain, τ, class)` bin count exceeds `u32`.
    pub fn new(mesh: &Mesh, part: &[PartId], n_domains: usize) -> Self {
        assert_eq!(part.len(), mesh.n_cells(), "partition vector length");
        assert!(
            part.iter().all(|&p| (p as usize) < n_domains),
            "part id out of range"
        );
        let nl = mesh.n_tau_levels();
        let n_bins = n_domains * nl as usize * 2;
        let largest_id_space = mesh.n_cells().max(mesh.n_faces()).max(n_bins);
        assert!(
            u32::try_from(largest_id_space).is_ok(),
            "cell, face and bin ids are u32"
        );
        let bin = |d: PartId, tau: u8, external: bool| bin_index(nl, d, tau, external) as u32;
        let tau = mesh.tau();

        // One pass over the faces: each face's bin, the cells that touch
        // another domain, and the interface-face count per domain pair.
        let mut cell_external = vec![false; mesh.n_cells()];
        let mut pairs: Vec<Vec<(PartId, u32)>> = vec![Vec::new(); n_domains];
        let mut face_bin = Vec::with_capacity(mesh.n_faces());
        for f in mesh.faces() {
            let d0 = part[f.owner as usize];
            let mut t = tau[f.owner as usize];
            let mut external = false;
            if let FaceNeighbor::Interior(nb) = f.neighbor {
                t = t.min(tau[nb as usize]);
                let d1 = part[nb as usize];
                if d0 != d1 {
                    external = true;
                    cell_external[f.owner as usize] = true;
                    cell_external[nb as usize] = true;
                    bump_pair(&mut pairs[d0 as usize], d1);
                    bump_pair(&mut pairs[d1 as usize], d0);
                }
            }
            face_bin.push(bin(d0, t, external));
        }
        let faces = Bins::sort(&face_bin, n_bins);
        drop(face_bin);
        let cell_bin: Vec<u32> = (0..mesh.n_cells())
            .map(|c| bin(part[c], tau[c], cell_external[c]))
            .collect();
        let cells = Bins::sort(&cell_bin, n_bins);

        let mut neighbors: Vec<Vec<PartId>> = Vec::with_capacity(n_domains);
        let mut halo_faces: Vec<Vec<u32>> = Vec::with_capacity(n_domains);
        for mut row in pairs {
            row.sort_unstable_by_key(|&(d, _)| d);
            neighbors.push(row.iter().map(|&(d, _)| d).collect());
            halo_faces.push(row.iter().map(|&(_, c)| c).collect());
        }

        Self {
            cell_domain: part.to_vec(),
            n_domains,
            n_levels: nl,
            cells,
            faces,
            neighbors,
            halo_faces,
        }
    }

    /// [`Self::new`]; `workers` is ignored. Sharding the classification over
    /// two threads was slower than this one-pass build on one (0.026–0.032 s
    /// against 0.022 s at 474k cells — EXPERIMENTS.md, 2026-10-03); the name
    /// stays because the frozen `benchmark/` package calls it.
    pub fn new_sharded(mesh: &Mesh, part: &[PartId], n_domains: usize, _workers: usize) -> Self {
        Self::new(mesh, part, n_domains)
    }

    /// Cell ids of `(domain, τ, class)`.
    pub fn cells_of(&self, domain: PartId, tau: u8, class: ObjectClass) -> &[u32] {
        let b = bin_index(self.n_levels, domain, tau, class == ObjectClass::External);
        self.cells.get(b..b + 1)
    }

    /// Face ids of `(domain, τ, class)`.
    pub fn faces_of(&self, domain: PartId, tau: u8, class: ObjectClass) -> &[u32] {
        let b = bin_index(self.n_levels, domain, tau, class == ObjectClass::External);
        self.faces.get(b..b + 1)
    }

    /// Sorted neighbour domains of `domain`.
    pub fn neighbors_of(&self, domain: PartId) -> &[PartId] {
        &self.neighbors[domain as usize]
    }

    /// Number of interface faces `domain` shares with `neighbor` — the
    /// per-pair halo edge cut. Zero when the two domains are not adjacent
    /// (or are the same domain). Symmetric by construction.
    pub fn halo_faces_between(&self, domain: PartId, neighbor: PartId) -> u32 {
        match self.neighbors[domain as usize].binary_search(&neighbor) {
            Ok(i) => self.halo_faces[domain as usize][i],
            Err(_) => 0,
        }
    }

    /// `(neighbour, shared interface faces)` pairs of `domain`, ascending by
    /// neighbour id (aligned with [`Self::neighbors_of`]).
    pub fn halo_of(&self, domain: PartId) -> impl Iterator<Item = (PartId, u32)> + '_ {
        let d = domain as usize;
        self.neighbors[d]
            .iter()
            .copied()
            .zip(self.halo_faces[d].iter().copied())
    }

    /// Number of cells of `domain` (all levels, both classes).
    pub fn domain_cell_count(&self, domain: PartId) -> usize {
        let per_domain = self.n_levels as usize * 2;
        let first = domain as usize * per_domain;
        self.cells.get(first..first + per_domain).len()
    }

    /// Total number of external cells across all domains.
    pub fn total_external_cells(&self) -> usize {
        (1..self.cells.offsets.len() - 1)
            .step_by(2)
            .map(|b| self.cells.get(b..b + 1).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_mesh::{Octree, OctreeConfig, TemporalScheme};
    use tempart_testkit::rng::Rng;

    fn grid_mesh(depth: u8) -> Mesh {
        let cfg = OctreeConfig {
            base_depth: depth,
            max_depth: depth,
        };
        let mut m = Mesh::from_octree(&Octree::build(&cfg, |_, _, _| false));
        TemporalScheme::new(1).assign(&mut m);
        m
    }

    /// Split the 4x4x4 grid in half along x (cells sorted by key order:
    /// leaves sorted by (d,x,y,z) → x fastest? keys sorted lexicographically
    /// by (depth, x, y, z) so x is the major axis after depth).
    fn half_split(m: &Mesh) -> Vec<PartId> {
        m.cells()
            .iter()
            .map(|c| u32::from(c.centroid[0] > 0.5))
            .collect()
    }

    #[test]
    fn classification_counts() {
        let m = grid_mesh(2);
        let part = half_split(&m);
        let dd = DomainDecomposition::new(&m, &part, 2);
        // Each half: 32 cells; the 16 cells touching the split plane are
        // external.
        for d in 0..2u32 {
            let int = dd.cells_of(d, 0, ObjectClass::Internal).len();
            let ext = dd.cells_of(d, 0, ObjectClass::External).len();
            assert_eq!(int + ext, 32);
            assert_eq!(ext, 16, "domain {d}");
        }
        assert_eq!(dd.neighbors_of(0), &[1]);
        assert_eq!(dd.neighbors_of(1), &[0]);
        assert_eq!(dd.total_external_cells(), 32);
    }

    #[test]
    fn face_classification() {
        let m = grid_mesh(2);
        let part = half_split(&m);
        let dd = DomainDecomposition::new(&m, &part, 2);
        let ext0 = dd.faces_of(0, 0, ObjectClass::External).len();
        let ext1 = dd.faces_of(1, 0, ObjectClass::External).len();
        // 16 faces cross the plane; each owned by exactly one side.
        assert_eq!(ext0 + ext1, 16);
        let int_total = dd.faces_of(0, 0, ObjectClass::Internal).len()
            + dd.faces_of(1, 0, ObjectClass::Internal).len();
        // All other faces (interior of halves + boundary) are internal.
        assert_eq!(int_total, m.n_faces() - 16);
    }

    #[test]
    fn every_cell_listed_once() {
        let m = grid_mesh(2);
        let part: Vec<PartId> = (0..64).map(|i| (i % 4) as PartId).collect();
        let dd = DomainDecomposition::new(&m, &part, 4);
        let mut seen = [false; 64];
        for d in 0..4u32 {
            for tau in 0..1u8 {
                for class in [ObjectClass::Internal, ObjectClass::External] {
                    for &c in dd.cells_of(d, tau, class) {
                        assert!(!seen[c as usize], "cell {c} duplicated");
                        seen[c as usize] = true;
                        assert_eq!(part[c as usize], d);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// Sphere-refined octree, three temporal levels (all populated).
    fn graded_mesh() -> Mesh {
        let cfg = OctreeConfig {
            base_depth: 2,
            max_depth: 4,
        };
        let t = Octree::build(&cfg, |c, _, _| {
            let r2: f64 = c.iter().map(|x| (x - 0.5) * (x - 0.5)).sum();
            r2.sqrt() < 0.25
        });
        let mut m = Mesh::from_octree(&t);
        TemporalScheme::new(3).assign(&mut m);
        m
    }

    #[test]
    fn graded_mesh_random_partitions_match_a_naive_oracle() {
        let m = graded_mesh();
        assert_eq!(m.n_tau_levels(), 3);
        for t in 0..3u8 {
            assert!(m.tau().contains(&t), "τ={t} unpopulated");
        }
        let k = 5usize;
        let other_side = |fid: usize| m.faces()[fid].interior_neighbor();
        let mut rng = Rng::seed_from_u64(0x7E57_0023);
        for case in 0..24 {
            // Domain 3 stays empty; the rest are scattered or blocked.
            let block = 1 + rng.gen_range(0usize..40);
            let part: Vec<PartId> = (0..m.n_cells())
                .map(|c| {
                    let d = if case % 2 == 0 {
                        rng.gen_range(0u32..4)
                    } else {
                        (c / block % 4) as u32
                    };
                    d + u32::from(d == 3)
                })
                .collect();
            let dd = DomainDecomposition::new(&m, &part, k);

            let face_external = |fid: usize| {
                other_side(fid)
                    .is_some_and(|nb| part[nb as usize] != part[m.faces()[fid].owner as usize])
            };
            let cell_external = |c: usize| {
                m.cell_faces(c as u32)
                    .iter()
                    .any(|&f| face_external(f as usize))
            };
            let mut externals = 0;
            for d in 0..k as PartId {
                let mut in_domain = 0;
                for tau in 0..3u8 {
                    for (class, external) in [
                        (ObjectClass::Internal, false),
                        (ObjectClass::External, true),
                    ] {
                        let cells: Vec<u32> = (0..m.n_cells())
                            .filter(|&c| {
                                part[c] == d && m.tau()[c] == tau && cell_external(c) == external
                            })
                            .map(|c| c as u32)
                            .collect();
                        assert_eq!(
                            dd.cells_of(d, tau, class),
                            cells,
                            "case {case} d={d} τ={tau}"
                        );
                        in_domain += cells.len();
                        externals += if external { cells.len() } else { 0 };
                        let faces: Vec<u32> = (0..m.n_faces())
                            .filter(|&f| {
                                part[m.faces()[f].owner as usize] == d
                                    && m.face_tau(f as u32) == tau
                                    && face_external(f) == external
                            })
                            .map(|f| f as u32)
                            .collect();
                        assert_eq!(
                            dd.faces_of(d, tau, class),
                            faces,
                            "case {case} d={d} τ={tau}"
                        );
                    }
                }
                assert_eq!(dd.domain_cell_count(d), in_domain, "case {case} d={d}");
                let halo: Vec<(PartId, u32)> = (0..k as PartId)
                    .map(|n| {
                        let shared = (0..m.n_faces())
                            .filter(|&f| {
                                let own = part[m.faces()[f].owner as usize];
                                other_side(f).is_some_and(|nb| {
                                    let far = part[nb as usize];
                                    (own, far) == (d, n) || (own, far) == (n, d)
                                })
                            })
                            .count();
                        (n, shared as u32)
                    })
                    .filter(|&(n, shared)| n != d && shared > 0)
                    .collect();
                assert_eq!(dd.halo_of(d).collect::<Vec<_>>(), halo, "case {case} d={d}");
                let neighbors: Vec<PartId> = halo.iter().map(|&(n, _)| n).collect();
                assert_eq!(dd.neighbors_of(d), neighbors, "case {case} d={d}");
            }
            assert_eq!(dd.domain_cell_count(3), 0);
            assert!(dd.neighbors_of(3).is_empty());
            assert_eq!(dd.total_external_cells(), externals, "case {case}");
            assert_eq!(DomainDecomposition::new_sharded(&m, &part, k, 2), dd);
        }
    }

    #[test]
    #[should_panic(expected = "temporal level out of range")]
    fn a_level_the_mesh_does_not_have_is_not_the_next_bin() {
        let m = grid_mesh(2);
        let dd = DomainDecomposition::new(&m, &half_split(&m), 2);
        dd.cells_of(0, 1, ObjectClass::Internal);
    }

    #[test]
    fn halo_face_counts_match_the_interface() {
        let m = grid_mesh(2);
        let part = half_split(&m);
        let dd = DomainDecomposition::new(&m, &part, 2);
        // The 4x4x4 grid split in half shares a 4x4 interface plane.
        assert_eq!(dd.halo_faces_between(0, 1), 16);
        assert_eq!(dd.halo_faces_between(1, 0), 16);
        assert_eq!(dd.halo_faces_between(0, 0), 0);
        assert_eq!(dd.halo_of(0).collect::<Vec<_>>(), vec![(1, 16)]);

        // Round-robin over 4 domains: counts stay symmetric and total to
        // twice the cross-domain face count.
        let scattered: Vec<PartId> = (0..64).map(|i| (i % 4) as PartId).collect();
        let dd = DomainDecomposition::new(&m, &scattered, 4);
        let cut: u64 = m
            .faces()
            .iter()
            .filter(|f| match f.neighbor {
                FaceNeighbor::Interior(nb) => scattered[f.owner as usize] != scattered[nb as usize],
                FaceNeighbor::Boundary => false,
            })
            .count() as u64;
        let mut total = 0u64;
        for d in 0..4u32 {
            for n in 0..4u32 {
                assert_eq!(dd.halo_faces_between(d, n), dd.halo_faces_between(n, d));
                total += u64::from(dd.halo_faces_between(d, n));
            }
        }
        assert_eq!(total, 2 * cut);
    }

    #[test]
    fn single_domain_has_no_externals() {
        let m = grid_mesh(2);
        let dd = DomainDecomposition::new(&m, &vec![0; 64], 1);
        assert_eq!(dd.total_external_cells(), 0);
        assert!(dd.neighbors_of(0).is_empty());
        assert_eq!(dd.domain_cell_count(0), 64);
    }
}
