//! Domain decomposition analysis: object classification and neighbourhoods.
//!
//! [`DomainDecomposition`] is what Algorithm 1 and FLUSIM read: how many
//! faces and cells each `(domain, τ, class)` bin holds, which domains touch
//! and how many faces they share. [`ObjectLists`] is what the solver's
//! kernels read: the ids of the objects in each bin. Both classify faces
//! with the one private rule, `classify_face`.

use tempart_graph::{PartId, PartitionQuality, UnionFind};
use tempart_mesh::{Face, FaceNeighbor, Mesh};

/// Whether an object (cell or face) sits strictly inside its domain or on the
/// border to another domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectClass {
    /// No contact with another domain.
    Internal,
    /// Borders at least one other domain.
    External,
}

/// A mesh + partition bundle with everything Algorithm 1 needs precomputed:
/// per-domain, per-level object counts split into internal/external classes,
/// and the domain adjacency (which domains share faces). The object ids
/// themselves are the solver's business ([`ObjectLists`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainDecomposition {
    /// Number of domains.
    pub n_domains: usize,
    /// Number of temporal levels in the mesh.
    pub n_levels: u8,
    /// Number of cells of the mesh.
    n_cells: usize,
    /// `cell_offsets[b]..cell_offsets[b + 1]` is where bin `b` (see
    /// [`bin_index`]) starts and ends in the bin-ordered list of the cells.
    cell_offsets: Vec<u32>,
    /// The same for the faces. A face belongs to the domain of its owner
    /// cell; its level is the min of its adjacent cells' levels; it is
    /// external when its two cells live in different domains.
    face_offsets: Vec<u32>,
    /// Sorted neighbour domains of every domain.
    neighbors: Vec<Vec<PartId>>,
    /// `halo_faces[d][i]` → number of interface faces domain `d` shares with
    /// `neighbors[d][i]` (aligned with the sorted neighbour lists). This is
    /// the per-pair halo edge cut the network model prices.
    halo_faces: Vec<Vec<u32>>,
    /// Sum over cells of the distinct remote domains among their face
    /// neighbours (the cell graph's communication volume).
    comm_volume: i64,
    /// Connected components of the cells, each domain on its own, summed
    /// over the domains.
    part_components: usize,
}

/// An empty slot of a cell's pair of remote-domain slots ([`Remotes`]); a
/// filled one holds a remote domain plus one, or [`MULTI`]. The domain fits:
/// the bin count, at least `2 · n_domains`, fits a `u32`.
const NONE: u32 = 0;
/// Both slots of a cell with face neighbours in at least three different
/// remote domains.
const MULTI: u32 = u32::MAX;

/// Capacity of the scratch list of one cell's remote domains: a cell of a
/// 2:1-balanced octree mesh has at most four faces per side.
const MAX_REMOTE_HINT: usize = 24;

/// Bits of a `(domain, τ)` word below the domain: the fewest that hold
/// `n_levels - 1`.
fn level_bits(n_levels: u8) -> u32 {
    u8::BITS - n_levels.saturating_sub(1).leading_zeros()
}

/// Index of bin `(domain, τ, class)`: twice the `(domain, τ)` word — the
/// domain shifted above the [`level_bits`] that hold τ — plus one when
/// external. The bins of a domain are contiguous, its levels ascending, and
/// the bins of levels from `n_levels` up to the next power of two stay
/// empty.
fn bin_index(n_levels: u8, domain: PartId, tau: u8, external: bool) -> usize {
    assert!(tau < n_levels, "temporal level out of range");
    let word = (domain as usize) << level_bits(n_levels) | tau as usize;
    word * 2 + usize::from(external)
}

/// Every cell's `(domain, τ)` word ([`bin_index`]), read off the partition
/// vector and the levels where they lie: a word is its bin's index halved,
/// and the domain fits above the level because the bin count fits a `u32`.
struct CellWords<'a> {
    part: &'a [PartId],
    tau: &'a [u8],
    shift: u32,
}

impl<'a> CellWords<'a> {
    fn new(part: &'a [PartId], tau: &'a [u8], n_levels: u8) -> Self {
        Self {
            part,
            tau,
            shift: level_bits(n_levels),
        }
    }

    /// The word of cell `c`.
    #[inline]
    fn word(&self, c: u32) -> u32 {
        self.part[c as usize] << self.shift | u32::from(self.tau[c as usize])
    }

    /// The words of all cells, in id order.
    fn words(&self) -> impl Iterator<Item = u32> + '_ {
        let shift = self.shift;
        (self.part.iter().zip(self.tau)).map(move |(&d, &t)| d << shift | u32::from(t))
    }
}

/// The bin of a `(domain, τ)` word and a class ([`bin_index`] without its
/// range check: every word's level comes from the mesh).
#[inline]
fn word_bin(word: u32, external: bool) -> usize {
    word as usize * 2 + usize::from(external)
}

/// The face bin rule: a face's domain is its owner's, its level the min of
/// its cells' levels, and it is external exactly when it crosses into
/// another domain. Returns the face's bin; calls `same(nb)` for a face
/// between two cells of one domain and `remote(nb, d1)` for one into
/// domain `d1`, inside the one branch that tells them apart.
#[inline(always)]
fn classify_face(
    f: &Face,
    cells: &CellWords,
    same: impl FnOnce(u32),
    remote: impl FnOnce(u32, PartId),
) -> usize {
    let (d0, t0) = (cells.part[f.owner as usize], cells.tau[f.owner as usize]);
    let (level, external) = match f.neighbor {
        FaceNeighbor::Boundary => (t0, false),
        FaceNeighbor::Interior(nb) => {
            let (d1, t1) = (cells.part[nb as usize], cells.tau[nb as usize]);
            if d0 == d1 {
                same(nb);
            } else {
                remote(nb, d1);
            }
            (t0.min(t1), d0 != d1)
        }
    };
    word_bin(d0 << cells.shift | u32::from(level), external)
}

/// Turns per-bin counts stored at `offsets[b + 1]` into start offsets:
/// afterwards bin `b` spans `offsets[b]..offsets[b + 1]`.
fn prefix_sum(offsets: &mut [u32]) {
    let mut start = 0u32;
    for slot in offsets.iter_mut() {
        start += *slot;
        *slot = start;
    }
}

/// The remote domains the face pass has met around every cell, and the
/// communication volume they add up to. A cell's first two distinct remote
/// domains take a slot each and count one each; a third makes both slots
/// [`MULTI`] and recounts the cell's remote domains through its faces, so
/// that no cell is counted again after the pass.
struct Remotes {
    slots: Vec<[u32; 2]>,
    comm_volume: i64,
    /// Scratch list of one cell's remote domains for the recount.
    seen: Vec<PartId>,
}

impl Remotes {
    fn new(n_cells: usize) -> Self {
        Self {
            slots: vec![[NONE; 2]; n_cells],
            comm_volume: 0,
            seen: Vec::with_capacity(MAX_REMOTE_HINT),
        }
    }

    /// Records that cell `c` has a face neighbour in remote domain `d`, and
    /// returns whether `d` is the first remote domain seen around `c`.
    #[inline]
    fn note(&mut self, mesh: &Mesh, part: &[PartId], c: u32, d: PartId) -> bool {
        let slots = &mut self.slots[c as usize];
        let tag = d + 1;
        if slots[0] == tag || slots[1] == tag || slots[0] == MULTI {
            return false;
        }
        if slots[0] == NONE {
            slots[0] = tag;
            self.comm_volume += 1;
            return true;
        }
        if slots[1] == NONE {
            slots[1] = tag;
            self.comm_volume += 1;
            return false;
        }
        *slots = [MULTI; 2];
        self.comm_volume += self.recount(mesh, part, c) as i64 - 2;
        false
    }

    /// The number of distinct remote domains among the face neighbours of
    /// cell `c`: the rare path, for a cell between three or more domains.
    #[cold]
    fn recount(&mut self, mesh: &Mesh, part: &[PartId], c: u32) -> usize {
        let own = part[c as usize];
        self.seen.clear();
        for &fid in mesh.cell_faces(c) {
            let f = &mesh.faces()[fid as usize];
            let Some(nb) = f.interior_neighbor() else {
                continue;
            };
            let other = if f.owner == c { nb } else { f.owner };
            let d = part[other as usize];
            if d != own && !self.seen.contains(&d) {
                self.seen.push(d);
            }
        }
        self.seen.len()
    }
}

/// One domain's `(neighbour, interface faces)` accumulation row, and the
/// entry it bumped last. A domain's remote faces come in runs towards one
/// neighbour, so most bumps hit that entry without scanning the row.
#[derive(Clone, Default)]
struct PairRow {
    row: Vec<(PartId, u32)>,
    last: usize,
}

impl PairRow {
    /// Bumps the interface-face count of neighbour `n`.
    #[inline]
    fn bump(&mut self, n: PartId) {
        if let Some((d, count)) = self.row.get_mut(self.last) {
            if *d == n {
                *count += 1;
                return;
            }
        }
        match self.row.iter().position(|&(d, _)| d == n) {
            Some(i) => {
                self.row[i].1 += 1;
                self.last = i;
            }
            None => {
                self.last = self.row.len();
                self.row.push((n, 1));
            }
        }
    }
}

/// The sorted neighbour lists and their interface-face counts from rows in
/// which every interface face was counted once, by its owner's domain: each
/// entry is mirrored into the other domain's row, then a row's entries for
/// one neighbour are summed.
fn mirrored(pairs: Vec<PairRow>) -> (Vec<Vec<PartId>>, Vec<Vec<u32>>) {
    let mut rows: Vec<Vec<(PartId, u32)>> = pairs.into_iter().map(|p| p.row).collect();
    let owned: Vec<usize> = rows.iter().map(Vec::len).collect();
    for (d, &len) in owned.iter().enumerate() {
        for i in 0..len {
            let (n, count) = rows[d][i];
            rows[n as usize].push((d as PartId, count));
        }
    }
    rows.into_iter()
        .map(|mut row| {
            row.sort_unstable_by_key(|&(d, _)| d);
            row.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 += later.1;
                }
                same
            });
            row.into_iter().unzip()
        })
        .unzip()
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
        let n_bins = (n_domains << level_bits(nl)) * 2;
        let largest_id_space = mesh.n_cells().max(mesh.n_faces()).max(n_bins);
        assert!(
            u32::try_from(largest_id_space).is_ok(),
            "cell, face and bin ids are u32"
        );
        let cells = CellWords::new(part, mesh.tau(), nl);

        // Every cell starts in its internal bin; the face pass moves it to
        // its external bin when it meets the cell's first remote domain.
        let mut cell_offsets = vec![0u32; n_bins + 1];
        for word in cells.words() {
            cell_offsets[word_bin(word, false) + 1] += 1;
        }

        // One pass over the faces: each face's bin count, the remote domains
        // of the cells that touch another domain, the interface-face count
        // per domain pair (in the owner's row), and the union of the two
        // cells of a same-domain face.
        let mut remotes = Remotes::new(mesh.n_cells());
        let mut sets = UnionFind::new(mesh.n_cells());
        let mut pairs = vec![PairRow::default(); n_domains];
        let mut face_offsets = vec![0u32; n_bins + 1];
        for f in mesh.faces() {
            let bin = classify_face(
                f,
                &cells,
                |nb| sets.union(f.owner, nb),
                |nb, d1| {
                    let d0 = part[f.owner as usize];
                    for (c, d) in [(f.owner, d1), (nb, d0)] {
                        if remotes.note(mesh, part, c, d) {
                            let w = cells.word(c);
                            cell_offsets[word_bin(w, false) + 1] -= 1;
                            cell_offsets[word_bin(w, true) + 1] += 1;
                        }
                    }
                    pairs[d0 as usize].bump(d1);
                },
            );
            face_offsets[bin + 1] += 1;
        }
        prefix_sum(&mut face_offsets);
        prefix_sum(&mut cell_offsets);
        let part_components = sets.components();
        drop(sets);
        let comm_volume = remotes.comm_volume;
        drop(remotes);
        let (neighbors, halo_faces) = mirrored(pairs);

        Self {
            n_domains,
            n_levels: nl,
            n_cells: mesh.n_cells(),
            cell_offsets,
            face_offsets,
            neighbors,
            halo_faces,
            comm_volume,
            part_components,
        }
    }

    /// The quality of the partition this decomposition classifies, equal to
    /// [`PartitionQuality::measure`] on the mesh's cell graph (unit vertex
    /// weights, one edge per face-sharing cell pair weighted by its face
    /// count), without building that graph: the edge cut is the halo table's
    /// sum seen from one side, the imbalance the largest domain's cell
    /// count over the mean, and the communication volume and per-domain
    /// components come from the face pass of [`Self::new`].
    pub fn quality(&self) -> PartitionQuality {
        let halo: u64 = self
            .halo_faces
            .iter()
            .flatten()
            .map(|&c| u64::from(c))
            .sum();
        let (n, k) = (self.n_cells, self.n_domains);
        let imbalance = if n == 0 {
            1.0
        } else {
            let largest = (0..k as PartId)
                .map(|d| self.domain_cell_count(d))
                .max()
                .unwrap_or(0);
            largest as f64 * k as f64 / n as f64
        };
        PartitionQuality {
            nparts: k,
            edge_cut: (halo / 2) as i64,
            comm_volume: self.comm_volume,
            imbalances: vec![imbalance],
            part_components: self.part_components,
        }
    }

    /// [`Self::new`]; `workers` is ignored. Sharding the classification over
    /// two threads lost to the sequential build on one (EXPERIMENTS.md,
    /// 2026-10-03), and the sequential build is now one counting pass over
    /// the faces: 0.017–0.022 s at 474k cells on the 2-core benchmark host
    /// (`taskgraph.domains_s`, EXPERIMENTS.md, "The curve keys and the
    /// classification, pass by pass"). The name stays because the frozen
    /// `benchmark/` package calls it.
    pub fn new_sharded(mesh: &Mesh, part: &[PartId], n_domains: usize, _workers: usize) -> Self {
        Self::new(mesh, part, n_domains)
    }

    /// Number of cells of `(domain, τ, class)`.
    pub fn cell_count(&self, domain: PartId, tau: u8, class: ObjectClass) -> usize {
        let b = bin_index(self.n_levels, domain, tau, class == ObjectClass::External);
        (self.cell_offsets[b + 1] - self.cell_offsets[b]) as usize
    }

    /// Number of faces of `(domain, τ, class)`.
    pub fn face_count(&self, domain: PartId, tau: u8, class: ObjectClass) -> usize {
        let b = bin_index(self.n_levels, domain, tau, class == ObjectClass::External);
        (self.face_offsets[b + 1] - self.face_offsets[b]) as usize
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
        let per_domain = 2 << level_bits(self.n_levels);
        let first = domain as usize * per_domain;
        (self.cell_offsets[first + per_domain] - self.cell_offsets[first]) as usize
    }

    /// Total number of external cells across all domains.
    pub fn total_external_cells(&self) -> usize {
        let o = &self.cell_offsets;
        (1..o.len() - 1)
            .step_by(2)
            .map(|b| (o[b + 1] - o[b]) as usize)
            .sum()
    }
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
    /// Room for the objects of `offsets`' bins; `cursor` starts at each
    /// bin's first slot.
    fn empty(offsets: &[u32]) -> (Self, Vec<u32>) {
        let len = *offsets.last().expect("an offset table has a last entry") as usize;
        let bins = Self {
            offsets: offsets.to_vec(),
            ids: vec![0; len],
        };
        (bins, offsets[..offsets.len() - 1].to_vec())
    }

    /// Appends `id` to bin `b` (`cursor` is [`Self::empty`]'s). As many ids
    /// are pushed as the offsets count, so if none overflows its bin, every
    /// bin ends up exactly full.
    #[inline]
    fn push(&mut self, cursor: &mut [u32], b: usize, id: u32) {
        let slot = &mut cursor[b];
        assert!(
            *slot < self.offsets[b + 1],
            "object lists of another partition than the decomposition's"
        );
        self.ids[*slot as usize] = id;
        *slot += 1;
    }

    /// The ids of bin `b`.
    fn get(&self, b: usize) -> &[u32] {
        &self.ids[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }
}

/// The objects of every `(domain, τ, class)` bin of a [`DomainDecomposition`],
/// ascending within each bin: the task → objects map the solver's kernels
/// walk. Task-graph generation and FLUSIM need only the bin sizes, which
/// the decomposition holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectLists {
    n_levels: u8,
    cells: Bins,
    faces: Bins,
}

impl ObjectLists {
    /// Lists the objects of `dd`'s bins: one pass over the faces fills the
    /// face lists and marks the external cells, one over the cells fills
    /// the cell lists, both in id order into the slots `dd`'s counts give.
    ///
    /// # Panics
    ///
    /// Panics if `part` is not the partition `dd` classifies `mesh` by.
    pub fn new(mesh: &Mesh, part: &[PartId], dd: &DomainDecomposition) -> Self {
        assert_eq!(part.len(), mesh.n_cells(), "partition vector length");
        let faces_counted = *dd
            .face_offsets
            .last()
            .expect("an offset table has a last entry");
        assert!(
            dd.n_cells == mesh.n_cells() && faces_counted as usize == mesh.n_faces(),
            "decomposition of another mesh"
        );
        let words = CellWords::new(part, mesh.tau(), dd.n_levels);
        let mut external = vec![false; mesh.n_cells()];
        let (mut faces, mut cursor) = Bins::empty(&dd.face_offsets);
        for (fid, f) in (0u32..).zip(mesh.faces()) {
            let mark = |nb: u32, _| {
                external[f.owner as usize] = true;
                external[nb as usize] = true;
            };
            faces.push(&mut cursor, classify_face(f, &words, |_| {}, mark), fid);
        }
        let (mut cells, mut cursor) = Bins::empty(&dd.cell_offsets);
        for (c, &is_external) in (0u32..).zip(&external) {
            cells.push(&mut cursor, word_bin(words.word(c), is_external), c);
        }
        Self {
            n_levels: dd.n_levels,
            cells,
            faces,
        }
    }

    /// Cell ids of `(domain, τ, class)`.
    pub fn cells_of(&self, domain: PartId, tau: u8, class: ObjectClass) -> &[u32] {
        self.cells.get(bin_index(
            self.n_levels,
            domain,
            tau,
            class == ObjectClass::External,
        ))
    }

    /// Face ids of `(domain, τ, class)`.
    pub fn faces_of(&self, domain: PartId, tau: u8, class: ObjectClass) -> &[u32] {
        self.faces.get(bin_index(
            self.n_levels,
            domain,
            tau,
            class == ObjectClass::External,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_mesh::{
        pprime_nozzle_like, Cell, Face, GeneratorConfig, Octree, OctreeConfig, TemporalScheme,
    };
    use tempart_testkit::prop::vec_of;
    use tempart_testkit::rng::Rng;
    use tempart_testkit::{prop_assert_eq, proptest};

    /// The quality oracle: the standalone metrics on the mesh's cell graph.
    fn measured(m: &Mesh, part: &[PartId], k: usize) -> PartitionQuality {
        PartitionQuality::measure(&m.to_graph(), part, k)
    }

    /// The classification [`DomainDecomposition::new`] replaced, kept as its
    /// oracle: a `(domain, τ)` word array, two remote-domain slots a cell
    /// that the face pass fills and a second pass over every cell reads
    /// back, and interface faces counted in both domains' rows.
    fn two_pass_oracle(mesh: &Mesh, part: &[PartId], n_domains: usize) -> DomainDecomposition {
        const NONE: u32 = u32::MAX;
        const MULTI: u32 = u32::MAX - 1;
        let note = |slots: &mut [u32; 2], d: PartId| {
            if slots[0] == d || slots[1] == d {
                return;
            }
            if slots[0] == NONE {
                slots[0] = d;
            } else if slots[1] == NONE {
                slots[1] = d;
            } else {
                *slots = [MULTI, MULTI];
            }
        };
        let nl = mesh.n_tau_levels();
        let shift = level_bits(nl);
        let mask = (1 << shift) - 1;
        let n_bins = (n_domains << shift) * 2;
        let words: Vec<u32> = part
            .iter()
            .zip(mesh.tau())
            .map(|(&d, &t)| d << shift | u32::from(t))
            .collect();
        let mut remote = vec![[NONE; 2]; mesh.n_cells()];
        let mut sets = UnionFind::new(mesh.n_cells());
        let mut pairs = vec![PairRow::default(); n_domains];
        let mut face_offsets = vec![0u32; n_bins + 1];
        for f in mesh.faces() {
            let w0 = words[f.owner as usize];
            let (word, external) = match f.neighbor {
                FaceNeighbor::Boundary => (w0, false),
                FaceNeighbor::Interior(nb) => {
                    let w1 = words[nb as usize];
                    let (d0, d1) = (w0 >> shift, w1 >> shift);
                    let word = d0 << shift | (w0 & mask).min(w1 & mask);
                    if d0 == d1 {
                        sets.union(f.owner, nb);
                    } else {
                        note(&mut remote[f.owner as usize], d1);
                        note(&mut remote[nb as usize], d0);
                        pairs[d0 as usize].bump(d1);
                        pairs[d1 as usize].bump(d0);
                    }
                    (word, d0 != d1)
                }
            };
            face_offsets[word_bin(word, external) + 1] += 1;
        }
        prefix_sum(&mut face_offsets);

        let mut comm_volume = 0i64;
        let mut cell_offsets = vec![0u32; n_bins + 1];
        for (c, (slots, &word)) in (0u32..).zip(remote.iter().zip(&words)) {
            let own = word >> shift;
            let external = match *slots {
                [NONE, _] => false,
                [MULTI, _] => {
                    let mut seen: Vec<PartId> = Vec::new();
                    for &fid in mesh.cell_faces(c) {
                        let f = &mesh.faces()[fid as usize];
                        let Some(nb) = f.interior_neighbor() else {
                            continue;
                        };
                        let other = if f.owner == c { nb } else { f.owner };
                        let d = part[other as usize];
                        if d != own && !seen.contains(&d) {
                            seen.push(d);
                        }
                    }
                    comm_volume += seen.len() as i64;
                    true
                }
                [_, NONE] => {
                    comm_volume += 1;
                    true
                }
                _ => {
                    comm_volume += 2;
                    true
                }
            };
            cell_offsets[word_bin(word, external) + 1] += 1;
        }
        prefix_sum(&mut cell_offsets);

        let (mut neighbors, mut halo_faces) = (Vec::new(), Vec::new());
        for PairRow { mut row, .. } in pairs {
            row.sort_unstable_by_key(|&(d, _)| d);
            neighbors.push(row.iter().map(|&(d, _)| d).collect());
            halo_faces.push(row.iter().map(|&(_, c)| c).collect());
        }
        DomainDecomposition {
            n_domains,
            n_levels: nl,
            n_cells: mesh.n_cells(),
            cell_offsets,
            face_offsets,
            neighbors,
            halo_faces,
            comm_volume,
            part_components: sets.components(),
        }
    }

    /// The cells cut into `k` chunks of equal count along a Morton curve
    /// through their centroids: the shape of a curve partition.
    fn curve_partition(m: &Mesh, k: usize) -> Vec<PartId> {
        let key = |p: [f64; 3]| {
            let mut key = 0u64;
            for (a, &x) in p.iter().enumerate() {
                let q = (x.clamp(0.0, 1.0) * 65535.0) as u64;
                for b in 0..16 {
                    key |= (q >> b & 1) << (3 * b + a);
                }
            }
            key
        };
        let mut order: Vec<u32> = (0..m.n_cells() as u32).collect();
        order.sort_by_key(|&c| (key(m.cells()[c as usize].centroid), c));
        let mut part = vec![0; m.n_cells()];
        for (i, &c) in order.iter().enumerate() {
            part[c as usize] = (i * k / order.len()) as PartId;
        }
        part
    }

    #[test]
    fn curve_partitions_of_the_nozzle_match_the_two_pass_oracle() {
        let m = pprime_nozzle_like(&GeneratorConfig { base_depth: 4 });
        assert!(m.n_tau_levels() > 1);
        let mut multi = 0;
        for k in [1usize, 2, 7, 64, 512] {
            let part = curve_partition(&m, k);
            let dd = DomainDecomposition::new(&m, &part, k);
            assert_eq!(dd, two_pass_oracle(&m, &part, k), "k={k}");
            // Cells between three or more domains take the recount.
            let mut remotes = Remotes::new(m.n_cells());
            multi += (0..m.n_cells() as u32)
                .filter(|&c| remotes.recount(&m, &part, c) >= 3)
                .count();
        }
        assert!(multi > 0, "no cell touches three remote domains");
    }

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
            let int = dd.cell_count(d, 0, ObjectClass::Internal);
            let ext = dd.cell_count(d, 0, ObjectClass::External);
            assert_eq!(int + ext, 32);
            assert_eq!(ext, 16, "domain {d}");
        }
        assert_eq!(dd.neighbors_of(0), &[1]);
        assert_eq!(dd.neighbors_of(1), &[0]);
        assert_eq!(dd.total_external_cells(), 32);
        let q = dd.quality();
        assert_eq!((q.edge_cut, q.comm_volume, q.part_components), (16, 32, 2));
        assert_eq!(q, measured(&m, &part, 2));
    }

    #[test]
    fn face_classification() {
        let m = grid_mesh(2);
        let part = half_split(&m);
        let dd = DomainDecomposition::new(&m, &part, 2);
        let ext0 = dd.face_count(0, 0, ObjectClass::External);
        let ext1 = dd.face_count(1, 0, ObjectClass::External);
        // 16 faces cross the plane; each owned by exactly one side.
        assert_eq!(ext0 + ext1, 16);
        let int_total =
            dd.face_count(0, 0, ObjectClass::Internal) + dd.face_count(1, 0, ObjectClass::Internal);
        // All other faces (interior of halves + boundary) are internal.
        assert_eq!(int_total, m.n_faces() - 16);
    }

    #[test]
    fn every_cell_listed_once() {
        let m = grid_mesh(2);
        let part: Vec<PartId> = (0..64).map(|i| (i % 4) as PartId).collect();
        let dd = DomainDecomposition::new(&m, &part, 4);
        let lists = ObjectLists::new(&m, &part, &dd);
        let mut seen = [false; 64];
        for d in 0..4u32 {
            for tau in 0..1u8 {
                for class in [ObjectClass::Internal, ObjectClass::External] {
                    for &c in lists.cells_of(d, tau, class) {
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
        let cell_graph = m.to_graph();
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
            let lists = ObjectLists::new(&m, &part, &dd);

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
                            lists.cells_of(d, tau, class),
                            cells,
                            "case {case} d={d} τ={tau}"
                        );
                        assert_eq!(dd.cell_count(d, tau, class), cells.len());
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
                            lists.faces_of(d, tau, class),
                            faces,
                            "case {case} d={d} τ={tau}"
                        );
                        assert_eq!(dd.face_count(d, tau, class), faces.len());
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
            assert_eq!(
                dd.quality(),
                PartitionQuality::measure(&cell_graph, &part, k),
                "case {case}"
            );
            assert_eq!(DomainDecomposition::new_sharded(&m, &part, k, 2), dd);
            assert_eq!(two_pass_oracle(&m, &part, k), dd, "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "temporal level out of range")]
    fn a_level_the_mesh_does_not_have_is_not_the_next_bin() {
        let m = grid_mesh(2);
        let dd = DomainDecomposition::new(&m, &half_split(&m), 2);
        dd.cell_count(0, 1, ObjectClass::Internal);
    }

    #[test]
    #[should_panic(expected = "temporal level out of range")]
    fn the_lists_have_no_next_level_either() {
        let m = grid_mesh(2);
        let part = half_split(&m);
        let lists = ObjectLists::new(&m, &part, &DomainDecomposition::new(&m, &part, 2));
        lists.faces_of(1, 1, ObjectClass::External);
    }

    #[test]
    #[should_panic(expected = "another partition")]
    fn lists_of_another_partition_are_refused() {
        let m = grid_mesh(2);
        let dd = DomainDecomposition::new(&m, &half_split(&m), 2);
        let scattered: Vec<PartId> = (0..64).map(|i| (i % 2) as PartId).collect();
        ObjectLists::new(&m, &scattered, &dd);
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
        assert_eq!(dd.quality(), measured(&m, &vec![0; 64], 1));
    }

    #[test]
    fn quality_of_an_empty_mesh_is_the_graph_metrics_of_an_empty_graph() {
        let m = Mesh::from_parts(Vec::new(), Vec::new());
        for k in [1usize, 3] {
            let q = DomainDecomposition::new(&m, &[], k).quality();
            assert_eq!(q.imbalances, vec![1.0]);
            assert_eq!(q, measured(&m, &[], k), "k={k}");
        }
    }

    proptest! {
        #![config(cases = 512, seed = 0x0DD0_0A11)]

        // Meshes octree generation never makes: several faces between one
        // pair of cells (in either orientation), isolated cells, boundary
        // faces anywhere; partitions from one domain to one per cell, some
        // domains empty.
        fn quality_equals_the_cell_graph_metrics_on_random_meshes(
            n_cells in 0u32..14,
            raw_faces in vec_of((0u32..14, 0u32..18), 0..48),
            raw_part in vec_of(0u32..1 << 16, 14..15),
            k in 1usize..15,
        ) {
            let cells = vec![
                Cell { centroid: [0.5; 3], depth: 0 };
                n_cells as usize
            ];
            let faces = raw_faces
                .iter()
                .filter(|_| n_cells > 0)
                .map(|&(a, b)| {
                    let owner = a % n_cells;
                    let neighbor = if b < 14 && b % n_cells != owner {
                        FaceNeighbor::Interior(b % n_cells)
                    } else {
                        FaceNeighbor::Boundary
                    };
                    Face { owner, neighbor, dir: 0, depth: 0 }
                })
                .collect();
            let m = Mesh::from_parts(cells, faces);
            let part: Vec<PartId> = raw_part[..n_cells as usize]
                .iter()
                .map(|&p| p % k as PartId)
                .collect();
            let dd = DomainDecomposition::new(&m, &part, k);
            prop_assert_eq!(dd.quality(), measured(&m, &part, k));
            prop_assert_eq!(dd, two_pass_oracle(&m, &part, k));
        }
    }
}
