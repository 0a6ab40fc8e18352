//! What a generated mesh holds on the heap: cells, faces, τ and the
//! cell → face CSR, nothing the octree already determines.
//!
//! A face is its owner, its neighbour, a direction index and the owner's
//! depth; a cell its centroid and depth. Normals, areas and volumes are
//! derived, so the live heap of a generated mesh stays below 128 bytes a
//! cell (a 6.4M-cell CYLINDER in under 800 MiB).

use tempart_mesh::{Cell, Face, GeneratorConfig, MeshCase};
use tempart_testkit::alloc::{
    live_bytes, peak_live_bytes, reset_peak_live_bytes, CountingAllocator,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const _: () = assert!(std::mem::size_of::<Face>() <= 16);
const _: () = assert!(std::mem::size_of::<Cell>() <= 32);

/// The live-heap bound a generated mesh must stay under, per cell.
const MAX_BYTES_PER_CELL: f64 = 128.0;

#[test]
fn generated_meshes_hold_at_most_128_bytes_a_cell() {
    for base_depth in [4u8, 5] {
        for case in MeshCase::ALL {
            let before = live_bytes();
            let mesh = case.generate(&GeneratorConfig { base_depth });
            let held = live_bytes() - before;
            let per_cell = held as f64 / mesh.n_cells() as f64;
            eprintln!(
                "{} depth {base_depth}: {} cells, {} faces, {held} B live, {per_cell:.1} B/cell",
                case.name(),
                mesh.n_cells(),
                mesh.n_faces(),
            );
            assert!(
                per_cell <= MAX_BYTES_PER_CELL,
                "{} depth {base_depth}: {per_cell:.1} B/cell above {MAX_BYTES_PER_CELL}",
                case.name()
            );
        }
    }
}

/// The live-heap peak of generating PPRIME_NOZZLE at depth 6 (474 496
/// cells), per cell. It is 135.4 B, reached while the cell → face CSR is
/// filled beside the tree, the cells and the faces; the bound leaves 3 %
/// over that. Reserving six faces a leaf in the face pass peaked at 148 B.
const MAX_PEAK_BYTES_PER_CELL: f64 = 140.0;

#[test]
fn generating_a_mesh_peaks_below_the_bound_per_cell() {
    let before = live_bytes();
    reset_peak_live_bytes();
    let mesh = MeshCase::PprimeNozzle.generate(&GeneratorConfig { base_depth: 6 });
    let peak = peak_live_bytes() - before;
    let per_cell = peak as f64 / mesh.n_cells() as f64;
    eprintln!(
        "PPRIME_NOZZLE depth 6: {} cells, {peak} B live at the peak, {per_cell:.1} B/cell",
        mesh.n_cells()
    );
    assert!(
        per_cell <= MAX_PEAK_BYTES_PER_CELL,
        "{per_cell:.1} B/cell at the peak, above {MAX_PEAK_BYTES_PER_CELL}"
    );
}
