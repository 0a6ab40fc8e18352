//! What a generated mesh holds on the heap: cells, faces, τ and the
//! cell → face CSR, nothing the octree already determines.
//!
//! A face is its owner, its neighbour, a direction index and the owner's
//! depth; a cell its centroid and depth. Normals, areas and volumes are
//! derived, so the live heap of a generated mesh stays below 128 bytes a
//! cell (a 6.4M-cell CYLINDER in under 800 MiB).

use tempart_mesh::{Cell, Face, GeneratorConfig, MeshCase};
use tempart_testkit::alloc::{live_bytes, CountingAllocator};

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
