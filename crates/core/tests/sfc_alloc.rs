//! Allocation guard for the curve path of `core::decompose`, measured with
//! the testkit counting allocator installed as this binary's global
//! allocator: the SFC_OC strategy reads the mesh's cells and its `u32`
//! weights in place. A centroid gather (24 B a cell) or a `u64` copy of the
//! weights (8 B a cell) on the way to the curve partitioner turns this red.

use tempart_core::{decompose, PartitionStrategy};
use tempart_mesh::{pprime_nozzle_like, GeneratorConfig};
use tempart_partition::Curve;
use tempart_testkit::alloc::{allocated_bytes, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Bytes a cell that one SFC_OC `decompose` call may request, between the
/// in-place call and one that copies the centroids and widens the weights:
/// `u32` weights 4, keys 8, order 4, part 4 and the bucket tables (22.1
/// measured; 54.1 with the gather and the widened copy).
const MAX_BYTES_PER_CELL: f64 = 30.0;

#[test]
fn sfc_decompose_reads_the_cells_in_place() {
    let mesh = pprime_nozzle_like(&GeneratorConfig { base_depth: 4 });
    let n = mesh.n_cells();
    let strategy = PartitionStrategy::SfcOc {
        curve: Curve::Hilbert,
    };
    let before = allocated_bytes();
    let part = decompose(&mesh, strategy, 512, 0);
    let per_cell = (allocated_bytes() - before) as f64 / n as f64;
    assert_eq!(part.len(), n);
    println!("{n} cells: {per_cell:.2} B a cell");
    assert!(
        per_cell <= MAX_BYTES_PER_CELL,
        "decompose(SFC_OC) requested {per_cell:.2} B a cell (bound {MAX_BYTES_PER_CELL})"
    );
}
