//! Allocation guard for the curve path of `core::decompose`, measured with
//! the testkit counting allocator installed as this binary's global
//! allocator: the SFC_OC strategy reads the mesh's cells and levels in
//! place and leases its curve scratch from the caller's workspace pool. A
//! centroid gather (24 B a cell) or a copy of the weights (4 or 8 B a cell)
//! on the way to the curve partitioner turns this red, and so does a curve
//! workspace built outside the pool (keys 8 B and order 4 B a cell on every
//! warm call).

use tempart_core::{decompose, decompose_with, Exec, PartitionStrategy};
use tempart_graph::PartId;
use tempart_mesh::{pprime_nozzle_like, GeneratorConfig};
use tempart_obs::Recorder;
use tempart_partition::{Curve, WorkspacePool};
use tempart_testkit::alloc::{allocated_bytes, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Bytes a cell that one cold SFC_OC `decompose` call may request, between
/// the in-place call and one that copies the centroids and widens the
/// weights: keys 8, order 4, part 4 and the bucket tables (18.3 measured;
/// 22.1 with a `u32` weight copy, 54.1 with the gather and a widened copy
/// besides).
const MAX_BYTES_PER_CELL: f64 = 30.0;

/// Bytes a warm SFC_OC `decompose_with` may request beyond its part vector,
/// whatever the cell count (0 measured at one worker).
const WARM_SLACK_BYTES: u64 = 1024;

const STRATEGY: PartitionStrategy = PartitionStrategy::SfcOc {
    curve: Curve::Hilbert,
};

#[test]
fn sfc_decompose_reads_the_cells_in_place() {
    let mesh = pprime_nozzle_like(&GeneratorConfig { base_depth: 4 });
    let n = mesh.n_cells();
    let before = allocated_bytes();
    let part = decompose(&mesh, STRATEGY, 512, 0);
    let per_cell = (allocated_bytes() - before) as f64 / n as f64;
    assert_eq!(part.len(), n);
    println!("{n} cells: {per_cell:.2} B a cell");
    assert!(
        per_cell <= MAX_BYTES_PER_CELL,
        "decompose(SFC_OC) requested {per_cell:.2} B a cell (bound {MAX_BYTES_PER_CELL})"
    );
}

#[test]
fn a_warm_pool_serves_the_curve_scratch() {
    let mesh = pprime_nozzle_like(&GeneratorConfig { base_depth: 4 });
    let n = mesh.n_cells();
    let pool = WorkspacePool::new(1);
    let exec = Exec::new(1, &pool, Recorder::off());
    let cold = decompose_with(&mesh, STRATEGY, 512, 0, &exec);
    let before = allocated_bytes();
    let warm = decompose_with(&mesh, STRATEGY, 512, 0, &exec);
    let requested = allocated_bytes() - before;
    let part_bytes = (n * std::mem::size_of::<PartId>()) as u64;
    assert_eq!(warm, cold);
    println!("{n} cells: warm call requested {requested} B, part vector {part_bytes} B");
    assert!(
        requested <= part_bytes + WARM_SLACK_BYTES,
        "a warm decompose_with(SFC_OC) requested {requested} B \
         (bound: part vector {part_bytes} B + {WARM_SLACK_BYTES} B)"
    );
}
