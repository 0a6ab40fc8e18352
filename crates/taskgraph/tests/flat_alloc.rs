//! Allocation guard for the plumbing every partitioning strategy pays,
//! measured with the testkit counting allocator installed as this binary's
//! global allocator: `Mesh::to_graph` and `DomainDecomposition::new` make a
//! number of allocator calls that depends on the domain count, never on the
//! mesh size. A return to one `Vec` per cell (the old `GraphBuilder` export)
//! or per `(domain, τ, class)` bin turns these red, and so does a quality
//! pass whose scratch grows with the mesh (a `(cell, domain)` spill list).

use tempart_graph::PartId;
use tempart_mesh::{cylinder_like, GeneratorConfig, Mesh};
use tempart_taskgraph::DomainDecomposition;
use tempart_testkit::alloc::{
    count_allocations, live_bytes, peak_live_bytes, reset_peak_live_bytes, CountingAllocator,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const N_DOMAINS: usize = 8;

/// `N_DOMAINS` slabs along x: every domain touches at most two others at
/// any mesh depth, so the per-domain neighbour rows never regrow.
fn slabs(mesh: &Mesh) -> Vec<PartId> {
    mesh.cells()
        .iter()
        .map(|c| ((c.centroid[0] * N_DOMAINS as f64) as PartId).min(N_DOMAINS as PartId - 1))
        .collect()
}

/// `(cells, to_graph calls, DomainDecomposition::new calls)` on the slab
/// decomposition of CYLINDER at `base_depth`, each under its absolute bound.
fn allocator_calls(base_depth: u8) -> (usize, u64, u64) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth });
    let part = slabs(&mesh);
    let (graph, graph_calls) = count_allocations(|| mesh.to_graph());
    assert_eq!(graph.nvtx(), mesh.n_cells());
    // xadj, adjncy, adjwgt, vwgt.
    assert!(graph_calls <= 8, "to_graph: {graph_calls} allocator calls");

    let (dd, dd_calls) = count_allocations(|| DomainDecomposition::new(&mesh, &part, N_DOMAINS));
    assert!(dd.total_external_cells() > 0);
    // A fixed set of mesh-sized arrays (the quality figures add the
    // union-find parents and the pre-sized remote-domain scratch) plus three
    // short rows per domain.
    let bound = 18 + 4 * N_DOMAINS as u64;
    assert!(
        dd_calls <= bound,
        "DomainDecomposition::new: {dd_calls} > {bound}"
    );
    (mesh.n_cells(), graph_calls, dd_calls)
}

#[test]
fn allocator_calls_do_not_grow_with_the_mesh() {
    let (small, graph3, dd3) = allocator_calls(3);
    let (large, graph4, dd4) = allocator_calls(4);
    assert!(large > 4 * small, "{small} vs {large} cells");
    assert_eq!(graph3, graph4, "to_graph calls grew with the mesh");
    assert_eq!(
        dd3, dd4,
        "DomainDecomposition::new calls grew with the mesh"
    );
}

#[test]
fn scattered_domains_pay_per_domain_not_per_bin() {
    // Round-robin: every domain neighbours every other, rows regrow once.
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
    let part: Vec<PartId> = (0..mesh.n_cells())
        .map(|c| (c % N_DOMAINS) as PartId)
        .collect();
    let (_, calls) = count_allocations(|| DomainDecomposition::new(&mesh, &part, N_DOMAINS));
    // 2 · levels · N_DOMAINS bins per object kind would already be 128.
    let bound = 18 + 6 * N_DOMAINS as u64;
    assert!(calls <= bound, "{calls} > {bound}");
}

/// Heap bytes per cell that `DomainDecomposition::new` holds at its most
/// above its starting point, on the slab decomposition of CYLINDER at
/// `base_depth`.
fn peak_bytes_per_cell(base_depth: u8) -> f64 {
    let mesh = cylinder_like(&GeneratorConfig { base_depth });
    let part = slabs(&mesh);
    reset_peak_live_bytes();
    let start = live_bytes();
    let dd = DomainDecomposition::new(&mesh, &part, N_DOMAINS);
    let peak = peak_live_bytes() - start;
    assert!(dd.total_external_cells() > 0);
    peak as f64 / mesh.n_cells() as f64
}

#[test]
fn the_classification_holds_no_mesh_sized_id_lists() {
    // Its scratch is two remote-domain slots and a union-find parent per
    // cell (12 B, 12.02–12.16 measured); the cells' `(domain, τ)` words are
    // read off the partition vector in place. The two-pass build that also
    // held a word array held 16.0–16.1, and the build that also listed
    // every object — a bin per face and per cell, both id arrays and a copy
    // of the partition vector — 33.9 B/cell at depth 4.
    for depth in [4, 5] {
        let per_cell = peak_bytes_per_cell(depth);
        assert!(per_cell <= 12.5, "depth {depth}: {per_cell:.2} B/cell");
    }
}
