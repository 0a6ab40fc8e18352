//! Installed-jet-noise scenario: run the actual finite-volume Euler solver
//! on the PPRIME_NOZZLE-like mesh, with the task graph executed by the
//! threaded runtime in MPI-like process groups.
//!
//! Run: `cargo run --release --example jet_noise`

use tempart::core_api::{decompose, PartitionStrategy};
use tempart::mesh::{GeneratorConfig, MeshCase};
use tempart::obs::Recorder;
use tempart::runtime::RuntimeConfig;
use tempart::solver::{blast_initial, Solver, SolverConfig};
use tempart::taskgraph::stats::block_process_map;

fn main() {
    // The jet-noise mesh: fine cells along the jet cone, 3 temporal levels.
    let mesh = MeshCase::PprimeNozzle.generate(&GeneratorConfig { base_depth: 4 });
    println!(
        "PPRIME_NOZZLE-like mesh: {} cells, τ levels: {:?}",
        mesh.n_cells(),
        tempart::mesh::level_histogram(&mesh)
    );

    // Decompose with the paper's MC_TL strategy: 8 domains on 2 process
    // groups of 2 workers.
    let n_domains = 8;
    let part = decompose(&mesh, PartitionStrategy::McTl, n_domains, 7);
    let group_of = block_process_map(n_domains, 2);

    // A high-pressure pocket at the nozzle exit drives a blast into the jet.
    let mut solver = Solver::new(
        &mesh,
        &part,
        n_domains,
        SolverConfig {
            cfl: 0.4,
            ..SolverConfig::default()
        },
        blast_initial([0.2, 0.5, 0.5], 0.1),
    );
    println!(
        "task graph: {} tasks, {} dependency edges, {} subiterations/iteration",
        solver.graph().len(),
        solver.graph().n_edges(),
        solver.graph().n_subiterations
    );

    let before = solver.totals();
    let runtime = RuntimeConfig::new(2, 2);
    for it in 0..4 {
        let report = solver.run_iteration(&runtime, &group_of, Recorder::off());
        println!(
            "iteration {it}: {} tasks in {:?}, simulated time t = {:.5}",
            report.executed, report.wall, solver.time
        );
    }
    let after = solver.totals();
    let state = solver.state();
    println!(
        "mass drift over 4 iterations: {:.3e} (relative) — subcycled scheme, see DESIGN.md",
        ((after[0] - before[0]) / before[0]).abs()
    );
    println!(
        "flow is {}; peak density {:.3}",
        if state.is_physical() {
            "physical"
        } else {
            "UNPHYSICAL"
        },
        state
            .u
            .iter()
            .map(|u| u[0])
            .fold(f64::NEG_INFINITY, f64::max)
    );
}
