//! Wall-clock benches for the finite-volume solver kernels: a full serial
//! iteration, and the threaded runtime against the serial baseline. Runs on
//! the in-tree `tempart_testkit` harness (setup excluded from timing).

use std::hint::black_box;
use tempart_core::{decompose, PartitionStrategy};
use tempart_mesh::{pprime_nozzle_like, GeneratorConfig};
use tempart_obs::Recorder;
use tempart_runtime::RuntimeConfig;
use tempart_solver::{blast_initial, Solver, SolverConfig};
use tempart_testkit::bench::Bencher;

fn bench_serial_iteration(b: &mut Bencher) {
    let mesh = pprime_nozzle_like(&GeneratorConfig { base_depth: 4 });
    let part = decompose(&mesh, PartitionStrategy::ScOc, 4, 1);
    b.set_samples(10);
    b.bench_with_setup(
        "solver/iteration/serial",
        || {
            Solver::new(
                &mesh,
                &part,
                4,
                SolverConfig::default(),
                blast_initial([0.35, 0.5, 0.5], 0.15),
            )
        },
        |mut s| {
            s.run_iteration_serial();
            black_box(s.time)
        },
    );
}

fn bench_runtime_groups(b: &mut Bencher) {
    let mesh = pprime_nozzle_like(&GeneratorConfig { base_depth: 4 });
    let part = decompose(&mesh, PartitionStrategy::McTl, 4, 1);
    b.set_samples(10);
    for workers in [1usize, 2] {
        b.bench_with_setup(
            &format!("solver/runtime/{workers}"),
            || {
                Solver::new(
                    &mesh,
                    &part,
                    4,
                    SolverConfig::default(),
                    blast_initial([0.35, 0.5, 0.5], 0.15),
                )
            },
            |mut s| {
                let rt = RuntimeConfig::new(2, workers);
                black_box(s.run_iteration(&rt, &[0, 0, 1, 1], Recorder::off()))
            },
        );
    }
}

fn main() {
    let mut b = Bencher::new("solver_step");
    bench_serial_iteration(&mut b);
    bench_runtime_groups(&mut b);
    b.finish();
}
