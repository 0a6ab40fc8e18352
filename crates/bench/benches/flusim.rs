//! Wall-clock benches for the FLUSIM discrete-event simulator: scheduling
//! strategies and the end-to-end makespan of the two partitioning
//! strategies (the core experiment loop of Figs. 9/11/12). Runs on the
//! in-tree `tempart_testkit` harness.

use std::hint::black_box;
use tempart_core::{decompose, PartitionStrategy};
use tempart_flusim::{
    race, race_network, simulate, simulate_lattice_with_network, simulate_with, ClusterConfig,
    DynamicListStrategy, Link, NetworkModel, ProcessCriterion, Strategy, TaskCriterion, TieBreak,
};
use tempart_mesh::{cylinder_like, GeneratorConfig};
use tempart_obs::Recorder;
use tempart_taskgraph::{
    generate_taskgraph, stats::block_process_map, DomainDecomposition, TaskGraphConfig,
};
use tempart_testkit::bench::Bencher;

fn bench_scheduling_strategies(b: &mut Bencher) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let part = decompose(&mesh, PartitionStrategy::ScOc, 64, 1);
    let dd = DomainDecomposition::new(&mesh, &part, 64);
    let graph = generate_taskgraph(&mesh, &dd, &TaskGraphConfig::default());
    let cluster = ClusterConfig::new(16, 4);
    let process_of = block_process_map(64, 16);
    for (name, strat) in [
        ("eager-fifo", Strategy::EagerFifo),
        ("eager-lifo", Strategy::EagerLifo),
        ("critical-path", Strategy::CriticalPathFirst),
        ("smallest-first", Strategy::SmallestFirst),
    ] {
        b.bench(&format!("flusim/scheduling/{name}"), || {
            black_box(simulate(black_box(&graph), &cluster, &process_of, strat))
        });
    }
}

fn bench_portfolio(b: &mut Bencher) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let part = decompose(&mesh, PartitionStrategy::ScOc, 64, 1);
    let dd = DomainDecomposition::new(&mesh, &part, 64);
    let graph = generate_taskgraph(&mesh, &dd, &TaskGraphConfig::default());
    let cluster = ClusterConfig::new(16, 4);
    let process_of = block_process_map(64, 16);
    // One dynamic lattice point in isolation: the global-heap loop against
    // the pinned per-process loop measured by flusim/scheduling/*.
    let dynamic = DynamicListStrategy {
        task: TaskCriterion::CriticalPath,
        process: ProcessCriterion::LeastLoaded,
        tie: TieBreak::InsertionOrder,
    };
    b.bench("flusim/portfolio/single-dynamic-combo", || {
        black_box(simulate_with(
            black_box(&graph),
            &cluster.cores(),
            &process_of,
            &dynamic,
            None,
            Recorder::off(),
        ))
    });
    // The full 24-combo race, serial and fanned over the fork-join pool.
    b.set_samples(10);
    for workers in [1usize, 4] {
        b.bench(&format!("flusim/portfolio/race-24combo-w{workers}"), || {
            black_box(race(
                black_box(&graph),
                &cluster,
                &process_of,
                None,
                workers,
                Recorder::off(),
            ))
        });
    }
}

fn bench_network(b: &mut Bencher) {
    // The priced event loop on the same instance as flusim/scheduling/*:
    // these rows bound the cost of NIC-channel bookkeeping, the transfer
    // ledger and the post-loop overlap statistics over the free loop.
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let part = decompose(&mesh, PartitionStrategy::ScOc, 64, 1);
    let dd = DomainDecomposition::new(&mesh, &part, 64);
    let graph = generate_taskgraph(&mesh, &dd, &TaskGraphConfig::default());
    let cluster = ClusterConfig::new(16, 4);
    let process_of = block_process_map(64, 16);
    let fifo = DynamicListStrategy::from(Strategy::EagerFifo);
    let uniform = NetworkModel::uniform(
        Link {
            latency: 200,
            cost_per_byte: 2,
        },
        2,
    )
    .with_halo(&dd, TaskGraphConfig::default().face_payload_bytes);
    let two_level = NetworkModel::two_level(
        4,
        Link {
            latency: 40,
            cost_per_byte: 1,
        },
        Link {
            latency: 400,
            cost_per_byte: 2,
        },
        2,
    )
    .with_halo(&dd, TaskGraphConfig::default().face_payload_bytes);
    b.bench("flusim/comm/uniform", || {
        black_box(simulate_lattice_with_network(
            black_box(&graph),
            &cluster,
            &process_of,
            &fifo,
            &uniform,
        ))
    });
    b.bench("flusim/comm/two-level", || {
        black_box(simulate_lattice_with_network(
            black_box(&graph),
            &cluster,
            &process_of,
            &fifo,
            &two_level,
        ))
    });
    // The comm-bound 24-combo race: on the calling thread under the
    // two-level model (the shape of the repo benchmark's operation at bench
    // scale), then on the fork-join pool — where 4 workers on a 2-core host
    // measure time-slicing.
    b.set_samples(10);
    b.bench("flusim/comm/race-w1", || {
        black_box(race_network(
            black_box(&graph),
            &cluster,
            &process_of,
            &two_level,
            1,
        ))
    });
    b.bench("flusim/comm/race", || {
        black_box(race_network(
            black_box(&graph),
            &cluster,
            &process_of,
            &uniform,
            4,
        ))
    });
}

fn bench_end_to_end(b: &mut Bencher) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    b.set_samples(10);
    for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
        b.bench(
            &format!("flusim/end-to-end-128dom/{}", strategy.label()),
            || {
                let cfg = tempart_core::PipelineConfig::paper_default(strategy, 128);
                black_box(tempart_core::run_flusim(black_box(&mesh), &cfg))
            },
        );
    }
}

fn main() {
    let mut b = Bencher::new("flusim");
    bench_scheduling_strategies(&mut b);
    bench_portfolio(&mut b);
    bench_network(&mut b);
    bench_end_to_end(&mut b);
    b.finish();
}
