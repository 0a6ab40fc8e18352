//! Cross-validation between the two execution back ends: the FLUSIM
//! discrete-event simulator and the real threaded runtime must agree on the
//! *structure* of an execution (what ran where), even though only the former
//! has deterministic timing.

use std::sync::atomic::{AtomicU64, Ordering};
use tempart::core_api::{decompose, PartitionStrategy};
use tempart::flusim::{simulate, ClusterConfig, Strategy};
use tempart::mesh::{GeneratorConfig, MeshCase};
use tempart::obs::Recorder;
use tempart::runtime::{execute, RuntimeConfig};
use tempart::taskgraph::{
    generate_taskgraph, stats::block_process_map, DomainDecomposition, TaskGraphConfig,
};

fn setup() -> (
    tempart::mesh::Mesh,
    tempart::taskgraph::TaskGraph,
    Vec<usize>,
) {
    let mesh = MeshCase::Cube.generate(&GeneratorConfig { base_depth: 3 });
    let part = decompose(&mesh, PartitionStrategy::McTl, 4, 11);
    let dd = DomainDecomposition::new(&mesh, &part, 4);
    let graph = generate_taskgraph(&mesh, &dd, &TaskGraphConfig::default());
    let process_of = block_process_map(4, 2);
    (mesh, graph, process_of)
}

#[test]
fn both_backends_run_every_task_on_the_owning_process() {
    let (_mesh, graph, process_of) = setup();

    // Simulator side.
    let sim = simulate(
        &graph,
        &ClusterConfig::new(2, 2),
        &process_of,
        Strategy::EagerFifo,
    );
    assert_eq!(sim.segments.len(), graph.len());
    for s in &sim.segments {
        let dom = graph.task(s.task).domain as usize;
        assert_eq!(s.process as usize, process_of[dom]);
    }

    // Runtime side.
    let rec = Recorder::new(graph.len() + 16);
    let report = execute(
        &graph,
        &RuntimeConfig::new(2, 2),
        &process_of,
        &rec,
        |_, _| {},
    );
    assert_eq!(report.executed, graph.len());
    for s in &report.segments {
        let dom = graph.task(s.task).domain as usize;
        assert_eq!(s.group as usize, process_of[dom]);
    }
}

#[test]
fn runtime_respects_the_same_dag_the_simulator_schedules() {
    let (_mesh, graph, process_of) = setup();
    let stamp = AtomicU64::new(1);
    let finished: Vec<AtomicU64> = (0..graph.len()).map(|_| AtomicU64::new(0)).collect();
    execute(
        &graph,
        &RuntimeConfig::new(2, 2),
        &process_of,
        Recorder::off(),
        |t, _| {
            finished[t as usize].store(stamp.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
        },
    );
    for t in 0..graph.len() as u32 {
        for &p in graph.preds(t) {
            assert!(
                finished[p as usize].load(Ordering::SeqCst)
                    < finished[t as usize].load(Ordering::SeqCst),
                "runtime violated dependency {p} -> {t}"
            );
        }
    }
}

#[test]
fn simulator_busy_time_equals_runtime_task_count_weighting() {
    // The simulator's per-process busy sums must equal the per-process cost
    // sums implied by the static domain→process map — and the runtime's
    // per-group task counts must match the same split.
    let (_mesh, graph, process_of) = setup();
    let mut expected = vec![0u64; 2];
    let mut expected_counts = vec![0usize; 2];
    for t in graph.tasks() {
        expected[process_of[t.domain as usize]] += t.cost;
        expected_counts[process_of[t.domain as usize]] += 1;
    }
    let sim = simulate(
        &graph,
        &ClusterConfig::new(2, 2),
        &process_of,
        Strategy::EagerFifo,
    );
    assert_eq!(sim.busy, expected);

    let rec = Recorder::new(graph.len() + 16);
    let report = execute(
        &graph,
        &RuntimeConfig::new(2, 1),
        &process_of,
        &rec,
        |_, _| {},
    );
    let mut counts = vec![0usize; 2];
    for s in &report.segments {
        counts[s.group as usize] += 1;
    }
    assert_eq!(counts, expected_counts);
}

#[test]
fn unbounded_simulation_is_a_lower_bound_for_any_bounded_one() {
    let (_mesh, graph, process_of) = setup();
    let unbounded = simulate(
        &graph,
        &ClusterConfig::unbounded(2),
        &process_of,
        Strategy::EagerFifo,
    );
    for cores in [1usize, 2, 4] {
        let bounded = simulate(
            &graph,
            &ClusterConfig::new(2, cores),
            &process_of,
            Strategy::EagerFifo,
        );
        assert!(
            bounded.makespan >= unbounded.makespan,
            "cores={cores}: {} < {}",
            bounded.makespan,
            unbounded.makespan
        );
    }
}
