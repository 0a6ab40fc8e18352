//! Cross-crate integration tests: the full mesh → partition → task graph →
//! simulation pipeline, exercised on all three paper meshes.

use tempart::core_api::{decompose, run_flusim, PartitionStrategy, PipelineConfig};
use tempart::flusim::{ClusterConfig, Strategy};
use tempart::mesh::{GeneratorConfig, MeshCase};

fn mesh(case: MeshCase) -> tempart::mesh::Mesh {
    case.generate(&GeneratorConfig { base_depth: 4 })
}

fn cfg(strategy: PartitionStrategy, n_domains: usize) -> PipelineConfig {
    PipelineConfig {
        strategy,
        n_domains,
        cluster: ClusterConfig::new(4, 4),
        scheduling: Strategy::EagerFifo,
        seed: 99,
    }
}

#[test]
fn total_work_is_strategy_invariant_on_all_meshes() {
    for case in MeshCase::ALL {
        let m = mesh(case);
        let costs: Vec<u64> = [
            PartitionStrategy::Uniform,
            PartitionStrategy::ScOc,
            PartitionStrategy::McTl,
        ]
        .into_iter()
        .map(|s| run_flusim(&m, &cfg(s, 8)).graph.total_cost())
        .collect();
        assert!(
            costs.windows(2).all(|w| w[0] == w[1]),
            "{}: {costs:?}",
            case.name()
        );
    }
}

#[test]
fn makespan_bounds_hold_on_all_meshes() {
    for case in MeshCase::ALL {
        let m = mesh(case);
        for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
            let out = run_flusim(&m, &cfg(strategy, 8));
            assert!(out.makespan() >= out.graph.critical_path());
            assert!(out.makespan() * 16 >= out.graph.total_cost());
            assert_eq!(out.sim.total_executed(), out.graph.total_cost());
        }
    }
}

#[test]
fn mc_tl_wins_or_ties_everywhere() {
    // The paper's claim across its whole evaluation: MC_TL never loses.
    for case in MeshCase::ALL {
        let m = mesh(case);
        let sc = run_flusim(&m, &cfg(PartitionStrategy::ScOc, 16));
        let mc = run_flusim(&m, &cfg(PartitionStrategy::McTl, 16));
        assert!(
            mc.makespan() as f64 <= sc.makespan() as f64 * 1.02,
            "{}: MC_TL {} vs SC_OC {}",
            case.name(),
            mc.makespan(),
            sc.makespan()
        );
    }
}

#[test]
fn every_domain_gets_cells() {
    for case in MeshCase::ALL {
        let m = mesh(case);
        for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
            let part = decompose(&m, strategy, 16, 3);
            let mut counts = vec![0usize; 16];
            for &p in &part {
                counts[p as usize] += 1;
            }
            assert!(
                counts.iter().all(|&c| c > 0),
                "{} {}: {counts:?}",
                case.name(),
                strategy.label()
            );
        }
    }
}

#[test]
fn partition_is_deterministic_end_to_end() {
    let m = mesh(MeshCase::Cube);
    let a = run_flusim(&m, &cfg(PartitionStrategy::McTl, 8));
    let b = run_flusim(&m, &cfg(PartitionStrategy::McTl, 8));
    assert_eq!(a.part, b.part);
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn unbounded_cores_still_idle_with_sc_oc() {
    // Fig 6's core finding as an assertion: the SC_OC task graph forces
    // idleness even with unlimited cores.
    let m = mesh(MeshCase::Cylinder);
    let out = run_flusim(
        &m,
        &PipelineConfig {
            strategy: PartitionStrategy::ScOc,
            n_domains: 16,
            cluster: ClusterConfig::unbounded(16),
            scheduling: Strategy::EagerFifo,
            seed: 99,
        },
    );
    let inact = out.sim.process_inactivity();
    let mean: f64 = inact.iter().sum::<f64>() / inact.len() as f64;
    assert!(
        mean > 0.15,
        "expected substantial idleness with unbounded cores, got {mean}"
    );
}

#[test]
fn scheduling_strategies_cannot_beat_critical_path() {
    let m = mesh(MeshCase::Cube);
    let part = decompose(&m, PartitionStrategy::ScOc, 8, 1);
    for strat in [
        Strategy::EagerFifo,
        Strategy::EagerLifo,
        Strategy::CriticalPathFirst,
        Strategy::SmallestFirst,
    ] {
        let (graph, _, sim) = tempart::core_api::simulate_decomposition(
            &m,
            &part,
            8,
            &ClusterConfig::new(4, 4),
            strat,
            tempart::obs::Recorder::off(),
        );
        assert!(sim.makespan >= graph.critical_path());
    }
}
