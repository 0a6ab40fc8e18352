//! What bounds FLUSIM's makespan at Fig 9's configuration (CYLINDER, 128
//! domains, eager FIFO, free communication): on 16 processes × 32 cores no
//! task ever waits for a core, so the makespan is exactly the task graph's
//! critical path, and the cluster, the process map and the scheduling policy
//! cannot move it. On 16 × 4 the cores bind and the makespan exceeds the
//! critical path.
//!
//! Base depth 3 (736 cells) is the smallest CYLINDER that has a cell for
//! each of the 128 domains, and both statements hold there for SC_OC and
//! MC_TL, as they do at the figure's depth 5 (SC_OC 9 985 = CP at 16 × 32,
//! 19 664 > 9 985 at 16 × 4; MC_TL 4 605 = CP, 10 203 > 4 605).
//!
//! [`SimResult::peak_running`](tempart::flusim::SimResult::peak_running)
//! says the same from the cores' side: at 16 × 32 no process ever runs more
//! than 16 tasks at once (the largest peak at base depths 3 and 5, SC_OC
//! and MC_TL, is exactly 16), so half of every process's cores never run a
//! task; at 16 × 4 every process keeps all 4 busy at some instant.

use tempart::core_api::{run_flusim, FlusimOutcome, PartitionStrategy, PipelineConfig};
use tempart::flusim::ClusterConfig;
use tempart::mesh::{GeneratorConfig, MeshCase};

const BASE_DEPTH: u8 = 3;

fn fig09_run(strategy: PartitionStrategy, cores: usize) -> FlusimOutcome {
    let mesh = MeshCase::Cylinder.generate(&GeneratorConfig {
        base_depth: BASE_DEPTH,
    });
    assert!(mesh.n_cells() >= 128);
    let mut config = PipelineConfig::paper_default(strategy, 128);
    config.cluster = ClusterConfig::new(16, cores);
    run_flusim(&mesh, &config)
}

#[test]
fn fig09_configuration_is_critical_path_bound() {
    for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
        let out = fig09_run(strategy, 32);
        assert_eq!(
            out.makespan(),
            out.graph.critical_path(),
            "{}",
            strategy.label()
        );
        let peak = out.sim.peak_running();
        assert_eq!(peak.len(), 16);
        assert!(
            peak.iter().all(|&p| p <= 16),
            "{}: {peak:?}",
            strategy.label()
        );
    }
}

#[test]
fn four_cores_per_process_bind() {
    for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
        let out = fig09_run(strategy, 4);
        assert!(
            out.makespan() > out.graph.critical_path(),
            "{}: {} vs {}",
            strategy.label(),
            out.makespan(),
            out.graph.critical_path()
        );
        let peak = out.sim.peak_running();
        assert_eq!(peak, vec![4; 16], "{}", strategy.label());
    }
}
