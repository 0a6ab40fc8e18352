//! The experiments that regenerate the paper's tables and figures, one
//! function each, and the registry [`EXPERIMENTS`] the `experiments` binary
//! dispatches on:
//!
//! `cargo run -p tempart-bench --release --bin experiments -- <id> [--depth N] [--seed N]`
//!
//! Stdout of a `golden` experiment is a pure function of the seed and is
//! committed as `results/<id>.txt`; `ci.sh experiments` regenerates and
//! diffs it. Every experiment accepts `--depth N` (octree base depth;
//! default taken from the mesh case, +1 octave ≈ ×8 cells) and `--seed N`,
//! so it can be scaled from a seconds-long smoke run to a paper-scale mesh.

mod extensions;
mod paper;

use tempart_core::{
    run_flusim, simulate_decomposition, FlusimOutcome, PartitionStrategy, PipelineConfig,
};
use tempart_flusim::{ascii_gantt, ClusterConfig, DynamicListStrategy, SimResult};
use tempart_graph::PartId;
use tempart_mesh::{GeneratorConfig, Mesh, MeshCase};
use tempart_obs::Recorder;
use tempart_solver::{blast_initial, Solver, SolverConfig};
use tempart_taskgraph::TaskGraph;

/// One reproduced table or figure.
pub struct Experiment {
    /// Command-line name, and the stem of `results/<id>.txt`.
    pub id: &'static str,
    /// One line for `experiments list`.
    pub what: &'static str,
    /// Whether stdout is a pure function of `--depth`/`--seed` (a committed
    /// golden file) or carries measured wall-clock time (a sample).
    pub golden: bool,
    /// Prints the experiment to stdout.
    pub run: fn(&ExpOptions),
}

/// Every experiment, in the order EXPERIMENTS.md presents them.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    exp("table1", true, paper::table1, "Table I: per-level cell counts and computation shares"),
    exp("fig05", false, paper::fig05, "Fig 5: measured-cost replay vs idealized FLUSIM"),
    exp("fig06", true, paper::fig06, "Fig 6: SC_OC idles even with unbounded cores"),
    exp("fig07_10", true, paper::fig07_10, "Figs 7/10: per-level and per-subiteration loads"),
    exp("fig09", true, paper::fig09, "Fig 9: SC_OC vs MC_TL traces, 128 domains on 16 x 32"),
    exp("fig11", true, paper::fig11, "Fig 11: makespan ratio and comm volume vs #domains"),
    exp("fig12", true, paper::fig12, "Fig 12: SC_OC vs MC_TL on PPRIME_NOZZLE"),
    exp("fig13", false, paper::fig13, "Fig 13: SC_OC vs MC_TL with measured kernel costs"),
    exp("sec3c_scheduling", true, paper::sec3c_scheduling, "Sec III-C: scheduler vs partition"),
    exp("ext_comm", true, extensions::ext_comm, "makespan vs per-message latency"),
    exp("ext_drift", true, extensions::ext_drift, "hotspot drift vs a stale MC_TL partition"),
    exp("ext_dualphase", true, extensions::ext_dualphase, "Sec VII dual-phase compromise"),
    exp("ext_hetero", true, extensions::ext_hetero, "heterogeneous nodes: capacity-aware mapping"),
    exp("ext_repair", true, extensions::ext_repair, "contiguity repair of MC_TL domains"),
    exp("ablation_partitioner", true, extensions::ablation_partitioner, "partitioner knobs"),
];

/// One [`EXPERIMENTS`] row per source line.
const fn exp(
    id: &'static str,
    golden: bool,
    run: fn(&ExpOptions),
    what: &'static str,
) -> Experiment {
    Experiment {
        id,
        what,
        golden,
        run,
    }
}

/// Command-line options shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Octree base depth override (`--depth`).
    pub depth: Option<u8>,
    /// Partitioner seed (`--seed`).
    pub seed: u64,
}

impl ExpOptions {
    /// Parses the arguments after the experiment id. A malformed or missing
    /// value and an unknown flag are errors: a mistyped paper-scale run must
    /// not silently print the default-scale table. So is a `--depth` some
    /// mesh case cannot be generated at — checked here, for every case,
    /// because an experiment prints its title before its first mesh.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Self {
            depth: None,
            seed: 0x5EED,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--depth" => {
                    let depth = value()?.parse().map_err(|e| format!("--depth: {e}"))?;
                    MeshCase::ALL
                        .iter()
                        .try_for_each(|case| case.check_base_depth(depth))?;
                    o.depth = Some(depth);
                }
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                _ => return Err(format!("unknown option {flag:?}")),
            }
        }
        Ok(o)
    }

    /// Generates `case` at the requested (or default) scale.
    pub fn mesh(&self, case: MeshCase) -> Mesh {
        let base_depth = self.depth.unwrap_or_else(|| case.default_base_depth());
        case.generate(&GeneratorConfig { base_depth })
    }

    /// One full pipeline run at this seed under eager-FIFO scheduling — the
    /// two `PipelineConfig` fields no figure varies.
    fn flusim(
        &self,
        mesh: &Mesh,
        strategy: PartitionStrategy,
        n_domains: usize,
        cluster: ClusterConfig,
    ) -> FlusimOutcome {
        let config = PipelineConfig {
            strategy,
            n_domains,
            cluster,
            scheduling: DynamicListStrategy::EAGER_FIFO,
            seed: self.seed,
        };
        run_flusim(mesh, &config)
    }
}

/// Task graph, block process map and eager-FIFO schedule of a finished
/// partition, untraced.
fn simulate_eager(
    mesh: &Mesh,
    part: &[PartId],
    n_domains: usize,
    cluster: &ClusterConfig,
) -> (TaskGraph, Vec<usize>, SimResult) {
    let fifo = DynamicListStrategy::EAGER_FIFO;
    simulate_decomposition(mesh, part, n_domains, cluster, fifo, Recorder::off())
}

/// Runs one solver iteration serially with per-task timing and returns the
/// task graph re-costed with the measured kernel durations (nanoseconds).
///
/// This is the *measured-cost replay* used by the production-style
/// experiments: real flux/update kernels provide the costs, the simulator
/// provides the cluster.
fn measured_cost_graph(mesh: &Mesh, part: &[PartId], n_domains: usize) -> TaskGraph {
    let mut solver = Solver::new(
        mesh,
        part,
        n_domains,
        SolverConfig::default(),
        blast_initial([0.35, 0.5, 0.5], 0.15),
    );
    // Warm-up iteration (page faults, caches), then the measured one.
    solver.run_iteration_serial();
    let ns = solver.run_iteration_timed();
    solver.graph().with_costs(&ns)
}

/// Mean of a slice.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Prints an experiment's title line.
fn rule(title: &str) {
    println!(
        "\n=== {title} {}\n",
        "=".repeat(64usize.saturating_sub(title.len()))
    );
}

/// Prints the ASCII Gantt chart of `sim` over its whole makespan.
fn gantt(graph: &TaskGraph, sim: &SimResult, n_processes: usize, width: usize) {
    let chart = ascii_gantt(graph, &sim.segments, n_processes, sim.makespan, width);
    println!("{chart}");
}

/// Label helper combining case and strategy.
fn tag(case: MeshCase, strategy: PartitionStrategy) -> String {
    format!("{:<14} {:<7}", case.name(), strategy.label())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn options_default() {
        let o = ExpOptions {
            depth: None,
            seed: 1,
        };
        let m = o.mesh(MeshCase::Cube);
        assert!(m.n_cells() > 1000);
    }

    fn parse(args: &[&str]) -> Result<ExpOptions, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        ExpOptions::parse(&args)
    }

    #[test]
    fn parse_reads_depth_and_seed_in_any_order() {
        let o = parse(&[]).unwrap();
        assert_eq!((o.depth, o.seed), (None, 0x5EED));
        let o = parse(&["--seed", "7", "--depth", "6"]).unwrap();
        assert_eq!((o.depth, o.seed), (Some(6), 7));
    }

    #[test]
    fn parse_rejects_bad_values_missing_values_and_unknown_flags() {
        for (args, want) in [
            (&["--depth", "x"][..], "--depth: invalid digit"),
            (&["--depth", "300"], "--depth: number too large"),
            (&["--seed", "x"], "--seed: invalid digit"),
            (&["--seed", "-1"], "--seed: invalid digit"),
            (&["--depth"], "--depth needs a value"),
            (&["--depth", "4", "--seed"], "--seed needs a value"),
            (&["--depth", "18"], "--depth 18: CYLINDER refines 3 levels"),
            (&["--dpeth", "6"], "unknown option \"--dpeth\""),
            (&["6"], "unknown option \"6\""),
        ] {
            let err = parse(args).expect_err(&format!("{args:?} parsed"));
            assert!(err.starts_with(want), "{args:?}: {err}");
        }
    }

    #[test]
    fn measured_costs_positive() {
        let o = ExpOptions {
            depth: Some(3),
            seed: 1,
        };
        let m = o.mesh(MeshCase::Cylinder);
        let part: Vec<u32> = m
            .cells()
            .iter()
            .map(|c| u32::from(c.centroid[0] > 0.5))
            .collect();
        let g = measured_cost_graph(&m, &part, 2);
        assert!(g.tasks().iter().all(|t| t.cost >= 1));
        assert!(g.total_cost() > 0);
    }
}
