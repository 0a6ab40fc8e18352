//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary accepts `--depth N` (octree base depth; default taken from
//! the mesh case, +1 octave ≈ ×8 cells) and `--seed N`, so the experiments
//! can be scaled from seconds-long smoke runs to paper-scale meshes.

use tempart_core::PartitionStrategy;
use tempart_graph::PartId;
use tempart_mesh::{GeneratorConfig, Mesh, MeshCase};
use tempart_solver::{blast_initial, Solver, SolverConfig};
use tempart_taskgraph::TaskGraph;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Octree base depth override (`--depth`).
    pub depth: Option<u8>,
    /// Partitioner seed (`--seed`).
    pub seed: u64,
}

impl ExpOptions {
    /// Parses the arguments after the program name. A malformed or missing
    /// value and an unknown flag are errors: a mistyped paper-scale run must
    /// not silently print the default-scale table.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Self {
            depth: None,
            seed: 0x5EED,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--depth" => o.depth = Some(value()?.parse().map_err(|e| format!("--depth: {e}"))?),
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                _ => return Err(format!("unknown option {flag:?}")),
            }
        }
        Ok(o)
    }

    /// [`Self::parse`] of `std::env::args`; on a bad command line prints
    /// `error: …` to stderr and exits with code 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e} (options: --depth N, --seed N)");
            std::process::exit(2)
        })
    }

    /// Generates `case` at the requested (or default) scale.
    pub fn mesh(&self, case: MeshCase) -> Mesh {
        let base_depth = self.depth.unwrap_or_else(|| case.default_base_depth());
        case.generate(&GeneratorConfig { base_depth })
    }
}

/// Runs one solver iteration serially with per-task timing and returns the
/// task graph re-costed with the measured kernel durations (nanoseconds).
///
/// This is the *measured-cost replay* used by the production-style
/// experiments: real flux/update kernels provide the costs, the simulator
/// provides the cluster.
pub fn measured_cost_graph(mesh: &Mesh, part: &[PartId], n_domains: usize) -> TaskGraph {
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
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Pretty line for experiment outputs.
pub fn rule(title: &str) -> String {
    format!(
        "\n=== {title} {}\n",
        "=".repeat(64usize.saturating_sub(title.len()))
    )
}

/// Label helper combining case and strategy.
pub fn tag(case: MeshCase, strategy: PartitionStrategy) -> String {
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
