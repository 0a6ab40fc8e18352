//! Decomposition and schedule statistics backing Figures 7 and 10.

use crate::dag::TaskGraph;
use crate::domains::{DomainDecomposition, ObjectClass};
use tempart_mesh::operating_cost;

/// Per-domain, per-temporal-level operating costs (Fig. 7a / 10a): the data
/// behind "operating costs by temporal level among MPI processes".
#[derive(Debug, Clone)]
pub struct DomainLevelCosts {
    /// `costs[d][τ]` = Σ over τ-cells of domain `d` of `2^(τmax−τ)`.
    pub costs: Vec<Vec<u64>>,
}

impl DomainLevelCosts {
    /// Computes the per-domain cost breakdown.
    pub fn measure(dd: &DomainDecomposition) -> Self {
        let nl = dd.n_levels as usize;
        let tau_max = dd.n_levels - 1;
        let mut costs = vec![vec![0u64; nl]; dd.n_domains];
        for d in 0..dd.n_domains as u32 {
            for tau in 0..dd.n_levels {
                let n = dd.cell_count(d, tau, ObjectClass::Internal)
                    + dd.cell_count(d, tau, ObjectClass::External);
                costs[d as usize][tau as usize] =
                    n as u64 * u64::from(operating_cost(tau, tau_max));
            }
        }
        Self { costs }
    }

    /// Aggregates domains onto processes: `process_of[d]` gives the process
    /// of domain `d`.
    pub fn by_process(&self, process_of: &[usize], n_processes: usize) -> Vec<Vec<u64>> {
        assert_eq!(process_of.len(), self.costs.len(), "one process per domain");
        let nl = self.costs.first().map_or(0, Vec::len);
        let mut out = vec![vec![0u64; nl]; n_processes];
        for (d, per_tau) in self.costs.iter().enumerate() {
            let p = process_of[d];
            for (tau, &c) in per_tau.iter().enumerate() {
                out[p][tau] += c;
            }
        }
        out
    }

    /// Total operating cost of each domain.
    pub fn domain_totals(&self) -> Vec<u64> {
        self.costs.iter().map(|v| v.iter().sum()).collect()
    }

    /// Imbalance of the per-domain totals: max / mean (1.0 = perfect).
    pub fn total_imbalance(&self) -> f64 {
        let totals = self.domain_totals();
        let sum: u64 = totals.iter().sum();
        if sum == 0 || totals.is_empty() {
            return 1.0;
        }
        let mean = sum as f64 / totals.len() as f64;
        totals.iter().copied().max().unwrap() as f64 / mean
    }

    /// Per-level imbalance across domains: for level τ, max over domains of
    /// `cost[d][τ]` divided by the mean (1.0 = perfect). This is the quantity
    /// MC_TL optimises and SC_OC ignores.
    pub fn level_imbalances(&self) -> Vec<f64> {
        let nl = self.costs.first().map_or(0, Vec::len);
        let nd = self.costs.len();
        (0..nl)
            .map(|tau| {
                let total: u64 = self.costs.iter().map(|c| c[tau]).sum();
                if total == 0 {
                    return 1.0;
                }
                let mean = total as f64 / nd as f64;
                self.costs.iter().map(|c| c[tau]).max().unwrap() as f64 / mean
            })
            .collect()
    }
}

/// Per-process, per-subiteration injected work (Fig. 7b / 10b): the data
/// behind "cumulative computation time by subiteration among MPI processes".
#[derive(Debug, Clone)]
pub struct SubiterationLoads {
    /// `load[p][s]` = total task cost of process `p` in subiteration `s`.
    pub load: Vec<Vec<u64>>,
}

impl SubiterationLoads {
    /// Computes loads from a task graph and a domain→process map.
    pub fn measure(graph: &TaskGraph, process_of: &[usize], n_processes: usize) -> Self {
        assert_eq!(process_of.len(), graph.n_domains, "one process per domain");
        let ns = graph.n_subiterations as usize;
        let mut load = vec![vec![0u64; ns]; n_processes];
        for t in graph.tasks() {
            load[process_of[t.domain as usize]][t.subiter as usize] += t.cost;
        }
        Self { load }
    }

    /// Worst per-subiteration imbalance: for subiteration `s`, max over
    /// processes divided by mean — the paper's core diagnosis is that SC_OC
    /// keeps the *sum* balanced while individual subiterations are wildly
    /// imbalanced.
    pub fn subiteration_imbalances(&self) -> Vec<f64> {
        if self.load.is_empty() {
            return Vec::new();
        }
        let ns = self.load[0].len();
        let np = self.load.len();
        (0..ns)
            .map(|s| {
                let total: u64 = self.load.iter().map(|l| l[s]).sum();
                if total == 0 {
                    return 1.0;
                }
                let mean = total as f64 / np as f64;
                self.load.iter().map(|l| l[s]).max().unwrap() as f64 / mean
            })
            .collect()
    }
}

/// Maps `n_domains` onto `n_processes` contiguous blocks, the way the paper
/// assigns extraction domains to MPI ranks (e.g. 128 domains → 16 processes
/// of 8 domains each).
pub fn block_process_map(n_domains: usize, n_processes: usize) -> Vec<usize> {
    assert!(n_processes >= 1, "need at least one process");
    let per = n_domains.div_ceil(n_processes);
    (0..n_domains)
        .map(|d| (d / per).min(n_processes - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_taskgraph, TaskGraphConfig};
    use tempart_graph::PartId;
    use tempart_mesh::{Mesh, Octree, OctreeConfig, TemporalScheme};

    fn graded() -> (Mesh, DomainDecomposition) {
        let cfg = OctreeConfig {
            base_depth: 2,
            max_depth: 4,
        };
        let t = Octree::build(&cfg, |c, _, _| {
            let dx = c[0] - 0.3;
            let dy = c[1] - 0.3;
            let dz = c[2] - 0.3;
            (dx * dx + dy * dy + dz * dz).sqrt() < 0.2
        });
        let mut m = Mesh::from_octree(&t);
        TemporalScheme::new(3).assign(&mut m);
        // Hotspot-aligned split: domain 0 gets the refined corner.
        let part: Vec<PartId> = m
            .cells()
            .iter()
            .map(|c| u32::from(c.centroid[0] + c.centroid[1] > 1.1))
            .collect();
        let dd = DomainDecomposition::new(&m, &part, 2);
        (m, dd)
    }

    #[test]
    fn level_costs_sum_to_mesh_work() {
        let (m, dd) = graded();
        let costs = DomainLevelCosts::measure(&dd);
        let tau_max = m.n_tau_levels() - 1;
        let expected: u64 = m
            .tau()
            .iter()
            .map(|&t| u64::from(operating_cost(t, tau_max)))
            .sum();
        let got: u64 = costs.domain_totals().iter().sum();
        assert_eq!(got, expected);
    }

    #[test]
    fn hotspot_split_is_level_imbalanced() {
        // Splitting geometrically concentrates fine levels in one domain:
        // per-level imbalance must exceed total imbalance.
        let (_, dd) = graded();
        let costs = DomainLevelCosts::measure(&dd);
        let lvl = costs.level_imbalances();
        assert!(
            lvl.iter().cloned().fold(0.0f64, f64::max) > 1.3,
            "expected strong per-level imbalance, got {lvl:?}"
        );
    }

    #[test]
    fn subiteration_loads_cover_all_cost() {
        let (m, dd) = graded();
        let g = generate_taskgraph(&m, &dd, &TaskGraphConfig::default());
        let loads = SubiterationLoads::measure(&g, &[0, 1], 2);
        let sum: u64 = loads.load.iter().flatten().sum();
        assert_eq!(sum, g.total_cost());
        assert_eq!(loads.load[0].len(), 4);
    }

    #[test]
    fn block_map_shapes() {
        assert_eq!(block_process_map(8, 2), vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(block_process_map(5, 2), vec![0, 0, 0, 1, 1]);
        assert_eq!(block_process_map(3, 3), vec![0, 1, 2]);
        let m = block_process_map(128, 16);
        assert_eq!(m[0], 0);
        assert_eq!(m[127], 15);
        let counts = m.iter().fold(vec![0usize; 16], |mut a, &p| {
            a[p] += 1;
            a
        });
        assert!(counts.iter().all(|&c| c == 8));
    }
}
