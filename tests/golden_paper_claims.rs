//! Golden paper-claim test (the headline result of the source paper):
//! on a graded CYLINDER-like mesh with ≥ 3 temporal levels split into 16
//! domains,
//!
//! 1. MC_TL's **worst per-temporal-level imbalance** is strictly lower than
//!    SC_OC's (Fig. 7/10: the multi-constraint partitioner balances every
//!    subiteration, the operating-cost baseline only the iteration total);
//! 2. MC_TL's **FLUSIM makespan** does not exceed SC_OC's (Fig. 9/12: the
//!    per-level balance converts into idealized-execution speedup).
//!
//! This is the inequality form of what `ci.sh experiments` diffs byte for
//! byte against `results/fig07_10.txt` and `results/fig09.txt`: it survives
//! a deliberate re-pin of those files and runs in tier-1 without a release
//! build, which is why both forms are kept.

use tempart::core_api::{
    decompose, run_flusim, strategy_weights, PartitionStrategy, PipelineConfig,
};
use tempart::flusim::{ClusterConfig, Strategy};
use tempart::graph::max_imbalance;
use tempart::mesh::{cylinder_like, GeneratorConfig};

const N_DOMAINS: usize = 16;
const SEED: u64 = 0x90_1DE2; // "golden"

#[test]
fn mc_tl_beats_sc_oc_on_per_level_balance_and_makespan() {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    assert!(
        mesh.n_tau_levels() >= 3,
        "graded mesh must have >= 3 temporal levels, got {}",
        mesh.n_tau_levels()
    );

    // --- Claim 1: worst per-level imbalance, measured on the one-hot
    // temporal-level weighting (the MC_TL criterion) for both partitions.
    let sc_part = decompose(&mesh, PartitionStrategy::ScOc, N_DOMAINS, SEED);
    let mc_part = decompose(&mesh, PartitionStrategy::McTl, N_DOMAINS, SEED);
    let (w_tl, ncon) = strategy_weights(&mesh, PartitionStrategy::McTl);
    let g_tl = mesh.to_graph().with_vertex_weights(w_tl, ncon);
    let sc_level_imb = max_imbalance(&g_tl, &sc_part, N_DOMAINS);
    let mc_level_imb = max_imbalance(&g_tl, &mc_part, N_DOMAINS);
    assert!(
        mc_level_imb < sc_level_imb,
        "MC_TL worst per-level imbalance ({mc_level_imb:.3}) must be strictly \
         lower than SC_OC's ({sc_level_imb:.3})"
    );
    // MC_TL should moreover stay within its configured tolerance
    // neighbourhood, not merely "less bad".
    assert!(
        mc_level_imb < 1.5,
        "MC_TL per-level imbalance should be modest, got {mc_level_imb:.3}"
    );

    // --- Claim 2: FLUSIM makespan on an emulated cluster.
    let mk = |strategy| {
        run_flusim(
            &mesh,
            &PipelineConfig {
                strategy,
                n_domains: N_DOMAINS,
                cluster: ClusterConfig::new(4, 4),
                scheduling: Strategy::EagerFifo,
                seed: SEED,
            },
        )
    };
    let sc = mk(PartitionStrategy::ScOc);
    let mc = mk(PartitionStrategy::McTl);
    assert_eq!(
        sc.graph.total_cost(),
        mc.graph.total_cost(),
        "both strategies process identical work"
    );
    assert!(
        mc.makespan() <= sc.makespan(),
        "MC_TL makespan ({}) must not exceed SC_OC makespan ({})",
        mc.makespan(),
        sc.makespan()
    );
}

#[test]
fn sc_oc_still_wins_its_own_criterion() {
    // Sanity counterweight: SC_OC must remain the better *operating-cost*
    // balancer — if MC_TL beat it on both criteria the baseline comparison
    // above would be vacuous (something would be wrong with SC_OC).
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let sc_part = decompose(&mesh, PartitionStrategy::ScOc, N_DOMAINS, SEED);
    let (w_oc, _) = strategy_weights(&mesh, PartitionStrategy::ScOc);
    let g_oc = mesh.to_graph().with_vertex_weights(w_oc, 1);
    let sc_oc_imb = max_imbalance(&g_oc, &sc_part, N_DOMAINS);
    assert!(
        sc_oc_imb < 1.12,
        "SC_OC must balance operating cost within its tolerance, got {sc_oc_imb:.3}"
    );
}
