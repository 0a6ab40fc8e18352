//! Golden portfolio-leaderboard test: the full ranked leaderboard of a
//! portfolio race on the graded CYLINDER — every combo's rank, makespan,
//! idle fraction and per-process inactivity bits — is pinned by the
//! leaderboard's FNV-1a fingerprint, for both partitioning strategies.
//!
//! The leaderboard is a pure function of `(mesh, PipelineConfig, lattice)`:
//! partitioning, task-graph generation, all 24 discrete-event schedules and
//! the `(makespan, combo)` ranking are seeded-deterministic and worker-count
//! invariant, so the digests below hold forever — unless a scheduler
//! criterion, the ranking, or a statistic's formula changes, which is
//! exactly what this test is meant to catch. Re-derive a constant with the
//! printed value and justify the change in the commit if a legitimate
//! semantics change ever breaks it.

use tempart::core_api::{
    run_portfolio, Exec, PartitionStrategy, PipelineConfig, PortfolioOutcome, WorkspacePool,
};
use tempart::flusim::{simulate, ClusterConfig, DynamicListStrategy, Strategy};
use tempart::mesh::{cylinder_like, GeneratorConfig, Mesh};
use tempart::obs::Recorder;

/// The free-communication race on `workers` workers, fresh scratch memory.
fn race_on(mesh: &Mesh, cfg: &PipelineConfig, workers: usize) -> PortfolioOutcome {
    let pool = WorkspacePool::new(workers);
    run_portfolio(mesh, cfg, None, &Exec::new(workers, &pool, Recorder::off()))
        .expect("free communication is always valid")
}

fn cylinder_portfolio(strategy: PartitionStrategy) -> (PortfolioOutcome, PipelineConfig) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
    let cfg = PipelineConfig {
        strategy,
        n_domains: 16,
        cluster: ClusterConfig::new(4, 2),
        scheduling: Strategy::EagerFifo, // ignored: the race covers the lattice
        seed: 42,
    };
    (race_on(&mesh, &cfg, 2), cfg)
}

/// FNV-1a of the ranked leaderboard for the graded CYLINDER (base depth 3),
/// MC_TL, 16 domains, 4×2 cluster, seed 42.
const GOLDEN_MCTL: u64 = 0x8C2E_5975_F5A5_2A23;

/// Same mesh and cluster under the SC_OC baseline partitioning.
const GOLDEN_SCOC: u64 = 0xF943_1F96_5DB1_0F08;

#[test]
fn mctl_leaderboard_matches_pinned_fingerprint() {
    let (out, cfg) = cylinder_portfolio(PartitionStrategy::McTl);
    let board = &out.leaderboard;
    assert_eq!(board.entries.len(), 24);
    let fp = board.fingerprint();
    assert_eq!(
        fp, GOLDEN_MCTL,
        "MC_TL leaderboard diverged from the pinned ranking \
         (got 0x{fp:016X}; if the change is deliberate, re-pin and justify)"
    );

    // The race includes EagerFifo's lattice image, so the best combo can
    // never lose to the legacy default — pinned here against an independent
    // legacy simulation, not the leaderboard's own entry.
    let legacy = simulate(
        &out.graph,
        &cfg.cluster,
        &out.process_of,
        Strategy::EagerFifo,
    );
    assert!(
        board.winner().makespan <= legacy.makespan,
        "portfolio winner ({}) lost to EagerFifo ({})",
        board.winner().makespan,
        legacy.makespan
    );
    let fifo = board
        .entry(&DynamicListStrategy::from(Strategy::EagerFifo))
        .expect("EagerFifo's image is always raced");
    assert_eq!(fifo.makespan, legacy.makespan);
}

#[test]
fn scoc_leaderboard_matches_pinned_fingerprint() {
    let (out, _) = cylinder_portfolio(PartitionStrategy::ScOc);
    let board = &out.leaderboard;
    assert_eq!(board.entries.len(), 24);
    let fp = board.fingerprint();
    assert_eq!(
        fp, GOLDEN_SCOC,
        "SC_OC leaderboard diverged from the pinned ranking \
         (got 0x{fp:016X}; if the change is deliberate, re-pin and justify)"
    );
}

#[test]
fn leaderboard_fingerprint_is_stable_across_worker_counts() {
    let (w2, _) = cylinder_portfolio(PartitionStrategy::McTl);
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
    let cfg = PipelineConfig {
        strategy: PartitionStrategy::McTl,
        n_domains: 16,
        cluster: ClusterConfig::new(4, 2),
        scheduling: Strategy::EagerFifo,
        seed: 42,
    };
    for workers in [1usize, 4] {
        let out = race_on(&mesh, &cfg, workers);
        assert_eq!(out.leaderboard, w2.leaderboard, "workers={workers}");
    }
}
