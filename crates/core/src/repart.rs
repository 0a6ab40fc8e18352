//! Drift → repartition sequences: the long-running service loop in
//! miniature.
//!
//! A transient run does not partition once — it partitions, advances the
//! flow until the temporal levels have drifted, and then must choose
//! between *repartitioning from scratch* (best quality, but the whole mesh
//! may migrate) and *incremental diffusion repartitioning*
//! ([`tempart_partition::repart`]: small migration, quality bounded by the
//! allowance it diffuses toward). [`repartition_sequence`] replays that
//! loop deterministically: N steps of a seeded [`DriftConfig`], one
//! repartitioning decision per step, a [`MigrationStats`] ledger and a
//! [`PartitionQuality`] report per step — the raw data of the
//! quality-vs-migration frontier the `tempart repart` subcommand prints.
//!
//! Warm-state policy: one [`WorkspacePool`] (and, for the SFC scratch
//! strategy, one `SfcWorkspace`) serves every step — workspaces carry
//! capacity, never state, so the sequence is bit-identical to running each
//! step with fresh scratch, at a fraction of the allocation traffic.

use crate::exec::Exec;
use crate::strategy::{decompose_with, strategy_weights, PartitionStrategy};
use tempart_graph::{MigrationStats, PartId, PartitionQuality};
use tempart_mesh::{DriftConfig, Mesh};
use tempart_partition::{
    repartition_ws, sfc_partition_with, RepartConfig, RepartStats, RepartStop, SfcWorkspace,
};

/// How each drift step restores balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepartMode {
    /// Incremental diffusion repartitioning
    /// ([`tempart_partition::repartition_ws`]) with an optional migration
    /// budget in migration-volume units.
    Diffusion {
        /// Migration budget per step (`None` = unbounded).
        budget: Option<u64>,
    },
    /// Re-partition from scratch with the sequence's strategy — the
    /// quality anchor the frontier compares diffusion against.
    Scratch,
}

/// One drifting repartitioning experiment.
#[derive(Debug, Clone)]
pub struct RepartSequenceConfig {
    /// Weighting strategy (MC_TL for the paper's frontier).
    pub strategy: PartitionStrategy,
    /// Number of domains.
    pub n_domains: usize,
    /// Partitioner seed (shared by the initial split and every scratch
    /// re-split, so scratch steps differ only through the drifted weights).
    pub seed: u64,
    /// Drift steps to run after the initial partition.
    pub steps: u32,
    /// The temporal-level drift applied before every step.
    pub drift: DriftConfig,
    /// Per-step rebalancing policy.
    pub mode: RepartMode,
    /// Per-cell migration payload (bytes), priced like
    /// `TaskGraphConfig::face_payload_bytes`.
    pub payload_bytes: u64,
}

impl RepartSequenceConfig {
    /// The pinned graded-CYLINDER experiment: MC_TL weights, the
    /// [`DriftConfig::graded_cylinder`] drift, 40-byte cell payloads.
    pub fn graded_cylinder(n_domains: usize, seed: u64, steps: u32, mode: RepartMode) -> Self {
        Self {
            strategy: PartitionStrategy::McTl,
            n_domains,
            seed,
            steps,
            drift: DriftConfig::graded_cylinder(),
            mode,
            payload_bytes: 40,
        }
    }
}

/// One step of a sequence: the drift happened, the mode rebalanced, and
/// this is what it cost and bought.
#[derive(Debug, Clone)]
pub struct RepartStep {
    /// Step number (1-based; step 0 is the initial partition).
    pub step: u32,
    /// Migration ledger of this step's rebalancing.
    pub migration: MigrationStats,
    /// Quality of the partition after this step, under the drifted weights.
    pub quality: PartitionQuality,
    /// The diffusion repartitioner's own stats (zeros in scratch mode).
    pub stats: RepartStats,
}

/// Everything a drift sequence produced.
#[derive(Debug, Clone)]
pub struct RepartSequenceOutcome {
    /// Quality of the initial (step-0) partition.
    pub initial_quality: PartitionQuality,
    /// Per-step ledgers, steps `1..=steps`.
    pub steps: Vec<RepartStep>,
    /// Final per-cell domain assignment.
    pub part: Vec<PartId>,
}

impl RepartSequenceOutcome {
    /// Total migration volume over all steps.
    pub fn total_migration_volume(&self) -> i64 {
        self.steps.iter().map(|s| s.migration.volume).sum()
    }

    /// Total migration traffic in bytes over all steps.
    pub fn total_migration_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.migration.bytes).sum()
    }

    /// Total number of cell moves over all steps.
    pub fn total_cells_moved(&self) -> usize {
        self.steps.iter().map(|s| s.migration.cells_moved).sum()
    }

    /// Worst per-constraint imbalance any step (including step 0) left
    /// behind — the per-level imbalance ceiling of the whole sequence.
    pub fn imbalance_ceiling(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| s.quality.max_imbalance())
            .fold(self.initial_quality.max_imbalance(), f64::max)
    }

    /// Edge cut after the final step.
    pub fn final_edge_cut(&self) -> i64 {
        self.steps
            .last()
            .map_or(self.initial_quality.edge_cut, |s| s.quality.edge_cut)
    }
}

/// The [`RepartConfig`] a sequence step uses. The diffusion deadband parks
/// each constraint just below its allowance, so the slack is set slightly
/// *tighter* than the from-scratch pipeline's (1.10 multi-constraint, 1.05
/// single): an incremental refresh must end at-or-below the ceiling a scratch
/// run would observe, not merely at the same target.
pub fn default_repart_config(n_domains: usize, ncon: usize, budget: Option<u64>) -> RepartConfig {
    let ub = if ncon > 1 { 1.08 } else { 1.04 };
    let mut cfg = RepartConfig::new(n_domains).with_ub(ub);
    cfg.migration_budget = budget;
    cfg
}

/// Runs a drift → repartition sequence: applies `cfg.drift` at step 0,
/// partitions from scratch with `cfg.strategy`, then for each step
/// `1..=cfg.steps` drifts the temporal levels and rebalances per
/// `cfg.mode`, measuring migration and quality against the drifted
/// weights. Emits a `core.repart.seq` span around the sequence, one
/// `core.repart.step` span per step, and per-step
/// `core.repart.{moved,volume}` counters, a `core.repart.cap_hit` counter
/// (the residual over the allowance) for every diffusion step that stopped
/// at the round cap, plus the partitioner's own `part.repart.*` events in
/// diffusion mode.
///
/// Deterministic and worker-count invariant: the from-scratch partitions
/// run the bit-identical parallel path ([`decompose_with`]) on
/// `exec.workers` workers, the diffusion steps run [`repartition_ws`] (one
/// pinned schedule at every width) on a workspace from `exec.pool`, which
/// serves every step.
///
/// # Panics
///
/// Panics if `exec.workers == 0` or `cfg.n_domains == 0`.
pub fn repartition_sequence(
    mesh: &Mesh,
    cfg: &RepartSequenceConfig,
    exec: &Exec,
) -> RepartSequenceOutcome {
    let Exec { workers, pool, rec } = *exec;
    assert!(workers >= 1, "need at least one worker");
    assert!(cfg.n_domains >= 1, "need at least one domain");
    let _span = rec.span("core.repart.seq", 0, u64::from(cfg.steps));
    let mut mesh = mesh.clone();
    cfg.drift.apply(&mut mesh, 0);
    let mut part = decompose_with(&mesh, cfg.strategy, cfg.n_domains, cfg.seed, exec);
    // Drift moves weights, never topology: build the cell graph once.
    let graph = mesh.to_graph();
    let (w0, ncon) = strategy_weights(&mesh, cfg.strategy);
    let initial_quality =
        PartitionQuality::measure(&graph.with_vertex_weights(w0, ncon), &part, cfg.n_domains);
    // Warm SFC scratch state for the geometric strategy (centroids are
    // drift-invariant too).
    let mut sfc: Option<(Vec<[f64; 3]>, SfcWorkspace)> = None;
    if let (RepartMode::Scratch, PartitionStrategy::SfcOc { .. }) = (cfg.mode, cfg.strategy) {
        let centroids: Vec<[f64; 3]> = mesh.cells().iter().map(|c| c.centroid).collect();
        let mut sfc_ws = SfcWorkspace::new();
        sfc_ws.obs = rec.clone();
        sfc = Some((centroids, sfc_ws));
    }

    let mut steps = Vec::with_capacity(cfg.steps as usize);
    for step in 1..=cfg.steps {
        let _step_span = rec.span("core.repart.step", 0, u64::from(step));
        cfg.drift.apply(&mut mesh, step);
        let (w, ncon) = strategy_weights(&mesh, cfg.strategy);
        let g = graph.with_vertex_weights(w, ncon);
        let old = part.clone();
        let stats = match cfg.mode {
            RepartMode::Diffusion { budget } => {
                let rcfg = default_repart_config(cfg.n_domains, ncon, budget);
                let mut ws = pool.checkout(0);
                ws.obs = rec.clone();
                let stats = repartition_ws(&g, &mut part, &rcfg, &mut ws);
                pool.give_back(0, ws);
                stats
            }
            RepartMode::Scratch => {
                part = match (&mut sfc, cfg.strategy) {
                    (Some((centroids, sfc_ws)), PartitionStrategy::SfcOc { curve }) => {
                        let weights: Vec<u64> = mesh
                            .tau()
                            .iter()
                            .map(|&t| {
                                u64::from(tempart_mesh::operating_cost(t, mesh.n_tau_levels() - 1))
                            })
                            .collect();
                        sfc_partition_with(
                            centroids,
                            &weights,
                            cfg.n_domains,
                            curve,
                            workers,
                            sfc_ws,
                        )
                    }
                    _ => decompose_with(&mesh, cfg.strategy, cfg.n_domains, cfg.seed, exec),
                };
                RepartStats::default()
            }
        };
        let migration = MigrationStats::measure(&g, &old, &part, cfg.n_domains, cfg.payload_bytes);
        let quality = PartitionQuality::measure(&g, &part, cfg.n_domains);
        if rec.enabled() {
            rec.counter("core.repart.moved", 0, migration.cells_moved as u64);
            rec.counter("core.repart.volume", 0, migration.volume.max(0) as u64);
            if stats.stop == RepartStop::RoundCap {
                rec.counter("core.repart.cap_hit", 0, stats.over_allowance);
            }
        }
        steps.push(RepartStep {
            step,
            migration,
            quality,
            stats,
        });
    }
    RepartSequenceOutcome {
        initial_quality,
        steps,
        part,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_mesh::{cylinder_like, GeneratorConfig};
    use tempart_obs::Recorder;
    use tempart_partition::WorkspacePool;

    /// The sequence on `workers` workers with a fresh pool, untraced.
    fn run(mesh: &Mesh, cfg: &RepartSequenceConfig, workers: usize) -> RepartSequenceOutcome {
        let pool = WorkspacePool::new(workers);
        repartition_sequence(mesh, cfg, &Exec::new(workers, &pool, Recorder::off()))
    }

    fn small_cfg(mode: RepartMode) -> RepartSequenceConfig {
        RepartSequenceConfig::graded_cylinder(8, 0xC0FFEE, 4, mode)
    }

    #[test]
    fn diffusion_moves_less_than_scratch() {
        let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
        let diff = run(&mesh, &small_cfg(RepartMode::Diffusion { budget: None }), 1);
        let scratch = run(&mesh, &small_cfg(RepartMode::Scratch), 1);
        assert!(
            diff.total_migration_volume() < scratch.total_migration_volume(),
            "diffusion {} !< scratch {}",
            diff.total_migration_volume(),
            scratch.total_migration_volume()
        );
        assert_eq!(diff.steps.len(), 4);
        assert_eq!(
            diff.total_migration_bytes(),
            diff.total_cells_moved() as u64 * 40
        );
    }

    #[test]
    fn sequence_is_worker_count_invariant() {
        let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
        let cfg = small_cfg(RepartMode::Diffusion { budget: Some(500) });
        let base = run(&mesh, &cfg, 1);
        for workers in [2usize, 4] {
            let par = run(&mesh, &cfg, workers);
            assert_eq!(base.part, par.part, "workers={workers}");
            assert_eq!(
                base.total_migration_volume(),
                par.total_migration_volume(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn traced_sequence_emits_step_spans() {
        let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
        let rec = Recorder::new(1 << 14);
        let pool = WorkspacePool::new(1);
        let cfg = small_cfg(RepartMode::Diffusion { budget: None });
        let exec = Exec::new(1, &pool, &rec);
        let out = repartition_sequence(&mesh, &cfg, &exec);
        let trace = rec.take();
        assert_eq!(trace.dropped, 0);
        // Begin + end event per span.
        let step_events = trace
            .events
            .iter()
            .filter(|e| e.name == "core.repart.step")
            .count();
        assert_eq!(step_events, 2 * 4);
        assert_eq!(
            trace.counter_total("core.repart.moved"),
            out.total_cells_moved() as u64
        );
    }

    #[test]
    fn traced_sequence_records_the_same_repart_events_at_every_width() {
        let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
        let cfg = small_cfg(RepartMode::Diffusion { budget: None });
        let repart_events = |workers: usize| {
            let rec = Recorder::new(1 << 14);
            let pool = WorkspacePool::new(workers);
            repartition_sequence(&mesh, &cfg, &Exec::new(workers, &pool, &rec));
            let trace = rec.take();
            assert_eq!(trace.dropped, 0);
            let mut counts = std::collections::BTreeMap::new();
            for e in trace
                .events
                .iter()
                .filter(|e| e.name.starts_with("part.repart"))
            {
                *counts.entry(e.name).or_insert(0u32) += 1;
            }
            counts
        };
        let base = repart_events(1);
        // Begin + end of one `part.repart` span per step.
        assert_eq!(base.get("part.repart"), Some(&(2 * 4)));
        assert_eq!(base.get("part.repart.moves"), Some(&4));
        assert_eq!(repart_events(2), base);
    }
}
