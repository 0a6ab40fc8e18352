//! Property tests for the incremental diffusion repartitioner, plus the
//! golden frontier pin for the paper's graded-CYLINDER drift experiment.
//!
//! The invariants:
//!
//! * **ceiling** — a repartitioning step never pushes any constraint's
//!   maximum part load above `max(previous maximum, allowance)`: normal
//!   moves are gated by the receiver's allowance, downhill/lateral cascade
//!   moves by the sender's pre-move load;
//! * **truthful stop** — over 16-step sequences (where pairs vanish and
//!   the round cap binds), a step's `over_allowance` is exactly the excess
//!   an independent recomputation finds, and a step that stopped at the
//!   round cap reports a non-zero one — never a silent excess;
//! * **migration bound** — over a drift sequence, diffusion moves at most
//!   as much volume as re-partitioning from scratch relabels;
//! * **zero drift ⇒ zero moves** — with velocity and jitter both zero the
//!   per-constraint deadband suppresses every flow;
//! * **warm-vs-fresh** — a warm `WorkspacePool` (second sequence on reused
//!   buffers) is bit-identical to a fresh one;
//! * **worker invariance** — the sequence is bit-identical at fork-join
//!   widths 1 through 4.

use tempart::core_api::{
    default_repart_config, repartition_sequence, strategy_weights, Exec, RepartMode,
    RepartSequenceConfig, RepartSequenceOutcome, WorkspacePool,
};
use tempart::mesh::{cylinder_like, DriftConfig, GeneratorConfig, Mesh};
use tempart::obs::Recorder;
use tempart::partition::RepartStop;
use tempart_testkit::{prop_assert, prop_assert_eq, proptest};

const N_DOMAINS: usize = 16;

fn seq_config(seed: u64, steps: u32, mode: RepartMode) -> RepartSequenceConfig {
    RepartSequenceConfig::graded_cylinder(N_DOMAINS, seed, steps, mode)
}

/// The sequence on `workers` workers over `pool`, untraced.
fn sequence_on(
    mesh: &Mesh,
    cfg: &RepartSequenceConfig,
    workers: usize,
    pool: &WorkspacePool,
) -> RepartSequenceOutcome {
    let exec = Exec::new(workers, pool, Recorder::off());
    repartition_sequence(mesh, cfg, &exec)
}

/// [`sequence_on`] a fresh pool.
fn sequence(mesh: &Mesh, cfg: &RepartSequenceConfig, workers: usize) -> RepartSequenceOutcome {
    sequence_on(mesh, cfg, workers, &WorkspacePool::new(workers))
}

/// Checks every step of a diffusion sequence against the drifted weights,
/// re-derived here by mirroring the sequence's own drift application:
///
/// * per constraint, the imbalance never ends above `max(pre-step
///   imbalance, allowance)`;
/// * `stats.over_allowance` is the worst load above the allowance the
///   step's own imbalance report implies — so zero means every constraint
///   is within its allowance;
/// * a step that reports [`RepartStop::RoundCap`] ran all its rounds and
///   reports a non-zero residual.
fn check_steps(
    mesh: &Mesh,
    cfg: &RepartSequenceConfig,
    out: &RepartSequenceOutcome,
) -> Result<(), String> {
    let mut m = mesh.clone();
    cfg.drift.apply(&mut m, 0);
    for s in &out.steps {
        cfg.drift.apply(&mut m, s.step);
        let (w, ncon) = strategy_weights(&m, cfg.strategy);
        let rcfg = default_repart_config(cfg.n_domains, ncon, None);
        let mut over = 0u64;
        for c in 0..ncon {
            let tot: i64 = w.iter().skip(c).step_by(ncon).map(|&x| i64::from(x)).sum();
            if tot == 0 {
                continue;
            }
            // The allowance in load units, `max(target·ub, 1)`, and in
            // imbalance units (divided by the per-part target).
            let target = tot as f64 / cfg.n_domains as f64;
            let allow = (target * rcfg.base.ub(c)).max(1.0);
            let bound = s.migration.imbalance_before[c].max(allow / target);
            prop_assert!(
                s.migration.imbalance_after[c] <= bound + 1e-9,
                "step {} constraint {c}: imbalance {} above ceiling {bound}",
                s.step,
                s.migration.imbalance_after[c]
            );
            let max_load = (s.migration.imbalance_after[c] * target).round();
            if max_load > allow {
                over = over.max((max_load - allow.floor()) as u64);
            }
        }
        prop_assert_eq!(s.stats.over_allowance, over, "step {} residual", s.step);
        if s.stats.stop == RepartStop::RoundCap {
            prop_assert!(over > 0, "step {}: capped without a residual", s.step);
            prop_assert_eq!(s.stats.rounds as usize, rcfg.realize_rounds);
        }
    }
    Ok(())
}

proptest! {
    #![config(cases = 6, seed = 0x5EED_2026)]

    /// Per-constraint ceiling: a diffusion step never raises a constraint's
    /// imbalance above `max(pre-step imbalance, allowance)` — normal moves
    /// are gated by the receiver's allowance, downhill/lateral cascade
    /// moves by the sender's pre-move load.
    fn repart_respects_balance_ceiling(seed in 0u64..1 << 48, steps in 1u32..4) {
        let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
        let cfg = seq_config(seed, steps, RepartMode::Diffusion { budget: None });
        check_steps(&mesh, &cfg, &sequence(&mesh, &cfg, 2))?;
    }

    /// The same ceiling, and a truthful account of how each step ended,
    /// over sequences long enough for boundary pairs to vanish and the
    /// round cap to bind (it binds on every step of this small mesh).
    fn long_sequences_never_hide_an_excess(seed in 0u64..1 << 48) {
        let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
        let cfg = seq_config(seed, 16, RepartMode::Diffusion { budget: None });
        let out = sequence(&mesh, &cfg, 2);
        check_steps(&mesh, &cfg, &out)?;
        prop_assert!(out.steps.iter().any(|s| s.stats.stop == RepartStop::RoundCap));
    }

    /// Diffusion's total migration never exceeds what from-scratch
    /// re-partitioning relabels over the same drift sequence.
    fn diffusion_migration_below_scratch_relabel_bound(seed in 0u64..1 << 48, steps in 1u32..4) {
        let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
        let diff = sequence(
            &mesh,
            &seq_config(seed, steps, RepartMode::Diffusion { budget: None }),
            2,
        );
        let scratch = sequence(
            &mesh,
            &seq_config(seed, steps, RepartMode::Scratch),
            2,
        );
        prop_assert!(
            diff.total_migration_volume() <= scratch.total_migration_volume(),
            "diffusion moved {} > scratch relabel bound {}",
            diff.total_migration_volume(),
            scratch.total_migration_volume()
        );
    }

    /// The sequence is a pure function of its inputs: widths 1–4 agree
    /// bit for bit, and a warm pool replays identically to a fresh one.
    fn sequence_is_width_and_warmth_invariant(seed in 0u64..1 << 48) {
        let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
        let cfg = seq_config(seed, 2, RepartMode::Diffusion { budget: None });
        let reference = sequence(&mesh, &cfg, 1);
        for workers in 2..=4usize {
            let par = sequence(&mesh, &cfg, workers);
            prop_assert_eq!(&reference.part, &par.part, "w{} diverged", workers);
            prop_assert_eq!(
                reference.total_migration_volume(),
                par.total_migration_volume()
            );
        }
        let pool = WorkspacePool::new(4);
        let fresh = sequence_on(&mesh, &cfg, 4, &pool);
        let warm = sequence_on(&mesh, &cfg, 4, &pool);
        prop_assert_eq!(&fresh.part, &warm.part, "warm pool diverged from fresh");
        prop_assert_eq!(fresh.total_cells_moved(), warm.total_cells_moved());
    }
}

#[test]
fn zero_drift_means_zero_moves() {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
    let mut cfg = seq_config(0xD1FF, 4, RepartMode::Diffusion { budget: None });
    cfg.drift = DriftConfig {
        velocity: [0.0; 3],
        ..cfg.drift
    };
    let out = sequence(&mesh, &cfg, 2);
    // Step 1 may settle residual imbalance (the initial MC_TL split
    // targets a looser ub than the diffusion allowance); with frozen
    // weights every later step must move nothing — a plan may survive for
    // surplus no boundary move can realize, but it must not cause churn.
    for s in &out.steps[1..] {
        assert_eq!(
            s.migration.cells_moved, 0,
            "step {}: moved cells without drift",
            s.step
        );
        assert_eq!(s.migration.volume, 0, "step {}: volume", s.step);
    }
}

/// The golden frontier: the pinned graded-CYLINDER drift experiment the
/// `tempart repart` subcommand reports (depth-4 CYLINDER, 16 domains,
/// 8 steps, seed 0x5F4D). Pins the acceptance claim — diffusion migrates
/// at least 5× less volume than from-scratch MC_TL at an equal-or-better
/// per-level imbalance ceiling — and the exact migration ledger, so any
/// change to the solve, the realization order or the drift generator
/// shows up as a diff here before it reaches the CLI.
#[test]
fn golden_frontier_graded_cylinder() {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let diff = sequence(
        &mesh,
        &RepartSequenceConfig::graded_cylinder(
            16,
            0x5F4D,
            8,
            RepartMode::Diffusion { budget: None },
        ),
        4,
    );
    let scratch = sequence(
        &mesh,
        &RepartSequenceConfig::graded_cylinder(16, 0x5F4D, 8, RepartMode::Scratch),
        4,
    );

    // The acceptance frontier.
    assert!(
        diff.total_migration_volume() * 5 <= scratch.total_migration_volume(),
        "diffusion {} vs scratch {}: less than 5x",
        diff.total_migration_volume(),
        scratch.total_migration_volume()
    );
    assert!(
        diff.imbalance_ceiling() <= scratch.imbalance_ceiling() + 1e-12,
        "diffusion ceiling {} worse than scratch {}",
        diff.imbalance_ceiling(),
        scratch.imbalance_ceiling()
    );

    // The pinned ledger (update deliberately when the algorithm changes).
    assert_eq!(diff.total_migration_volume(), 638);
    assert_eq!(diff.total_cells_moved(), 638);
    assert_eq!(scratch.total_migration_volume(), 50304);
    assert!((diff.imbalance_ceiling() - 1.08).abs() < 5e-3);
    assert!((scratch.imbalance_ceiling() - 1.092).abs() < 5e-3);
}

/// The long sequence: 16 drift steps on the same depth-4 CYLINDER, past the
/// steps where boundary pairs vanish and the round cap binds (steps 10, 11,
/// 15 and 16). Part-vector FNV-1a, total volume and per-step round counts
/// were computed on the commit *before* the boundary lists were patched
/// across rounds (`d95c930`, whole-graph rebuild every round) — the patch
/// must reproduce them bit for bit.
#[test]
fn golden_long_sequence_graded_cylinder() {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    let cfg = seq_config(0x5F4D, 16, RepartMode::Diffusion { budget: None });
    let out = sequence(&mesh, &cfg, 2);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in out.part.iter().flat_map(|&p| u64::from(p).to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    assert_eq!(h, 0xf7cf_2e7a_4ab9_a724, "part vector {h:#018x}");
    assert_eq!(out.total_migration_volume(), 1343);
    let rounds: Vec<u32> = out.steps.iter().map(|s| s.stats.rounds).collect();
    assert_eq!(
        rounds,
        [1, 2, 1, 3, 3, 2, 4, 10, 5, 32, 32, 4, 4, 4, 32, 32]
    );
    // How the 32-round steps ended is new information, not a pin from the
    // parent: they are the degraded ones, and only they.
    for s in &out.steps {
        assert_eq!(
            s.stats.stop == RepartStop::RoundCap,
            s.stats.rounds == 32,
            "step {}: {:?}",
            s.step,
            s.stats
        );
    }
    check_steps(&mesh, &cfg, &out).unwrap();
}
