//! Worker-matrix determinism suite: the fork-join pipeline is a pure
//! function of `(mesh, config)` — the worker count changes the schedule,
//! never the answer.
//!
//! Two layers of defence:
//!
//! * [`parallel_pipeline_is_bit_identical_across_widths`] cross-checks
//!   `decompose_with` / `run_flusim_with` against the sequential entry
//!   points at widths 1, 2 and 4 **inside one process** — every strategy ×
//!   mesh combination, part vectors and Gantt segments compared bit for bit;
//! * [`emit_fingerprints_for_worker_matrix`] distils each combination into
//!   FNV-1a digests and writes them to
//!   `results/fingerprints_w<TEMPART_WORKERS>.txt`. `ci.sh worker-matrix`
//!   runs this test under `TEMPART_WORKERS=1` and `=4` in **separate
//!   processes** and diffs the two files — catching any environment- or
//!   thread-count-dependent state a single-process test could mask. The
//!   file *content* never mentions the worker count, so matching runs
//!   produce byte-identical files.

use std::fmt::Write as _;
use tempart::core_api::{
    decompose, decompose_with, default_repart_config, env_workers, repartition_sequence,
    run_flusim, run_flusim_with, run_portfolio, strategy_weights, Exec, PartitionStrategy,
    PipelineConfig, RepartMode, RepartSequenceConfig, WorkspacePool,
};
use tempart::flusim::{parse_preset, ClusterConfig, Segment, Strategy, TransferSegment};
use tempart::mesh::{cube_like, cylinder_like, GeneratorConfig, Mesh};
use tempart::obs::Recorder;
use tempart::partition::{
    diffusion_plan, sfc_partition_with, Curve, SfcWorkspace, SFC_RADIX_CUTOFF,
};

const SEED: u64 = 0x3A7_2026;
const N_DOMAINS: usize = 16;

fn meshes() -> Vec<(&'static str, Mesh)> {
    vec![
        (
            "cylinder3",
            cylinder_like(&GeneratorConfig { base_depth: 3 }),
        ),
        ("cube4", cube_like(&GeneratorConfig { base_depth: 4 })),
    ]
}

fn strategies() -> [PartitionStrategy; 4] {
    [
        PartitionStrategy::ScOc,
        PartitionStrategy::McTl,
        PartitionStrategy::Uniform,
        PartitionStrategy::DualPhase {
            domains_per_process: 4,
        },
    ]
}

fn config(strategy: PartitionStrategy) -> PipelineConfig {
    PipelineConfig {
        strategy,
        n_domains: N_DOMAINS,
        cluster: ClusterConfig::new(4, 4),
        scheduling: Strategy::EagerFifo,
        seed: SEED,
    }
}

fn fnv1a(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a over the part vector in cell order.
fn part_fingerprint(part: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in part {
        fnv1a(&mut h, u64::from(p));
    }
    h
}

/// FNV-1a over each segment's `(task, process, start, end)` in emission
/// order (same digest as `tests/determinism.rs`).
fn segments_fingerprint(segments: &[Segment]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in segments {
        for word in [u64::from(s.task), u64::from(s.process), s.start, s.end] {
            fnv1a(&mut h, word);
        }
    }
    h
}

/// FNV-1a over each transfer's
/// `(task, src, dst, channel, start, end, bytes)` in emission order.
fn transfers_fingerprint(transfers: &[TransferSegment]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in transfers {
        for word in [
            u64::from(x.task),
            u64::from(x.src),
            u64::from(x.dst),
            u64::from(x.channel),
            x.start,
            x.end,
            x.bytes,
        ] {
            fnv1a(&mut h, word);
        }
    }
    h
}

#[test]
fn parallel_pipeline_is_bit_identical_across_widths() {
    for (name, mesh) in &meshes() {
        for strategy in strategies() {
            let cfg = config(strategy);
            let seq_part = decompose(mesh, strategy, N_DOMAINS, SEED);
            let seq = run_flusim(mesh, &cfg);
            assert_eq!(seq.part, seq_part, "{name}/{strategy:?}: pipeline part");
            for workers in [1usize, 2, 4] {
                let pool = WorkspacePool::new(workers);
                let exec = Exec::new(workers, &pool, Recorder::off());
                let par_part = decompose_with(mesh, strategy, N_DOMAINS, SEED, &exec);
                assert_eq!(
                    seq_part, par_part,
                    "{name}/{strategy:?} w{workers}: part vector diverged"
                );
                let par = run_flusim_with(mesh, &cfg, None, &exec).unwrap();
                assert_eq!(seq.part, par.part, "{name}/{strategy:?} w{workers}: part");
                assert_eq!(
                    seq.quality, par.quality,
                    "{name}/{strategy:?} w{workers}: quality"
                );
                assert_eq!(
                    seq.sim.segments, par.sim.segments,
                    "{name}/{strategy:?} w{workers}: Gantt segments diverged"
                );
                assert_eq!(seq.interprocess_cut, par.interprocess_cut);
            }
        }
    }
}

/// Writes `results/fingerprints_w<N>.txt` for the current `TEMPART_WORKERS`
/// (default 1). One line per mesh × strategy:
/// `<mesh>/<label> part=<hex> gantt=<hex> makespan=<n>`, then per mesh one
/// portfolio line `<mesh>/portfolio board=<hex> winner=<combo> makespan=<n>`
/// covering the full 24-combo leaderboard of an MC_TL race, two
/// network-mode lines `<mesh>/net-{uniform,twolevel} gantt=<hex>
/// xfers=<hex> makespan=<n>` pinning the priced Gantt + transfer ledger,
/// and a comm-bound race line `<mesh>/net-portfolio`.
#[test]
fn emit_fingerprints_for_worker_matrix() {
    let workers = env_workers();
    let pool = WorkspacePool::new(workers);
    let exec = Exec::new(workers, &pool, Recorder::off());
    let mut out =
        String::from("# tempart worker-matrix fingerprints: identical for every TEMPART_WORKERS\n");
    for (name, mesh) in &meshes() {
        for strategy in strategies() {
            let outcome = run_flusim_with(mesh, &config(strategy), None, &exec).unwrap();
            writeln!(
                out,
                "{name}/{} part={:016x} gantt={:016x} makespan={}",
                strategy.label(),
                part_fingerprint(&outcome.part),
                segments_fingerprint(&outcome.sim.segments),
                outcome.makespan(),
            )
            .unwrap();
        }
        // The portfolio race fans the lattice over the same fork-join pool;
        // its ranked leaderboard digest must be invariant too.
        let portfolio = run_portfolio(mesh, &config(PartitionStrategy::McTl), None, &exec).unwrap();
        writeln!(
            out,
            "{name}/portfolio board={:016x} winner={} makespan={}",
            portfolio.leaderboard.fingerprint(),
            portfolio.leaderboard.winner().combo,
            portfolio.leaderboard.winner().makespan,
        )
        .unwrap();
        // Network-mode rows: the priced simulation (Gantt + transfer
        // ledger) and the comm-bound race must be just as worker-count
        // invariant as the free ones.
        for (preset_name, preset) in [
            ("net-uniform", "uniform:200:2:2"),
            ("net-twolevel", "two-level"),
        ] {
            let model = parse_preset(preset).expect("valid preset");
            let outcome =
                run_flusim_with(mesh, &config(PartitionStrategy::McTl), Some(&model), &exec)
                    .expect("preset prices the graph");
            writeln!(
                out,
                "{name}/{preset_name} gantt={:016x} xfers={:016x} makespan={}",
                segments_fingerprint(&outcome.sim.segments),
                transfers_fingerprint(&outcome.sim.transfers),
                outcome.makespan(),
            )
            .unwrap();
        }
        let net_portfolio = run_portfolio(
            mesh,
            &config(PartitionStrategy::McTl),
            Some(&parse_preset("uniform:200:2:2").expect("valid preset")),
            &exec,
        )
        .expect("preset prices the graph");
        writeln!(
            out,
            "{name}/net-portfolio board={:016x} winner={} makespan={}",
            net_portfolio.leaderboard.fingerprint(),
            net_portfolio.leaderboard.winner().combo,
            net_portfolio.leaderboard.winner().makespan,
        )
        .unwrap();
    }
    // Geometric SFC path on a mesh above `SFC_RADIX_CUTOFF`, so the
    // parallel radix sort engages (not the small-n comparison sort). The
    // digest lines name only the curve — never the worker count — so a
    // schedule-dependent divergence shows up as a file diff in ci.sh.
    let sfc_mesh = cylinder_like(&GeneratorConfig { base_depth: 4 });
    assert!(
        sfc_mesh.n_cells() > SFC_RADIX_CUTOFF,
        "SFC fingerprint mesh must exercise the radix path"
    );
    let centroids: Vec<[f64; 3]> = sfc_mesh.cells().iter().map(|c| c.centroid).collect();
    let (w, _) = strategy_weights(&sfc_mesh, PartitionStrategy::ScOc);
    let weights: Vec<u64> = w.into_iter().map(u64::from).collect();
    let mut sfc_ws = SfcWorkspace::new();
    for (curve_name, curve) in [("morton", Curve::Morton), ("hilbert", Curve::Hilbert)] {
        let part = sfc_partition_with(&centroids, &weights, N_DOMAINS, curve, workers, &mut sfc_ws);
        writeln!(
            out,
            "cylinder4/sfc-{curve_name} part={:016x}",
            part_fingerprint(&part),
        )
        .unwrap();
    }

    // Incremental repartitioner rows over a pinned drift sequence on the
    // same depth-4 cylinder: the first migration plan (part-pair list +
    // quantized per-constraint flows) and the post-sequence part vector.
    // The sequence runs its from-scratch step at the env worker count and
    // its diffusion steps on the one pinned schedule, so a width-dependent
    // divergence shows up as a file diff in ci.sh.
    let seq_cfg = RepartSequenceConfig::graded_cylinder(
        N_DOMAINS,
        SEED,
        4,
        RepartMode::Diffusion { budget: None },
    );
    let mut drifted = sfc_mesh.clone();
    seq_cfg.drift.apply(&mut drifted, 0);
    let part0 = decompose_with(&drifted, seq_cfg.strategy, N_DOMAINS, SEED, &exec);
    seq_cfg.drift.apply(&mut drifted, 1);
    let (w, ncon) = strategy_weights(&drifted, seq_cfg.strategy);
    let g = drifted.to_graph().with_vertex_weights(w, ncon);
    let rcfg = default_repart_config(N_DOMAINS, ncon, None);
    let (plan_pairs, plan_flow) = diffusion_plan(&g, &part0, &rcfg);
    let mut plan_h = 0xcbf2_9ce4_8422_2325u64;
    for &(p, q) in &plan_pairs {
        fnv1a(&mut plan_h, u64::from(p));
        fnv1a(&mut plan_h, u64::from(q));
    }
    for &f in &plan_flow {
        fnv1a(&mut plan_h, f as u64);
    }
    writeln!(
        out,
        "cylinder4/repart-plan plan={plan_h:016x} pairs={}",
        plan_pairs.len(),
    )
    .unwrap();
    let seq = repartition_sequence(&sfc_mesh, &seq_cfg, &exec);
    writeln!(
        out,
        "cylinder4/repart-seq part={:016x} moved={} volume={}",
        part_fingerprint(&seq.part),
        seq.total_cells_moved(),
        seq.total_migration_volume(),
    )
    .unwrap();

    // The same sequence run out to 16 steps: past the steps where boundary
    // pairs vanish and the round cap binds, with every later round working
    // on patched (not rebuilt) boundary lists.
    let seq16 = repartition_sequence(
        &sfc_mesh,
        &RepartSequenceConfig {
            steps: 16,
            ..seq_cfg
        },
        &exec,
    );
    writeln!(
        out,
        "cylinder4/repart-seq16 part={:016x} moved={} volume={} rounds={}",
        part_fingerprint(&seq16.part),
        seq16.total_cells_moved(),
        seq16.total_migration_volume(),
        seq16.steps.iter().map(|s| s.stats.rounds).sum::<u32>(),
    )
    .unwrap();

    // Nearest ancestor `results/` (repo root when run via cargo).
    let dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| {
            cwd.ancestors()
                .find(|d| d.join("results").is_dir())
                .map(|d| d.join("results"))
        })
        .unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("fingerprints_w{workers}.txt"));
    std::fs::write(&path, &out).expect("write fingerprint file");
    println!(
        "worker-matrix fingerprints ({workers} worker(s)) -> {}",
        path.display()
    );
}
