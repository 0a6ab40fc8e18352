//! Experiments beyond the paper's figures: its §VII perspectives
//! (dual-phase, contiguity repair), the index terms it does not measure
//! (communication cost, heterogeneous nodes, drifting levels) and the
//! partitioner ablation.

use crate::{rule, simulate_eager, ExpOptions};
use std::time::Instant;
use tempart_core::report::table;
use tempart_core::{
    comm_crossover, decompose, decompose_with_repair, strategy_weights, Exec, PartitionStrategy,
    PipelineConfig, WorkspacePool,
};
use tempart_flusim::{simulate_with, ClusterConfig, DynamicListStrategy, UNBOUNDED_CHANNELS};
use tempart_graph::{migration_volume, PartitionQuality};
use tempart_mesh::{assign_radial, MeshCase};
use tempart_obs::Recorder;
use tempart_partition::{partition_graph, PartitionConfig, Scheme};
use tempart_taskgraph::{
    generate_taskgraph, stats::block_process_map, DomainDecomposition, TaskGraphConfig,
};

/// Extension: sensitivity of the strategies to communication cost.
///
/// The paper's FLUSIM ignores communication and *expects* most of MC_TL's
/// extra volume to be overlapped by the task-based runtime. This experiment
/// quantifies where that stops being true: sweeping the per-message latency
/// of the network model shows the crossover at which MC_TL's larger cut
/// erodes its balance advantage — and where the §VII dual-phase compromise
/// pays off.
///
/// The sweep itself is the first-class `tempart_core::comm_crossover`
/// (uniform latency-only links, unbounded channels, halo-derived message
/// sizes).
pub(crate) fn ext_comm(opts: &ExpOptions) {
    let mesh = opts.mesh(MeshCase::Cylinder);
    // 128 domains on the paper's 16 × 32 cluster; the swept strategies
    // replace the config's own.
    let config = PipelineConfig {
        seed: opts.seed,
        ..PipelineConfig::paper_default(PartitionStrategy::McTl, 128)
    };
    let strategies = [
        PartitionStrategy::ScOc,
        PartitionStrategy::McTl,
        PartitionStrategy::DualPhase {
            domains_per_process: 8,
        },
    ];
    rule("Extension — makespan vs per-message latency (CYLINDER, 128 dom)");

    let latencies = [0u64, 50, 200, 500, 2000];
    let sweep = comm_crossover(
        &mesh,
        &config,
        &strategies,
        &latencies,
        0,
        UNBOUNDED_CHANNELS,
        &Exec::new(1, &WorkspacePool::new(1), Recorder::off()),
    );

    let rows: Vec<Vec<String>> = sweep
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.latency.to_string()];
            row.extend(r.makespans.iter().map(|m| m.to_string()));
            row.push(format!(
                "{:.2}",
                r.makespans[0] as f64 / r.makespans[1] as f64
            ));
            row.push(format!(
                "{:.2}",
                r.makespans[0] as f64 / r.makespans[2] as f64
            ));
            row
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "latency",
                "SC_OC",
                "MC_TL",
                "DUAL_PHASE",
                "MC_TL speedup",
                "DUAL speedup",
            ],
            &rows
        )
    );
    match sweep.crossover_latency(1, 0) {
        Some(lat) => println!("MC_TL falls behind SC_OC at latency {lat} (first swept point)."),
        None => println!("MC_TL holds its advantage across the whole sweep."),
    }
    println!(
        "Expected shape: at zero latency MC_TL wins ~2x; as latency grows its advantage\n\
         shrinks faster than DUAL_PHASE's (fewer cross-process edges), matching the\n\
         paper's motivation for the two-phase variant."
    );
}

/// Extension: temporal-level drift vs partition staleness.
///
/// Section III-A justifies optimizing a single iteration because "the
/// temporal levels of the cells experience minimal evolution across
/// iterations". This experiment quantifies the other side of that coin: a
/// hotspot that *does* move (re-levelling the same mesh radially around a
/// drifting centre) degrades a stale MC_TL partition — and repartitioning
/// restores the balance. The gap between the two curves is the price of
/// staleness and the budget available for repartitioning.
pub(crate) fn ext_drift(opts: &ExpOptions) {
    let mut mesh = opts.mesh(MeshCase::Cylinder);
    let n_domains = 64;
    let cluster = ClusterConfig::new(16, 8);
    let radii = [0.08, 0.20, 0.40];
    rule("Extension — hotspot drift vs stale MC_TL partition (CYLINDER)");

    // Initial levels + partition at the resting hotspot.
    let centre0 = [0.5f64, 0.5, 0.5];
    assign_radial(&mut mesh, centre0, &radii);
    let stale_part = decompose(&mesh, PartitionStrategy::McTl, n_domains, opts.seed);

    let mut rows = Vec::new();
    for step in 0..6 {
        // Drift the hotspot along +x, 1% of the domain per step — staying
        // inside the refined region so every τ class keeps enough cells for
        // 64 domains (once a class has fewer cells than domains, balancing
        // it is structurally impossible for *any* partitioner).
        let centre = [centre0[0] + 0.01 * step as f64, centre0[1], centre0[2]];
        assign_radial(&mut mesh, centre, &radii);

        // Stale: keep the original decomposition.
        let s_stale = simulate_eager(&mesh, &stale_part, n_domains, &cluster).2;

        // Fresh: repartition for the new levels (best of two seeds, the way
        // a production repartitioner would retry a poor draw).
        let (s_fresh, fresh_part) = [opts.seed, opts.seed ^ 0xA5A5]
            .into_iter()
            .map(|seed| {
                let part = decompose(&mesh, PartitionStrategy::McTl, n_domains, seed);
                (simulate_eager(&mesh, &part, n_domains, &cluster).2, part)
            })
            .min_by_key(|(s, _)| s.makespan)
            .unwrap();
        // Cost of switching: cells that change domain.
        let cell_graph = mesh.to_graph();
        let migration = migration_volume(&cell_graph, &stale_part, &fresh_part);

        rows.push(vec![
            format!("{:.2}", 0.01 * step as f64),
            s_stale.makespan.to_string(),
            s_fresh.makespan.to_string(),
            format!("{:.2}", s_stale.makespan as f64 / s_fresh.makespan as f64),
            migration.to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "drift",
                "stale makespan",
                "repartitioned",
                "staleness cost",
                "cells migrated",
            ],
            &rows
        )
    );
    println!(
        "Expected shape: the stale partition degrades monotonically with drift while\n\
         the repartitioned one stays flat — the degradation rate tells you how often\n\
         a production run must repartition. The zero-drift row is not a no-op:\n\
         \"repartitioned\" is the better of two seeds, so it may differ from the stale\n\
         (first-seed) partition and then migrates nearly the whole mesh — a\n\
         from-scratch repartition moves everything whenever it moves anything."
    );
}

/// Section VII perspective: dual-phase partitioning — MC_TL across
/// processes, then SC_OC within each process — as a compromise between
/// performance (per-subiteration balance) and communication volume.
///
/// The compromise is *configuration-dependent*: dual-phase keeps every
/// process active in every subiteration (outer MC_TL) but concentrates each
/// level into few of the process's inner domains (inner SC_OC), so its win
/// over SC_OC grows as cores-per-process shrinks or inner granularity rises.
/// The sweep below maps that region.
pub(crate) fn ext_dualphase(opts: &ExpOptions) {
    rule("Extension — dual-phase MC_TL→SC_OC compromise (16 processes)");

    for case in [MeshCase::Cylinder, MeshCase::PprimeNozzle] {
        let mesh = opts.mesh(case);
        println!("{}:", case.name());
        let mut rows = Vec::new();
        for cores in [8usize, 32] {
            let cluster = ClusterConfig::new(16, cores);
            // Baselines at 128 domains.
            let dual = |domains_per_process| PartitionStrategy::DualPhase {
                domains_per_process,
            };
            let results = [
                ("SC_OC", PartitionStrategy::ScOc, 128),
                ("MC_TL", PartitionStrategy::McTl, 128),
                ("DUAL(8/proc)", dual(8), 128),
                ("DUAL(16/proc)", dual(16), 256),
            ]
            .map(|(name, strategy, nd)| (name, opts.flusim(&mesh, strategy, nd, cluster)));
            let sc = results[0].1.makespan();
            for (name, out) in &results {
                rows.push(vec![
                    format!("16p x {cores}c"),
                    name.to_string(),
                    out.makespan().to_string(),
                    format!("{:.2}", sc as f64 / out.makespan() as f64),
                    out.interprocess_cut.to_string(),
                    out.quality.edge_cut.to_string(),
                ]);
            }
        }
        println!(
            "{}",
            table(
                &[
                    "cluster",
                    "strategy",
                    "makespan",
                    "speedup vs SC_OC",
                    "interproc-cut",
                    "total edge-cut",
                ],
                &rows
            )
        );
    }
    println!(
        "Reading guide: dual-phase matches MC_TL's *inter-process* cut (its process\n\
         boundaries are the MC_TL split) while its *total* cut stays near SC_OC's —\n\
         the intra-process remainder is shared-memory-cheap. Its makespan advantage\n\
         over SC_OC appears when cores-per-process is moderate or inner granularity\n\
         is raised; at 32 cores/process with 8 coarse inner domains the sparse\n\
         subiterations cannot feed the cores and the advantage collapses."
    );
}

/// Extension: heterogeneous nodes (the paper's index terms include
/// "heterogeneous systems"). Half of the 16 processes have 32 cores, half 8
/// (320 cores total).
///
/// Four configurations:
///  1. SC_OC, capacity-blind (128 equal domains, 8 per process);
///  2. MC_TL, capacity-blind (same geometry);
///  3. MC_TL, capacity-blind with 320 domains (20 per process);
///  4. MC_TL, capacity-aware *mapping*: the same 320 equal-size domains, but
///     each process receives a number of domains proportional to its cores
///     (one per core: 32-core processes take 32, 8-core processes take 8).
///
/// 3 is 4's control: the two differ in the mapping only.
pub(crate) fn ext_hetero(opts: &ExpOptions) {
    let mesh = opts.mesh(MeshCase::Cylinder);
    let n_processes = 16usize;
    let cores: Vec<usize> = (0..n_processes)
        .map(|p| if p < 8 { 32 } else { 8 })
        .collect();
    let total_cores: usize = cores.iter().sum();
    rule("Extension — heterogeneous nodes (8 x 32c + 8 x 8c)");

    let run = |part: &[u32], n_domains: usize, process_of: &[usize]| {
        let dd = DomainDecomposition::new(&mesh, part, n_domains);
        let graph = generate_taskgraph(&mesh, &dd, &TaskGraphConfig::default());
        simulate_with(
            &graph,
            &cores,
            process_of,
            &DynamicListStrategy::EAGER_FIFO,
            None,
            Recorder::off(),
        )
    };

    let block_map = |n_domains: usize| block_process_map(n_domains, n_processes);
    // Capacity-aware mapping: one equal-size domain per core.
    let mut aware_map = Vec::with_capacity(total_cores);
    for (p, &cnt) in cores.iter().enumerate() {
        aware_map.extend(std::iter::repeat_n(p, cnt));
    }
    let partition_for = |strategy, n_domains| decompose(&mesh, strategy, n_domains, opts.seed);

    let mut rows = Vec::new();
    let mut baseline = 0u64;
    // The two 320-domain rows differ in the mapping only.
    let mc_tl_320 = partition_for(PartitionStrategy::McTl, total_cores);
    let configs: Vec<(&str, Vec<u32>, usize, Vec<usize>)> = vec![
        (
            "SC_OC blind (128 dom)",
            partition_for(PartitionStrategy::ScOc, 128),
            128,
            block_map(128),
        ),
        (
            "MC_TL blind (128 dom)",
            partition_for(PartitionStrategy::McTl, 128),
            128,
            block_map(128),
        ),
        (
            "MC_TL blind (320 dom)",
            mc_tl_320.clone(),
            total_cores,
            block_map(total_cores),
        ),
        (
            "MC_TL aware mapping (320 dom)",
            mc_tl_320,
            total_cores,
            aware_map,
        ),
    ];
    for (name, part, nd, pmap) in configs {
        let sim = run(&part, nd, &pmap);
        if baseline == 0 {
            baseline = sim.makespan;
        }
        let busy_total: u64 = sim.busy.iter().sum();
        let idle = 1.0 - busy_total as f64 / (sim.makespan as f64 * total_cores as f64);
        rows.push(vec![
            name.to_string(),
            sim.makespan.to_string(),
            format!("{:.2}", baseline as f64 / sim.makespan as f64),
            format!("{:.1}%", idle * 100.0),
        ]);
    }
    println!(
        "{}",
        table(&["configuration", "makespan", "speedup", "idle"], &rows)
    );
    println!(
        "Finding: MC_TL dominates SC_OC on the heterogeneous cluster too, and\n\
         capacity-proportional assignment beats capacity-blind MC_TL: the same 320\n\
         domains mapped one per core, instead of 20 per process, cut both the\n\
         makespan and the idle share. Mapped blind, an 8-core process holds as many\n\
         domains as a 32-core one."
    );
}

/// Extension: contiguity repair of MC_TL domains (the paper's stated future
/// work — "post-processing techniques to minimize the artifacts produced by
/// partitioners when constrained by many criteria").
///
/// Measures, per mesh: MC_TL's domain fragmentation before/after the repair
/// pass, the edge-cut change, and whether the repaired decomposition keeps
/// MC_TL's makespan advantage.
pub(crate) fn ext_repair(opts: &ExpOptions) {
    let n_domains = 64;
    let cluster = ClusterConfig::new(16, 8);
    let pool = WorkspacePool::new(1);
    let exec = Exec::new(1, &pool, Recorder::off());
    rule("Extension — MC_TL contiguity repair (64 domains, 16 proc x 8 cores)");

    let mut rows = Vec::new();
    for case in MeshCase::ALL {
        let mesh = opts.mesh(case);
        let g = mesh.to_graph();

        let raw = decompose(&mesh, PartitionStrategy::McTl, n_domains, opts.seed);
        let q_raw = PartitionQuality::measure(&g, &raw, n_domains);
        let sim_raw = simulate_eager(&mesh, &raw, n_domains, &cluster).2;

        let (fixed, report) =
            decompose_with_repair(&mesh, PartitionStrategy::McTl, n_domains, opts.seed, &exec);
        let q_fixed = PartitionQuality::measure(&g, &fixed, n_domains);
        let sim_fixed = simulate_eager(&mesh, &fixed, n_domains, &cluster).2;

        rows.push(vec![
            case.name().to_string(),
            format!("{} → {}", q_raw.part_components, q_fixed.part_components),
            report.fragments_moved.to_string(),
            report.vertices_moved.to_string(),
            format!("{} → {}", q_raw.edge_cut, q_fixed.edge_cut),
            format!("{} → {}", sim_raw.makespan, sim_fixed.makespan),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "mesh",
                "components",
                "frags moved",
                "cells moved",
                "edge cut",
                "makespan",
            ],
            &rows
        )
    );
    println!(
        "Expected shape: components drop toward the domain count, the cut shrinks,\n\
         and the makespan stays at MC_TL's level (balance is preserved by the\n\
         repair pass's per-constraint allowance)."
    );
}

/// Ablation: which parts of the multilevel machinery earn their keep?
///
/// Sweeps the partitioner's knobs on the MC_TL instance the paper cares
/// about (CYLINDER, 64 domains) and reports quality per setting: FM passes
/// (0 = no refinement), initial-bisection tries, coarsest-graph size, and
/// recursive-bisection vs k-way-refined schemes. The wall time per setting
/// goes to stderr after the table, so stdout is a pure function of the seed.
pub(crate) fn ablation_partitioner(opts: &ExpOptions) {
    let mesh = opts.mesh(MeshCase::Cylinder);
    let (w, ncon) = strategy_weights(&mesh, PartitionStrategy::McTl);
    let g = mesh.to_graph().with_vertex_weights(w, ncon);
    let n_domains = 64;
    rule("Ablation — multilevel partitioner knobs (CYLINDER, MC_TL, 64 dom)");

    let base = PartitionConfig::new(n_domains)
        .with_ub(1.10)
        .with_seed(opts.seed);
    let variants: Vec<(&str, PartitionConfig)> = vec![
        ("baseline", base.clone()),
        (
            "no FM refinement",
            PartitionConfig {
                refine_passes: 0,
                ..base.clone()
            },
        ),
        (
            "1 refine pass",
            PartitionConfig {
                refine_passes: 1,
                ..base.clone()
            },
        ),
        (
            "1 initial try",
            PartitionConfig {
                initial_tries: 1,
                ..base.clone()
            },
        ),
        (
            "coarsen to 40",
            PartitionConfig {
                coarsen_to: 40,
                ..base.clone()
            },
        ),
        (
            "coarsen to 500",
            PartitionConfig {
                coarsen_to: 500,
                ..base.clone()
            },
        ),
        (
            "kway-refined",
            base.clone().with_scheme(Scheme::KWayRefined),
        ),
    ];

    let mut rows = Vec::new();
    let mut times = Vec::new();
    for (name, cfg) in variants {
        let t0 = Instant::now();
        let part = partition_graph(&g, &cfg);
        let dt = t0.elapsed();
        let q = PartitionQuality::measure(&g, &part, n_domains);
        rows.push(vec![
            name.to_string(),
            q.edge_cut.to_string(),
            format!("{:.3}", q.max_imbalance()),
            q.part_components.saturating_sub(n_domains).to_string(),
        ]);
        times.push(vec![name.to_string(), format!("{dt:.2?}")]);
    }
    println!(
        "{}",
        table(
            &["variant", "edge-cut", "worst-level-imb", "extra-comps"],
            &rows
        )
    );
    println!(
        "Reading guide: dropping FM refinement inflates the cut; fewer initial tries\n\
         raise variance; a larger coarsest graph buys quality for time. Pairwise\n\
         k-way refinement after recursive bisection (kway-refined) trims the\n\
         baseline's cut a little at the same worst-level imbalance."
    );
    eprintln!("{}", table(&["variant", "time"], &times));
}
