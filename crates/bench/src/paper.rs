//! The paper's own tables and figures: Table I, Figs 5–7 and 9–13, §III-C.

use crate::{gantt, mean, measured_cost_graph, rule, simulate_eager, tag, ExpOptions};
use tempart_core::report::{bar, pct, speedup, table};
use tempart_core::{decompose, PartitionStrategy};
use tempart_flusim::{simulate, ClusterConfig, DynamicListStrategy};
use tempart_mesh::{computation_shares, level_histogram, MeshCase};
use tempart_taskgraph::{
    generate_taskgraph, stats::block_process_map, DomainDecomposition, DomainLevelCosts,
    SubiterationLoads, TaskGraphConfig,
};

/// Table I: test-mesh statistics — per-τ cell counts, cell fractions and
/// computation shares, side by side with the paper's numbers.
pub(crate) fn table1(opts: &ExpOptions) {
    rule("Table I — test meshes");
    for case in MeshCase::ALL {
        let mesh = opts.mesh(case);
        let hist = level_histogram(&mesh);
        let shares = computation_shares(&mesh);
        let total = mesh.n_cells();
        println!(
            "{} — generated {} cells (paper: {}), {} temporal levels",
            case.name(),
            total,
            case.paper_cell_count(),
            mesh.n_tau_levels()
        );
        let mut rows = Vec::new();
        for tau in 0..mesh.n_tau_levels() as usize {
            let frac = hist[tau] as f64 / total as f64;
            let paper_frac = case.paper_cell_fractions()[tau];
            rows.push(vec![
                format!("τ={tau}"),
                hist[tau].to_string(),
                format!("{:.1}%", 100.0 * frac),
                format!("{:.1}%", 100.0 * paper_frac),
                format!("{:.1}%", 100.0 * shares[tau]),
            ]);
        }
        println!(
            "{}",
            table(
                &["level", "#Cells", "%Cells", "%Cells(paper)", "%Computation"],
                &rows
            )
        );
    }
    println!(
        "%Computation is count(τ)·2^(τmax−τ) normalised — the paper's cost model\n\
         (matches Table I exactly for the paper's counts, e.g. CYLINDER → 4.4/11.3/43.2/41.2)."
    );
}

/// Figure 5: FLUSEPA vs FLUSIM — how close is the idealized simulator to a
/// real execution? The paper observes the same scheduling patterns with a
/// ~20% execution-time variance (FLUSIM is idealized: no communication or
/// runtime overhead).
///
/// Testbed substitution (this machine has two cores, which is not the
/// paper's 6 × 4 cluster either — see DESIGN.md): the "real execution" side
/// is a *measured-cost replay* — one solver iteration runs the actual Euler
/// flux/update kernels serially, each task's wall-clock duration is
/// recorded, and the same DAG is re-simulated with those measured nanosecond
/// costs. The idealized side is FLUSIM's abstract object-count costs. Both
/// schedules run on the paper's Fig. 5 cluster (12 domains, 6 processes × 4
/// cores, SC_OC, PPRIME_NOZZLE). Every line carries measured nanoseconds,
/// so the output is a sample, not a golden file.
pub(crate) fn fig05(opts: &ExpOptions) {
    let mesh = opts.mesh(MeshCase::PprimeNozzle);
    let n_domains = 12;
    let cluster = ClusterConfig::new(6, 4);
    rule("Fig 5 — FLUSEPA (measured replay) vs FLUSIM (idealized)");

    let part = decompose(&mesh, PartitionStrategy::ScOc, n_domains, opts.seed);

    // Idealized FLUSIM: abstract object-count costs.
    let (ideal_graph, process_of, ideal) = simulate_eager(&mesh, &part, n_domains, &cluster);

    // "FLUSEPA": the same DAG with measured kernel durations (ns).
    let measured_graph = measured_cost_graph(&mesh, &part, n_domains);
    let real = simulate(
        &measured_graph,
        &cluster,
        &process_of,
        DynamicListStrategy::EAGER_FIFO,
    );

    // Compare the two makespans after normalising the idealized one to the
    // measured total work (the paper compares wall-clock traces directly;
    // FLUSIM's unit is abstract).
    let unit_ns = measured_graph.total_cost() as f64 / ideal_graph.total_cost() as f64;
    let ideal_ns = ideal.makespan as f64 * unit_ns;
    let gap = (real.makespan as f64 - ideal_ns).abs() / real.makespan as f64;

    println!(
        "measured  (\"FLUSEPA\") makespan : {:>12} ns",
        real.makespan
    );
    println!(
        "idealized (FLUSIM)    makespan : {:>12.0} ns-equivalent",
        ideal_ns
    );
    println!(
        "variance                      : {}  (paper: ~20%)",
        pct(gap)
    );
    println!("\nmeasured-replay trace:");
    gantt(&measured_graph, &real, 6, 96);
    println!("idealized FLUSIM trace:");
    gantt(&ideal_graph, &ideal, 6, 96);
    println!(
        "The two traces must show the same qualitative pattern (same idle bands per\n\
         subiteration); the % variance quantifies FLUSIM's idealization error."
    );
}

/// Figure 6: even with *unlimited* cores per process, SC_OC leaves whole
/// processes inactive — the task-graph shape, not the scheduler, is the
/// bottleneck.
///
/// Configuration (paper): 64 MPI processes, 1 domain per process, unbounded
/// cores, eager scheduling, CYLINDER, SC_OC.
pub(crate) fn fig06(opts: &ExpOptions) {
    let mesh = opts.mesh(MeshCase::Cylinder);
    let n_domains = 64;
    rule("Fig 6 — unbounded cores, SC_OC, 64 processes");

    let part = decompose(&mesh, PartitionStrategy::ScOc, n_domains, opts.seed);
    let cluster = ClusterConfig::unbounded(n_domains);
    let (graph, _, sim) = simulate_eager(&mesh, &part, n_domains, &cluster);

    let inactivity = sim.process_inactivity();
    let idle_mean = mean(&inactivity);
    let idle_max = inactivity.iter().cloned().fold(0.0f64, f64::max);
    let fully_busy = inactivity.iter().filter(|&&x| x < 0.05).count();

    println!(
        "makespan            : {} (critical path {})",
        sim.makespan,
        graph.critical_path()
    );
    println!("mean process idle   : {:.1}%", idle_mean * 100.0);
    println!("max  process idle   : {:.1}%", idle_max * 100.0);
    println!(
        "processes <5% idle  : {fully_busy} of {n_domains} — idleness persists without any core limit"
    );
    println!("\ncomposite-process Gantt (digit = dominant subiteration, '.' = idle):");
    gantt(&graph, &sim, n_domains, 100);
    println!(
        "Paper's reading: \"MPI processes, even in our ideal configuration, still exhibit\n\
         periods of inactivity\" — the scheduling policy is not the cause."
    );
}

/// Figures 7 and 10: domain characteristics under SC_OC vs MC_TL on
/// CYLINDER with 16 processes — (a) operating costs by temporal level per
/// process, (b) cumulative computation per subiteration per process.
pub(crate) fn fig07_10(opts: &ExpOptions) {
    let mesh = opts.mesh(MeshCase::Cylinder);
    let n_domains = 16;
    let n_processes = 16;

    for (fig, strategy) in [
        ("Fig 7 (SC_OC)", PartitionStrategy::ScOc),
        ("Fig 10 (MC_TL)", PartitionStrategy::McTl),
    ] {
        rule(&format!("{fig} — CYLINDER, 16 processes"));
        let part = decompose(&mesh, strategy, n_domains, opts.seed);
        let dd = DomainDecomposition::new(&mesh, &part, n_domains);
        let costs = DomainLevelCosts::measure(&dd);
        let process_of = block_process_map(n_domains, n_processes);
        let by_proc = costs.by_process(&process_of, n_processes);

        // (a) operating costs by temporal level.
        println!("(a) operating costs by temporal level among processes:");
        let nl = mesh.n_tau_levels() as usize;
        let max_total = by_proc
            .iter()
            .map(|r| r.iter().sum::<u64>())
            .max()
            .unwrap_or(1) as f64;
        let mut rows = Vec::new();
        for (p, per_tau) in by_proc.iter().enumerate() {
            let total: u64 = per_tau.iter().sum();
            let mut row = vec![format!("P{p}")];
            row.extend(per_tau.iter().map(u64::to_string));
            row.push(total.to_string());
            row.push(bar(total as f64, max_total, 24));
            rows.push(row);
        }
        let mut header: Vec<String> = vec!["proc".into()];
        header.extend((0..nl).map(|t| format!("τ={t}")));
        header.push("total".into());
        header.push("".into());
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        println!("{}", table(&header_refs, &rows));
        println!("total-cost imbalance  : {:.3}", costs.total_imbalance());
        println!(
            "per-level imbalances  : {:?}",
            costs
                .level_imbalances()
                .iter()
                .map(|x| format!("{x:.2}"))
                .collect::<Vec<_>>()
        );

        // (b) per-subiteration workload.
        let graph = generate_taskgraph(&mesh, &dd, &TaskGraphConfig::default());
        let loads = SubiterationLoads::measure(&graph, &process_of, n_processes);
        println!("\n(b) computation per subiteration among processes:");
        let ns = graph.n_subiterations as usize;
        let maxcell = loads
            .load
            .iter()
            .flat_map(|l| l.iter())
            .copied()
            .max()
            .unwrap_or(1) as f64;
        let mut rows = Vec::new();
        for (p, per_s) in loads.load.iter().enumerate() {
            let mut row = vec![format!("P{p}")];
            row.extend(
                per_s
                    .iter()
                    .map(|&w| format!("{:>7} {}", w, bar(w as f64, maxcell, 8))),
            );
            rows.push(row);
        }
        let mut header: Vec<String> = vec!["proc".into()];
        header.extend((0..ns).map(|s| format!("subiter {s}")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        println!("{}", table(&header_refs, &rows));
        println!(
            "per-subiteration imbalances (max/mean): {:?}",
            loads
                .subiteration_imbalances()
                .iter()
                .map(|x| format!("{x:.2}"))
                .collect::<Vec<_>>()
        );
    }
    println!(
        "\nExpected shape: SC_OC equalises the totals but concentrates each τ in few\n\
         processes (huge per-level and per-subiteration imbalances); MC_TL flattens both."
    );
}

/// Figure 9: SC_OC vs MC_TL execution traces on CYLINDER and CUBE —
/// 128 domains on 16 processes × 32 cores. The paper reports "a clear visual
/// representation of an acceleration factor of 2".
pub(crate) fn fig09(opts: &ExpOptions) {
    let cluster = ClusterConfig::new(16, 32);
    rule("Fig 9 — 128 domains, 16 proc x 32 cores, eager");

    for case in [MeshCase::Cylinder, MeshCase::Cube] {
        let mesh = opts.mesh(case);
        let mut spans = Vec::new();
        for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
            let out = opts.flusim(&mesh, strategy, 128, cluster);
            let cp = out.graph.critical_path();
            println!(
                "{} makespan={:>9}  idle={:>5.1}%  cut={:>7}  domains-components={}  cp={:>9}  makespan/cp={:.2}",
                tag(case, strategy),
                out.makespan(),
                out.sim.idle_fraction(&cluster) * 100.0,
                out.quality.edge_cut,
                out.quality.part_components,
                cp,
                out.makespan() as f64 / cp as f64,
            );
            gantt(&out.graph, &out.sim, 16, 96);
            spans.push(out.makespan());
        }
        println!(
            "{} speedup MC_TL over SC_OC: {}  (paper: ~2x)\n",
            case.name(),
            speedup(spans[0], spans[1])
        );
    }
}

/// Figure 11: behaviour with respect to the number of domains —
/// (a) performance ratio of MC_TL over SC_OC, (b) estimated inter-process
/// communication volume. CYLINDER and CUBE, 16 processes × 32 cores.
///
/// Expected shapes (paper): the ratio stays > 1 everywhere and *decreases*
/// as domain count grows (finer granularity lets pipelining hide SC_OC's
/// imbalance); MC_TL communicates more than SC_OC.
pub(crate) fn fig11(opts: &ExpOptions) {
    let cluster = ClusterConfig::new(16, 32);
    let domain_counts = [16usize, 32, 64, 128, 256];
    rule("Fig 11 — MC_TL/SC_OC ratio and comm volume vs #domains");

    for case in [MeshCase::Cylinder, MeshCase::Cube] {
        let mesh = opts.mesh(case);
        let mut rows = Vec::new();
        for &nd in &domain_counts {
            let res = [PartitionStrategy::ScOc, PartitionStrategy::McTl]
                .map(|strategy| opts.flusim(&mesh, strategy, nd, cluster));
            let ratio = res[0].makespan() as f64 / res[1].makespan() as f64;
            let cp = res.each_ref().map(|out| out.graph.critical_path());
            rows.push(vec![
                nd.to_string(),
                res[0].makespan().to_string(),
                res[1].makespan().to_string(),
                format!("{ratio:.2}"),
                res[0].interprocess_cut.to_string(),
                res[1].interprocess_cut.to_string(),
                cp[0].to_string(),
                cp[1].to_string(),
                format!("{:.2}", res[0].makespan() as f64 / cp[0] as f64),
                format!("{:.2}", res[1].makespan() as f64 / cp[1] as f64),
            ]);
        }
        println!("{}:", case.name());
        println!(
            "{}",
            table(
                &[
                    "#domains",
                    "SC_OC makespan",
                    "MC_TL makespan",
                    "ratio (11a)",
                    "SC_OC ip-cut (11b)",
                    "MC_TL ip-cut (11b)",
                    "SC_OC cp",
                    "MC_TL cp",
                    "SC_OC makespan/cp",
                    "MC_TL makespan/cp",
                ],
                &rows
            )
        );
    }
}

/// Figure 12: SC_OC vs MC_TL on PPRIME_NOZZLE within FLUSIM — same
/// configuration as Fig. 5 (12 domains, 6 processes × 4 cores). The paper
/// reports a "slightly smaller, but still considerable, improvement of
/// around 20%" on this more intricate mesh.
pub(crate) fn fig12(opts: &ExpOptions) {
    let case = MeshCase::PprimeNozzle;
    let mesh = opts.mesh(case);
    let cluster = ClusterConfig::new(6, 4);
    rule("Fig 12 — PPRIME_NOZZLE, 12 domains, 6 proc x 4 cores (FLUSIM)");

    let mut spans = Vec::new();
    for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
        let out = opts.flusim(&mesh, strategy, 12, cluster);
        let cp = out.graph.critical_path();
        println!(
            "{} makespan={:>9}  idle={:>5.1}%  interprocess-cut={}  cp={:>9}  makespan/cp={:.2}",
            tag(case, strategy),
            out.makespan(),
            out.sim.idle_fraction(&cluster) * 100.0,
            out.interprocess_cut,
            cp,
            out.makespan() as f64 / cp as f64,
        );
        gantt(&out.graph, &out.sim, 6, 96);
        spans.push(out.makespan());
    }
    let gain = 1.0 - spans[1] as f64 / spans[0] as f64;
    println!(
        "execution-time reduction MC_TL vs SC_OC: {}  (paper: ~20%)",
        pct(gain)
    );
}

/// Figure 13: validation in the production code — MC_TL vs SC_OC with real
/// solver kernels. The paper reports ~20% execution-time savings inside
/// FLUSEPA itself, "with all the overhead and communication that goes with
/// it".
///
/// Testbed substitution (two cores are not the paper's cluster, see
/// DESIGN.md): both strategies run one full iteration of the actual Euler
/// solver serially with per-task timing; each DAG is then replayed on the
/// paper's cluster (12 domains, 6 processes × 4 cores) with the *measured*
/// nanosecond costs. Unlike Fig. 12, the cost of every task here includes
/// real cache effects and per-face/per-cell arithmetic, not abstract counts
/// — and so the output differs on every run.
pub(crate) fn fig13(opts: &ExpOptions) {
    let case = MeshCase::PprimeNozzle;
    let mesh = opts.mesh(case);
    let n_domains = 12;
    let cluster = ClusterConfig::new(6, 4);
    let process_of = block_process_map(n_domains, 6);
    rule("Fig 13 — production-style validation (measured kernel costs)");

    let mut spans = Vec::new();
    for strategy in [PartitionStrategy::ScOc, PartitionStrategy::McTl] {
        let part = decompose(&mesh, strategy, n_domains, opts.seed);
        let graph = measured_cost_graph(&mesh, &part, n_domains);
        let sim = simulate(
            &graph,
            &cluster,
            &process_of,
            DynamicListStrategy::EAGER_FIFO,
        );
        println!(
            "{} makespan={:>12} ns   idle={:>5.1}%",
            tag(case, strategy),
            sim.makespan,
            sim.idle_fraction(&cluster) * 100.0
        );
        gantt(&graph, &sim, 6, 96);
        spans.push(sim.makespan);
    }
    let gain = 1.0 - spans[1] as f64 / spans[0] as f64;
    println!(
        "execution-time reduction MC_TL vs SC_OC (measured costs): {}  (paper: ~20%)",
        pct(gain)
    );
}

/// Section III-C: is the scheduler the problem? The paper rules out the
/// scheduling policy as the cause of idleness — any reasonable policy leaves
/// the same gaps, because the task graph itself starves processes.
///
/// This experiment runs the SC_OC task graph under four scheduling policies
/// and compares them against simply switching the partitioning strategy to
/// MC_TL (with the baseline eager policy).
pub(crate) fn sec3c_scheduling(opts: &ExpOptions) {
    let mesh = opts.mesh(MeshCase::Cylinder);
    let n_domains = 128;
    let cluster = ClusterConfig::new(16, 32);
    rule("Sec III-C — scheduling policy vs graph shape (CYLINDER)");

    let eager = |strategy| {
        let part = decompose(&mesh, strategy, n_domains, opts.seed);
        simulate_eager(&mesh, &part, n_domains, &cluster)
    };
    let (sc_graph, process_of, _) = eager(PartitionStrategy::ScOc);
    let (_, _, mc) = eager(PartitionStrategy::McTl);

    let mut rows = Vec::new();
    let policies = [
        ("eager-fifo", DynamicListStrategy::EAGER_FIFO),
        ("eager-lifo", DynamicListStrategy::EAGER_LIFO),
        (
            "critical-path-first",
            DynamicListStrategy::CRITICAL_PATH_FIRST,
        ),
        ("smallest-first", DynamicListStrategy::SMALLEST_FIRST),
    ];
    let mut sc_makespans = Vec::new();
    for (name, policy) in policies {
        let sim = simulate(&sc_graph, &cluster, &process_of, policy);
        sc_makespans.push(sim.makespan);
        rows.push(vec![
            format!("SC_OC + {name}"),
            sim.makespan.to_string(),
            format!("{:.1}%", sim.idle_fraction(&cluster) * 100.0),
        ]);
    }
    rows.push(vec![
        "MC_TL + eager-fifo".to_string(),
        mc.makespan.to_string(),
        format!("{:.1}%", mc.idle_fraction(&cluster) * 100.0),
    ]);
    println!("{}", table(&["configuration", "makespan", "idle"], &rows));
    let sc_eager = sc_makespans[0] as f64;
    let best_sc = *sc_makespans.iter().min().expect("four policies ran");
    let policy_gain = sc_eager / best_sc as f64;
    let strategy_gain = sc_eager / mc.makespan as f64;
    println!(
        "best scheduling policy buys {:.0}% over eager; changing the *partitioning*\n\
         buys {:.0}% — the graph shape, not the scheduler, is the lever (paper's §III-C).",
        (policy_gain - 1.0) * 100.0,
        (strategy_gain - 1.0) * 100.0
    );
}
