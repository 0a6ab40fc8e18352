//! `tempart` — command-line front end for the workspace.
//!
//! Subcommands:
//!
//! * `gen`       — generate a mesh and export it (VTK / CSV)
//! * `partition` — decompose a mesh and report partition quality
//! * `simulate`  — FLUSIM: simulate one iteration on an emulated cluster
//! * `trace`     — traced FLUSIM run: Chrome-trace / NDJSON export + replay check
//! * `solve`     — run the real finite-volume solver for a few iterations
//!
//! Run `tempart help` for the full usage text.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tempart::core_api::{
    decompose_with, decompose_with_repair, env_workers, repartition_sequence, run_flusim_with,
    run_portfolio, run_sweep, Curve, Exec, PartitionStrategy, PipelineConfig, RepartMode,
    RepartSequenceConfig, WorkspacePool,
};
use tempart::flusim::{
    ascii_gantt, parse_preset, ClusterConfig, DynamicListStrategy, NetworkModel, Strategy,
};
use tempart::graph::PartitionQuality;
use tempart::mesh::{level_histogram, GeneratorConfig, Mesh, MeshCase};
use tempart::obs::Recorder;
use tempart::partition::RepartStop;
use tempart::runtime::RuntimeConfig;
use tempart::solver::{blast_initial, Solver, SolverConfig, TimeIntegration, Viscosity};
use tempart::taskgraph::stats::block_process_map;

const USAGE: &str = "\
tempart — temporal-level-aware multi-criteria mesh partitioning

USAGE:
    tempart <COMMAND> [OPTIONS]

COMMANDS:
    gen        generate a mesh            (--case, --depth, --vtk F, --csv F)
    partition  decompose + quality report (--case, --depth, --strategy, --domains,
                                           --seed, --repair, --vtk F)
               or partition an external METIS graph file:
                                           (--graph F.graph, --domains, --out F.part)
    simulate   FLUSIM one iteration       (--case, --depth, --strategy, --domains,
                                           --processes, --cores, --latency, --gantt,
                                           --net P) — with --net, halo exchanges
               are priced by a deterministic network model and the report adds
               comm time / overlap efficiency. Presets P:
                 zero                           free links, unbounded channels
                 uniform[:LAT[:CPB[:CH]]]       same link everywhere  [200:2:2]
                 two-level[:LAT[:CPB[:PPN[:CH]]]] slow inter-node, 10x faster
                                                intra-node links      [400:2:4:2]
               --latency L is shorthand for uniform:L:0 with unbounded channels
               (the legacy per-message comm model)
    trace      traced FLUSIM run          (--case, --depth, --strategy, --domains,
                                           --processes, --cores, --out F.json,
                                           --ndjson F.ndjson) — records every
               pipeline stage through tempart-obs, verifies the trace replays
               to the simulator's exact makespan/idle stats, then writes
               Chrome-trace JSON (open in chrome://tracing or Perfetto)
    compare    SC_OC vs MC_TL vs SFC side by side
                                          (--case, --depth, --domains,
                                           --processes, --cores, --svg DIR)
    portfolio  race all 24 scheduler-lattice combos (task criterion x
               process criterion) on one decomposition and print the ranked
               leaderboard                 (--case, --depth, --strategy,
                                           --domains, --processes, --cores,
                                           --seed, --workers, --net P,
                                           --latency L) — with --net or
               --latency every combo is raced under that network model
               (presets as for simulate)
    solve      real FV solver             (--case, --depth, --strategy, --domains,
                                           --iterations, --heun, --mu X, --groups,
                                           --workers)
    repart     drift a graded refinement front across the mesh for --steps
               steps and print the quality-vs-migration frontier: incremental
               diffusion repartitioning (unbounded + at each --budgets
               fraction of the cell count) against from-scratch repartitioning
                                          (--case, --depth, --strategy,
                                           --domains, --seed, --steps,
                                           --budgets F1,F2,.., --workers)
    help       show this text

COMMON OPTIONS:
    --case cylinder|cube|pprime   mesh case                  [default: cylinder]
    --mesh cylinder|cube|pprime   alias of --case
    --depth N                     octree base depth          [default: per case]
    --strategy uniform|sc_oc|mc_tl|dual:<k>|sfc_z|sfc_h      [default: mc_tl]
    --domains N                   extraction domains         [default: 32]
    --seed N                      partitioner seed           [default: 24397]
    --workers N                   fork-join width for partition/trace/compare
                                  (and solver threads for solve); defaults to
                                  the TEMPART_WORKERS env var, else 1 —
                                  results are bit-identical at every width
";

#[derive(Debug)]
struct Options {
    case: MeshCase,
    depth: Option<u8>,
    strategy: PartitionStrategy,
    domains: usize,
    processes: usize,
    cores: usize,
    seed: u64,
    latency: u64,
    net: Option<String>,
    iterations: usize,
    heun: bool,
    mu: Option<f64>,
    groups: usize,
    workers: Option<usize>,
    repair: bool,
    gantt: bool,
    svg: Option<PathBuf>,
    vtk: Option<PathBuf>,
    csv: Option<PathBuf>,
    graph_file: Option<PathBuf>,
    out: Option<PathBuf>,
    ndjson: Option<PathBuf>,
    steps: u32,
    budgets: Vec<f64>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            case: MeshCase::Cylinder,
            depth: None,
            strategy: PartitionStrategy::McTl,
            domains: 32,
            processes: 8,
            cores: 4,
            seed: 0x5F4D,
            latency: 0,
            net: None,
            iterations: 3,
            heun: false,
            mu: None,
            groups: 2,
            workers: None,
            repair: false,
            gantt: false,
            svg: None,
            vtk: None,
            csv: None,
            graph_file: None,
            out: None,
            ndjson: None,
            steps: 8,
            budgets: vec![0.01, 0.02, 0.05],
        }
    }
}

fn parse_strategy(s: &str) -> Result<PartitionStrategy, String> {
    match s {
        "uniform" => Ok(PartitionStrategy::Uniform),
        "sc_oc" => Ok(PartitionStrategy::ScOc),
        "mc_tl" => Ok(PartitionStrategy::McTl),
        "sfc_z" => Ok(PartitionStrategy::SfcOc {
            curve: Curve::Morton,
        }),
        "sfc_h" => Ok(PartitionStrategy::SfcOc {
            curve: Curve::Hilbert,
        }),
        _ => {
            if let Some(k) = s.strip_prefix("dual:") {
                let k = parse_positive(k, "--strategy dual:<k>")?;
                Ok(PartitionStrategy::DualPhase {
                    domains_per_process: k,
                })
            } else {
                Err(format!("unknown strategy {s:?}"))
            }
        }
    }
}

fn parse_case(s: &str) -> Result<MeshCase, String> {
    match s {
        "cylinder" => Ok(MeshCase::Cylinder),
        "cube" => Ok(MeshCase::Cube),
        "pprime" | "pprime_nozzle" => Ok(MeshCase::PprimeNozzle),
        _ => Err(format!("unknown case {s:?}")),
    }
}

/// Parses a count option that must be at least 1 (the layers below assert
/// on zero, which would surface as a panic instead of a usage error).
fn parse_positive(value: &str, flag: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut i = 0;
    let take = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--case" => o.case = parse_case(&take(args, &mut i, "--case")?)?,
            "--mesh" => o.case = parse_case(&take(args, &mut i, "--mesh")?)?,
            "--depth" => {
                o.depth = Some(
                    take(args, &mut i, "--depth")?
                        .parse()
                        .map_err(|e| format!("--depth: {e}"))?,
                )
            }
            "--strategy" => o.strategy = parse_strategy(&take(args, &mut i, "--strategy")?)?,
            "--domains" => {
                o.domains = parse_positive(&take(args, &mut i, "--domains")?, "--domains")?
            }
            "--processes" => {
                o.processes = parse_positive(&take(args, &mut i, "--processes")?, "--processes")?
            }
            "--cores" => o.cores = parse_positive(&take(args, &mut i, "--cores")?, "--cores")?,
            "--seed" => {
                o.seed = take(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--latency" => {
                o.latency = take(args, &mut i, "--latency")?
                    .parse()
                    .map_err(|e| format!("--latency: {e}"))?
            }
            "--net" => o.net = Some(take(args, &mut i, "--net")?),
            "--iterations" => {
                o.iterations = take(args, &mut i, "--iterations")?
                    .parse()
                    .map_err(|e| format!("--iterations: {e}"))?
            }
            "--groups" => o.groups = parse_positive(&take(args, &mut i, "--groups")?, "--groups")?,
            "--workers" => {
                o.workers = Some(parse_positive(
                    &take(args, &mut i, "--workers")?,
                    "--workers",
                )?)
            }
            "--heun" => o.heun = true,
            "--mu" => {
                // A negative viscosity runs the solver backwards in time and
                // a non-finite one ends in a NaN state; so does −0, whose
                // sign turns the viscous time step limit into −∞.
                let s = take(args, &mut i, "--mu")?;
                let mu: f64 = s.parse().map_err(|e| format!("--mu: {e}"))?;
                if !(mu.is_finite() && mu.is_sign_positive()) {
                    return Err(format!("--mu {s} is not a finite viscosity ≥ 0"));
                }
                o.mu = Some(mu)
            }
            "--repair" => o.repair = true,
            "--gantt" => o.gantt = true,
            "--vtk" => o.vtk = Some(PathBuf::from(take(args, &mut i, "--vtk")?)),
            "--svg" => o.svg = Some(PathBuf::from(take(args, &mut i, "--svg")?)),
            "--csv" => o.csv = Some(PathBuf::from(take(args, &mut i, "--csv")?)),
            "--graph" => o.graph_file = Some(PathBuf::from(take(args, &mut i, "--graph")?)),
            "--out" => o.out = Some(PathBuf::from(take(args, &mut i, "--out")?)),
            "--ndjson" => o.ndjson = Some(PathBuf::from(take(args, &mut i, "--ndjson")?)),
            "--steps" => {
                let steps = parse_positive(&take(args, &mut i, "--steps")?, "--steps")?;
                o.steps = u32::try_from(steps).map_err(|e| format!("--steps: {e}"))?
            }
            "--budgets" => {
                o.budgets = take(args, &mut i, "--budgets")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|e| format!("--budgets: {e}"))
                            .and_then(|f| {
                                if f > 0.0 && f.is_finite() {
                                    Ok(f)
                                } else {
                                    Err(format!("--budgets: bad fraction {s:?}"))
                                }
                            })
                    })
                    .collect::<Result<Vec<f64>, String>>()?
            }
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    // Checks that need two options at once, whatever order they came in.
    if let Some(depth) = o.depth {
        o.case.check_base_depth(depth)?;
    }
    if let PartitionStrategy::DualPhase {
        domains_per_process: k,
    } = o.strategy
    {
        if o.domains % k != 0 {
            return Err(format!(
                "--domains {} is not a multiple of the dual factor {k}",
                o.domains
            ));
        }
    }
    Ok(o)
}

fn build_mesh(o: &Options) -> Mesh {
    let base_depth = o.depth.unwrap_or_else(|| o.case.default_base_depth());
    o.case.generate(&GeneratorConfig { base_depth })
}

/// The mesh of a subcommand that splits it into `--domains` parts: more
/// domains than cells cannot all be used, and the layers below would report
/// quality against per-domain targets of less than one cell.
fn mesh_to_partition(o: &Options) -> Result<Mesh, String> {
    let mesh = build_mesh(o);
    if o.domains > mesh.n_cells() {
        return Err(format!(
            "--domains {} exceeds the mesh's {} cells",
            o.domains,
            mesh.n_cells()
        ));
    }
    Ok(mesh)
}

/// Fork-join width for the partitioning/sweep stages: `--workers` if given,
/// else the process-wide `TEMPART_WORKERS` knob (default 1 = sequential).
fn fj_workers(o: &Options) -> usize {
    o.workers.unwrap_or_else(env_workers)
}

/// The untraced execution context of a subcommand: `workers` wide over
/// `pool`.
fn untraced(workers: usize, pool: &WorkspacePool) -> Exec<'_> {
    Exec::new(workers, pool, Recorder::off())
}

/// A failure on a file as the CLI reports it: the path, then the cause.
fn at<E: std::fmt::Display>(path: &Path) -> impl Fn(E) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

fn cmd_gen(o: &Options) -> Result<(), String> {
    let mesh = build_mesh(o);
    println!(
        "{}: {} cells, {} faces, τ histogram {:?}",
        o.case.name(),
        mesh.n_cells(),
        mesh.n_faces(),
        level_histogram(&mesh)
    );
    if let Some(path) = &o.vtk {
        tempart::mesh::write_vtk(&mesh, None, path).map_err(at(path))?;
        println!("wrote {}", path.display());
    }
    if let Some(path) = &o.csv {
        std::fs::write(path, tempart::mesh::cells_csv(&mesh, None)).map_err(at(path))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Partition an external METIS-format graph file (`--graph`).
fn cmd_partition_file(o: &Options, path: &Path) -> Result<(), String> {
    use tempart::partition::{partition_graph, PartitionConfig};
    let text = std::fs::read_to_string(path).map_err(at(path))?;
    let graph = tempart::graph::parse_metis_graph(&text).map_err(at(path))?;
    if o.domains > graph.nvtx() {
        return Err(format!(
            "--domains {} exceeds the graph's {} vertices",
            o.domains,
            graph.nvtx()
        ));
    }
    let ub = if graph.ncon() > 1 { 1.10 } else { 1.05 };
    let cfg = PartitionConfig::new(o.domains)
        .with_ub(ub)
        .with_seed(o.seed);
    let part = partition_graph(&graph, &cfg);
    let q = PartitionQuality::measure(&graph, &part, o.domains);
    println!(
        "{}: {} vertices, {} edges, {} constraints × {} parts",
        path.display(),
        graph.nvtx(),
        graph.nedges(),
        graph.ncon(),
        o.domains
    );
    println!("  edge cut        : {}", q.edge_cut);
    println!("  comm volume     : {}", q.comm_volume);
    println!("  max imbalance   : {:.3}", q.max_imbalance());
    if let Some(out) = &o.out {
        std::fs::write(out, tempart::graph::to_metis_partition(&part)).map_err(at(out))?;
        println!("wrote {}", out.display());
    }
    Ok(())
}

fn cmd_partition(o: &Options) -> Result<(), String> {
    if let Some(path) = o.graph_file.clone() {
        return cmd_partition_file(o, &path);
    }
    let mesh = mesh_to_partition(o)?;
    let workers = fj_workers(o);
    let pool = WorkspacePool::new(workers);
    let exec = untraced(workers, &pool);
    let (part, repair_note) = if o.repair {
        // Repair is a sequential global pass; the decomposition under it is
        // identical to the parallel one, so nothing is lost running the
        // combined entry point here.
        let (part, report) =
            decompose_with_repair(&mesh, o.strategy, o.domains, o.seed, Recorder::off());
        (
            part,
            format!(
                " (repair: {} fragments, {} cells moved)",
                report.fragments_moved, report.vertices_moved
            ),
        )
    } else {
        (
            decompose_with(&mesh, o.strategy, o.domains, o.seed, &exec),
            String::new(),
        )
    };
    let g = mesh.to_graph();
    let q = PartitionQuality::measure(&g, &part, o.domains);
    println!(
        "{} × {} domains via {} ({} worker{}){repair_note}",
        o.case.name(),
        o.domains,
        o.strategy.label(),
        workers,
        if workers == 1 { "" } else { "s" }
    );
    println!("  edge cut        : {}", q.edge_cut);
    println!("  comm volume     : {}", q.comm_volume);
    println!("  max imbalance   : {:.3}", q.max_imbalance());
    println!(
        "  components      : {} ({} extra)",
        q.part_components,
        q.part_components.saturating_sub(o.domains)
    );
    if let Some(path) = &o.vtk {
        tempart::mesh::write_vtk(&mesh, Some(&part), path).map_err(at(path))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// The network `simulate` / `portfolio` price communication with, and how
/// to name it in a header line. `--net` takes a topology preset;
/// `--latency L` is shorthand for the per-message model (uniform
/// latency-only links, unbounded channels); neither is free communication.
fn network_of(o: &Options) -> Result<(Option<NetworkModel>, String), String> {
    Ok(match (&o.net, o.latency) {
        (Some(preset), _) => (Some(parse_preset(preset)?), format!("net {preset}")),
        (None, 0) => (None, "free communication".into()),
        (None, lat) => (
            Some(NetworkModel::per_object(lat, 0)),
            format!("latency {lat}"),
        ),
    })
}

fn cmd_simulate(o: &Options) -> Result<(), String> {
    let mesh = mesh_to_partition(o)?;
    let cluster = ClusterConfig::new(o.processes, o.cores);
    let config = PipelineConfig {
        strategy: o.strategy,
        n_domains: o.domains,
        cluster,
        scheduling: Strategy::EagerFifo,
        seed: o.seed,
    };
    let (net, _) = network_of(o)?;
    let workers = fj_workers(o);
    let pool = WorkspacePool::new(workers);
    let out = run_flusim_with(&mesh, &config, net.as_ref(), &untraced(workers, &pool))?;
    println!(
        "{} × {} domains via {} on {}p×{}c",
        o.case.name(),
        o.domains,
        o.strategy.label(),
        o.processes,
        o.cores
    );
    println!("  makespan        : {}", out.makespan());
    println!("  critical path   : {}", out.graph.critical_path());
    println!(
        "  idle fraction   : {:.1}%",
        out.sim.idle_fraction(&cluster) * 100.0
    );
    println!("  tasks           : {}", out.graph.len());
    if let Some(stats) = &out.sim.net {
        println!(
            "  comm time       : {} ({} messages, {} bytes)",
            stats.total_comm_time(),
            stats.total_messages(),
            stats.total_bytes()
        );
        println!(
            "  overlap         : {:.1}% of comm hidden under compute",
            stats.overlap_efficiency() * 100.0
        );
    }
    if o.gantt {
        println!(
            "{}",
            ascii_gantt(
                &out.graph,
                &out.sim.segments,
                o.processes,
                out.sim.makespan,
                100
            )
        );
    }
    Ok(())
}

fn cmd_trace(o: &Options) -> Result<(), String> {
    use tempart::obs::{export, replay, schema};
    let mesh = mesh_to_partition(o)?;
    let cluster = ClusterConfig::new(o.processes, o.cores);
    let config = PipelineConfig {
        strategy: o.strategy,
        n_domains: o.domains,
        cluster,
        scheduling: Strategy::EagerFifo,
        seed: o.seed,
    };
    let workers = fj_workers(o);
    let rec = Recorder::new(1 << 18);
    let pool = WorkspacePool::new(workers);
    let exec = Exec::new(workers, &pool, &rec);
    let out = run_flusim_with(&mesh, &config, None, &exec)?;
    let trace = rec.take();
    if trace.dropped > 0 {
        return Err(format!(
            "trace buffer overflow: {} events dropped",
            trace.dropped
        ));
    }

    // Replay verification: schedule statistics recomputed purely from the
    // emitted events must be *bit-identical* to the simulator's accounting.
    let r = replay::replay_tasks(
        &trace.events,
        "flusim.task",
        o.processes,
        out.graph.n_subiterations as usize,
    );
    if r.makespan != out.sim.makespan {
        return Err(format!(
            "replay makespan {} != simulator {}",
            r.makespan, out.sim.makespan
        ));
    }
    if r.busy != out.sim.busy {
        return Err("replayed per-process busy time diverged from simulator".into());
    }
    let cores = cluster.total_cores().expect("bounded cluster") as u64;
    let replay_idle = replay::idle_fraction(r.makespan, &r.busy, cores);
    let sim_idle = out.sim.idle_fraction(&cluster);
    if replay_idle.to_bits() != sim_idle.to_bits() {
        return Err(format!(
            "replayed idle fraction {replay_idle} != simulator {sim_idle}"
        ));
    }

    let json = export::chrome_trace(&trace);
    let summary = schema::check_chrome_trace(&json)
        .map_err(|e| format!("exported trace failed schema check: {e}"))?;
    let path = o.out.clone().unwrap_or_else(|| PathBuf::from("trace.json"));
    std::fs::write(&path, &json).map_err(at(&path))?;

    println!(
        "{} × {} domains via {} on {}p×{}c",
        o.case.name(),
        o.domains,
        o.strategy.label(),
        o.processes,
        o.cores
    );
    println!("  events recorded : {}", trace.events.len());
    println!("  makespan        : {} (replay-verified)", out.makespan());
    println!(
        "  idle fraction   : {:.1}% (replay-verified)",
        sim_idle * 100.0
    );
    println!(
        "  chrome trace    : {} ({} events, schema-checked)",
        path.display(),
        summary.events
    );
    if let Some(nd) = &o.ndjson {
        std::fs::write(nd, export::ndjson(&trace)).map_err(at(nd))?;
        println!("  ndjson          : {}", nd.display());
    }
    Ok(())
}

fn cmd_solve(o: &Options) -> Result<(), String> {
    let mesh = mesh_to_partition(o)?;
    let workers = env_workers();
    let pool = WorkspacePool::new(workers);
    let exec = untraced(workers, &pool);
    let part = decompose_with(&mesh, o.strategy, o.domains, o.seed, &exec);
    let config = SolverConfig {
        cfl: 0.4,
        integration: if o.heun {
            TimeIntegration::Heun
        } else {
            TimeIntegration::ForwardEuler
        },
        viscosity: o.mu.map(Viscosity::air),
    };
    let mut solver = Solver::new(
        &mesh,
        &part,
        o.domains,
        config,
        blast_initial([0.35, 0.5, 0.5], 0.15),
    );
    println!(
        "{}: {} cells, {} tasks/iteration ({:?})",
        o.case.name(),
        mesh.n_cells(),
        solver.graph().len(),
        config.integration
    );
    let runtime = RuntimeConfig::new(o.groups, o.workers.unwrap_or(2));
    let group_of = block_process_map(o.domains, o.groups);
    let before = solver.totals();
    for it in 0..o.iterations {
        let report = solver.run_iteration(&runtime, &group_of, Recorder::off());
        println!(
            "  iteration {it}: {} tasks in {:?} (t = {:.5})",
            report.executed, report.wall, solver.time
        );
    }
    let after = solver.totals();
    let state = solver.state();
    println!(
        "  physical: {}, relative mass drift {:.2e}",
        state.is_physical(),
        ((after[0] - before[0]) / before[0]).abs()
    );
    Ok(())
}

fn cmd_portfolio(o: &Options) -> Result<(), String> {
    let mesh = mesh_to_partition(o)?;
    let cluster = ClusterConfig::new(o.processes, o.cores);
    let config = PipelineConfig {
        strategy: o.strategy,
        n_domains: o.domains,
        cluster,
        // Ignored by the race — every lattice point runs, including the
        // four fixed strategies.
        scheduling: Strategy::EagerFifo,
        seed: o.seed,
    };
    let (net, net_label) = network_of(o)?;
    let workers = fj_workers(o);
    let pool = WorkspacePool::new(workers);
    let out = run_portfolio(&mesh, &config, net.as_ref(), &untraced(workers, &pool))?;
    println!(
        "{} × {} domains via {} on {}p×{}c — racing {} scheduler combos under {} ({} worker{})",
        o.case.name(),
        o.domains,
        o.strategy.label(),
        o.processes,
        o.cores,
        out.leaderboard.entries.len(),
        net_label,
        workers,
        if workers == 1 { "" } else { "s" }
    );
    println!(
        "  {:>4}  {:<20} {:>9} {:>7} {:>10}",
        "rank", "combo", "makespan", "idle%", "max-inact%"
    );
    for (rank, e) in out.leaderboard.entries.iter().enumerate() {
        let idle = e
            .idle_fraction
            .map_or_else(|| "    -".into(), |f| format!("{:5.1}", f * 100.0));
        let max_inact = e.inactivity.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "  {:>4}  {:<20} {:>9} {:>7} {:>10.1}",
            rank,
            e.strategy.label(),
            e.makespan,
            idle,
            max_inact * 100.0
        );
    }
    let winner = out.leaderboard.winner();
    let fifo = out
        .leaderboard
        .entry(&DynamicListStrategy::from(Strategy::EagerFifo))
        .expect("eager-fifo is a lattice point");
    println!(
        "  winner {} vs eager-fifo (pinned): {:.3}x  (critical path {})",
        winner.strategy.label(),
        fifo.makespan as f64 / winner.makespan as f64,
        out.graph.critical_path()
    );
    println!(
        "  leaderboard fingerprint: {:016x} (bit-identical at every --workers)",
        out.leaderboard.fingerprint()
    );
    Ok(())
}

/// Runs one drift sequence per repartitioning mode and prints the
/// quality-vs-migration frontier: from-scratch as the quality anchor,
/// diffusion unbounded, then diffusion at each `--budgets` fraction of the
/// cell count per step.
fn cmd_repart(o: &Options) -> Result<(), String> {
    let mesh = mesh_to_partition(o)?;
    let workers = fj_workers(o);
    let n = mesh.n_cells();
    let seq_cfg = |mode: RepartMode| RepartSequenceConfig {
        strategy: o.strategy,
        ..RepartSequenceConfig::graded_cylinder(o.domains, o.seed, o.steps, mode)
    };
    println!(
        "{} ({} cells) × {} domains via {}, {} drift steps ({} worker{})",
        o.case.name(),
        n,
        o.domains,
        o.strategy.label(),
        o.steps,
        workers,
        if workers == 1 { "" } else { "s" }
    );
    println!(
        "graded front radii [0.08, 0.20, 0.40], centre +x 0.01/step; \
         migration priced at 40 B/cell"
    );
    println!();
    println!(
        "{:<22} {:>10} {:>12} {:>10} {:>9} {:>9}",
        "mode", "moved", "volume", "MiB", "imb-ceil", "edge-cut"
    );
    let mut rows = Vec::new();
    let pool = WorkspacePool::new(workers);
    let mut run = |label: String, mode: RepartMode| {
        let out = repartition_sequence(&mesh, &seq_cfg(mode), &untraced(workers, &pool));
        println!(
            "{label:<22} {:>10} {:>12} {:>10.2} {:>9.3} {:>9}",
            out.total_cells_moved(),
            out.total_migration_volume(),
            out.total_migration_bytes() as f64 / (1024.0 * 1024.0),
            out.imbalance_ceiling(),
            out.final_edge_cut(),
        );
        rows.push((label, out));
    };
    run("scratch".into(), RepartMode::Scratch);
    run("diffusion".into(), RepartMode::Diffusion { budget: None });
    for &frac in &o.budgets {
        let budget = (n as f64 * frac).ceil() as u64;
        run(
            format!("diffusion b={frac}"),
            RepartMode::Diffusion {
                budget: Some(budget),
            },
        );
    }
    // A diffusion row that degraded says so: steps that ran out of rounds
    // with load still above an allowance.
    for (label, out) in &rows {
        let capped = || {
            out.steps
                .iter()
                .map(|s| &s.stats)
                .filter(|s| s.stop == RepartStop::RoundCap)
        };
        if let Some(worst) = capped().max_by_key(|s| s.over_allowance) {
            println!(
                "{label}: {} of {} steps hit the {}-round cap, worst residual {} weight units \
                 over the allowance",
                capped().count(),
                out.steps.len(),
                worst.rounds,
                worst.over_allowance,
            );
        }
    }
    let scratch = &rows[0].1;
    let diffusion = &rows[1].1;
    let ratio =
        scratch.total_migration_volume() as f64 / diffusion.total_migration_volume().max(1) as f64;
    println!();
    println!(
        "diffusion moved {:.1}x less volume than from-scratch {} \
         (imbalance ceiling {:.3} vs {:.3})",
        ratio,
        o.strategy.label(),
        diffusion.imbalance_ceiling(),
        scratch.imbalance_ceiling(),
    );
    Ok(())
}

fn cmd_compare(o: &Options) -> Result<(), String> {
    let mesh = mesh_to_partition(o)?;
    let cluster = ClusterConfig::new(o.processes, o.cores);
    println!(
        "{} ({} cells), {} domains on {}p x {}c:",
        o.case.name(),
        mesh.n_cells(),
        o.domains,
        o.processes,
        o.cores
    );
    // Independent experiments: fan them out as parallel sweep jobs
    // (results are bit-identical at every width). SC_OC and MC_TL stay in
    // slots 0/1 — the headline speedup line below reads them by index; the
    // SFC baselines ride along for the quality columns.
    let strategies = [
        PartitionStrategy::ScOc,
        PartitionStrategy::McTl,
        PartitionStrategy::SfcOc {
            curve: Curve::Morton,
        },
        PartitionStrategy::SfcOc {
            curve: Curve::Hilbert,
        },
    ];
    let jobs: Vec<(&Mesh, PipelineConfig)> = strategies
        .iter()
        .map(|&strategy| {
            (
                &mesh,
                PipelineConfig {
                    strategy,
                    n_domains: o.domains,
                    cluster,
                    scheduling: Strategy::EagerFifo,
                    seed: o.seed,
                },
            )
        })
        .collect();
    let workers = fj_workers(o);
    let pool = WorkspacePool::new(workers);
    let outcomes = run_sweep(&jobs, &untraced(workers, &pool));
    let mut spans = Vec::new();
    for (strategy, out) in strategies.iter().copied().zip(outcomes) {
        println!(
            "  {:<9} makespan {:>8}  idle {:>5.1}%  cut {:>7}  interprocess {:>7}",
            strategy.label(),
            out.makespan(),
            out.sim.idle_fraction(&cluster) * 100.0,
            out.quality.edge_cut,
            out.interprocess_cut
        );
        if let Some(dir) = &o.svg {
            std::fs::create_dir_all(dir).map_err(at(dir))?;
            let path = dir.join(format!(
                "{}.svg",
                strategy.label().to_lowercase().replace(['(', ')'], "")
            ));
            tempart::flusim::write_gantt_svg(
                &out.graph,
                &out.sim.segments,
                o.processes,
                out.sim.makespan,
                &format!("{} / {}", o.case.name(), strategy.label()),
                &path,
            )
            .map_err(at(&path))?;
            println!("         trace written to {}", path.display());
        }
        spans.push(out.makespan());
    }
    println!(
        "  speedup MC_TL over SC_OC: {:.2}x",
        spans[0] as f64 / spans[1] as f64
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // Only a usage error (bad option, unknown command) earns the usage
    // text; a run that failed prints its one `error:` line alone.
    let usage_error = |e: String| {
        eprintln!("error: {e}");
        eprint!("{USAGE}");
        ExitCode::FAILURE
    };
    let o = match parse_options(&args[1..]) {
        Ok(o) => o,
        Err(e) => return usage_error(e),
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&o),
        "partition" => cmd_partition(&o),
        "simulate" => cmd_simulate(&o),
        "trace" => cmd_trace(&o),
        "compare" => cmd_compare(&o),
        "portfolio" => cmd_portfolio(&o),
        "solve" => cmd_solve(&o),
        "repart" => cmd_repart(&o),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => return usage_error(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
