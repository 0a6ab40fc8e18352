//! The end-to-end experiment pipeline:
//! mesh → strategy → domains → task graph → FLUSIM simulation.

use crate::strategy::{decompose_par_traced, decompose_traced, PartitionStrategy};
use std::sync::Mutex;
use tempart_flusim::portfolio::{race_network_traced, race_traced, Leaderboard};
use tempart_flusim::{
    simulate_lattice_with_network_traced, simulate_traced, ClusterConfig, Link, NetworkModel,
    SimResult, Strategy, UNBOUNDED_CHANNELS,
};
use tempart_graph::{PartId, PartitionQuality};
use tempart_mesh::Mesh;
use tempart_obs::Recorder;
use tempart_partition::WorkspacePool;
use tempart_runtime::fork_join;
use tempart_taskgraph::{
    generate_taskgraph_traced, stats::block_process_map, DomainDecomposition, TaskGraph,
    TaskGraphConfig,
};

/// Everything one FLUSIM experiment needs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Partitioning strategy.
    pub strategy: PartitionStrategy,
    /// Number of extraction domains.
    pub n_domains: usize,
    /// Emulated cluster.
    pub cluster: ClusterConfig,
    /// Scheduling policy.
    pub scheduling: Strategy,
    /// Partitioner seed.
    pub seed: u64,
}

impl PipelineConfig {
    /// The configuration used by most of the paper's FLUSIM experiments:
    /// 16 processes × 32 cores, eager scheduling.
    pub fn paper_default(strategy: PartitionStrategy, n_domains: usize) -> Self {
        Self {
            strategy,
            n_domains,
            cluster: ClusterConfig::new(16, 32),
            scheduling: Strategy::EagerFifo,
            seed: 0x5EED,
        }
    }
}

/// Result bundle of one FLUSIM experiment.
#[derive(Debug, Clone)]
pub struct FlusimOutcome {
    /// Per-cell domain assignment.
    pub part: Vec<PartId>,
    /// Partition quality of the decomposition (cut, volume, imbalance,
    /// contiguity).
    pub quality: PartitionQuality,
    /// The generated task DAG.
    pub graph: TaskGraph,
    /// Domain → process mapping used.
    pub process_of: Vec<usize>,
    /// Simulation result (makespan, traces, activity).
    pub sim: SimResult,
    /// Estimated inter-process communication: cut edges whose endpoints'
    /// domains live on different processes (the paper's Fig. 11b metric).
    pub interprocess_cut: i64,
}

impl FlusimOutcome {
    /// Simulated makespan.
    pub fn makespan(&self) -> u64 {
        self.sim.makespan
    }
}

/// Generates the task graph and simulates a given decomposition on a
/// cluster. Domains map onto processes in contiguous blocks.
pub fn simulate_decomposition(
    mesh: &Mesh,
    part: &[PartId],
    n_domains: usize,
    cluster: &ClusterConfig,
    scheduling: Strategy,
) -> (TaskGraph, Vec<usize>, SimResult) {
    simulate_decomposition_traced(mesh, part, n_domains, cluster, scheduling, Recorder::off())
}

/// Like [`simulate_decomposition`], recording the task-graph generator's
/// `tg.*` events and the simulator's `flusim.*` events into `rec`.
pub fn simulate_decomposition_traced(
    mesh: &Mesh,
    part: &[PartId],
    n_domains: usize,
    cluster: &ClusterConfig,
    scheduling: Strategy,
    rec: &Recorder,
) -> (TaskGraph, Vec<usize>, SimResult) {
    let dd = DomainDecomposition::new(mesh, part, n_domains);
    let graph = generate_taskgraph_traced(mesh, &dd, &TaskGraphConfig::default(), rec);
    let process_of = block_process_map(n_domains, cluster.n_processes);
    let sim = simulate_traced(&graph, cluster, &process_of, scheduling, rec);
    (graph, process_of, sim)
}

/// Runs the full pipeline: partition, generate, simulate, measure.
pub fn run_flusim(mesh: &Mesh, config: &PipelineConfig) -> FlusimOutcome {
    run_flusim_traced(mesh, config, Recorder::off())
}

/// Like [`run_flusim`], recording structured events from every stage into
/// `rec`: a `"core.pipeline"` wall span, the partitioner's `part.*` events,
/// the generator's `tg.*` events, the simulator's `flusim.*` events, and a
/// final `"core.interprocess_cut"` counter.
pub fn run_flusim_traced(mesh: &Mesh, config: &PipelineConfig, rec: &Recorder) -> FlusimOutcome {
    let _span = rec.span("core.pipeline", 0, config.n_domains as u64);
    let part = decompose_traced(mesh, config.strategy, config.n_domains, config.seed, rec);
    finish_flusim(mesh, part, config, None, 1, rec).expect(FREE_COMM_IS_VALID)
}

/// [`run_flusim`] under an explicit [`NetworkModel`]: cross-process halo
/// exchanges become first-class NIC transfers priced by the model. The
/// model's message sizes are *replaced* by the halo byte table of this
/// run's own decomposition ([`NetworkModel::with_halo`], per-face payload
/// from [`TaskGraphConfig::face_payload_bytes`]) — callers pick a topology
/// preset; the pipeline derives what each pair of domains actually
/// exchanges.
///
/// # Errors
///
/// Returns the [`NetworkModel::validate`] message when the model cannot
/// price this run's task graph (zero channels, a matrix of the wrong order,
/// link costs that would overflow the simulated clock).
pub fn run_flusim_network(
    mesh: &Mesh,
    config: &PipelineConfig,
    net: &NetworkModel,
) -> Result<FlusimOutcome, String> {
    run_flusim_network_traced(
        mesh,
        config,
        net,
        1,
        &WorkspacePool::new(1),
        Recorder::off(),
    )
}

/// Traced [`run_flusim_network`] with the partitioning and
/// domain-classification stages fanned out over `workers` (bit-identical
/// at every width). Adds the simulator's `net.*` events to the usual
/// pipeline vocabulary.
pub fn run_flusim_network_traced(
    mesh: &Mesh,
    config: &PipelineConfig,
    net: &NetworkModel,
    workers: usize,
    pool: &WorkspacePool,
    rec: &Recorder,
) -> Result<FlusimOutcome, String> {
    let _span = rec.span("core.pipeline", 0, config.n_domains as u64);
    let part = decompose_par_traced(
        mesh,
        config.strategy,
        config.n_domains,
        config.seed,
        workers,
        pool,
        rec,
    );
    finish_flusim(mesh, part, config, Some(net), workers, rec)
}

/// [`run_flusim`] with the partitioning stage fanned out over `workers`
/// fork-join workers (fresh workspace pool). The outcome is bit-identical
/// to [`run_flusim`] at every worker count — only partition wall-clock
/// changes.
pub fn run_flusim_workers(mesh: &Mesh, config: &PipelineConfig, workers: usize) -> FlusimOutcome {
    run_flusim_workers_traced(
        mesh,
        config,
        workers,
        &WorkspacePool::new(workers),
        Recorder::off(),
    )
}

/// Traced [`run_flusim_workers`]: the partitioner runs through
/// [`decompose_par_traced`] with per-branch workspaces from `pool` (reuse
/// one pool across calls to keep repeated runs allocation-warm), and the
/// domain-classification stage feeding the task-graph generator is sharded
/// over the same width ([`DomainDecomposition::new_sharded`]); the
/// task-graph generator itself and the FLUSIM event loop stay sequential.
pub fn run_flusim_workers_traced(
    mesh: &Mesh,
    config: &PipelineConfig,
    workers: usize,
    pool: &WorkspacePool,
    rec: &Recorder,
) -> FlusimOutcome {
    let _span = rec.span("core.pipeline", 0, config.n_domains as u64);
    let part = decompose_par_traced(
        mesh,
        config.strategy,
        config.n_domains,
        config.seed,
        workers,
        pool,
        rec,
    );
    finish_flusim(mesh, part, config, None, workers, rec).expect(FREE_COMM_IS_VALID)
}

/// Why the free-communication entry points unwrap [`finish_flusim`].
const FREE_COMM_IS_VALID: &str = "only a network model can fail validation";

/// The pipeline stages downstream of the partition: quality measurement,
/// task-graph generation, FLUSIM simulation and the inter-process cut
/// estimate. Shared by the sequential and parallel-partitioner entry
/// points; `workers` shards the domain-classification stage
/// (bit-identical at every width — see
/// [`DomainDecomposition::new_sharded`]). With `net` set, the simulation
/// runs under the network model with halo-derived message sizes attached
/// from this decomposition — and may be rejected by
/// [`NetworkModel::validate`], the only error this stage returns.
fn finish_flusim(
    mesh: &Mesh,
    part: Vec<PartId>,
    config: &PipelineConfig,
    net: Option<&NetworkModel>,
    workers: usize,
    rec: &Recorder,
) -> Result<FlusimOutcome, String> {
    let cell_graph = mesh.to_graph();
    let quality = PartitionQuality::measure(&cell_graph, &part, config.n_domains);
    let dd = DomainDecomposition::new_sharded(mesh, &part, config.n_domains, workers);
    let tg_config = TaskGraphConfig::default();
    let graph = generate_taskgraph_traced(mesh, &dd, &tg_config, rec);
    let process_of = block_process_map(config.n_domains, config.cluster.n_processes);
    let sim = match net {
        Some(model) => {
            let model = model.clone().with_halo(&dd, tg_config.face_payload_bytes);
            model.validate(&graph, config.cluster.n_processes)?;
            simulate_lattice_with_network_traced(
                &graph,
                &config.cluster,
                &process_of,
                &config.scheduling.into(),
                &model,
                rec,
            )
        }
        None => simulate_traced(&graph, &config.cluster, &process_of, config.scheduling, rec),
    };

    // Inter-process communication estimate: edges between cells whose
    // domains sit on different processes.
    let proc_of_cell: Vec<usize> = part.iter().map(|&d| process_of[d as usize]).collect();
    let mut interprocess_cut = 0i64;
    for v in 0..cell_graph.nvtx() as u32 {
        for (u, w) in cell_graph.neighbors(v).zip(cell_graph.edge_weights(v)) {
            if proc_of_cell[v as usize] != proc_of_cell[u as usize] {
                interprocess_cut += i64::from(w);
            }
        }
    }
    interprocess_cut /= 2;
    if rec.enabled() {
        rec.counter("core.interprocess_cut", 0, interprocess_cut as u64);
    }

    Ok(FlusimOutcome {
        part,
        quality,
        graph,
        process_of,
        sim,
        interprocess_cut,
    })
}

/// Result bundle of a portfolio race: one partition, one task graph, the
/// full scheduler-lattice leaderboard.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Per-cell domain assignment.
    pub part: Vec<PartId>,
    /// Partition quality of the decomposition.
    pub quality: PartitionQuality,
    /// The generated task DAG (shared by every raced combo).
    pub graph: TaskGraph,
    /// Domain → process mapping used as the *home* mapping by every combo.
    pub process_of: Vec<usize>,
    /// Ranked per-combo leaderboard, best makespan first.
    pub leaderboard: Leaderboard,
}

/// Partitions `mesh` once, generates the task graph once, then races the
/// full scheduler strategy lattice (24 combos — see
/// [`tempart_flusim::DynamicListStrategy::lattice`]) on `workers` fork-join
/// workers. `config.scheduling` is ignored: the race covers every lattice
/// point, including all four legacy strategies.
pub fn run_portfolio(mesh: &Mesh, config: &PipelineConfig, workers: usize) -> PortfolioOutcome {
    run_portfolio_traced(
        mesh,
        config,
        workers,
        &WorkspacePool::new(workers),
        Recorder::off(),
    )
}

/// Traced [`run_portfolio`]: a `"core.portfolio"` wall span around the
/// parallel partitioner (`part.*` events, per-branch workspaces from
/// `pool`), the task-graph generator (`tg.*`) and the portfolio racer
/// (`portfolio.*` plus every combo's absorbed `flusim.*` stream, merged in
/// combo order). The leaderboard — down to the f64 bits of every ratio —
/// is bit-identical at every worker count.
pub fn run_portfolio_traced(
    mesh: &Mesh,
    config: &PipelineConfig,
    workers: usize,
    pool: &WorkspacePool,
    rec: &Recorder,
) -> PortfolioOutcome {
    let _span = rec.span("core.portfolio", 0, config.n_domains as u64);
    let part = decompose_par_traced(
        mesh,
        config.strategy,
        config.n_domains,
        config.seed,
        workers,
        pool,
        rec,
    );
    let cell_graph = mesh.to_graph();
    let quality = PartitionQuality::measure(&cell_graph, &part, config.n_domains);
    let dd = DomainDecomposition::new_sharded(mesh, &part, config.n_domains, workers);
    let graph = generate_taskgraph_traced(mesh, &dd, &TaskGraphConfig::default(), rec);
    let process_of = block_process_map(config.n_domains, config.cluster.n_processes);
    let leaderboard = race_traced(&graph, &config.cluster, &process_of, workers, rec);
    PortfolioOutcome {
        part,
        quality,
        graph,
        process_of,
        leaderboard,
    }
}

/// [`run_portfolio`] under a [`NetworkModel`]: every lattice combo pays
/// for its halo exchanges (message sizes attached from this run's own
/// decomposition, like [`run_flusim_network`]). Comm-bound leaderboards
/// reward combos that keep successors near their predecessors.
pub fn run_portfolio_network(
    mesh: &Mesh,
    config: &PipelineConfig,
    net: &NetworkModel,
    workers: usize,
) -> PortfolioOutcome {
    run_portfolio_network_traced(
        mesh,
        config,
        net,
        workers,
        &WorkspacePool::new(workers),
        Recorder::off(),
    )
}

/// Traced [`run_portfolio_network`] — the event vocabulary of
/// [`run_portfolio_traced`] plus every combo's `net.*` stream. The
/// leaderboard stays bit-identical at every worker count.
pub fn run_portfolio_network_traced(
    mesh: &Mesh,
    config: &PipelineConfig,
    net: &NetworkModel,
    workers: usize,
    pool: &WorkspacePool,
    rec: &Recorder,
) -> PortfolioOutcome {
    let _span = rec.span("core.portfolio", 0, config.n_domains as u64);
    let part = decompose_par_traced(
        mesh,
        config.strategy,
        config.n_domains,
        config.seed,
        workers,
        pool,
        rec,
    );
    let cell_graph = mesh.to_graph();
    let quality = PartitionQuality::measure(&cell_graph, &part, config.n_domains);
    let dd = DomainDecomposition::new_sharded(mesh, &part, config.n_domains, workers);
    let tg_config = TaskGraphConfig::default();
    let graph = generate_taskgraph_traced(mesh, &dd, &tg_config, rec);
    let process_of = block_process_map(config.n_domains, config.cluster.n_processes);
    let model = net.clone().with_halo(&dd, tg_config.face_payload_bytes);
    let leaderboard =
        race_network_traced(&graph, &config.cluster, &process_of, &model, workers, rec);
    PortfolioOutcome {
        part,
        quality,
        graph,
        process_of,
        leaderboard,
    }
}

/// One swept latency point of a [`comm_crossover`] experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommCrossoverRow {
    /// Uniform per-message latency of this row's network model.
    pub latency: u64,
    /// Makespan per partitioning strategy, indexed like the `strategies`
    /// argument.
    pub makespans: Vec<u64>,
}

/// Result of a [`comm_crossover`] latency sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommCrossover {
    /// The compared partitioning strategies, in caller order.
    pub strategies: Vec<PartitionStrategy>,
    /// One row per swept latency, ascending caller order.
    pub rows: Vec<CommCrossoverRow>,
}

impl CommCrossover {
    /// The smallest swept latency at which strategy `challenger` is
    /// *strictly slower* than strategy `baseline` (both indices into
    /// [`Self::strategies`]); `None` if the challenger holds on across the
    /// whole sweep. This is the paper-motivated question "above which
    /// network latency does MC_TL's balance advantage erode?".
    pub fn crossover_latency(&self, challenger: usize, baseline: usize) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.makespans[challenger] > r.makespans[baseline])
            .map(|r| r.latency)
    }
}

/// Sweeps a uniform-latency network model over `latencies` for each
/// partitioning strategy: partition once per strategy, generate its task
/// graph once, then simulate under
/// `NetworkModel::uniform({latency, cost_per_byte: 0}, unbounded)` with
/// halo-derived message sizes. Every cross-process halo exchange then
/// costs exactly `latency` — the sweep the `ext_comm` experiment reports,
/// now first-class. Results are a pure function of the inputs,
/// bit-identical at every `workers` width.
pub fn comm_crossover(
    mesh: &Mesh,
    n_domains: usize,
    cluster: &ClusterConfig,
    strategies: &[PartitionStrategy],
    latencies: &[u64],
    seed: u64,
    workers: usize,
) -> CommCrossover {
    comm_crossover_with(
        mesh,
        n_domains,
        cluster,
        strategies,
        latencies,
        0,
        UNBOUNDED_CHANNELS,
        seed,
        workers,
    )
}

/// [`comm_crossover`] with the remaining network knobs exposed: every
/// swept point uses `Link { latency, cost_per_byte }` links and `channels`
/// NIC channels per process. A non-zero per-byte cost makes a strategy's
/// *cut size* matter (bigger halos pay more), and bounded channels make
/// its total inbound volume serialize — the regime where MC_TL's larger
/// cut genuinely erodes its balance advantage.
#[allow(clippy::too_many_arguments)]
pub fn comm_crossover_with(
    mesh: &Mesh,
    n_domains: usize,
    cluster: &ClusterConfig,
    strategies: &[PartitionStrategy],
    latencies: &[u64],
    cost_per_byte: u64,
    channels: usize,
    seed: u64,
    workers: usize,
) -> CommCrossover {
    let pool = WorkspacePool::new(workers.max(1));
    let process_of = block_process_map(n_domains, cluster.n_processes);
    let tg_config = TaskGraphConfig::default();
    // Partition once per strategy; keep each decomposition for its halo
    // byte table.
    let prepared: Vec<_> = strategies
        .iter()
        .map(|&s| {
            let part =
                decompose_par_traced(mesh, s, n_domains, seed, workers, &pool, Recorder::off());
            let dd = DomainDecomposition::new_sharded(mesh, &part, n_domains, workers);
            let graph = generate_taskgraph_traced(mesh, &dd, &tg_config, Recorder::off());
            (dd, graph)
        })
        .collect();
    let rows = latencies
        .iter()
        .map(|&latency| {
            let link = Link {
                latency,
                cost_per_byte,
            };
            let makespans = prepared
                .iter()
                .map(|(dd, graph)| {
                    let net = NetworkModel::uniform(link, channels)
                        .with_halo(dd, tg_config.face_payload_bytes);
                    simulate_lattice_with_network_traced(
                        graph,
                        cluster,
                        &process_of,
                        &Strategy::EagerFifo.into(),
                        &net,
                        Recorder::off(),
                    )
                    .makespan
                })
                .collect();
            CommCrossoverRow { latency, makespans }
        })
        .collect();
    CommCrossover {
        strategies: strategies.to_vec(),
        rows,
    }
}

/// Per-job event capacity of the isolated sweep recorders. Overflow is
/// never silent: dropped counts are carried into the parent recorder by
/// [`Recorder::absorb`].
const SWEEP_JOB_CAPACITY: usize = 1 << 16;

/// Runs a batch of independent experiments (`(mesh, config)` pairs — e.g. a
/// per-strategy × per-mesh sweep) as parallel fork-join jobs. Convenience
/// wrapper over [`run_sweep_traced`] without tracing.
pub fn run_sweep(jobs: &[(&Mesh, PipelineConfig)], workers: usize) -> Vec<FlusimOutcome> {
    run_sweep_traced(jobs, workers, Recorder::off())
}

/// Traced parallel sweep with **stable sequence re-keying**.
///
/// Each job runs the full pipeline ([`run_flusim_workers_traced`], with
/// whatever fork-join width is left over after the job list has claimed its
/// share — see `sweep_inner_workers`) against its *own* isolated
/// [`Recorder`], so concurrent jobs never interleave their event streams;
/// outcomes land in disjoint per-job slots.
/// After the fork-join scope drains, the driver absorbs each job's drained
/// trace into `rec` **in job order** ([`Recorder::absorb`] assigns fresh,
/// monotone sequence numbers) — the merged stream and the returned
/// `Vec<FlusimOutcome>` (indexed like `jobs`) are pure functions of the job
/// list, independent of worker count and steal order. The `ci.sh` worker
/// matrix pins this end to end.
///
/// # Panics
///
/// If a job panics, the panic is caught *inside* the job (so the other
/// jobs' recorder events are never lost to an unwinding fork-join scope),
/// every completed job's trace is still absorbed in fixed job order, and
/// then the first panic — by job index, not by completion time — is
/// re-raised on the calling thread.
pub fn run_sweep_traced(
    jobs: &[(&Mesh, PipelineConfig)],
    workers: usize,
    rec: &Recorder,
) -> Vec<FlusimOutcome> {
    type JobSlot = Result<(FlusimOutcome, tempart_obs::Trace), Box<dyn std::any::Any + Send>>;
    let _span = rec.span("core.sweep", 0, jobs.len() as u64);
    let tracing = rec.enabled();
    let slots: Vec<Mutex<Option<JobSlot>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let inner_workers = sweep_inner_workers(workers, jobs.len());
    let pool = WorkspacePool::new(workers.max(1));
    {
        let slots = &slots;
        let pool = &pool;
        fork_join(workers, move |ctx| {
            for (i, (mesh, config)) in jobs.iter().enumerate() {
                ctx.spawn(move |_| {
                    let job_rec = if tracing {
                        Recorder::new(SWEEP_JOB_CAPACITY)
                    } else {
                        Recorder::off().clone()
                    };
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_flusim_workers_traced(mesh, config, inner_workers, pool, &job_rec)
                    }));
                    let trace = job_rec.take();
                    *slots[i].lock().expect("sweep slot poisoned") =
                        Some(outcome.map(|o| (o, trace)));
                });
            }
        });
    }
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for slot in slots {
        match slot
            .into_inner()
            .expect("sweep slot poisoned")
            .expect("sweep job did not run")
        {
            Ok((outcome, trace)) => {
                rec.absorb(&trace);
                outcomes.push(outcome);
            }
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    outcomes
}

/// Fork-join width each sweep job may use *internally* (the sharded
/// `decompose → taskgraph` stage): the leftover parallelism once the job
/// list itself has claimed its share. With at least as many jobs as
/// workers this is 1 (all parallelism spent across jobs); a short job list
/// on a wide pool hands the spare width to each job's intra-job stages.
fn sweep_inner_workers(workers: usize, n_jobs: usize) -> usize {
    (workers / n_jobs.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_mesh::{cube_like, GeneratorConfig};

    fn small_mesh() -> Mesh {
        cube_like(&GeneratorConfig { base_depth: 4 })
    }

    #[test]
    fn pipeline_produces_consistent_bundle() {
        let m = small_mesh();
        let cfg = PipelineConfig {
            strategy: PartitionStrategy::ScOc,
            n_domains: 8,
            cluster: ClusterConfig::new(4, 2),
            scheduling: Strategy::EagerFifo,
            seed: 7,
        };
        let out = run_flusim(&m, &cfg);
        assert_eq!(out.part.len(), m.n_cells());
        assert_eq!(out.process_of.len(), 8);
        assert_eq!(out.sim.total_executed(), out.graph.total_cost());
        assert!(out.makespan() >= out.graph.critical_path());
        assert!(out.interprocess_cut > 0);
        assert!(out.interprocess_cut <= out.quality.edge_cut);
    }

    #[test]
    fn mc_tl_not_slower_than_sc_oc_on_hotspot_mesh() {
        // The headline claim, on a small instance: MC_TL's makespan does not
        // exceed SC_OC's.
        let m = small_mesh();
        let mk = |strategy| {
            run_flusim(
                &m,
                &PipelineConfig {
                    strategy,
                    n_domains: 8,
                    cluster: ClusterConfig::new(4, 4),
                    scheduling: Strategy::EagerFifo,
                    seed: 3,
                },
            )
        };
        let sc = mk(PartitionStrategy::ScOc);
        let mc = mk(PartitionStrategy::McTl);
        assert_eq!(sc.graph.total_cost(), mc.graph.total_cost());
        assert!(
            mc.makespan() <= sc.makespan(),
            "MC_TL {} vs SC_OC {}",
            mc.makespan(),
            sc.makespan()
        );
    }

    #[test]
    fn workers_variant_is_bit_identical_to_sequential() {
        let m = small_mesh();
        for strategy in [
            PartitionStrategy::ScOc,
            PartitionStrategy::McTl,
            PartitionStrategy::DualPhase {
                domains_per_process: 4,
            },
        ] {
            let cfg = PipelineConfig {
                strategy,
                n_domains: 8,
                cluster: ClusterConfig::new(4, 2),
                scheduling: Strategy::EagerFifo,
                seed: 11,
            };
            let seq = run_flusim(&m, &cfg);
            let pool = WorkspacePool::new(4);
            for workers in [1usize, 2, 4] {
                let par = run_flusim_workers_traced(&m, &cfg, workers, &pool, Recorder::off());
                assert_eq!(par.part, seq.part, "{strategy:?} workers={workers}");
                assert_eq!(par.quality, seq.quality, "{strategy:?} workers={workers}");
                assert_eq!(
                    par.sim.segments, seq.sim.segments,
                    "{strategy:?} workers={workers}"
                );
                assert_eq!(par.interprocess_cut, seq.interprocess_cut);
            }
        }
    }

    #[test]
    fn sweep_results_and_trace_are_schedule_independent() {
        let m = small_mesh();
        let mk = |strategy, seed| PipelineConfig {
            strategy,
            n_domains: 8,
            cluster: ClusterConfig::new(4, 2),
            scheduling: Strategy::EagerFifo,
            seed,
        };
        let jobs: Vec<(&Mesh, PipelineConfig)> = vec![
            (&m, mk(PartitionStrategy::ScOc, 1)),
            (&m, mk(PartitionStrategy::McTl, 1)),
            (&m, mk(PartitionStrategy::Uniform, 2)),
            (&m, mk(PartitionStrategy::ScOc, 3)),
        ];
        // Reference: each job run alone, sequentially.
        let solo: Vec<FlusimOutcome> = jobs.iter().map(|(m, c)| run_flusim(m, c)).collect();
        for workers in [1usize, 2, 4] {
            let rec = Recorder::new(1 << 18);
            let got = run_sweep_traced(&jobs, workers, &rec);
            assert_eq!(got.len(), jobs.len());
            for (i, (g, s)) in got.iter().zip(&solo).enumerate() {
                assert_eq!(g.part, s.part, "job {i} workers={workers}");
                assert_eq!(g.makespan(), s.makespan(), "job {i} workers={workers}");
                assert_eq!(g.sim.segments, s.sim.segments, "job {i} workers={workers}");
            }
            let trace = rec.take();
            assert_eq!(trace.dropped, 0, "workers={workers}");
            // Stable re-keying: the virtual-clock event stream (the
            // deterministic subset — wall timestamps vary run to run) must
            // be identical at every width: same names, same payloads, same
            // job order.
            let virt: Vec<_> = trace
                .events
                .iter()
                .filter(|e| e.clock == tempart_obs::Clock::Virtual)
                .map(|e| (e.name, e.track, e.t, e.val, e.a, e.b))
                .collect();
            assert!(!virt.is_empty());
            // Compare against the single-worker merge.
            let rec1 = Recorder::new(1 << 18);
            let _ = run_sweep_traced(&jobs, 1, &rec1);
            let virt1: Vec<_> = rec1
                .take()
                .events
                .iter()
                .filter(|e| e.clock == tempart_obs::Clock::Virtual)
                .map(|e| (e.name, e.track, e.t, e.val, e.a, e.b))
                .collect();
            assert_eq!(virt, virt1, "workers={workers}: merged stream diverged");
        }
    }

    #[test]
    fn sweep_job_panic_propagates_after_absorbing_completed_jobs() {
        // A single bad job (n_domains = 0 trips the partitioner's assert)
        // must not hang the sweep, and must not silently discard the
        // recorder events of the jobs that finished.
        let m = small_mesh();
        let mk = |n_domains, seed| PipelineConfig {
            strategy: PartitionStrategy::ScOc,
            n_domains,
            cluster: ClusterConfig::new(4, 2),
            scheduling: Strategy::EagerFifo,
            seed,
        };
        let jobs: Vec<(&Mesh, PipelineConfig)> = vec![
            (&m, mk(8, 1)),
            (&m, mk(0, 1)), // panics: "need at least one domain"
            (&m, mk(8, 2)),
        ];
        for workers in [1usize, 2, 4] {
            let rec = Recorder::new(1 << 18);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_sweep_traced(&jobs, workers, &rec)
            }));
            let err = result.expect_err("sweep must re-raise the job panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| (*err.downcast_ref::<&str>().unwrap()).to_string());
            assert!(
                msg.contains("need at least one domain"),
                "workers={workers}: {msg}"
            );
            // Both healthy jobs were absorbed before the re-raise: their
            // pipeline spans are present in the merged trace.
            let trace = rec.take();
            let pipelines = trace
                .events
                .iter()
                .filter(|e| e.name == "core.pipeline")
                .count();
            assert!(
                pipelines >= 2,
                "workers={workers}: expected both completed jobs' traces, saw {pipelines} pipeline event(s)"
            );
        }
    }

    #[test]
    fn zero_cost_network_pipeline_matches_the_free_pipeline() {
        let m = small_mesh();
        let cfg = PipelineConfig {
            strategy: PartitionStrategy::McTl,
            n_domains: 8,
            cluster: ClusterConfig::new(4, 2),
            scheduling: Strategy::EagerFifo,
            seed: 7,
        };
        let free = run_flusim(&m, &cfg);
        let zero = run_flusim_network(&m, &cfg, &NetworkModel::zero_cost()).unwrap();
        assert_eq!(zero.sim.makespan, free.sim.makespan);
        assert_eq!(zero.sim.segments, free.sim.segments);
        // Zero-byte links deliver instantly, so no transfer ever gates a
        // task — but the transfers themselves are still priced (at zero).
        assert!(zero.sim.net.is_some());
        assert!(free.sim.net.is_none());
    }

    #[test]
    fn priced_network_pipeline_slows_and_stays_worker_invariant() {
        let m = small_mesh();
        let cfg = PipelineConfig {
            strategy: PartitionStrategy::McTl,
            n_domains: 8,
            cluster: ClusterConfig::new(4, 2),
            scheduling: Strategy::EagerFifo,
            seed: 7,
        };
        let net = NetworkModel::uniform(
            Link {
                latency: 100,
                cost_per_byte: 1,
            },
            2,
        );
        let free = run_flusim(&m, &cfg);
        let paid = run_flusim_network(&m, &cfg, &net).unwrap();
        assert!(paid.sim.makespan > free.sim.makespan);
        let stats = paid.sim.net.as_ref().expect("network stats");
        assert!(stats.total_messages() > 0);
        assert!(stats.total_bytes() > 0);
        let pool = WorkspacePool::new(4);
        for workers in [2usize, 4] {
            let par =
                run_flusim_network_traced(&m, &cfg, &net, workers, &pool, Recorder::off()).unwrap();
            assert_eq!(par.sim.segments, paid.sim.segments, "workers={workers}");
            assert_eq!(par.sim.transfers, paid.sim.transfers, "workers={workers}");
            assert_eq!(par.sim.net, paid.sim.net, "workers={workers}");
        }
    }

    #[test]
    fn comm_crossover_matches_the_legacy_latency_sweep() {
        // The first-class sweep must reproduce the numbers the old ad-hoc
        // ext_comm loop produced with `CommModel { latency, 0 }`: under
        // pinned placement every cross-process halo exchange costs exactly
        // the latency, because every adjacent-domain pair shares at least
        // one face.
        use tempart_flusim::{simulate_with_comm, CommModel};
        let m = small_mesh();
        let cluster = ClusterConfig::new(4, 4);
        let strategies = [PartitionStrategy::ScOc, PartitionStrategy::McTl];
        let latencies = [0u64, 50, 500];
        let sweep = comm_crossover(&m, 8, &cluster, &strategies, &latencies, 3, 2);
        assert_eq!(sweep.rows.len(), latencies.len());
        let process_of = block_process_map(8, 4);
        for (row, &lat) in sweep.rows.iter().zip(&latencies) {
            assert_eq!(row.latency, lat);
            for (i, &s) in strategies.iter().enumerate() {
                let part = crate::strategy::decompose(&m, s, 8, 3);
                let dd = DomainDecomposition::new(&m, &part, 8);
                let graph = generate_taskgraph_traced(
                    &m,
                    &dd,
                    &TaskGraphConfig::default(),
                    Recorder::off(),
                );
                let legacy = simulate_with_comm(
                    &graph,
                    &cluster,
                    &process_of,
                    Strategy::EagerFifo,
                    &CommModel {
                        latency: lat,
                        cost_per_object: 0,
                    },
                );
                assert_eq!(row.makespans[i], legacy.makespan, "{s:?} latency={lat}");
            }
        }
        // Monotone in latency for each strategy (unbounded channels).
        for i in 0..strategies.len() {
            for w in sweep.rows.windows(2) {
                assert!(w[0].makespans[i] <= w[1].makespans[i]);
            }
        }
    }

    #[test]
    fn mc_tl_costs_more_communication() {
        let m = small_mesh();
        let mk = |strategy| {
            run_flusim(
                &m,
                &PipelineConfig {
                    strategy,
                    n_domains: 8,
                    cluster: ClusterConfig::new(4, 4),
                    scheduling: Strategy::EagerFifo,
                    seed: 3,
                },
            )
        };
        let sc = mk(PartitionStrategy::ScOc);
        let mc = mk(PartitionStrategy::McTl);
        assert!(
            mc.quality.edge_cut > sc.quality.edge_cut,
            "paper Fig 11b: MC_TL cut {} should exceed SC_OC cut {}",
            mc.quality.edge_cut,
            sc.quality.edge_cut
        );
    }
}
