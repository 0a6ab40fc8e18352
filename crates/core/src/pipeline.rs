//! The end-to-end experiment pipeline:
//! mesh → strategy → domains → task graph → FLUSIM simulation.

use crate::exec::Exec;
use crate::strategy::{decompose, decompose_with, PartitionStrategy};
use std::sync::Mutex;
use tempart_flusim::portfolio::{race, Leaderboard};
use tempart_flusim::{
    simulate_traced, simulate_with, ClusterConfig, DynamicListStrategy, Link, NetworkModel,
    SimResult,
};
use tempart_graph::{PartId, PartitionQuality};
use tempart_mesh::Mesh;
use tempart_obs::Recorder;
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
    /// Scheduling policy: a point of the scheduler lattice.
    pub scheduling: DynamicListStrategy,
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
            scheduling: DynamicListStrategy::EAGER_FIFO,
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
    /// contiguity) on the unit-weight cell graph, read off the domain
    /// classification ([`DomainDecomposition::quality`]).
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

/// What every pipeline entry needs downstream of a partition: the classified
/// domains, the task DAG, the block domain→process map and — when a network
/// was asked for — the model with this decomposition's halo sizes attached,
/// already validated against the DAG.
struct Lowered {
    dd: DomainDecomposition,
    graph: TaskGraph,
    process_of: Vec<usize>,
    net: Option<NetworkModel>,
}

/// The shared stage behind every entry point: domain classification (a
/// `tg.domains` wall span into `rec`), task-graph generation (`tg.*`
/// events), contiguous-block process map. A `net`'s message
/// sizes are *replaced* by the halo byte table of this decomposition
/// ([`NetworkModel::with_halo`], per-face payload from
/// [`TaskGraphConfig::face_payload_bytes`]) — callers pick a topology
/// preset; the pipeline derives what each pair of domains actually
/// exchanges — and the result must pass [`NetworkModel::validate`], the
/// only error this stage returns.
fn lower(
    mesh: &Mesh,
    part: &[PartId],
    n_domains: usize,
    cluster: &ClusterConfig,
    net: Option<&NetworkModel>,
    rec: &Recorder,
) -> Result<Lowered, String> {
    let dd = {
        let _span = rec.span("tg.domains", 0, n_domains as u64);
        DomainDecomposition::new(mesh, part, n_domains)
    };
    let tg_config = TaskGraphConfig::default();
    let graph = generate_taskgraph_traced(mesh, &dd, &tg_config, rec);
    let process_of = block_process_map(n_domains, cluster.n_processes);
    let net = net.map(|model| model.clone().with_halo(&dd, tg_config.face_payload_bytes));
    if let Some(model) = &net {
        model.validate(&graph)?;
    }
    Ok(Lowered {
        dd,
        graph,
        process_of,
        net,
    })
}

/// [`lower`] → quality for a finished partition: the prefix the single run
/// and the portfolio race share. The quality figures come off the domain
/// classification's face pass ([`DomainDecomposition::quality`]); no cell
/// graph is built downstream of the partition.
fn prepare(
    mesh: &Mesh,
    part: &[PartId],
    config: &PipelineConfig,
    net: Option<&NetworkModel>,
    rec: &Recorder,
) -> Result<(PartitionQuality, Lowered), String> {
    let (k, cluster) = (config.n_domains, &config.cluster);
    let lowered = lower(mesh, part, k, cluster, net, rec)?;
    Ok((lowered.dd.quality(), lowered))
}

/// Generates the task graph and simulates a given decomposition on a
/// cluster (free communication). Domains map onto processes in contiguous
/// blocks; `rec` receives the task-graph generator's `tg.*` events and the
/// simulator's `flusim.*` events.
pub fn simulate_decomposition(
    mesh: &Mesh,
    part: &[PartId],
    n_domains: usize,
    cluster: &ClusterConfig,
    scheduling: DynamicListStrategy,
    rec: &Recorder,
) -> (TaskGraph, Vec<usize>, SimResult) {
    let Lowered {
        graph, process_of, ..
    } = lower(mesh, part, n_domains, cluster, None, rec).expect(FREE_COMM_IS_VALID);
    let sim = simulate_traced(&graph, cluster, &process_of, scheduling, rec);
    (graph, process_of, sim)
}

/// Why the free-communication entry points unwrap the shared stage.
const FREE_COMM_IS_VALID: &str = "only a network model can fail validation";

/// Runs the full pipeline — partition, generate, simulate, measure — on one
/// worker, free communication, untraced: [`run_flusim_with`] with the
/// partitioner's scratch memory released before the task graph is built.
pub fn run_flusim(mesh: &Mesh, config: &PipelineConfig) -> FlusimOutcome {
    let part = decompose(mesh, config.strategy, config.n_domains, config.seed);
    simulate_partition(mesh, part, config, None, Recorder::off()).expect(FREE_COMM_IS_VALID)
}

/// Runs the full pipeline: partition, generate, simulate, measure — the
/// general entry.
///
/// The partitioner fans out over `exec.workers` (domain classification, the
/// task-graph generator and the FLUSIM event loop are sequential); the
/// outcome is bit-identical at every width. With `net`
/// set, cross-process halo exchanges become first-class NIC transfers
/// priced by the model, with message sizes derived from this run's own
/// decomposition (see [`NetworkModel::with_halo`]); `None` is the paper's
/// free communication.
///
/// `exec.rec` receives a `"core.pipeline"` wall span, the partitioner's
/// `part.*` events, the generator's `tg.*` events, the simulator's
/// `flusim.*` (and `net.*`) events, and a final `"core.interprocess_cut"`
/// counter.
///
/// # Errors
///
/// Returns the [`NetworkModel::validate`] message when the model cannot
/// price this run's task graph (zero channels, zero processes per node, link
/// costs that would overflow the simulated clock). Free communication never
/// fails.
pub fn run_flusim_with(
    mesh: &Mesh,
    config: &PipelineConfig,
    net: Option<&NetworkModel>,
    exec: &Exec,
) -> Result<FlusimOutcome, String> {
    let _span = exec.rec.span("core.pipeline", 0, config.n_domains as u64);
    let part = decompose_with(mesh, config.strategy, config.n_domains, config.seed, exec);
    simulate_partition(mesh, part, config, net, exec.rec)
}

/// The pipeline downstream of the partition: [`prepare`], the FLUSIM
/// simulation of `config.scheduling` and the inter-process cut estimate.
fn simulate_partition(
    mesh: &Mesh,
    part: Vec<PartId>,
    config: &PipelineConfig,
    net: Option<&NetworkModel>,
    rec: &Recorder,
) -> Result<FlusimOutcome, String> {
    let (quality, lowered) = prepare(mesh, &part, config, net, rec)?;
    let Lowered {
        dd,
        graph,
        process_of,
        net,
    } = &lowered;
    let sim = simulate_with(
        graph,
        &config.cluster.cores(),
        process_of,
        &config.scheduling,
        net.as_ref(),
        rec,
    );

    // Inter-process communication estimate: edges between cells whose
    // domains sit on different processes. A cell-graph edge weighs its face
    // multiplicity, so that is the halo table summed over domain pairs on
    // different processes, each pair seen from both sides.
    let mut interprocess_cut = 0i64;
    for (d, &p) in process_of.iter().enumerate() {
        for (n, faces) in dd.halo_of(d as PartId) {
            if process_of[n as usize] != p {
                interprocess_cut += i64::from(faces);
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
        graph: lowered.graph,
        process_of: lowered.process_of,
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
/// [`tempart_flusim::DynamicListStrategy::lattice`]) on `exec.workers`
/// fork-join workers. `config.scheduling` is ignored: the race covers every
/// lattice point, including all four named ones. With `net` set every
/// combo pays for its halo exchanges (message sizes attached from this
/// run's own decomposition, like [`run_flusim_with`]) — comm-bound
/// leaderboards reward combos that keep successors near their predecessors.
///
/// `exec.rec` receives a `"core.portfolio"` wall span around the
/// partitioner (`part.*`), the task-graph generator (`tg.*`) and the racer
/// (`portfolio.*` plus every combo's absorbed `flusim.*` / `net.*` stream,
/// merged in combo order). The leaderboard — down to the f64 bits of every
/// ratio — is bit-identical at every worker count.
///
/// # Errors
///
/// Like [`run_flusim_with`]: the [`NetworkModel::validate`] message of a
/// model that cannot price this run's task graph.
pub fn run_portfolio(
    mesh: &Mesh,
    config: &PipelineConfig,
    net: Option<&NetworkModel>,
    exec: &Exec,
) -> Result<PortfolioOutcome, String> {
    let _span = exec.rec.span("core.portfolio", 0, config.n_domains as u64);
    let part = decompose_with(mesh, config.strategy, config.n_domains, config.seed, exec);
    let (quality, lowered) = prepare(mesh, &part, config, net, exec.rec)?;
    let leaderboard = race(
        &lowered.graph,
        &config.cluster,
        &lowered.process_of,
        lowered.net.as_ref(),
        exec.workers,
        exec.rec,
    );
    Ok(PortfolioOutcome {
        part,
        quality,
        graph: lowered.graph,
        process_of: lowered.process_of,
        leaderboard,
    })
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

/// Sweeps a uniform network model over `latencies` for each partitioning
/// strategy: partition once per strategy (`config.strategy` is ignored —
/// `strategies` names the columns), generate its task graph once, then
/// simulate `config.scheduling` under
/// `NetworkModel::uniform({latency, cost_per_byte}, channels)` with
/// halo-derived message sizes. At `cost_per_byte == 0` on
/// [`tempart_flusim::UNBOUNDED_CHANNELS`] every cross-process halo exchange
/// costs exactly `latency` — the sweep the `ext_comm` experiment reports. A
/// non-zero per-byte cost makes a strategy's *cut size* matter (bigger
/// halos pay more), and bounded channels make its total inbound volume
/// serialize — the regime where MC_TL's larger cut genuinely erodes its
/// balance advantage. Results are a pure function of the inputs,
/// bit-identical at every `exec.workers` width.
///
/// # Panics
///
/// Panics if a swept model fails [`NetworkModel::validate`].
pub fn comm_crossover(
    mesh: &Mesh,
    config: &PipelineConfig,
    strategies: &[PartitionStrategy],
    latencies: &[u64],
    cost_per_byte: u64,
    channels: usize,
    exec: &Exec,
) -> CommCrossover {
    let (cluster, cores) = (&config.cluster, config.cluster.cores());
    // Partition once per strategy; keep each decomposition for its halo
    // byte table.
    let prepared: Vec<Lowered> = strategies
        .iter()
        .map(|&s| {
            let part = decompose_with(mesh, s, config.n_domains, config.seed, exec);
            lower(mesh, &part, config.n_domains, cluster, None, exec.rec).expect(FREE_COMM_IS_VALID)
        })
        .collect();
    let face_payload = TaskGraphConfig::default().face_payload_bytes;
    let rows = latencies
        .iter()
        .map(|&latency| {
            let link = Link {
                latency,
                cost_per_byte,
            };
            let makespans = prepared
                .iter()
                .map(|low| {
                    let net =
                        NetworkModel::uniform(link, channels).with_halo(&low.dd, face_payload);
                    simulate_with(
                        &low.graph,
                        &cores,
                        &low.process_of,
                        &config.scheduling,
                        Some(&net),
                        exec.rec,
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
/// per-strategy × per-mesh sweep) as parallel fork-join jobs on
/// `exec.workers` workers, with **stable sequence re-keying** of the trace.
///
/// Each job runs the full pipeline ([`run_flusim_with`], free
/// communication, with whatever fork-join width is left over after the job
/// list has claimed its share — see `sweep_inner_workers` — and workspaces
/// from the shared `exec.pool`) against its *own* isolated [`Recorder`], so
/// concurrent jobs never interleave their event streams; outcomes land in
/// disjoint per-job slots.
/// After the fork-join scope drains, the driver absorbs each job's drained
/// trace into `exec.rec` **in job order** ([`Recorder::absorb`] assigns
/// fresh, monotone sequence numbers) — the merged stream and the returned
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
pub fn run_sweep(jobs: &[(&Mesh, PipelineConfig)], exec: &Exec) -> Vec<FlusimOutcome> {
    type JobSlot = Result<(FlusimOutcome, tempart_obs::Trace), Box<dyn std::any::Any + Send>>;
    let Exec { workers, pool, rec } = *exec;
    let _span = rec.span("core.sweep", 0, jobs.len() as u64);
    let tracing = rec.enabled();
    let slots: Vec<Mutex<Option<JobSlot>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let inner_workers = sweep_inner_workers(workers, jobs.len());
    {
        let slots = &slots;
        fork_join(workers, move |ctx| {
            for (i, (mesh, config)) in jobs.iter().enumerate() {
                ctx.spawn(move |_| {
                    let job_rec = if tracing {
                        Recorder::new(SWEEP_JOB_CAPACITY)
                    } else {
                        Recorder::off().clone()
                    };
                    let job_exec = Exec::new(inner_workers, pool, &job_rec);
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_flusim_with(mesh, config, None, &job_exec).expect(FREE_COMM_IS_VALID)
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

/// Fork-join width each sweep job may use *internally* (its partitioner):
/// the leftover parallelism once the job list itself has claimed its share.
/// With at least as many jobs as workers this is 1 (all parallelism spent
/// across jobs); a short job list on a wide pool hands the spare width to
/// each job's `decompose`.
fn sweep_inner_workers(workers: usize, n_jobs: usize) -> usize {
    (workers / n_jobs.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_mesh::{cube_like, GeneratorConfig};
    use tempart_partition::WorkspacePool;

    fn small_mesh() -> Mesh {
        cube_like(&GeneratorConfig { base_depth: 4 })
    }

    fn untraced(workers: usize, pool: &WorkspacePool) -> Exec<'_> {
        Exec::new(workers, pool, Recorder::off())
    }

    /// 8 domains on a 4 × 2 cluster, eager FIFO.
    fn config(strategy: PartitionStrategy, seed: u64) -> PipelineConfig {
        PipelineConfig {
            strategy,
            n_domains: 8,
            cluster: ClusterConfig::new(4, 2),
            scheduling: DynamicListStrategy::EAGER_FIFO,
            seed,
        }
    }

    /// Field-for-field equality of two outcomes, floats by bit pattern.
    fn assert_same_outcome(
        a: &FlusimOutcome,
        b: &FlusimOutcome,
        cluster: &ClusterConfig,
        at: &str,
    ) {
        assert_eq!(a.part, b.part, "{at}");
        assert_eq!(a.quality, b.quality, "{at}");
        assert_eq!(a.process_of, b.process_of, "{at}");
        assert_eq!(a.interprocess_cut, b.interprocess_cut, "{at}");
        assert_eq!(a.graph.len(), b.graph.len(), "{at}");
        assert_eq!(a.graph.n_edges(), b.graph.n_edges(), "{at}");
        let (x, y) = (&a.sim, &b.sim);
        assert_eq!(x, y, "{at}");
        assert_eq!(
            x.idle_fraction(cluster).to_bits(),
            y.idle_fraction(cluster).to_bits(),
            "{at}"
        );
        let bits = |s: &SimResult| -> Vec<u64> {
            s.process_inactivity().iter().map(|f| f.to_bits()).collect()
        };
        assert_eq!(bits(x), bits(y), "{at}");
    }

    #[test]
    fn pipeline_produces_consistent_bundle() {
        let m = small_mesh();
        let cfg = config(PartitionStrategy::ScOc, 7);
        let out = run_flusim(&m, &cfg);
        assert_eq!(out.part.len(), m.n_cells());
        assert_eq!(out.process_of.len(), 8);
        assert_eq!(out.sim.total_executed(), out.graph.total_cost());
        assert!(out.makespan() >= out.graph.critical_path());
        assert!(out.interprocess_cut > 0);
        assert!(out.interprocess_cut <= out.quality.edge_cut);
    }

    #[test]
    fn interprocess_cut_is_the_edge_cut_of_the_process_partition() {
        // The halo-table sum against the definition: the cell graph's edge
        // cut under "process of the cell's domain"; the face-pass quality
        // against the cell graph's metrics.
        let m = small_mesh();
        let cell_graph = m.to_graph();
        for strategy in [
            PartitionStrategy::McTl,
            PartitionStrategy::ScOc,
            PartitionStrategy::SfcOc {
                curve: tempart_partition::Curve::Hilbert,
            },
            PartitionStrategy::DualPhase {
                domains_per_process: 2,
            },
        ] {
            let out = run_flusim(&m, &config(strategy, 5));
            let process_of_cell: Vec<PartId> = out
                .part
                .iter()
                .map(|&d| out.process_of[d as usize] as PartId)
                .collect();
            assert_eq!(
                out.interprocess_cut,
                tempart_graph::edge_cut(&cell_graph, &process_of_cell),
                "{strategy:?}"
            );
            assert_eq!(
                out.quality,
                PartitionQuality::measure(&cell_graph, &out.part, 8),
                "{strategy:?}"
            );
            assert!(out.interprocess_cut > 0, "{strategy:?}");
        }
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
                    scheduling: DynamicListStrategy::EAGER_FIFO,
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
        // The seam: `run_flusim` / `decompose` are the general forms at one
        // worker, fresh scratch, free communication, recorder off — and the
        // general forms are invariant under width, pool warmth and tracing.
        let m = small_mesh();
        let net = NetworkModel::uniform(
            Link {
                latency: 100,
                cost_per_byte: 1,
            },
            2,
        );
        // Runs the priced pipeline traced; returns it with its sorted event names.
        let priced_traced = |cfg: &PipelineConfig, workers: usize, pool: &WorkspacePool| {
            let rec = Recorder::new(1 << 18);
            let out = run_flusim_with(&m, cfg, Some(&net), &Exec::new(workers, pool, &rec));
            let trace = rec.take();
            assert_eq!(trace.dropped, 0);
            let mut names: Vec<_> = trace.events.iter().map(|e| e.name).collect();
            names.sort_unstable();
            (out.unwrap(), names)
        };
        for strategy in [
            PartitionStrategy::ScOc,
            PartitionStrategy::McTl,
            PartitionStrategy::DualPhase {
                domains_per_process: 4,
            },
            PartitionStrategy::SfcOc {
                curve: tempart_partition::Curve::Hilbert,
            },
        ] {
            let cfg = config(strategy, 11);
            let seq = run_flusim(&m, &cfg);
            assert_eq!(seq.part, decompose(&m, strategy, 8, 11), "{strategy:?}");
            let fresh = WorkspacePool::new(1);
            let priced = run_flusim_with(&m, &cfg, Some(&net), &untraced(1, &fresh)).unwrap();
            assert!(priced.sim.makespan > seq.sim.makespan, "{strategy:?}");
            let stats = priced.sim.net.as_ref().expect("network stats");
            assert!(stats.total_messages() > 0 && stats.total_bytes() > 0);
            let (_, fresh_names) = priced_traced(&cfg, 1, &WorkspacePool::new(1));
            for expected in ["core.pipeline", "core.decompose", "flusim.run", "net.xfer"] {
                assert!(fresh_names.contains(&expected), "{strategy:?}: {expected}");
            }
            let pool = WorkspacePool::new(4);
            for workers in [1usize, 2, 4] {
                let at = format!("{strategy:?} workers={workers}");
                let exec = untraced(workers, &pool);
                assert_eq!(decompose_with(&m, strategy, 8, 11, &exec), seq.part, "{at}");
                let free = run_flusim_with(&m, &cfg, None, &exec).unwrap();
                assert_same_outcome(&free, &seq, &cfg.cluster, &at);
                let (paid, names) = priced_traced(&cfg, workers, &pool);
                assert_same_outcome(&paid, &priced, &cfg.cluster, &at);
                // At one worker the stream is the sequential span tree; a
                // warm pool must not change which events it holds.
                if workers == 1 {
                    assert_eq!(names, fresh_names, "{at}");
                }
            }
        }
    }

    #[test]
    fn invalid_network_is_an_error_from_single_run_and_portfolio_alike() {
        let m = small_mesh();
        let cfg = config(PartitionStrategy::ScOc, 7);
        let link = Link {
            latency: 10,
            cost_per_byte: 1,
        };
        let huge = Link {
            latency: u64::MAX / 2,
            cost_per_byte: u64::MAX / 2,
        };
        let pool = WorkspacePool::new(1);
        let exec = untraced(1, &pool);
        for (net, needle) in [
            (NetworkModel::uniform(link, 0), "at least one NIC channel"),
            (
                NetworkModel::two_level(0, link, link, 2),
                "at least one process",
            ),
            (
                NetworkModel::uniform(huge, 2),
                "overflows the simulated clock",
            ),
        ] {
            let single = run_flusim_with(&m, &cfg, Some(&net), &exec).map(|_| ());
            let raced = run_portfolio(&m, &cfg, Some(&net), &exec).map(|_| ());
            for (entry, result) in [("single run", single), ("portfolio", raced)] {
                let err = result.expect_err(entry);
                assert!(err.contains(needle), "{entry}: {err}");
            }
        }
    }

    #[test]
    fn sweep_results_and_trace_are_schedule_independent() {
        let m = small_mesh();
        let jobs: Vec<(&Mesh, PipelineConfig)> = vec![
            (&m, config(PartitionStrategy::ScOc, 1)),
            (&m, config(PartitionStrategy::McTl, 1)),
            (&m, config(PartitionStrategy::Uniform, 2)),
            (&m, config(PartitionStrategy::ScOc, 3)),
        ];
        // Reference: each job run alone, sequentially.
        let solo: Vec<FlusimOutcome> = jobs.iter().map(|(m, c)| run_flusim(m, c)).collect();
        for workers in [1usize, 2, 4] {
            let rec = Recorder::new(1 << 18);
            let pool = WorkspacePool::new(workers);
            let got = run_sweep(&jobs, &Exec::new(workers, &pool, &rec));
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
            let _ = run_sweep(&jobs, &Exec::new(1, &pool, &rec1));
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
            scheduling: DynamicListStrategy::EAGER_FIFO,
            seed,
        };
        let jobs: Vec<(&Mesh, PipelineConfig)> = vec![
            (&m, mk(8, 1)),
            (&m, mk(0, 1)), // panics: "need at least one domain"
            (&m, mk(8, 2)),
        ];
        for workers in [1usize, 2, 4] {
            let rec = Recorder::new(1 << 18);
            let pool = WorkspacePool::new(workers);
            let exec = Exec::new(workers, &pool, &rec);
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_sweep(&jobs, &exec)));
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
        let cfg = config(PartitionStrategy::McTl, 7);
        let free = run_flusim(&m, &cfg);
        let pool = WorkspacePool::new(1);
        let zero = run_flusim_with(
            &m,
            &cfg,
            Some(&NetworkModel::zero_cost()),
            &untraced(1, &pool),
        )
        .unwrap();
        assert_eq!(zero.sim.makespan, free.sim.makespan);
        assert_eq!(zero.sim.segments, free.sim.segments);
        // Zero-byte links deliver instantly, so no transfer ever gates a
        // task — but the transfers themselves are still priced (at zero).
        assert!(zero.sim.net.is_some());
        assert!(free.sim.net.is_none());
    }

    #[test]
    fn comm_crossover_charges_every_cross_process_edge_the_latency() {
        // At zero per-byte cost on unbounded channels the sweep charges every
        // cross-process dependency edge exactly the latency: under pinned
        // placement such an edge joins two domains that share at least one
        // face, so its halo message is never empty. The reference prices
        // the same edges by hand — a latency-only link and one byte per
        // message — through the general entry.
        use tempart_flusim::{HaloBytes, UNBOUNDED_CHANNELS};
        let m = small_mesh();
        let cfg = PipelineConfig {
            cluster: ClusterConfig::new(4, 4),
            seed: 3,
            ..PipelineConfig::paper_default(PartitionStrategy::McTl, 8)
        };
        let strategies = [PartitionStrategy::ScOc, PartitionStrategy::McTl];
        let latencies = [0u64, 50, 500];
        let pool = WorkspacePool::new(2);
        let sweep = comm_crossover(
            &m,
            &cfg,
            &strategies,
            &latencies,
            0,
            UNBOUNDED_CHANNELS,
            &untraced(2, &pool),
        );
        assert_eq!(sweep.rows.len(), latencies.len());
        for (row, &lat) in sweep.rows.iter().zip(&latencies) {
            assert_eq!(row.latency, lat);
            for (i, &s) in strategies.iter().enumerate() {
                let part = decompose(&m, s, 8, 3);
                let (graph, process_of, _) = simulate_decomposition(
                    &m,
                    &part,
                    8,
                    &cfg.cluster,
                    DynamicListStrategy::EAGER_FIFO,
                    Recorder::off(),
                );
                let mut pairs = Vec::new();
                for t in 0..graph.len() as u32 {
                    for &s in graph.succs(t) {
                        let (a, b) = (graph.task(t).domain, graph.task(s).domain);
                        if process_of[a as usize] != process_of[b as usize] {
                            pairs.push((a.min(b), a.max(b), 1));
                        }
                    }
                }
                pairs.sort_unstable();
                pairs.dedup();
                let link = Link {
                    latency: lat,
                    cost_per_byte: 0,
                };
                let mut by_hand = NetworkModel::uniform(link, UNBOUNDED_CHANNELS);
                by_hand.sizes = HaloBytes::from_pairs(8, &pairs);
                let reference = simulate_with(
                    &graph,
                    &cfg.cluster.cores(),
                    &process_of,
                    &DynamicListStrategy::EAGER_FIFO,
                    Some(&by_hand),
                    Recorder::off(),
                );
                assert_eq!(row.makespans[i], reference.makespan, "{s:?} latency={lat}");
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
                    scheduling: DynamicListStrategy::EAGER_FIFO,
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
