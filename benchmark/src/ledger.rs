//! The traced run: per-layer metrics of one workload.
//!
//! Three parts, all on the workload's own mesh, domain count and strategy
//! (instance 0 of the panel, i.e. `--seed` itself):
//!
//! 1. **Layer probes** — each public stage function called on its own,
//!    recorder off, median of a few repetitions. Stages that are not on the
//!    workload's operation path are probed all the same, so every workload
//!    reports every per-layer metric.
//! 2. **Obs-derived numbers** — the same calls once more with an enabled
//!    `Recorder` handed to the crates' existing `ws.obs` / `_traced` entry
//!    points, wrapped in benchmark-owned `bench.<layer>.<stage>` spans; self
//!    times and counts come from that stream ([`crate::spans`]).
//! 3. **Staged replay of the operation** — the one-call operation re-run
//!    stage by stage; its stage sum against the one-call time is the
//!    unattributed remainder, its result must be bit-identical, and its
//!    first traced repetition becomes `out/<workload>.trace.json`.

use crate::e2e::{drift_setup, drift_step, DriftInstance, StepOutcome};
use crate::fixtures::{cluster, drift, partition_config, race_network};
use crate::oracle::{guarded, Tally};
use crate::spans::{span_totals, SpanTotals};
use crate::spec::{Kind, Workload, DRIFT_STEPS, PAYLOAD_BYTES};
use crate::stats::{median, splitmix64, timed, Fnv};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tempart_core::{
    decompose, default_repart_config, run_flusim, strategy_weights, PartitionStrategy,
    PipelineConfig,
};
use tempart_flusim::{
    simulate, simulate_lattice_with_network, simulate_lattice_with_network_traced, simulate_traced,
    ClusterConfig, NetworkModel, Strategy,
};
use tempart_graph::{CsrGraph, MigrationStats, PartId, PartitionQuality};
use tempart_mesh::Mesh;
use tempart_obs::{
    export::chrome_trace, schema::check_chrome_trace, Kind as EventKind, Recorder, Trace,
};
use tempart_partition::{
    bisect::multilevel_bisection,
    coarsen::coarsen_ws,
    diffusion_plan,
    initial::initial_bisection,
    partition_graph_par_traced, partition_graph_with,
    refine::{fm_refine_ws, project, rebalance_ws},
    repartition_ws, sfc_partition_with, Curve, PartitionWorkspace, SfcWorkspace, WorkspacePool,
};
use tempart_runtime::fork_join;
use tempart_taskgraph::{
    generate_taskgraph, generate_taskgraph_traced, stats::block_process_map, DomainDecomposition,
    TaskGraph, TaskGraphConfig,
};
use tempart_testkit::alloc::count_allocations;
use tempart_testkit::rng::Rng;

/// Per-thread event capacity of the traced recorder. The largest stream is
/// one traced network simulation (`8·tasks + 2·edges` events, about 10⁵
/// here); `obs.dropped` reports any overflow and fails the run.
const RECORDER_CAPACITY: usize = 1 << 21;

/// Non-span events of each name that go through the schema check.
const SCHEMA_SAMPLE: usize = 16;

/// Everything the traced run measured.
#[derive(Debug)]
pub struct Traced {
    /// Bit-identity and schema checks attempted / failed.
    pub tally: Tally,
    /// The per-layer metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// In-operation stage medians of the staged replay, in stage order.
    pub stages: Vec<(&'static str, f64)>,
    /// Width the `_w2` variants ran at (`min(2, nproc)`).
    pub par_width: usize,
    /// Bytes summed by `calib.stream_s`.
    pub stream_bytes: usize,
}

/// Probe timing and bookkeeping.
struct Ledger {
    metrics: BTreeMap<&'static str, f64>,
    tally: Tally,
    /// Wall-time budget of one probe; a probe stops repeating once spent.
    budget_s: f64,
    max_reps: usize,
    dropped: u64,
}

impl Ledger {
    /// Repeats `f` (at least once, at most `max_reps` times, until the probe
    /// budget is spent), records the median wall time under `name` and
    /// returns the last result.
    fn time<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) -> R {
        self.time_with(name, || (), |()| f())
    }

    /// [`Ledger::time`] with an untimed per-repetition preparation.
    fn time_with<S, R>(
        &mut self,
        name: &'static str,
        mut prep: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> R {
        let started = Instant::now();
        let mut samples = Vec::new();
        loop {
            let input = prep();
            let (r, dt) = timed(|| f(input));
            samples.push(dt);
            if samples.len() >= self.max_reps || started.elapsed().as_secs_f64() >= self.budget_s {
                self.metrics.insert(name, median(&samples));
                return r;
            }
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics[name]
    }

    fn check(&mut self, what: &str, ok: bool) {
        let outcome = if ok {
            Ok(())
        } else {
            Err("results differ".to_string())
        };
        self.tally.record(what, outcome);
    }

    /// Drains `rec`, keeping count of lost events.
    fn drain(&mut self, rec: &Recorder) -> Trace {
        let trace = rec.take();
        self.dropped += trace.dropped;
        trace
    }

    /// Span totals of `trace`; a malformed stream is a failed check.
    fn totals(&mut self, what: &str, trace: &Trace) -> BTreeMap<&'static str, SpanTotals> {
        let totals = span_totals(&trace.events);
        self.tally
            .record(what, totals.as_ref().map(|_| ()).map_err(Clone::clone));
        totals.unwrap_or_default()
    }
}

fn self_s(totals: &BTreeMap<&'static str, SpanTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_ns as f64 * 1e-9)
}

/// `(stage span name, seconds)` of one staged operation, in call order.
type StageTimes = Vec<(&'static str, f64)>;

/// Benchmark-owned spans around the stages of one staged operation.
struct Stages<'r> {
    rec: &'r Recorder,
    run: u64,
    times: StageTimes,
}

impl<'r> Stages<'r> {
    fn new(rec: &'r Recorder, run: u64) -> Self {
        Self {
            rec,
            run,
            times: Vec::new(),
        }
    }

    fn stage<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = self.rec.span(name, 0, self.run);
        let (r, dt) = timed(f);
        self.times.push((name, dt));
        r
    }
}

/// The comparable part of a pipeline outcome.
#[derive(Debug, PartialEq, Eq)]
struct PipelineResult {
    part_fnv: u64,
    makespan: u64,
    edge_cut: i64,
    interprocess_cut: i64,
}

/// `core::run_flusim`, stage by stage through the crates' public functions.
/// Workspaces are created inside their stage and intermediates are released
/// in a stage of their own, as `core::decompose` and `finish_flusim` do, so
/// the stage sum is comparable with the one-call time.
fn staged_pipeline(
    mesh: &Mesh,
    strategy: PartitionStrategy,
    k: usize,
    seed: u64,
    cluster: &ClusterConfig,
    st: &mut Stages<'_>,
) -> PipelineResult {
    let rec = st.rec;
    let part = {
        let graph = st.stage("bench.mesh.to_graph", || mesh.to_graph());
        let (weights, ncon) = st.stage("bench.core.weights", || strategy_weights(mesh, strategy));
        match strategy {
            PartitionStrategy::SfcOc { curve } => {
                let (centroids, weights) =
                    st.stage("bench.core.sfc_inputs", || sfc_inputs(mesh, weights));
                let part = st.stage("bench.partition.sfc", || {
                    let mut ws = SfcWorkspace::new();
                    ws.obs = rec.clone();
                    sfc_partition_with(&centroids, &weights, k, curve, 1, &mut ws)
                });
                st.stage("bench.core.release", || drop((graph, centroids, weights)));
                part
            }
            _ => {
                let weighted = st.stage("bench.graph.reweight", || {
                    graph.with_vertex_weights(weights, ncon)
                });
                let part = st.stage("bench.partition.graph", || {
                    let mut ws = PartitionWorkspace::new();
                    ws.obs = rec.clone();
                    partition_graph_with(&weighted, &partition_config(k, ncon, seed), &mut ws)
                });
                st.stage("bench.core.release", || drop((graph, weighted)));
                part
            }
        }
    };
    let cell_graph = st.stage("bench.mesh.to_graph", || mesh.to_graph());
    let quality = st.stage("bench.graph.quality", || {
        PartitionQuality::measure(&cell_graph, &part, k)
    });
    let dd = st.stage("bench.taskgraph.domains", || {
        DomainDecomposition::new_sharded(mesh, &part, k, 1)
    });
    let graph = st.stage("bench.taskgraph.generate", || {
        generate_taskgraph_traced(mesh, &dd, &TaskGraphConfig::default(), rec)
    });
    let process_of = st.stage("bench.core.process_map", || {
        block_process_map(k, cluster.n_processes)
    });
    let sim = st.stage("bench.flusim.simulate", || {
        simulate_traced(&graph, cluster, &process_of, Strategy::EagerFifo, rec)
    });
    let interprocess_cut = st.stage("bench.core.interprocess_cut", || {
        let proc_of_cell: Vec<usize> = part.iter().map(|&d| process_of[d as usize]).collect();
        let mut cut = 0i64;
        for v in 0..cell_graph.nvtx() as u32 {
            let (adj, wgt) = cell_graph.adjacency(v);
            for (&u, &w) in adj.iter().zip(wgt) {
                if proc_of_cell[v as usize] != proc_of_cell[u as usize] {
                    cut += i64::from(w);
                }
            }
        }
        cut / 2
    });
    let result = PipelineResult {
        part_fnv: Fnv::default().part(&part).finish(),
        makespan: sim.makespan,
        edge_cut: quality.edge_cut,
        interprocess_cut,
    };
    // `run_flusim` frees its intermediates before it returns; on a large
    // mesh that is measurable, so it is a stage, not a remainder.
    st.stage("bench.core.release", || drop((cell_graph, dd)));
    result
}

/// Centroids and `u64` weights, the inputs `core::decompose` builds for the
/// curve partitioner.
fn sfc_inputs(mesh: &Mesh, weights: Vec<u32>) -> (Vec<[f64; 3]>, Vec<u64>) {
    let centroids = mesh.cells().iter().map(|c| c.centroid).collect();
    let weights = weights.into_iter().map(u64::from).collect();
    (centroids, weights)
}

/// [`drift_step`] stage by stage; `ws.obs` carries the recorder.
fn staged_drift_step(
    inst: &DriftInstance,
    mesh: &mut Mesh,
    part: &mut [PartId],
    step: u32,
    k: usize,
    ws: &mut PartitionWorkspace,
    st: &mut Stages<'_>,
) -> StepOutcome {
    st.stage("bench.mesh.drift_apply", || inst.drift.apply(mesh, step));
    let (weights, ncon) = st.stage("bench.core.weights", || {
        strategy_weights(mesh, PartitionStrategy::McTl)
    });
    let graph = st.stage("bench.graph.reweight", || {
        inst.cell_graph.with_vertex_weights(weights, ncon)
    });
    let old = part.to_vec();
    st.stage("bench.partition.repart", || {
        repartition_ws(&graph, part, &default_repart_config(k, ncon, None), ws)
    });
    let migration = st.stage("bench.graph.migration_stats", || {
        MigrationStats::measure(&graph, &old, part, k, PAYLOAD_BYTES)
    });
    let quality = st.stage("bench.graph.quality", || {
        PartitionQuality::measure(&graph, part, k)
    });
    StepOutcome { migration, quality }
}

/// One whole drift sequence through [`staged_drift_step`], one `bench.op`
/// span per step; returns the final partition and every step's stage times.
fn staged_drift_sequence(
    inst: &DriftInstance,
    k: usize,
    rec: &Recorder,
    ws: &mut PartitionWorkspace,
) -> (Vec<PartId>, Vec<StageTimes>) {
    let (mut mesh, mut part) = (inst.mesh.clone(), inst.part0.clone());
    let mut times = Vec::new();
    ws.obs = rec.clone();
    for step in 1..=DRIFT_STEPS {
        let run = u64::from(step);
        let mut st = Stages::new(rec, run);
        {
            let _op = rec.span("bench.op", 0, run);
            staged_drift_step(inst, &mut mesh, &mut part, step, k, ws, &mut st);
        }
        times.push(st.times);
    }
    ws.obs = Recorder::off().clone();
    (part, times)
}

/// Per-operation stage sums → median per stage name, in first-seen order.
fn stage_medians(ops: &[StageTimes]) -> StageTimes {
    let mut order: Vec<&'static str> = Vec::new();
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op in ops {
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for &(name, dt) in op {
            if !order.contains(&name) {
                order.push(name);
            }
            *sums.entry(name).or_default() += dt;
        }
        for (name, sum) in sums {
            per_name.entry(name).or_default().push(sum);
        }
    }
    order
        .into_iter()
        .map(|name| (name, median(&per_name[name])))
        .collect()
}

/// What every probe of one traced run shares.
struct Ctx<'a> {
    w: &'a Workload,
    quick: bool,
    /// Seed of panel instance 0.
    seed: u64,
    k: usize,
    strategy: PartitionStrategy,
    /// Width of the `_w2` variants: `min(2, nproc)`.
    par_width: usize,
    cluster: ClusterConfig,
    /// The enabled recorder of the traced calls.
    rec: &'a Recorder,
}

/// The workload's mesh and what the strategy makes of it.
struct Inputs {
    mesh: Mesh,
    cell_graph: CsrGraph,
    /// `cell_graph` under the strategy's weights.
    weighted: CsrGraph,
    /// `core::decompose` of `mesh`.
    part: Vec<PartId>,
}

/// The task graph of `Inputs::part` and how FLUSIM runs it.
struct SimInputs {
    graph: TaskGraph,
    process_of: Vec<usize>,
    net: NetworkModel,
}

/// Runs workload `w` traced. `seconds` scales the per-probe budget; the
/// Chrome trace goes to `out_dir/<workload>.trace.json`.
pub fn run(w: &Workload, seed: u64, seconds: f64, quick: bool, out_dir: &Path) -> Traced {
    let mut l = Ledger {
        metrics: BTreeMap::new(),
        tally: Tally::default(),
        budget_s: seconds / 6.0,
        max_reps: if quick { 1 } else { 5 },
        dropped: 0,
    };
    let rec = Recorder::new(RECORDER_CAPACITY);
    let cx = Ctx {
        w,
        quick,
        seed: w.base_seed(seed),
        k: w.k,
        strategy: w.strategy(),
        par_width: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        cluster: cluster(),
        rec: &rec,
    };
    let mut ws = PartitionWorkspace::new();

    let stream_bytes = calibrate(&mut l, quick);
    let inputs = probe_inputs(&mut l, &cx);
    probe_multilevel(&mut l, &cx, &inputs, &mut ws);
    root_bisection_replay(&mut l, &cx, &inputs.weighted, &mut ws);
    probe_sfc(&mut l, &cx, &inputs);
    probe_repart(&mut l, &cx, &inputs, &mut ws);
    let sim = probe_taskgraph_flusim(&mut l, &cx, &inputs);
    probe_runtime(&mut l, &cx);
    let (stages, trace) = replay_operation(&mut l, &cx, &inputs, &sim, &mut ws);

    l.set("obs.events", trace.events.len() as f64);
    l.set("obs.dropped", l.dropped as f64);
    let dropped = l.dropped;
    l.tally.record(
        "obs.dropped",
        if dropped == 0 {
            Ok(())
        } else {
            Err(format!("{dropped} events lost; raise RECORDER_CAPACITY"))
        },
    );
    let schema = check_chrome_trace(&chrome_trace(&schema_sample(&trace)));
    l.tally.record("chrome trace schema", schema.map(|_| ()));
    let path = out_dir.join(format!("{}.trace.json", w.name));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, chrome_trace(&trace)))
        .map_err(|e| format!("{}: {e}", path.display()));
    l.tally.record("chrome trace file", written);

    Traced {
        tally: l.tally,
        metrics: l.metrics,
        stages,
        par_width: cx.par_width,
        stream_bytes,
    }
}

/// `mesh.*`, `graph.*`, `core.weights_s`, `core.decompose_s`.
fn probe_inputs(l: &mut Ledger, cx: &Ctx<'_>) -> Inputs {
    let drift = drift(cx.seed);
    let mut mesh = l.time("mesh.generate_s", || cx.w.generate(cx.quick));
    if cx.w.kind == Kind::Drift {
        drift.apply(&mut mesh, 0);
    }
    l.set("mesh.cells", mesh.n_cells() as f64);
    let cell_graph = l.time("mesh.to_graph_s", || mesh.to_graph());
    let (weights, ncon) = l.time("core.weights_s", || strategy_weights(&mesh, cx.strategy));
    let weighted = l.time_with(
        "graph.reweight_s",
        || weights.clone(),
        |w| cell_graph.with_vertex_weights(w, ncon),
    );
    let part = l.time("core.decompose_s", || {
        decompose(&mesh, cx.strategy, cx.k, cx.seed)
    });
    l.time("graph.quality_s", || {
        PartitionQuality::measure(&cell_graph, &part, cx.k)
    });
    let shifted: Vec<PartId> = part.iter().map(|&p| (p + 1) % cx.k as PartId).collect();
    l.time("graph.migration_stats_s", || {
        MigrationStats::measure(&weighted, &part, &shifted, cx.k, PAYLOAD_BYTES)
    });
    let mut scratch = mesh.clone();
    let mut step = 0;
    l.time("mesh.drift_apply_s", || {
        step += 1;
        drift.apply(&mut scratch, step);
    });
    Inputs {
        mesh,
        cell_graph,
        weighted,
        part,
    }
}

/// `partition.graph*`, the `part.*` self times and counts, `partition.allocs`.
/// SFC_OC weighs cells like SC_OC, so `weighted` is a valid multilevel input
/// for every strategy.
fn probe_multilevel(l: &mut Ledger, cx: &Ctx<'_>, inputs: &Inputs, ws: &mut PartitionWorkspace) {
    let weighted = &inputs.weighted;
    let config = partition_config(cx.k, weighted.ncon(), cx.seed);
    let narrow = l.time("partition.graph_s", || {
        partition_graph_with(weighted, &config, ws)
    });
    if !matches!(cx.strategy, PartitionStrategy::SfcOc { .. }) {
        l.check(
            "staged partition_graph_with vs core::decompose",
            narrow == inputs.part,
        );
    }
    let pool = WorkspacePool::new(cx.par_width);
    let wide = l.time("partition.graph_w2_s", || {
        partition_graph_par_traced(weighted, &config, cx.par_width, &pool, Recorder::off())
    });
    l.check("partition w2 vs w1", wide == narrow);
    l.set(
        "partition.par_speedup_w2",
        l.get("partition.graph_s") / l.get("partition.graph_w2_s"),
    );

    // Same call, warm workspace, recorder on: self times, counts, allocs.
    ws.obs = cx.rec.clone();
    let (traced, allocs) = {
        let _span = cx.rec.span("bench.partition.graph", 0, 0);
        count_allocations(|| partition_graph_with(weighted, &config, ws))
    };
    ws.obs = Recorder::off().clone();
    l.check("partition traced vs untraced", traced == narrow);
    let trace = l.drain(cx.rec);
    let totals = l.totals("partition span nesting", &trace);
    for (metric, span) in [
        ("partition.coarsen_self_s", "part.coarsen"),
        ("partition.initial_self_s", "part.initial"),
        ("partition.uncoarsen_self_s", "part.uncoarsen"),
        ("partition.fm_self_s", "part.fm"),
        ("partition.rebalance_self_s", "part.rebalance"),
        ("partition.split_self_s", "part.partition"),
    ] {
        l.set(metric, self_s(&totals, span));
    }
    let moves = trace.counter_total("part.fm.moves");
    let bisections = totals.get("part.bisect").map_or(0, |t| t.count);
    l.set("partition.bisections", bisections as f64);
    l.set("partition.fm_moves", moves as f64);
    l.set(
        "partition.fm_kept_ratio",
        trace.counter_total("part.fm.kept") as f64 / moves.max(1) as f64,
    );
    l.set(
        "partition.rebalance_moves",
        trace.counter_total("part.rebalance.moves") as f64,
    );
    l.set("partition.allocs", allocs as f64);
}

/// `partition.sfc*`: the Hilbert curve partition under operating-cost weights.
fn probe_sfc(l: &mut Ledger, cx: &Ctx<'_>, inputs: &Inputs) {
    let (weights, _) = strategy_weights(&inputs.mesh, PartitionStrategy::ScOc);
    let (centroids, weights) = sfc_inputs(&inputs.mesh, weights);
    let mut ws = SfcWorkspace::new();
    let sfc = |workers: usize, ws: &mut SfcWorkspace| {
        sfc_partition_with(&centroids, &weights, cx.k, Curve::Hilbert, workers, ws)
    };
    let narrow = l.time("partition.sfc_s", || sfc(1, &mut ws));
    let wide = l.time("partition.sfc_w2_s", || sfc(cx.par_width, &mut ws));
    l.check("sfc w2 vs w1", wide == narrow);
    let hilbert = PartitionStrategy::SfcOc {
        curve: Curve::Hilbert,
    };
    if cx.strategy == hilbert {
        l.check(
            "staged sfc_partition_with vs core::decompose",
            narrow == inputs.part,
        );
    }
    l.set(
        "partition.sfc_speedup_w2",
        l.get("partition.sfc_s") / l.get("partition.sfc_w2_s"),
    );
    ws.obs = cx.rec.clone();
    {
        let _span = cx.rec.span("bench.partition.sfc", 0, 0);
        black_box(sfc(1, &mut ws));
    }
    let trace = l.drain(cx.rec);
    let totals = l.totals("sfc span nesting", &trace);
    l.set(
        "partition.sfc_keys_self_s",
        self_s(&totals, "part.sfc.keys"),
    );
    l.set(
        "partition.sfc_sort_self_s",
        self_s(&totals, "part.sfc.sort"),
    );
    l.set(
        "partition.sfc_chunk_self_s",
        self_s(&totals, "part.sfc.chunk"),
    );
}

/// `taskgraph.*` and `flusim.*` on the decomposition of [`Inputs`].
fn probe_taskgraph_flusim(l: &mut Ledger, cx: &Ctx<'_>, inputs: &Inputs) -> SimInputs {
    let Inputs { mesh, part, .. } = inputs;
    let (k, cluster) = (cx.k, &cx.cluster);
    let dd = l.time("taskgraph.domains_s", || {
        DomainDecomposition::new(mesh, part, k)
    });
    let dd_wide = l.time("taskgraph.domains_w2_s", || {
        DomainDecomposition::new_sharded(mesh, part, k, cx.par_width)
    });
    l.check("domains w2 vs w1", dd_wide == dd);
    drop(dd_wide);
    let graph = l.time("taskgraph.generate_s", || {
        generate_taskgraph(mesh, &dd, &TaskGraphConfig::default())
    });
    l.set("taskgraph.tasks", graph.len() as f64);
    l.set("taskgraph.edges", graph.n_edges() as f64);
    let process_of = block_process_map(k, cluster.n_processes);
    let net = race_network(&dd);

    let fifo = Strategy::EagerFifo;
    l.time("flusim.simulate_s", || {
        simulate(&graph, cluster, &process_of, fifo)
    });
    l.set(
        "flusim.tasks_per_s",
        graph.len() as f64 / l.get("flusim.simulate_s"),
    );
    let (_, allocs) = count_allocations(|| black_box(simulate(&graph, cluster, &process_of, fifo)));
    l.set("flusim.allocs", allocs as f64);
    let priced = l.time("flusim.simulate_net_s", || {
        simulate_lattice_with_network(&graph, cluster, &process_of, &fifo.into(), &net)
    });
    l.set("flusim.xfers", priced.transfers.len() as f64);
    l.set(
        "flusim.net_bytes",
        priced.net.as_ref().map_or(0, |n| n.total_bytes()) as f64,
    );
    let race = |workers| tempart_flusim::race_network(&graph, cluster, &process_of, &net, workers);
    let board = l.time("flusim.race_s", || race(1));
    let board_wide = l.time("flusim.race_w2_s", || race(cx.par_width));
    l.check(
        "race w2 vs w1",
        board_wide.fingerprint() == board.fingerprint(),
    );
    l.set(
        "flusim.race_speedup_w2",
        l.get("flusim.race_s") / l.get("flusim.race_w2_s"),
    );
    // Base: the EagerFifo makespan under the same priced network.
    l.set(
        "flusim.best_over_fifo",
        board.winner().makespan as f64 / priced.makespan as f64,
    );
    SimInputs {
        graph,
        process_of,
        net,
    }
}

/// `runtime.forkjoin_job_s`: wall time per empty job of one fork-join scope.
fn probe_runtime(l: &mut Ledger, cx: &Ctx<'_>) {
    const JOBS: usize = 1024;
    l.time("runtime.forkjoin_job_s", || {
        fork_join(cx.par_width, |ctx| {
            for _ in 0..JOBS {
                ctx.spawn(|_| {});
            }
        });
    });
    l.set(
        "runtime.forkjoin_job_s",
        l.get("runtime.forkjoin_job_s") / JOBS as f64,
    );
}

/// The operation itself — one call, staged, staged and traced — giving
/// `core.{onecall_s, staged_sum_s, unattributed_frac}` and
/// `obs.trace_overhead_frac`. Returns the in-operation stage medians and the
/// first traced operation's event stream.
fn replay_operation(
    l: &mut Ledger,
    cx: &Ctx<'_>,
    inputs: &Inputs,
    sim: &SimInputs,
    ws: &mut PartitionWorkspace,
) -> (StageTimes, Trace) {
    let (rec, off) = (cx.rec, Recorder::off());
    let (k, seed, cluster) = (cx.k, cx.seed, &cx.cluster);
    let traced_reps = l.max_reps.min(3);
    let mut onecall = Vec::new();
    let mut staged: Vec<StageTimes> = Vec::new();
    let mut traced: Vec<StageTimes> = Vec::new();
    let mut first_trace: Option<Trace> = None;
    match cx.w.kind {
        Kind::Pipeline(strategy) => {
            let mut pipeline = PipelineConfig::paper_default(strategy, k);
            pipeline.seed = seed;
            let replay = |rec: &Recorder, run: u64| {
                let mut st = Stages::new(rec, run);
                let result = {
                    let _op = rec.span("bench.op", 0, run);
                    guarded(|| staged_pipeline(&inputs.mesh, strategy, k, seed, cluster, &mut st))
                };
                (result.ok(), st.times)
            };
            // One-call and staged repetitions alternate, so a drift of the
            // machine during the run cannot pass for an unattributed stage.
            for rep in 0..l.max_reps {
                let (out, dt) = timed(|| run_flusim(&inputs.mesh, &pipeline));
                onecall.push(dt);
                let reference = Some(PipelineResult {
                    part_fnv: Fnv::default().part(&out.part).finish(),
                    makespan: out.makespan(),
                    edge_cut: out.quality.edge_cut,
                    interprocess_cut: out.interprocess_cut,
                });
                drop(out);
                let (result, times) = replay(off, 0);
                l.check("staged pipeline vs run_flusim", result == reference);
                staged.push(times);
                if rep < traced_reps {
                    let (result, times) = replay(rec, rep as u64 + 1);
                    l.check("traced staged pipeline vs run_flusim", result == reference);
                    traced.push(times);
                    let trace = l.drain(rec);
                    first_trace.get_or_insert(trace);
                }
            }
        }
        Kind::Race => {
            let SimInputs {
                graph,
                process_of,
                net,
            } = sim;
            let race = || tempart_flusim::race_network(graph, cluster, process_of, net, 1);
            for rep in 0..l.max_reps {
                let (reference, dt) = timed(race);
                onecall.push(dt);
                let mut st = Stages::new(off, 0);
                let board = st.stage("bench.flusim.race", race);
                l.check("staged race vs race_network", board == reference);
                staged.push(st.times);
                if rep < traced_reps {
                    // The 24 combos stay unrecorded (2.4M events would tax
                    // the race itself); one traced network simulation beside
                    // the first operation puts `flusim.*` and `net.*` in the
                    // trace.
                    let run = rep as u64 + 1;
                    let mut st = Stages::new(rec, run);
                    {
                        let _op = rec.span("bench.op", 0, run);
                        let board = st.stage("bench.flusim.race", race);
                        l.check("traced staged race vs race_network", board == reference);
                    }
                    traced.push(st.times);
                    if first_trace.is_none() {
                        let _span = rec.span("bench.flusim.simulate_net", 0, run);
                        black_box(simulate_lattice_with_network_traced(
                            graph,
                            cluster,
                            process_of,
                            &Strategy::EagerFifo.into(),
                            net,
                            rec,
                        ));
                    }
                    let trace = l.drain(rec);
                    first_trace.get_or_insert(trace);
                }
            }
        }
        Kind::Drift => {
            // The end-to-end run's own set-up; the probes above must have
            // measured the same state.
            let inst = drift_setup(cx.w, cx.quick, seed);
            l.check("drift set-up vs probes", inst.part0 == inputs.part);
            let reference = {
                let (mut m, mut p) = (inst.mesh.clone(), inst.part0.clone());
                for step in 1..=DRIFT_STEPS {
                    let (_, dt) = timed(|| drift_step(&inst, &mut m, &mut p, step, k, ws));
                    onecall.push(dt);
                }
                p
            };
            let (plain, times) = staged_drift_sequence(&inst, k, off, ws);
            l.check("staged drift sequence vs one-call", plain == reference);
            staged = times;
            let (replayed, times) = staged_drift_sequence(&inst, k, rec, ws);
            l.check("traced drift sequence vs one-call", replayed == reference);
            traced = times;
            first_trace = Some(l.drain(rec));
        }
    }
    let sums = |ops: &[StageTimes]| -> Vec<f64> {
        ops.iter()
            .map(|op| op.iter().map(|(_, dt)| dt).sum())
            .collect()
    };
    let (onecall, staged_sum, traced_sum) = (
        median(&onecall),
        median(&sums(&staged)),
        median(&sums(&traced)),
    );
    l.set("core.onecall_s", onecall);
    l.set("core.staged_sum_s", staged_sum);
    l.set("core.unattributed_frac", 1.0 - staged_sum / onecall);
    l.set("obs.trace_overhead_frac", traced_sum / staged_sum - 1.0);
    (
        stage_medians(&staged),
        first_trace.expect("every workload traces at least one operation"),
    )
}

/// The part of `trace` that goes through `obs::schema`: every benchmark-owned
/// span plus the first [`SCHEMA_SAMPLE`] non-span events of each name, so
/// every phase letter and every event shape the file contains is checked.
///
/// Not the whole file: `obs::json::parse` re-validates the rest of the
/// document for every string character, so it is quadratic in document size
/// and a 10 MB trace would take hours. The crates' own spans are left out of
/// the sample because a cut would unbalance them; their nesting is checked
/// more strictly by [`span_totals`].
fn schema_sample(trace: &Trace) -> Trace {
    let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
    let events = trace
        .events
        .iter()
        .filter(|e| {
            if e.name.starts_with("bench.") {
                return true;
            }
            if matches!(e.kind, EventKind::SpanBegin | EventKind::SpanEnd) {
                return false;
            }
            let n = seen.entry(e.name).or_default();
            *n += 1;
            *n <= SCHEMA_SAMPLE
        })
        .copied()
        .collect();
    Trace {
        events,
        dropped: trace.dropped,
        histograms: Vec::new(),
    }
}

/// Same-process machine-speed references, so runner drift can be told from
/// code drift: a fixed integer-hash loop (core speed) and a sum over an
/// array several times the last-level cache (memory bandwidth). Returns the
/// array size in bytes.
fn calibrate(l: &mut Ledger, quick: bool) -> usize {
    l.time("calib.spin_s", || {
        let mut x = 1u64;
        for _ in 0..1u32 << if quick { 22 } else { 26 } {
            x = splitmix64(x);
        }
        x
    });
    let bytes: usize = if quick { 32 << 20 } else { 256 << 20 };
    let data: Vec<u64> = (0..(bytes / 8) as u64).collect();
    l.time("calib.stream_s", || {
        data.iter().fold(0u64, |acc, &x| acc.wrapping_add(x))
    });
    bytes
}

/// The root bisection of the recursive-bisection tree, replayed through the
/// partitioner's public stage functions — the body of
/// `bisect::multilevel_bisection_ws` — so coarsening, initial partitioning
/// and refinement can be timed apart. Checked bit for bit against
/// `bisect::multilevel_bisection`.
fn root_bisection_replay(
    l: &mut Ledger,
    cx: &Ctx<'_>,
    graph: &CsrGraph,
    ws: &mut PartitionWorkspace,
) {
    let (k, seed) = (cx.k, cx.seed);
    let config = partition_config(k, graph.ncon(), seed);
    // `recursive_bisection_ws`: per-bisection share of the tolerance, and
    // side 0's share of uniform targets (summed the same way, for the bits).
    let ub = config.ubvec.iter().copied().fold(1.0f64, f64::max);
    let levels = (k as f64).log2().ceil().max(1.0);
    let ub = ub.powf(1.0 / levels).max(1.001);
    let fracs = vec![1.0 / k as f64; k];
    let frac0 = fracs[..k / 2].iter().sum::<f64>() / fracs.iter().sum::<f64>();

    let target = config.coarsen_to * graph.ncon().max(1);
    let hierarchy = l.time("partition.coarsen_root_s", || {
        coarsen_ws(graph, target, seed ^ 0x9E37_79B9_7F4A_7C15, ws)
    });
    let coarsest = hierarchy.coarsest(graph);
    l.set("partition.coarsen_levels", hierarchy.levels.len() as f64);
    l.set("partition.coarsest_nvtx", coarsest.nvtx() as f64);
    let coarse_side = l.time("partition.initial_root_s", || {
        let mut rng = Rng::seed_from_u64(seed);
        let mut side = initial_bisection(coarsest, frac0, config.initial_tries, ub, &mut rng).side;
        rebalance_ws(coarsest, &mut side, frac0, ub, ws);
        fm_refine_ws(coarsest, &mut side, frac0, ub, config.refine_passes, ws);
        side
    });
    let side = l.time("partition.refine_root_s", || {
        let mut side = coarse_side.clone();
        for i in (0..hierarchy.levels.len()).rev() {
            let fine = if i == 0 {
                graph
            } else {
                &hierarchy.levels[i - 1].graph
            };
            side = project(&hierarchy.levels[i].fine_to_coarse, &side);
            rebalance_ws(fine, &mut side, frac0, ub, ws);
            fm_refine_ws(fine, &mut side, frac0, ub, config.refine_passes, ws);
        }
        side
    });
    let reference = multilevel_bisection(graph, frac0, &config, ub, seed);
    l.check(
        "root bisection replay vs multilevel_bisection",
        side == reference,
    );
}

/// Incremental repartitioning probes: graded drift steps rebalanced by
/// `repartition_ws` from a from-scratch MC_TL partition of the drift-0 mesh.
/// On `cyl5-repart-drift` that is the workload's own state; elsewhere the
/// probe grades a copy of the workload's mesh first.
fn probe_repart(l: &mut Ledger, cx: &Ctx<'_>, inputs: &Inputs, ws: &mut PartitionWorkspace) {
    let (k, seed, rec) = (cx.k, cx.seed, cx.rec);
    let cell_graph = &inputs.cell_graph;
    let on_drift = cx.w.kind == Kind::Drift;
    let drift = drift(seed);
    let mcl = PartitionStrategy::McTl;
    let mut graded = inputs.mesh.clone();
    // Base of `partition.repart_over_scratch`: a from-scratch
    // `partition_graph_with` of the same mesh under drifted weights.
    let (part0, scratch_s) = if on_drift {
        (inputs.part.clone(), l.get("partition.graph_s"))
    } else {
        drift.apply(&mut graded, 0);
        let (weights, ncon) = strategy_weights(&graded, mcl);
        let weighted = cell_graph.with_vertex_weights(weights, ncon);
        timed(|| partition_graph_with(&weighted, &partition_config(k, ncon, seed), ws))
    };

    // One pass with the recorder on: `repartition_ws` emits one span and
    // five counters per call, so tracing costs the timing nothing and a
    // second, untraced pass (seconds per step on the largest mesh) is saved.
    // A fixed step count, so the counts below repeat exactly: the whole
    // sequence on the drift workload, two steps elsewhere.
    let n_steps = if on_drift && !cx.quick {
        DRIFT_STEPS
    } else {
        2
    };
    let mut current = part0;
    let (mut step_s, mut self_s_, mut rounds, mut moves) = (vec![], vec![], vec![], vec![]);
    ws.obs = rec.clone();
    for step in 1..=n_steps {
        drift.apply(&mut graded, step);
        let (weights, ncon) = strategy_weights(&graded, mcl);
        let weighted = cell_graph.with_vertex_weights(weights, ncon);
        let config = default_repart_config(k, ncon, None);
        if step == 1 {
            l.time("partition.repart_plan_s", || {
                diffusion_plan(&weighted, &current, &config)
            });
        }
        let (stats, dt) = {
            let _span = rec.span("bench.partition.repart", 0, u64::from(step));
            timed(|| repartition_ws(&weighted, &mut current, &config, ws))
        };
        let trace = l.drain(rec);
        let totals = l.totals("repart span nesting", &trace);
        step_s.push(dt);
        self_s_.push(self_s(&totals, "part.repart"));
        rounds.push(f64::from(stats.rounds));
        moves.push(stats.cells_moved as f64);
    }
    ws.obs = Recorder::off().clone();
    l.set("partition.repart_s", median(&step_s));
    l.set("partition.repart_self_s", median(&self_s_));
    l.set("partition.repart_rounds", median(&rounds));
    l.set("partition.repart_moves", median(&moves));
    l.set("partition.repart_over_scratch", median(&step_s) / scratch_s);
}
