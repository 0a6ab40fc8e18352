//! The untraced run: end-to-end metrics of one workload.
//!
//! Closed loop, one client, driver thread only (`workers = 1`), recorder
//! off. Each workload cycles its timed operation over a *panel* of seeds
//! derived from `--seed`; timings are medians over all operations, quality
//! metrics are medians over the panel (so they are a pure function of
//! `--seed`). The oracle runs after every operation, outside the timed
//! region.

use crate::fixtures::{cluster, drift, race_network, shipped_volume};
use crate::oracle::{
    check_imbalance, check_leaderboard, check_partition, check_repeat, check_sim, guarded, Tally,
};
use crate::spec::{Kind, Workload, DRIFT_STEPS, PAYLOAD_BYTES};
use crate::stats::{median, panel_seeds, quantile, timed, Fnv};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tempart_core::{
    decompose, default_repart_config, run_flusim, strategy_weights, PartitionStrategy,
    PipelineConfig,
};
use tempart_flusim::{simulate, NetworkModel, Strategy};
use tempart_graph::{edge_cut, max_imbalance, CsrGraph, MigrationStats, PartId, PartitionQuality};
use tempart_mesh::{DriftConfig, Mesh};
use tempart_partition::{repartition_ws, PartitionWorkspace};
use tempart_taskgraph::{
    generate_taskgraph, stats::block_process_map, DomainDecomposition, TaskGraph, TaskGraphConfig,
};

/// Discarded operations before timing starts (caches, lazy growth of the
/// warm workspace).
const WARMUPS: usize = 2;

/// Set-up repetitions of the workloads whose set-up is seed-independent.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 31;

/// What one panel instance's decomposition is worth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Simulated makespan, FLUSIM cost units.
    pub makespan: f64,
    /// Cut edges.
    pub edge_cut: f64,
    /// Worst per-constraint imbalance under the strategy's weights.
    pub max_imbalance: f64,
    /// Cell-weight units shipped to adopt the decomposition.
    pub migration_volume: f64,
}

/// Everything the untraced run measured.
#[derive(Debug)]
pub struct E2e {
    /// Operation counts and failure reasons.
    pub tally: Tally,
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each passed timed operation, seconds.
    pub op_s: Vec<f64>,
    /// Operations in one *visit* of a panel instance: 1 everywhere except
    /// `cyl5-repart-drift`, where a visit is the 16 steps of one sequence.
    /// `op_s` holds whole visits only.
    pub ops_per_visit: usize,
    /// `VmHWM` after the first set-up and the warm-up operations, before
    /// the rest of the panel is built: what one set-up plus one operation
    /// needs, not what the benchmark's own panel accumulates.
    pub peak_rss_bytes: u64,
    /// One entry per panel instance.
    pub quality: Vec<Quality>,
    /// Cells in the mesh, for the throughput note.
    pub cells: usize,
}

impl E2e {
    /// The end-to-end metrics by name.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let panel =
            |f: fn(&Quality) -> f64| median(&self.quality.iter().map(f).collect::<Vec<_>>());
        let visit_means: Vec<f64> = self
            .op_s
            .chunks_exact(self.ops_per_visit)
            .map(|visit| visit.iter().sum::<f64>() / visit.len() as f64)
            .collect();
        BTreeMap::from([
            ("setup_s", median(&self.setup_s)),
            ("op_s_p50", median(&visit_means)),
            ("op_s_p90", quantile(&self.op_s, 0.9)),
            (
                "peak_rss_mib",
                self.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            ),
            ("makespan_units", panel(|q| q.makespan)),
            ("edge_cut", panel(|q| q.edge_cut)),
            ("max_imbalance", panel(|q| q.max_imbalance)),
            ("migration_volume", panel(|q| q.migration_volume)),
        ])
    }
}

fn peak_rss() -> u64 {
    tempart_testkit::mem::peak_rss_bytes().unwrap_or(0)
}

/// Bookkeeping of the timed loop, shared by the three kinds of workload:
/// which panel instance is next, when to stop, what each instance produced
/// first, and the operation tally.
struct TimedLoop {
    name: &'static str,
    tally: Tally,
    op_s: Vec<f64>,
    /// First-visit `(fingerprint, quality)` of each panel instance.
    seen: Vec<Option<(u64, Quality)>>,
    started: Instant,
    seconds: f64,
    visits: usize,
}

impl TimedLoop {
    fn start(w: &Workload, panel: usize, seconds: f64) -> Self {
        Self {
            name: w.name,
            tally: Tally::default(),
            op_s: Vec::new(),
            seen: vec![None; panel],
            started: Instant::now(),
            seconds,
            visits: 0,
        }
    }

    /// The panel instance to visit next; `None` once every instance has been
    /// visited and `seconds` of wall time have passed.
    fn next_slot(&mut self) -> Option<usize> {
        let panel = self.seen.len();
        if self.visits >= panel && self.started.elapsed().as_secs_f64() >= self.seconds {
            return None;
        }
        self.visits += 1;
        Some((self.visits - 1) % panel)
    }

    /// Oracle part shared by every decomposition: counts the empty-domain
    /// defect instead of failing on it.
    fn check_partition(
        &mut self,
        graph: &CsrGraph,
        part: &[PartId],
        k: usize,
        reported_cut: i64,
    ) -> Result<(), String> {
        let empty = check_partition(graph, part, k, reported_cut)?;
        self.tally.empty_part_ops += u64::from(empty > 0);
        Ok(())
    }

    /// Records what a visit of `slot` produced: the first visit's quality is
    /// kept, later visits must reproduce its fingerprint.
    fn settle(&mut self, slot: usize, fingerprint: u64, quality: Quality) -> Result<(), String> {
        match self.seen[slot] {
            Some((first, _)) => check_repeat(first, fingerprint),
            None => {
                self.seen[slot] = Some((fingerprint, quality));
                Ok(())
            }
        }
    }

    /// Counts one operation; its time becomes a sample when it passed.
    fn record(&mut self, dt: f64, checked: Result<(), String>) -> bool {
        let passed = self.tally.record(self.name, checked).is_some();
        if passed {
            self.op_s.push(dt);
        }
        passed
    }

    fn finish(
        self,
        ops_per_visit: usize,
        setup_s: Vec<f64>,
        peak_rss_bytes: u64,
        cells: usize,
    ) -> E2e {
        E2e {
            tally: self.tally,
            setup_s,
            op_s: self.op_s,
            ops_per_visit,
            peak_rss_bytes,
            quality: self.seen.into_iter().flatten().map(|(_, q)| q).collect(),
            cells,
        }
    }
}

/// Runs workload `w` untraced for about `seconds` seconds.
pub fn run(w: &Workload, seed: u64, seconds: f64, quick: bool) -> E2e {
    let seed = w.base_seed(seed);
    match w.kind {
        Kind::Pipeline(strategy) => run_pipeline(w, strategy, seed, seconds, quick),
        Kind::Race => run_race(w, seed, seconds, quick),
        Kind::Drift => run_drift(w, seed, seconds, quick),
    }
}

fn run_pipeline(
    w: &Workload,
    strategy: PartitionStrategy,
    seed: u64,
    seconds: f64,
    quick: bool,
) -> E2e {
    // Set-up is mesh generation; it does not depend on the panel seed.
    let started = Instant::now();
    let (mesh, first) = timed(|| w.generate(quick));
    let mut setup_s = vec![first];

    // Oracle inputs, outside both set-up and operation timing.
    let cell_graph = mesh.to_graph();
    let (weights, ncon) = strategy_weights(&mesh, strategy);
    let shipped = shipped_volume(&weights, ncon) as f64;
    let weighted = cell_graph.with_vertex_weights(weights, ncon);

    let seeds = panel_seeds(seed, w.panel_size(quick));
    let mut config = PipelineConfig::paper_default(strategy, w.k);
    for _ in 0..WARMUPS {
        config.seed = seeds[0];
        let _ = guarded(|| black_box(run_flusim(&mesh, &config)));
    }
    let peak_rss_bytes = peak_rss();

    // More set-up samples, after the memory reading so that they cannot
    // disturb it: at least three in all, and for a cheap generator (40 ms on
    // cyl5) until a tenth of the run is spent, because a median of five
    // 40 ms samples moves by half when the runner hiccups.
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < seconds / 10.0)
    {
        setup_s.push(timed(|| w.generate(quick)).1);
    }

    let mut run = TimedLoop::start(w, seeds.len(), seconds);
    while let Some(slot) = run.next_slot() {
        config.seed = seeds[slot];
        let (outcome, dt) = timed(|| guarded(|| run_flusim(&mesh, &config)));
        let checked = outcome.and_then(|out| {
            run.check_partition(&cell_graph, &out.part, w.k, out.quality.edge_cut)?;
            let imbalance = max_imbalance(&weighted, &out.part, w.k);
            check_imbalance(imbalance)?;
            check_sim(&out.sim, &out.graph)?;
            let fingerprint = Fnv::default()
                .part(&out.part)
                .word(out.makespan())
                .word(out.quality.edge_cut as u64)
                .finish();
            let quality = Quality {
                makespan: out.makespan() as f64,
                edge_cut: out.quality.edge_cut as f64,
                max_imbalance: imbalance,
                migration_volume: shipped,
            };
            run.settle(slot, fingerprint, quality)
        });
        run.record(dt, checked);
    }
    run.finish(1, setup_s, peak_rss_bytes, mesh.n_cells())
}

/// One prepared race input: the task graph of one MC_TL decomposition.
struct RaceInstance {
    part: Vec<PartId>,
    graph: TaskGraph,
    process_of: Vec<usize>,
    net: NetworkModel,
}

fn race_setup(w: &Workload, quick: bool, seed: u64) -> (Mesh, RaceInstance) {
    let mesh = w.generate(quick);
    let part = decompose(&mesh, PartitionStrategy::McTl, w.k, seed);
    let dd = DomainDecomposition::new(&mesh, &part, w.k);
    let graph = generate_taskgraph(&mesh, &dd, &TaskGraphConfig::default());
    let process_of = block_process_map(w.k, cluster().n_processes);
    let net = race_network(&dd);
    (
        mesh,
        RaceInstance {
            part,
            graph,
            process_of,
            net,
        },
    )
}

fn run_race(w: &Workload, seed: u64, seconds: f64, quick: bool) -> E2e {
    let seeds = panel_seeds(seed, w.panel_size(quick));
    let mut setup_s = Vec::new();
    let mut instances: Vec<RaceInstance> = Vec::new();
    let mut mesh = None;
    let mut peak_rss_bytes = 0;
    let cluster = cluster();
    let race = |inst: &RaceInstance| {
        tempart_flusim::race_network(&inst.graph, &cluster, &inst.process_of, &inst.net, 1)
    };
    for &s in &seeds {
        let ((m, inst), dt) = timed(|| race_setup(w, quick, s));
        setup_s.push(dt);
        instances.push(inst);
        mesh = Some(m);
        if instances.len() == 1 {
            for _ in 0..WARMUPS {
                let _ = guarded(|| black_box(race(&instances[0])));
            }
            peak_rss_bytes = peak_rss();
        }
    }
    let mesh = mesh.expect("panel is never empty");

    // The decomposition is this workload's input: its quality is reported
    // (it moves when the partition layer changes) but not timed.
    let cell_graph = mesh.to_graph();
    let (weights, ncon) = strategy_weights(&mesh, PartitionStrategy::McTl);
    let shipped = shipped_volume(&weights, ncon) as f64;
    let weighted = cell_graph.with_vertex_weights(weights, ncon);

    let mut run = TimedLoop::start(w, instances.len(), seconds);
    while let Some(slot) = run.next_slot() {
        let inst = &instances[slot];
        let (outcome, dt) = timed(|| guarded(|| race(inst)));
        let checked = outcome.and_then(|board| {
            check_leaderboard(&board, &inst.graph)?;
            let cut = edge_cut(&cell_graph, &inst.part);
            run.check_partition(&cell_graph, &inst.part, w.k, cut)?;
            let imbalance = max_imbalance(&weighted, &inst.part, w.k);
            check_imbalance(imbalance)?;
            let quality = Quality {
                makespan: board.winner().makespan as f64,
                edge_cut: cut as f64,
                max_imbalance: imbalance,
                migration_volume: shipped,
            };
            run.settle(slot, board.fingerprint(), quality)
        });
        run.record(dt, checked);
    }
    run.finish(1, setup_s, peak_rss_bytes, mesh.n_cells())
}

/// One prepared drift input: a mesh graded at drift step 0 and its
/// from-scratch MC_TL partition.
pub(crate) struct DriftInstance {
    pub(crate) mesh: Mesh,
    pub(crate) drift: DriftConfig,
    pub(crate) cell_graph: CsrGraph,
    pub(crate) part0: Vec<PartId>,
}

pub(crate) fn drift_setup(w: &Workload, quick: bool, seed: u64) -> DriftInstance {
    let mut mesh = w.generate(quick);
    let drift = drift(seed);
    drift.apply(&mut mesh, 0);
    let part0 = decompose(&mesh, PartitionStrategy::McTl, w.k, seed);
    // Drift moves weights, never topology: one cell graph serves every step.
    let cell_graph = mesh.to_graph();
    DriftInstance {
        mesh,
        drift,
        cell_graph,
        part0,
    }
}

/// What one drift step produced (everything the oracle and the quality
/// metrics need).
pub(crate) struct StepOutcome {
    pub(crate) migration: MigrationStats,
    pub(crate) quality: PartitionQuality,
}

/// One timed operation of `cyl5-repart-drift`: re-grade, re-weight,
/// rebalance incrementally, measure what it cost and bought — the body of
/// `core::repartition_sequence`'s step loop, driven from here so a warm
/// workspace and per-step timing are possible.
pub(crate) fn drift_step(
    inst: &DriftInstance,
    mesh: &mut Mesh,
    part: &mut [PartId],
    step: u32,
    k: usize,
    ws: &mut PartitionWorkspace,
) -> (CsrGraph, StepOutcome) {
    inst.drift.apply(mesh, step);
    let (weights, ncon) = strategy_weights(mesh, PartitionStrategy::McTl);
    let graph = inst.cell_graph.with_vertex_weights(weights, ncon);
    let old = part.to_vec();
    repartition_ws(&graph, part, &default_repart_config(k, ncon, None), ws);
    let migration = MigrationStats::measure(&graph, &old, part, k, PAYLOAD_BYTES);
    let quality = PartitionQuality::measure(&graph, part, k);
    (graph, StepOutcome { migration, quality })
}

fn run_drift(w: &Workload, seed: u64, seconds: f64, quick: bool) -> E2e {
    let seeds = panel_seeds(seed, w.panel_size(quick));
    let mut setup_s = Vec::new();
    let mut instances: Vec<DriftInstance> = Vec::new();
    let mut ws = PartitionWorkspace::new();
    let mut peak_rss_bytes = 0;
    for &s in &seeds {
        let (inst, dt) = timed(|| drift_setup(w, quick, s));
        setup_s.push(dt);
        instances.push(inst);
        if instances.len() == 1 {
            let inst = &instances[0];
            let (mut mesh, mut part) = (inst.mesh.clone(), inst.part0.clone());
            for step in 1..=WARMUPS as u32 {
                let _ = guarded(|| {
                    black_box(drift_step(inst, &mut mesh, &mut part, step, w.k, &mut ws))
                });
            }
            peak_rss_bytes = peak_rss();
        }
    }
    let cluster = cluster();
    let process_of = block_process_map(w.k, cluster.n_processes);

    let mut run = TimedLoop::start(w, instances.len(), seconds);
    while let Some(slot) = run.next_slot() {
        let inst = &instances[slot];
        let (mut mesh, mut part) = (inst.mesh.clone(), inst.part0.clone());
        let initial = {
            let (weights, ncon) = strategy_weights(&mesh, PartitionStrategy::McTl);
            let weighted = inst.cell_graph.with_vertex_weights(weights, ncon);
            max_imbalance(&weighted, &part, w.k)
        };
        let (mut ceiling, mut volume) = (initial, 0i64);
        let mut fingerprint = Fnv::default();
        let visit_start = run.op_s.len();
        for step in 1..=DRIFT_STEPS {
            let (outcome, dt) =
                timed(|| guarded(|| drift_step(inst, &mut mesh, &mut part, step, w.k, &mut ws)));
            let checked = outcome.and_then(|(graph, out)| {
                run.check_partition(&graph, &part, w.k, out.quality.edge_cut)?;
                check_imbalance(out.quality.max_imbalance())?;
                if out.migration.volume < 0 {
                    return Err(format!(
                        "negative migration volume {}",
                        out.migration.volume
                    ));
                }
                ceiling = ceiling.max(out.quality.max_imbalance());
                volume += out.migration.volume;
                fingerprint = fingerprint.part(&part).word(out.migration.volume as u64);
                if step < DRIFT_STEPS {
                    return Ok(());
                }
                // After the last step: what the refreshed decomposition is
                // worth is its simulated makespan (the solver does not pay
                // for this evaluation, so it is outside the timed region).
                let (graph, sim) = guarded(|| {
                    let dd = DomainDecomposition::new(&mesh, &part, w.k);
                    let graph = generate_taskgraph(&mesh, &dd, &TaskGraphConfig::default());
                    let sim = simulate(&graph, &cluster, &process_of, Strategy::EagerFifo);
                    (graph, sim)
                })?;
                check_sim(&sim, &graph)?;
                let quality = Quality {
                    makespan: sim.makespan as f64,
                    edge_cut: out.quality.edge_cut as f64,
                    max_imbalance: ceiling,
                    migration_volume: volume as f64,
                };
                run.settle(slot, fingerprint.word(sim.makespan).finish(), quality)
            });
            if !run.record(dt, checked) {
                // The rest of the sequence would start from a broken
                // partition: its steps are not attempted, and the steps
                // already timed do not make a whole visit.
                run.op_s.truncate(visit_start);
                break;
            }
        }
    }
    let cells = instances[0].mesh.n_cells();
    run.finish(DRIFT_STEPS as usize, setup_s, peak_rss_bytes, cells)
}
