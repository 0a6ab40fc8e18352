//! Event-driven list scheduling of a task DAG on an emulated cluster.
//!
//! The event loop is a single generalized implementation parameterised by a
//! [`DynamicListStrategy`] lattice point (see [`crate::lattice`]); its four
//! named pinned points reproduce the pre-lattice fixed policies' schedules
//! bit for bit (pinned by `tests/determinism.rs`).

use crate::cluster::{ClusterConfig, UNBOUNDED_CORES};
use crate::lattice::{DynamicListStrategy, ProcessCriterion, TaskCriterion, TieBreak};
use crate::network::{Link, NetworkModel, Topology, TransferSegment, UNBOUNDED_CHANNELS};
use crate::trace::Segment;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tempart_obs::replay::{intersection_len, NetStats};
use tempart_obs::{Clock, Recorder};
use tempart_taskgraph::{TaskGraph, TaskId};

/// Outcome of a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Completion time of the last task, in cost units.
    pub makespan: u64,
    /// Σ task cost executed per process.
    pub busy: Vec<u64>,
    /// Length of the union of each process's active intervals: the time
    /// during which *at least one* core of the process was busy. This is the
    /// paper's composite-resource view (Fig. 6): a process is idle only when
    /// all its cores are.
    pub active: Vec<u64>,
    /// Work executed per (process, subiteration).
    pub subiter_work: Vec<Vec<u64>>,
    /// Gantt segments (one per task).
    pub segments: Vec<Segment>,
    /// Inbound transfer segments (one per cross-process message), in
    /// emission order. Empty under free communication.
    pub transfers: Vec<TransferSegment>,
    /// Communication statistics — `Some` whenever a network model was
    /// simulated.
    pub net: Option<NetStats>,
}

impl SimResult {
    /// Fraction of total core-time spent idle, for a bounded cluster.
    pub fn idle_fraction(&self, cluster: &ClusterConfig) -> f64 {
        let cores = cluster
            .total_cores()
            .expect("idle fraction undefined for unbounded clusters");
        let capacity = self.makespan as f64 * cores as f64;
        if capacity == 0.0 {
            return 0.0;
        }
        let busy: u64 = self.busy.iter().sum();
        1.0 - busy as f64 / capacity
    }

    /// Per-process fraction of the makespan during which the composite
    /// process resource is inactive (Fig. 6's reading).
    pub fn process_inactivity(&self) -> Vec<f64> {
        self.active
            .iter()
            .map(|&a| {
                if self.makespan == 0 {
                    0.0
                } else {
                    1.0 - a as f64 / self.makespan as f64
                }
            })
            .collect()
    }

    /// Sum of executed cost (must equal the DAG's total cost).
    pub fn total_executed(&self) -> u64 {
        self.busy.iter().sum()
    }

    /// Peak number of tasks running at once on each process, over
    /// [`Self::segments`]. A segment runs over `[start, end)`: a task ending
    /// at `t` and one starting at `t` never overlap, and a zero-cost task
    /// never runs. A peak below a process's core count means its cores
    /// never bound it.
    pub fn peak_running(&self) -> Vec<usize> {
        // (process, time, +1 start / -1 end): at equal times ends sort first.
        let mut events: Vec<(u32, u64, i8)> = Vec::with_capacity(2 * self.segments.len());
        for s in self.segments.iter().filter(|s| s.start < s.end) {
            events.push((s.process, s.start, 1));
            events.push((s.process, s.end, -1));
        }
        events.sort_unstable();
        let mut peak = vec![0; self.busy.len()];
        let mut running = 0usize;
        for (process, _, delta) in events {
            if delta > 0 {
                running += 1;
                let p = &mut peak[process as usize];
                *p = (*p).max(running);
            } else {
                running -= 1;
            }
        }
        peak
    }
}

/// Simulates `graph` under an arbitrary lattice point — the general entry
/// every other `simulate*` form is a partial application of.
///
/// `cores[p]` is the core count of process `p` (use
/// [`crate::cluster::UNBOUNDED_CORES`] for an unlimited process) and
/// `process_of[d]` the home process of domain `d`. Pinned lattice points keep
/// every task on its domain's process — the paper's FLUSIM; dynamic process
/// criteria relax that pinning (see [`ProcessCriterion`]).
///
/// With `net` set, cross-process dependency edges become inbound transfers
/// scheduled on the destination's NIC channels (communication semantics at
/// `SimState`) and [`SimResult::net`] is `Some`; `None` is the paper's
/// free communication and skips the network bookkeeping entirely.
///
/// `rec` receives ([`Clock::Virtual`] domain) a `"flusim.run"` span, one
/// `"flusim.task"` complete event per executed task (track = process, `a` =
/// task id, `b` = subiteration) and closing `"flusim.cores"` /
/// `"flusim.busy"` / `"flusim.active"` / `"flusim.subiter_work"` counters —
/// plus, under a network, one `"net.xfer"` complete event per transfer
/// (track = destination process, `t` = start, `val` = duration, `a` =
/// `src << 32 | channel`, `b` = bytes), a `"net.channels"` counter per
/// process at the start, and closing `"net.bytes"` / `"net.msgs"` counters,
/// from which `obs::replay::replay_network` reconstructs [`SimResult::net`]
/// bit for bit. With [`Recorder::off`] every emission is a single branch.
///
/// # Panics
///
/// Panics if `process_of` is inconsistent with the graph or cluster, if
/// `net` fails [`NetworkModel::validate`], or if the DAG deadlocks (cycle —
/// cannot happen for [`TaskGraph`]s built by this workspace).
pub fn simulate_with(
    graph: &TaskGraph,
    cores: &[usize],
    process_of: &[usize],
    strat: &DynamicListStrategy,
    net: Option<&NetworkModel>,
    rec: &Recorder,
) -> SimResult {
    let priced = net.map(|model| PricedNetwork::new(graph, cores.len(), process_of, model));
    let priority = rank(graph, strat.task);
    let log = ScheduleLog {
        segments: Vec::with_capacity(graph.len()),
        transfers: Vec::with_capacity(if net.is_some() { graph.n_edges() } else { 0 }),
    };
    let state = SimState::new(
        graph,
        cores,
        process_of,
        strat,
        priority.as_deref(),
        priced.as_ref(),
        rec,
    );
    state.run(Some(log))
}

/// [`simulate_with`] on a uniform `cluster`, free communication, untraced.
pub fn simulate(
    graph: &TaskGraph,
    cluster: &ClusterConfig,
    process_of: &[usize],
    strategy: DynamicListStrategy,
) -> SimResult {
    simulate_traced(graph, cluster, process_of, strategy, Recorder::off())
}

/// [`simulate`], recording into `rec`.
pub fn simulate_traced(
    graph: &TaskGraph,
    cluster: &ClusterConfig,
    process_of: &[usize],
    strategy: DynamicListStrategy,
    rec: &Recorder,
) -> SimResult {
    simulate_with(graph, &cluster.cores(), process_of, &strategy, None, rec)
}

/// [`simulate_with`] on a uniform `cluster` under `net`, untraced.
pub fn simulate_lattice_with_network(
    graph: &TaskGraph,
    cluster: &ClusterConfig,
    process_of: &[usize],
    strat: &DynamicListStrategy,
    net: &NetworkModel,
) -> SimResult {
    simulate_lattice_with_network_traced(graph, cluster, process_of, strat, net, Recorder::off())
}

/// [`simulate_lattice_with_network`], recording into `rec`.
pub fn simulate_lattice_with_network_traced(
    graph: &TaskGraph,
    cluster: &ClusterConfig,
    process_of: &[usize],
    strat: &DynamicListStrategy,
    net: &NetworkModel,
    rec: &Recorder,
) -> SimResult {
    simulate_with(graph, &cluster.cores(), process_of, strat, Some(net), rec)
}

/// Panics unless `process_of` maps every domain of `graph` onto one of `np`
/// processes.
fn assert_mapping(graph: &TaskGraph, np: usize, process_of: &[usize]) {
    assert_eq!(process_of.len(), graph.n_domains, "one process per domain");
    assert!(
        process_of.iter().all(|&p| p < np),
        "process id out of range"
    );
}

/// A [`NetworkModel`] with every dependency edge of one task graph priced
/// up front.
///
/// Who a message is for and how many bytes it carries are a pure function
/// of `(graph, process_of, model.sizes)` — no scheduling decision enters —
/// so the event loop reads both from this table instead of re-deriving them
/// per completed task, and a portfolio race builds the table once for all
/// of its combos. Which *link* the message travels over depends on where
/// the predecessor executed, so durations stay in the loop; the topology
/// is resolved here into a node per process and two links, so the loop
/// compares two node ids where [`Topology::link`] would match on the enum
/// and divide twice.
pub(crate) struct PricedNetwork<'a> {
    model: &'a NetworkModel,
    /// Home process of each task: its domain's owner under `process_of`.
    home: Vec<u32>,
    /// Node of each process: `p / procs_per_node` on a two-level topology,
    /// 0 everywhere on a uniform one.
    node: Vec<u32>,
    /// `[intra, inter]`: the link between two processes on one node and
    /// between two nodes (both the one link of a uniform topology).
    links: [Link; 2],
    /// Index in `bytes` of each task's first successor edge.
    first_edge: Vec<usize>,
    /// Message bytes per successor edge, aligned with [`TaskGraph::succs`]
    /// (0 = no message).
    bytes: Vec<u64>,
}

impl<'a> PricedNetwork<'a> {
    /// Prices `graph` under `model` for an `np`-process cluster.
    ///
    /// # Panics
    ///
    /// Panics if `process_of` is inconsistent with the graph or cluster, or
    /// if `model` fails [`NetworkModel::validate`].
    pub(crate) fn new(
        graph: &TaskGraph,
        np: usize,
        process_of: &[usize],
        model: &'a NetworkModel,
    ) -> Self {
        assert_mapping(graph, np, process_of);
        if let Err(e) = model.validate(graph) {
            panic!("invalid network model: {e}");
        }
        let home = graph
            .tasks()
            .iter()
            .map(|t| process_of[t.domain as usize] as u32)
            .collect();
        let (node, links) = match model.topology {
            Topology::Uniform(l) => (vec![0; np], [l, l]),
            Topology::TwoLevel {
                procs_per_node,
                intra,
                inter,
            } => (
                (0..np).map(|p| (p / procs_per_node) as u32).collect(),
                [intra, inter],
            ),
        };
        let mut first_edge = Vec::with_capacity(graph.len());
        let mut edges = 0;
        for t in 0..graph.len() as TaskId {
            first_edge.push(edges);
            edges += graph.succs(t).len();
        }
        Self {
            model,
            home,
            node,
            links,
            first_edge,
            bytes: model.sizes.edge_bytes(graph),
        }
    }

    /// The link a message from process `src` to process `dst` travels over
    /// — [`Topology::link`], read off the node vector without a branch.
    fn route(&self, src: usize, dst: usize) -> Link {
        self.links[usize::from(self.node[src] != self.node[dst])]
    }
}

/// The earliest-free channel of one NIC row and its free time, the lowest
/// id among equals. The running pair is updated by selects, not by a
/// branch: which channel frees first is data the predictor cannot learn,
/// and the strict `<` keeps the first minimum.
fn earliest_free(nic: &[u64]) -> (usize, u64) {
    let (mut best, mut best_free) = (0, nic[0]);
    for (c, &free) in nic.iter().enumerate().skip(1) {
        let earlier = free < best_free;
        best = if earlier { c } else { best };
        best_free = if earlier { free } else { best_free };
    }
    (best, best_free)
}

/// Appends `[start, end)` to a sorted list of disjoint, non-touching
/// intervals, merging it into the last one when they overlap or touch;
/// empty intervals are skipped. Requires `start` to be no earlier than the
/// last interval's start — then the list stays exactly what
/// `obs::replay::merge_intervals` would build from the same intervals.
fn push_merged(merged: &mut Vec<(u64, u64)>, start: u64, end: u64) {
    if end <= start {
        return;
    }
    match merged.last_mut() {
        Some((last_start, last_end)) => {
            debug_assert!(*last_start <= start, "interval starts went backwards");
            if start <= *last_end {
                *last_end = (*last_end).max(end);
            } else {
                merged.push((start, end));
            }
        }
        None => merged.push((start, end)),
    }
}

/// What a caller keeps of a schedule beyond its totals: one Gantt segment
/// per task and one transfer per message, in emission order. Both are at
/// full capacity before the loop starts (one segment per task, at most one
/// message per dependency edge), so appending never allocates.
struct ScheduleLog {
    segments: Vec<Segment>,
    transfers: Vec<TransferSegment>,
}

/// Per-task priority keys under `criterion` (higher runs first), fixed
/// before the loop starts. `None` for `Fifo` / `Lifo`: their priority is
/// uniform and the [`TieBreak`] is the policy. A function of the graph
/// alone, so a race ranks once for all of its combos.
pub(crate) fn rank(graph: &TaskGraph, criterion: TaskCriterion) -> Option<Vec<i64>> {
    // Upward pass (successors have higher ids): `own(t, below)` ranks task
    // `t` given the highest rank among its successors, `None` at a sink.
    let upward = |own: &dyn Fn(TaskId, Option<i64>) -> i64| {
        let mut rank = vec![0i64; graph.len()];
        for t in (0..graph.len() as TaskId).rev() {
            let below = graph.succs(t).iter().map(|&s| rank[s as usize]).max();
            rank[t as usize] = own(t, below);
        }
        rank
    };
    let cost = |t: TaskId| graph.task(t).cost as i64;
    match criterion {
        TaskCriterion::Fifo | TaskCriterion::Lifo => None,
        TaskCriterion::SmallestCost => Some((0..graph.len() as TaskId).map(|t| -cost(t)).collect()),
        TaskCriterion::LargestCost => Some((0..graph.len() as TaskId).map(cost).collect()),
        // Cost-weighted upward rank: longest cost-sum from the task to any
        // sink, inclusive.
        TaskCriterion::CriticalPath => Some(upward(&|t, below| below.unwrap_or(0) + cost(t))),
        // Unweighted bottom level: dependency edges on the longest path
        // from the task to any sink (sinks are level 0).
        TaskCriterion::BottomLevel => Some(upward(&|_, below| below.map_or(0, |b| b + 1))),
    }
}

/// [`SimState::run`] without a [`ScheduleLog`] — what a portfolio race
/// runs per combo. `priority` is [`rank`] of `strat.task` and `net` the
/// race's shared price table. The result carries the totals (`makespan`,
/// `busy`, `active`, `subiter_work`); `segments` and `transfers` are empty
/// and `net` is `None`, since [`NetStats`] is derived from the log. `rec`
/// receives the same stream as under [`simulate_with`].
pub(crate) fn sim_core(
    graph: &TaskGraph,
    cores: &[usize],
    process_of: &[usize],
    strat: &DynamicListStrategy,
    priority: Option<&[i64]>,
    net: Option<&PricedNetwork>,
    rec: &Recorder,
) -> SimResult {
    SimState::new(graph, cores, process_of, strat, priority, net, rec).run(None)
}

/// The state of the generalized dirty-set event loop — every `simulate*`
/// entry point and every race combo is one [`SimState::run`], in four
/// phases: [`rank`] fixes the priorities, [`SimState::seed_ready`] queues
/// the source tasks, [`SimState::run_loop`] drains the event queue and
/// [`SimState::account`] closes the books.
///
/// # Scheduling semantics
///
/// * **Task order.** Ready tasks are ordered by a per-task priority fixed
///   up front by the [`TaskCriterion`] (higher first), with the
///   [`TieBreak`] over the global readiness sequence as a strict total
///   order among equals.
/// * **Placement.** Under [`ProcessCriterion::Pinned`] each process owns a
///   private ready queue holding the tasks of its domains — the paper's
///   FLUSIM, refilled through the dirty-process set in ascending id order.
///   Under a dynamic criterion all ready tasks share one global queue; at
///   every refill the scheduler repeatedly picks the best free process
///   (ascending-id scan, strict-improvement keep ⇒ lowest id wins ties)
///   and hands it the best ready task, until cores or tasks run out.
/// * **Communication.** When a task completes, each dependency edge whose
///   successor's *home* process (its domain's owner under `process_of`)
///   differs from the executing process sends one message, sized by
///   [`NetworkModel::message_bytes`]. Zero-byte messages are never sent.
///   A real message becomes an inbound transfer on the destination: it
///   starts at `max(now, earliest-free NIC channel)` (lowest channel id
///   wins ties; unbounded channels always start at `now`), lasts
///   `link.latency + bytes × link.cost_per_byte`, and only its *delivery*
///   gates the successor's readiness — compute on every process continues
///   underneath, which is exactly the overlap the paper's runtime banks
///   on. Transfers never pre-empt or share bandwidth retroactively:
///   channel occupancy is decided once, in completion order, keeping the
///   loop allocation-free and the schedule a pure function of its inputs.
///   Destinations and sizes come from the [`PricedNetwork`] table (always,
///   when a network is present); only the link duration is computed here,
///   and without a data-dependent branch: the link is `intra` when the
///   node vector puts source and destination on one node and `inter`
///   otherwise (one compare, no division), the earliest-free channel is a
///   running `(channel, free time)` pair updated by selects with a strict
///   `<` (so the lowest id still wins ties), and the successor's readiness
///   is a `max`. A channel row is `min(channels, edges)` wide: no pick can
///   land past it (see [`SimState::new`]).
/// * **Accounting.** Everything the closing counters publish — `busy`,
///   `active`, `subiter_work` and the per-process `bytes_in` / `messages`
///   tallies — accumulates inside the loop, so a run emits the same stream
///   whether or not it keeps a log. The rest of [`NetStats`] is derived
///   *after* the loop, from the [`ScheduleLog`] when the caller kept one:
///   one pass over the transfers and one over the segments — integer sums
///   plus a push-or-extend-last interval merge. That merge needs no sort
///   because the loop emits both logs in start order per process: a
///   transfer starts at `max(now, earliest-free channel)` and `now` and
///   every channel's free time only grow, so per destination transfer
///   starts are non-decreasing; a segment starts at its launch instant
///   `now`, so per process segment starts are too.
///   `NetStats::from_intervals` rebuilt from [`SimResult::transfers`] /
///   [`SimResult::segments`] is the oracle (`tests/property_comm.rs`).
struct SimState<'a> {
    graph: &'a TaskGraph,
    process_of: &'a [usize],
    strat: DynamicListStrategy,
    priority: Option<&'a [i64]>,
    net: Option<&'a PricedNetwork<'a>>,
    rec: &'a Recorder,
    /// `rec.enabled()`, read once: the recorder's state never changes
    /// mid-run, so the disabled hot path is a plain branch instead of an
    /// atomic load behind two pointer dereferences per launched task.
    traced: bool,
    pinned: bool,
    /// NIC channels per process, at most one per dependency edge (see
    /// [`SimState::new`]); 0 when unbounded (or no network), where
    /// transfers always start immediately on channel 0.
    bounded_channels: usize,
    now: u64,
    /// Global readiness sequence, the [`TieBreak`] key.
    seq: i64,
    indegree: Vec<u32>,
    /// Ready queues: max-heaps over (priority, tiebreak, task id). Pinned
    /// placement gives every process a private queue pre-sized to the
    /// number of tasks mapped to it — a task enters its process's queue at
    /// most once, so pushes never reallocate inside the event loop. Dynamic
    /// placement shares a single global queue (slot 0) pre-sized to the
    /// whole DAG, with the same no-reallocation guarantee.
    ready: Vec<BinaryHeap<(i64, i64, TaskId)>>,
    /// Dirty set of processes whose launch capacity may have changed since
    /// the last refill: a core was freed, or a task was pushed onto their
    /// ready queue. Between refills every process satisfies
    /// `free_cores[p] == 0 || ready[p].is_empty()`, so draining only the
    /// dirty processes (in ascending id order, matching the historical full
    /// `0..np` sweep) is behaviour-identical while costing O(affected)
    /// rather than O(np) per event. Pinned mode only: the dynamic global
    /// queue degenerates the dirty set to a single always-checked slot, so
    /// its refill runs unconditionally after every event instead.
    dirty: Vec<usize>,
    is_dirty: Vec<bool>,
    /// Event queue: tag 0 = task completion, tag 1 = delayed readiness.
    /// Any task owns at most one outstanding event at a time (a tag-1
    /// readiness before it runs, or a tag-0 completion while it runs), so
    /// the heap never holds more than `n` entries and a capacity of `n`
    /// keeps the loop free of reallocation.
    events: BinaryHeap<Reverse<(u64, u8, TaskId)>>,
    /// Earliest-start constraint accumulated from cross-process messages.
    ready_at: Vec<u64>,
    free_cores: Vec<usize>,
    busy: Vec<u64>,
    subiter_work: Vec<Vec<u64>>,
    /// Active-interval tracking per process: count of running tasks and the
    /// time the process last became active.
    running: Vec<usize>,
    active_since: Vec<u64>,
    active: Vec<u64>,
    /// Where each task executed — equal to its home process when pinned,
    /// decided at launch time under a dynamic process criterion. Completion
    /// must credit the executing process, not the home.
    ran_on: Vec<u32>,
    /// Σ n_objects of the currently-running tasks per process, the
    /// FewestActiveObjects selection key (maintained unconditionally: two
    /// u64 adds per task are noise next to the heap traffic).
    active_objects: Vec<u64>,
    /// Earliest-free time per (process, channel); empty when channels are
    /// unbounded.
    nic_free: Vec<u64>,
    /// Inbound bytes and messages per process (empty without a network).
    bytes_in: Vec<u64>,
    messages: Vec<u64>,
}

impl<'a> SimState<'a> {
    /// Allocates the loop state at its peak capacity.
    ///
    /// # Panics
    ///
    /// Panics if `process_of` is inconsistent with the graph or cluster.
    fn new(
        graph: &'a TaskGraph,
        cores: &[usize],
        process_of: &'a [usize],
        strat: &DynamicListStrategy,
        priority: Option<&'a [i64]>,
        net: Option<&'a PricedNetwork<'a>>,
        rec: &'a Recorder,
    ) -> Self {
        assert!(!cores.is_empty(), "need at least one process");
        assert!(cores.iter().all(|&c| c >= 1), "every process needs a core");
        assert_mapping(graph, cores.len(), process_of);
        let n = graph.len();
        let np = cores.len();
        debug_assert!(
            net.is_none_or(|p| p.home.len() == n && p.bytes.len() == graph.n_edges()),
            "edge prices belong to another task graph"
        );
        debug_assert!(
            priority.is_none_or(|p| p.len() == n),
            "priorities belong to another task graph"
        );
        // Each dependency edge sends at most one transfer, and the k-th
        // transfer into a process finds at most k − 1 channels touched: an
        // untouched channel reads 0, the minimum, so the lowest-id
        // earliest-free pick never lands above index `n_edges − 1`. Wider
        // rows schedule alike — and at a budget near `usize::MAX` could not
        // be allocated.
        let bounded_channels = net.map_or(0, |p| {
            if p.model.channels == UNBOUNDED_CHANNELS {
                0
            } else {
                p.model.channels.min(graph.n_edges().max(1))
            }
        });
        let pinned = strat.process == ProcessCriterion::Pinned;
        let ready = if pinned {
            let mut tasks_on: Vec<usize> = vec![0; np];
            for task in graph.tasks() {
                tasks_on[process_of[task.domain as usize]] += 1;
            }
            tasks_on
                .iter()
                .map(|&c| BinaryHeap::with_capacity(c))
                .collect()
        } else {
            vec![BinaryHeap::with_capacity(n)]
        };
        let np_if_priced = if net.is_some() { np } else { 0 };
        Self {
            graph,
            process_of,
            strat: *strat,
            priority,
            net,
            rec,
            traced: rec.enabled(),
            pinned,
            bounded_channels,
            now: 0,
            seq: 0,
            indegree: (0..n)
                .map(|t| graph.preds(t as TaskId).len() as u32)
                .collect(),
            ready,
            dirty: Vec::with_capacity(np),
            is_dirty: vec![false; np],
            events: BinaryHeap::with_capacity(n),
            ready_at: vec![0; n],
            free_cores: cores.to_vec(),
            busy: vec![0; np],
            subiter_work: vec![vec![0; graph.n_subiterations as usize]; np],
            running: vec![0; np],
            active_since: vec![0; np],
            active: vec![0; np],
            ran_on: vec![0; n],
            active_objects: vec![0; np],
            nic_free: vec![0; np * bounded_channels],
            bytes_in: vec![0; np_if_priced],
            messages: vec![0; np_if_priced],
        }
    }

    /// The three phases after [`rank`], keeping `log` if the caller wants
    /// the schedule itself and not only its totals.
    ///
    /// # Panics
    ///
    /// Panics if the DAG deadlocks (cycle — cannot happen for
    /// [`TaskGraph`]s built by this workspace).
    fn run(mut self, mut log: Option<ScheduleLog>) -> SimResult {
        self.seed_ready();
        self.run_loop(log.as_mut());
        self.account(log)
    }

    /// Queues `t` as ready now.
    fn push_ready(&mut self, t: TaskId) {
        let tie = match self.strat.tie {
            TieBreak::ReverseInsertion => self.seq,
            TieBreak::InsertionOrder => -self.seq,
        };
        self.seq += 1;
        let entry = (self.priority.map_or(0, |p| p[t as usize]), tie, t);
        if self.pinned {
            let p = self.process_of[self.graph.task(t).domain as usize];
            self.ready[p].push(entry);
            if !self.is_dirty[p] {
                self.is_dirty[p] = true;
                self.dirty.push(p);
            }
        } else {
            self.ready[0].push(entry);
        }
    }

    /// Queues every source task, opens the run span and publishes the
    /// cluster shape — *before* the zero-allocation steady state begins:
    /// the first emission on a thread creates its sink (the only allocating
    /// enabled path).
    fn seed_ready(&mut self) {
        let n = self.graph.len();
        for t in 0..n as TaskId {
            if self.indegree[t as usize] == 0 {
                self.push_ready(t);
            }
        }
        let rec = self.rec;
        rec.begin_at(
            Clock::Virtual,
            "flusim.run",
            0,
            0,
            n as u64,
            self.graph.n_subiterations as u64,
        );
        for (p, &c) in self.free_cores.iter().enumerate() {
            rec.counter_at(Clock::Virtual, "flusim.cores", p as u32, 0, c as u64);
        }
        if let Some(priced) = self.net {
            // Publish the channel budget so replay can bound `net.xfer`
            // overlap per process (`u64::MAX` = unbounded).
            let ch = if priced.model.channels == UNBOUNDED_CHANNELS {
                u64::MAX
            } else {
                priced.model.channels as u64
            };
            for p in 0..self.free_cores.len() {
                rec.counter_at(Clock::Virtual, "net.channels", p as u32, 0, ch);
            }
        }
    }

    /// Starts `t` on process `p` now.
    fn launch(&mut self, p: usize, t: TaskId, log: Option<&mut ScheduleLog>) {
        let task = self.graph.task(t);
        let end = self.now + task.cost;
        if self.free_cores[p] != UNBOUNDED_CORES {
            self.free_cores[p] -= 1;
        }
        if self.running[p] == 0 {
            self.active_since[p] = self.now;
        }
        self.running[p] += 1;
        self.busy[p] += task.cost;
        self.subiter_work[p][task.subiter as usize] += task.cost;
        self.ran_on[t as usize] = p as u32;
        self.active_objects[p] += u64::from(task.n_objects);
        if let Some(log) = log {
            log.segments.push(Segment {
                task: t,
                process: p as u32,
                start: self.now,
                end,
            });
        }
        // One structured event per executed task. Inside the event loop
        // this never allocates: the per-thread sink already exists (forced
        // by the "flusim.run" span-begin in `seed_ready`) and its buffer
        // was created at full capacity, so a push either fits or is counted
        // as dropped.
        if self.traced {
            self.rec.complete_at(
                Clock::Virtual,
                "flusim.task",
                p as u32,
                self.now,
                task.cost,
                u64::from(t),
                u64::from(task.subiter),
            );
        }
        self.events.push(Reverse((end, 0u8, t)));
    }

    /// Best free process under the dynamic criterion: ascending-id scan
    /// keeping the current candidate only on strict improvement, so
    /// criterion ties always resolve to the lowest process id. O(np) per
    /// launch, allocation-free. (`Pinned` short-circuits like `FirstFree`
    /// but is never consulted — pinned refills pop per-process queues.)
    fn select_process(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for p in 0..self.free_cores.len() {
            if self.free_cores[p] == 0 {
                continue;
            }
            match self.strat.process {
                ProcessCriterion::Pinned | ProcessCriterion::FirstFree => return Some(p),
                ProcessCriterion::LeastLoaded => {
                    if best.is_none_or(|b| self.busy[p] < self.busy[b]) {
                        best = Some(p);
                    }
                }
                ProcessCriterion::FewestActiveObjects => {
                    if best.is_none_or(|b| self.active_objects[p] < self.active_objects[b]) {
                        best = Some(p);
                    }
                }
            }
        }
        best
    }

    /// Launches ready tasks onto free cores until either side runs out.
    fn refill(&mut self, mut log: Option<&mut ScheduleLog>) {
        if self.pinned {
            // Fill freed capacity on the processes touched since the last
            // refill. Ascending id order replicates the historical full
            // `0..np` sweep; untouched processes still satisfy `free == 0
            // || ready empty` from the end of the previous refill, so
            // skipping them cannot change behaviour. Launching never marks
            // new processes dirty (it only pushes completion events), so
            // draining the snapshot is complete.
            self.dirty.sort_unstable();
            for i in 0..self.dirty.len() {
                let q = self.dirty[i];
                while self.free_cores[q] > 0 {
                    let Some((_, _, t)) = self.ready[q].pop() else {
                        break;
                    };
                    self.launch(q, t, log.as_deref_mut());
                }
                self.is_dirty[q] = false;
            }
            self.dirty.clear();
        } else {
            // Hand the best ready task to the best free process. The
            // selection keys (busy, active_objects) are updated by every
            // launch, so the criterion is re-evaluated greedily per
            // placement.
            while !self.ready[0].is_empty() {
                let Some(q) = self.select_process() else {
                    break;
                };
                let (_, _, t) = self.ready[0].pop().expect("checked non-empty");
                self.launch(q, t, log.as_deref_mut());
            }
        }
    }

    /// Schedules one `bytes`-long message for task `succ` from process
    /// `src` onto an inbound NIC channel of `dst`; returns its delivery
    /// time.
    fn transfer(
        &mut self,
        priced: &PricedNetwork,
        src: usize,
        dst: usize,
        succ: TaskId,
        bytes: u64,
        log: Option<&mut ScheduleLog>,
    ) -> u64 {
        let dur = priced.route(src, dst).duration(bytes);
        let (channel, start) = if self.bounded_channels == 0 {
            (0usize, self.now)
        } else {
            let nic = &mut self.nic_free[dst * self.bounded_channels..][..self.bounded_channels];
            let (best, best_free) = earliest_free(nic);
            let start = self.now.max(best_free);
            nic[best] = start + dur;
            (best, start)
        };
        let end = start + dur;
        self.bytes_in[dst] += bytes;
        self.messages[dst] += 1;
        if let Some(log) = log {
            log.transfers.push(TransferSegment {
                task: succ,
                src: src as u32,
                dst: dst as u32,
                channel: channel as u32,
                start,
                end,
                bytes,
            });
        }
        if self.traced {
            self.rec.complete_at(
                Clock::Virtual,
                "net.xfer",
                dst as u32,
                start,
                dur,
                (src as u64) << 32 | channel as u64,
                bytes,
            );
        }
        end
    }

    /// Retires `t`: credits the process it ran on, sends its messages and
    /// releases the successors whose last dependency it was.
    fn complete(&mut self, t: TaskId, mut log: Option<&mut ScheduleLog>) {
        // Credit the process the task actually ran on — its home process
        // when pinned, the dynamically selected one otherwise.
        let p = self.ran_on[t as usize] as usize;
        if self.free_cores[p] != UNBOUNDED_CORES {
            self.free_cores[p] += 1;
        }
        if self.pinned && !self.is_dirty[p] {
            self.is_dirty[p] = true;
            self.dirty.push(p);
        }
        self.running[p] -= 1;
        if self.running[p] == 0 {
            self.active[p] += self.now - self.active_since[p];
        }
        let graph = self.graph;
        self.active_objects[p] -= u64::from(graph.task(t).n_objects);
        let succs = graph.succs(t);
        let priced_edges = self
            .net
            .map(|n| (n, &n.bytes[n.first_edge[t as usize]..][..succs.len()]));
        for (k, &s) in succs.iter().enumerate() {
            if let Some((priced, edge_bytes)) = priced_edges {
                // The message travels from the predecessor's executing
                // process to the successor's *home* process (where its
                // domain's data lives); under pinned placement the
                // predecessor executed at its own home.
                // Zero-byte messages are never sent: nothing to wait for,
                // no channel occupied.
                let sp = priced.home[s as usize] as usize;
                let bytes = edge_bytes[k];
                if sp != p && bytes > 0 {
                    let end = self.transfer(priced, p, sp, s, bytes, log.as_deref_mut());
                    self.ready_at[s as usize] = self.ready_at[s as usize].max(end);
                }
            }
            self.indegree[s as usize] -= 1;
            if self.indegree[s as usize] == 0 {
                if self.ready_at[s as usize] > self.now {
                    self.events
                        .push(Reverse((self.ready_at[s as usize], 1u8, s)));
                } else {
                    self.push_ready(s);
                }
            }
        }
    }

    /// The event loop. Every container it touches is at its peak capacity
    /// (events ≤ n, ready[p] ≤ tasks on p, dirty ≤ np, and in `log`
    /// segments ≤ n, transfers ≤ edges), so it performs no heap allocation
    /// — verified whenever the counting test allocator is installed (see
    /// testkit::alloc). `log` is what the caller keeps of the schedule;
    /// `None` writes no per-task or per-transfer record at all.
    fn run_loop(&mut self, mut log: Option<&mut ScheduleLog>) {
        #[cfg(debug_assertions)]
        let allocs_at_steady_state = tempart_testkit::alloc::allocation_count();

        let mut done = 0usize;
        loop {
            // Launch what the last event made possible — on the first pass
            // the source tasks: the seeding pushes marked their processes
            // dirty like any later push.
            self.refill(log.as_deref_mut());
            let Some(Reverse((time, tag, t))) = self.events.pop() else {
                break;
            };
            self.now = time;
            if tag == 1 {
                // Delayed readiness: the task's messages have now all
                // arrived.
                self.push_ready(t);
            } else {
                done += 1;
                self.complete(t, log.as_deref_mut());
            }
        }
        let n = self.graph.len();
        assert_eq!(done, n, "deadlock: {done} of {n} tasks executed");
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            tempart_testkit::alloc::allocation_count(),
            allocs_at_steady_state,
            "simulator event loop allocated on the heap"
        );
    }

    /// Closes the books: emits the closing counters, derives [`NetStats`]
    /// from `log` (priced runs that kept one) and hands the totals over.
    fn account(self, log: Option<ScheduleLog>) -> SimResult {
        let now = self.now;
        // Closing accounting counters (per process, and per process ×
        // subiteration) let trace viewers read the Fig. 6 busy/idle story
        // without replaying the task events; `b` on `subiter_work` carries
        // the subiteration index.
        if self.traced {
            let rec = self.rec;
            for p in 0..self.busy.len() {
                rec.counter_at(Clock::Virtual, "flusim.busy", p as u32, now, self.busy[p]);
                rec.counter_at(
                    Clock::Virtual,
                    "flusim.active",
                    p as u32,
                    now,
                    self.active[p],
                );
                for (s, &w) in self.subiter_work[p].iter().enumerate() {
                    rec.counter_args_at(
                        Clock::Virtual,
                        "flusim.subiter_work",
                        p as u32,
                        now,
                        w,
                        s as u64,
                        0,
                    );
                }
            }
            for (p, (&bytes, &msgs)) in self.bytes_in.iter().zip(&self.messages).enumerate() {
                rec.counter_at(Clock::Virtual, "net.bytes", p as u32, now, bytes);
                rec.counter_at(Clock::Virtual, "net.msgs", p as u32, now, msgs);
            }
            rec.end_at(Clock::Virtual, "flusim.run", 0, now);
        }
        // Communication accounting — deliberately *after* the
        // zero-allocation steady state (the merged interval lists
        // allocate).
        let net = match (self.net, &log) {
            (Some(_), Some(log)) => Some(net_stats(log, self.bytes_in, self.messages)),
            _ => None,
        };
        let (segments, transfers) =
            log.map_or_else(Default::default, |log| (log.segments, log.transfers));
        SimResult {
            makespan: now,
            busy: self.busy,
            active: self.active,
            subiter_work: self.subiter_work,
            segments,
            transfers,
            net,
        }
    }
}

/// [`NetStats`] of a logged priced run: both logs are in start order per
/// process (see "Accounting" at [`SimState`]), so one pass each builds the
/// interval unions `NetStats::from_intervals` would sort for. `bytes_in`
/// and `messages` are the loop's own tallies.
fn net_stats(log: &ScheduleLog, bytes_in: Vec<u64>, messages: Vec<u64>) -> NetStats {
    let np = bytes_in.len();
    let mut comm_busy = vec![0; np];
    let mut comm: Vec<Vec<(u64, u64)>> = vec![Vec::new(); np];
    for tr in &log.transfers {
        let p = tr.dst as usize;
        comm_busy[p] += tr.end - tr.start;
        push_merged(&mut comm[p], tr.start, tr.end);
    }
    let mut compute: Vec<Vec<(u64, u64)>> = vec![Vec::new(); np];
    for s in &log.segments {
        push_merged(&mut compute[s.process as usize], s.start, s.end);
    }
    NetStats {
        comm_busy,
        comm_active: comm
            .iter()
            .map(|c| c.iter().map(|(s, e)| e - s).sum())
            .collect(),
        hidden: comm
            .iter()
            .zip(&compute)
            .map(|(comm, compute)| intersection_len(comm, compute))
            .collect(),
        bytes_in,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::HaloBytes;
    use tempart_taskgraph::{Task, TaskKind};
    use tempart_testkit::Rng;

    const EAGER_FIFO: DynamicListStrategy = DynamicListStrategy::EAGER_FIFO;

    /// `model` carrying the `(domain_a, domain_b, bytes)` halo `pairs` of an
    /// `n_domains`-domain graph.
    fn sized(mut model: NetworkModel, n_domains: usize, pairs: &[(u32, u32, u64)]) -> NetworkModel {
        model.sizes = HaloBytes::from_pairs(n_domains, pairs);
        model
    }

    /// Uniform `{latency, cost_per_byte}` links on unbounded channels, 5
    /// bytes between domains 0 and 1.
    fn uncontended(latency: u64, cost_per_byte: u64) -> NetworkModel {
        let link = Link {
            latency,
            cost_per_byte,
        };
        sized(
            NetworkModel::uniform(link, UNBOUNDED_CHANNELS),
            2,
            &[(0, 1, 5)],
        )
    }

    /// Free-communication, untraced run of one lattice point on a uniform
    /// cluster.
    fn lattice_run(
        g: &TaskGraph,
        cluster: &ClusterConfig,
        process_of: &[usize],
        strat: &DynamicListStrategy,
    ) -> SimResult {
        simulate_with(
            g,
            &cluster.cores(),
            process_of,
            strat,
            None,
            Recorder::off(),
        )
    }

    fn mk_task(domain: u32, cost: u64, subiter: u32) -> Task {
        Task {
            subiter,
            tau: 0,
            stage: 0,
            domain,
            kind: TaskKind::CellInternal,
            n_objects: cost as u32,
            cost,
        }
    }

    /// Two independent chains on two domains.
    fn two_chains() -> TaskGraph {
        let tasks = vec![
            mk_task(0, 5, 0),
            mk_task(0, 5, 0),
            mk_task(1, 3, 0),
            mk_task(1, 3, 0),
        ];
        let preds = vec![vec![], vec![0], vec![], vec![2]];
        TaskGraph::assemble(tasks, preds, 2, 1)
    }

    #[test]
    fn chains_on_two_processes() {
        let g = two_chains();
        let cluster = ClusterConfig::new(2, 1);
        let r = simulate(&g, &cluster, &[0, 1], EAGER_FIFO);
        assert_eq!(r.makespan, 10);
        assert_eq!(r.busy, vec![10, 6]);
        assert_eq!(r.total_executed(), g.total_cost());
        assert_eq!(r.active, vec![10, 6]);
        let inact = r.process_inactivity();
        assert!((inact[0] - 0.0).abs() < 1e-12);
        assert!((inact[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn chains_on_one_process() {
        let g = two_chains();
        let cluster = ClusterConfig::new(1, 1);
        let r = simulate(&g, &cluster, &[0, 0], EAGER_FIFO);
        assert_eq!(r.makespan, 16, "serialised on one core");
        assert!((r.idle_fraction(&cluster)).abs() < 1e-12);
    }

    #[test]
    fn two_cores_overlap_independent_chains() {
        let g = two_chains();
        let cluster = ClusterConfig::new(1, 2);
        let r = simulate(&g, &cluster, &[0, 0], EAGER_FIFO);
        assert_eq!(r.makespan, 10);
    }

    #[test]
    fn unbounded_cores_hit_critical_path() {
        // Wide fork: 1 root, 10 children; unbounded cores finish at
        // root + max(child).
        let mut tasks = vec![mk_task(0, 2, 0)];
        let mut preds: Vec<Vec<TaskId>> = vec![vec![]];
        for i in 0..10 {
            tasks.push(mk_task(0, 1 + (i % 3), 0));
            preds.push(vec![0]);
        }
        let g = TaskGraph::assemble(tasks, preds, 1, 1);
        let r = simulate(&g, &ClusterConfig::unbounded(1), &[0], EAGER_FIFO);
        assert_eq!(r.makespan, g.critical_path());
    }

    #[test]
    fn makespan_lower_bounds() {
        let g = two_chains();
        for strat in DynamicListStrategy::NAMED {
            let cluster = ClusterConfig::new(2, 1);
            let r = simulate(&g, &cluster, &[0, 1], strat);
            assert!(r.makespan >= g.critical_path());
            let total_cores = cluster.total_cores().unwrap() as u64;
            assert!(r.makespan >= g.total_cost() / total_cores);
            assert_eq!(r.total_executed(), g.total_cost());
        }
    }

    /// Half-open segments: back-to-back tasks share no instant and a
    /// zero-cost one never runs; each process counts its own.
    #[test]
    fn peak_running_counts_overlaps_per_process() {
        let seg = |task, process, start, end| Segment {
            task,
            process,
            start,
            end,
        };
        let r = SimResult {
            makespan: 10,
            busy: vec![0; 3],
            active: vec![0; 3],
            subiter_work: Vec::new(),
            segments: vec![
                seg(0, 0, 0, 4),
                seg(1, 0, 4, 8),
                seg(2, 0, 2, 6),
                seg(3, 0, 6, 6),
                seg(4, 1, 0, 10),
                seg(5, 1, 1, 2),
                seg(6, 1, 1, 3),
                seg(7, 2, 5, 5),
            ],
            transfers: Vec::new(),
            net: None,
        };
        assert_eq!(r.peak_running(), vec![2, 3, 0]);
    }

    #[test]
    fn dependencies_respected_in_segments() {
        let g = two_chains();
        let r = simulate(&g, &ClusterConfig::new(2, 2), &[0, 1], EAGER_FIFO);
        let seg_of = |t: TaskId| r.segments.iter().find(|s| s.task == t).unwrap();
        assert!(seg_of(1).start >= seg_of(0).end);
        assert!(seg_of(3).start >= seg_of(2).end);
    }

    #[test]
    fn latency_delays_cross_process_edges() {
        // Chain across two processes: 0 (P0) -> 1 (P1). With latency L, task
        // 1 starts L after task 0 finishes.
        let tasks = vec![mk_task(0, 5, 0), mk_task(1, 3, 0)];
        let preds = vec![vec![], vec![0]];
        let g = TaskGraph::assemble(tasks, preds, 2, 1);
        let cluster = ClusterConfig::new(2, 1);
        let free = simulate(&g, &cluster, &[0, 1], EAGER_FIFO);
        assert_eq!(free.makespan, 8);
        let net = uncontended(10, 0);
        let delayed = simulate_lattice_with_network(&g, &cluster, &[0, 1], &EAGER_FIFO, &net);
        assert_eq!(delayed.makespan, 5 + 10 + 3);
        // Same-process chain is unaffected.
        let local = simulate_lattice_with_network(&g, &cluster, &[0, 0], &EAGER_FIFO, &net);
        assert_eq!(local.makespan, 8);
    }

    #[test]
    fn transfer_cost_scales_with_message_size() {
        let tasks = vec![mk_task(0, 5, 0), mk_task(1, 3, 0)];
        let preds = vec![vec![], vec![0]];
        let g = TaskGraph::assemble(tasks, preds, 2, 1);
        let cluster = ClusterConfig::new(2, 1);
        // The halo between the two domains is 5 bytes → delay 1 + 5*2 = 11.
        let r =
            simulate_lattice_with_network(&g, &cluster, &[0, 1], &EAGER_FIFO, &uncontended(1, 2));
        assert_eq!(r.makespan, 5 + 11 + 3);
        assert_eq!(r.total_executed(), g.total_cost());
    }

    #[test]
    fn heterogeneous_cores_respected() {
        // 4 independent unit tasks on each of two domains; process 0 has 4
        // cores (all parallel), process 1 has 1 core (serial).
        let mut tasks = Vec::new();
        let mut preds: Vec<Vec<TaskId>> = Vec::new();
        for d in 0..2u32 {
            for _ in 0..4 {
                tasks.push(mk_task(d, 3, 0));
                preds.push(vec![]);
            }
        }
        let g = TaskGraph::assemble(tasks, preds, 2, 1);
        let r = simulate_with(&g, &[4, 1], &[0, 1], &EAGER_FIFO, None, Recorder::off());
        // Process 0 finishes at 3; process 1 serialises to 12.
        assert_eq!(r.makespan, 12);
        assert_eq!(r.busy, vec![12, 12]);
        assert_eq!(r.active, vec![3, 12]);
    }

    #[test]
    fn subiter_work_accounted() {
        let tasks = vec![mk_task(0, 4, 0), mk_task(0, 6, 1)];
        let preds = vec![vec![], vec![0]];
        let g = TaskGraph::assemble(tasks, preds, 1, 2);
        let r = simulate(&g, &ClusterConfig::new(1, 1), &[0], EAGER_FIFO);
        assert_eq!(r.subiter_work[0], vec![4, 6]);
    }

    #[test]
    fn zero_cost_tasks_schedule_cleanly_under_every_combo() {
        // Zero-cost tasks complete at their start instant: the active
        // interval they open closes at zero width, cost criteria rank them
        // first/last, and the busy/total accounting must stay conserved.
        let tasks = vec![
            mk_task(0, 0, 0),
            mk_task(0, 5, 0),
            mk_task(1, 0, 0),
            mk_task(1, 3, 0),
        ];
        let preds = vec![vec![], vec![0], vec![1], vec![2]];
        let g = TaskGraph::assemble(tasks, preds, 2, 1);
        let cluster = ClusterConfig::new(2, 1);
        for strat in DynamicListStrategy::lattice() {
            let r = lattice_run(&g, &cluster, &[0, 1], &strat);
            assert_eq!(
                r.total_executed(),
                g.total_cost(),
                "{}: cost conservation",
                strat.label()
            );
            assert_eq!(
                r.segments.len(),
                g.len(),
                "{}: every task ran",
                strat.label()
            );
            assert_eq!(r.makespan, 8, "{}: chain 0→1→2→3 is 0+5+0+3", strat.label());
        }
    }

    #[test]
    fn single_process_cluster_collapses_the_process_axis() {
        // With one process every placement rule picks process 0, so each
        // task criterion's pinned and dynamic points must produce the very
        // same schedule, bit for bit.
        let g = two_chains();
        let cluster = ClusterConfig::new(1, 2);
        for task in TaskCriterion::ALL {
            let pinned = lattice_run(
                &g,
                &cluster,
                &[0, 0],
                &DynamicListStrategy::canonical(task, ProcessCriterion::Pinned),
            );
            for process in [
                ProcessCriterion::FirstFree,
                ProcessCriterion::LeastLoaded,
                ProcessCriterion::FewestActiveObjects,
            ] {
                let dynamic = lattice_run(
                    &g,
                    &cluster,
                    &[0, 0],
                    &DynamicListStrategy::canonical(task, process),
                );
                assert_eq!(
                    pinned.segments, dynamic.segments,
                    "{task:?}+{process:?}: single-process schedules diverged"
                );
            }
        }
    }

    #[test]
    fn dynamic_placement_charges_comm_against_the_successors_home() {
        // Chain 0 → 1 with homes P0 and P1 under FirstFree: task 0 runs on
        // P0 (lowest free id), the message to task 1's *home* (P1) delays
        // its readiness, and then task 1 itself also runs on P0 — placement
        // is free to ignore the home, but the message charge is not.
        let tasks = vec![mk_task(0, 5, 0), mk_task(1, 3, 0)];
        let preds = vec![vec![], vec![0]];
        let g = TaskGraph::assemble(tasks, preds, 2, 1);
        let cluster = ClusterConfig::new(2, 1);
        let net = uncontended(10, 0);
        let strat =
            DynamicListStrategy::canonical(TaskCriterion::Fifo, ProcessCriterion::FirstFree);
        let r = simulate_lattice_with_network(&g, &cluster, &[0, 1], &strat, &net);
        assert_eq!(r.makespan, 5 + 10 + 3, "cross-home edge pays the delay");
        assert!(
            r.segments.iter().all(|s| s.process == 0),
            "first-free placement keeps both tasks on process 0"
        );
        // Same-home chain pays nothing, wherever it executes.
        let local = simulate_lattice_with_network(&g, &cluster, &[0, 0], &strat, &net);
        assert_eq!(local.makespan, 8);
    }

    #[test]
    fn least_loaded_spreads_independent_tasks() {
        // Four independent equal-cost tasks, all homed on domain 0 of a
        // 2-process cluster: pinned serialises all four onto process 0's
        // one core (makespan 12); least-loaded alternates processes
        // (makespan 6).
        let tasks = (0..4).map(|_| mk_task(0, 3, 0)).collect::<Vec<_>>();
        let preds = vec![vec![]; 4];
        let g = TaskGraph::assemble(tasks, preds, 1, 1);
        let cluster = ClusterConfig::new(2, 1);
        let pinned = lattice_run(
            &g,
            &cluster,
            &[0],
            &DynamicListStrategy::canonical(TaskCriterion::Fifo, ProcessCriterion::Pinned),
        );
        assert_eq!(pinned.makespan, 12);
        let spread = lattice_run(
            &g,
            &cluster,
            &[0],
            &DynamicListStrategy::canonical(TaskCriterion::Fifo, ProcessCriterion::LeastLoaded),
        );
        assert_eq!(spread.makespan, 6, "least-loaded uses both processes");
        assert_eq!(spread.busy, vec![6, 6]);
    }

    #[test]
    fn bounded_channels_serialise_concurrent_transfers() {
        // Two equal-cost roots on P0/P1 both feed task 2 homed on P2. Both
        // messages arrive at P2's NIC at t=5 with duration 10: one channel
        // serialises them ([5,15) then [15,25)); two channels overlap them.
        let tasks = vec![mk_task(0, 5, 0), mk_task(1, 5, 0), mk_task(2, 3, 0)];
        let preds = vec![vec![], vec![], vec![0, 1]];
        let g = TaskGraph::assemble(tasks, preds, 3, 1);
        let cluster = ClusterConfig::new(3, 1);
        let strat = EAGER_FIFO;
        let link = Link {
            latency: 10,
            cost_per_byte: 0,
        };
        let net = |channels| {
            let halo = [(0, 2, 5), (1, 2, 5)];
            sized(NetworkModel::uniform(link, channels), 3, &halo)
        };
        let serial = simulate_lattice_with_network(&g, &cluster, &[0, 1, 2], &strat, &net(1));
        assert_eq!(serial.makespan, 5 + 10 + 10 + 3);
        let t = &serial.transfers;
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].start, t[0].end, t[0].channel), (5, 15, 0));
        assert_eq!((t[1].start, t[1].end, t[1].channel), (15, 25, 0));
        assert_eq!((t[0].src, t[0].dst), (0, 2));
        let parallel = simulate_lattice_with_network(&g, &cluster, &[0, 1, 2], &strat, &net(2));
        assert_eq!(parallel.makespan, 5 + 10 + 3);
        assert_eq!(parallel.transfers[1].channel, 1, "second transfer spills");
        let unbounded = simulate_lattice_with_network(
            &g,
            &cluster,
            &[0, 1, 2],
            &strat,
            &net(UNBOUNDED_CHANNELS),
        );
        assert_eq!(unbounded.makespan, parallel.makespan);
    }

    #[test]
    fn overlap_statistics_count_hidden_transfer_time() {
        // P0 runs A (cost 10) whose output feeds C homed on P1; P1 runs an
        // independent B (cost 20) meanwhile. The transfer [10,18) to P1 is
        // entirely hidden under B's compute, so overlap efficiency is 1.
        let tasks = vec![mk_task(0, 10, 0), mk_task(1, 20, 0), mk_task(1, 5, 0)];
        let preds = vec![vec![], vec![], vec![0]];
        let g = TaskGraph::assemble(tasks, preds, 2, 1);
        let cluster = ClusterConfig::new(2, 2);
        let link = Link {
            latency: 8,
            cost_per_byte: 0,
        };
        let net = sized(NetworkModel::uniform(link, 1), 2, &[(0, 1, 10)]);
        let r = simulate_lattice_with_network(&g, &cluster, &[0, 1], &EAGER_FIFO, &net);
        assert_eq!(r.makespan, 23, "C runs [18, 23)");
        let stats = r.net.expect("network stats present");
        assert_eq!(stats.comm_busy, vec![0, 8]);
        assert_eq!(stats.comm_active, vec![0, 8]);
        assert_eq!(stats.hidden, vec![0, 8]);
        assert_eq!(stats.bytes_in, vec![0, 10], "the halo of domains 0 and 1");
        assert_eq!(stats.messages, vec![0, 1]);
        assert_eq!(stats.total_comm_time(), 8);
        assert_eq!(stats.overlap_efficiency().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn zero_cost_network_matches_free_simulation_bit_for_bit() {
        let g = two_chains();
        let cluster = ClusterConfig::new(2, 1);
        let zero_cost = sized(NetworkModel::zero_cost(), 2, &[(0, 1, 5)]);
        for strat in DynamicListStrategy::lattice() {
            let free = lattice_run(&g, &cluster, &[0, 1], &strat);
            let zero = simulate_lattice_with_network(&g, &cluster, &[0, 1], &strat, &zero_cost);
            assert_eq!(free.makespan, zero.makespan, "{}", strat.label());
            assert_eq!(free.segments, zero.segments, "{}", strat.label());
            assert_eq!(free.busy, zero.busy, "{}", strat.label());
            assert!(free.net.is_none() && zero.net.is_some());
        }
    }

    #[test]
    fn halo_sizes_charge_adjacent_domains_and_free_same_domain_edges() {
        let link = Link {
            latency: 100,
            cost_per_byte: 1,
        };
        let cluster = ClusterConfig::new(2, 1);

        // Pinned cross-domain chain 0(d0)→1(d1): the halo between adjacent
        // domains 0 and 1 is 6 bytes → delay 106.
        let tasks = vec![mk_task(0, 5, 0), mk_task(1, 3, 0)];
        let g = TaskGraph::assemble(tasks, vec![vec![], vec![0]], 2, 1);
        let net = sized(NetworkModel::uniform(link, 1), 2, &[(0, 1, 6)]);
        let r = simulate_lattice_with_network(&g, &cluster, &[0, 1], &EAGER_FIFO, &net);
        assert_eq!(r.transfers.len(), 1);
        assert_eq!(r.transfers[0].bytes, 6);
        assert_eq!(r.makespan, 5 + 106 + 3);

        // Same-domain cross-process edge: two independent domain-0 roots
        // under FirstFree land on P0 and P1; the successor (also domain 0,
        // home P0) depends on the P1-executed root. That edge crosses
        // processes but stays inside the domain: it carries zero bytes and
        // is never sent.
        let tasks = vec![mk_task(0, 5, 0), mk_task(0, 5, 0), mk_task(0, 3, 0)];
        let g = TaskGraph::assemble(tasks, vec![vec![], vec![], vec![1]], 1, 1);
        let dynamic =
            DynamicListStrategy::canonical(TaskCriterion::Fifo, ProcessCriterion::FirstFree);
        let halo_net = sized(NetworkModel::uniform(link, 1), 1, &[]);
        let free = simulate_lattice_with_network(&g, &cluster, &[0], &dynamic, &halo_net);
        assert!(free.transfers.is_empty(), "same-domain edge sends nothing");
        assert_eq!(free.makespan, 5 + 3);
    }

    #[test]
    fn push_merged_builds_what_merge_intervals_builds() {
        use tempart_obs::replay::merge_intervals;
        let mut rng = Rng::seed_from_u64(0x5EED_1A7E);
        for _ in 0..200 {
            // Start-ordered intervals with ties, touching neighbours, gaps
            // and empty intervals (zero-cost links and tasks).
            let mut start = 0u64;
            let intervals: Vec<(u64, u64)> = (0..rng.gen_range(0usize..40))
                .map(|_| {
                    start += rng.gen_range(0u64..4);
                    (start, start + rng.gen_range(0u64..6))
                })
                .collect();
            let mut merged = Vec::new();
            for &(s, e) in &intervals {
                push_merged(&mut merged, s, e);
            }
            assert_eq!(merged, merge_intervals(intervals.clone()), "{intervals:?}");
        }
    }

    /// A random DAG of `n` tasks over `n_domains` domains: runs of tasks on
    /// one domain, so the sender's domain both repeats and changes from one
    /// task to the next, each task depending on up to three earlier ones.
    fn random_dag(rng: &mut Rng, n: usize, n_domains: u32) -> TaskGraph {
        let mut tasks = Vec::with_capacity(n);
        let mut preds = Vec::with_capacity(n);
        let mut domain = 0;
        for t in 0..n {
            if rng.gen_range(0u32..3) == 0 {
                domain = rng.gen_range(0..n_domains);
            }
            tasks.push(mk_task(domain, rng.gen_range(1u64..20), 0));
            let mut p: Vec<TaskId> = if t == 0 {
                Vec::new()
            } else {
                (0..rng.gen_range(0usize..4))
                    .map(|_| rng.gen_range(0..t as TaskId))
                    .collect()
            };
            p.sort_unstable();
            p.dedup();
            preds.push(p);
        }
        TaskGraph::assemble(tasks, preds, n_domains as usize, 1)
    }

    /// Halo pairs joining about half of the domain pairs, 1–99 bytes each.
    fn random_halo(rng: &mut Rng, n_domains: u32) -> Vec<(u32, u32, u64)> {
        let mut pairs = Vec::new();
        for a in 0..n_domains {
            for b in a + 1..n_domains {
                if rng.gen_bool() {
                    pairs.push((a, b, rng.gen_range(1u64..100)));
                }
            }
        }
        pairs
    }

    #[test]
    fn edge_prices_match_message_bytes_on_every_edge() {
        let mut rng = Rng::seed_from_u64(0xED6E_B17E);
        let (mut same, mut adjacent, mut apart) = (0, 0, 0);
        for _ in 0..40 {
            let n_domains = rng.gen_range(1u32..9);
            let n = rng.gen_range(0usize..200);
            let g = random_dag(&mut rng, n, n_domains);
            let halo = random_halo(&mut rng, n_domains);
            let model = sized(NetworkModel::zero_cost(), n_domains as usize, &halo);
            let process_of = vec![0; n_domains as usize];
            let priced = PricedNetwork::new(&g, 1, &process_of, &model);
            assert_eq!(priced.bytes.len(), g.n_edges());
            for t in 0..g.len() as TaskId {
                for (k, &s) in g.succs(t).iter().enumerate() {
                    let want = model.message_bytes(&g, t, s);
                    let got = priced.bytes[priced.first_edge[t as usize] + k];
                    assert_eq!(got, want, "edge {t} -> {s} of {halo:?}");
                    if g.task(t).domain == g.task(s).domain {
                        same += 1;
                    } else if want > 0 {
                        adjacent += 1;
                    } else {
                        apart += 1;
                    }
                }
            }
        }
        assert!(
            same > 0 && adjacent > 0 && apart > 0,
            "{same} {adjacent} {apart}"
        );
    }

    #[test]
    fn node_vector_routes_every_pair_like_the_topology() {
        // 3 does not divide np, so the last node is a partial one.
        let np = 7;
        let intra = Link {
            latency: 3,
            cost_per_byte: 1,
        };
        let inter = Link {
            latency: 50,
            cost_per_byte: 4,
        };
        let tasks = (0..np as u32).map(|d| mk_task(d, 1, 0)).collect();
        let g = TaskGraph::assemble(tasks, vec![vec![]; np], np, 1);
        let process_of: Vec<usize> = (0..np).collect();
        let mut topologies = vec![NetworkModel::uniform(inter, 2)];
        for procs_per_node in [1, 3, np, np + 1] {
            topologies.push(NetworkModel::two_level(procs_per_node, intra, inter, 2));
        }
        for model in topologies {
            let model = sized(model, np, &[]);
            let priced = PricedNetwork::new(&g, np, &process_of, &model);
            for src in 0..np {
                for dst in 0..np {
                    assert_eq!(
                        priced.route(src, dst),
                        model.topology.link(src, dst),
                        "{src} -> {dst} under {:?}",
                        model.topology
                    );
                }
            }
        }
    }

    #[test]
    fn branchless_pick_matches_the_branching_scan() {
        // The pick before it was branch-free: strict improvement on an
        // ascending scan.
        fn scan(nic: &[u64]) -> usize {
            let mut best = 0;
            for c in 1..nic.len() {
                if nic[c] < nic[best] {
                    best = c;
                }
            }
            best
        }
        let mut rng = Rng::seed_from_u64(0xC4A2_2E15);
        for channels in 1..=5 {
            for _ in 0..500 {
                // Three distinct free times over up to five channels force
                // ties, the minimum's among them.
                let nic: Vec<u64> = (0..channels)
                    .map(|_| rng.gen_range(0u64..3) * 1000)
                    .collect();
                let best = scan(&nic);
                assert_eq!(earliest_free(&nic), (best, nic[best]), "{nic:?}");
            }
        }
    }

    #[test]
    fn channel_budgets_beyond_the_edge_count_schedule_alike() {
        // A channel row is `min(channels, edges)` wide: no transfer can
        // pick a channel at or past the edge count, so every larger budget
        // — up to one no machine could hold a row of — schedules alike.
        let mut rng = Rng::seed_from_u64(0x0C4A_77E1);
        let link = Link {
            latency: 40,
            cost_per_byte: 3,
        };
        let process_of = [0, 1, 2, 0, 1, 2];
        for n in [0, 1, 150] {
            let g = random_dag(&mut rng, n, 6);
            let e = g.n_edges();
            let halo = random_halo(&mut rng, 6);
            let mut spilled = false;
            for strat in DynamicListStrategy::lattice() {
                let run = |channels| {
                    let net = sized(NetworkModel::uniform(link, channels), 6, &halo);
                    simulate_with(
                        &g,
                        &[1, 2, 1],
                        &process_of,
                        &strat,
                        Some(&net),
                        Recorder::off(),
                    )
                };
                let at_edges = run(e.max(1));
                spilled |= at_edges.transfers.iter().any(|x| x.channel > 0);
                let budgets = [e + 1, 2 * e, 1_000_000_000_000_000_000];
                for channels in budgets.into_iter().filter(|&c| c > 0) {
                    assert_eq!(
                        run(channels),
                        at_edges,
                        "{}: {channels} channels",
                        strat.label()
                    );
                }
            }
            assert!(n < 150 || spilled, "no transfer left channel 0");
        }
    }

    #[test]
    fn empty_task_graph_simulates_to_zero() {
        let g = TaskGraph::assemble(vec![], vec![], 1, 1);
        for strat in DynamicListStrategy::lattice() {
            let r = lattice_run(&g, &ClusterConfig::new(2, 2), &[0], &strat);
            assert_eq!(r.makespan, 0, "{}", strat.label());
            assert_eq!(r.busy, vec![0, 0]);
            assert_eq!(r.total_executed(), 0);
            assert!(r.segments.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "message sizes cover 0 domains, the task graph has 2")]
    fn a_network_without_message_sizes_is_refused() {
        // A preset prices nothing until a decomposition gives it sizes.
        let net = NetworkModel::zero_cost();
        let cluster = ClusterConfig::new(2, 1);
        simulate_lattice_with_network(&two_chains(), &cluster, &[0, 1], &EAGER_FIFO, &net);
    }
}
