//! Zero-allocation contract for the simulator's event loop, measured with
//! the testkit counting allocator installed as this binary's global
//! allocator. The event loop behind `simulate_with` (`SimState::run_loop`)
//! snapshots the thread's allocation count on entry — after setup, before
//! the initial launches — and `debug_assert`s it unchanged when the last
//! event drains — running any simulation in this binary therefore *is* the
//! verification. The
//! explicit assertions below additionally pin down that the pre-sizing
//! arithmetic (events ≤ n, ready[p] ≤ tasks on p) covers adversarial
//! shapes: wide fan-out, cross-process chains with comm delays, and
//! heterogeneous core counts.

use tempart_flusim::{
    race, simulate_with, ClusterConfig, DynamicListStrategy, Link, NetworkModel, SimResult,
    Strategy,
};
use tempart_obs::Recorder;
use tempart_taskgraph::{Task, TaskGraph, TaskId, TaskKind};
use tempart_testkit::alloc::{allocated_bytes, count_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

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

/// Layered DAG: `layers` ranks of `width` tasks across `nd` domains, each
/// task depending on two tasks of the previous rank — plenty of same-time
/// completions, cross-process edges and refill churn.
fn layered(layers: usize, width: usize, nd: u32) -> TaskGraph {
    let mut tasks = Vec::new();
    let mut preds: Vec<Vec<TaskId>> = Vec::new();
    for l in 0..layers {
        for w in 0..width {
            let id = tasks.len();
            tasks.push(mk_task(
                ((l * width + w) as u32) % nd,
                1 + ((l * 7 + w * 13) % 5) as u64,
                (l % 3) as u32,
            ));
            if l == 0 {
                preds.push(vec![]);
            } else {
                let base = id - width;
                preds.push(vec![
                    base as TaskId,
                    (base - (base % width) + (w + 1) % width) as TaskId,
                ]);
            }
        }
    }
    TaskGraph::assemble(tasks, preds, nd as usize, 3)
}

/// The general entry on the 4 × 2 cluster most tests here use.
fn run_4x2(
    g: &TaskGraph,
    process_of: &[usize],
    strat: &DynamicListStrategy,
    net: Option<&NetworkModel>,
    rec: &Recorder,
) -> SimResult {
    simulate_with(g, &[2; 4], process_of, strat, net, rec)
}

#[test]
fn event_loop_is_allocation_free_on_layered_dag() {
    let g = layered(24, 32, 12);
    let process_of: Vec<usize> = (0..12).map(|d| d % 4).collect();
    for strat in [
        Strategy::EagerFifo,
        Strategy::EagerLifo,
        Strategy::CriticalPathFirst,
        Strategy::SmallestFirst,
    ] {
        let r = run_4x2(&g, &process_of, &strat.into(), None, Recorder::off());
        assert_eq!(r.total_executed(), g.total_cost());
    }
}

#[test]
fn event_loop_is_allocation_free_with_comm_delays() {
    // Comm delays exercise the tag-1 (delayed readiness) event path, whose
    // re-push must also stay within the pre-sized heaps.
    let g = layered(16, 24, 8);
    let process_of: Vec<usize> = (0..8).map(|d| d % 4).collect();
    let r = run_4x2(
        &g,
        &process_of,
        &Strategy::EagerFifo.into(),
        Some(&NetworkModel::per_object(3, 1)),
        Recorder::off(),
    );
    assert_eq!(r.total_executed(), g.total_cost());
}

#[test]
fn traced_event_loop_is_allocation_free_with_enabled_recorder() {
    // Tracing ON: the recorder's per-thread sink is created by the
    // simulator's own `flusim.run` span-begin *before* the event loop's
    // allocation-count snapshot, so the steady-state `debug_assert` guards
    // inside the simulator stay armed with a live recorder attached. Every
    // `flusim.task` emission lands in the pre-sized buffer — zero drops,
    // zero allocations once the loop is running.
    let g = layered(16, 24, 8);
    let process_of: Vec<usize> = (0..8).map(|d| d % 4).collect();
    let rec = Recorder::new(8 * g.len() + 64);
    let r = run_4x2(&g, &process_of, &Strategy::EagerFifo.into(), None, &rec);
    assert_eq!(r.total_executed(), g.total_cost());
    let trace = rec.take();
    assert_eq!(trace.dropped, 0);
    assert_eq!(trace.named("flusim.task").count(), g.len());
}

#[test]
fn event_loop_is_allocation_free_on_every_lattice_combo() {
    // Dynamic process criteria swap the per-process queues for one global
    // ready heap; the pre-sizing arithmetic (single heap of capacity n)
    // must keep the steady-state loop allocation-free for all 24 combos.
    let g = layered(16, 24, 8);
    let process_of: Vec<usize> = (0..8).map(|d| d % 4).collect();
    let net = NetworkModel::per_object(2, 1);
    for strat in DynamicListStrategy::lattice() {
        let free = run_4x2(&g, &process_of, &strat, None, Recorder::off());
        assert_eq!(free.total_executed(), g.total_cost(), "{}", strat.label());
        let r = run_4x2(&g, &process_of, &strat, Some(&net), Recorder::off());
        assert_eq!(r.total_executed(), g.total_cost(), "{}", strat.label());
    }
}

#[test]
fn portfolio_race_event_loops_are_allocation_free() {
    // The race fans 24 simulations across the fork-join pool; every one of
    // them runs with the internal steady-state allocation guards armed, on
    // worker threads whose allocator is this binary's counting allocator.
    let g = layered(12, 16, 6);
    let process_of: Vec<usize> = (0..6).map(|d| d % 3).collect();
    for workers in [1usize, 4] {
        let board = race(
            &g,
            &ClusterConfig::new(3, 2),
            &process_of,
            None,
            workers,
            Recorder::off(),
        );
        assert_eq!(board.entries.len(), 24);
        for e in &board.entries {
            assert_eq!(e.total_busy, g.total_cost());
        }
    }
}

/// A bounded two-level network: contended NIC channels force the
/// earliest-free channel scan and transfer queueing on every cross edge.
fn bounded_net() -> NetworkModel {
    NetworkModel::two_level(
        2,
        Link {
            latency: 2,
            cost_per_byte: 1,
        },
        Link {
            latency: 9,
            cost_per_byte: 2,
        },
        2,
    )
}

#[test]
fn network_event_loop_is_allocation_free_on_every_lattice_combo() {
    // The network path adds the NIC free-time table and the transfer
    // ledger to the loop state; both are pre-sized up front (np × channels
    // slots, ≤ n_edges transfers), so the steady-state guards must stay
    // green for all 24 combos under bounded channels.
    let g = layered(16, 24, 8);
    let process_of: Vec<usize> = (0..8).map(|d| d % 4).collect();
    let net = bounded_net();
    for strat in DynamicListStrategy::lattice() {
        let r = run_4x2(&g, &process_of, &strat, Some(&net), Recorder::off());
        assert_eq!(r.total_executed(), g.total_cost(), "{}", strat.label());
        assert!(!r.transfers.is_empty(), "{}", strat.label());
    }
}

#[test]
fn traced_network_event_loop_is_allocation_free_with_enabled_recorder() {
    // Tracing ON with the network model: every `net.xfer` emission lands in
    // the pre-sized buffer alongside the `flusim.task` stream — zero drops,
    // zero allocations once the loop is running.
    let g = layered(16, 24, 8);
    let process_of: Vec<usize> = (0..8).map(|d| d % 4).collect();
    let net = bounded_net();
    let rec = Recorder::new(8 * g.len() + 2 * g.n_edges() + 64);
    let r = run_4x2(
        &g,
        &process_of,
        &Strategy::EagerFifo.into(),
        Some(&net),
        &rec,
    );
    assert_eq!(r.total_executed(), g.total_cost());
    let trace = rec.take();
    assert_eq!(trace.dropped, 0);
    assert_eq!(trace.named("flusim.task").count(), g.len());
    assert_eq!(trace.named("net.xfer").count(), r.transfers.len());
}

#[test]
fn network_portfolio_race_event_loops_are_allocation_free() {
    // The priced race runs all 24 network simulations on the fork-join
    // pool with the counting allocator installed — the steady-state guards
    // are armed on every worker thread.
    let g = layered(12, 16, 6);
    let process_of: Vec<usize> = (0..6).map(|d| d % 3).collect();
    let net = bounded_net();
    for workers in [1usize, 4] {
        let board = race(
            &g,
            &ClusterConfig::new(3, 2),
            &process_of,
            Some(&net),
            workers,
            Recorder::off(),
        );
        assert_eq!(board.entries.len(), 24);
        for e in &board.entries {
            assert_eq!(e.total_busy, g.total_cost());
        }
    }
}

/// Equal-cost ranks of tasks on four domains, every dependency edge present
/// `copies` times (parallel edges): on ample cores and unbounded channels
/// each rank's transfers coincide, so the schedule and the merged interval
/// lists do not depend on `copies` and only the transfer count does.
fn parallel_edge_ranks(copies: usize) -> TaskGraph {
    let (layers, width, nd) = (12usize, 16usize, 4u32);
    let mut tasks = Vec::new();
    let mut preds: Vec<Vec<TaskId>> = Vec::new();
    for l in 0..layers {
        for w in 0..width {
            tasks.push(mk_task((w as u32) % nd, 5, 0));
            // The neighbour's slot one rank up lives on the next domain.
            let up = ((l.max(1) - 1) * width + (w + 1) % width) as TaskId;
            preds.push(if l == 0 { vec![] } else { vec![up; copies] });
        }
    }
    TaskGraph::assemble(tasks, preds, nd as usize, 1)
}

/// The network [`parallel_edge_ranks`] is simulated under.
fn unbounded_net() -> NetworkModel {
    NetworkModel::uniform(
        Link {
            latency: 3,
            cost_per_byte: 1,
        },
        tempart_flusim::UNBOUNDED_CHANNELS,
    )
}

#[test]
fn network_accounting_allocations_do_not_grow_with_the_transfer_count() {
    // The steady-state guard covers the event loop only; this one covers
    // the whole call — edge pricing before the loop and the `NetStats`
    // accounting after it. Same tasks, same cluster, every dependency edge
    // present once vs four times. Per-transfer copies, or per-process lists
    // that grow with the log, would show up as extra allocations on the 4×
    // graph.
    let process_of: Vec<usize> = (0..4).collect();
    let net = unbounded_net();
    let strat = DynamicListStrategy::from(Strategy::EagerFifo);
    let counted = |g: &TaskGraph| {
        count_allocations(|| {
            simulate_with(
                g,
                &[16; 4],
                &process_of,
                &strat,
                Some(&net),
                Recorder::off(),
            )
        })
    };
    let (once, fourfold) = (parallel_edge_ranks(1), parallel_edge_ranks(4));
    let (r1, allocs_1x) = counted(&once);
    let (r4, allocs_4x) = counted(&fourfold);
    assert!(!r1.transfers.is_empty());
    assert_eq!(r4.transfers.len(), 4 * r1.transfers.len());
    assert_eq!(r4.segments, r1.segments, "same schedule");
    assert_eq!(
        allocs_4x, allocs_1x,
        "whole-call allocations grew with the transfer count"
    );
}

#[test]
fn priced_race_requests_no_edge_sized_memory_per_combo() {
    // A leaderboard row is built from totals, so a race combo keeps no
    // schedule log: the only memory a priced race may request in proportion
    // to the edge count is the price table it builds once (8 bytes per
    // edge). Counting calls cannot see this — a log is one allocation
    // whatever its capacity — so count bytes: with 24 transfer logs the 4×
    // graph asks for 24 × 40 bytes per extra edge.
    let process_of: Vec<usize> = (0..4).collect();
    let cluster = ClusterConfig::new(4, 16);
    let net = unbounded_net();
    let requested = |g: &TaskGraph| {
        let before = allocated_bytes();
        let board = race(g, &cluster, &process_of, Some(&net), 1, Recorder::off());
        assert_eq!(board.entries.len(), 24);
        allocated_bytes() - before
    };
    let (once, fourfold) = (parallel_edge_ranks(1), parallel_edge_ranks(4));
    let extra_edges = (fourfold.n_edges() - once.n_edges()) as u64;
    assert!(extra_edges > 0);
    let (bytes_1x, bytes_4x) = (requested(&once), requested(&fourfold));
    assert!(bytes_1x > 0, "counting allocator not installed");
    assert!(
        bytes_4x <= bytes_1x + 8 * extra_edges,
        "{} extra edges cost a priced race {} extra bytes",
        extra_edges,
        bytes_4x - bytes_1x
    );
}

#[test]
fn event_loop_is_allocation_free_on_heterogeneous_cores() {
    let g = layered(12, 16, 6);
    let process_of: Vec<usize> = (0..6).map(|d| d % 3).collect();
    let r = simulate_with(
        &g,
        &[1, 4, 2],
        &process_of,
        &Strategy::CriticalPathFirst.into(),
        None,
        Recorder::off(),
    );
    assert_eq!(r.total_executed(), g.total_cost());
    assert!(r.makespan >= g.critical_path());
}
