//! Deterministic portfolio racing over the scheduler strategy lattice.
//!
//! [`race`] simulates one task graph under **every** canonical lattice
//! combination ([`DynamicListStrategy::lattice`], 24 combos) and returns a
//! ranked [`Leaderboard`]. Combos are independent experiments, so they fan
//! out over the fork-join pool exactly like `tempart-core`'s `run_sweep`:
//! each combo simulates against its *own* isolated recorder into a disjoint
//! slot, and the driver absorbs the per-combo traces into the parent
//! recorder **in fixed combo order** — the merged stream and the returned
//! leaderboard are pure functions of `(graph, cluster, process_of)`,
//! bit-identical at every worker count.
//!
//! Obs vocabulary (virtual clock): a `"portfolio.race"` span, one
//! `"portfolio.combo"` counter per combo (track = combo index, value =
//! makespan) and a closing `"portfolio.winner"` counter (track = winning
//! combo index, value = its makespan).

use crate::cluster::ClusterConfig;
use crate::lattice::{DynamicListStrategy, TaskCriterion};
use crate::network::NetworkModel;
use crate::sim::{rank, sim_core, PricedNetwork};
use std::sync::Mutex;
use tempart_obs::{Clock, Recorder, Trace};
use tempart_runtime::fork_join;
use tempart_taskgraph::TaskGraph;

/// Per-combo event capacity of the isolated racing recorders: one
/// `flusim.task` per task plus the run span and closing counters, with the
/// same 8×n headroom the trace tests use — plus room for one `net.xfer`
/// per dependency edge and the `net.*` counters when a network model races.
/// Overflow is never silent — dropped counts are carried into the parent by
/// [`Recorder::absorb`].
fn combo_capacity(graph: &TaskGraph) -> usize {
    8 * graph.len() + 2 * graph.n_edges() + 64
}

/// Summary of one lattice combination's simulated schedule.
///
/// Gantt segments are deliberately *not* retained (24 combos × n tasks
/// would dwarf the statistics); re-simulate the combo with
/// [`crate::simulate_with`] to inspect its schedule — the simulator is
/// deterministic, so the replayed schedule is the raced one.
#[derive(Debug, Clone, PartialEq)]
pub struct ComboOutcome {
    /// The lattice point that produced this schedule.
    pub strategy: DynamicListStrategy,
    /// Index in the fixed lattice enumeration order (ranking tie-break).
    pub combo: u32,
    /// Completion time of the last task, in cost units.
    pub makespan: u64,
    /// Fraction of total core-time spent idle; `None` for unbounded
    /// clusters, where capacity is undefined.
    pub idle_fraction: Option<f64>,
    /// Per-process fraction of the makespan during which the composite
    /// process resource was inactive (the paper's Fig. 6 reading).
    pub inactivity: Vec<f64>,
    /// Σ executed task cost (invariant across combos: always the DAG's
    /// total cost).
    pub total_busy: u64,
}

/// Ranked outcome of a portfolio race: best makespan first, lattice
/// enumeration order among equals.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaderboard {
    /// All raced combos, best first.
    pub entries: Vec<ComboOutcome>,
}

impl Leaderboard {
    /// The best combo (rank 0). Every race covers the full non-empty
    /// lattice, so a winner always exists.
    pub fn winner(&self) -> &ComboOutcome {
        &self.entries[0]
    }

    /// The ranked entry for a given lattice point, if it was raced.
    pub fn entry(&self, strategy: &DynamicListStrategy) -> Option<&ComboOutcome> {
        self.entries.iter().find(|e| e.strategy == *strategy)
    }

    /// FNV-1a digest of the full ranking: for every entry in rank order,
    /// the combo index, makespan, idle-fraction bits (`u64::MAX` when
    /// undefined), total busy and every per-process inactivity's exact f64
    /// bits. Any reordering, makespan drift or f64 formula change alters
    /// the digest — this is what the golden leaderboard test and the CI
    /// worker-matrix gate pin.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for e in &self.entries {
            mix(u64::from(e.combo));
            mix(e.makespan);
            mix(e.idle_fraction.map_or(u64::MAX, f64::to_bits));
            mix(e.total_busy);
            for &i in &e.inactivity {
                mix(i.to_bits());
            }
        }
        h
    }
}

/// Races the full canonical lattice on `workers` fork-join workers and
/// returns the ranked leaderboard — the general entry.
///
/// With `net` set every combo is simulated with communication priced (one
/// shared edge-price table), so the leaderboard ranks the lattice in a
/// comm-bound regime; `None` is the paper's free communication.
///
/// Each combo simulates against an isolated recorder; after the fork-join
/// scope drains, the driver absorbs every combo's trace into `rec` in
/// lattice enumeration order and emits the `portfolio.*` summary counters.
/// Outcomes land in disjoint per-combo slots, so the leaderboard — down to
/// the f64 bits of every ratio — is independent of worker count and steal
/// order.
///
/// # Panics
///
/// Panics like [`crate::simulate_with`] on an inconsistent `process_of` or
/// a `net` that fails [`NetworkModel::validate`].
pub fn race(
    graph: &TaskGraph,
    cluster: &ClusterConfig,
    process_of: &[usize],
    net: Option<&NetworkModel>,
    workers: usize,
    rec: &Recorder,
) -> Leaderboard {
    let combos = DynamicListStrategy::lattice();
    let _span = rec.span("portfolio.race", 0, combos.len() as u64);
    let tracing = rec.enabled();
    let slots: Vec<Mutex<Option<(ComboOutcome, Trace)>>> =
        combos.iter().map(|_| Mutex::new(None)).collect();
    let cores = cluster.cores();
    // Edge prices and task priorities do not depend on the combo: price the
    // graph once, rank it once per task criterion, and lend both to every
    // combo, at every worker width.
    let priced = net.map(|model| PricedNetwork::new(graph, cores.len(), process_of, model));
    let ranks = TaskCriterion::ALL.map(|criterion| (criterion, rank(graph, criterion)));
    {
        let slots = &slots;
        let combos = &combos;
        let cores = &cores;
        let priced = priced.as_ref();
        let ranks = &ranks;
        fork_join(workers, move |ctx| {
            for (i, strategy) in combos.iter().enumerate() {
                ctx.spawn(move |_| {
                    let combo_rec = if tracing {
                        Recorder::new(combo_capacity(graph))
                    } else {
                        Recorder::off().clone()
                    };
                    let priority = ranks
                        .iter()
                        .find(|(criterion, _)| *criterion == strategy.task)
                        .and_then(|(_, rank)| rank.as_deref());
                    // A leaderboard row is made of totals alone, so no combo
                    // keeps its schedule log.
                    let sim = sim_core(
                        graph, cores, process_of, strategy, priority, priced, &combo_rec,
                    );
                    let outcome = ComboOutcome {
                        strategy: *strategy,
                        combo: i as u32,
                        makespan: sim.makespan,
                        idle_fraction: cluster.total_cores().map(|_| sim.idle_fraction(cluster)),
                        inactivity: sim.process_inactivity(),
                        total_busy: sim.total_executed(),
                    };
                    let trace = combo_rec.take();
                    *slots[i].lock().expect("portfolio slot poisoned") = Some((outcome, trace));
                });
            }
        });
    }
    let mut entries = Vec::with_capacity(combos.len());
    for slot in slots {
        let (outcome, trace) = slot
            .into_inner()
            .expect("portfolio slot poisoned")
            .expect("portfolio combo did not run");
        rec.absorb(&trace);
        if rec.enabled() {
            rec.counter_at(
                Clock::Virtual,
                "portfolio.combo",
                outcome.combo,
                0,
                outcome.makespan,
            );
        }
        entries.push(outcome);
    }
    // Rank: best makespan first; lattice enumeration order among equals.
    // Stable keys (makespan, combo) make the full ordering deterministic.
    entries.sort_by_key(|e| (e.makespan, e.combo));
    let board = Leaderboard { entries };
    if rec.enabled() {
        let w = board.winner();
        rec.counter_at(Clock::Virtual, "portfolio.winner", w.combo, 0, w.makespan);
    }
    board
}

/// [`race`] under `net`, untraced.
pub fn race_network(
    graph: &TaskGraph,
    cluster: &ClusterConfig,
    process_of: &[usize],
    net: &NetworkModel,
    workers: usize,
) -> Leaderboard {
    race(
        graph,
        cluster,
        process_of,
        Some(net),
        workers,
        Recorder::off(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Strategy;
    use tempart_taskgraph::{Task, TaskId, TaskKind};

    /// Free-communication, untraced race.
    fn race_free(
        g: &TaskGraph,
        cluster: &ClusterConfig,
        process_of: &[usize],
        workers: usize,
    ) -> Leaderboard {
        race(g, cluster, process_of, None, workers, Recorder::off())
    }

    fn mk_task(domain: u32, cost: u64) -> Task {
        Task {
            subiter: 0,
            tau: 0,
            stage: 0,
            domain,
            kind: TaskKind::CellInternal,
            n_objects: cost as u32,
            cost,
        }
    }

    fn diamond() -> TaskGraph {
        // 0 → {1, 2} → 3 across two domains.
        let tasks = vec![mk_task(0, 4), mk_task(0, 3), mk_task(1, 5), mk_task(1, 2)];
        let preds: Vec<Vec<TaskId>> = vec![vec![], vec![0], vec![0], vec![1, 2]];
        TaskGraph::assemble(tasks, preds, 2, 1)
    }

    #[test]
    fn race_covers_the_lattice_and_ranks_by_makespan() {
        let g = diamond();
        let cluster = ClusterConfig::new(2, 1);
        let board = race_free(&g, &cluster, &[0, 1], 1);
        assert_eq!(board.entries.len(), 24);
        for pair in board.entries.windows(2) {
            assert!(
                (pair[0].makespan, pair[0].combo) < (pair[1].makespan, pair[1].combo),
                "leaderboard must be strictly ordered by (makespan, combo)"
            );
        }
        for e in &board.entries {
            assert_eq!(e.total_busy, g.total_cost(), "{}", e.strategy.label());
            assert_eq!(e.inactivity.len(), 2);
        }
        // Every legacy strategy is a raced point, so the winner can never
        // lose to any of them.
        for legacy in [
            Strategy::EagerFifo,
            Strategy::EagerLifo,
            Strategy::CriticalPathFirst,
            Strategy::SmallestFirst,
        ] {
            let e = board
                .entry(&DynamicListStrategy::from(legacy))
                .expect("legacy point raced");
            assert!(board.winner().makespan <= e.makespan);
        }
    }

    #[test]
    fn leaderboard_is_worker_count_invariant() {
        let g = diamond();
        let cluster = ClusterConfig::new(2, 2);
        let reference = race_free(&g, &cluster, &[0, 1], 1);
        for workers in [2usize, 4] {
            let board = race_free(&g, &cluster, &[0, 1], workers);
            assert_eq!(board, reference, "workers={workers}");
            assert_eq!(board.fingerprint(), reference.fingerprint());
        }
    }

    #[test]
    fn network_race_prices_comm_and_stays_worker_invariant() {
        use crate::network::{Link, NetworkModel};
        let g = diamond();
        let cluster = ClusterConfig::new(2, 1);
        let net = NetworkModel::uniform(
            Link {
                latency: 50,
                cost_per_byte: 1,
            },
            1,
        );
        let free = race_free(&g, &cluster, &[0, 1], 1);
        let priced = race_network(&g, &cluster, &[0, 1], &net, 1);
        assert_eq!(priced.entries.len(), 24);
        assert!(
            priced.winner().makespan > free.winner().makespan,
            "the diamond's cross-domain edges must cost something"
        );
        for workers in [2usize, 4] {
            let board = race_network(&g, &cluster, &[0, 1], &net, workers);
            assert_eq!(board, priced, "workers={workers}");
            assert_eq!(board.fingerprint(), priced.fingerprint());
        }
    }

    #[test]
    fn empty_task_graph_races_to_an_all_zero_leaderboard() {
        let g = TaskGraph::assemble(vec![], vec![], 1, 1);
        let board = race_free(&g, &ClusterConfig::new(2, 1), &[0], 1);
        assert_eq!(board.entries.len(), 24);
        for (rank, e) in board.entries.iter().enumerate() {
            assert_eq!(e.makespan, 0);
            assert_eq!(e.total_busy, 0);
            assert_eq!(
                e.combo, rank as u32,
                "all-tie ranking falls back to lattice order"
            );
        }
        assert_eq!(board.winner().combo, 0);
    }

    #[test]
    fn traced_race_emits_combo_and_winner_counters() {
        let g = diamond();
        let cluster = ClusterConfig::new(2, 1);
        let rec = Recorder::new(1 << 14);
        let board = race(&g, &cluster, &[0, 1], None, 1, &rec);
        let trace = rec.take();
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.named("portfolio.combo").count(), 24);
        // One flusim run span per combo, absorbed in combo order.
        assert_eq!(trace.named("flusim.run").count(), 2 * 24);
        let winner: Vec<_> = trace.named("portfolio.winner").collect();
        assert_eq!(winner.len(), 1);
        assert_eq!(winner[0].track, board.winner().combo);
        assert_eq!(winner[0].val, board.winner().makespan);
        // Untraced race must agree exactly.
        let plain = race_free(&g, &cluster, &[0, 1], 1);
        assert_eq!(plain, board, "tracing changed the leaderboard");
    }
}
