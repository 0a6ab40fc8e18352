//! Property tests for the scheduler strategy lattice and the portfolio
//! racer: on random graded meshes, every one of the 24 canonical lattice
//! combinations must produce a *valid* schedule, the four legacy strategies
//! must stay bit-identical to their lattice images, and the full ranked
//! leaderboard must be worker-count invariant down to the f64 bits.
//!
//! Schedule validity is the list-scheduling contract:
//!
//! * conservation — one Gantt segment per task, Σ segment length =
//!   Σ task cost;
//! * precedence — under free comm, no task starts before every predecessor's
//!   segment has ended;
//! * capacity — at no instant does a process run more concurrent segments
//!   than it has cores.

use tempart::core_api::{decompose, PartitionStrategy};
use tempart::flusim::{
    race, simulate, simulate_with, ClusterConfig, DynamicListStrategy, SimResult, Strategy,
};
use tempart::mesh::{Mesh, Octree, OctreeConfig, TemporalScheme};
use tempart::obs::Recorder;
use tempart::taskgraph::{
    generate_taskgraph, stats::block_process_map, DomainDecomposition, TaskGraph, TaskGraphConfig,
};
use tempart_testkit::prop::bools;
use tempart_testkit::{prop_assert, prop_assert_eq, proptest};

/// One lattice point on a uniform cluster, free communication, untraced.
fn simulate_lattice(
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

/// Builds a random graded mesh from octant refinement choices (same
/// construction as `property_tests.rs`).
fn random_mesh(r1: bool, r2: bool, levels: u8) -> Mesh {
    let cfg = OctreeConfig {
        base_depth: 2,
        max_depth: 4,
    };
    let tree = Octree::build(&cfg, |c, _, d| {
        let near_origin = c[0] < 0.4 && c[1] < 0.4 && c[2] < 0.4;
        let near_far = c[0] > 0.6 && c[1] > 0.6;
        (d == 2 && r1 && near_origin) || (d == 3 && r2 && near_origin) || (d == 2 && near_far)
    });
    let mut m = Mesh::from_octree(&tree);
    TemporalScheme::new(levels).assign(&mut m);
    m
}

fn random_taskgraph(
    r1: bool,
    r2: bool,
    levels: u8,
    k: usize,
    seed: u64,
) -> tempart::taskgraph::TaskGraph {
    let m = random_mesh(r1, r2, levels);
    let part = decompose(&m, PartitionStrategy::McTl, k, seed);
    let dd = DomainDecomposition::new(&m, &part, k);
    generate_taskgraph(&m, &dd, &TaskGraphConfig::default())
}

proptest! {
    #![config(cases = 12, seed = 0x7E57_0B57)]

    fn every_lattice_combo_yields_a_valid_schedule(
        r1 in bools(),
        r2 in bools(),
        levels in 1u8..4,
        k in 1usize..6,
        procs in 1usize..5,
        cores in 1usize..4,
        seed in 0u64..200,
    ) {
        let g = random_taskgraph(r1, r2, levels, k, seed);
        let process_of = block_process_map(k, procs);
        let cluster = ClusterConfig::new(procs, cores);
        for strat in DynamicListStrategy::lattice() {
            let sim = simulate_lattice(&g, &cluster, &process_of, &strat);
            let label = strat.label();
            // Conservation: exactly one segment per task, total length =
            // total DAG cost, and each segment is the task's own cost.
            prop_assert_eq!(sim.segments.len(), g.len(), "{}", label);
            prop_assert_eq!(sim.total_executed(), g.total_cost(), "{}", label);
            let mut end_of = vec![u64::MAX; g.len()];
            for s in &sim.segments {
                let t = s.task as usize;
                prop_assert_eq!(end_of[t], u64::MAX, "task {} ran twice ({})", t, label);
                prop_assert_eq!(
                    s.end - s.start, g.task(s.task).cost,
                    "task {} wrong duration ({})", t, label);
                prop_assert!((s.process as usize) < procs, "{}", label);
                end_of[t] = s.end;
            }
            // Precedence: comm is free here, so a task may start the very
            // instant its last predecessor ends — never before.
            for s in &sim.segments {
                for &p in g.preds(s.task) {
                    prop_assert!(
                        s.start >= end_of[p as usize],
                        "task {} started at {} before pred {} ended at {} ({})",
                        s.task, s.start, p, end_of[p as usize], label);
                }
            }
            // Capacity: sweep segment boundaries; concurrent segments on a
            // process never exceed its core count. O(n²) is fine at test
            // sizes and independent of the simulator's own bookkeeping.
            for s in &sim.segments {
                if s.start == s.end {
                    continue;
                }
                let overlap = sim
                    .segments
                    .iter()
                    .filter(|o| {
                        o.process == s.process && o.start <= s.start && s.start < o.end
                    })
                    .count();
                prop_assert!(
                    overlap <= cores,
                    "process {} runs {} concurrent tasks at t={} with {} cores ({})",
                    s.process, overlap, s.start, cores, label);
            }
            prop_assert!(sim.makespan >= g.critical_path(), "{}", label);
        }
    }
}

proptest! {
    #![config(cases = 16, seed = 0x7E57_0B58)]

    fn legacy_strategies_are_bit_identical_to_their_lattice_images(
        r1 in bools(),
        r2 in bools(),
        levels in 1u8..4,
        k in 1usize..6,
        procs in 1usize..5,
        cores in 1usize..4,
        seed in 0u64..200,
    ) {
        let g = random_taskgraph(r1, r2, levels, k, seed);
        let process_of = block_process_map(k, procs);
        let cluster = ClusterConfig::new(procs, cores);
        for legacy in [
            Strategy::EagerFifo,
            Strategy::EagerLifo,
            Strategy::CriticalPathFirst,
            Strategy::SmallestFirst,
        ] {
            let old = simulate(&g, &cluster, &process_of, legacy);
            let new = simulate_lattice(
                &g, &cluster, &process_of, &DynamicListStrategy::from(legacy));
            prop_assert_eq!(old.makespan, new.makespan, "{:?}", legacy);
            prop_assert_eq!(&old.segments, &new.segments, "{:?}", legacy);
            prop_assert_eq!(&old.busy, &new.busy, "{:?}", legacy);
            prop_assert_eq!(&old.active, &new.active, "{:?}", legacy);
            prop_assert_eq!(&old.subiter_work, &new.subiter_work, "{:?}", legacy);
        }
    }
}

proptest! {
    #![config(cases = 10, seed = 0x7E57_0B59)]

    fn portfolio_leaderboard_is_worker_count_invariant(
        r1 in bools(),
        r2 in bools(),
        levels in 1u8..4,
        k in 1usize..6,
        procs in 1usize..5,
        cores in 1usize..4,
        seed in 0u64..200,
    ) {
        let g = random_taskgraph(r1, r2, levels, k, seed);
        let process_of = block_process_map(k, procs);
        let cluster = ClusterConfig::new(procs, cores);
        let reference = race(&g, &cluster, &process_of, None, 1, Recorder::off());
        prop_assert_eq!(reference.entries.len(), 24);
        for workers in [2usize, 4] {
            let board = race(&g, &cluster, &process_of, None, workers, Recorder::off());
            // Winner and the complete ranking — makespans, ratios down to
            // the exact f64 bits, and the FNV digest — match the one-worker
            // run.
            prop_assert_eq!(
                board.winner().combo, reference.winner().combo, "workers={}", workers);
            prop_assert_eq!(&board, &reference, "workers={}", workers);
            prop_assert_eq!(
                board.fingerprint(), reference.fingerprint(), "workers={}", workers);
        }
        // Every raced makespan is feasible and the ranking is honest: the
        // winner's makespan is the minimum, bounded below by the critical
        // path.
        let min = reference.entries.iter().map(|e| e.makespan).min().unwrap();
        prop_assert_eq!(reference.winner().makespan, min);
        prop_assert!(reference.winner().makespan >= g.critical_path());
    }
}
