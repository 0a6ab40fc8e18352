//! Property tests for the observability layer: on random graded meshes, the
//! schedule statistics replayed purely from obs events must satisfy the
//! conservation laws of the simulator and the runtime.
//!
//! * FLUSIM: replayed busy time is conserved (`busy + idle = makespan ×
//!   cores`), the idle fraction is a true fraction, and no process ever has
//!   more overlapping task spans than it has cores;
//! * runtime: the per-worker `rt.local + rt.inject + rt.steal` acquisition
//!   counters sum to exactly the DAG size (every task acquired once), under
//!   a single worker, a contended 4-worker group, and two 2-worker groups
//!   that hand tasks to each other through their injectors.

use tempart::core_api::{decompose, PartitionStrategy};
use tempart::flusim::{simulate_traced, ClusterConfig, Strategy};
use tempart::mesh::{Mesh, Octree, OctreeConfig, TemporalScheme};
use tempart::obs::{replay, Recorder};
use tempart::runtime::{execute, RuntimeConfig};
use tempart::taskgraph::{
    generate_taskgraph, stats::block_process_map, DomainDecomposition, TaskGraphConfig,
};
use tempart_testkit::prop::bools;
use tempart_testkit::{prop_assert, prop_assert_eq, proptest};

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
    #![config(cases = 16, seed = 0x7E57_0B55)]

    fn replayed_flusim_accounting_conserves_core_time(
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
        let rec = Recorder::new(8 * g.len() + 64);
        let sim = simulate_traced(&g, &cluster, &process_of, Strategy::EagerFifo, &rec);
        let trace = rec.take();
        prop_assert_eq!(trace.dropped, 0);
        let r = replay::replay_tasks(
            &trace.events, "flusim.task", procs, g.n_subiterations as usize);
        prop_assert_eq!(r.makespan, sim.makespan);
        prop_assert_eq!(&r.busy, &sim.busy);
        prop_assert_eq!(&r.active, &sim.active);
        // Conservation: busy + idle = makespan × cores, with idle >= 0.
        let total_cores = (procs * cores) as u64;
        let capacity = r.makespan * total_cores;
        let busy_total = r.total_executed();
        prop_assert!(busy_total <= capacity, "busy {busy_total} > capacity {capacity}");
        let idle = capacity - busy_total;
        let frac = replay::idle_fraction(r.makespan, &r.busy, total_cores);
        prop_assert!((0.0..=1.0).contains(&frac), "idle fraction {frac}");
        if capacity > 0 {
            prop_assert!(
                (frac - idle as f64 / capacity as f64).abs() < 1e-12,
                "idle fraction {frac} vs {idle}/{capacity}");
        }
        // Per-track sanity: active time within [0, makespan] and never above
        // busy; spans never overlap beyond the process's core count.
        for p in 0..procs {
            prop_assert!(r.active[p] <= r.makespan);
            prop_assert!(r.active[p] <= r.busy[p]);
            let overlap = replay::max_overlap(&trace.events, "flusim.task", p as u32);
            prop_assert!(overlap <= cores, "process {p}: {overlap} > {cores} cores");
        }
        // Subiteration work partitions the busy time.
        for p in 0..procs {
            let sum: u64 = r.subiter_work[p].iter().sum();
            prop_assert_eq!(sum, r.busy[p]);
        }
    }
}

proptest! {
    #![config(cases = 8, seed = 0x7E57_0B56)]

    fn runtime_counters_conserve_task_count(
        r1 in bools(),
        r2 in bools(),
        levels in 1u8..3,
        k in 1usize..5,
        seed in 0u64..100,
    ) {
        let g = random_taskgraph(r1, r2, levels, k, seed);
        for (groups, per_group) in [(1usize, 1usize), (1, 4), (2, 2)] {
            let group_of: Vec<usize> = (0..k).map(|d| d % groups).collect();
            let workers = groups * per_group;
            let rec = Recorder::new(4 * g.len() + 64);
            let cfg = RuntimeConfig::new(groups, per_group);
            let report = execute(&g, &cfg, &group_of, &rec, |_, _| {});
            prop_assert_eq!(report.executed, g.len());
            prop_assert_eq!(report.segments.len(), g.len());
            let trace = rec.take();
            prop_assert_eq!(trace.dropped, 0);
            // Steal + local + inject acquisitions conserve the task count.
            let exec = trace.counter_total("rt.exec");
            prop_assert_eq!(exec as usize, g.len(), "{groups} × {per_group}");
            let by_path = trace.counter_total("rt.local")
                + trace.counter_total("rt.inject")
                + trace.counter_total("rt.steal");
            prop_assert_eq!(by_path, exec, "{groups} × {per_group}");
            // One rt.task event per task; a worker runs one task at a time.
            prop_assert_eq!(trace.named("rt.task").count(), g.len());
            for w in 0..workers as u32 {
                prop_assert!(
                    replay::max_overlap(&trace.events, "rt.task", w) <= 1,
                    "worker {w} overlapping executions");
            }
        }
    }
}
