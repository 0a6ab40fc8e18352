//! Property tests for the network-priced simulator: on random graded
//! meshes, every one of the 24 canonical lattice combinations must produce
//! a *valid* schedule under a bounded two-level network, the makespan must
//! be monotone in link latency and per-byte cost on the unbounded regime,
//! zero-size messages must be free, and the zero-cost network model must be
//! bit-identical to the no-comm simulator. On random synthetic DAGs, the
//! simulator's one-pass [`NetStats`] must equal the sorting oracle
//! ([`NetStats::from_intervals`]) rebuilt from its own logs, and a race that
//! shares one edge-price table must equal 24 simulations that each price
//! their own. A race keeps no schedule log: on random graded meshes every
//! leaderboard number must equal, by f64 bits, the one the logging run of
//! that combo yields, and a *traced* priced race must absorb, per combo, the
//! very stream that logging run records.
//!
//! Schedule validity extends the free-comm list-scheduling contract with
//! the transfer ledger ([`SimResult::transfers`]):
//!
//! * conservation — one Gantt segment per task, Σ segment length =
//!   Σ task cost;
//! * messages — each dependency edge whose successor's home process
//!   differs from the predecessor's *executing* process contributes
//!   exactly one transfer of the model's message size (zero-byte edges
//!   none), departing no earlier than the predecessor's completion and
//!   lasting exactly the link's store-and-forward duration;
//! * precedence — no task starts before every predecessor's segment has
//!   ended *and* every inbound transfer has been delivered;
//! * capacity — concurrent segments on a process never exceed its cores,
//!   and concurrent transfers on one NIC channel never overlap.

use tempart::core_api::{decompose, PartitionStrategy};
use tempart::flusim::{
    race, race_network, simulate, simulate_lattice_with_network,
    simulate_lattice_with_network_traced, simulate_traced, simulate_with, ClusterConfig,
    ComboOutcome, DynamicListStrategy, HaloBytes, Link, MessageSizes, NetStats, NetworkModel,
    ProcessCriterion, SimResult, Strategy, TaskCriterion, UNBOUNDED_CHANNELS, UNBOUNDED_CORES,
};
use tempart::mesh::{Mesh, Octree, OctreeConfig, TemporalScheme};
use tempart::obs::replay::replay_network;
use tempart::obs::{Event, Recorder};
use tempart::taskgraph::{
    generate_taskgraph, stats::block_process_map, DomainDecomposition, Task, TaskGraph,
    TaskGraphConfig, TaskKind,
};
use tempart_testkit::prop::bools;
use tempart_testkit::rng::Rng;
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

/// Random decomposition + task graph; the decomposition rides along so a
/// network model can derive halo message sizes from it.
fn random_instance(
    r1: bool,
    r2: bool,
    levels: u8,
    k: usize,
    seed: u64,
) -> (DomainDecomposition, TaskGraph) {
    let m = random_mesh(r1, r2, levels);
    let part = decompose(&m, PartitionStrategy::McTl, k, seed);
    let dd = DomainDecomposition::new(&m, &part, k);
    let graph = generate_taskgraph(&m, &dd, &TaskGraphConfig::default());
    (dd, graph)
}

/// Validates one network-priced schedule against the contract in the
/// module docs. O(n²) sweeps are fine at test sizes and independent of the
/// simulator's own bookkeeping.
fn check_schedule(
    sim: &tempart::flusim::SimResult,
    g: &TaskGraph,
    model: &NetworkModel,
    process_of: &[usize],
    procs: usize,
    cores: usize,
    label: &str,
) -> Result<(), String> {
    // Conservation.
    prop_assert_eq!(sim.segments.len(), g.len(), "{}", label);
    prop_assert_eq!(sim.total_executed(), g.total_cost(), "{}", label);
    let mut end_of = vec![u64::MAX; g.len()];
    let mut start_of = vec![u64::MAX; g.len()];
    let mut exec_proc = vec![usize::MAX; g.len()];
    for s in &sim.segments {
        let t = s.task as usize;
        prop_assert_eq!(end_of[t], u64::MAX, "task {} ran twice ({})", t, label);
        prop_assert_eq!(
            s.end - s.start,
            g.task(s.task).cost,
            "task {} wrong duration ({})",
            t,
            label
        );
        prop_assert!((s.process as usize) < procs, "{}", label);
        start_of[t] = s.start;
        end_of[t] = s.end;
        exec_proc[t] = s.process as usize;
    }
    // Messages: for every task, the multiset of inbound transfers matches
    // the multiset of charged dependency edges.
    let mut inbound: Vec<Vec<usize>> = vec![Vec::new(); g.len()];
    for (i, x) in sim.transfers.iter().enumerate() {
        inbound[x.task as usize].push(i);
    }
    for s in 0..g.len() as u32 {
        let home = process_of[g.task(s).domain as usize];
        let mut expected: Vec<(u32, u64)> = Vec::new();
        for &p in g.preds(s) {
            let tp = exec_proc[p as usize];
            let bytes = model.message_bytes(g, p, s);
            if tp != home && bytes > 0 {
                expected.push((tp as u32, bytes));
            }
            // Base precedence: never start before a predecessor ends.
            prop_assert!(
                start_of[s as usize] >= end_of[p as usize],
                "task {} started before pred {} ended ({})",
                s,
                p,
                label
            );
        }
        let mut actual: Vec<(u32, u64)> = inbound[s as usize]
            .iter()
            .map(|&i| (sim.transfers[i].src, sim.transfers[i].bytes))
            .collect();
        expected.sort_unstable();
        actual.sort_unstable();
        prop_assert_eq!(
            actual,
            expected,
            "task {} inbound transfers diverge from charged edges ({})",
            s,
            label
        );
        for &i in &inbound[s as usize] {
            let x = &sim.transfers[i];
            prop_assert_eq!(x.dst as usize, home, "{}", label);
            // Store-and-forward duration of the (src, dst) link.
            let link = model.topology.link(x.src as usize, x.dst as usize);
            prop_assert_eq!(x.end - x.start, link.duration(x.bytes), "{}", label);
            // Departs no earlier than some completed predecessor on src.
            prop_assert!(
                g.preds(s)
                    .iter()
                    .any(|&p| exec_proc[p as usize] == x.src as usize
                        && end_of[p as usize] <= x.start
                        && model.message_bytes(g, p, s) == x.bytes),
                "transfer {}→{} for task {} departs before any sender finished ({})",
                x.src,
                x.dst,
                s,
                label
            );
            // Delivery gates readiness.
            prop_assert!(
                start_of[s as usize] >= x.end,
                "task {} started at {} before its transfer delivered at {} ({})",
                s,
                start_of[s as usize],
                x.end,
                label
            );
            prop_assert!(x.end <= sim.makespan, "{}", label);
        }
    }
    // Channel capacity: transfers sharing a (dst, channel) NIC slot are
    // serialized.
    if model.channels != UNBOUNDED_CHANNELS {
        let mut by_channel: Vec<Vec<(u64, u64)>> = vec![Vec::new(); procs * model.channels];
        for x in &sim.transfers {
            prop_assert!((x.channel as usize) < model.channels, "{}", label);
            by_channel[x.dst as usize * model.channels + x.channel as usize].push((x.start, x.end));
        }
        for lane in &mut by_channel {
            lane.sort_unstable();
            for w in lane.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].1,
                    "NIC channel overcommitted: {:?} overlaps {:?} ({})",
                    w[0],
                    w[1],
                    label
                );
            }
        }
    }
    // Core capacity.
    for s in &sim.segments {
        if s.start == s.end {
            continue;
        }
        let overlap = sim
            .segments
            .iter()
            .filter(|o| o.process == s.process && o.start <= s.start && s.start < o.end)
            .count();
        prop_assert!(overlap <= cores, "{}", label);
    }
    prop_assert!(sim.makespan >= g.critical_path(), "{}", label);
    // The ledger and the reconstructed statistics agree on totals.
    let stats = sim.net.as_ref().expect("network stats present");
    prop_assert_eq!(
        stats.total_messages(),
        sim.transfers.len() as u64,
        "{}",
        label
    );
    prop_assert_eq!(
        stats.total_bytes(),
        sim.transfers.iter().map(|x| x.bytes).sum::<u64>(),
        "{}",
        label
    );
    Ok(())
}

proptest! {
    #![config(cases = 8, seed = 0xC033_FEED)]

    fn every_lattice_combo_yields_a_valid_schedule_under_the_network(
        r1 in bools(),
        r2 in bools(),
        use_halo in bools(),
        levels in 1u8..4,
        k in 1usize..6,
        procs in 1usize..5,
        cores in 1usize..4,
        seed in 0u64..200,
    ) {
        let (dd, g) = random_instance(r1, r2, levels, k, seed);
        let process_of = block_process_map(k, procs);
        let cluster = ClusterConfig::new(procs, cores);
        // 8-way tuple strategies are the testkit's ceiling; derive the NIC
        // width from the seed instead of a ninth argument.
        let channels = 1 + (seed as usize) % 2;
        let mut model = NetworkModel::two_level(
            2,
            Link { latency: 5, cost_per_byte: 1 },
            Link { latency: 50, cost_per_byte: 2 },
            channels,
        );
        if use_halo {
            model = model.with_halo(&dd, 40);
        }
        for strat in DynamicListStrategy::lattice() {
            let sim = simulate_lattice_with_network(&g, &cluster, &process_of, &strat, &model);
            check_schedule(&sim, &g, &model, &process_of, procs, cores, &strat.label())?;
        }
    }
}

proptest! {
    #![config(cases = 8, seed = 0xC033_0E77)]

    fn makespan_is_monotone_in_latency_and_per_byte_cost_when_unbounded(
        r1 in bools(),
        r2 in bools(),
        levels in 1u8..4,
        k in 1usize..6,
        procs in 2usize..5,
        seed in 0u64..200,
    ) {
        // On unbounded cores and unbounded channels every start time is a
        // max/plus expression over link delays, so the makespan is provably
        // non-decreasing in both latency and cost-per-byte (no Graham
        // anomalies — those need a capacity constraint to invert).
        let (_, g) = random_instance(r1, r2, levels, k, seed);
        let process_of = block_process_map(k, procs);
        let cores = vec![UNBOUNDED_CORES; procs];
        for legacy in [Strategy::EagerFifo, Strategy::CriticalPathFirst] {
            let strat = DynamicListStrategy::from(legacy);
            let mk = |latency: u64, cost_per_byte: u64| {
                simulate_with(
                    &g,
                    &cores,
                    &process_of,
                    &strat,
                    Some(&NetworkModel::uniform(Link { latency, cost_per_byte }, UNBOUNDED_CHANNELS)),
                    Recorder::off(),
                )
                .makespan
            };
            for &cpb in &[0u64, 1, 5] {
                let sweep: Vec<u64> = [0u64, 10, 100].iter().map(|&l| mk(l, cpb)).collect();
                prop_assert!(
                    sweep.windows(2).all(|w| w[0] <= w[1]),
                    "{:?} not monotone in latency at cpb={}: {:?}", legacy, cpb, sweep);
            }
            for &lat in &[0u64, 10, 100] {
                let sweep: Vec<u64> = [0u64, 1, 5].iter().map(|&c| mk(lat, c)).collect();
                prop_assert!(
                    sweep.windows(2).all(|w| w[0] <= w[1]),
                    "{:?} not monotone in cost/byte at lat={}: {:?}", legacy, lat, sweep);
            }
        }
    }
}

proptest! {
    #![config(cases = 8, seed = 0xC033_F4EE)]

    fn zero_size_messages_cost_nothing_and_zero_cost_links_match_no_comm(
        r1 in bools(),
        r2 in bools(),
        levels in 1u8..4,
        k in 1usize..6,
        procs in 1usize..5,
        cores in 1usize..4,
        seed in 0u64..200,
    ) {
        let (_, g) = random_instance(r1, r2, levels, k, seed);
        let process_of = block_process_map(k, procs);
        let cluster = ClusterConfig::new(procs, cores);
        // An expensive, contended network whose message-size table is empty
        // never sends anything: zero-size messages are free.
        let mut empty = NetworkModel::uniform(
            Link { latency: 10_000, cost_per_byte: 7 },
            1,
        );
        empty.sizes = MessageSizes::Halo(HaloBytes::from_pairs(k, &[]));
        // And free links under unbounded channels deliver instantly even
        // for real message sizes.
        let zero = NetworkModel::zero_cost();
        for strat in DynamicListStrategy::lattice() {
            let free =
                simulate_with(&g, &cluster.cores(), &process_of, &strat, None, Recorder::off());
            for (name, model) in [("empty-halo", &empty), ("zero-cost", &zero)] {
                let net = simulate_lattice_with_network(&g, &cluster, &process_of, &strat, model);
                let label = format!("{} {}", strat.label(), name);
                prop_assert_eq!(net.makespan, free.makespan, "{}", label);
                prop_assert_eq!(&net.segments, &free.segments, "{}", label);
                prop_assert_eq!(&net.busy, &free.busy, "{}", label);
                prop_assert_eq!(&net.active, &free.active, "{}", label);
                // Bit-identity extends through the f64 statistics.
                prop_assert_eq!(
                    net.idle_fraction(&cluster).to_bits(),
                    free.idle_fraction(&cluster).to_bits(),
                    "{}", label);
            }
            // The empty table sends nothing; free links still send.
            let empty_sim =
                simulate_lattice_with_network(&g, &cluster, &process_of, &strat, &empty);
            prop_assert!(empty_sim.transfers.is_empty(), "{}", strat.label());
        }
    }
}

/// A random DAG with no mesh behind it: every task depends on up to three
/// earlier tasks (repeats allowed — parallel edges are legal). Zero-cost
/// tasks leave empty compute intervals and zero-object tasks send nothing
/// under [`MessageSizes::PerObject`] — the corners a mesh-generated graph
/// never has.
fn random_dag(rng: &mut Rng, n: usize, domains: usize) -> TaskGraph {
    let tasks = (0..n)
        .map(|_| Task {
            subiter: 0,
            tau: 0,
            stage: 0,
            domain: rng.gen_range(0..domains as u32),
            kind: TaskKind::CellInternal,
            n_objects: rng.gen_range(0u32..5),
            cost: rng.gen_range(0u64..10),
        })
        .collect();
    let preds = (0..n)
        .map(|t| {
            let fan = if t == 0 { 0 } else { rng.gen_range(0usize..4) };
            (0..fan).map(|_| rng.gen_range(0..t as u32)).collect()
        })
        .collect();
    TaskGraph::assemble(tasks, preds, domains, 1)
}

/// A random link; one in three is [`Link::FREE`], whose transfers have
/// zero duration and must drop out of every interval union.
fn random_link(rng: &mut Rng) -> Link {
    if rng.gen_range(0u32..3) == 0 {
        Link::FREE
    } else {
        Link {
            latency: rng.gen_range(0u64..20),
            cost_per_byte: rng.gen_range(0u64..3),
        }
    }
}

/// A random network over `procs` processes: `topology` picks uniform /
/// two-level / matrix, `channels` picks 1 / 2 / unbounded, `halo` swaps the
/// per-object sizes for a random sparse halo table over `domains` domains.
fn random_network(
    rng: &mut Rng,
    topology: u8,
    channels: u8,
    halo: bool,
    procs: usize,
    domains: usize,
) -> NetworkModel {
    let channels = [1, 2, UNBOUNDED_CHANNELS][channels as usize];
    let mut model = match topology {
        0 => NetworkModel::uniform(random_link(rng), channels),
        1 => NetworkModel::two_level(2, random_link(rng), random_link(rng), channels),
        _ => NetworkModel::matrix(
            procs,
            (0..procs * procs).map(|_| random_link(rng)).collect(),
            channels,
        ),
    };
    if halo {
        let mut pairs = Vec::new();
        for a in 0..domains as u32 {
            for b in a + 1..domains as u32 {
                if rng.gen_bool() {
                    pairs.push((a, b, rng.gen_range(0u64..64)));
                }
            }
        }
        model.sizes = MessageSizes::Halo(HaloBytes::from_pairs(domains, &pairs));
    }
    model
}

/// [`SimResult::net`] rebuilt the slow way: copy every transfer and segment
/// into per-process lists and let [`NetStats::from_intervals`] sort them.
fn net_stats_oracle(sim: &SimResult, procs: usize) -> NetStats {
    let mut xfers = vec![Vec::new(); procs];
    for x in &sim.transfers {
        xfers[x.dst as usize].push((x.start, x.end, x.bytes));
    }
    let mut compute = vec![Vec::new(); procs];
    for s in &sim.segments {
        compute[s.process as usize].push((s.start, s.end));
    }
    NetStats::from_intervals(&xfers, &compute)
}

proptest! {
    #![config(cases = 48, seed = 0xC033_57A7)]

    fn streaming_net_stats_equal_the_sorting_oracle_on_every_combo(
        dag_seed in 0u64..1_000_000,
        n in 1usize..60,
        domains in 1usize..6,
        procs in 1usize..5,
        topology in 0u8..3,
        channels in 0u8..3,
        halo in bools(),
    ) {
        let mut rng = Rng::seed_from_u64(dag_seed);
        let g = random_dag(&mut rng, n, domains);
        let model = random_network(&mut rng, topology, channels, halo, procs, domains);
        let process_of = block_process_map(domains, procs);
        // Heterogeneous cores, one process in four unbounded.
        let cores: Vec<usize> = (0..procs)
            .map(|_| match rng.gen_range(0usize..4) {
                0 => UNBOUNDED_CORES,
                c => c,
            })
            .collect();
        for strat in DynamicListStrategy::lattice() {
            let sim = simulate_with(
                &g, &cores, &process_of, &strat, Some(&model), Recorder::off());
            let label = strat.label();
            prop_assert_eq!(
                sim.net.as_ref(), Some(&net_stats_oracle(&sim, procs)),
                "{}: one-pass NetStats diverged from from_intervals", label);
            // The invariant the one-pass merge leans on: both logs are in
            // start order per process.
            let mut last = vec![0u64; procs];
            for x in &sim.transfers {
                let p = x.dst as usize;
                prop_assert!(
                    last[p] <= x.start,
                    "{}: transfer to {} starts at {} after one at {}", label, p, x.start, last[p]);
                last[p] = x.start;
            }
            let mut last = vec![0u64; procs];
            for s in &sim.segments {
                let p = s.process as usize;
                prop_assert!(
                    last[p] <= s.start,
                    "{}: segment on {} starts at {} after one at {}", label, p, s.start, last[p]);
                last[p] = s.start;
            }
        }
    }
}

proptest! {
    #![config(cases = 16, seed = 0xC033_7AB1)]

    fn race_sharing_one_price_table_equals_independent_simulations(
        dag_seed in 0u64..1_000_000,
        n in 1usize..60,
        domains in 1usize..6,
        procs in 1usize..5,
        cores in 1usize..4,
        topology in 0u8..3,
        channels in 0u8..3,
        halo in bools(),
    ) {
        let mut rng = Rng::seed_from_u64(dag_seed);
        let g = random_dag(&mut rng, n, domains);
        let model = random_network(&mut rng, topology, channels, halo, procs, domains);
        let process_of = block_process_map(domains, procs);
        let cluster = ClusterConfig::new(procs, cores);
        // The leaderboard as 24 self-contained simulations would fill it.
        let mut expected: Vec<ComboOutcome> = DynamicListStrategy::lattice()
            .iter()
            .enumerate()
            .map(|(i, strat)| {
                let sim = simulate_lattice_with_network(&g, &cluster, &process_of, strat, &model);
                ComboOutcome {
                    strategy: *strat,
                    combo: i as u32,
                    makespan: sim.makespan,
                    idle_fraction: Some(sim.idle_fraction(&cluster)),
                    inactivity: sim.process_inactivity(),
                    total_busy: sim.total_executed(),
                }
            })
            .collect();
        expected.sort_by_key(|e| (e.makespan, e.combo));
        for workers in [1usize, 2, 4] {
            let board = race_network(&g, &cluster, &process_of, &model, workers);
            prop_assert_eq!(&board.entries, &expected, "workers={}", workers);
        }
    }
}

proptest! {
    #![config(cases = 12, seed = 0xC033_10C5)]

    fn log_free_race_outcomes_equal_the_logging_runs_bit_for_bit(
        r1 in bools(),
        r2 in bools(),
        levels in 1u8..4,
        k in 1usize..6,
        procs in 1usize..5,
        cores in 0usize..4,
        preset in 0u8..4,
        seed in 0u64..200,
    ) {
        // A race combo keeps no segment or transfer log; the run that does
        // must still be a valid schedule, and every number the leaderboard
        // holds must be the one that run yields.
        let (dd, g) = random_instance(r1, r2, levels, k, seed);
        let process_of = block_process_map(k, procs);
        // The two cluster shapes `race` takes: `cores` per process, or
        // unbounded when the draw is 0.
        let cluster = match cores {
            0 => ClusterConfig::unbounded(procs),
            c => ClusterConfig::new(procs, c),
        };
        let link = Link { latency: 30, cost_per_byte: 1 };
        let model = match preset {
            0 => NetworkModel::zero_cost(),
            1 => NetworkModel::uniform(link, 1),
            2 => NetworkModel::two_level(2, link, Link { latency: 300, cost_per_byte: 2 }, 2)
                .with_halo(&dd, 40),
            _ => NetworkModel::per_object(25, 0),
        };
        let boards: Vec<_> = [1usize, 2]
            .iter()
            .map(|&w| race(&g, &cluster, &process_of, Some(&model), w, Recorder::off()))
            .collect();
        for strat in DynamicListStrategy::lattice() {
            let label = strat.label();
            let sim = simulate_with(
                &g, &cluster.cores(), &process_of, &strat, Some(&model), Recorder::off());
            check_schedule(
                &sim, &g, &model, &process_of, procs, cluster.cores_per_process, &label)?;
            let idle = cluster.total_cores().map(|_| sim.idle_fraction(&cluster).to_bits());
            let inactivity: Vec<u64> =
                sim.process_inactivity().iter().map(|f| f.to_bits()).collect();
            for board in &boards {
                let e = board.entry(&strat).expect("every lattice point is raced");
                prop_assert_eq!(e.makespan, sim.makespan, "{}", label);
                prop_assert_eq!(e.total_busy, sim.total_executed(), "{}", label);
                prop_assert_eq!(e.idle_fraction.map(f64::to_bits), idle, "{}", label);
                prop_assert_eq!(
                    e.inactivity.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    inactivity.clone(),
                    "{}",
                    label
                );
            }
        }
    }
}

/// Equality of two simulations: every field, and the derived floats by bit
/// pattern (`idle_fraction` only where a bounded uniform cluster defines
/// it).
fn assert_same_sim(a: &SimResult, b: &SimResult, cluster: Option<&ClusterConfig>, at: &str) {
    assert_eq!(a, b, "{at}");
    let bits = |s: &SimResult| -> Vec<u64> {
        s.process_inactivity().iter().map(|f| f.to_bits()).collect()
    };
    assert_eq!(bits(a), bits(b), "{at}");
    if let Some(c) = cluster {
        assert_eq!(
            a.idle_fraction(c).to_bits(),
            b.idle_fraction(c).to_bits(),
            "{at}"
        );
    }
}

/// A bounded two-level network (nodes of 2, 2 NIC channels) carrying the
/// decomposition's halo bytes.
fn two_level_halo(dd: &DomainDecomposition) -> NetworkModel {
    NetworkModel::two_level(
        2,
        Link {
            latency: 4,
            cost_per_byte: 1,
        },
        Link {
            latency: 40,
            cost_per_byte: 2,
        },
        2,
    )
    .with_halo(dd, TaskGraphConfig::default().face_payload_bytes)
}

/// Runs `f` against a fresh recorder; returns its result and the sorted
/// names of the events it emitted.
fn traced<T>(g: &TaskGraph, f: impl FnOnce(&Recorder) -> T) -> (T, Vec<&'static str>) {
    let rec = Recorder::new(8 * g.len() + 2 * g.n_edges() + 64);
    let out = f(&rec);
    let trace = rec.take();
    assert_eq!(trace.dropped, 0);
    let mut names: Vec<_> = trace.events.iter().map(|e| e.name).collect();
    names.sort_unstable();
    (out, names)
}

/// The seam the benchmark-pinned names sit on: every convenience form is
/// the general `simulate_with` / `race` with some arguments fixed — same
/// result down to the f64 bits, same events under a live recorder.
#[test]
fn convenience_forms_equal_the_general_form_bit_for_bit() {
    let (k, procs) = (5usize, 3usize);
    let (dd, g) = random_instance(true, true, 3, k, 17);
    let (g, process_of) = (&g, &block_process_map(k, procs));
    let cluster = &ClusterConfig::new(procs, 2);
    let uniform = &cluster.cores();
    let hetero = &[1usize, 3, UNBOUNDED_CORES];
    let net = &two_level_halo(&dd);
    let off = Recorder::off();

    // One row per seam: (label, cluster for idle_fraction, an event the
    // stream must hold, general form, short form). The short form is the
    // `_traced` name under a live recorder and the plain name otherwise.
    type Form<'a> = Box<dyn Fn(&Recorder) -> SimResult + 'a>;
    let mut rows: Vec<(String, Option<&ClusterConfig>, &str, Form, Form)> = Vec::new();
    for fixed in [Strategy::EagerFifo, Strategy::CriticalPathFirst] {
        rows.push((
            format!("{fixed:?} free"),
            Some(cluster),
            "flusim.task",
            Box::new(move |rec| simulate_with(g, uniform, process_of, &fixed.into(), None, rec)),
            Box::new(move |rec| match rec.enabled() {
                true => simulate_traced(g, cluster, process_of, fixed, rec),
                false => simulate(g, cluster, process_of, fixed),
            }),
        ));
    }
    let pinned = DynamicListStrategy::from(Strategy::EagerFifo);
    let dynamic =
        DynamicListStrategy::canonical(TaskCriterion::CriticalPath, ProcessCriterion::LeastLoaded);
    for strat in [pinned, dynamic] {
        rows.push((
            format!("{} priced", strat.label()),
            Some(cluster),
            "net.xfer",
            Box::new(move |rec| simulate_with(g, uniform, process_of, &strat, Some(net), rec)),
            Box::new(move |rec| match rec.enabled() {
                true => {
                    simulate_lattice_with_network_traced(g, cluster, process_of, &strat, net, rec)
                }
                false => simulate_lattice_with_network(g, cluster, process_of, &strat, net),
            }),
        ));
        // Heterogeneous cores have no short form: tracing and the network
        // are arguments there too, and neither may move the schedule.
        for model in [None, Some(net)] {
            let general =
                move |rec: &Recorder| simulate_with(g, hetero, process_of, &strat, model, rec);
            rows.push((
                format!("{} hetero priced={}", strat.label(), model.is_some()),
                None,
                if model.is_some() {
                    "net.xfer"
                } else {
                    "flusim.task"
                },
                Box::new(general),
                Box::new(general),
            ));
        }
    }
    for (at, bounded, event, general, short) in &rows {
        let plain = general(off);
        assert_same_sim(&short(off), &plain, *bounded, at);
        let (general_traced, general_names) = traced(g, general);
        let (short_traced, short_names) = traced(g, short);
        assert_same_sim(&general_traced, &plain, *bounded, at);
        assert_same_sim(&short_traced, &plain, *bounded, at);
        assert_eq!(short_names, general_names, "{at}");
        assert!(general_names.contains(event), "{at}");
    }

    // `race_network` is `race` with the network given and tracing off.
    for workers in [1usize, 2] {
        let general = race(g, cluster, process_of, Some(net), workers, off);
        let short = race_network(g, cluster, process_of, net, workers);
        assert_eq!(short, general, "workers={workers}");
        assert_eq!(short.fingerprint(), general.fingerprint());
        let rec = Recorder::new(1 << 20);
        let seen = race(g, cluster, process_of, Some(net), workers, &rec);
        let trace = rec.take();
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.named("portfolio.combo").count(), 24);
        assert_eq!(seen, general, "traced race, workers={workers}");
    }
}

/// A race keeps no segment or transfer log, so everything a traced combo
/// publishes has to come out of the event loop itself. The slice of the
/// race's absorbed trace that belongs to combo *i* must be, event for event,
/// what a logging `simulate_with` of that combo records — down to the
/// closing `net.bytes` / `net.msgs` counters, which nothing else in the
/// workspace reads — and must replay to the logging run's `NetStats`.
#[test]
fn traced_priced_race_absorbs_the_stream_of_each_logging_run() {
    let (k, procs) = (6usize, 4usize);
    let (dd, g) = random_instance(true, true, 3, k, 23);
    let process_of = block_process_map(k, procs);
    let cluster = ClusterConfig::new(procs, 2);
    let net = two_level_halo(&dd);
    let capacity = 8 * g.len() + 2 * g.n_edges() + 64;
    let logged: Vec<(SimResult, Vec<Event>)> = DynamicListStrategy::lattice()
        .iter()
        .map(|strat| {
            let rec = Recorder::new(capacity);
            let sim = simulate_with(&g, &cluster.cores(), &process_of, strat, Some(&net), &rec);
            let trace = rec.take();
            assert_eq!(trace.dropped, 0);
            (sim, trace.events)
        })
        .collect();
    // Everything but the sequence number, which absorption re-keys.
    let unkeyed = |e: &Event| (e.name, e.clock, e.kind, e.track, e.t, e.val, e.a, e.b);
    for workers in [1usize, 2, 4] {
        let rec = Recorder::new(24 * capacity + 64);
        let board = race(&g, &cluster, &process_of, Some(&net), workers, &rec);
        let trace = rec.take();
        assert_eq!(trace.dropped, 0);
        // Combo i's events sit between the (i-1)-th and the i-th
        // `portfolio.combo` counter.
        let mut events = trace
            .events
            .iter()
            .filter(|e| e.name != "portfolio.race" && e.name != "portfolio.winner");
        for (i, (sim, want)) in logged.iter().enumerate() {
            let at = format!("combo {i}, workers={workers}");
            let got: Vec<Event> = events
                .by_ref()
                .take_while(|e| e.name != "portfolio.combo")
                .copied()
                .collect();
            assert_eq!(got.len(), want.len(), "{at}: event count");
            for (got, want) in got.iter().zip(want) {
                assert_eq!(unkeyed(got), unkeyed(want), "{at}");
            }
            let count = |name: &str| got.iter().filter(|e| e.name == name).count();
            assert!(!sim.transfers.is_empty(), "{at}: nothing was sent");
            assert_eq!(count("net.xfer"), sim.transfers.len(), "{at}");
            assert_eq!(count("flusim.task"), g.len(), "{at}");
            for per_process in ["net.channels", "flusim.busy", "net.bytes", "net.msgs"] {
                assert_eq!(count(per_process), procs, "{at}: {per_process}");
            }
            let stats = sim.net.as_ref().expect("priced run has stats");
            let replayed = replay_network(&got, "net.xfer", "flusim.task", procs);
            assert_eq!(&replayed, stats, "{at}: replayed NetStats");
            assert_eq!(
                replayed.overlap_efficiency().to_bits(),
                stats.overlap_efficiency().to_bits(),
                "{at}"
            );
            let entry = board.entries.iter().find(|e| e.combo == i as u32);
            assert_eq!(entry.map(|e| e.makespan), Some(sim.makespan), "{at}");
        }
        assert_eq!(events.next(), None, "workers={workers}: trailing events");
    }
}
