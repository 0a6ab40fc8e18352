//! An access-set oracle for the task graph: the dependency edges of
//! Algorithm 1 are written by hand (`crates/taskgraph/src/generate.rs`), and
//! the solver's `unsafe` kernels are sound only if those edges order every
//! pair of conflicting accesses to the shared state arrays.
//!
//! Each task's accesses are derived here from the same loops the kernels run
//! (`crates/solver/src/kernels.rs`) over the solver's [`ObjectLists`]: a face
//! task reads `u` of its faces' cells and writes their `flux`; a cell task
//! reads the `flux` of its cells' faces and `u` of its cells, then writes
//! `u` (and `u0` in Heun's predictor, which its corrector reads). Walking the
//! tasks in id order (a topological order) with, per object, the last writer
//! and the readers since that write — FastTrack's epochs (Flanagan & Freund,
//! PLDI 2009) — every read must be reachable from the last write, and every
//! write from the last write and every read since. Reachability is one bitset
//! per task, which test-sized graphs afford.

use tempart::core_api::{decompose, Curve, PartitionStrategy};
use tempart::graph::PartId;
use tempart::mesh::{GeneratorConfig, Mesh, MeshCase};
use tempart::taskgraph::{
    generate_taskgraph, DomainDecomposition, ObjectClass, ObjectLists, Task, TaskGraph,
    TaskGraphConfig, TaskId, TaskKind,
};

/// The solver's shared state arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Array {
    /// Conservative state per cell.
    U,
    /// Scaled flux per face.
    Flux,
    /// Heun's stage-0 snapshot per cell.
    U0,
}

/// One access of a task: `(array, object id, is a write)`.
type Access = (Array, u32, bool);

/// The accesses of `task`, in the order its kernel makes them.
fn accesses(mesh: &Mesh, lists: &ObjectLists, task: &Task, stages: u8, out: &mut Vec<Access>) {
    out.clear();
    let class = if task.kind.is_external() {
        ObjectClass::External
    } else {
        ObjectClass::Internal
    };
    if task.kind.is_face() {
        for &fid in lists.faces_of(task.domain, task.tau, class) {
            let face = &mesh.faces()[fid as usize];
            out.push((Array::U, face.owner, false));
            if let Some(nb) = face.interior_neighbor() {
                out.push((Array::U, nb, false));
            }
            out.push((Array::Flux, fid, true));
        }
        return;
    }
    for &cid in lists.cells_of(task.domain, task.tau, class) {
        for &fid in mesh.cell_faces(cid) {
            out.push((Array::Flux, fid, false));
        }
        out.push((Array::U, cid, false));
        match (stages, task.stage) {
            (1, _) => {}
            (_, 0) => out.push((Array::U0, cid, true)),
            _ => out.push((Array::U0, cid, false)),
        }
        out.push((Array::U, cid, true));
    }
}

/// `reach[t]` holds bit `p` for every task `p` with a path `p → t`.
struct Reach {
    words: usize,
    bits: Vec<u64>,
}

impl Reach {
    fn new(graph: &TaskGraph) -> Self {
        let n = graph.len();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        for t in 0..n {
            for &p in graph.preds(t as TaskId) {
                let p = p as usize;
                let (before, row) = bits.split_at_mut(t * words);
                let row = &mut row[..words];
                for (w, &b) in row.iter_mut().zip(&before[p * words..(p + 1) * words]) {
                    *w |= b;
                }
                row[p / 64] |= 1 << (p % 64);
            }
        }
        Self { words, bits }
    }

    /// Whether the DAG orders `before` ahead of `after`.
    fn ordered(&self, before: TaskId, after: TaskId) -> bool {
        let (b, a) = (before as usize, after as usize);
        self.bits[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }
}

/// Conflicting access pairs the DAG leaves unordered, by kind.
#[derive(Debug, Default, PartialEq, Eq)]
struct Races {
    /// A read not ordered after the object's last write.
    read_after_write: usize,
    /// A write not ordered after a read since the object's last write.
    write_after_read: usize,
    /// A write not ordered after the object's last write.
    write_after_write: usize,
    /// The first race found, described.
    first: Option<String>,
}

impl Races {
    fn is_empty(&self) -> bool {
        self.first.is_none()
    }
}

/// Per object of one array: the last writer and the readers since.
struct History {
    writer: Vec<TaskId>,
    readers: Vec<Vec<TaskId>>,
}

const NO_TASK: TaskId = TaskId::MAX;

impl History {
    fn new(n: usize) -> Self {
        Self {
            writer: vec![NO_TASK; n],
            readers: vec![Vec::new(); n],
        }
    }
}

/// Walks `graph`'s tasks in id order and collects every unordered conflict.
fn races(mesh: &Mesh, lists: &ObjectLists, graph: &TaskGraph, stages: u8) -> Races {
    let reach = Reach::new(graph);
    let mut u = History::new(mesh.n_cells());
    let mut flux = History::new(mesh.n_faces());
    let mut u0 = History::new(mesh.n_cells());
    let mut found = Races::default();
    let note = |found: &mut Races, kind: &str, array: Array, obj: u32, a: TaskId, b: TaskId| {
        match kind {
            "RAW" => found.read_after_write += 1,
            "WAR" => found.write_after_read += 1,
            _ => found.write_after_write += 1,
        }
        found.first.get_or_insert_with(|| {
            format!(
                "{kind} on {array:?}[{obj}]: task {a} {:?} and task {b} {:?} are unordered",
                graph.task(a),
                graph.task(b)
            )
        });
    };
    let mut list = Vec::new();
    for t in 0..graph.len() as TaskId {
        accesses(mesh, lists, graph.task(t), stages, &mut list);
        for &(array, obj, write) in &list {
            let h = match array {
                Array::U => &mut u,
                Array::Flux => &mut flux,
                Array::U0 => &mut u0,
            };
            let o = obj as usize;
            let w = h.writer[o];
            if w != NO_TASK && w != t && !reach.ordered(w, t) {
                note(
                    &mut found,
                    if write { "WAW" } else { "RAW" },
                    array,
                    obj,
                    w,
                    t,
                );
            }
            if write {
                for &r in &h.readers[o] {
                    if r != t && !reach.ordered(r, t) {
                        note(&mut found, "WAR", array, obj, r, t);
                    }
                }
                h.writer[o] = t;
                h.readers[o].clear();
            } else if h.readers[o].last() != Some(&t) {
                h.readers[o].push(t);
            }
        }
    }
    found
}

const STRATEGIES: [PartitionStrategy; 3] = [
    PartitionStrategy::ScOc,
    PartitionStrategy::McTl,
    PartitionStrategy::SfcOc {
        curve: Curve::Hilbert,
    },
];

/// The mesh, the solver's lists and the generated graph of one setting.
fn setting(
    mesh: &Mesh,
    strategy: PartitionStrategy,
    k: usize,
    config: &TaskGraphConfig,
) -> (ObjectLists, TaskGraph) {
    let part: Vec<PartId> = decompose(mesh, strategy, k, 0x5EED);
    let dd = DomainDecomposition::new(mesh, &part, k);
    let lists = ObjectLists::new(mesh, &part, &dd);
    let graph = generate_taskgraph(mesh, &dd, config);
    (lists, graph)
}

#[test]
fn every_conflicting_access_pair_is_ordered() {
    for case in MeshCase::ALL {
        let mesh = case.generate(&GeneratorConfig { base_depth: 3 });
        for config in [TaskGraphConfig::default(), TaskGraphConfig::heun()] {
            for strategy in STRATEGIES {
                for k in [2, 7, 24] {
                    let (lists, graph) = setting(&mesh, strategy, k, &config);
                    let found = races(&mesh, &lists, &graph, config.stages);
                    assert!(
                        found.is_empty(),
                        "{} {} k={k} stages={}: {found:?}",
                        case.name(),
                        strategy.label(),
                        config.stages
                    );
                }
            }
        }
    }
}

/// `graph` without the predecessors `drop(task, pred)` picks.
fn without(graph: &TaskGraph, drop: impl Fn(&Task, &Task) -> bool) -> TaskGraph {
    let preds = (0..graph.len() as TaskId)
        .map(|t| {
            let task = graph.task(t);
            graph
                .preds(t)
                .iter()
                .copied()
                .filter(|&p| !drop(task, graph.task(p)))
                .collect()
        })
        .collect();
    TaskGraph::assemble(
        graph.tasks().to_vec(),
        preds,
        graph.n_domains,
        graph.n_subiterations,
    )
}

/// The oracle's own teeth: with no edges every kind of conflict shows, and
/// without the edge from neighbours' external cell tasks, external face
/// tasks may read stale boundary cells.
#[test]
fn the_oracle_sees_missing_edges() {
    let mesh = MeshCase::Cylinder.generate(&GeneratorConfig { base_depth: 3 });
    let config = TaskGraphConfig::heun();
    let (lists, graph) = setting(&mesh, PartitionStrategy::McTl, 7, &config);
    assert!(races(&mesh, &lists, &graph, 2).is_empty());

    let found = races(&mesh, &lists, &without(&graph, |_, _| true), 2);
    assert!(
        found.read_after_write > 0 && found.write_after_read > 0 && found.write_after_write > 0,
        "{found:?}"
    );

    let no_read_edge = without(&graph, |t, p| {
        t.kind == TaskKind::FaceExternal && p.domain != t.domain
    });
    assert!(no_read_edge.n_edges() < graph.n_edges());
    let found = races(&mesh, &lists, &no_read_edge, 2);
    assert!(found.read_after_write > 0, "{found:?}");
}

/// The other cross-domain edge — an external cell task waits for its
/// neighbours' external face tasks of earlier phases, which read its
/// boundary cells — orders nothing the rest of the graph leaves unordered:
/// without it every task still reaches exactly the tasks it reached, so no
/// access check can miss it. What it does change is the edge list, and with
/// it the messages a priced network sends per cross-process edge.
#[test]
fn the_earlier_phase_anti_edge_is_implied_by_the_others() {
    let phase = |t: &Task| (t.subiter, t.tau, t.stage);
    for case in MeshCase::ALL {
        let mesh = case.generate(&GeneratorConfig { base_depth: 3 });
        for strategy in STRATEGIES {
            let config = TaskGraphConfig::default();
            let (_, graph) = setting(&mesh, strategy, 24, &config);
            let no_anti_edge = without(&graph, |t, p| {
                t.kind == TaskKind::CellExternal
                    && p.kind == TaskKind::FaceExternal
                    && p.domain != t.domain
                    && phase(p) != phase(t)
            });
            assert!(no_anti_edge.n_edges() < graph.n_edges());
            assert!(
                Reach::new(&no_anti_edge).bits == Reach::new(&graph).bits,
                "{} {}",
                case.name(),
                strategy.label()
            );
        }
    }
}
