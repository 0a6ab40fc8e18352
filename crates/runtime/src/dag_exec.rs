//! Dependency-counted DAG execution on the grouped fork-join scope.
//!
//! The executor owns no threads of its own: each task is one job of a
//! [`crate::forkjoin`] scope with one group per emulated MPI process. A job
//! runs the task body, emits the task's `rt.task` event and spawns every
//! successor whose dependency counter it drops to zero into that
//! successor's group; the roots are the scope's seeds. Workers steal within
//! their group only, so a domain's tasks never leave the group its domain is
//! mapped to, and a panicking task body propagates out of [`execute`]
//! through the scope.

use crate::forkjoin::{scope, ForkCtx, Job};
use crate::trace::WallSegment;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};
use tempart_obs::{Clock, Recorder};
use tempart_taskgraph::{Task, TaskGraph, TaskId};

/// Runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of process groups (emulated MPI ranks).
    pub n_groups: usize,
    /// Worker threads per group.
    pub workers_per_group: usize,
}

impl RuntimeConfig {
    /// A configuration with the given geometry.
    pub fn new(n_groups: usize, workers_per_group: usize) -> Self {
        assert!(n_groups >= 1, "need at least one group");
        assert!(workers_per_group >= 1, "need at least one worker per group");
        Self {
            n_groups,
            workers_per_group,
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Number of tasks executed (equals the DAG size on success).
    pub executed: usize,
    /// Wall-clock Gantt segments (empty unless the recorder is enabled).
    pub segments: Vec<WallSegment>,
}

/// What every task job of one run borrows.
struct Dag<'a, F> {
    graph: &'a TaskGraph,
    group_of: &'a [usize],
    /// Unfinished predecessors per task.
    pending: Vec<AtomicU32>,
    rec: &'a Recorder,
    /// Recorder-clock timestamp of `t0`.
    wall0: u64,
    t0: Instant,
    task_fn: F,
}

impl<F: Fn(TaskId, &Task) + Sync> Dag<'_, F> {
    fn group(&self, t: TaskId) -> usize {
        self.group_of[self.graph.task(t).domain as usize]
    }

    /// The job that runs task `t`.
    fn job<'env>(&'env self, t: TaskId) -> Job<'env> {
        Box::new(move |ctx| self.run(ctx, t))
    }

    fn run<'env>(&'env self, ctx: &ForkCtx<'_, 'env>, t: TaskId) {
        let start = self.t0.elapsed().as_nanos() as u64;
        (self.task_fn)(t, self.graph.task(t));
        let end = self.t0.elapsed().as_nanos() as u64;
        let (group, worker) = (ctx.group(), ctx.worker_index());
        self.rec.complete_at(
            Clock::Wall,
            "rt.task",
            (group * ctx.workers() + worker) as u32,
            self.wall0 + start,
            end - start,
            u64::from(t),
            ((group as u64) << 32) | worker as u64,
        );
        for &s in self.graph.succs(t) {
            if self.pending[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                ctx.spawn_to(self.group(s), move |c| self.run(c, s));
            }
        }
    }
}

/// Executes every task of `graph` exactly once, respecting dependencies.
///
/// Tasks are routed to the group of their domain (`group_of[domain]`);
/// workers steal within their group only. `task_fn(id, task)` is the task
/// body and must be safe to call concurrently for independent tasks.
///
/// Per executed task one `"rt.task"` [`Clock::Wall`] `Complete` event is
/// emitted into `rec` (track = global worker id, `a` = task id, `b` =
/// `group << 32 | worker`); per worker the counters `"rt.exec"` /
/// `"rt.local"` / `"rt.inject"` / `"rt.steal"` (tasks by acquisition path,
/// `exec` = their sum) and `"rt.park"` (backoff sleeps while starved) are
/// emitted once the workers have stopped, and the whole run is wrapped in an
/// `"rt.run"` span. Task timestamps live on the recorder's clock so they
/// interleave with spans from other layers; [`crate::trace::wall_segments`]
/// re-bases them.
///
/// `ExecReport::segments` is derived from those events when `rec` is
/// enabled — the runtime holds no second trace representation — so its
/// buffers must be large enough for the run (one event per task per worker
/// buffer plus a handful of counters), or segments will be incomplete and
/// `Recorder::dropped` non-zero.
///
/// # Panics
///
/// Panics on inconsistent configuration, or if the run completes without
/// executing every task (dependency cycle — impossible for graphs assembled
/// by `tempart-taskgraph`), and propagates a panic of `task_fn`.
pub fn execute<F>(
    graph: &TaskGraph,
    config: &RuntimeConfig,
    group_of: &[usize],
    rec: &Recorder,
    task_fn: F,
) -> ExecReport
where
    F: Fn(TaskId, &Task) + Sync,
{
    assert_eq!(group_of.len(), graph.n_domains, "one group per domain");
    assert!(
        group_of.iter().all(|&g| g < config.n_groups),
        "group id out of range"
    );
    let n = graph.len();
    if n == 0 {
        return ExecReport {
            wall: Duration::ZERO,
            executed: 0,
            segments: Vec::new(),
        };
    }
    let watermark = rec.seq_watermark();
    let run_span = rec.span("rt.run", 0, n as u64);
    let dag = Dag {
        graph,
        group_of,
        pending: (0..n as TaskId)
            .map(|t| AtomicU32::new(graph.preds(t).len() as u32))
            .collect(),
        rec,
        wall0: if rec.enabled() { rec.now_ns() } else { 0 },
        t0: Instant::now(),
        task_fn,
    };
    let dag = &dag;
    let roots = (0..n as TaskId)
        .filter(|&t| graph.preds(t).is_empty())
        .map(|t| (dag.group(t), dag.job(t)));
    let tallies = scope(config.n_groups, config.workers_per_group, roots);
    let wall = dag.t0.elapsed();

    let mut executed = 0;
    for (track, [local, inject, steal, park]) in tallies.into_iter().enumerate() {
        let track = track as u32;
        executed += local + inject + steal;
        rec.counter("rt.exec", track, local + inject + steal);
        rec.counter("rt.local", track, local);
        rec.counter("rt.inject", track, inject);
        rec.counter("rt.steal", track, steal);
        rec.counter("rt.park", track, park);
    }
    assert_eq!(executed as usize, n, "not every task executed");
    drop(run_span);
    let segments = if rec.enabled() {
        crate::trace::wall_segments(&rec.events_since(watermark), dag.wall0)
    } else {
        Vec::new()
    };
    ExecReport {
        wall,
        executed: n,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use tempart_taskgraph::TaskKind;

    fn mk_task(domain: u32, cost: u64) -> Task {
        Task {
            subiter: 0,
            tau: 0,
            stage: 0,
            domain,
            kind: TaskKind::CellInternal,
            n_objects: 1,
            cost,
        }
    }

    /// A layered DAG: `layers` layers of `width` tasks; task (l, i) depends
    /// on all of layer l-1.
    fn layered(layers: usize, width: usize, domains: u32) -> TaskGraph {
        let mut tasks = Vec::new();
        let mut preds: Vec<Vec<TaskId>> = Vec::new();
        for l in 0..layers {
            for i in 0..width {
                tasks.push(mk_task((i as u32) % domains, 1));
                if l == 0 {
                    preds.push(vec![]);
                } else {
                    let base = ((l - 1) * width) as TaskId;
                    preds.push((0..width as TaskId).map(|j| base + j).collect());
                }
            }
        }
        TaskGraph::assemble(tasks, preds, domains as usize, 1)
    }

    #[test]
    fn executes_every_task_once() {
        let g = layered(8, 16, 4);
        let counts: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
        let cfg = RuntimeConfig::new(2, 2);
        let group_of = vec![0, 0, 1, 1];
        let rec = Recorder::new(g.len() + 16);
        let report = execute(&g, &cfg, &group_of, &rec, |t, _| {
            counts[t as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(report.executed, g.len());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(report.segments.len(), g.len());
    }

    #[test]
    fn dependencies_ordered_by_completion_stamp() {
        let g = layered(6, 8, 2);
        let stamp = AtomicU64::new(0);
        let finished: Vec<AtomicU64> = (0..g.len()).map(|_| AtomicU64::new(0)).collect();
        let cfg = RuntimeConfig::new(1, 4);
        execute(&g, &cfg, &[0, 0], Recorder::off(), |t, _| {
            finished[t as usize].store(stamp.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        });
        for t in 0..g.len() as TaskId {
            for &p in g.preds(t) {
                assert!(
                    finished[p as usize].load(Ordering::SeqCst)
                        < finished[t as usize].load(Ordering::SeqCst),
                    "pred {p} must finish before {t}"
                );
            }
        }
    }

    #[test]
    fn group_isolation() {
        // Domain 0 -> group 0, domain 1 -> group 1; tasks must only run on
        // their group's workers.
        let g = layered(4, 8, 2);
        let cfg = RuntimeConfig::new(2, 3);
        let rec = Recorder::new(g.len() + 16);
        let report = execute(&g, &cfg, &[0, 1], &rec, |_, _| {});
        assert_eq!(report.segments.len(), g.len());
        for s in &report.segments {
            let dom = g.task(s.task).domain;
            assert_eq!(
                s.group, dom,
                "task of domain {dom} ran on group {}",
                s.group
            );
        }
    }

    #[test]
    fn single_worker_serialises() {
        let g = layered(3, 3, 1);
        let cfg = RuntimeConfig::new(1, 1);
        let rec = Recorder::new(g.len() + 16);
        let report = execute(&g, &cfg, &[0], &rec, |_, _| {
            std::thread::sleep(Duration::from_micros(200));
        });
        assert_eq!(report.segments.len(), g.len());
        // Segments must not overlap on a single worker.
        for w in report.segments.windows(2) {
            assert!(w[1].start_ns >= w[0].end_ns);
        }
    }

    #[test]
    fn traced_counters_conserve_task_count() {
        // Source-tagged counters must add up to the DAG size: every task is
        // acquired exactly once, whether popped locally, injected or stolen.
        for workers in [1usize, 4] {
            let g = layered(6, 12, 3);
            let rec = Recorder::new(4 * g.len());
            let cfg = RuntimeConfig::new(1, workers);
            let report = execute(&g, &cfg, &[0, 0, 0], &rec, |_, _| {});
            assert_eq!(report.executed, g.len());
            assert_eq!(report.segments.len(), g.len());
            let trace = rec.take();
            assert_eq!(trace.dropped, 0);
            let exec = trace.counter_total("rt.exec");
            assert_eq!(exec as usize, g.len(), "workers={workers}");
            let by_path = trace.counter_total("rt.local")
                + trace.counter_total("rt.inject")
                + trace.counter_total("rt.steal");
            assert_eq!(by_path, exec, "workers={workers}");
            // One rt.task event per task, and the run span is balanced.
            assert_eq!(trace.named("rt.task").count(), g.len());
            assert_eq!(trace.named("rt.run").count(), 2);
        }
    }

    #[test]
    fn disabled_recorder_skips_segments() {
        let g = layered(3, 4, 2);
        let cfg = RuntimeConfig::new(1, 2);
        let report = execute(&g, &cfg, &[0, 0], Recorder::off(), |_, _| {});
        assert_eq!(report.executed, g.len());
        assert!(report.segments.is_empty());
    }

    #[test]
    fn empty_graph_returns_immediately() {
        let g = TaskGraph::assemble(Vec::new(), Vec::new(), 1, 1);
        let report = execute(
            &g,
            &RuntimeConfig::new(1, 1),
            &[0],
            Recorder::off(),
            |_, _| {},
        );
        assert_eq!(report.executed, 0);
    }
}
