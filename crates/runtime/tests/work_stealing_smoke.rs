//! Smoke tests for the std work-stealing `Group` fabric under contention:
//! many simultaneously-ready tasks hammered by 1 and 4 workers per group,
//! asserting every task executes exactly once — and a task body that panics
//! must surface from `execute` at every geometry instead of hanging it.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;
use tempart_obs::Recorder;
use tempart_runtime::{execute, RuntimeConfig};
use tempart_taskgraph::{Task, TaskGraph, TaskId, TaskKind};

fn mk_task(domain: u32) -> Task {
    Task {
        subiter: 0,
        tau: 0,
        stage: 0,
        domain,
        kind: TaskKind::CellInternal,
        n_objects: 1,
        cost: 1,
    }
}

/// A wide DAG designed to maximise scheduler contention: `roots` independent
/// root tasks (all ready at t=0) each fanning into `succ_per_root`
/// successors, spread round-robin over `domains` domains.
fn contention_graph(roots: usize, succ_per_root: usize, domains: u32) -> TaskGraph {
    let mut tasks = Vec::new();
    let mut preds: Vec<Vec<TaskId>> = Vec::new();
    for r in 0..roots {
        tasks.push(mk_task((r as u32) % domains));
        preds.push(vec![]);
    }
    for r in 0..roots {
        for s in 0..succ_per_root {
            tasks.push(mk_task(((r + s) as u32) % domains));
            preds.push(vec![r as TaskId]);
        }
    }
    TaskGraph::assemble(tasks, preds, domains as usize, 1)
}

fn assert_exactly_once(workers_per_group: usize, n_groups: usize) {
    let domains = (n_groups * 2) as u32;
    let graph = contention_graph(512, 4, domains);
    let group_of: Vec<usize> = (0..domains as usize).map(|d| d % n_groups).collect();
    let counts: Vec<AtomicU32> = (0..graph.len()).map(|_| AtomicU32::new(0)).collect();
    let concurrent = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);

    let cfg = RuntimeConfig::new(n_groups, workers_per_group);
    let report = execute(&graph, &cfg, &group_of, Recorder::off(), |t, _| {
        let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
        peak.fetch_max(now, Ordering::SeqCst);
        counts[t as usize].fetch_add(1, Ordering::SeqCst);
        // A tiny busy-wait widens the race window so double-execution bugs
        // would actually show up.
        std::hint::black_box((0..50u64).sum::<u64>());
        concurrent.fetch_sub(1, Ordering::SeqCst);
    });

    assert_eq!(report.executed, graph.len(), "all tasks executed");
    for (t, c) in counts.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::SeqCst),
            1,
            "task {t} must execute exactly once"
        );
    }
    let max_workers = n_groups * workers_per_group;
    assert!(
        peak.load(Ordering::SeqCst) <= max_workers,
        "concurrency {} exceeded worker count {max_workers}",
        peak.load(Ordering::SeqCst)
    );
}

#[test]
fn single_worker_per_group_executes_exactly_once() {
    assert_exactly_once(1, 2);
}

#[test]
fn four_workers_per_group_execute_exactly_once() {
    assert_exactly_once(4, 2);
}

#[test]
fn four_workers_single_group_all_stealing() {
    // One group, one domain: every ready task funnels through one injector
    // and four thieves — the worst-case contention pattern.
    assert_exactly_once(4, 1);
}

#[test]
fn repeated_runs_are_stable() {
    // Exercise startup/shutdown races: many short runs back to back.
    for _ in 0..20 {
        assert_exactly_once(4, 2);
    }
}

/// A chain of `n` tasks, task `i` in domain `i % domains`, so consecutive
/// tasks cross groups whenever there is more than one.
fn chain(n: usize, domains: u32) -> TaskGraph {
    let tasks = (0..n as u32).map(|i| mk_task(i % domains)).collect();
    let preds = (0..n as TaskId)
        .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
        .collect();
    TaskGraph::assemble(tasks, preds, domains as usize, 1)
}

#[test]
fn panicking_task_propagates_instead_of_hanging() {
    // Task 5 panics. `execute` must return that panic to its caller instead
    // of leaving the other workers waiting for tasks that can no longer
    // run. Each run is on a helper thread, so a hang fails the test after
    // 10 s instead of stalling the suite. In the 16-task chain nothing else
    // is queued when task 5 panics; in the wide graph 63 other roots are,
    // and at 2 × 1 the panicking worker is the only one that could run its
    // group's share of them.
    for (n_groups, workers_per_group) in [(1, 1), (2, 2), (1, 4), (2, 1)] {
        for wide in [false, true] {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let domains = 2 * n_groups as u32;
                let graph = if wide {
                    contention_graph(64, 2, domains)
                } else {
                    chain(16, domains)
                };
                let group_of: Vec<usize> = (0..domains as usize).map(|d| d % n_groups).collect();
                let cfg = RuntimeConfig::new(n_groups, workers_per_group);
                let result = std::panic::catch_unwind(|| {
                    execute(&graph, &cfg, &group_of, Recorder::off(), |t, _| {
                        if t == 5 {
                            panic!("task 5 failed");
                        }
                    })
                });
                // The receiver may have timed out already; nothing to report.
                let _ = tx.send(result.map(|report| report.executed));
            });
            let run = format!(
                "{} at {n_groups} × {workers_per_group}",
                if wide { "wide graph" } else { "chain" }
            );
            let result = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{run}: execute hung after task 5 panicked"));
            let payload = result.expect_err(&format!("{run}: task 5's panic must propagate"));
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"task 5 failed"),
                "{run}: the payload must be the task's"
            );
        }
    }
}
