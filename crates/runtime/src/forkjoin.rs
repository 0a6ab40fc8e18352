//! Scoped fork-join execution over grouped work-stealing deques — the
//! crate's one task runtime.
//!
//! [`fork_join`] runs a dynamically growing tree of closures on `n_workers`
//! threads over the crate's private `groups` fabric: one LIFO owner deque per
//! worker, FIFO stealing, and a FIFO injector that seeds the root job. Jobs
//! receive a [`ForkCtx`] and may [`ForkCtx::spawn`] further jobs;
//! `fork_join` returns once every transitively spawned job has finished.
//!
//! # Groups and the steal boundary
//!
//! Underneath, a scope runs `n_groups × per_group` workers over one pending
//! counter. A worker steals only within its own group — the MPI process
//! boundary of the paper's runtime — and a job hands work to another group
//! through that group's injector. `fork_join` is the one-group case; the
//! DAG executor ([`crate::dag_exec`]) is the multi-group one, and publishes
//! the scope's per-worker `[local, inject, steal, park]` tallies as its
//! `rt.*` counters.
//!
//! # Determinism contract
//!
//! The *schedule* (which worker runs which job, in what interleaving) is
//! nondeterministic; callers that need deterministic results must make every
//! job a pure function of its own inputs and merge job outputs by a fixed,
//! schedule-independent order (disjoint output slots indexed by job
//! identity). The parallel partitioner (`tempart-partition::par`) and the
//! pipeline sweep (`tempart-core`) are built exactly this way, and their
//! bit-identity to the sequential code paths is enforced by tests and by the
//! `ci.sh` worker-matrix stage.
//!
//! # Worker-count knob
//!
//! [`env_workers`] reads the process-wide `TEMPART_WORKERS` variable — the
//! single knob the CLI, the benches and CI use to select the fork-join
//! width. It defaults to `1` (fully sequential), so nothing parallelizes
//! unless asked to.

use crate::groups::{Group, Worker};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// A queued fork-join job: a boxed closure run at most once.
pub(crate) type Job<'env> = Box<dyn FnOnce(&ForkCtx<'_, 'env>) + Send + 'env>;

/// One worker's jobs by acquisition path, then its backoff sleeps:
/// `[local, inject, steal, park]`.
pub(crate) type Tally = [u64; 4];

/// Shared state of one scope.
struct FjShared<'env> {
    /// The scope's groups, each an injector plus one deque per worker.
    groups: Vec<Group<Job<'env>>>,
    /// Jobs spawned but not yet finished. Incremented *before* a job is
    /// pushed, decremented after it returns; the scope is complete when this
    /// reaches zero (a job in flight keeps its own count alive, so the
    /// counter can never reach zero while more work may still be spawned).
    pending: AtomicUsize,
    /// Set by a panicking job. From then on a worker that finds its group
    /// dry leaves instead of waiting for `pending`: work queued for a group
    /// whose every worker panicked would otherwise never run. (Release in
    /// the guard, Acquire in the loop; the flag publishes nothing else.)
    panicked: AtomicBool,
}

/// Per-worker execution context handed to every job.
///
/// Spawned jobs go to this worker's *local* deque (LIFO for the owner —
/// the just-spawned child runs next, keeping the recursion depth-first and
/// cache-hot), where idle siblings steal from the *oldest* end (FIFO — a
/// thief takes the root of the largest untouched subtree).
pub struct ForkCtx<'fj, 'env> {
    shared: &'fj FjShared<'env>,
    local: &'fj Worker<Job<'env>>,
    group: usize,
    index: usize,
}

impl<'fj, 'env> ForkCtx<'fj, 'env> {
    /// Index of the worker currently running this job (`0..workers()`).
    /// Stable for the duration of one job body; useful as a stripe hint for
    /// contention-striped resource pools.
    pub fn worker_index(&self) -> usize {
        self.index
    }

    /// Total number of workers in this fork-join scope (in this worker's
    /// group, for the executor's grouped scopes).
    pub fn workers(&self) -> usize {
        self.shared.groups[self.group].stealers.len()
    }

    /// The group of the worker running this job.
    pub(crate) fn group(&self) -> usize {
        self.group
    }

    /// Spawns `job` into the scope. It may run on any worker, at any point
    /// before `fork_join` returns.
    pub fn spawn(&self, job: impl FnOnce(&ForkCtx<'_, 'env>) + Send + 'env) {
        self.spawn_to(self.group, job);
    }

    /// Spawns `job` into `group`: onto this worker's deque when that is its
    /// own group, else into that group's injector.
    pub(crate) fn spawn_to(
        &self,
        group: usize,
        job: impl FnOnce(&ForkCtx<'_, 'env>) + Send + 'env,
    ) {
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        if group == self.group {
            self.local.push(Box::new(job));
        } else {
            self.shared.groups[group].injector.push(Box::new(job));
        }
    }
}

/// Runs `root` (and everything it transitively spawns) to completion on
/// `n_workers` worker threads, blocking the calling thread until the scope
/// drains.
///
/// `n_workers == 1` executes on the calling thread with no thread spawned at
/// all — the sequential path costs one deque push/pop per job. With more
/// workers, scoped threads are spawned for the duration of the call; starved
/// workers yield, then back off to short parks, so oversubscribed boxes
/// (more workers than cores) lose almost nothing to polling.
///
/// # Panics
///
/// Panics if `n_workers == 0`, and propagates panics from job bodies.
pub fn fork_join<'env, F>(n_workers: usize, root: F)
where
    F: FnOnce(&ForkCtx<'_, 'env>) + Send + 'env,
{
    assert!(n_workers >= 1, "need at least one fork-join worker");
    let root: Job<'env> = Box::new(root);
    scope(1, n_workers, [(0, root)]);
}

/// Runs the `(group, job)` seeds, pushed in order into their group's
/// injector, and everything they transitively spawn on `n_groups ×
/// per_group` workers; returns one [`Tally`] per worker, group-major. A
/// single worker runs on the calling thread. Panics from job bodies
/// propagate once every worker has stopped.
pub(crate) fn scope<'env>(
    n_groups: usize,
    per_group: usize,
    seeds: impl IntoIterator<Item = (usize, Job<'env>)>,
) -> Vec<Tally> {
    let (groups, deques): (Vec<Group<Job<'env>>>, Vec<_>) =
        (0..n_groups).map(|_| Group::new(per_group)).unzip();
    let mut pending = 0;
    for (group, job) in seeds {
        groups[group].injector.push(job);
        pending += 1;
    }
    let shared = FjShared {
        groups,
        pending: AtomicUsize::new(pending),
        panicked: AtomicBool::new(false),
    };

    if n_groups * per_group == 1 {
        return vec![worker_loop(&shared, &deques[0][0], 0, 0)];
    }
    let shared = &shared;
    let mut tallies = Vec::with_capacity(n_groups * per_group);
    let mut payload: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(n_groups * per_group);
        for (group, locals) in deques.iter().enumerate() {
            for (index, local) in locals.iter().enumerate() {
                handles.push(s.spawn(move || worker_loop(shared, local, group, index)));
            }
        }
        // Join every worker before propagating: a panicking job retires its
        // pending count and raises `panicked` in a drop guard (see
        // `worker_loop`), so the survivors drain what their groups hold and
        // exit normally instead of spinning on a count that never reaches
        // zero.
        for h in handles {
            match h.join() {
                Ok(tally) => tallies.push(tally),
                Err(p) => {
                    payload.get_or_insert(p);
                }
            }
        }
    });
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
    tallies
}

/// One worker's drain loop: run jobs until the scope's pending count hits
/// zero (or, once a job has panicked, until its group runs dry), counting
/// them in the returned tally. Starvation backoff: yield first (cheap when oversubscribed), then
/// park in growing sleeps capped at 500 µs so late-arriving stolen work is
/// still picked up promptly.
fn worker_loop<'env>(
    shared: &FjShared<'env>,
    local: &Worker<Job<'env>>,
    group: usize,
    index: usize,
) -> Tally {
    let mut tally = [0u64; 4];
    let mut idle_rounds = 0u32;
    loop {
        if shared.pending.load(Ordering::Acquire) == 0 {
            return tally;
        }
        let Some((job, source)) = shared.groups[group].find_task(local, index) else {
            if shared.panicked.load(Ordering::Acquire) {
                return tally;
            }
            idle_rounds += 1;
            if idle_rounds <= 16 {
                std::thread::yield_now();
            } else {
                tally[3] += 1;
                let us = (u64::from(idle_rounds - 16) * 20).min(500);
                std::thread::sleep(Duration::from_micros(us));
            }
            continue;
        };
        idle_rounds = 0;
        tally[source as usize] += 1;
        // The decrement lives in a drop guard so a panicking job still
        // retires its pending count — without it, the sibling workers of a
        // panicked thread would spin forever waiting for zero while the
        // scope waits for them: a deadlock instead of a propagated panic.
        struct Retire<'a>(&'a AtomicUsize, &'a AtomicBool);
        impl Drop for Retire<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.1.store(true, Ordering::Release);
                }
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _retire = Retire(&shared.pending, &shared.panicked);
        job(&ForkCtx {
            shared,
            local,
            group,
            index,
        });
    }
}

/// The process-wide fork-join width: `TEMPART_WORKERS` if set to a positive
/// integer, else `1` (sequential).
///
/// This is *the* knob the `tempart` CLI (`partition`, `trace`, `compare`),
/// the bench binaries and the `ci.sh` worker matrix honour; results are
/// bit-identical at every setting, only wall-clock changes.
pub fn env_workers() -> usize {
    std::env::var("TEMPART_WORKERS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&w| w >= 1)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    #[test]
    fn runs_root_once() {
        for workers in [1usize, 4] {
            let hits = AtomicU64::new(0);
            fork_join(workers, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 1, "workers={workers}");
        }
    }

    #[test]
    fn recursive_spawn_tree_completes() {
        // A binary tree of depth 10: 2^10 leaves must all be counted,
        // regardless of worker count or steal order.
        for workers in [1usize, 2, 4] {
            let leaves = AtomicU64::new(0);
            fn node<'env>(ctx: &ForkCtx<'_, 'env>, depth: u32, leaves: &'env AtomicU64) {
                if depth == 0 {
                    leaves.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                // One child spawned, one recursed inline — the shape the
                // parallel partitioner uses.
                let l = leaves;
                ctx.spawn(move |c| node(c, depth - 1, l));
                node(ctx, depth - 1, leaves);
            }
            let leaves_ref = &leaves;
            fork_join(workers, move |ctx| node(ctx, 10, leaves_ref));
            assert_eq!(leaves.load(Ordering::Relaxed), 1 << 10, "workers={workers}");
        }
    }

    #[test]
    fn disjoint_slot_outputs_are_schedule_independent() {
        // Each job writes a pure function of its identity into its own
        // slot: outputs must match the sequential fill at every width.
        let n = 257usize;
        let expected: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        for workers in [1usize, 3, 8] {
            let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let out_ref = &out;
            fork_join(workers, move |ctx| {
                for (i, slot) in out_ref.iter().enumerate() {
                    ctx.spawn(move |_| {
                        slot.store((i as u64).wrapping_mul(0x9E37), Ordering::Relaxed);
                    });
                }
            });
            let got: Vec<u64> = out.iter().map(|a| a.load(Ordering::Relaxed)).collect();
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn worker_index_is_in_range_and_width_reported() {
        let seen = Mutex::new(Vec::new());
        let seen_ref = &seen;
        fork_join(3, move |ctx| {
            assert_eq!(ctx.workers(), 3);
            for _ in 0..64 {
                ctx.spawn(move |c| {
                    assert!(c.worker_index() < c.workers());
                    seen_ref.lock().unwrap().push(c.worker_index());
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), 64);
    }

    #[test]
    fn single_worker_runs_on_calling_thread() {
        let main_id = std::thread::current().id();
        fork_join(1, move |ctx| {
            assert_eq!(std::thread::current().id(), main_id);
            ctx.spawn(move |_| {
                assert_eq!(std::thread::current().id(), main_id);
            });
        });
    }

    #[test]
    fn panicking_job_propagates_without_deadlock() {
        // A job that panics must not hang the scope: its pending count is
        // retired by the drop guard, siblings finish their work, and the
        // panic payload surfaces from `fork_join` itself.
        for workers in [1usize, 4] {
            let done = AtomicU64::new(0);
            let done_ref = &done;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fork_join(workers, move |ctx| {
                    for i in 0..32 {
                        ctx.spawn(move |_| {
                            if i == 13 {
                                panic!("boom from job {i}");
                            }
                            done_ref.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }));
            let err = result.expect_err("panic must propagate");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| (*err.downcast_ref::<&str>().unwrap()).to_string());
            assert!(msg.contains("boom from job 13"), "workers={workers}: {msg}");
            // At workers > 1 the survivors drain the remaining queue; at
            // workers == 1 the panic unwinds straight through the drain
            // loop, so only jobs popped before the panicking one ran (the
            // owner deque is LIFO: 31 down to 14, then 13 panics).
            if workers > 1 {
                assert_eq!(done.load(Ordering::Relaxed), 31, "workers={workers}");
            } else {
                assert_eq!(done.load(Ordering::Relaxed), 18, "workers={workers}");
            }
        }
    }

    #[test]
    fn env_workers_parses() {
        // Cannot mutate the environment safely in-process across tests;
        // exercise the parse contract through the public default instead.
        match std::env::var("TEMPART_WORKERS") {
            Ok(v) => {
                let expect = v
                    .trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&w| w >= 1)
                    .unwrap_or(1);
                assert_eq!(env_workers(), expect);
            }
            Err(_) => assert_eq!(env_workers(), 1),
        }
    }
}
