//! Process-group fabric: per-group injectors and in-group stealing.
//!
//! Built on std primitives only (`Mutex<VecDeque>` + `Arc`), replacing the
//! previous `crossbeam::deque` fabric so the workspace stays dependency-free.
//! The deque types are generic over the queued item; the crate's one scope
//! ([`crate::forkjoin`]) queues boxed jobs, one [`Group`] per process group.
//! The scheduling semantics:
//!
//! * **Owner pop is LIFO** — a worker pops the job it most recently pushed
//!   (its just-released successor), keeping the hot cache lines hot;
//! * **Stealing is FIFO** — thieves take the *oldest* job from a victim's
//!   deque, which tends to be the root of the largest untouched subtree;
//! * **The injector is FIFO** — seeds and jobs handed over from another
//!   group are consumed in arrival order.
//!
//! Under the task granularities this runtime executes (finite-volume cell
//! blocks, ≥ tens of microseconds each) a per-deque mutex is not a
//! measurable bottleneck: each task acquires O(1) uncontended locks, and
//! contention only appears when workers are starving anyway.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The shared FIFO inbox of a group: seeds, and work handed over by a
/// worker of a different group.
#[derive(Debug)]
pub struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
        }
    }
}

impl<T> Injector<T> {
    /// Enqueues a ready task (FIFO order).
    pub fn push(&self, t: T) {
        self.queue.lock().expect("injector poisoned").push_back(t);
    }

    /// Dequeues the oldest task, if any.
    pub fn pop(&self) -> Option<T> {
        self.queue.lock().expect("injector poisoned").pop_front()
    }
}

/// The owner-side handle of one worker's deque; the matching [`Stealer`]s
/// stay in the [`Group`].
#[derive(Debug)]
pub struct Worker<T> {
    deque: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Worker<T> {
    fn new() -> Self {
        Self {
            deque: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    /// Pushes a task onto the owner's end (most-recently-pushed pops first).
    pub fn push(&self, t: T) {
        self.deque.lock().expect("deque poisoned").push_back(t);
    }

    /// Pops the most recently pushed task (LIFO).
    pub fn pop(&self) -> Option<T> {
        self.deque.lock().expect("deque poisoned").pop_back()
    }

    /// The thief-side handle of this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            deque: Arc::clone(&self.deque),
        }
    }
}

/// The thief-side handle of a worker's deque: takes the *oldest* task.
#[derive(Debug)]
pub struct Stealer<T> {
    deque: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Stealer<T> {
    /// Steals the oldest task from the victim's deque (FIFO).
    pub fn steal(&self) -> Option<T> {
        self.deque.lock().expect("deque poisoned").pop_front()
    }
}

/// Where [`Group::find_task`] found its task; it indexes the worker's
/// `[local, inject, steal, park]` tally, which becomes the runtime's
/// `rt.local` / `rt.inject` / `rt.steal` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskSource {
    /// Popped from the worker's own deque (LIFO).
    Local,
    /// Taken from the group's shared injector (FIFO).
    Inject,
    /// Stolen from an in-group sibling's deque (FIFO).
    Steal,
}

/// The scheduling fabric of one process group: a shared injector plus one
/// work-stealing deque per worker thread of the group.
pub struct Group<T> {
    /// Inbox of the group.
    pub injector: Injector<T>,
    /// Stealers for all worker deques of this group.
    pub stealers: Vec<Stealer<T>>,
}

impl<T> Group<T> {
    /// Creates the group fabric, returning the group and the worker-local
    /// deques (one per worker of the group).
    pub fn new(n_workers: usize) -> (Self, Vec<Worker<T>>) {
        let workers: Vec<Worker<T>> = (0..n_workers).map(|_| Worker::new()).collect();
        let stealers = workers.iter().map(Worker::stealer).collect();
        (
            Self {
                injector: Injector::default(),
                stealers,
            },
            workers,
        )
    }

    /// Finds work for the worker owning `local`, and the path it came by:
    /// local deque first (LIFO), then the group injector (FIFO), then
    /// stealing from in-group siblings (FIFO from each victim).
    pub fn find_task(&self, local: &Worker<T>, self_index: usize) -> Option<(T, TaskSource)> {
        if let Some(t) = local.pop() {
            return Some((t, TaskSource::Local));
        }
        if let Some(t) = self.injector.pop() {
            return Some((t, TaskSource::Inject));
        }
        for (i, s) in self.stealers.iter().enumerate() {
            if i == self_index {
                continue;
            }
            if let Some(t) = s.steal() {
                return Some((t, TaskSource::Steal));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The task `find_task` returns, without its source.
    fn task<T>(g: &Group<T>, local: &Worker<T>, self_index: usize) -> Option<T> {
        g.find_task(local, self_index).map(|(t, _)| t)
    }

    #[test]
    fn injector_roundtrip() {
        let (g, workers) = Group::new(2);
        g.injector.push(7);
        g.injector.push(8);
        let t = task(&g, &workers[0], 0).unwrap();
        assert_eq!(t, 7, "injector is FIFO");
        let t2 = task(&g, &workers[1], 1).unwrap();
        assert_eq!(t2, 8);
        assert!(task(&g, &workers[1], 1).is_none());
    }

    #[test]
    fn local_first() {
        let (g, workers) = Group::new(1);
        workers[0].push(1);
        g.injector.push(2);
        assert_eq!(task(&g, &workers[0], 0), Some(1));
        assert_eq!(task(&g, &workers[0], 0), Some(2));
        assert_eq!(task(&g, &workers[0], 0), None);
    }

    #[test]
    fn owner_pops_lifo() {
        let (_, workers) = Group::new(1);
        let w = &workers[0];
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn thief_steals_fifo() {
        let (g, workers) = Group::new(2);
        workers[0].push(1);
        workers[0].push(2);
        workers[0].push(3);
        // Worker 1 has nothing local and the injector is empty: it must
        // steal the *oldest* task of worker 0.
        assert_eq!(task(&g, &workers[1], 1), Some(1));
        // Owner still pops its newest first.
        assert_eq!(workers[0].pop(), Some(3));
        assert_eq!(task(&g, &workers[1], 1), Some(2));
    }

    #[test]
    fn tagged_sources_match_probe_order() {
        let (g, workers) = Group::new(2);
        workers[0].push(1);
        g.injector.push(2);
        workers[1].push(3);
        assert_eq!(g.find_task(&workers[0], 0), Some((1, TaskSource::Local)));
        assert_eq!(g.find_task(&workers[0], 0), Some((2, TaskSource::Inject)));
        assert_eq!(g.find_task(&workers[0], 0), Some((3, TaskSource::Steal)));
        assert_eq!(g.find_task(&workers[0], 0), None);
    }

    #[test]
    fn steal_skips_self_and_visits_all_victims() {
        let (g, workers) = Group::new(3);
        workers[2].push(42);
        // Worker 1 must reach worker 2's deque even with worker 0 empty.
        assert_eq!(task(&g, &workers[1], 1), Some(42));
        assert!(task(&g, &workers[1], 1).is_none());
    }
}
