//! Wall-clock execution traces.
//!
//! Since the unified observability layer landed, [`WallSegment`]s are a
//! *derived view* over the structured event stream: the runtime emits one
//! `"rt.task"` [`Complete`](Kind::Complete) event per executed task and
//! [`wall_segments`] reconstructs the Gantt segments from those events.

use tempart_obs::{Event, Kind};
use tempart_taskgraph::TaskId;

/// One task execution with wall-clock timestamps (nanoseconds from the start
/// of the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallSegment {
    /// The executed task.
    pub task: TaskId,
    /// Group (emulated MPI process) the worker belonged to.
    pub group: u32,
    /// Worker index within the group.
    pub worker: u32,
    /// Start, ns from run start.
    pub start_ns: u64,
    /// End, ns from run start.
    pub end_ns: u64,
}

/// Rebuilds [`WallSegment`]s from a unified obs event stream — the thin-view
/// inverse of the runtime's `"rt.task"` `Complete` events.
///
/// `t0_ns` is the recorder-clock timestamp of the run start (the runtime
/// stamps task events on the recorder's timeline so they interleave with
/// spans from other layers); segment timestamps are re-based to nanoseconds
/// from run start. Events of any other name, kind or clock are ignored, so
/// the snapshot may come straight from `Recorder::events_since`.
pub fn wall_segments(events: &[Event], t0_ns: u64) -> Vec<WallSegment> {
    let mut segs: Vec<WallSegment> = events
        .iter()
        .filter(|e| e.kind == Kind::Complete && e.name == "rt.task")
        .map(|e| WallSegment {
            task: e.a as TaskId,
            group: (e.b >> 32) as u32,
            worker: (e.b & 0xffff_ffff) as u32,
            start_ns: e.t.saturating_sub(t0_ns),
            end_ns: e.end().saturating_sub(t0_ns),
        })
        .collect();
    segs.sort_unstable_by_key(|s| (s.start_ns, s.task));
    segs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_segments_unpacks_and_rebases() {
        use tempart_obs::{Clock, Recorder};
        let rec = Recorder::new(16);
        // group 2 / worker 1, task 7, [1100, 1400) on the recorder clock.
        rec.complete_at(Clock::Wall, "rt.task", 5, 1100, 300, 7, (2u64 << 32) | 1);
        // A foreign event the view must ignore.
        rec.counter_at(Clock::Wall, "rt.exec", 5, 1500, 1);
        let trace = rec.take();
        let segs = wall_segments(&trace.events, 1000);
        assert_eq!(
            segs,
            vec![WallSegment {
                task: 7,
                group: 2,
                worker: 1,
                start_ns: 100,
                end_ns: 400,
            }]
        );
    }
}
