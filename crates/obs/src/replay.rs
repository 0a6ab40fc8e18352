//! Trace replay: reconstructing schedule statistics purely from emitted
//! events.
//!
//! This is the oracle behind the trace-replay tests: if the instrumentation
//! is *exact*, then makespan, per-process busy time, composite-resource
//! active time and per-subiteration work are all recomputable from the
//! `Complete` events alone, bit-for-bit equal to the simulator's own
//! accounting. Everything here is integer arithmetic over the same `u64`
//! values the simulator adds up, so equality is exact — and the derived
//! `f64` ratios ([`idle_fraction`], [`process_inactivity`]) replicate the
//! simulator's formulas operation-for-operation so even their floating-point
//! bits match.

use crate::{Event, Kind};

/// Schedule statistics reconstructed from a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleReplay {
    /// Latest `Complete` end time (0 for an empty trace).
    pub makespan: u64,
    /// Σ duration per track (process).
    pub busy: Vec<u64>,
    /// Length of the union of each track's execution intervals — the
    /// composite-resource active time (a process is idle only when *all*
    /// its cores are).
    pub active: Vec<u64>,
    /// Σ duration per (track, subiteration); the event's `b` field carries
    /// the subiteration.
    pub subiter_work: Vec<Vec<u64>>,
}

impl ScheduleReplay {
    /// Total executed duration across all tracks.
    pub fn total_executed(&self) -> u64 {
        self.busy.iter().sum()
    }
}

/// Replays every [`Kind::Complete`] event named `name` into a
/// [`ScheduleReplay`] over `n_tracks` tracks and `n_subiters`
/// subiterations.
///
/// # Panics
///
/// Panics if an event's track or `b` (subiteration) is out of range —
/// that's an instrumentation bug the tests should surface loudly.
pub fn replay_tasks(
    events: &[Event],
    name: &str,
    n_tracks: usize,
    n_subiters: usize,
) -> ScheduleReplay {
    let mut makespan = 0u64;
    let mut busy = vec![0u64; n_tracks];
    let mut subiter_work = vec![vec![0u64; n_subiters]; n_tracks];
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_tracks];
    for e in events {
        if e.kind != Kind::Complete || e.name != name {
            continue;
        }
        let p = e.track as usize;
        assert!(p < n_tracks, "replay: track {p} out of range");
        let sub = e.b as usize;
        assert!(sub < n_subiters, "replay: subiteration {sub} out of range");
        busy[p] += e.val;
        subiter_work[p][sub] += e.val;
        makespan = makespan.max(e.end());
        intervals[p].push((e.t, e.end()));
    }
    let active = intervals.into_iter().map(union_len).collect();
    ScheduleReplay {
        makespan,
        busy,
        active,
        subiter_work,
    }
}

/// Communication statistics per destination process: computed by the
/// simulator in one pass over its start-ordered logs, and reconstructed by
/// [`replay_network`] from `net.*` events through
/// [`NetStats::from_intervals`], which sorts. Two code paths over the very
/// same `u64` endpoints — the tests hold them bit-equal, with
/// `from_intervals` as the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Σ transfer duration per destination process (channel-time spent
    /// receiving, counting concurrent channels separately).
    pub comm_busy: Vec<u64>,
    /// Length of the union of each destination process's transfer intervals
    /// — the wall-clock window during which at least one inbound transfer
    /// was in flight.
    pub comm_active: Vec<u64>,
    /// Length of the intersection of each process's transfer-active window
    /// with its compute-active window: communication hidden under compute.
    pub hidden: Vec<u64>,
    /// Σ message bytes received per process.
    pub bytes_in: Vec<u64>,
    /// Number of messages received per process.
    pub messages: Vec<u64>,
}

impl NetStats {
    /// Builds the statistics from per-process inbound transfers
    /// `(start, end, bytes)` and per-process compute intervals
    /// `(start, end)`. Interval order within a process is irrelevant: sums
    /// are exact `u64` arithmetic and the unions sort internally.
    pub fn from_intervals(xfers: &[Vec<(u64, u64, u64)>], compute: &[Vec<(u64, u64)>]) -> Self {
        assert_eq!(xfers.len(), compute.len(), "per-process lists must align");
        let np = xfers.len();
        let mut stats = NetStats {
            comm_busy: vec![0; np],
            comm_active: vec![0; np],
            hidden: vec![0; np],
            bytes_in: vec![0; np],
            messages: vec![0; np],
        };
        for p in 0..np {
            for &(s, e, b) in &xfers[p] {
                stats.comm_busy[p] += e - s;
                stats.bytes_in[p] += b;
                stats.messages[p] += 1;
            }
            let xf = merge_intervals(xfers[p].iter().map(|&(s, e, _)| (s, e)).collect());
            let cp = merge_intervals(compute[p].clone());
            stats.comm_active[p] = xf.iter().map(|(s, e)| e - s).sum();
            stats.hidden[p] = intersection_len(&xf, &cp);
        }
        stats
    }

    /// Total channel-time spent on communication across all processes.
    pub fn total_comm_time(&self) -> u64 {
        self.comm_busy.iter().sum()
    }

    /// Total messages across all processes.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Total bytes across all processes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_in.iter().sum()
    }

    /// Fraction of the comm-active time that was hidden under compute:
    /// `Σ hidden ⁄ Σ comm_active`, and `1.0` when there was no
    /// communication at all (vacuously fully overlapped).
    pub fn overlap_efficiency(&self) -> f64 {
        let active: u64 = self.comm_active.iter().sum();
        if active == 0 {
            return 1.0;
        }
        let hidden: u64 = self.hidden.iter().sum();
        hidden as f64 / active as f64
    }
}

/// Replays `Complete` events named `xfer_name` (transfers: track =
/// destination process, `b` = bytes) against `Complete` events named
/// `task_name` (compute segments) into a [`NetStats`] over `n_tracks`
/// processes — the replay oracle for the simulator's own communication
/// accounting.
///
/// # Panics
///
/// Panics if an event's track is out of range.
pub fn replay_network(
    events: &[Event],
    xfer_name: &str,
    task_name: &str,
    n_tracks: usize,
) -> NetStats {
    let mut xfers: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); n_tracks];
    let mut compute: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_tracks];
    for e in events {
        if e.kind != Kind::Complete {
            continue;
        }
        let p = e.track as usize;
        if e.name == xfer_name {
            assert!(p < n_tracks, "replay: transfer track {p} out of range");
            xfers[p].push((e.t, e.end(), e.b));
        } else if e.name == task_name {
            assert!(p < n_tracks, "replay: compute track {p} out of range");
            compute[p].push((e.t, e.end()));
        }
    }
    NetStats::from_intervals(&xfers, &compute)
}

/// Length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: Vec<(u64, u64)>) -> u64 {
    merge_intervals(intervals).iter().map(|(s, e)| e - s).sum()
}

/// Normalises half-open intervals `[start, end)` into a sorted, disjoint
/// list: empty intervals are dropped, overlapping and touching intervals are
/// merged.
pub fn merge_intervals(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        if e <= s {
            continue;
        }
        match merged.last_mut() {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Length of the intersection of two sorted disjoint interval lists (as
/// produced by [`merge_intervals`]).
pub fn intersection_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut total = 0u64;
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        // Advance whichever interval ends first.
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Maximum number of simultaneously-running `Complete` events named `name`
/// on one track — e.g. a FLUSIM process may run up to `cores` tasks at
/// once, a runtime worker exactly one.
pub fn max_overlap(events: &[Event], name: &str, track: u32) -> usize {
    // Sweep: ends sort before starts at equal time (half-open intervals).
    let mut points: Vec<(u64, i32)> = Vec::new();
    for e in events {
        if e.kind == Kind::Complete && e.name == name && e.track == track && e.val > 0 {
            points.push((e.t, 1));
            points.push((e.end(), -1));
        }
    }
    points.sort_unstable_by_key(|&(t, d)| (t, d));
    let mut cur = 0i32;
    let mut max = 0i32;
    for (_, d) in points {
        cur += d;
        max = max.max(cur);
    }
    max as usize
}

/// The simulator's idle-fraction formula, replicated
/// operation-for-operation so replayed values are bit-equal:
/// `1 − Σ busy ⁄ (makespan × cores)` (0 when the capacity is zero).
pub fn idle_fraction(makespan: u64, busy: &[u64], cores: u64) -> f64 {
    let capacity = makespan as f64 * cores as f64;
    if capacity == 0.0 {
        return 0.0;
    }
    let busy: u64 = busy.iter().sum();
    1.0 - busy as f64 / capacity
}

/// The simulator's per-process composite-resource inactivity formula,
/// replicated operation-for-operation: `1 − active[p] ⁄ makespan`.
pub fn process_inactivity(makespan: u64, active: &[u64]) -> Vec<f64> {
    active
        .iter()
        .map(|&a| {
            if makespan == 0 {
                0.0
            } else {
                1.0 - a as f64 / makespan as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clock, Recorder};

    fn complete(rec: &Recorder, track: u32, t: u64, dur: u64, task: u64, sub: u64) {
        rec.complete_at(Clock::Virtual, "flusim.task", track, t, dur, task, sub);
    }

    #[test]
    fn replay_accumulates_busy_and_makespan() {
        let rec = Recorder::new(16);
        complete(&rec, 0, 0, 5, 0, 0);
        complete(&rec, 0, 5, 5, 1, 1);
        complete(&rec, 1, 0, 3, 2, 0);
        let t = rec.take();
        let r = replay_tasks(&t.events, "flusim.task", 2, 2);
        assert_eq!(r.makespan, 10);
        assert_eq!(r.busy, vec![10, 3]);
        assert_eq!(r.active, vec![10, 3]);
        assert_eq!(r.subiter_work, vec![vec![5, 5], vec![3, 0]]);
        assert_eq!(r.total_executed(), 13);
    }

    #[test]
    fn active_is_interval_union_not_sum() {
        // Two overlapping tasks on a 2-core process: busy counts both,
        // active counts the union.
        let rec = Recorder::new(16);
        complete(&rec, 0, 0, 4, 0, 0);
        complete(&rec, 0, 2, 4, 1, 0);
        let t = rec.take();
        let r = replay_tasks(&t.events, "flusim.task", 1, 1);
        assert_eq!(r.busy, vec![8]);
        assert_eq!(r.active, vec![6]);
        assert_eq!(max_overlap(&t.events, "flusim.task", 0), 2);
    }

    #[test]
    fn union_len_merges_touching_intervals() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 5), (5, 8)]), 8);
        assert_eq!(union_len(vec![(5, 8), (0, 5), (10, 11)]), 9);
        assert_eq!(union_len(vec![(0, 10), (2, 3)]), 10);
        assert_eq!(union_len(vec![(3, 3)]), 0, "empty interval ignored");
    }

    #[test]
    fn max_overlap_half_open() {
        // [0,5) then [5,9): back-to-back, never simultaneous.
        let rec = Recorder::new(8);
        complete(&rec, 0, 0, 5, 0, 0);
        complete(&rec, 0, 5, 4, 1, 0);
        let t = rec.take();
        assert_eq!(max_overlap(&t.events, "flusim.task", 0), 1);
    }

    #[test]
    fn intersection_of_sorted_disjoint_lists() {
        assert_eq!(intersection_len(&[], &[(0, 10)]), 0);
        assert_eq!(intersection_len(&[(0, 10)], &[(5, 8)]), 3);
        assert_eq!(intersection_len(&[(0, 5), (10, 20)], &[(3, 12)]), 4);
        assert_eq!(
            intersection_len(&[(0, 5)], &[(5, 9)]),
            0,
            "touching is empty"
        );
        assert_eq!(
            intersection_len(&[(0, 4), (6, 10)], &[(2, 8), (9, 12)]),
            2 + 2 + 1
        );
    }

    #[test]
    fn merge_intervals_normalises() {
        assert_eq!(
            merge_intervals(vec![(5, 8), (0, 5), (10, 11)]),
            vec![(0, 8), (10, 11)]
        );
        assert_eq!(merge_intervals(vec![(3, 3), (1, 2)]), vec![(1, 2)]);
    }

    #[test]
    fn network_replay_reconstructs_overlap() {
        let rec = Recorder::new(16);
        // Compute on process 0: [0, 20).
        complete(&rec, 0, 0, 20, 0, 0);
        // Two inbound transfers on process 0: [10, 18) hidden under the
        // compute segment, [25, 30) fully exposed. `a` = src<<32|channel,
        // `b` = bytes.
        rec.complete_at(Clock::Virtual, "net.xfer", 0, 10, 8, 1 << 32, 64);
        rec.complete_at(Clock::Virtual, "net.xfer", 0, 25, 5, 1 << 32, 16);
        let t = rec.take();
        let r = replay_network(&t.events, "net.xfer", "flusim.task", 1);
        assert_eq!(r.comm_busy, vec![13]);
        assert_eq!(r.comm_active, vec![13]);
        assert_eq!(r.hidden, vec![8]);
        assert_eq!(r.bytes_in, vec![80]);
        assert_eq!(r.messages, vec![2]);
        assert_eq!(r.total_comm_time(), 13);
        assert_eq!(r.overlap_efficiency().to_bits(), (8.0f64 / 13.0).to_bits());
        // No communication at all → vacuously fully overlapped.
        let empty = NetStats::from_intervals(&[Vec::new()], &[vec![(0, 20)]]);
        assert_eq!(empty.overlap_efficiency().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn idle_fraction_matches_formula() {
        assert_eq!(idle_fraction(0, &[0], 4), 0.0);
        let f = idle_fraction(10, &[10, 6], 2);
        assert!((f - 0.2).abs() < 1e-12);
        let inact = process_inactivity(10, &[10, 6]);
        assert_eq!(inact[0].to_bits(), 0.0f64.to_bits());
        assert!((inact[1] - 0.4).abs() < 1e-12);
    }
}
