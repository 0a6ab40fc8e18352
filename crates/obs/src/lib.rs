#![warn(missing_docs)]
//! `tempart-obs` — the workspace's unified observability layer.
//!
//! One structured-event model serves every layer of the pipeline: the
//! partitioner phases, the FLUSIM discrete-event scheduler, the
//! work-stealing runtime and the solver iteration loop all emit into the
//! same [`Recorder`], and the exporters ([`export::chrome_trace`],
//! [`export::ndjson`]) turn the merged stream into artifacts that load in
//! `chrome://tracing` / Perfetto or pipe into scripts.
//!
//! # Design contract
//!
//! * **Disabled is free.** Every emission starts with a single branch on a
//!   relaxed atomic load ([`Recorder::enabled`]). When the recorder is
//!   disabled there is **no allocation, no timestamp read, no lock** —
//!   nothing but that branch. The hot loops of the partitioner and the
//!   simulator keep their zero-allocation contracts with instrumentation
//!   compiled in (enforced by the `zero_alloc` test binaries).
//! * **Per-thread ring buffers.** Enabled emissions append to a bounded
//!   per-thread buffer (created on a thread's first event, outside any hot
//!   loop). When a buffer is full, further events are *dropped and counted*
//!   rather than wrapped, so span structure stays parseable and loss is
//!   observable via [`Trace::dropped`].
//! * **Two clock domains.** [`Clock::Wall`] events carry nanoseconds from
//!   recorder creation; [`Clock::Virtual`] events carry FLUSIM cost units.
//!   Exporters keep the domains on separate Chrome `pid` lanes so the two
//!   timelines never mix.
//! * **Deterministic.** Events carry a global sequence number; exports are
//!   ordered by it, and virtual-domain traces of deterministic runs are
//!   bit-identical across runs (pinned by golden fingerprint tests). The
//!   Chrome export numbers events within their clock domain, so wall spans
//!   added around a run leave its virtual export unchanged.

pub mod export;
pub mod json;
pub mod replay;
pub mod schema;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Which timeline an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Clock {
    /// Wall-clock nanoseconds since the recorder was created.
    Wall,
    /// Simulated time in FLUSIM cost units.
    Virtual,
}

impl Clock {
    /// Short lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
        }
    }
}

/// Event kind, mirroring the Chrome-trace phase it exports to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Hierarchical span open (`ph: "B"`).
    SpanBegin,
    /// Hierarchical span close (`ph: "E"`).
    SpanEnd,
    /// A span with a known duration (`ph: "X"`): `t` is the start, `val`
    /// the duration.
    Complete,
    /// A monotonic counter sample (`ph: "C"`): `val` is the value.
    Counter,
    /// A point event (`ph: "i"`).
    Instant,
}

impl Kind {
    /// Chrome-trace phase letter.
    pub fn phase(self) -> &'static str {
        match self {
            Kind::SpanBegin => "B",
            Kind::SpanEnd => "E",
            Kind::Complete => "X",
            Kind::Counter => "C",
            Kind::Instant => "i",
        }
    }

    /// Short lower-case label used by the NDJSON exporter.
    pub fn label(self) -> &'static str {
        match self {
            Kind::SpanBegin => "begin",
            Kind::SpanEnd => "end",
            Kind::Complete => "complete",
            Kind::Counter => "counter",
            Kind::Instant => "instant",
        }
    }
}

/// One recorded event. Fixed-size and `Copy`: emission never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global emission sequence number (total order across threads).
    pub seq: u64,
    /// Timeline the timestamp belongs to.
    pub clock: Clock,
    /// Event kind.
    pub kind: Kind,
    /// Static event name (e.g. `"flusim.task"`).
    pub name: &'static str,
    /// Logical lane: FLUSIM process, runtime worker, or uncoarsening level.
    pub track: u32,
    /// Timestamp in the clock's unit.
    pub t: u64,
    /// `Complete`: duration; `Counter`: value; otherwise auxiliary.
    pub val: u64,
    /// First argument (e.g. task id).
    pub a: u64,
    /// Second argument (e.g. subiteration).
    pub b: u64,
}

impl Event {
    /// End time of a [`Kind::Complete`] event (`t + val`).
    pub fn end(&self) -> u64 {
        self.t + self.val
    }
}

/// Number of fixed histogram buckets (power-of-two value ranges).
pub const HIST_BUCKETS: usize = 16;

/// A named fixed-bucket histogram snapshot: bucket `i` counts samples with
/// `value >> 2i == 0` … i.e. bucket boundaries at `4^i` (last bucket is
/// open-ended).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Histogram name.
    pub name: &'static str,
    /// Per-bucket sample counts.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total of all recorded values (for means).
    pub sum: u64,
}

impl Histogram {
    /// Bucket index for a sample value: `min(log4(value), 15)`.
    pub fn bucket_of(value: u64) -> usize {
        let bits = 64 - value.leading_zeros() as usize; // 0 for value == 0
        (bits / 2).min(HIST_BUCKETS - 1)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// A drained event stream: everything [`Recorder::take`] collected.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in global sequence order.
    pub events: Vec<Event>,
    /// Events lost to full per-thread buffers.
    pub dropped: u64,
    /// Histogram snapshots at drain time.
    pub histograms: Vec<Histogram>,
}

impl Trace {
    /// Events with the given name, in sequence order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Value of the last `Counter` event with this name (and any track).
    pub fn last_counter(&self, name: &str) -> Option<u64> {
        self.named(name)
            .filter(|e| e.kind == Kind::Counter)
            .last()
            .map(|e| e.val)
    }

    /// Sum of all `Counter` events with this name across tracks.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.named(name)
            .filter(|e| e.kind == Kind::Counter)
            .map(|e| e.val)
            .sum()
    }
}

/// One thread's bounded event buffer.
struct Sink {
    buf: Mutex<Vec<Event>>,
}

struct Shared {
    id: u64,
    enabled: AtomicBool,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    t0: Instant,
    sinks: Mutex<Vec<Arc<Sink>>>,
    hists: Mutex<Vec<Histogram>>,
}

/// One entry of the per-thread sink cache: `(recorder id, liveness probe,
/// sink)`.
type CachedSink = (u64, Weak<Shared>, Arc<Sink>);

thread_local! {
    /// Per-thread sink cache.
    static TLS_SINKS: RefCell<Vec<CachedSink>> = const { RefCell::new(Vec::new()) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static OFF: OnceLock<Recorder> = OnceLock::new();

/// The structured-event recorder handle. Cheap to clone (an `Arc`), safe to
/// share across threads; see the crate docs for the disabled-path contract.
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::off().clone()
    }
}

impl Recorder {
    /// An enabled recorder whose per-thread buffers hold up to `capacity`
    /// events each.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            shared: Arc::new(Shared {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                enabled: AtomicBool::new(true),
                capacity,
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                t0: Instant::now(),
                sinks: Mutex::new(Vec::new()),
                hists: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The process-wide disabled recorder: every emission is a single
    /// relaxed load and a branch. Use this as the default argument of
    /// `_traced` API variants.
    pub fn off() -> &'static Recorder {
        OFF.get_or_init(|| {
            let r = Recorder::new(0);
            r.shared.enabled.store(false, Ordering::Relaxed);
            r
        })
    }

    /// Whether events are currently being recorded (one relaxed load).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this recorder was created (its wall-clock origin).
    pub fn now_ns(&self) -> u64 {
        self.shared.t0.elapsed().as_nanos() as u64
    }

    /// Current global sequence watermark: events emitted from now on have
    /// `seq >=` this value. Pair with [`Recorder::events_since`].
    pub fn seq_watermark(&self) -> u64 {
        self.shared.seq.load(Ordering::Relaxed)
    }

    fn sink(&self) -> Arc<Sink> {
        let shared = &self.shared;
        TLS_SINKS.with(|cell| {
            let mut cache = cell.borrow_mut();
            if let Some((_, _, sink)) = cache.iter().find(|(id, _, _)| *id == shared.id) {
                return Arc::clone(sink);
            }
            // Miss: prune sinks of dropped recorders, then register a new
            // bounded buffer for this (recorder, thread) pair. This is the
            // only allocating path of an enabled recorder; it runs once per
            // thread, on the thread's first event.
            cache.retain(|(_, weak, _)| weak.strong_count() > 0);
            let sink = Arc::new(Sink {
                buf: Mutex::new(Vec::with_capacity(shared.capacity)),
            });
            shared
                .sinks
                .lock()
                .expect("obs sink registry poisoned")
                .push(Arc::clone(&sink));
            cache.push((shared.id, Arc::downgrade(shared), Arc::clone(&sink)));
            sink
        })
    }

    /// Core emission: returns immediately when disabled.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn emit(
        &self,
        clock: Clock,
        kind: Kind,
        name: &'static str,
        track: u32,
        t: u64,
        val: u64,
        a: u64,
        b: u64,
    ) {
        if !self.enabled() {
            return;
        }
        self.emit_slow(clock, kind, name, track, t, val, a, b);
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn emit_slow(
        &self,
        clock: Clock,
        kind: Kind,
        name: &'static str,
        track: u32,
        t: u64,
        val: u64,
        a: u64,
        b: u64,
    ) {
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let sink = self.sink();
        let mut buf = sink.buf.lock().expect("obs sink poisoned");
        if buf.len() < self.shared.capacity {
            buf.push(Event {
                seq,
                clock,
                kind,
                name,
                track,
                t,
                val,
                a,
                b,
            });
        } else {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Opens a wall-clock span; the returned guard emits the matching end
    /// event when dropped. Disabled recorders return an inert guard without
    /// reading the clock.
    #[inline]
    pub fn span(&self, name: &'static str, track: u32, a: u64) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                rec: self,
                name,
                track,
                armed: false,
            };
        }
        let t = self.now_ns();
        self.emit(Clock::Wall, Kind::SpanBegin, name, track, t, 0, a, 0);
        SpanGuard {
            rec: self,
            name,
            track,
            armed: true,
        }
    }

    /// Explicit-timestamp span open (virtual-time spans).
    #[inline]
    pub fn begin_at(&self, clock: Clock, name: &'static str, track: u32, t: u64, a: u64, b: u64) {
        self.emit(clock, Kind::SpanBegin, name, track, t, 0, a, b);
    }

    /// Explicit-timestamp span close.
    #[inline]
    pub fn end_at(&self, clock: Clock, name: &'static str, track: u32, t: u64) {
        self.emit(clock, Kind::SpanEnd, name, track, t, 0, 0, 0);
    }

    /// A complete span with explicit start and duration.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn complete_at(
        &self,
        clock: Clock,
        name: &'static str,
        track: u32,
        t: u64,
        dur: u64,
        a: u64,
        b: u64,
    ) {
        self.emit(clock, Kind::Complete, name, track, t, dur, a, b);
    }

    /// A counter sample stamped with the wall clock (skipped when disabled
    /// without reading the clock).
    #[inline]
    pub fn counter(&self, name: &'static str, track: u32, value: u64) {
        if !self.enabled() {
            return;
        }
        let t = self.now_ns();
        self.emit(Clock::Wall, Kind::Counter, name, track, t, value, 0, 0);
    }

    /// A counter sample with an explicit timestamp.
    #[inline]
    pub fn counter_at(&self, clock: Clock, name: &'static str, track: u32, t: u64, value: u64) {
        self.emit(clock, Kind::Counter, name, track, t, value, 0, 0);
    }

    /// A counter sample with explicit timestamp and arguments (e.g.
    /// per-subiteration series: `a` = subiteration).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn counter_args_at(
        &self,
        clock: Clock,
        name: &'static str,
        track: u32,
        t: u64,
        value: u64,
        a: u64,
        b: u64,
    ) {
        self.emit(clock, Kind::Counter, name, track, t, value, a, b);
    }

    /// Records `value` into the named fixed-bucket histogram.
    pub fn hist(&self, name: &'static str, value: u64) {
        if !self.enabled() {
            return;
        }
        let mut hists = self.shared.hists.lock().expect("obs hists poisoned");
        let h = match hists.iter_mut().find(|h| h.name == name) {
            Some(h) => h,
            None => {
                hists.push(Histogram {
                    name,
                    buckets: [0; HIST_BUCKETS],
                    sum: 0,
                });
                hists.last_mut().unwrap()
            }
        };
        h.buckets[Histogram::bucket_of(value)] += 1;
        h.sum += value;
    }

    /// Drains every thread's buffer into a [`Trace`] ordered by sequence
    /// number. Buffers keep their capacity, so recording can continue
    /// allocation-free afterwards.
    pub fn take(&self) -> Trace {
        let mut events = Vec::new();
        for sink in self
            .shared
            .sinks
            .lock()
            .expect("obs sink registry poisoned")
            .iter()
        {
            let mut buf = sink.buf.lock().expect("obs sink poisoned");
            events.append(&mut buf);
        }
        events.sort_unstable_by_key(|e| e.seq);
        let histograms = self
            .shared
            .hists
            .lock()
            .expect("obs hists poisoned")
            .clone();
        Trace {
            events,
            dropped: self.shared.dropped.swap(0, Ordering::Relaxed),
            histograms,
        }
    }

    /// Copies (without draining) every event with `seq >= watermark`,
    /// ordered by sequence number — the "thin view" hook: derived trace
    /// types ([`WallSegment`-style views]) are built from these snapshots.
    pub fn events_since(&self, watermark: u64) -> Vec<Event> {
        let mut events = Vec::new();
        for sink in self
            .shared
            .sinks
            .lock()
            .expect("obs sink registry poisoned")
            .iter()
        {
            let buf = sink.buf.lock().expect("obs sink poisoned");
            events.extend(buf.iter().copied().filter(|e| e.seq >= watermark));
        }
        events.sort_unstable_by_key(|e| e.seq);
        events
    }

    /// Number of events lost to full buffers since the last [`take`].
    ///
    /// [`take`]: Recorder::take
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Re-emits every event of `trace` into this recorder, assigning fresh
    /// global sequence numbers in the trace's own order — the *stable
    /// sequence re-keying* merge. Parallel sweeps record into isolated
    /// recorders (one per job, so cross-thread interleaving never mixes two
    /// jobs' streams), then the driver absorbs each job's drained trace in a
    /// fixed job order: the merged stream is a pure function of the job
    /// results, independent of which worker ran what when.
    ///
    /// Timestamps are preserved verbatim (each absorbed stream keeps its own
    /// clock origin); histograms are merged bucket-wise by name, and the
    /// donor's dropped count is carried over so overflow is never silently
    /// lost. No-op when this recorder is disabled.
    pub fn absorb(&self, trace: &Trace) {
        if !self.enabled() {
            return;
        }
        for e in &trace.events {
            self.emit(e.clock, e.kind, e.name, e.track, e.t, e.val, e.a, e.b);
        }
        if !trace.histograms.is_empty() {
            let mut hists = self.shared.hists.lock().expect("obs hists poisoned");
            for donor in &trace.histograms {
                match hists.iter_mut().find(|h| h.name == donor.name) {
                    Some(h) => {
                        for (dst, src) in h.buckets.iter_mut().zip(&donor.buckets) {
                            *dst += src;
                        }
                        h.sum += donor.sum;
                    }
                    None => hists.push(donor.clone()),
                }
            }
        }
        if trace.dropped > 0 {
            self.shared
                .dropped
                .fetch_add(trace.dropped, Ordering::Relaxed);
        }
    }
}

/// RAII guard for a wall-clock span opened with [`Recorder::span`].
pub struct SpanGuard<'r> {
    rec: &'r Recorder,
    name: &'static str,
    track: u32,
    armed: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let t = self.rec.now_ns();
            self.rec.emit(
                Clock::Wall,
                Kind::SpanEnd,
                self.name,
                self.track,
                t,
                0,
                0,
                0,
            );
        }
    }
}

/// Opens a wall-clock span on a recorder:
/// `span!(rec, "coarsen")`, `span!(rec, "refine", track = level)`,
/// `span!(rec, "bisect", track = 0, arg = nvtx as u64)`.
/// Bind the result to a named variable (`let _span = span!(…)`) so the span
/// closes at scope exit.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr) => {
        $rec.span($name, 0, 0)
    };
    ($rec:expr, $name:expr, track = $track:expr) => {
        $rec.span($name, $track, 0)
    };
    ($rec:expr, $name:expr, track = $track:expr, arg = $a:expr) => {
        $rec.span($name, $track, $a)
    };
}

/// FNV-1a over a byte slice — the fingerprint primitive used by the golden
/// trace tests (stable across platforms and runs).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::off();
        rec.emit(Clock::Virtual, Kind::Counter, "x", 0, 1, 2, 3, 4);
        rec.counter("y", 0, 1);
        rec.hist("h", 9);
        let _g = rec.span("s", 0, 0);
        drop(_g);
        let t = rec.take();
        assert!(t.events.is_empty());
        assert!(t.histograms.is_empty());
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn absorb_rekeys_sequences_in_trace_order() {
        // Two isolated donors, absorbed in a fixed order: the merged stream
        // must list donor A's events before donor B's, with fresh strictly
        // increasing sequence numbers, regardless of the donors' own seqs.
        let a = Recorder::new(16);
        let b = Recorder::new(16);
        b.counter_at(Clock::Virtual, "b.first", 0, 5, 50); // b emits first…
        a.counter_at(Clock::Virtual, "a.first", 0, 1, 10);
        a.complete_at(Clock::Virtual, "a.span", 1, 2, 3, 7, 8);
        a.hist("h", 3);
        b.hist("h", 300);
        let parent = Recorder::new(64);
        parent.counter_at(Clock::Virtual, "parent.pre", 0, 0, 1);
        parent.absorb(&a.take()); // …but A is absorbed first.
        parent.absorb(&b.take());
        let t = parent.take();
        let names: Vec<&str> = t.events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["parent.pre", "a.first", "a.span", "b.first"]);
        for w in t.events.windows(2) {
            assert!(w[0].seq < w[1].seq, "re-keyed seqs must increase");
        }
        // Timestamps and payloads are preserved verbatim.
        let span = t.events.iter().find(|e| e.name == "a.span").unwrap();
        assert_eq!((span.t, span.val, span.a, span.b), (2, 3, 7, 8));
        // Histograms merged bucket-wise by name.
        let h = t.histograms.iter().find(|h| h.name == "h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum, 303);
    }

    #[test]
    fn absorb_carries_dropped_and_respects_disabled() {
        let donor = Recorder::new(1);
        donor.counter_at(Clock::Virtual, "kept", 0, 0, 1);
        donor.counter_at(Clock::Virtual, "lost", 0, 1, 2); // overflows
        let trace = donor.take();
        assert_eq!(trace.dropped, 1);
        let parent = Recorder::new(8);
        parent.absorb(&trace);
        let merged = parent.take();
        assert_eq!(merged.events.len(), 1);
        assert_eq!(merged.dropped, 1, "donor overflow carried over");
        Recorder::off().absorb(&trace); // no-op, no panic
        assert!(Recorder::off().take().events.is_empty());
    }

    #[test]
    fn events_ordered_by_seq_and_named_lookup() {
        let rec = Recorder::new(64);
        rec.complete_at(Clock::Virtual, "task", 0, 0, 5, 1, 0);
        rec.complete_at(Clock::Virtual, "task", 1, 2, 3, 2, 1);
        rec.counter_at(Clock::Virtual, "busy", 0, 5, 5);
        let t = rec.take();
        assert_eq!(t.events.len(), 3);
        assert!(t.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(t.named("task").count(), 2);
        assert_eq!(t.last_counter("busy"), Some(5));
        // Drained: a second take is empty.
        assert!(rec.take().events.is_empty());
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let rec = Recorder::new(2);
        for i in 0..5 {
            rec.counter_at(Clock::Virtual, "c", 0, i, i);
        }
        let t = rec.take();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn span_guard_emits_begin_end_pair() {
        let rec = Recorder::new(16);
        {
            let _s = span!(&rec, "phase", track = 3, arg = 7);
            rec.counter("inner", 3, 1);
        }
        let t = rec.take();
        assert_eq!(t.events[0].kind, Kind::SpanBegin);
        assert_eq!(t.events[0].a, 7);
        assert_eq!(t.events[2].kind, Kind::SpanEnd);
        assert!(t.events[2].t >= t.events[0].t);
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 1);
        assert_eq!(Histogram::bucket_of(16), 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let rec = Recorder::new(4);
        rec.hist("h", 1);
        rec.hist("h", 5);
        rec.hist("h", 5);
        let t = rec.take();
        assert_eq!(t.histograms.len(), 1);
        assert_eq!(t.histograms[0].count(), 3);
        assert_eq!(t.histograms[0].sum, 11);
    }

    #[test]
    fn cross_thread_events_merge() {
        let rec = Recorder::new(64);
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let rec = rec.clone();
                s.spawn(move || {
                    rec.counter_at(Clock::Wall, "w", w, 0, u64::from(w));
                });
            }
        });
        let t = rec.take();
        assert_eq!(t.named("w").count(), 4);
    }

    #[test]
    fn events_since_watermark_snapshots_without_draining() {
        let rec = Recorder::new(16);
        rec.counter_at(Clock::Virtual, "a", 0, 0, 1);
        let mark = rec.seq_watermark();
        rec.counter_at(Clock::Virtual, "b", 0, 1, 2);
        let since = rec.events_since(mark);
        assert_eq!(since.len(), 1);
        assert_eq!(since[0].name, "b");
        assert_eq!(rec.take().events.len(), 2, "snapshot must not drain");
    }

    #[test]
    fn fnv_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
