//! Span arithmetic over a drained obs trace: self time = a span's duration
//! minus the part of it its child spans cover.
//!
//! The traced run does all recorded work on the driver thread, so wall-clock
//! `SpanBegin` / `SpanEnd` events in sequence order form one properly nested
//! stack whatever `track` (Chrome `tid`) each span was filed under.

use std::collections::BTreeMap;
use tempart_obs::{Clock, Event, Kind};

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Σ duration, nanoseconds.
    pub total_ns: u64,
    /// Σ duration not covered by child spans, nanoseconds.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Per-name span totals of a single-threaded wall-clock event stream.
///
/// # Errors
///
/// An `Err` names the first end event that does not close the innermost
/// open span, or a span left open at the end.
pub fn span_totals(events: &[Event]) -> Result<BTreeMap<&'static str, SpanTotals>, String> {
    // (name, track, begin timestamp, nanoseconds covered by children)
    let mut open: Vec<(&'static str, u32, u64, u64)> = Vec::new();
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for e in events.iter().filter(|e| e.clock == Clock::Wall) {
        match e.kind {
            Kind::SpanBegin => open.push((e.name, e.track, e.t, 0)),
            Kind::SpanEnd => {
                let (name, track, begin, covered) = open
                    .pop()
                    .ok_or_else(|| format!("end of {:?} with no open span", e.name))?;
                if (name, track) != (e.name, e.track) {
                    return Err(format!(
                        "end of {:?}/{} while {name:?}/{track} is innermost",
                        e.name, e.track
                    ));
                }
                let dur = e.t.saturating_sub(begin);
                let t = totals.entry(name).or_default();
                t.total_ns += dur;
                t.self_ns += dur.saturating_sub(covered);
                t.count += 1;
                if let Some(parent) = open.last_mut() {
                    parent.3 += dur;
                }
            }
            _ => {}
        }
    }
    match open.last() {
        Some((name, ..)) => Err(format!("span {name:?} never closed")),
        None => Ok(totals),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_obs::Recorder;

    fn ev(rec: &Recorder, kind: Kind, name: &'static str, track: u32, t: u64) {
        rec.emit(Clock::Wall, kind, name, track, t, 0, 0, 0);
    }

    #[test]
    fn self_time_subtracts_children_across_tracks() {
        let rec = Recorder::new(64);
        ev(&rec, Kind::SpanBegin, "outer", 0, 0);
        ev(&rec, Kind::SpanBegin, "inner", 3, 10);
        ev(&rec, Kind::SpanEnd, "inner", 3, 40);
        ev(&rec, Kind::SpanBegin, "inner", 2, 50);
        ev(&rec, Kind::SpanEnd, "inner", 2, 60);
        rec.counter("noise", 0, 5);
        ev(&rec, Kind::SpanEnd, "outer", 0, 100);
        let totals = span_totals(&rec.take().events).unwrap();
        assert_eq!(
            totals["outer"],
            SpanTotals {
                total_ns: 100,
                self_ns: 60,
                count: 1
            }
        );
        assert_eq!(
            totals["inner"],
            SpanTotals {
                total_ns: 40,
                self_ns: 40,
                count: 2
            }
        );
    }

    #[test]
    fn malformed_nesting_is_an_error() {
        let rec = Recorder::new(8);
        ev(&rec, Kind::SpanBegin, "a", 0, 0);
        ev(&rec, Kind::SpanEnd, "b", 0, 1);
        assert!(span_totals(&rec.take().events).is_err());
        let rec = Recorder::new(8);
        ev(&rec, Kind::SpanBegin, "a", 0, 0);
        assert!(span_totals(&rec.take().events).is_err());
    }
}
