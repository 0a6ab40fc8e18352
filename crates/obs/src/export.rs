//! Trace exporters: Chrome-trace JSON (`chrome://tracing` / Perfetto) and
//! line-delimited JSON for scripting.
//!
//! Both exporters write fields in a **fixed order** with no whitespace
//! variability, so deterministic event streams serialise to byte-identical
//! strings — the property the golden fingerprint tests pin.

use crate::{Clock, Event, Kind, Trace};

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Chrome-trace timestamp: wall events are nanoseconds rendered as
/// microseconds with three decimals; virtual events are raw cost units.
fn ts(e: &Event, t: u64) -> String {
    match e.clock {
        Clock::Wall => format!("{}.{:03}", t / 1000, t % 1000),
        Clock::Virtual => format!("{t}"),
    }
}

/// Chrome `pid` lane for a clock domain: the two timelines never mix.
pub fn pid_of(clock: Clock) -> u32 {
    match clock {
        Clock::Wall => 0,
        Clock::Virtual => 1,
    }
}

/// Writes one Chrome-trace event; `seq` is its number within its clock
/// domain ([`chrome_trace_filtered`]).
fn push_event(out: &mut String, e: &Event, seq: u64) {
    out.push_str("{\"name\":\"");
    out.push_str(&escape_json(e.name));
    out.push_str("\",\"ph\":\"");
    out.push_str(e.kind.phase());
    out.push_str("\",\"pid\":");
    out.push_str(&pid_of(e.clock).to_string());
    out.push_str(",\"tid\":");
    out.push_str(&e.track.to_string());
    out.push_str(",\"ts\":");
    out.push_str(&ts(e, e.t));
    match e.kind {
        Kind::Complete => {
            out.push_str(",\"dur\":");
            out.push_str(&ts(e, e.val));
            out.push_str(&format!(
                ",\"args\":{{\"a\":{},\"b\":{},\"seq\":{seq}}}",
                e.a, e.b
            ));
        }
        Kind::Counter => {
            out.push_str(&format!(",\"args\":{{\"value\":{}}}", e.val));
        }
        Kind::SpanBegin | Kind::Instant => {
            out.push_str(&format!(
                ",\"args\":{{\"a\":{},\"b\":{},\"seq\":{seq}}}",
                e.a, e.b
            ));
        }
        Kind::SpanEnd => {}
    }
    out.push('}');
}

/// Serialises a trace to Chrome-trace JSON (the object form, with a
/// `traceEvents` array). Load the output in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn chrome_trace(trace: &Trace) -> String {
    chrome_trace_filtered(trace, None)
}

/// Like [`chrome_trace`], keeping only events of one clock domain when
/// `clock` is `Some` — e.g. `Some(Clock::Virtual)` exports the
/// deterministic simulated timeline only, which is what the golden
/// fingerprint tests pin.
///
/// An event's `seq` argument is its position among the events of its own
/// clock domain, not the recorder's global sequence number, so a wall span
/// recorded between two virtual events leaves the virtual timeline's export
/// byte-identical.
pub fn chrome_trace_filtered(trace: &Trace, clock: Option<Clock>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut next_seq = [0u64; 2];
    for e in &trace.events {
        let seq = &mut next_seq[pid_of(e.clock) as usize];
        *seq += 1;
        if clock.is_some_and(|c| e.clock != c) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        push_event(&mut out, e, *seq - 1);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":");
    out.push_str(&trace.dropped.to_string());
    out.push_str("}}");
    out
}

/// Serialises a trace to line-delimited JSON: one meta line, one line per
/// event, then one line per histogram. Friendly to `jq`/`grep` pipelines.
pub fn ndjson(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"events\":{},\"dropped\":{}}}\n",
        trace.events.len(),
        trace.dropped
    ));
    for e in &trace.events {
        out.push_str(&format!(
            "{{\"type\":\"event\",\"seq\":{},\"clock\":\"{}\",\"kind\":\"{}\",\
             \"name\":\"{}\",\"track\":{},\"t\":{},\"val\":{},\"a\":{},\"b\":{}}}\n",
            e.seq,
            e.clock.label(),
            e.kind.label(),
            escape_json(e.name),
            e.track,
            e.t,
            e.val,
            e.a,
            e.b
        ));
    }
    for h in &trace.histograms {
        out.push_str(&format!(
            "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[",
            escape_json(h.name),
            h.count(),
            h.sum
        ));
        for (i, b) in h.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&b.to_string());
        }
        out.push_str("]}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample() -> Trace {
        let rec = Recorder::new(32);
        rec.begin_at(Clock::Virtual, "run", 0, 0, 0, 0);
        rec.complete_at(Clock::Virtual, "task", 2, 5, 7, 11, 1);
        rec.counter_at(Clock::Virtual, "busy", 2, 12, 7);
        rec.end_at(Clock::Virtual, "run", 0, 12);
        rec.complete_at(Clock::Wall, "exec", 1, 1500, 2500, 3, 0);
        rec.hist("gain", 5);
        rec.take()
    }

    #[test]
    fn chrome_trace_shape_and_field_order() {
        let s = chrome_trace(&sample());
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.contains(
            "{\"name\":\"task\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":5,\
             \"dur\":7,\"args\":{\"a\":11,\"b\":1,\"seq\":1}}"
        ));
        assert!(s.contains("\"ts\":1.500,\"dur\":2.500"), "{s}");
        assert!(s.contains("\"args\":{\"value\":7}"));
        assert!(s.ends_with("\"otherData\":{\"dropped\":0}}"));
    }

    #[test]
    fn filtered_export_drops_other_domain() {
        let t = sample();
        let s = chrome_trace_filtered(&t, Some(Clock::Virtual));
        assert!(!s.contains("\"exec\""));
        assert!(s.contains("\"task\""));
        let w = chrome_trace_filtered(&t, Some(Clock::Wall));
        assert!(w.contains("\"exec\""));
        assert!(!w.contains("\"task\""));
    }

    #[test]
    fn ndjson_lines() {
        let s = ndjson(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 1 + 5 + 1, "meta + events + hist");
        assert_eq!(lines[0], "{\"type\":\"meta\",\"events\":5,\"dropped\":0}");
        assert!(lines[2].contains("\"kind\":\"complete\""));
        assert!(lines[6].starts_with("{\"type\":\"hist\",\"name\":\"gain\""));
    }

    #[test]
    fn a_wall_span_leaves_the_virtual_export_byte_identical() {
        let record = |wall_span: bool| {
            let rec = Recorder::new(32);
            if wall_span {
                let _span = rec.span("tg.domains", 0, 16);
            }
            rec.begin_at(Clock::Virtual, "run", 0, 0, 0, 0);
            rec.complete_at(Clock::Virtual, "task", 2, 5, 7, 11, 1);
            if wall_span {
                rec.complete_at(Clock::Wall, "exec", 1, 1500, 2500, 3, 0);
            }
            rec.counter_at(Clock::Virtual, "busy", 2, 9, 4);
            rec.end_at(Clock::Virtual, "run", 0, 12);
            rec.take()
        };
        let (plain, spanned) = (record(false), record(true));
        assert_eq!(spanned.events.len(), plain.events.len() + 3);
        let virtual_export = |t: &Trace| chrome_trace_filtered(t, Some(Clock::Virtual));
        assert_eq!(virtual_export(&spanned), virtual_export(&plain));
        // The wall lane numbers its own events from zero too.
        let wall = chrome_trace_filtered(&spanned, Some(Clock::Wall));
        assert!(
            wall.contains("\"name\":\"tg.domains\",\"ph\":\"B\""),
            "{wall}"
        );
        assert!(wall.contains("\"b\":0,\"seq\":0}"), "{wall}");
        assert!(wall.contains("\"b\":0,\"seq\":2}}"), "{wall}");
    }

    #[test]
    fn deterministic_serialisation() {
        // Virtual-domain export of the same event stream is byte-identical.
        let mk = || {
            let rec = Recorder::new(8);
            rec.complete_at(Clock::Virtual, "t", 0, 0, 3, 1, 2);
            chrome_trace_filtered(&rec.take(), Some(Clock::Virtual))
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn escaping() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
