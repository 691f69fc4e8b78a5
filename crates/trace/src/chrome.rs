//! Chrome `trace_event` JSON export (perfetto/`chrome://tracing`).
//!
//! Emits the stable subset of the trace-event format: duration events
//! (`ph: "B"`/`"E"`), instants (`"i"`) and counters (`"C"`), one `tid`
//! per track, timestamps in virtual cycles (the format nominally wants
//! microseconds; cycles render fine and keep the export deterministic).

use crate::event::{ClassKey, ClassNames, Event, EventKind};

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a drained event stream as a complete Chrome `trace_event`
/// JSON document. Deterministic: same events, same bytes.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut names = ClassNames::new();
    for e in events {
        let name = escape_json(&names.get(ClassKey::of(e)));
        let cat = if e.kind.is_lock() {
            "lock"
        } else if e.kind.is_ctx() {
            "request"
        } else {
            "span"
        };
        let common = format!(
            "\"name\":\"{name}\",\"cat\":\"{cat}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            e.ts, e.track
        );
        let body = match e.kind {
            EventKind::SpanBegin => format!("{{{common},\"ph\":\"B\"}}"),
            EventKind::LockBegin => {
                format!(
                    "{{{common},\"ph\":\"B\",\"args\":{{\"wait_spins\":{}}}}}",
                    e.arg
                )
            }
            EventKind::SpanEnd | EventKind::LockEnd => format!("{{{common},\"ph\":\"E\"}}"),
            // Request contexts render as async events keyed by the
            // request id, so perfetto groups one request's spans across
            // whichever tracks it touched.
            EventKind::CtxBegin => {
                format!("{{{common},\"ph\":\"b\",\"id\":\"{:#x}\"}}", e.arg)
            }
            EventKind::CtxEnd => {
                format!("{{{common},\"ph\":\"e\",\"id\":\"{:#x}\"}}", e.arg)
            }
            EventKind::Instant => format!("{{{common},\"ph\":\"i\",\"s\":\"t\"}}"),
            EventKind::Counter => {
                format!(
                    "{{{common},\"ph\":\"C\",\"args\":{{\"value\":{}}}}}",
                    e.arg as i64
                )
            }
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&body);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern;

    fn ev(ts: u64, kind: EventKind, class: u32, arg: u64) -> Event {
        Event {
            ts,
            arg,
            class,
            site: 0,
            track: 2,
            kind,
        }
    }

    #[test]
    fn emits_balanced_duration_events() {
        let c = intern::intern_span("test.chrome.span");
        let json = chrome_trace_json(&[
            ev(1, EventKind::SpanBegin, c, 0),
            ev(5, EventKind::SpanEnd, c, 0),
        ]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"test.chrome.span\""));
        assert!(json.contains("\"tid\":2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn counter_arg_round_trips_negative_deltas() {
        let c = intern::intern_span("test.chrome.counter");
        let json = chrome_trace_json(&[ev(0, EventKind::Counter, c, (-4i64) as u64)]);
        assert!(json.contains("\"value\":-4"), "{json}");
    }

    #[test]
    fn names_are_escaped() {
        let c = intern::intern_span("test.chrome.\"quoted\"");
        let json = chrome_trace_json(&[ev(0, EventKind::Instant, c, 0)]);
        assert!(json.contains("test.chrome.\\\"quoted\\\""));
    }

    #[test]
    fn ctx_events_become_async_pairs_keyed_by_request_id() {
        let c = intern::intern_span("test.chrome.request");
        let json = chrome_trace_json(&[
            ev(0, EventKind::CtxBegin, c, 0xbeef),
            ev(9, EventKind::CtxEnd, c, 0xbeef),
        ]);
        assert!(json.contains("\"ph\":\"b\""), "{json}");
        assert!(json.contains("\"ph\":\"e\""), "{json}");
        assert!(json.contains("\"id\":\"0xbeef\""), "{json}");
        assert!(json.contains("\"cat\":\"request\""), "{json}");
    }

    #[test]
    fn empty_stream_is_still_a_valid_document() {
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }
}
