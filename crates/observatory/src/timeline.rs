//! The merged fleet timeline and its Chrome `trace_event` exporter.
//!
//! [`FleetTimeline::merge`] is a *pure function of the set of input
//! streams*: events are keyed by [`CausalKey`] and sorted under a total
//! order that tie-breaks equal keys on the full event payload, so any
//! permutation of the same streams — any worker count, any completion
//! interleaving — merges to byte-identical output.

use crate::stream::{BoardStream, CausalKey};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt::Write as _;
use telemetry::event::EventKind;
use telemetry::{Event, FieldValue};

/// One event pinned to its causal coordinate in the merged timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Where the event sits in the fleet-wide causal order.
    pub key: CausalKey,
    /// The event itself, exactly as captured.
    pub event: Event,
}

/// The fleet-wide merged timeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetTimeline {
    events: Vec<TimelineEvent>,
}

impl FleetTimeline {
    /// Merges per-board streams into one causally ordered timeline.
    ///
    /// The result is invariant under any permutation of `streams` and
    /// any partition of the same events into streams with the same
    /// `(epoch, board)` coordinates: the sort key is the causal key
    /// followed by a total order over the event payload (with `f64`
    /// fields compared via `total_cmp`), so there are no unstable ties.
    pub fn merge(streams: &[BoardStream]) -> Self {
        let mut events: Vec<TimelineEvent> = streams
            .iter()
            .flat_map(|stream| {
                stream.events.iter().map(|event| TimelineEvent {
                    key: stream.key_of(event),
                    event: event.clone(),
                })
            })
            .collect();
        events.sort_by(|a, b| {
            a.key
                .cmp(&b.key)
                .then_with(|| total_event_cmp(&a.event, &b.event))
        });
        FleetTimeline { events }
    }

    /// The merged events in causal order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Number of merged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Canonical JSON of the whole timeline — the byte-identity
    /// artifact compared across worker counts.
    pub fn chronicle_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Exports the timeline in Chrome `trace_event` JSON (the
    /// "JSON Array Format" with a `traceEvents` wrapper), loadable in
    /// `chrome://tracing` or Perfetto.
    ///
    /// Mapping: `pid` = board, `tid` = epoch, `ts` = the event's merged
    /// index (a deterministic pseudo-microsecond clock — the simulator
    /// has no wall time), span enter/exit become `B`/`E` duration
    /// events and point events become thread-scoped instants (`i`).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (index, te) in self.events.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let ph = match te.event.kind {
                EventKind::SpanEnter => "B",
                EventKind::SpanExit => "E",
                EventKind::Event => "i",
            };
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
                json_string(&te.event.name),
                ph,
                index,
                te.key.board,
                te.key.epoch
            );
            if te.event.kind == EventKind::Event {
                out.push_str(",\"s\":\"t\"");
            }
            let _ = write!(
                out,
                ",\"args\":{{\"level\":{},\"seq\":{}",
                json_string(te.event.level.label().trim_end()),
                te.key.seq
            );
            for (name, value) in &te.event.fields {
                let _ = write!(out, ",{}:{}", json_string(name), field_json(value));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// A total order over event payloads, used only to tie-break events
/// whose causal keys collide (e.g. two synthetic streams at the same
/// coordinate). Any total order works for determinism; this one is
/// roughly "most significant field first".
fn total_event_cmp(a: &Event, b: &Event) -> Ordering {
    kind_rank(a.kind)
        .cmp(&kind_rank(b.kind))
        .then_with(|| a.level.cmp(&b.level))
        .then_with(|| a.target.cmp(&b.target))
        .then_with(|| a.name.cmp(&b.name))
        .then_with(|| a.span_path.cmp(&b.span_path))
        .then_with(|| fields_cmp(&a.fields, &b.fields))
}

fn kind_rank(kind: EventKind) -> u8 {
    match kind {
        EventKind::SpanEnter => 0,
        EventKind::Event => 1,
        EventKind::SpanExit => 2,
    }
}

fn fields_cmp(
    a: &[(Cow<'static, str>, FieldValue)],
    b: &[(Cow<'static, str>, FieldValue)],
) -> Ordering {
    for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
        let ord = ka.cmp(kb).then_with(|| field_value_cmp(va, vb));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

fn field_value_cmp(a: &FieldValue, b: &FieldValue) -> Ordering {
    fn rank(v: &FieldValue) -> u8 {
        match v {
            FieldValue::Bool(_) => 0,
            FieldValue::U64(_) => 1,
            FieldValue::I64(_) => 2,
            FieldValue::F64(_) => 3,
            FieldValue::Str(_) => 4,
        }
    }
    match (a, b) {
        (FieldValue::Bool(x), FieldValue::Bool(y)) => x.cmp(y),
        (FieldValue::U64(x), FieldValue::U64(y)) => x.cmp(y),
        (FieldValue::I64(x), FieldValue::I64(y)) => x.cmp(y),
        (FieldValue::F64(x), FieldValue::F64(y)) => x.total_cmp(y),
        (FieldValue::Str(x), FieldValue::Str(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn field_json(value: &FieldValue) -> String {
    match value {
        FieldValue::Bool(b) => b.to_string(),
        FieldValue::U64(u) => u.to_string(),
        FieldValue::I64(i) => i.to_string(),
        FieldValue::F64(f) if f.is_finite() => format!("{f}"),
        FieldValue::F64(f) => json_string(&f.to_string()),
        FieldValue::Str(s) => json_string(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamBuilder;
    use telemetry::Level;

    fn sample_streams() -> Vec<BoardStream> {
        let mut b0 = StreamBuilder::synthetic(1, 0);
        b0.push(Level::Info, "alpha", vec![("v".into(), 1u64.into())]);
        b0.push(Level::Warn, "beta", vec![("v".into(), 2u64.into())]);
        let mut b1 = StreamBuilder::synthetic(0, 1);
        b1.push(Level::Info, "gamma", vec![("f".into(), 1.5f64.into())]);
        let mut coord = StreamBuilder::coordinator(1, 0);
        coord.push(Level::Warn, "evicted", vec![]);
        vec![b0.finish(), b1.finish(), coord.finish()]
    }

    #[test]
    fn merge_orders_by_causal_key() {
        let timeline = FleetTimeline::merge(&sample_streams());
        let names: Vec<&str> = timeline.events().iter().map(|te| &*te.event.name).collect();
        assert_eq!(names, vec!["gamma", "alpha", "beta", "evicted"]);
    }

    #[test]
    fn merge_is_permutation_invariant() {
        let streams = sample_streams();
        let forward = FleetTimeline::merge(&streams).chronicle_json();
        let mut reversed = streams;
        reversed.reverse();
        let backward = FleetTimeline::merge(&reversed).chronicle_json();
        assert_eq!(forward, backward);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let timeline = FleetTimeline::merge(&sample_streams());
        let trace = timeline.to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.ends_with("]}"));
        assert!(trace.contains("\"ph\":\"i\""));
        assert!(trace.contains("\"pid\":1"));
        assert!(trace.contains("\"f\":1.5"));
        // Quotes and backslashes in names must be escaped.
        let mut tricky = StreamBuilder::synthetic(0, 0);
        tricky.push(Level::Info, "quote\"back\\slash", vec![]);
        let trace = FleetTimeline::merge(&[tricky.finish()]).to_chrome_trace();
        assert!(trace.contains("quote\\\"back\\\\slash"));
    }
}
