//! The structured event data model: levels, field values and events.
//!
//! Everything the tracing layer emits is an [`Event`]: ordinary
//! point-in-time events plus the enter/exit markers of spans. Events are
//! plain data — they serialize through the workspace `serde` (for the
//! JSONL sink and flight-recorder dumps) and compare with `==` (for the
//! capture sink used by tests).
//!
//! Event text that is fixed at the call site — the target module, the
//! event and span names, the field keys — is `Cow<'static, str>`: the
//! dispatcher borrows the `'static` literals the macros pass, so
//! emitting an event copies no text. Decoded events own their text;
//! both forms serialize identically and compare equal.
//!
//! Determinism: an event's identity is its monotonically increasing
//! sequence number within the installed telemetry context, assigned in
//! emission order. Nothing here reads a wall clock — callers that want a
//! time axis attach an explicit simulated-time field (idiomatically
//! `sim_ms`), so recorded traces are bit-identical across runs.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Severity of an event, ordered `Trace < Debug < Info < Warn < Error`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Level {
    /// Highest-volume diagnostics (per-control-step, per-word).
    Trace,
    /// Detailed diagnostics (per-write, per-burst).
    Debug,
    /// Normal operational events (per-run, per-decision).
    #[default]
    Info,
    /// Something went wrong but the machinery recovered or will retry.
    Warn,
    /// A terminal or post-mortem-worthy condition (quarantine, escalation).
    Error,
}

impl Level {
    /// Fixed-width uppercase label for pretty output.
    pub fn label(self) -> &'static str {
        match self {
            Level::Trace => "TRACE",
            Level::Debug => "DEBUG",
            Level::Info => "INFO ",
            Level::Warn => "WARN ",
            Level::Error => "ERROR",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label().trim_end())
    }
}

/// One typed key/value payload attached to an event or span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (counts, indices, millivolts…).
    U64(u64),
    /// Signed integer (margins, deltas).
    I64(i64),
    /// Floating point (temperatures, probabilities, durations).
    F64(f64),
    /// Free-form text (benchmark names, outcome labels).
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::U64(u64::from(v))
            }
        }
    )*};
}
from_unsigned!(u8, u16, u32, u64);

macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::I64(i64::from(v))
            }
        }
    )*};
}
from_signed!(i8, i16, i32, i64);

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(f64::from(v))
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<&String> for FieldValue {
    fn from(v: &String) -> Self {
        FieldValue::Str(v.clone())
    }
}

/// What kind of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A point-in-time event.
    Event,
    /// A span was entered; the span's name is the event name.
    SpanEnter,
    /// A span was exited.
    SpanExit,
}

/// One structured telemetry record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Monotonic sequence number within the telemetry context (emission
    /// order; the deterministic time axis of a trace).
    pub seq: u64,
    /// Record kind.
    pub kind: EventKind,
    /// Severity.
    pub level: Level,
    /// Module path of the emitting code (`module_path!()` at the call
    /// site).
    pub target: Cow<'static, str>,
    /// Event name (or span name for enter/exit records).
    pub name: Cow<'static, str>,
    /// Names of the enclosing spans, outermost first. For span enter/exit
    /// records this is the path *around* the span, not including it.
    pub span_path: Vec<Cow<'static, str>>,
    /// Typed key/value payload, in emission order.
    pub fields: Vec<(Cow<'static, str>, FieldValue)>,
}

impl Event {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// One-line human rendering, indented by span depth.
    pub fn render(&self) -> String {
        let indent = "  ".repeat(self.span_path.len());
        let marker = match self.kind {
            EventKind::Event => "",
            EventKind::SpanEnter => "-> ",
            EventKind::SpanExit => "<- ",
        };
        let mut line = format!(
            "[{:>6}] {} {}{}{}",
            self.seq,
            self.level.label(),
            indent,
            marker,
            self.name
        );
        for (k, v) in &self.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        line.push_str(&format!("  ({})", self.target));
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
    }

    #[test]
    fn field_values_convert_from_primitives() {
        assert_eq!(FieldValue::from(7u32), FieldValue::U64(7));
        assert_eq!(FieldValue::from(-3i32), FieldValue::I64(-3));
        assert_eq!(FieldValue::from(1.5f64), FieldValue::F64(1.5));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
        assert_eq!(FieldValue::from(9usize), FieldValue::U64(9));
    }

    #[test]
    fn event_roundtrips_through_json() {
        let e = Event {
            seq: 42,
            kind: EventKind::Event,
            level: Level::Warn,
            target: "char_fw::runner".into(),
            name: "retry".into(),
            span_path: vec!["campaign".into(), "setup".into()],
            fields: vec![
                ("attempt".into(), FieldValue::U64(2)),
                ("backoff_ms".into(), FieldValue::U64(1000)),
            ],
        };
        let text = serde::json::to_string(&e);
        let back: Event = serde::json::from_str(&text).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn render_indents_by_span_depth_and_shows_fields() {
        let e = Event {
            seq: 3,
            kind: EventKind::Event,
            level: Level::Info,
            target: "t".into(),
            name: "run_complete".into(),
            span_path: vec!["campaign".into()],
            fields: vec![("outcome".into(), FieldValue::Str("crash".into()))],
        };
        let line = e.render();
        assert!(line.contains("  run_complete outcome=crash"), "{line}");
        assert!(e.field("outcome").is_some());
        assert!(e.field("missing").is_none());
    }
}
