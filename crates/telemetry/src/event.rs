//! The structured event data model: levels, field values and events.
//!
//! Everything the tracing layer emits is an [`Event`]: ordinary
//! point-in-time events plus the enter/exit markers of spans. Events are
//! plain data — they serialize through the workspace `serde` (for the
//! JSONL sink and flight-recorder dumps) and compare with `==` (for the
//! capture sink used by tests).
//!
//! A sink does not receive an `Event` but a borrowed [`Record`]: the
//! macros build each field as a [`Value`] that borrows the caller's data,
//! in a slice on the caller's stack, so dispatching copies nothing. Only
//! a sink that keeps a record turns it into an `Event`.
//!
//! Event text that is fixed at the call site — the target module, the
//! event and span names, the field keys — is `Cow<'static, str>`: a kept
//! record borrows the `'static` literals the macros pass, so it copies
//! no text but its field values. Decoded events own their text; both
//! forms serialize identically and compare equal.
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

// Owned values for events built by hand (`StreamBuilder::push` callers).
macro_rules! from_scalar {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                v.as_value().into()
            }
        }
    )*};
}
from_scalar!(u32, u64, bool, f64, &str);

impl From<Value<'_>> for FieldValue {
    fn from(v: Value<'_>) -> Self {
        match v {
            Value::Bool(v) => FieldValue::Bool(v),
            Value::U64(v) => FieldValue::U64(v),
            Value::I64(v) => FieldValue::I64(v),
            Value::F64(v) => FieldValue::F64(v),
            Value::Str(v) => FieldValue::Str(v.to_owned()),
        }
    }
}

/// A borrowed field value: what `event!`/`span!` hand the dispatcher.
///
/// Text borrows the caller's string for the duration of the dispatch, so
/// building a field allocates nothing; a sink that keeps the value turns
/// it into a [`FieldValue`] with `From`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Borrowed text.
    Str(&'a str),
}

/// Conversion of a field expression into a borrowed [`Value`]; the
/// macros call it on a reference to each field value.
pub trait AsValue {
    /// The value, borrowing any text from `self`.
    fn as_value(&self) -> Value<'_>;
}

macro_rules! as_value {
    ($variant:ident: $($t:ty),*) => {$(
        impl AsValue for $t {
            fn as_value(&self) -> Value<'_> {
                Value::$variant((*self).into())
            }
        }
    )*};
}
as_value!(U64: u8, u16, u32, u64);
as_value!(I64: i8, i16, i32, i64);
as_value!(F64: f32, f64);
as_value!(Bool: bool);

impl AsValue for usize {
    fn as_value(&self) -> Value<'_> {
        Value::U64(*self as u64)
    }
}

impl AsValue for str {
    fn as_value(&self) -> Value<'_> {
        Value::Str(self)
    }
}

impl AsValue for String {
    fn as_value(&self) -> Value<'_> {
        Value::Str(self)
    }
}

impl<T: AsValue + ?Sized> AsValue for &T {
    fn as_value(&self) -> Value<'_> {
        (**self).as_value()
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

/// A dispatched record, borrowed from the dispatcher for the duration of
/// one [`Sink::record`](crate::Sink::record) call.
///
/// It carries what an [`Event`] carries, but borrows everything: the
/// `'static` target, name, span names and keys of the call site, and the
/// caller's field values. A sink that keeps the record calls
/// [`Self::to_event`]; one that only inspects it copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// Monotonic sequence number within the telemetry context.
    pub seq: u64,
    /// Record kind.
    pub kind: EventKind,
    /// Severity.
    pub level: Level,
    /// Module path of the emitting code.
    pub target: &'static str,
    /// Event name (or span name for enter/exit records).
    pub name: &'static str,
    /// Names of the enclosing spans, outermost first (the path *around*
    /// a span for its enter/exit records).
    pub span_path: &'a [&'static str],
    /// Typed key/value payload, in emission order.
    pub fields: &'a [(&'static str, Value<'a>)],
}

impl Record<'_> {
    /// The owned [`Event`] this record stands for.
    pub fn to_event(&self) -> Event {
        Event {
            seq: self.seq,
            kind: self.kind,
            level: self.level,
            target: Cow::Borrowed(self.target),
            name: Cow::Borrowed(self.name),
            span_path: self.span_path.iter().map(|&s| Cow::Borrowed(s)).collect(),
            fields: self
                .fields
                .iter()
                .map(|&(k, v)| (Cow::Borrowed(k), v.into()))
                .collect(),
        }
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
        let owned = |v: &dyn AsValue| FieldValue::from(v.as_value());
        assert_eq!(owned(&7u32), FieldValue::U64(7));
        assert_eq!(owned(&-3i32), FieldValue::I64(-3));
        assert_eq!(owned(&1.5f64), FieldValue::F64(1.5));
        assert_eq!(owned(&true), FieldValue::Bool(true));
        assert_eq!(owned(&"x"), FieldValue::Str("x".into()));
        assert_eq!(owned(&String::from("y")), FieldValue::Str("y".into()));
        assert_eq!(owned(&9usize), FieldValue::U64(9));
    }

    #[test]
    fn a_record_becomes_the_event_it_borrows() {
        let label = String::from("milc");
        let record = Record {
            seq: 5,
            kind: EventKind::SpanEnter,
            level: Level::Debug,
            target: "char_fw::runner",
            name: "run",
            span_path: &["fleet", "campaign"],
            fields: &[
                ("benchmark", label.as_value()),
                ("repetition", 3u32.as_value()),
            ],
        };
        let event = Event {
            seq: 5,
            kind: EventKind::SpanEnter,
            level: Level::Debug,
            target: "char_fw::runner".into(),
            name: "run".into(),
            span_path: vec!["fleet".into(), "campaign".into()],
            fields: vec![
                ("benchmark".into(), FieldValue::Str("milc".into())),
                ("repetition".into(), FieldValue::U64(3)),
            ],
        };
        assert_eq!(record.to_event(), event);
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
