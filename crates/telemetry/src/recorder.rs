//! The flight recorder: a bounded ring buffer of recent events, dumped
//! when a post-mortem-worthy event fires.
//!
//! The DSN'18 framework babysits boards for weeks; when a setup finally
//! crashes the board hard enough to be quarantined, what matters is the
//! *lead-up* — the V/F writes, retries and outcomes immediately before.
//! The recorder retains the last `capacity` events it saw and, when a
//! trigger event arrives (by default anything at [`Level::Error`], plus
//! any explicitly named events), snapshots the whole buffer into a
//! [`FlightDump`]. Dumps are deterministic: events appear in emission
//! (sequence) order, and nothing in them depends on wall time.
//!
//! The ring holds plain slots, not [`Event`]s. A slot keeps a record's
//! sequence number, kind and level, its `'static` target, name, span
//! names and keys, and its field values as scalars or as byte ranges into
//! a text buffer the slot owns. An index wraps around the slots, and a
//! new record overwrites the oldest slot in place, reusing its vectors
//! and text buffer: once every slot has held a record as wide as the new
//! one, recording allocates nothing. `Event`s are built only when a dump
//! is taken, oldest first.

use crate::event::{Event, EventKind, FieldValue, Level, Record, Value};
use crate::sink::Sink;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt::Write as _;

/// One post-mortem snapshot taken by the [`FlightRecorder`].
///
/// Serializable so campaign outcomes can carry their dumps across
/// worker boundaries and checkpoints (the observatory reconstructs
/// incidents from them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Sequence number of the event that triggered the dump.
    pub trigger_seq: u64,
    /// Name of the triggering event.
    pub trigger_name: String,
    /// The retained events in emission order; the triggering event is the
    /// last entry.
    pub events: Vec<Event>,
}

impl FlightDump {
    /// Multi-line human rendering of the dump.
    pub fn render(&self) -> String {
        let mut out = format!(
            "=== flight recorder dump: `{}` at seq {} ({} events retained) ===\n",
            self.trigger_name,
            self.trigger_seq,
            self.events.len()
        );
        for e in &self.events {
            let _ = writeln!(out, "{}", e.render());
        }
        out.push_str("=== end of dump ===\n");
        out
    }
}

/// A field value as a slot keeps it.
#[derive(Debug, Clone, Copy)]
enum SlotValue {
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    /// The value's byte range in the slot's `text`.
    Str(usize, usize),
}

/// One retained record in plain form.
#[derive(Debug)]
struct Slot {
    seq: u64,
    kind: EventKind,
    level: Level,
    target: &'static str,
    name: &'static str,
    span_path: Vec<&'static str>,
    fields: Vec<(&'static str, SlotValue)>,
    /// The text of every `Str` field, back to back.
    text: String,
}

impl Slot {
    fn new(record: &Record<'_>) -> Self {
        let mut slot = Slot {
            seq: 0,
            kind: record.kind,
            level: record.level,
            target: record.target,
            name: record.name,
            span_path: Vec::new(),
            fields: Vec::new(),
            text: String::new(),
        };
        slot.overwrite(record);
        slot
    }

    /// Copies `record` into this slot, reusing its vectors and text.
    fn overwrite(&mut self, record: &Record<'_>) {
        self.seq = record.seq;
        self.kind = record.kind;
        self.level = record.level;
        self.target = record.target;
        self.name = record.name;
        self.span_path.clear();
        self.span_path.extend_from_slice(record.span_path);
        self.fields.clear();
        self.text.clear();
        for &(key, value) in record.fields {
            let value = match value {
                Value::Bool(v) => SlotValue::Bool(v),
                Value::U64(v) => SlotValue::U64(v),
                Value::I64(v) => SlotValue::I64(v),
                Value::F64(v) => SlotValue::F64(v),
                Value::Str(text) => {
                    let start = self.text.len();
                    self.text.push_str(text);
                    SlotValue::Str(start, self.text.len())
                }
            };
            self.fields.push((key, value));
        }
    }

    /// The event this slot retains.
    fn to_event(&self) -> Event {
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
                .map(|&(key, value)| {
                    let value = match value {
                        SlotValue::Bool(v) => FieldValue::Bool(v),
                        SlotValue::U64(v) => FieldValue::U64(v),
                        SlotValue::I64(v) => FieldValue::I64(v),
                        SlotValue::F64(v) => FieldValue::F64(v),
                        SlotValue::Str(start, end) => {
                            FieldValue::Str(self.text[start..end].to_owned())
                        }
                    };
                    (Cow::Borrowed(key), value)
                })
                .collect(),
        }
    }
}

#[derive(Debug)]
struct RecorderInner {
    /// At most `capacity` slots; once full, `oldest` is the next one to
    /// overwrite.
    slots: Vec<Slot>,
    oldest: usize,
    dumps: Vec<FlightDump>,
}

impl RecorderInner {
    /// The retained events, oldest first.
    fn events(&self) -> Vec<Event> {
        let (newer, older) = self.slots.split_at(self.oldest);
        older.iter().chain(newer).map(Slot::to_event).collect()
    }
}

/// The bounded ring-buffer recorder; install it as a sink.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    trigger_level: Level,
    trigger_names: Vec<String>,
    max_dumps: usize,
    min_level: Level,
    inner: RefCell<RecorderInner>,
}

impl FlightRecorder {
    /// Default buffer capacity: comfortably more than the ≥ 64 events a
    /// post-mortem needs for context.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A recorder retaining [`Self::DEFAULT_CAPACITY`] events, dumping on
    /// any `Error`-level event, keeping at most 8 dumps.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A recorder retaining the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            capacity,
            trigger_level: Level::Error,
            trigger_names: Vec::new(),
            max_dumps: 8,
            min_level: Level::Trace,
            inner: RefCell::new(RecorderInner {
                slots: Vec::with_capacity(capacity),
                oldest: 0,
                dumps: Vec::new(),
            }),
        }
    }

    /// Also dumps whenever an event with this exact name arrives,
    /// regardless of its level.
    #[must_use]
    pub fn with_trigger_name(mut self, name: &str) -> Self {
        self.trigger_names.push(name.to_owned());
        self
    }

    /// Caps how many dumps are retained (later triggers are dropped,
    /// bounding memory on a pathological campaign).
    #[must_use]
    pub fn with_max_dumps(mut self, max: usize) -> Self {
        self.max_dumps = max;
        self
    }

    /// Restricts which events are retained at all.
    #[must_use]
    pub fn with_min_level(mut self, level: Level) -> Self {
        self.min_level = level;
        self
    }

    /// Copies of the dumps taken so far, in trigger order: dump `i`'s
    /// `trigger_seq` is strictly less than dump `i + 1`'s, because a
    /// dump is snapshotted synchronously when its trigger event is
    /// recorded and sequence numbers are emission-ordered.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.inner.borrow().dumps.clone()
    }

    /// Removes and returns the dumps taken so far.
    ///
    /// # Ordering contract
    ///
    /// Dumps come back in trigger order (strictly increasing
    /// `trigger_seq`), each dump's `events` are in emission order with
    /// the trigger event as the **last** entry, and each dump is a
    /// strict suffix of the event stream the recorder retained at
    /// trigger time — the recorder never reorders, samples, or
    /// deduplicates. Consumers (the observatory's incident
    /// reconstructor, checkpoint embedding) rely on all three.
    pub fn take_dumps(&self) -> Vec<FlightDump> {
        std::mem::take(&mut self.inner.borrow_mut().dumps)
    }

    /// Number of events currently retained in the ring.
    pub fn retained(&self) -> usize {
        self.inner.borrow().slots.len()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl Sink for FlightRecorder {
    fn record(&self, record: &Record<'_>) {
        let mut inner = self.inner.borrow_mut();
        if inner.slots.len() < self.capacity {
            inner.slots.push(Slot::new(record));
        } else {
            let oldest = inner.oldest;
            inner.slots[oldest].overwrite(record);
            inner.oldest = (oldest + 1) % self.capacity;
        }
        let triggered = record.level >= self.trigger_level
            || self.trigger_names.iter().any(|n| n == record.name);
        if triggered && inner.dumps.len() < self.max_dumps {
            let events = inner.events();
            inner.dumps.push(FlightDump {
                trigger_seq: record.seq,
                trigger_name: record.name.to_owned(),
                events,
            });
        }
    }

    fn min_level(&self) -> Level {
        self.min_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records one event named `name` whose single field is its `seq`.
    fn record(rec: &FlightRecorder, seq: u64, level: Level, name: &'static str) {
        rec.record(&Record {
            seq,
            kind: EventKind::Event,
            level,
            target: "t",
            name,
            span_path: &[],
            fields: &[("seq", Value::U64(seq))],
        });
    }

    #[test]
    fn ring_keeps_only_the_last_capacity_events() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            record(&rec, i, Level::Info, "e");
        }
        assert_eq!(rec.retained(), 4);
        record(&rec, 10, Level::Error, "boom");
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        let seqs: Vec<u64> = dumps[0].events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest evicted, trigger last");
    }

    #[test]
    fn dump_triggers_on_level_and_on_name() {
        let rec = FlightRecorder::with_capacity(8).with_trigger_name("quarantine");
        record(&rec, 0, Level::Warn, "retry");
        assert!(rec.dumps().is_empty());
        record(&rec, 1, Level::Info, "quarantine");
        record(&rec, 2, Level::Error, "escalated");
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].trigger_name, "quarantine");
        assert_eq!(dumps[0].trigger_seq, 1);
        assert_eq!(dumps[1].trigger_name, "escalated");
    }

    #[test]
    fn max_dumps_bounds_memory() {
        let rec = FlightRecorder::with_capacity(4).with_max_dumps(2);
        for i in 0..5 {
            record(&rec, i, Level::Error, "boom");
        }
        assert_eq!(rec.dumps().len(), 2);
        assert_eq!(rec.take_dumps().len(), 2);
        assert!(rec.dumps().is_empty());
    }

    #[test]
    fn overwritten_slots_equal_the_events_they_copy() {
        let rec = FlightRecorder::with_capacity(2);
        let wide = Record {
            seq: 0,
            kind: EventKind::SpanEnter,
            level: Level::Info,
            target: "t",
            name: "wide",
            span_path: &["campaign", "setup"],
            fields: &[
                ("seq", Value::U64(0)),
                ("label", Value::Str("milc-at-830mV")),
            ],
        };
        let other = Record {
            seq: 1,
            target: "other::target",
            name: "other",
            span_path: &[],
            fields: &[("key", Value::Bool(true)), ("text", Value::Str("a"))],
            ..wide
        };
        let narrow = Record {
            seq: 2,
            kind: EventKind::Event,
            name: "narrow",
            span_path: &[],
            fields: &[
                ("label", Value::Str("mcf")),
                ("ewma", Value::F64(-0.5)),
                ("margin_mv", Value::I64(-3)),
            ],
            ..wide
        };
        let trigger = Record {
            seq: 3,
            kind: EventKind::Event,
            level: Level::Error,
            name: "boom",
            span_path: &["campaign"],
            fields: &[],
            ..wide
        };
        for r in [&wide, &other, &narrow, &trigger] {
            rec.record(r);
        }
        // Slot 0 held `wide`, then `narrow`; slot 1 held `other`, then
        // the trigger: each overwrite changed the shape of the record.
        assert_eq!(
            rec.dumps()[0].events,
            vec![narrow.to_event(), trigger.to_event()]
        );
        assert_eq!(
            rec.dumps()[0].events[0].field("label"),
            Some(&FieldValue::Str("mcf".into()))
        );
    }

    #[test]
    fn render_contains_trigger_and_events() {
        let rec = FlightRecorder::with_capacity(4);
        record(&rec, 0, Level::Info, "before");
        record(&rec, 1, Level::Error, "boom");
        let dump = &rec.dumps()[0];
        let text = dump.render();
        assert!(text.contains("`boom` at seq 1"), "{text}");
        assert!(text.contains("before"), "{text}");
    }
}
