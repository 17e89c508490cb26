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
//! Once the ring is full, each new event overwrites the evicted slot in
//! place, reusing its vectors and owned strings: recording allocates
//! only where the slot is too small for the new event, and for the text
//! of `FieldValue::Str` fields.

use crate::event::{Event, Level};
use crate::sink::Sink;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
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

#[derive(Debug)]
struct RecorderInner {
    buf: VecDeque<Event>,
    dumps: Vec<FlightDump>,
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
                buf: VecDeque::with_capacity(capacity),
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

    /// Changes the level at (and above) which events trigger a dump.
    #[must_use]
    pub fn with_trigger_level(mut self, level: Level) -> Self {
        self.trigger_level = level;
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
        self.inner.borrow().buf.len()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

/// Overwrites `slot` with a copy of `event`, reusing the slot's vectors
/// and owned strings.
fn overwrite(slot: &mut Event, event: &Event) {
    slot.seq = event.seq;
    slot.kind = event.kind;
    slot.level = event.level;
    slot.target.clone_from(&event.target);
    slot.name.clone_from(&event.name);
    slot.span_path.clone_from(&event.span_path);
    slot.fields.truncate(event.fields.len());
    let reused = slot.fields.len();
    for ((key, value), (src_key, src_value)) in slot.fields.iter_mut().zip(&event.fields) {
        key.clone_from(src_key);
        value.clone_from(src_value);
    }
    slot.fields.extend_from_slice(&event.fields[reused..]);
}

impl Sink for FlightRecorder {
    fn record(&self, event: &Event) {
        let mut inner = self.inner.borrow_mut();
        if inner.buf.len() == self.capacity {
            let mut slot = inner.buf.pop_front().expect("a full ring is non-empty");
            overwrite(&mut slot, event);
            inner.buf.push_back(slot);
        } else {
            inner.buf.push_back(event.clone());
        }
        let triggered = event.level >= self.trigger_level
            || self.trigger_names.iter().any(|n| *n == event.name);
        if triggered && inner.dumps.len() < self.max_dumps {
            let events: Vec<Event> = inner.buf.iter().cloned().collect();
            inner.dumps.push(FlightDump {
                trigger_seq: event.seq,
                trigger_name: event.name.to_string(),
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
    use crate::event::{EventKind, FieldValue};

    fn ev(seq: u64, level: Level, name: &'static str) -> Event {
        Event {
            seq,
            kind: EventKind::Event,
            level,
            target: "t".into(),
            name: name.into(),
            span_path: vec![],
            fields: vec![("seq".into(), FieldValue::U64(seq))],
        }
    }

    #[test]
    fn ring_keeps_only_the_last_capacity_events() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            rec.record(&ev(i, Level::Info, "e"));
        }
        assert_eq!(rec.retained(), 4);
        rec.record(&ev(10, Level::Error, "boom"));
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        let seqs: Vec<u64> = dumps[0].events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest evicted, trigger last");
    }

    #[test]
    fn dump_triggers_on_level_and_on_name() {
        let rec = FlightRecorder::with_capacity(8).with_trigger_name("quarantine");
        rec.record(&ev(0, Level::Warn, "retry"));
        assert!(rec.dumps().is_empty());
        rec.record(&ev(1, Level::Info, "quarantine"));
        rec.record(&ev(2, Level::Error, "escalated"));
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
            rec.record(&ev(i, Level::Error, "boom"));
        }
        assert_eq!(rec.dumps().len(), 2);
        assert_eq!(rec.take_dumps().len(), 2);
        assert!(rec.dumps().is_empty());
    }

    #[test]
    fn overwritten_slots_equal_the_events_they_copy() {
        let rec = FlightRecorder::with_capacity(2);
        let mut wide = ev(0, Level::Info, "wide");
        wide.span_path = vec!["campaign".into(), "setup".into()];
        wide.fields
            .push(("label".into(), FieldValue::Str("milc".into())));
        let mut owned = ev(1, Level::Info, "owned");
        owned.target = String::from("decoded::target").into();
        owned.fields = vec![(String::from("key").into(), FieldValue::Bool(true))];
        let narrow = ev(2, Level::Info, "narrow");
        let mut trigger = ev(3, Level::Error, "boom");
        trigger.span_path = vec!["campaign".into()];
        trigger.fields.clear();
        for e in [&wide, &owned, &narrow, &trigger] {
            rec.record(e);
        }
        // Slot 0 held `wide`, then `narrow`; slot 1 held `owned`, then
        // the trigger: each overwrite changed the shape of the event.
        assert_eq!(rec.dumps()[0].events, vec![narrow, trigger]);
    }

    #[test]
    fn render_contains_trigger_and_events() {
        let rec = FlightRecorder::with_capacity(4);
        rec.record(&ev(0, Level::Info, "before"));
        rec.record(&ev(1, Level::Error, "boom"));
        let dump = &rec.dumps()[0];
        let text = dump.render();
        assert!(text.contains("`boom` at seq 1"), "{text}");
        assert!(text.contains("before"), "{text}");
    }
}
