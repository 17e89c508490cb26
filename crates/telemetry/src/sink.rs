//! Pluggable event sinks: pretty-printing, JSONL and test capture.
//!
//! A [`Sink`] receives every dispatched [`Record`] at or above its
//! [`Sink::min_level`]. The record is borrowed: a sink that keeps it
//! builds the owned [`Event`] ([`Record::to_event`]), so only kept
//! records pay for a copy. Sinks take `&self` and use interior
//! mutability so they can be shared as `Rc<dyn Sink>` between the
//! dispatcher and the code that later inspects them (tests reading a
//! [`CaptureSink`], a post-mortem reading a flight recorder).

use crate::event::{Event, Level, Record};
use std::cell::RefCell;
use std::io::Write;

/// A destination for dispatched events.
pub trait Sink {
    /// Receives one record (already filtered by the dispatcher against
    /// [`Self::min_level`]). The dispatcher holds no telemetry state
    /// while it calls this, so a sink may emit events of its own.
    fn record(&self, record: &Record<'_>);

    /// The least severe level this sink wants to see.
    fn min_level(&self) -> Level {
        Level::Trace
    }

    /// Flushes any buffered output.
    fn flush(&self) {}
}

/// Human-readable pretty printer over any writer (stderr by default).
///
/// Output is one line per event, indented two spaces per enclosing span,
/// with `->`/`<-` markers for span enter/exit.
pub struct PrettySink<W: Write> {
    writer: RefCell<W>,
    min_level: Level,
}

impl PrettySink<std::io::Stderr> {
    /// A pretty printer on stderr at `Info` verbosity.
    pub fn stderr() -> Self {
        PrettySink {
            writer: RefCell::new(std::io::stderr()),
            min_level: Level::Info,
        }
    }
}

impl<W: Write> PrettySink<W> {
    /// A pretty printer over an arbitrary writer at `Info` verbosity.
    pub fn new(writer: W) -> Self {
        PrettySink {
            writer: RefCell::new(writer),
            min_level: Level::Info,
        }
    }

    /// Lowers (or raises) the verbosity threshold.
    #[must_use]
    pub fn with_min_level(mut self, level: Level) -> Self {
        self.min_level = level;
        self
    }
}

impl<W: Write> std::fmt::Debug for PrettySink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrettySink")
            .field("min_level", &self.min_level)
            .finish_non_exhaustive()
    }
}

impl<W: Write> Sink for PrettySink<W> {
    fn record(&self, record: &Record<'_>) {
        // A full stderr (or broken pipe) must never take the simulation
        // down; drop the line instead.
        let _ = writeln!(self.writer.borrow_mut(), "{}", record.to_event().render());
    }

    fn min_level(&self) -> Level {
        self.min_level
    }

    fn flush(&self) {
        let _ = self.writer.borrow_mut().flush();
    }
}

/// Machine-readable sink: one JSON object per line, encoded through the
/// workspace `serde`.
pub struct JsonlSink<W: Write> {
    writer: RefCell<W>,
    min_level: Level,
}

impl<W: Write> JsonlSink<W> {
    /// A JSONL writer capturing everything down to `Trace`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: RefCell::new(writer),
            min_level: Level::Trace,
        }
    }

    /// Restricts the sink to `level` and above.
    #[must_use]
    pub fn with_min_level(mut self, level: Level) -> Self {
        self.min_level = level;
        self
    }
}

impl JsonlSink<Vec<u8>> {
    /// An in-memory JSONL buffer (tests, examples).
    pub fn in_memory() -> Self {
        JsonlSink::new(Vec::new())
    }

    /// The captured JSONL text so far.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.writer.borrow()).into_owned()
    }
}

impl<W: Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("min_level", &self.min_level)
            .finish_non_exhaustive()
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn record(&self, record: &Record<'_>) {
        let line = serde::json::to_string(&record.to_event());
        let _ = writeln!(self.writer.borrow_mut(), "{line}");
    }

    fn min_level(&self) -> Level {
        self.min_level
    }

    fn flush(&self) {
        let _ = self.writer.borrow_mut().flush();
    }
}

/// Test sink: buffers every event for later assertions.
///
/// Events are additionally indexed by name as they arrive, so
/// [`CaptureSink::named`] stays O(matches) however large the capture
/// grows — observatory-scale runs feed hundreds of thousands of events
/// through one sink and query a handful of names afterwards.
#[derive(Debug, Default)]
pub struct CaptureSink {
    events: RefCell<Vec<Event>>,
    by_name: RefCell<std::collections::BTreeMap<String, Vec<usize>>>,
    min_level: Level,
}

impl CaptureSink {
    /// A capture sink recording everything down to `Trace`.
    pub fn new() -> Self {
        CaptureSink {
            events: RefCell::new(Vec::new()),
            by_name: RefCell::new(std::collections::BTreeMap::new()),
            min_level: Level::Trace,
        }
    }

    /// Restricts the capture to `level` and above.
    #[must_use]
    pub fn with_min_level(mut self, level: Level) -> Self {
        self.min_level = level;
        self
    }

    /// A copy of every captured event, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// Captured events whose name matches, in emission order
    /// (indexed: proportional to the number of matches, not the size
    /// of the capture).
    pub fn named(&self, name: &str) -> Vec<Event> {
        let events = self.events.borrow();
        self.by_name
            .borrow()
            .get(name)
            .map(|indices| indices.iter().map(|&i| events[i].clone()).collect())
            .unwrap_or_default()
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Drops everything captured so far.
    pub fn clear(&self) {
        self.events.borrow_mut().clear();
        self.by_name.borrow_mut().clear();
    }
}

impl Sink for CaptureSink {
    fn record(&self, record: &Record<'_>) {
        let mut events = self.events.borrow_mut();
        let index = events.len();
        let mut by_name = self.by_name.borrow_mut();
        match by_name.get_mut(record.name) {
            Some(indices) => indices.push(index),
            None => {
                by_name.insert(record.name.to_owned(), vec![index]);
            }
        }
        events.push(record.to_event());
    }

    fn min_level(&self) -> Level {
        self.min_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Value};

    /// Records one event named `name` whose single field is its `seq`.
    fn record(sink: &dyn Sink, seq: u64, level: Level, name: &'static str) {
        sink.record(&Record {
            seq,
            kind: EventKind::Event,
            level,
            target: "t",
            name,
            span_path: &[],
            fields: &[("k", Value::U64(seq))],
        });
    }

    #[test]
    fn capture_sink_buffers_in_order() {
        let sink = CaptureSink::new();
        record(&sink, 1, Level::Info, "e");
        record(&sink, 2, Level::Warn, "e");
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(sink.len(), 2);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn named_uses_the_index_and_survives_clear() {
        let sink = CaptureSink::new();
        for seq in 0..10 {
            let name = if seq % 3 == 0 { "fizz" } else { "e" };
            record(&sink, seq, Level::Info, name);
        }
        let fizz = sink.named("fizz");
        assert_eq!(fizz.len(), 4);
        assert!(fizz.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(sink.named("absent").is_empty());
        sink.clear();
        assert!(sink.named("fizz").is_empty());
        record(&sink, 99, Level::Info, "e");
        assert_eq!(sink.named("e").len(), 1);
    }

    #[test]
    fn jsonl_sink_writes_one_decodable_object_per_line() {
        let sink = JsonlSink::in_memory();
        record(&sink, 1, Level::Info, "e");
        record(&sink, 2, Level::Debug, "e");
        let text = sink.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let back: Event = serde::json::from_str(line).unwrap();
            assert_eq!(back.seq, i as u64 + 1);
        }
    }

    #[test]
    fn pretty_sink_renders_lines() {
        let sink = PrettySink::new(Vec::new());
        record(&sink, 7, Level::Warn, "e");
        let text = String::from_utf8(sink.writer.into_inner()).unwrap();
        assert!(text.contains("WARN"), "{text}");
        assert!(text.contains("k=7"), "{text}");
    }
}
