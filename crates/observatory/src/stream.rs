//! Per-board event streams and the Lamport-style causal key.
//!
//! Every telemetry context already assigns deterministic per-context
//! sequence numbers in emission order (see `telemetry::event`). A
//! [`BoardStream`] pins one such context's events to the `(epoch,
//! board)` coordinate it was recorded at, which makes the triple
//! `(epoch, board, seq)` — the [`CausalKey`] — a total causal order
//! *within* a stream and a deterministic tie-broken order *across*
//! streams: epoch is the fleet-wide logical clock, board is the site,
//! and seq is the site-local Lamport counter. Merging streams sorted by
//! this key is therefore a pure function of the set of streams, no
//! matter which worker produced which stream or in what order they
//! arrived.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::rc::Rc;
use telemetry::event::EventKind;
use telemetry::{CaptureSink, Event, FieldValue, Level, Sink, Telemetry};

/// Sequence-number namespace for events synthesized by a coordinator
/// (the fleet orchestrator, the lifetime scheduler) *about* a board
/// rather than recorded *on* it. Offsetting the coordinator's counter
/// keeps its events ordered after every job-side event of the same
/// `(epoch, board)` — an eviction decision causally follows the whole
/// job trace that provoked it — without ever colliding with job-side
/// sequence numbers.
pub const COORDINATOR_SEQ_BASE: u64 = 1 << 48;

/// The Lamport-style causal coordinate of one event in the fleet
/// timeline. Ordering is lexicographic: epoch, then board, then the
/// per-context sequence number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CausalKey {
    /// Fleet-wide logical epoch (a characterization attempt, a lifetime
    /// month, a replay round — whatever the campaign's clock is).
    pub epoch: u64,
    /// The board the event belongs to.
    pub board: u32,
    /// The emission-order sequence number within the board's telemetry
    /// context (coordinator events live in the
    /// [`COORDINATOR_SEQ_BASE`] namespace).
    pub seq: u64,
}

/// One board's events at one epoch, in emission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct BoardStream {
    /// The logical epoch the stream was recorded at.
    pub epoch: u64,
    /// The board the stream was recorded on.
    pub board: u32,
    /// The captured events, in emission (sequence) order.
    pub events: Vec<Event>,
}

impl BoardStream {
    /// An empty stream at `(epoch, board)`.
    pub fn new(epoch: u64, board: u32) -> Self {
        BoardStream {
            epoch,
            board,
            events: Vec::new(),
        }
    }

    /// Wraps already-captured events (e.g. a `BoardOutcome`'s trace).
    pub fn from_events(epoch: u64, board: u32, events: Vec<Event>) -> Self {
        BoardStream {
            epoch,
            board,
            events,
        }
    }

    /// The causal key of one of this stream's events.
    pub fn key_of(&self, event: &Event) -> CausalKey {
        CausalKey {
            epoch: self.epoch,
            board: self.board,
            seq: event.seq,
        }
    }

    /// Number of events in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Runs `f` under a fresh capture-only telemetry context and returns its
/// result together with everything it emitted at or above `min_level`,
/// wrapped as a [`BoardStream`] at `(epoch, board)`.
///
/// The fresh context restarts the sequence counter at zero, so the
/// captured stream is a pure function of `f` — identical wherever (and
/// on whichever worker thread) it runs. The previous context is
/// restored on return.
pub fn observe<R>(
    epoch: u64,
    board: u32,
    min_level: Level,
    f: impl FnOnce() -> R,
) -> (R, BoardStream) {
    let sink = Rc::new(CaptureSink::new().with_min_level(min_level));
    let guard = Telemetry::new()
        .with_shared_sink(Rc::clone(&sink) as Rc<dyn Sink>)
        .install();
    let result = f();
    drop(guard);
    (
        result,
        BoardStream::from_events(epoch, board, sink.events()),
    )
}

/// Builds a synthetic [`BoardStream`] event by event, assigning
/// deterministic sequence numbers — for coordinators that decide things
/// about boards without running a telemetry context per decision.
#[derive(Debug)]
pub struct StreamBuilder {
    stream: BoardStream,
    next_seq: u64,
}

impl StreamBuilder {
    /// A builder whose sequence numbers start at zero — for sites that
    /// have no captured job trace to coexist with (e.g. the lifetime
    /// drift pass synthesizing per-board health events).
    pub fn synthetic(epoch: u64, board: u32) -> Self {
        StreamBuilder {
            stream: BoardStream::new(epoch, board),
            next_seq: 0,
        }
    }

    /// A builder in the coordinator sequence namespace: its events sort
    /// after every job-side event of the same `(epoch, board)`.
    pub fn coordinator(epoch: u64, board: u32) -> Self {
        StreamBuilder {
            stream: BoardStream::new(epoch, board),
            next_seq: COORDINATOR_SEQ_BASE,
        }
    }

    /// Appends one event with the next sequence number.
    pub fn push(
        &mut self,
        level: Level,
        name: &str,
        fields: Vec<(String, FieldValue)>,
    ) -> &mut Self {
        self.stream.events.push(Event {
            seq: self.next_seq,
            kind: EventKind::Event,
            level,
            target: Cow::Borrowed("observatory::synthetic"),
            name: Cow::Owned(name.to_owned()),
            span_path: Vec::new(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (Cow::Owned(k), v))
                .collect(),
        });
        self.next_seq += 1;
        self
    }

    /// The finished stream.
    pub fn finish(self) -> BoardStream {
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_keys_order_epoch_then_board_then_seq() {
        let a = CausalKey {
            epoch: 1,
            board: 9,
            seq: 100,
        };
        let b = CausalKey {
            epoch: 2,
            board: 0,
            seq: 0,
        };
        let c = CausalKey {
            epoch: 1,
            board: 10,
            seq: 0,
        };
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn observe_captures_a_fresh_zero_based_stream() {
        let (value, stream) = observe(3, 7, Level::Info, || {
            telemetry::event!(Level::Info, "first", k = 1u64);
            telemetry::event!(Level::Debug, "hidden");
            telemetry::event!(Level::Warn, "second");
            42u32
        });
        assert_eq!(value, 42);
        assert_eq!(stream.epoch, 3);
        assert_eq!(stream.board, 7);
        let names: Vec<&str> = stream.events.iter().map(|e| &*e.name).collect();
        assert_eq!(names, vec!["first", "second"]);
        assert_eq!(stream.events[0].seq, 0, "fresh context restarts seq");
        assert_eq!(stream.key_of(&stream.events[1]).board, 7);
    }

    #[test]
    fn observe_is_reentrant_and_restores_the_outer_context() {
        let (inner_stream, outer_stream) = {
            let ((), outer) = observe(0, 1, Level::Trace, || {
                telemetry::event!(Level::Info, "outer_before");
                let ((), inner) = observe(0, 2, Level::Trace, || {
                    telemetry::event!(Level::Info, "inner");
                });
                telemetry::event!(Level::Info, "outer_after");
                assert_eq!(inner.len(), 1);
            });
            let ((), inner) = observe(0, 2, Level::Trace, || {
                telemetry::event!(Level::Info, "inner");
            });
            (inner, outer)
        };
        let names: Vec<&str> = outer_stream.events.iter().map(|e| &*e.name).collect();
        assert_eq!(names, vec!["outer_before", "outer_after"]);
        assert_eq!(inner_stream.events[0].seq, 0);
    }

    #[test]
    fn coordinator_streams_sort_after_job_streams() {
        let mut builder = StreamBuilder::coordinator(5, 3);
        builder.push(Level::Warn, "evicted", vec![("board".into(), 3u32.into())]);
        let stream = builder.finish();
        assert_eq!(stream.events[0].seq, COORDINATOR_SEQ_BASE);
        let job_key = CausalKey {
            epoch: 5,
            board: 3,
            seq: 999_999,
        };
        assert!(stream.key_of(&stream.events[0]) > job_key);
    }
}
