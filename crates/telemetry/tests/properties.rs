//! Property tests: flight-recorder dumps must reproduce emission order
//! exactly, for any interleaving of events, spans and severities (and
//! however the shapes, text lengths and span depths of the records that
//! reuse a ring slot differ), and JSONL traces must round-trip
//! losslessly.

use proptest::prelude::*;
use std::rc::Rc;
use telemetry::{CaptureSink, Event, FlightRecorder, JsonlSink, Level, SpanGuard, Telemetry};

fn arb_level() -> impl Strategy<Value = Level> {
    prop_oneof![
        Just(Level::Trace),
        Just(Level::Debug),
        Just(Level::Info),
        Just(Level::Warn),
        Just(Level::Error),
    ]
}

const SPAN_NAMES: [&str; 3] = ["campaign", "setup", "run"];

/// One step of an arbitrary instrumented program.
#[derive(Debug, Clone)]
enum Op {
    /// Emit a point event at this level with the `n`th field shape of
    /// `emit` (0, 1, 2 or 4 fields; two or more include text of the
    /// drawn length, four a second text, and each shape puts a
    /// different key first).
    Emit(Level, usize, usize),
    /// Enter the span named `SPAN_NAMES[i]` (always `Info`, so only
    /// `Emit(Error, ..)` triggers dumps).
    Push(usize),
    /// Enter this many spans at once, reaching paths deeper than a
    /// dispatch copies inline.
    Dive(usize),
    /// Exit the innermost open span, if any.
    Pop,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_level(), 0usize..4, 0usize..40)
            .prop_map(|(level, fields, text)| Op::Emit(level, fields, text)),
        (0..SPAN_NAMES.len()).prop_map(Op::Push),
        (1usize..12).prop_map(Op::Dive),
        Just(Op::Pop),
    ]
}

fn emit(level: Level, fields: usize, text: usize, i: usize) {
    let label = "x".repeat(text);
    match fields {
        0 => telemetry::event!(level, "op"),
        1 => telemetry::event!(level, "op", i = i),
        2 => telemetry::event!(level, "op", label = label, i = i),
        _ => telemetry::event!(
            level,
            "op",
            half = i as f64 * 0.5,
            i = i,
            label = label,
            tag = format!("step-{i}"),
        ),
    }
}

proptest! {
    /// Every dump is the exact trailing window of the emission sequence
    /// at its trigger point: contiguous, in order, trigger last, and
    /// event-for-event identical to what the sinks saw.
    #[test]
    fn flight_dump_matches_emission_order(
        ops in proptest::collection::vec(arb_op(), 1..200),
        capacity in 1usize..64,
    ) {
        let rec = Rc::new(
            FlightRecorder::with_capacity(capacity).with_max_dumps(usize::MAX),
        );
        let cap = Rc::new(CaptureSink::new());
        let guard = Telemetry::new()
            .with_shared_sink(rec.clone())
            .with_shared_sink(cap.clone())
            .install();
        let mut spans: Vec<SpanGuard> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Emit(level, fields, text) => emit(*level, *fields, *text, i),
                Op::Push(name) => spans.push(telemetry::span!(Level::Info, SPAN_NAMES[*name])),
                Op::Dive(depth) => {
                    for d in 0..*depth {
                        let name = SPAN_NAMES[d % SPAN_NAMES.len()];
                        spans.push(telemetry::span!(Level::Info, name));
                    }
                }
                Op::Pop => {
                    spans.pop();
                }
            }
        }
        drop(spans);
        drop(guard);

        let emitted = cap.events();
        for (i, e) in emitted.iter().enumerate() {
            prop_assert_eq!(e.seq, i as u64, "seq is emission order");
        }
        let dumps = rec.dumps();
        for dump in &dumps {
            let trigger = dump.trigger_seq as usize;
            let start = (trigger + 1).saturating_sub(capacity);
            let expected: Vec<u64> = (start..=trigger).map(|s| s as u64).collect();
            let got: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
            prop_assert_eq!(&got, &expected, "contiguous window ending at trigger");
            for e in &dump.events {
                prop_assert_eq!(e, &emitted[e.seq as usize]);
            }
        }
        let errors = emitted.iter().filter(|e| e.level == Level::Error).count();
        prop_assert_eq!(dumps.len(), errors, "one dump per Error event");
    }

    /// A JSONL trace decodes back to exactly the captured events.
    #[test]
    fn jsonl_roundtrips_arbitrary_traces(
        levels in proptest::collection::vec(arb_level(), 1..100),
    ) {
        let jsonl = Rc::new(JsonlSink::in_memory());
        let cap = Rc::new(CaptureSink::new());
        let guard = Telemetry::new()
            .with_shared_sink(jsonl.clone())
            .with_shared_sink(cap.clone())
            .install();
        for (i, level) in levels.iter().enumerate() {
            telemetry::event!(
                *level,
                "op",
                i = i,
                half = i as f64 * 0.5,
                neg = -(i as i64),
                even = i % 2 == 0,
                label = "trace",
            );
        }
        drop(guard);
        let decoded: Vec<Event> = jsonl
            .contents()
            .lines()
            .map(|line| serde::json::from_str(line).unwrap())
            .collect();
        prop_assert_eq!(decoded, cap.events());
    }
}
