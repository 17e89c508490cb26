//! Criterion guard for the indexed telemetry lookups the observatory
//! leans on: `CaptureSink::named` (per-name index, O(matches)) and the
//! binary-searched `MetricsSnapshot` series lookups. Both must stay
//! cheap however large the capture or registry grows — observatory
//! runs funnel hundreds of thousands of events through one sink and
//! query a handful of names afterwards.

use criterion::{criterion_group, criterion_main, Criterion};
use telemetry::event::EventKind;
use telemetry::{series_name, CaptureSink, Level, Record, Registry, Sink, Value};

const EVENTS: usize = 100_000;
const NAMES: usize = 1_000;
const SERIES: usize = 1_000;

fn loaded_sink() -> CaptureSink {
    // Records carry `'static` names, as the macros' literals are.
    let names: Vec<&'static str> = (0..NAMES)
        .map(|i| &*Box::leak(format!("event_{i}").into_boxed_str()))
        .collect();
    let sink = CaptureSink::new();
    for i in 0..EVENTS {
        sink.record(&Record {
            seq: i as u64,
            kind: EventKind::Event,
            level: Level::Info,
            target: "bench",
            name: names[i % NAMES],
            span_path: &[],
            fields: &[("i", Value::U64(i as u64))],
        });
    }
    sink
}

fn loaded_registry() -> Registry {
    let reg = Registry::new();
    for i in 0..SERIES {
        let board = format!("{i}");
        reg.counter_add_labeled("fleet_events_total", &[("board", &board)], i as u64);
        reg.gauge_set_labeled("fleet_board_margin_mv", &[("board", &board)], i as f64);
    }
    reg
}

fn bench_lookups(c: &mut Criterion) {
    let sink = loaded_sink();
    c.bench_function("capture_sink_named_100k_events", |b| {
        b.iter(|| {
            let hits = sink.named("event_500");
            assert_eq!(hits.len(), EVENTS / NAMES);
            hits
        })
    });
    c.bench_function("capture_sink_named_miss_100k_events", |b| {
        b.iter(|| sink.named("no_such_event"))
    });

    let snapshot = loaded_registry().snapshot();
    let gauge_series = series_name("fleet_board_margin_mv", &[("board", "500")]);
    let counter_series = series_name("fleet_events_total", &[("board", "500")]);
    c.bench_function("snapshot_gauge_lookup_1k_series", |b| {
        b.iter(|| snapshot.gauge(&gauge_series).expect("series present"))
    });
    c.bench_function("snapshot_counter_lookup_1k_series", |b| {
        b.iter(|| snapshot.counter(&counter_series).expect("series present"))
    });
}

criterion_group!(benches, bench_lookups);
criterion_main!(benches);
