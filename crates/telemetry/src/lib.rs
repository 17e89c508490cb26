//! In-tree observability for the guardband characterization stack:
//! structured leveled tracing with spans, a metrics registry with
//! Prometheus-style exposition, a bounded flight recorder for
//! post-mortems, and lightweight profiling timers.
//!
//! # Design
//!
//! Telemetry is dispatched through a **thread-local context** installed
//! with [`Telemetry::install`]. Thread-local (rather than a global
//! static) keeps parallel `cargo test` threads fully isolated: each test
//! installs its own capture sink and sees only its own events, and
//! sequence numbers restart at zero per install so traces are
//! deterministic. The returned [`TelemetryGuard`] restores the previous
//! context on drop, so installs nest.
//!
//! With no context installed, the macros cost one thread-local read and
//! a branch — no field construction, no allocation, no clock reads.
//!
//! With a context installed, dispatching allocates nothing: the macros
//! build the fields as a slice of borrowed [`Value`]s on the caller's
//! stack, the dispatcher copies the span path into a stack buffer (a
//! `Vec` only past eight names), and every sink receives one borrowed
//! [`Record`] whose target, name, span names and keys are the `'static`
//! literals of the call site. Only a sink that keeps a record pays for an
//! owned [`Event`]. The flight recorder keeps plain slots that it
//! overwrites in place and turns into `Event`s only when it dumps, and
//! registry updates on an existing series allocate nothing.
//!
//! # Determinism
//!
//! Events carry a monotonic per-context sequence number as their only
//! time axis; nothing in the event path reads a wall clock. Simulated
//! time enters as an ordinary field (idiomatically `sim_ms`) supplied by
//! the caller. Wall time exists only in profiling histograms
//! ([`profile::WallTimer`]), never in recorded events, so a captured
//! trace is bit-identical across runs of a deterministic simulation.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use telemetry::{CaptureSink, Level, Telemetry};
//!
//! let sink = Rc::new(CaptureSink::new());
//! let _guard = Telemetry::new().with_shared_sink(sink.clone()).install();
//!
//! let _campaign = telemetry::span!(Level::Info, "campaign", bench = "milc");
//! telemetry::event!(Level::Warn, "retry", attempt = 2u32, backoff_ms = 1000u64);
//!
//! let events = sink.named("retry");
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].span_path, vec!["campaign".to_owned()]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod sink;

pub use event::{AsValue, Event, EventKind, FieldValue, Level, Record, Value};
pub use metrics::{series_name, MetricsSnapshot, Registry};
pub use recorder::{FlightDump, FlightRecorder};
pub use sink::{CaptureSink, JsonlSink, PrettySink, Sink};

use std::cell::RefCell;
use std::rc::Rc;

/// The installed per-thread telemetry state.
struct Context {
    sinks: Rc<[Rc<dyn Sink>]>,
    registry: Option<Rc<Registry>>,
    min_level: Level,
    span_stack: Vec<&'static str>,
    seq: u64,
}

thread_local! {
    static CONTEXT: RefCell<Option<Context>> = const { RefCell::new(None) };
}

/// Builder for a telemetry context.
///
/// Collect sinks (and optionally a metrics registry), then
/// [`install`](Self::install) to make them the thread's active
/// destination for `event!`/`span!`/`counter!` and friends.
#[derive(Default)]
pub struct Telemetry {
    sinks: Vec<Rc<dyn Sink>>,
    registry: Option<Rc<Registry>>,
    min_level: Option<Level>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("sinks", &self.sinks.len())
            .field("has_registry", &self.registry.is_some())
            .field("min_level", &self.min_level)
            .finish()
    }
}

impl Telemetry {
    /// An empty builder: no sinks, no registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Adds a sink by value.
    #[must_use]
    pub fn with_sink<S: Sink + 'static>(self, sink: S) -> Self {
        self.with_shared_sink(Rc::new(sink))
    }

    /// Adds an already-shared sink; keep your own `Rc` clone to inspect
    /// it later (capture sinks, flight recorders).
    #[must_use]
    pub fn with_shared_sink(mut self, sink: Rc<dyn Sink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Attaches a metrics registry for `counter!`/`gauge!`/`observe!`
    /// and the profiling timers.
    #[must_use]
    pub fn with_registry(mut self, registry: Rc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Overrides the context-wide minimum level. Without this the
    /// context admits exactly what its most verbose sink wants (or
    /// `Trace` when a registry but no sink is installed).
    #[must_use]
    pub fn with_min_level(mut self, level: Level) -> Self {
        self.min_level = Some(level);
        self
    }

    /// Installs this context on the current thread, returning a guard
    /// that restores the previous context (if any) when dropped.
    #[must_use = "dropping the guard immediately uninstalls telemetry"]
    pub fn install(self) -> TelemetryGuard {
        let min_level = self.min_level.unwrap_or_else(|| {
            self.sinks
                .iter()
                .map(|s| s.min_level())
                .min()
                .unwrap_or(Level::Trace)
        });
        let ctx = Context {
            sinks: self.sinks.into(),
            registry: self.registry,
            min_level,
            span_stack: Vec::new(),
            seq: 0,
        };
        let prev = CONTEXT.with(|c| c.borrow_mut().replace(ctx));
        TelemetryGuard { prev }
    }
}

/// Restores the previously installed context (or none) when dropped.
pub struct TelemetryGuard {
    prev: Option<Context>,
}

impl std::fmt::Debug for TelemetryGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryGuard")
            .field("had_previous", &self.prev.is_some())
            .finish()
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        flush();
        let prev = self.prev.take();
        CONTEXT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Whether an event at `level` would currently be dispatched. The
/// macros' fast path: when this is false they construct nothing.
pub fn enabled(level: Level) -> bool {
    CONTEXT.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|ctx| level >= ctx.min_level)
    })
}

/// Whether a metrics registry is installed.
pub fn has_registry() -> bool {
    CONTEXT.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|ctx| ctx.registry.is_some())
    })
}

/// Runs `f` against the installed registry, if any.
pub fn with_registry<R>(f: impl FnOnce(&Registry) -> R) -> Option<R> {
    let reg = CONTEXT.with(|c| c.borrow().as_ref().and_then(|ctx| ctx.registry.clone()));
    reg.map(|r| f(&r))
}

/// Flushes every installed sink.
pub fn flush() {
    let sinks = CONTEXT.with(|c| c.borrow().as_ref().map(|ctx| Rc::clone(&ctx.sinks)));
    if let Some(sinks) = sinks {
        for sink in sinks.iter() {
            sink.flush();
        }
    }
}

/// Span depth a dispatch copies without allocating.
const INLINE_DEPTH: usize = 8;

/// Stamps a record in the installed context and hands it to every sink
/// that wants its level; returns whether it did. `edit` first has its say
/// over the span stack, and declining stops the dispatch.
///
/// The sequence number, a copy of the span path (into a stack buffer)
/// and the sinks are taken under the context borrow, which is released
/// before any sink runs: a sink may emit events of its own, and they take
/// the following sequence numbers. The buffer lives in this frame because
/// returning it from the context closure cost ~60 ns a record in
/// `memcpy` calls.
fn dispatch(
    kind: EventKind,
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: &[(&'static str, Value<'_>)],
    edit: impl FnOnce(&mut Vec<&'static str>) -> bool,
) -> bool {
    let mut inline = [""; INLINE_DEPTH];
    let mut spilled = Vec::new();
    let stamped = CONTEXT.with(|c| {
        let mut borrow = c.borrow_mut();
        let ctx = borrow.as_mut()?;
        if !edit(&mut ctx.span_stack) || level < ctx.min_level {
            return None;
        }
        let seq = ctx.seq;
        ctx.seq += 1;
        let stack = &ctx.span_stack;
        if stack.len() <= INLINE_DEPTH {
            for (slot, &span) in inline.iter_mut().zip(stack) {
                *slot = span;
            }
        } else {
            spilled.extend_from_slice(stack);
        }
        Some((seq, stack.len(), Rc::clone(&ctx.sinks)))
    });
    let Some((seq, depth, sinks)) = stamped else {
        return false;
    };
    let record = Record {
        seq,
        kind,
        level,
        target,
        name,
        span_path: inline.get(..depth).unwrap_or(&spilled),
        fields,
    };
    for sink in sinks.iter() {
        if level >= sink.min_level() {
            sink.record(&record);
        }
    }
    true
}

/// Stamps an event in the installed context and fans it out to the
/// sinks. Prefer the [`event!`] macro, which adds the `enabled` fast
/// path and captures `module_path!()` for you.
pub fn dispatch_event(
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: &[(&'static str, Value<'_>)],
) {
    dispatch(EventKind::Event, level, target, name, fields, |_| true);
}

/// RAII handle for an entered span; exits (and emits the `SpanExit`
/// record) on drop. Obtained from the [`span!`] macro.
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when telemetry was disabled at entry (pure no-op guard).
    name: Option<&'static str>,
    target: &'static str,
    level: Level,
}

impl SpanGuard {
    /// A guard for a span that was never entered: dropping it does
    /// nothing. The [`span!`] macro returns it when the level is
    /// disabled.
    pub fn disabled() -> Self {
        SpanGuard {
            name: None,
            target: "",
            level: Level::Trace,
        }
    }
}

/// Enters a span: emits a `SpanEnter` record and pushes `name` onto the
/// thread's span stack. Prefer the [`span!`] macro.
pub fn enter_span(
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: &[(&'static str, Value<'_>)],
) -> SpanGuard {
    if !dispatch(EventKind::SpanEnter, level, target, name, fields, |_| true) {
        return SpanGuard::disabled();
    }
    CONTEXT.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            ctx.span_stack.push(name);
        }
    });
    SpanGuard {
        name: Some(name),
        target,
        level,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else {
            return;
        };
        // Pop only if this span is still the innermost one — if the
        // context was swapped out underneath us, do nothing.
        let pop = |stack: &mut Vec<&'static str>| {
            let innermost = stack.last() == Some(&name);
            if innermost {
                stack.pop();
            }
            innermost
        };
        dispatch(EventKind::SpanExit, self.level, self.target, name, &[], pop);
    }
}

/// Emits a structured event: `event!(Level::Warn, "retry", attempt = 2)`.
///
/// The name is a `&'static str` (in practice a literal); keys are bare
/// identifiers; values are anything that implements [`AsValue`]
/// (integers, floats, bools, strings). Each value is borrowed into a
/// slice on the stack, so a temporary such as `n.to_string()` lives to
/// the end of the statement. With no installed context, or below the
/// context's level, this costs one thread-local read — the field
/// expressions are not evaluated.
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::dispatch_event(
                $level,
                module_path!(),
                $name,
                &[$((stringify!($key), $crate::AsValue::as_value(&$value))),*],
            );
        }
    };
}

/// Enters a span and returns its [`SpanGuard`]:
/// `let _g = span!(Level::Info, "campaign", bench = "milc");`
///
/// Events emitted while the guard lives carry the span's name (a
/// `&'static str`) in their `span_path`. Bind the guard to a name (`_g`,
/// not `_`) or it exits immediately. Fields are passed as in [`event!`],
/// and evaluated only when the level is enabled.
#[macro_export]
macro_rules! span {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::enter_span(
                $level,
                module_path!(),
                $name,
                &[$((stringify!($key), $crate::AsValue::as_value(&$value))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Increments a counter in the installed registry:
/// `counter!("campaign_runs_total")` or `counter!("ce_total", 3)`.
/// No-op without a registry.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1)
    };
    ($name:expr, $delta:expr) => {{
        let _ = $crate::with_registry(|reg| reg.counter_add($name, $delta));
    }};
}

/// Sets a gauge in the installed registry: `gauge!("margin_mv", 15.0)`.
/// No-op without a registry.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {{
        let _ = $crate::with_registry(|reg| reg.gauge_set($name, $value));
    }};
}

/// Observes a value into a histogram of the installed registry:
/// `observe!("pid_abs_error", err)`. Auto-creates the histogram with
/// [`metrics::SIM_MS_BUCKETS`] unless previously declared. No-op
/// without a registry.
#[macro_export]
macro_rules! observe {
    ($name:expr, $value:expr) => {{
        let _ = $crate::with_registry(|reg| reg.observe($name, $value));
    }};
}

/// Times the rest of the enclosing scope on the wall clock, observing
/// the elapsed seconds into histogram `$name` on scope exit:
/// `time_scope!("vmin_search_seconds");`. No-op without a registry.
#[macro_export]
macro_rules! time_scope {
    ($name:expr) => {
        let _telemetry_wall_timer = $crate::profile::WallTimer::start($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_context_means_disabled_and_silent() {
        assert!(!enabled(Level::Error));
        assert!(!has_registry());
        event!(Level::Error, "nothing", n = 1u32);
        let _g = span!(Level::Info, "ghost");
        counter!("nope");
    }

    #[test]
    fn events_reach_sinks_with_monotonic_seq() {
        let sink = Rc::new(CaptureSink::new());
        let _guard = Telemetry::new().with_shared_sink(sink.clone()).install();
        event!(Level::Info, "a", x = 1u32);
        event!(Level::Warn, "b", y = -2i32, label = "hot");
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(
            events[1].field("label"),
            Some(&FieldValue::Str("hot".into()))
        );
        assert_eq!(events[1].target, module_path!());
    }

    #[test]
    fn spans_nest_and_unwind_in_order() {
        let sink = Rc::new(CaptureSink::new());
        let _guard = Telemetry::new().with_shared_sink(sink.clone()).install();
        {
            let _c = span!(Level::Info, "campaign", bench = "milc");
            {
                let _s = span!(Level::Debug, "setup", voltage_mv = 900u32);
                event!(Level::Info, "run_complete", outcome = "correct");
            }
            event!(Level::Info, "between");
        }
        let events = sink.events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::SpanEnter,
                EventKind::SpanEnter,
                EventKind::Event,
                EventKind::SpanExit,
                EventKind::Event,
                EventKind::SpanExit,
            ]
        );
        assert_eq!(
            events[2].span_path,
            vec!["campaign".to_owned(), "setup".to_owned()]
        );
        assert_eq!(events[4].span_path, vec!["campaign".to_owned()]);
        // Exit records carry the path *around* the span.
        assert_eq!(events[3].span_path, vec!["campaign".to_owned()]);
        assert!(events[5].span_path.is_empty());
    }

    /// Emits one nested event from inside `record` when it sees `outer`.
    struct Echo;

    impl Sink for Echo {
        fn record(&self, record: &Record<'_>) {
            if record.name == "outer" {
                event!(Level::Info, "nested", of = record.seq);
            }
        }
    }

    #[test]
    fn a_sink_may_emit_an_event_from_inside_record() {
        let before = Rc::new(CaptureSink::new());
        let after = Rc::new(CaptureSink::new());
        let _guard = Telemetry::new()
            .with_shared_sink(before.clone())
            .with_sink(Echo)
            .with_shared_sink(after.clone())
            .install();
        {
            let _campaign = span!(Level::Info, "campaign");
            event!(Level::Info, "outer", n = 1u32);
        }
        event!(Level::Info, "next");
        let seen = |sink: &CaptureSink| -> Vec<(String, u64)> {
            sink.events()
                .iter()
                .map(|e| (e.name.to_string(), e.seq))
                .collect()
        };
        let expected = |names: [(&str, u64); 5]| -> Vec<(String, u64)> {
            names.iter().map(|&(n, s)| (n.to_owned(), s)).collect()
        };
        // The nested event takes the next sequence number. A sink before
        // the emitter sees it after `outer`; one after the emitter sees it
        // first, because the nested dispatch completes inside `outer`'s.
        assert_eq!(
            seen(&before),
            expected([
                ("campaign", 0),
                ("outer", 1),
                ("nested", 2),
                ("campaign", 3),
                ("next", 4)
            ])
        );
        assert_eq!(
            seen(&after),
            expected([
                ("campaign", 0),
                ("nested", 2),
                ("outer", 1),
                ("campaign", 3),
                ("next", 4)
            ])
        );
        let nested = &after.named("nested")[0];
        assert_eq!(nested.field("of"), Some(&FieldValue::U64(1)));
        assert_eq!(nested.span_path, vec!["campaign".to_owned()]);
    }

    #[test]
    fn min_level_filters_and_defaults_to_most_verbose_sink() {
        let sink = Rc::new(CaptureSink::new().with_min_level(Level::Info));
        let _guard = Telemetry::new().with_shared_sink(sink.clone()).install();
        assert!(!enabled(Level::Debug), "context min follows sink min");
        assert!(enabled(Level::Info));
        event!(Level::Debug, "dropped");
        event!(Level::Info, "kept");
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn per_sink_levels_filter_independently() {
        let verbose = Rc::new(CaptureSink::new());
        let quiet = Rc::new(CaptureSink::new().with_min_level(Level::Warn));
        let _guard = Telemetry::new()
            .with_shared_sink(verbose.clone())
            .with_shared_sink(quiet.clone())
            .install();
        event!(Level::Info, "routine");
        event!(Level::Error, "bad");
        assert_eq!(verbose.len(), 2);
        assert_eq!(quiet.len(), 1);
        assert_eq!(quiet.events()[0].name, "bad");
    }

    #[test]
    fn guard_restores_previous_context() {
        let outer = Rc::new(CaptureSink::new());
        let _outer_guard = Telemetry::new().with_shared_sink(outer.clone()).install();
        event!(Level::Info, "outer_before");
        {
            let inner = Rc::new(CaptureSink::new());
            let _inner_guard = Telemetry::new().with_shared_sink(inner.clone()).install();
            event!(Level::Info, "inner_only");
            assert_eq!(inner.len(), 1);
        }
        event!(Level::Info, "outer_after");
        let names: Vec<String> = outer.events().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(
            names,
            vec!["outer_before".to_owned(), "outer_after".to_owned()]
        );
        // seq resumes in the restored context without gaps from the inner one.
        assert_eq!(outer.events()[1].seq, 1);
    }

    #[test]
    fn registry_macros_accumulate() {
        let reg = Rc::new(Registry::new());
        let _guard = Telemetry::new().with_registry(reg.clone()).install();
        counter!("runs_total");
        counter!("runs_total", 4);
        gauge!("margin_mv", 12.5);
        observe!("lat_ms", 3.0);
        assert_eq!(reg.counter("runs_total"), 5);
        assert_eq!(reg.gauge("margin_mv"), Some(12.5));
        assert_eq!(reg.histogram("lat_ms").unwrap().count(), 1);
    }

    #[test]
    fn registry_only_context_admits_trace() {
        let reg = Rc::new(Registry::new());
        let _guard = Telemetry::new().with_registry(reg).install();
        assert!(enabled(Level::Trace));
    }

    #[test]
    fn time_scope_macro_records_once() {
        let reg = Rc::new(Registry::new());
        let _guard = Telemetry::new().with_registry(reg.clone()).install();
        {
            time_scope!("step_seconds");
        }
        assert_eq!(reg.histogram("step_seconds").unwrap().count(), 1);
    }

    #[test]
    fn flight_recorder_integrates_as_sink() {
        let rec = Rc::new(FlightRecorder::with_capacity(16));
        let _guard = Telemetry::new().with_shared_sink(rec.clone()).install();
        for i in 0..5u32 {
            event!(Level::Info, "step", i = i);
        }
        event!(Level::Error, "quarantine", setup = "milc@830mV");
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].events.len(), 6);
        assert_eq!(dumps[0].trigger_name, "quarantine");
        let seqs: Vec<u64> = dumps[0].events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "emission order");
    }
}
