//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and op id. Spans are kept
//! in memory and written once, at exit, as Chrome `trace_event` JSON.
//! A layer's self time is its span minus the union of its children.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Op id of spans that belong to no op (attribution probes).
pub const NO_OP: u64 = u64::MAX;

/// Name of the root span of one traced op.
pub const OP_SPAN: &str = "op";

/// One closed span. Times are ns since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// `layer.what`, or [`OP_SPAN`].
    pub name: &'static str,
    /// The op this span belongs to, or [`NO_OP`].
    pub op: u64,
    /// Small per-thread id.
    pub tid: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

impl Tracer {
    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent further spans (on any thread).
    pub fn span<R>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce(u64) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.push(Span {
            id,
            parent,
            name,
            op,
            tid: thread_id(),
            start,
            end,
        });
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
}

impl NameStats {
    /// Mean duration per span, in `unit_ns` units (1e6 → ms).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

/// Analysis of a finished trace.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Totals by span name.
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Per traced op: share of its wall time that named layer spans
    /// (on any thread) cover.
    pub coverage: Vec<f64>,
    /// Per traced op: wall time named layer spans cover, ns.
    pub covered_ns: Vec<u64>,
    /// Self time inside traced ops by layer (the name's first segment), ns.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
}

impl Analysis {
    /// Totals for `name` (zero when absent).
    pub fn get(&self, name: &str) -> NameStats {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

/// Computes per-name totals, per-layer self times and per-op coverage.
pub fn analyze(spans: &[Span]) -> Analysis {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut in_op: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        if s.op != NO_OP && s.name != OP_SPAN {
            in_op.entry(s.op).or_default().push((s.start, s.end));
        }
    }
    let mut analysis = Analysis::default();
    for s in spans {
        let entry = analysis.by_name.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += s.dur();
        if s.op != NO_OP && s.name != OP_SPAN {
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *analysis.layer_self_ns.entry(layer).or_default() +=
                s.dur() - covered(kids, s.start, s.end);
        }
        if s.name == OP_SPAN && s.dur() > 0 {
            let layers = in_op.get(&s.op).cloned().unwrap_or_default();
            let ns = covered(layers, s.start, s.end);
            analysis.covered_ns.push(ns);
            analysis.coverage.push(ns as f64 / s.dur() as f64);
        }
    }
    analysis
}

/// Chrome `trace_event` JSON (complete events, µs timestamps).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let op = if s.op == NO_OP {
            "null".to_owned()
        } else {
            s.op.to_string()
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            op
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, op: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op,
            tid: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, OP_SPAN, 0, 0, 100),
            span(2, 1, "fleet.job", 0, 10, 60),
            span(3, 1, "fleet.job", 0, 40, 90),
            span(4, 2, "dram-sim.population", 0, 20, 30),
        ];
        let a = analyze(&spans);
        assert_eq!(a.get("fleet.job").total_ns, 100);
        assert_eq!(a.layer_self_ns["fleet"], 90);
        assert_eq!(a.layer_self_ns["dram-sim"], 10);
        assert_eq!(a.coverage, vec![0.8]);
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let tracer = Tracer::default();
        tracer.span(OP_SPAN, 0, 7, |op| {
            tracer.span("core.store", op, 7, |_| ());
        });
        let json = chrome_json(&tracer.spans());
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"cat\":\"core\""));
    }
}
