//! The metrics registry: counters, gauges and fixed-bucket histograms
//! with Prometheus-style text exposition and JSON export.
//!
//! A [`Registry`] is a plain value with interior mutability — share it as
//! `Rc<Registry>` between the telemetry context (so the `counter!` /
//! `gauge!` / `observe!` macros can reach it) and the reporting code that
//! renders it at the end of a campaign. Snapshots ([`MetricsSnapshot`])
//! are inert serializable data, used both for JSON export and for
//! embedding campaign metrics in checkpoints.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default buckets for wall-clock durations, in seconds (1 µs … 10 s).
pub const WALL_SECONDS_BUCKETS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Default buckets for simulated durations, in milliseconds
/// (0.1 ms … 1000 s).
pub const SIM_MS_BUCKETS: [f64; 8] = [0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6];

/// Geometric bucket bounds: `start, start·factor, …` for `count`
/// buckets. The shape request-latency distributions want — a linear
/// ladder wastes resolution at one end of a µs→s range, a geometric one
/// keeps relative error constant across it.
///
/// # Panics
///
/// Panics if `start` is not positive and finite, `factor` is not finite
/// and greater than 1, or `count` is zero.
pub fn exponential_bounds(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(
        start.is_finite() && start > 0.0,
        "exponential buckets need a positive finite start"
    );
    assert!(
        factor.is_finite() && factor > 1.0,
        "exponential buckets need a finite growth factor > 1"
    );
    assert!(count > 0, "histogram needs at least one bucket");
    let mut bounds = Vec::with_capacity(count);
    let mut bound = start;
    for _ in 0..count {
        bounds.push(bound);
        bound *= factor;
    }
    assert!(
        bounds.iter().all(|b| b.is_finite()),
        "exponential buckets overflowed to infinity"
    );
    bounds
}

/// A fixed-bucket histogram (Prometheus semantics: cumulative `le`
/// buckets plus an implicit `+Inf` overflow, a sum and a count). The
/// registry keeps them live and [`MetricsSnapshot`] carries copies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Finite upper bounds, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `counts[bounds.len()]` is the
    /// `+Inf` overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with the given finite upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite (+Inf is implicit)"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Creates a histogram with geometric bucket bounds
    /// `start, start·factor, …` (`count` finite buckets plus the
    /// implicit `+Inf` overflow) — suited to request latencies spanning
    /// microseconds to seconds.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (see [`exponential_bounds`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use telemetry::metrics::Histogram;
    ///
    /// // 1 µs … ~1 s in seconds, doubling: 21 buckets.
    /// let h = Histogram::exponential(1e-6, 2.0, 21);
    /// assert_eq!(h.count(), 0);
    /// ```
    pub fn exponential(start: f64, factor: f64, count: usize) -> Self {
        Histogram::new(&exponential_bounds(start, factor, count))
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Finite upper bounds, strictly increasing.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the `+Inf`
    /// overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Cumulative count at each finite bound, then at `+Inf` — the
    /// Prometheus `_bucket` series.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Estimated `q`-quantile of the recorded distribution.
    ///
    /// Prometheus `histogram_quantile` semantics: the bucket containing
    /// rank `q·count` is found and the value is interpolated linearly
    /// within it, with the first bucket interpolating up from 0. Returns
    /// `None` for an empty histogram or `q` outside `[0, 1]`; ranks that
    /// land in the `+Inf` overflow bucket report the highest finite bound
    /// (a lower bound on the truth, exactly as Prometheus does).
    ///
    /// # Examples
    ///
    /// ```
    /// use telemetry::metrics::Histogram;
    ///
    /// let mut h = Histogram::new(&[10.0, 20.0]);
    /// for _ in 0..4 {
    ///     h.observe(15.0);
    /// }
    /// // All mass sits in (10, 20]: the median interpolates to 15.
    /// assert_eq!(h.quantile(0.5), Some(15.0));
    /// ```
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) || self.count == 0 {
            return None;
        }
        let target = q * self.count as f64;
        let mut cum = 0.0;
        let mut lower = 0.0;
        for (&bound, &in_bucket) in self.bounds.iter().zip(&self.counts) {
            let in_bucket = in_bucket as f64;
            if cum + in_bucket >= target && in_bucket > 0.0 {
                let frac = ((target - cum) / in_bucket).clamp(0.0, 1.0);
                return Some(lower + (bound - lower) * frac);
            }
            cum += in_bucket;
            lower = bound;
        }
        self.bounds.last().copied()
    }

    /// Estimated median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// Serializable snapshot of a whole [`Registry`].
///
/// Every vector is sorted by the full series name — the metric family
/// plus its canonical label signature (see [`series_name`]) — and the
/// lookup methods binary-search on that invariant. Snapshots produced
/// by [`Registry::snapshot`] always satisfy it; hand-built snapshots
/// must keep their vectors name-sorted.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by full series name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by full series name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by full series name.
    pub histograms: Vec<(String, Histogram)>,
}

/// Binary-searches a name-sorted series vector.
fn lookup<'a, V>(series: &'a [(String, V)], name: &str) -> Option<&'a V> {
    series
        .binary_search_by(|(n, _)| n.as_str().cmp(name))
        .ok()
        .map(|index| &series[index].1)
}

impl MetricsSnapshot {
    /// Looks up a counter by full series name (binary search).
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// Looks up a gauge by full series name (binary search).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        lookup(&self.gauges, name).copied()
    }

    /// Looks up a histogram by full series name (binary search).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        lookup(&self.histograms, name)
    }
}

/// Canonical label signature: keys sorted, values escaped, rendered as
/// `{k="v",k2="v2"}`. No labels give the empty signature, so bare
/// series are just their family name.
fn label_signature(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::from("{");
    for (index, (key, value)) in sorted.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// The full series name of a labeled metric: the family name plus the
/// canonical (key-sorted, value-escaped) label signature. This is the
/// key [`MetricsSnapshot`] lookups expect for labeled series.
pub fn series_name(name: &str, labels: &[(&str, &str)]) -> String {
    format!("{name}{}", label_signature(labels))
}

/// Splits a full series name into `(family, label signature)`; the
/// signature keeps its braces and is empty for a bare series.
fn split_series(name: &str) -> (&str, &str) {
    name.split_at(name.find('{').unwrap_or(name.len()))
}

/// Inserts `le="bound"` as the last label of a (possibly empty)
/// signature — the Prometheus `_bucket` series shape.
fn bucket_signature(sig: &str, bound: &str) -> String {
    if sig.is_empty() {
        format!("{{le=\"{bound}\"}}")
    } else {
        format!("{},le=\"{bound}\"}}", &sig[..sig.len() - 1])
    }
}

/// The series of one metric family: the bare (unlabeled) series in a
/// slot of its own, labeled series by their label signature.
///
/// The bare series is not filed under an empty-signature key: every
/// unlabeled `counter!`/`observe!` would then compare two empty strings,
/// and with the dangling pointer of an empty `String` that compare is
/// slow in glibc's `memcmp` — 107–143 ns against 2–3 ns for heap
/// pointers on the 2-core x86-64 benchmark VM, more than a whole map
/// lookup.
#[derive(Debug)]
struct Family<V> {
    bare: Option<V>,
    labeled: BTreeMap<String, V>,
}

impl<V> Default for Family<V> {
    fn default() -> Self {
        Family {
            bare: None,
            labeled: BTreeMap::new(),
        }
    }
}

impl<V> Family<V> {
    /// The series with this label signature (empty for the bare one).
    fn get(&self, sig: &str) -> Option<&V> {
        if sig.is_empty() {
            self.bare.as_ref()
        } else {
            self.labeled.get(sig)
        }
    }

    /// Sets the series with this label signature.
    fn insert(&mut self, sig: &str, value: V) {
        if sig.is_empty() {
            self.bare = Some(value);
        } else {
            self.labeled.insert(sig.to_owned(), value);
        }
    }

    /// Applies `update` to the series with this label signature,
    /// creating it with `init` first if it does not exist.
    fn upsert(&mut self, sig: &str, init: impl FnOnce() -> V, update: impl FnOnce(&mut V)) {
        if sig.is_empty() {
            update(self.bare.get_or_insert_with(init));
        } else if let Some(value) = self.labeled.get_mut(sig) {
            update(value);
        } else {
            let mut value = init();
            update(&mut value);
            self.labeled.insert(sig.to_owned(), value);
        }
    }

    /// Every series as `(signature, value)`: the bare series first,
    /// then the labeled ones in signature order.
    fn series(&self) -> impl Iterator<Item = (&str, &V)> {
        let bare = self.bare.as_ref().map(|v| ("", v));
        bare.into_iter()
            .chain(self.labeled.iter().map(|(sig, v)| (sig.as_str(), v)))
    }
}

/// [`Family::upsert`] on the series `sig` of `family`. Keys are
/// allocated only when the family or the series is created.
fn upsert<V>(
    families: &mut BTreeMap<String, Family<V>>,
    family: &str,
    sig: &str,
    init: impl FnOnce() -> V,
    update: impl FnOnce(&mut V),
) {
    match families.get_mut(family) {
        Some(series) => series.upsert(sig, init, update),
        None => {
            let mut series = Family::default();
            series.upsert(sig, init, update);
            families.insert(family.to_owned(), series);
        }
    }
}

/// The series `sig` of `family`, if it exists.
fn find<'a, V>(
    families: &'a BTreeMap<String, Family<V>>,
    family: &str,
    sig: &str,
) -> Option<&'a V> {
    families.get(family).and_then(|series| series.get(sig))
}

/// Per-family series maps: family name → [`Family`]. Keeping families
/// separate (rather than flat `name{labels}` strings) is what makes
/// Prometheus exposition group a family under one `# TYPE` line — a
/// flat map would interleave, since `'_'` sorts before `'{'`.
#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Family<u64>>,
    gauges: BTreeMap<String, Family<f64>>,
    histograms: BTreeMap<String, Family<Histogram>>,
}

/// The metrics registry.
///
/// # Examples
///
/// ```
/// use telemetry::metrics::Registry;
///
/// let reg = Registry::new();
/// reg.counter_add("campaign_runs_total", 3);
/// reg.gauge_set("margin_mv", 15.0);
/// reg.register_histogram("backoff_ms", &[100.0, 1000.0, 10_000.0]);
/// reg.observe("backoff_ms", 500.0);
/// assert_eq!(reg.counter("campaign_runs_total"), 3);
/// assert!(reg.prometheus().contains("backoff_ms_bucket{le=\"1000\"} 1"));
///
/// // Per-board series share one metric family via label sets.
/// reg.gauge_set_labeled("ce_rate", &[("board", "b17")], 0.25);
/// assert_eq!(reg.gauge_labeled("ce_rate", &[("board", "b17")]), Some(0.25));
/// assert!(reg.prometheus().contains("ce_rate{board=\"b17\"} 0.25"));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    inner: RefCell<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Rebuilds a registry from a snapshot (counters and gauges restored
    /// exactly; histograms keep their bounds and counts). Labeled series
    /// names are parsed back into their family and signature.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> Self {
        let reg = Registry::new();
        {
            fn restore<V>(families: &mut BTreeMap<String, Family<V>>, name: &str, value: V) {
                let (family, sig) = split_series(name);
                families
                    .entry(family.to_owned())
                    .or_default()
                    .insert(sig, value);
            }
            let mut inner = reg.inner.borrow_mut();
            for (name, v) in &snapshot.counters {
                restore(&mut inner.counters, name, *v);
            }
            for (name, v) in &snapshot.gauges {
                restore(&mut inner.gauges, name, *v);
            }
            for (name, h) in &snapshot.histograms {
                restore(&mut inner.histograms, name, h.clone());
            }
        }
        reg
    }

    /// Adds `delta` to a counter (created at zero on first touch). A
    /// `name{labels}` series name addresses the labeled series.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let (family, sig) = split_series(name);
        let counters = &mut self.inner.borrow_mut().counters;
        upsert(counters, family, sig, || 0, |c| *c += delta);
    }

    /// Adds `delta` to the labeled series of a counter family.
    pub fn counter_add_labeled(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let counters = &mut self.inner.borrow_mut().counters;
        let sig = label_signature(labels);
        upsert(counters, name, &sig, || 0, |c| *c += delta);
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let (family, sig) = split_series(name);
        find(&self.inner.borrow().counters, family, sig)
            .copied()
            .unwrap_or(0)
    }

    /// Current value of a labeled counter series (zero if never
    /// touched).
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let sig = label_signature(labels);
        find(&self.inner.borrow().counters, name, &sig)
            .copied()
            .unwrap_or(0)
    }

    /// Sets a gauge. A `name{labels}` series name addresses the labeled
    /// series.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let (family, sig) = split_series(name);
        let gauges = &mut self.inner.borrow_mut().gauges;
        upsert(gauges, family, sig, || value, |g| *g = value);
    }

    /// Sets the labeled series of a gauge family.
    pub fn gauge_set_labeled(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let gauges = &mut self.inner.borrow_mut().gauges;
        let sig = label_signature(labels);
        upsert(gauges, name, &sig, || value, |g| *g = value);
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let (family, sig) = split_series(name);
        find(&self.inner.borrow().gauges, family, sig).copied()
    }

    /// Current value of a labeled gauge series, if ever set.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        find(&self.inner.borrow().gauges, name, &label_signature(labels)).copied()
    }

    /// Declares a histogram with explicit bucket bounds. Re-declaring an
    /// existing histogram keeps the original (observations are never
    /// dropped).
    ///
    /// # Panics
    ///
    /// Panics on invalid bounds (see [`Histogram::new`]).
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        let (family, sig) = split_series(name);
        let histograms = &mut self.inner.borrow_mut().histograms;
        upsert(histograms, family, sig, || Histogram::new(bounds), |_| {});
    }

    /// Records one observation; auto-creates the histogram with
    /// [`SIM_MS_BUCKETS`] if it was never declared.
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_or_declare(name, &SIM_MS_BUCKETS, value);
    }

    /// Records one observation, creating the histogram with `bounds`
    /// if it does not exist yet: [`Self::register_histogram`] and
    /// [`Self::observe`] in one lookup.
    pub(crate) fn observe_or_declare(&self, name: &str, bounds: &[f64], value: f64) {
        let (family, sig) = split_series(name);
        let histograms = &mut self.inner.borrow_mut().histograms;
        let init = || Histogram::new(bounds);
        upsert(histograms, family, sig, init, |h| h.observe(value));
    }

    /// Records one observation on the labeled series of a histogram
    /// family (auto-created with [`SIM_MS_BUCKETS`] if undeclared).
    pub fn observe_labeled(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let histograms = &mut self.inner.borrow_mut().histograms;
        let sig = label_signature(labels);
        let init = || Histogram::new(&SIM_MS_BUCKETS);
        upsert(histograms, name, &sig, init, |h| h.observe(value));
    }

    /// A copy of a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        let (family, sig) = split_series(name);
        find(&self.inner.borrow().histograms, family, sig).cloned()
    }

    /// Estimated `q`-quantile of a histogram (see
    /// [`Histogram::quantile`]); `None` if the histogram does not exist
    /// or is empty.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        let (family, sig) = split_series(name);
        find(&self.inner.borrow().histograms, family, sig).and_then(|h| h.quantile(q))
    }

    /// The inert snapshot of everything in the registry, with every
    /// vector sorted by full series name (the invariant
    /// [`MetricsSnapshot`] lookups binary-search on).
    pub fn snapshot(&self) -> MetricsSnapshot {
        fn flatten<V, S>(
            families: &BTreeMap<String, Family<V>>,
            snap: fn(&V) -> S,
        ) -> Vec<(String, S)> {
            let mut out: Vec<(String, S)> = families
                .iter()
                .flat_map(|(family, series)| {
                    series
                        .series()
                        .map(move |(sig, v)| (format!("{family}{sig}"), snap(v)))
                })
                .collect();
            // Family-then-signature order is NOT full-string order
            // ('_' sorts before '{'), so sort explicitly.
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        }
        let inner = self.inner.borrow();
        MetricsSnapshot {
            counters: flatten(&inner.counters, |v| *v),
            gauges: flatten(&inner.gauges, |v| *v),
            histograms: flatten(&inner.histograms, Histogram::clone),
        }
    }

    /// Prometheus-style text exposition of the whole registry, in
    /// deterministic order: families sorted by name, one `# TYPE` line
    /// per family, the bare series first and labeled series after it in
    /// signature order.
    pub fn prometheus(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        for (family, series) in &inner.counters {
            let _ = writeln!(out, "# TYPE {family} counter");
            for (sig, v) in series.series() {
                let _ = writeln!(out, "{family}{sig} {v}");
            }
        }
        for (family, series) in &inner.gauges {
            let _ = writeln!(out, "# TYPE {family} gauge");
            for (sig, v) in series.series() {
                let _ = writeln!(out, "{family}{sig} {v}");
            }
        }
        for (family, series) in &inner.histograms {
            let _ = writeln!(out, "# TYPE {family} histogram");
            for (sig, h) in series.series() {
                let cumulative = h.cumulative();
                for (bound, cum) in h.bounds.iter().zip(&cumulative) {
                    let _ = writeln!(
                        out,
                        "{family}_bucket{} {cum}",
                        bucket_signature(sig, &bound.to_string())
                    );
                }
                let _ = writeln!(
                    out,
                    "{family}_bucket{} {}",
                    bucket_signature(sig, "+Inf"),
                    cumulative.last().copied().unwrap_or(0)
                );
                let _ = writeln!(out, "{family}_sum{sig} {}", h.sum());
                let _ = writeln!(out, "{family}_count{sig} {}", h.count());
            }
        }
        out
    }

    /// JSON export of the registry snapshot.
    pub fn to_json(&self) -> String {
        serde::json::to_string(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_observations_by_upper_bound() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.observe(0.5); // le=1
        h.observe(1.0); // le=1 (inclusive upper bound)
        h.observe(5.0); // le=10
        h.observe(100.0); // le=100
        h.observe(1e9); // +Inf overflow
        assert_eq!(h.counts, vec![2, 1, 1, 1]);
        assert_eq!(h.cumulative(), vec![2, 3, 4, 5]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 1_000_000_106.5).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_rejects_empty_bounds() {
        let _ = Histogram::new(&[]);
    }

    #[test]
    fn exposition_format_matches_prometheus_shape() {
        let reg = Registry::new();
        reg.counter_add("runs_total", 7);
        reg.gauge_set("margin_mv", 12.5);
        reg.register_histogram("lat_ms", &[1.0, 10.0]);
        reg.observe("lat_ms", 0.4);
        reg.observe("lat_ms", 4.0);
        reg.observe("lat_ms", 40.0);
        let text = reg.prometheus();
        let expected = "\
# TYPE runs_total counter
runs_total 7
# TYPE margin_mv gauge
margin_mv 12.5
# TYPE lat_ms histogram
lat_ms_bucket{le=\"1\"} 1
lat_ms_bucket{le=\"10\"} 2
lat_ms_bucket{le=\"+Inf\"} 3
lat_ms_sum 44.4
lat_ms_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = Registry::new();
        reg.counter_add("c", 1);
        reg.counter_add("c", 2);
        assert_eq!(reg.counter("c"), 3);
        assert_eq!(reg.counter("never"), 0);
        reg.gauge_set("g", 1.0);
        reg.gauge_set("g", -2.0);
        assert_eq!(reg.gauge("g"), Some(-2.0));
        assert_eq!(reg.gauge("never"), None);
    }

    #[test]
    fn snapshot_roundtrips_through_json_and_registry() {
        let reg = Registry::new();
        reg.counter_add("runs", 5);
        reg.gauge_set("v", 900.0);
        reg.register_histogram("h", &[1.0, 2.0]);
        reg.observe("h", 1.5);
        let snap = reg.snapshot();
        let text = serde::json::to_string(&snap);
        let back: MetricsSnapshot = serde::json::from_str(&text).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.counter("runs"), Some(5));
        assert_eq!(back.gauge("v"), Some(900.0));
        assert_eq!(back.histogram("h").unwrap().count, 1);

        let restored = Registry::from_snapshot(&back);
        assert_eq!(restored.snapshot(), snap);
        // The restored registry keeps accumulating where it left off.
        restored.counter_add("runs", 1);
        assert_eq!(restored.counter("runs"), 6);
    }

    #[test]
    fn quantile_interpolates_within_the_bucket() {
        let mut h = Histogram::new(&[10.0, 20.0, 40.0]);
        // 2 in (0,10], 2 in (10,20], 4 in (20,40].
        for v in [5.0, 5.0, 15.0, 15.0, 30.0, 30.0, 30.0, 30.0] {
            h.observe(v);
        }
        // p25 → rank 2 of 8, the full first bucket: its upper bound.
        assert_eq!(h.quantile(0.25), Some(10.0));
        // p50 → rank 4, end of the second bucket.
        assert_eq!(h.quantile(0.50), Some(20.0));
        // p75 → rank 6, halfway through the (20,40] bucket.
        assert_eq!(h.quantile(0.75), Some(30.0));
        assert_eq!(h.p50(), h.quantile(0.5));
    }

    #[test]
    fn quantile_on_bucket_boundary_is_the_bound_itself() {
        // Observations exactly on a bucket's upper bound land in that
        // bucket (inclusive `le`), so the top quantile of a boundary-only
        // histogram is the bound itself, not the next bucket up.
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        for _ in 0..10 {
            h.observe(10.0);
        }
        assert_eq!(h.quantile(1.0), Some(10.0));
        assert_eq!(h.p50(), Some(5.5)); // interpolated inside (1,10]
    }

    #[test]
    fn lowest_bucket_interpolates_from_zero() {
        let mut h = Histogram::new(&[8.0, 16.0]);
        for _ in 0..4 {
            h.observe(2.0);
        }
        // Ranks interpolate linearly across (0, 8].
        assert_eq!(h.quantile(0.25), Some(2.0));
        assert_eq!(h.quantile(0.5), Some(4.0));
        assert_eq!(h.quantile(1.0), Some(8.0));
    }

    #[test]
    fn overflow_bucket_reports_the_highest_finite_bound() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1e9); // +Inf overflow
        assert_eq!(h.quantile(0.99), Some(2.0));
        assert_eq!(h.p99(), Some(2.0));
    }

    #[test]
    fn quantile_rejects_empty_and_out_of_range() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.quantile(0.5), None);
        let mut h = Histogram::new(&[1.0]);
        h.observe(0.5);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(0.0), Some(0.0));
    }

    #[test]
    fn quantile_skips_empty_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        h.observe(0.5); // (0,1]
        h.observe(6.0); // (4,8]
                        // The median rank (1 of 2) completes the first bucket; p75 must
                        // skip the two empty middle buckets and interpolate in (4,8].
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.75), Some(6.0));
    }

    #[test]
    fn registry_and_snapshot_agree_on_quantiles() {
        let reg = Registry::new();
        reg.register_histogram("margin_mv", &[25.0, 50.0, 100.0]);
        for v in [10.0, 30.0, 60.0, 70.0] {
            reg.observe("margin_mv", v);
        }
        let snap = reg.snapshot();
        let hist = snap.histogram("margin_mv").unwrap();
        assert_eq!(reg.quantile("margin_mv", 0.95), hist.p95());
        assert_eq!(reg.quantile("missing", 0.95), None);
        // The snapshot survives a JSON round trip with quantiles intact.
        let back: MetricsSnapshot = serde::json::from_str(&serde::json::to_string(&snap)).unwrap();
        assert_eq!(back.histogram("margin_mv").unwrap().p95(), hist.p95());
    }

    #[test]
    fn labeled_series_share_a_family_and_expose_in_order() {
        let reg = Registry::new();
        reg.counter_add("ce_total", 1);
        reg.counter_add_labeled("ce_total", &[("board", "b2")], 9);
        reg.counter_add_labeled("ce_total", &[("board", "b10")], 4);
        // A family whose name extends the other: with flat string keys
        // this would interleave between `ce_total` and `ce_total{...}`.
        reg.counter_add("ce_total_scrubbed", 2);
        reg.register_histogram("lat_ms{board=\"b2\"}", &[1.0]);
        reg.observe_labeled("lat_ms", &[("board", "b2")], 0.5);
        let text = reg.prometheus();
        let expected = "\
# TYPE ce_total counter
ce_total 1
ce_total{board=\"b10\"} 4
ce_total{board=\"b2\"} 9
# TYPE ce_total_scrubbed counter
ce_total_scrubbed 2
# TYPE lat_ms histogram
lat_ms_bucket{board=\"b2\",le=\"1\"} 1
lat_ms_bucket{board=\"b2\",le=\"+Inf\"} 1
lat_ms_sum{board=\"b2\"} 0.5
lat_ms_count{board=\"b2\"} 1
";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_order_does_not_matter_and_values_are_escaped() {
        let reg = Registry::new();
        reg.counter_add_labeled("c", &[("b", "x"), ("a", "y")], 1);
        reg.counter_add_labeled("c", &[("a", "y"), ("b", "x")], 1);
        assert_eq!(reg.counter_labeled("c", &[("b", "x"), ("a", "y")]), 2);
        assert_eq!(reg.counter("c{a=\"y\",b=\"x\"}"), 2);
        assert_eq!(
            series_name("c", &[("b", "x"), ("a", "y")]),
            "c{a=\"y\",b=\"x\"}"
        );

        reg.gauge_set_labeled("g", &[("who", "quo\"te\\back")], 1.0);
        assert!(reg.prometheus().contains("g{who=\"quo\\\"te\\\\back\"} 1"));
    }

    #[test]
    fn labeled_snapshots_are_name_sorted_and_round_trip() {
        let reg = Registry::new();
        reg.counter_add("jobs_total", 3);
        reg.counter_add_labeled("jobs", &[("board", "b1")], 1);
        reg.counter_add("jobs_failed", 2);
        reg.gauge_set_labeled("ce_rate", &[("board", "b1")], 0.5);
        reg.observe_labeled("lat", &[("board", "b1")], 1.0);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot must be full-name sorted");
        // Binary-search lookups find bare and labeled series alike.
        assert_eq!(snap.counter("jobs_total"), Some(3));
        assert_eq!(
            snap.counter(&series_name("jobs", &[("board", "b1")])),
            Some(1)
        );
        assert_eq!(snap.gauge("ce_rate{board=\"b1\"}"), Some(0.5));
        assert_eq!(snap.histogram("lat{board=\"b1\"}").unwrap().count, 1);
        assert_eq!(snap.counter("jobs"), None);

        let restored = Registry::from_snapshot(&snap);
        assert_eq!(restored.snapshot(), snap);
        restored.counter_add_labeled("jobs", &[("board", "b1")], 1);
        assert_eq!(restored.counter_labeled("jobs", &[("board", "b1")]), 2);
    }

    #[test]
    fn exponential_bounds_are_geometric_and_strictly_increasing() {
        let bounds = exponential_bounds(1e-6, 10.0, 7);
        assert_eq!(bounds.len(), 7);
        assert!((bounds[0] - 1e-6).abs() < 1e-18);
        for pair in bounds.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!((pair[1] / pair[0] - 10.0).abs() < 1e-9);
        }
        // The top of a 1 µs start with 7 decades is 1 s.
        assert!((bounds[6] - 1.0).abs() < 1e-9);
        // The constructor accepts them (they satisfy Histogram::new's
        // finite/increasing contract by construction).
        let h = Histogram::exponential(1e-6, 10.0, 7);
        assert_eq!(h.bounds(), bounds);
    }

    #[test]
    fn exponential_histogram_buckets_by_upper_bound() {
        let mut h = Histogram::exponential(1.0, 2.0, 4); // 1, 2, 4, 8
        h.observe(1.0); // le=1 (inclusive)
        h.observe(1.5); // le=2
        h.observe(8.0); // le=8
        h.observe(100.0); // +Inf overflow
        assert_eq!(h.cumulative(), vec![1, 2, 2, 3, 4]);
    }

    #[test]
    fn exponential_quantiles_interpolate_within_the_bucket() {
        // All mass in (2, 4]: the median interpolates linearly to 3 even
        // though the bucket widths grow geometrically.
        let mut h = Histogram::exponential(1.0, 2.0, 4);
        for _ in 0..8 {
            h.observe(3.0);
        }
        assert_eq!(h.p50(), Some(3.0));
        assert_eq!(h.quantile(0.25), Some(2.5));
        assert_eq!(h.quantile(1.0), Some(4.0));
        // Overflow observations report the highest finite bound.
        h.observe(1e9);
        assert_eq!(h.p99(), Some(8.0));
    }

    #[test]
    #[should_panic(expected = "growth factor")]
    fn exponential_rejects_non_growing_factor() {
        let _ = exponential_bounds(1.0, 1.0, 4);
    }

    #[test]
    #[should_panic(expected = "positive finite start")]
    fn exponential_rejects_zero_start() {
        let _ = exponential_bounds(0.0, 2.0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn exponential_rejects_zero_count() {
        let _ = exponential_bounds(1.0, 2.0, 0);
    }

    #[test]
    fn auto_created_histogram_uses_sim_buckets() {
        let reg = Registry::new();
        reg.observe("implicit", 50.0);
        let h = reg.histogram("implicit").unwrap();
        assert_eq!(h.bounds, SIM_MS_BUCKETS.to_vec());
        assert_eq!(h.count, 1);
    }
}
