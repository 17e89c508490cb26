//! The `control_plane_*` metrics family: request counters by route and
//! status class, an in-flight gauge and per-route latency histograms.
//!
//! Requests are counted in one [`telemetry::Registry`] behind a mutex:
//! the registry is `Send`, so the lock makes it shareable by every
//! worker thread, and `/metrics` renders it in the same exposition
//! format as everything else the workspace exports. Series names are
//! built once, so recording a request takes the lock once and allocates
//! only when a route's histogram first appears. The in-flight gauge is
//! an atomic, read when `/metrics` is scraped.

use crate::http::{path, Method};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use telemetry::metrics::{exponential_bounds, series_name, Histogram, MetricsSnapshot, Registry};

/// Accepted connections.
const CONNECTIONS: &str = "control_plane_connections_total";

/// Requests that failed HTTP parsing.
const PARSE_ERRORS: &str = "control_plane_parse_errors_total";

/// The routes the server serves, and so distinguishes in metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /v1/safe-point/{board}`
    SafePoint,
    /// `POST /v1/campaigns`
    CampaignSubmit,
    /// `GET /v1/campaigns` and `GET /v1/campaigns/{id}`
    CampaignStatus,
    /// `GET /v1/status`
    Status,
    /// `GET /v1/dispatch`
    Dispatch,
    /// `GET /metrics`
    Metrics,
    /// Anything else: every 404 and 405.
    Other,
}

/// Every route, in declaration order, so `route as usize` indexes it.
pub const ROUTES: [Route; 7] = [
    Route::SafePoint,
    Route::CampaignSubmit,
    Route::CampaignStatus,
    Route::Status,
    Route::Dispatch,
    Route::Metrics,
    Route::Other,
];

impl Route {
    /// The URL table: the route a method and target select, ignoring
    /// any `?query`. [`Router::handle`](crate::Router::handle) answers
    /// by it and counts the request under it.
    pub fn of(method: &Method, target: &str) -> Route {
        let path = path(target);
        match (method, path) {
            (Method::Get, _) if path.starts_with("/v1/safe-point/") => Route::SafePoint,
            (Method::Post, "/v1/campaigns") => Route::CampaignSubmit,
            (Method::Get, "/v1/campaigns") => Route::CampaignStatus,
            (Method::Get, _) if path.starts_with("/v1/campaigns/") => Route::CampaignStatus,
            (Method::Get, "/v1/status") => Route::Status,
            (Method::Get, "/v1/dispatch") => Route::Dispatch,
            (Method::Get, "/metrics") => Route::Metrics,
            _ => Route::Other,
        }
    }

    /// The `route` label value.
    pub fn label(self) -> &'static str {
        match self {
            Route::SafePoint => "safe_point",
            Route::CampaignSubmit => "campaign_submit",
            Route::CampaignStatus => "campaign_status",
            Route::Status => "status",
            Route::Dispatch => "dispatch",
            Route::Metrics => "metrics",
            Route::Other => "other",
        }
    }
}

/// Status classes the request counter distinguishes.
const CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

fn class_ordinal(status: u16) -> usize {
    match status {
        200..=299 => 0,
        400..=499 => 1,
        _ => 2,
    }
}

/// Latency bucket bounds, seconds: 1 µs … ~4.2 s, doubling. Chosen with
/// [`exponential_bounds`] so an in-process dispatch (microseconds) and a
/// slow drained connection (seconds) land in the same histogram with
/// constant relative resolution.
pub fn latency_bounds() -> Vec<f64> {
    exponential_bounds(1e-6, 2.0, 22)
}

/// The server's own metrics. One instance per server, shared by every
/// worker thread; all methods are `&self`.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Mutex<Registry>,
    bounds: Vec<f64>,
    /// `control_plane_requests_total` series, by route and status class.
    requests: [[String; 3]; 7],
    /// `control_plane_request_seconds` series, by route.
    latency: [String; 7],
    in_flight: AtomicU64,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Fresh metrics with the standard latency buckets.
    pub fn new() -> Self {
        let registry = Registry::new();
        registry.counter_add(CONNECTIONS, 0);
        registry.counter_add(PARSE_ERRORS, 0);
        ServerMetrics {
            registry: Mutex::new(registry),
            bounds: latency_bounds(),
            requests: ROUTES.map(|route| {
                CLASSES.map(|class| {
                    series_name(
                        "control_plane_requests_total",
                        &[("route", route.label()), ("status", class)],
                    )
                })
            }),
            latency: ROUTES.map(|route| {
                series_name("control_plane_request_seconds", &[("route", route.label())])
            }),
            in_flight: AtomicU64::new(0),
        }
    }

    /// The registry. Every registry call leaves it whole, so a panic
    /// that poisoned the lock left nothing half-updated.
    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks a request in flight; the guard decrements on drop so every
    /// exit path (including handler panics unwinding) restores the
    /// gauge.
    pub fn begin_request(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard { metrics: self }
    }

    /// Records one completed request.
    pub fn observe(&self, route: Route, status: u16, seconds: f64) {
        let latency = &self.latency[route as usize];
        let registry = self.registry();
        registry.counter_add(&self.requests[route as usize][class_ordinal(status)], 1);
        registry.register_histogram(latency, &self.bounds);
        registry.observe(latency, seconds);
    }

    /// Counts one accepted connection.
    pub fn connection_opened(&self) {
        self.registry().counter_add(CONNECTIONS, 1);
    }

    /// Counts one request that failed HTTP parsing.
    pub fn parse_error(&self) {
        self.registry().counter_add(PARSE_ERRORS, 1);
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// A copy of one route's latency distribution (the quantile
    /// substrate for `BENCH_serving.json`).
    pub fn latency_snapshot(&self, route: Route) -> Histogram {
        self.registry()
            .histogram(&self.latency[route as usize])
            .unwrap_or_else(|| Histogram::new(&self.bounds))
    }

    /// The full `/metrics` exposition: the campaign-derived base
    /// snapshot plus the `control_plane_*` family, in the workspace's
    /// deterministic Prometheus text format. Histograms are restored
    /// from their snapshots, so scrape cost is independent of how many
    /// requests have been served.
    pub fn exposition(&self, base: &MetricsSnapshot) -> String {
        let own = self.registry().snapshot();
        let mut merged = base.clone();
        merged.counters.extend(own.counters);
        merged.gauges.extend(own.gauges);
        merged.gauges.push((
            "control_plane_in_flight".to_owned(),
            self.in_flight() as f64,
        ));
        merged.histograms.extend(own.histograms);
        Registry::from_snapshot(&merged).prometheus()
    }
}

/// Decrements the in-flight gauge on drop.
#[derive(Debug)]
pub struct InFlightGuard<'a> {
    metrics: &'a ServerMetrics,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_split_by_route_and_status_class() {
        let m = ServerMetrics::new();
        m.observe(Route::SafePoint, 200, 1e-5);
        m.observe(Route::SafePoint, 200, 2e-5);
        m.observe(Route::SafePoint, 404, 1e-5);
        m.observe(Route::Status, 500, 1e-4);
        let text = m.exposition(&MetricsSnapshot::default());
        assert!(
            text.contains("control_plane_requests_total{route=\"safe_point\",status=\"2xx\"} 2")
        );
        assert!(
            text.contains("control_plane_requests_total{route=\"safe_point\",status=\"4xx\"} 1")
        );
        assert!(text.contains("control_plane_requests_total{route=\"status\",status=\"5xx\"} 1"));
        assert!(text.contains("control_plane_in_flight 0"));
    }

    #[test]
    fn in_flight_guard_restores_the_gauge() {
        let m = ServerMetrics::new();
        {
            let _a = m.begin_request();
            let _b = m.begin_request();
            assert_eq!(m.in_flight(), 2);
        }
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn latency_snapshot_supports_quantiles() {
        let m = ServerMetrics::new();
        for _ in 0..100 {
            m.observe(Route::SafePoint, 200, 3e-6); // (2µs, 4µs]
        }
        let snap = m.latency_snapshot(Route::SafePoint);
        assert_eq!(snap.count(), 100);
        let p99 = snap.p99().unwrap();
        assert!(p99 > 2e-6 && p99 <= 4e-6, "p99 {p99} outside its bucket");
        // Rendering replays the same distribution into the registry.
        let text = m.exposition(&MetricsSnapshot::default());
        assert!(text.contains("control_plane_request_seconds_count{route=\"safe_point\"} 100"));
        assert!(text.contains(
            "control_plane_request_seconds_bucket{route=\"safe_point\",le=\"0.000004\"} 100"
        ));
    }

    #[test]
    fn exposition_merges_the_campaign_base() {
        let m = ServerMetrics::new();
        let base_registry = Registry::new();
        base_registry.counter_add("fleet_jobs_total", 42);
        let text = m.exposition(&base_registry.snapshot());
        assert!(text.contains("fleet_jobs_total 42"));
        assert!(text.contains("control_plane_in_flight 0"));
    }
}
