//! Dispatch benchmark: the economic dispatcher vs the nominal-only
//! ablation, with worker-count byte-identity.
//!
//! Three claims are checked at once and serialized to
//! `BENCH_dispatch.json` via `experiments dispatch`:
//!
//! 1. **Identity** — the dispatch chronicle (and the observatory's
//!    distillation) is byte-identical across 1/2/4/8 workers
//!    (`identical`): workers only parallelize the up-front fleet
//!    characterization and the post-hoc latency statistics, both
//!    pool-independent by construction.
//! 2. **Economics** — against a nominal-only arm routing the identical
//!    trace over the identical fleet, the dispatcher's fleet-wide
//!    watts-per-QPS is strictly lower (`beats_nominal`).
//! 3. **QoS** — the cheaper routing costs nothing: no additional QoS
//!    violations and no rejected requests (`no_extra_violations`).
//!
//! Wall-clock numbers measure the host and are NOT part of the
//! reproducibility fingerprint.

use crate::{sweep_pools, POOLS};
use dispatch::{run_dispatch_with_store, DispatchSpec};
use fleet::{run_fleet, FleetCampaign, FleetConfig, FleetSpec};
use rand::{fnv1a, FNV_OFFSET};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Instant;

/// Fleet size dispatched over.
pub const BOARDS: u32 = 8;

/// The benchmark dataset — the schema of `BENCH_dispatch.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchScaleData {
    /// Master seed of characterization, trace and placement.
    pub seed: u64,
    /// Fleet size.
    pub boards: u32,
    /// Requests in the dispatched trace.
    pub requests: u64,
    /// Worker pools compared.
    pub worker_counts: Vec<usize>,
    /// Chronicle and observatory JSON byte-identical across all pools.
    pub identical: bool,
    /// FNV-1a fingerprint of the reference chronicle JSON.
    pub chronicle_fingerprint: u64,
    /// Fleet-wide watts per served QPS, economic dispatcher.
    pub dispatcher_watts_per_qps: f64,
    /// Fleet-wide watts per served QPS, nominal-only ablation.
    pub nominal_watts_per_qps: f64,
    /// Dispatcher strictly cheaper than the ablation.
    pub beats_nominal: bool,
    /// Fractional saving over nominal-only.
    pub savings_fraction: f64,
    /// QoS violations, economic arm.
    pub dispatcher_qos_violations: u64,
    /// QoS violations, nominal-only arm.
    pub nominal_qos_violations: u64,
    /// Economic routing costs no additional violations and drops
    /// nothing.
    pub no_extra_violations: bool,
    /// Requests rejected at admission (economic arm; must be 0).
    pub rejected: u64,
    /// Placements steered around unroutable boards.
    pub reroutes: u64,
    /// Maintenance drains the planner ran.
    pub drains: u64,
    /// Re-characterization windows entered.
    pub maintenance_windows: u64,
    /// Host wall clock for the whole benchmark (not reproducible).
    pub host_wall_seconds: f64,
}

fn spec(seed: u64) -> DispatchSpec {
    let mut spec = DispatchSpec::quick(BOARDS, seed);
    // Any margin erosion schedules re-characterization (one board per
    // boundary), so the drain/resume path is always part of the run.
    spec.maintenance.margin_threshold_mv = 100;
    spec
}

/// Runs the dispatcher at every worker count plus the nominal arm.
pub fn run(seed: u64) -> DispatchScaleData {
    let started = Instant::now();
    let store = run_fleet(
        &FleetSpec::new(BOARDS, seed),
        &FleetCampaign::quick(),
        &FleetConfig::with_workers(4),
    )
    .characterization
    .store;

    let base = spec(seed);
    let (identical, runs) = sweep_pools(
        |workers| run_dispatch_with_store(&base, workers, &store),
        |report| (report.chronicle_json(), report.observatory_json()),
    );
    let reference = &runs[0].value;
    let chronicle_fingerprint = fnv1a(FNV_OFFSET, reference.chronicle_json().as_bytes());

    let nominal = run_dispatch_with_store(&base.nominal_arm(), 4, &store);
    let dispatcher_watts_per_qps = reference.chronicle.watts_per_qps;
    let nominal_watts_per_qps = nominal.chronicle.watts_per_qps;
    let beats_nominal = dispatcher_watts_per_qps < nominal_watts_per_qps;
    let no_extra_violations = reference.chronicle.qos_violations
        <= nominal.chronicle.qos_violations
        && reference.chronicle.rejected == 0;

    DispatchScaleData {
        seed,
        boards: BOARDS,
        requests: reference.chronicle.requests,
        worker_counts: POOLS.to_vec(),
        identical,
        chronicle_fingerprint,
        dispatcher_watts_per_qps,
        nominal_watts_per_qps,
        beats_nominal,
        savings_fraction: 1.0 - dispatcher_watts_per_qps / nominal_watts_per_qps,
        dispatcher_qos_violations: reference.chronicle.qos_violations,
        nominal_qos_violations: nominal.chronicle.qos_violations,
        no_extra_violations,
        rejected: reference.chronicle.rejected,
        reroutes: reference.chronicle.reroutes,
        drains: reference.chronicle.drains,
        maintenance_windows: reference.chronicle.maintenance_windows,
        host_wall_seconds: started.elapsed().as_secs_f64(),
    }
}

/// Human-readable table of the dataset.
pub fn render(data: &DispatchScaleData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Economic dispatch over {} boards, seed {} ({} requests)",
        data.boards, data.seed, data.requests
    );
    let _ = writeln!(
        out,
        "  chronicle identical across {:?} workers: {} (fnv {:016x})",
        data.worker_counts, data.identical, data.chronicle_fingerprint
    );
    let _ = writeln!(
        out,
        "  watts/QPS: dispatcher {:.4} vs nominal-only {:.4} ({:.1} % saved, beats: {})",
        data.dispatcher_watts_per_qps,
        data.nominal_watts_per_qps,
        100.0 * data.savings_fraction,
        data.beats_nominal
    );
    let _ = writeln!(
        out,
        "  QoS: {} vs {} violations, {} rejected (no extra: {})",
        data.dispatcher_qos_violations,
        data.nominal_qos_violations,
        data.rejected,
        data.no_extra_violations
    );
    let _ = writeln!(
        out,
        "  churn absorbed: {} reroutes, {} drains, {} maintenance windows",
        data.reroutes, data.drains, data.maintenance_windows
    );
    let _ = writeln!(out, "  host wall: {:.2} s", data.host_wall_seconds);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_dataset_upholds_its_gates() {
        let data = run(2018);
        assert!(data.identical, "chronicles diverged across worker counts");
        assert!(data.beats_nominal);
        assert!(data.no_extra_violations);
        assert!(data.savings_fraction > 0.0);
        assert_eq!(data.rejected, 0);
    }
}
