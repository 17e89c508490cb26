//! The orchestrator's output, split along the determinism boundary.
//!
//! [`FleetCharacterization`] holds everything the fleet *measured* — the
//! safe-point store, population stats, per-job summaries, aggregated
//! campaign counters and the simulated serial cost. It is required to be
//! byte-identical across worker counts, and
//! [`FleetReport::characterization_json`] is the string the e2e test and
//! the bench compare. [`FleetExecution`] holds everything about *how*
//! the run was executed — pool size, per-worker job counts, modeled
//! makespan — which legitimately varies with the pool and is
//! therefore kept out of the comparison.

use crate::schedule::ScheduleModel;
use guardband_core::safepoint::{FleetStats, SafePointStore};
use observatory::ObservatoryReport;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One job's deterministic summary (sorted by `(board, attempt)` in the
/// report).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSummary {
    /// Board id.
    pub board: u32,
    /// Re-characterization attempt.
    pub attempt: u32,
    /// Whether the safety net tripped and evicted the board.
    pub tripped: bool,
    /// Characterization runs executed.
    pub runs: u64,
    /// Watchdog resets.
    pub watchdog_resets: u64,
    /// Quarantined setups.
    pub quarantined_setups: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Recovery backoff, ms.
    pub backoff_ms: u64,
    /// Simulated board-seconds the job cost.
    pub sim_cost_seconds: f64,
}

/// What the fleet measured. Bit-identical for a given `(spec, campaign)`
/// regardless of pool size or dispatch order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCharacterization {
    /// Fleet size.
    pub boards: u32,
    /// Master seed.
    pub seed: u64,
    /// Merged safe-point database.
    pub store: SafePointStore,
    /// Population statistics.
    pub stats: FleetStats,
    /// Per-job summaries in `(board, attempt)` order.
    pub jobs: Vec<JobSummary>,
    /// Campaign telemetry counters summed over jobs in `(board, attempt)`
    /// order.
    pub campaign_counters: Vec<(String, u64)>,
    /// Total simulated work, seconds (the 1-worker makespan).
    pub sim_serial_seconds: f64,
}

/// How the run was executed. Varies with pool size; excluded from the
/// determinism comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetExecution {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs executed (initial boards + requeues).
    pub jobs: u64,
    /// Boards the safety net evicted and re-queued.
    pub requeues: u64,
    /// Jobs each worker actually ran.
    pub per_worker_jobs: Vec<u64>,
    /// Modeled makespan of the pool, simulated seconds.
    pub sim_makespan_seconds: f64,
    /// Modeled speedup over serial.
    pub speedup: f64,
}

impl FleetExecution {
    /// Builds the execution record from the run's scheduling artifacts.
    pub fn new(per_worker_jobs: Vec<u64>, requeues: u64, plan: &ScheduleModel) -> Self {
        FleetExecution {
            workers: plan.workers,
            jobs: per_worker_jobs.iter().sum(),
            requeues,
            per_worker_jobs,
            sim_makespan_seconds: plan.makespan_seconds,
            speedup: plan.speedup(),
        }
    }
}

/// The complete result of [`run_fleet`](crate::orchestrator::run_fleet).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// The deterministic measurement side.
    pub characterization: FleetCharacterization,
    /// The execution side (pool-dependent).
    pub execution: FleetExecution,
    /// The observatory's distillation of the run: merged per-board
    /// timeline, reconstructed incidents and SLO alerts. Deterministic
    /// across pool sizes (asserted via [`FleetReport::observatory_json`]),
    /// but kept out of [`FleetReport::characterization_json`] so the
    /// longstanding byte-identity artifact is unchanged.
    #[serde(default)]
    pub observatory: ObservatoryReport,
}

impl FleetReport {
    /// Canonical JSON of the deterministic side — the string the
    /// N-workers ≡ serial invariant is asserted on, byte for byte.
    pub fn characterization_json(&self) -> String {
        serde::json::to_string(&self.characterization)
    }

    /// Canonical JSON of the observatory report — byte-identical across
    /// pool sizes, like the characterization.
    pub fn observatory_json(&self) -> String {
        self.observatory.chronicle_json()
    }

    /// Human-readable fleet summary.
    pub fn render(&self) -> String {
        let c = &self.characterization;
        let x = &self.execution;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} boards (seed {}), {} characterized, {} job(s), {} requeue(s)",
            c.boards, c.seed, c.stats.characterized, x.jobs, x.requeues
        );
        let corners: Vec<String> = c
            .stats
            .corner_histogram
            .iter()
            .map(|(bin, n)| format!("{bin:?}:{n}"))
            .collect();
        let _ = writeln!(out, "corners: {}", corners.join(" "));
        let _ = writeln!(
            out,
            "margin: min {} mV, median {} mV, p95 {} mV",
            c.stats
                .min_margin_mv
                .map_or_else(|| "-".into(), |m| m.to_string()),
            c.stats
                .median_margin_mv
                .map_or_else(|| "-".into(), |m| format!("{m:.1}")),
            c.stats
                .p95_margin_mv
                .map_or_else(|| "-".into(), |m| format!("{m:.1}")),
        );
        let _ = writeln!(
            out,
            "projection: {:.1} W fleet-wide ({:.1}% mean per board)",
            c.stats.total_savings_watts,
            100.0 * c.stats.mean_savings_fraction
        );
        let _ = writeln!(
            out,
            "pool: {} worker(s), modeled makespan {:.0} s of {:.0} s serial (speedup {:.2}x)",
            x.workers, x.sim_makespan_seconds, c.sim_serial_seconds, x.speedup
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> FleetReport {
        let store = SafePointStore::new();
        let stats = store.stats();
        FleetReport {
            characterization: FleetCharacterization {
                boards: 0,
                seed: 1,
                store,
                stats,
                jobs: Vec::new(),
                campaign_counters: Vec::new(),
                sim_serial_seconds: 0.0,
            },
            execution: FleetExecution::new(vec![0, 0], 0, &ScheduleModel::plan(&[], 2)),
            observatory: ObservatoryReport::default(),
        }
    }

    #[test]
    fn characterization_json_ignores_the_execution_side() {
        let a = report();
        let mut b = report();
        b.execution.requeues = 99;
        b.execution.per_worker_jobs = vec![7, 3];
        assert_ne!(a, b);
        assert_eq!(a.characterization_json(), b.characterization_json());
    }

    #[test]
    fn render_mentions_the_headline_numbers() {
        let rendered = report().render();
        assert!(rendered.contains("fleet: 0 boards (seed 1)"));
        assert!(rendered.contains("2 worker(s)"));
        assert!(rendered.contains("margin: min -"));
    }
}
