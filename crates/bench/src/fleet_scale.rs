//! Fleet-scale orchestration benchmark: 256 seeded boards characterized
//! by pools of 1/2/4/8 workers.
//!
//! Two claims are checked at once: every pool size produces the *same
//! characterization bytes* (the orchestrator's headline invariant), and
//! the modeled makespan shrinks near-linearly with the pool. Speedup is
//! the deterministic schedule model over per-job simulated
//! board-seconds — the containerized CI host has no 8 real cores to
//! measure, so host wall-clock is recorded as informational only (see
//! `fleet::schedule`). The dataset serializes to `BENCH_fleet.json` via
//! the `experiments fleet` subcommand.

use crate::sweep_pools;
use fleet::{run_fleet, FleetCampaign, FleetConfig, FleetReport, FleetSpec};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One pool size's record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupPoint {
    /// Worker threads.
    pub workers: usize,
    /// Jobs executed (boards + safety-net requeues).
    pub jobs: u64,
    /// Modeled makespan, simulated seconds.
    pub sim_makespan_seconds: f64,
    /// Modeled speedup over serial (deterministic).
    pub speedup: f64,
    /// Host wall-clock of the run, seconds (informational; varies with
    /// the machine and is NOT part of any assertion).
    pub host_wall_seconds: f64,
}

/// The benchmark dataset — the schema of `BENCH_fleet.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScale {
    /// Fleet size.
    pub boards: u32,
    /// Master seed.
    pub seed: u64,
    /// Whether every pool size produced byte-identical characterization
    /// output.
    pub identical: bool,
    /// Boards with a derived operating point.
    pub characterized: usize,
    /// Fleet-wide projected saving, W.
    pub total_savings_watts: f64,
    /// Total simulated work, seconds.
    pub sim_serial_seconds: f64,
    /// One record per pool size.
    pub points: Vec<SpeedupPoint>,
}

/// Runs the full 256-board benchmark.
pub fn run(seed: u64) -> FleetScale {
    run_sized(256, seed)
}

/// Runs the benchmark at an arbitrary fleet size (tests use small
/// fleets).
pub fn run_sized(boards: u32, seed: u64) -> FleetScale {
    let spec = FleetSpec::new(boards, seed);
    let campaign = FleetCampaign::quick();
    let (identical, runs) = sweep_pools(
        |workers| run_fleet(&spec, &campaign, &FleetConfig::with_workers(workers)),
        FleetReport::characterization_json,
    );
    let points = runs
        .iter()
        .map(|run| SpeedupPoint {
            workers: run.workers,
            jobs: run.value.execution.jobs,
            sim_makespan_seconds: run.value.execution.sim_makespan_seconds,
            speedup: run.value.execution.speedup,
            host_wall_seconds: run.wall_seconds,
        })
        .collect();
    let last = &runs.last().expect("POOLS is non-empty").value;
    FleetScale {
        boards,
        seed,
        identical,
        characterized: last.characterization.stats.characterized,
        total_savings_watts: last.characterization.stats.total_savings_watts,
        sim_serial_seconds: last.characterization.sim_serial_seconds,
        points,
    }
}

/// Renders the scaling table.
pub fn render(data: &FleetScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet orchestration — {} boards (seed {}), {} characterized, {:.0} W projected",
        data.boards, data.seed, data.characterized, data.total_savings_watts
    );
    // Only the deterministic columns are rendered: host wall time varies
    // with the machine and lives in the JSON record only.
    let _ = writeln!(
        out,
        "{:>8}{:>8}{:>16}{:>10}",
        "workers", "jobs", "makespan (sim)", "speedup"
    );
    for p in &data.points {
        let _ = writeln!(
            out,
            "{:>8}{:>8}{:>14.0} s{:>9.2}x",
            p.workers, p.jobs, p.sim_makespan_seconds, p.speedup
        );
    }
    let _ = writeln!(
        out,
        "characterization output {} across pool sizes ({:.0} s simulated serial work)",
        if data.identical {
            "BYTE-IDENTICAL"
        } else {
            "DIVERGED (BUG)"
        },
        data.sim_serial_seconds
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::POOLS;

    #[test]
    fn small_fleet_scales_and_stays_identical() {
        let data = run_sized(12, 2018);
        assert!(data.identical);
        assert_eq!(data.characterized, 12);
        assert_eq!(data.points.len(), POOLS.len());
        assert_eq!(data.points[0].speedup, 1.0);
        let eight = data.points.last().unwrap();
        assert!(
            eight.speedup > 2.0,
            "8 workers over 12 boards must beat 2x, got {:.2}",
            eight.speedup
        );
        // Speedup never decreases as the pool grows.
        for pair in data.points.windows(2) {
            assert!(pair[1].speedup >= pair[0].speedup - 1e-12);
        }
    }

    #[test]
    fn render_reports_the_invariant() {
        let data = run_sized(6, 7);
        assert!(render(&data).contains("BYTE-IDENTICAL"));
    }
}
