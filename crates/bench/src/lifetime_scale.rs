//! Lifetime deployment benchmark: a 16-board fleet aged through 60
//! simulated months, replayed by pools of 1/2/4/8 workers and once with
//! maintenance ablated.
//!
//! Three claims are checked at once: every pool size produces the *same
//! chronicle bytes* (the lifetime subsystem's headline invariant), the
//! maintained fleet spends **zero** board-months below its aged Vmin
//! while the ablation demonstrably does not, and warm-started
//! re-characterization costs a fraction of the cold walks it replaces.
//! The dataset serializes to `BENCH_lifetime.json` via the
//! `experiments lifetime` subcommand.

use crate::{sweep_pools, POOLS};
use lifetime::{run_deployment, DeploymentSpec, LifetimeReport};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One pool size's record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimePoint {
    /// Worker threads.
    pub workers: usize,
    /// Characterization jobs executed (initial fleet + every epoch).
    pub jobs: u64,
    /// Host wall-clock of the run, seconds (informational; varies with
    /// the machine and is NOT part of any assertion).
    pub host_wall_seconds: f64,
}

/// The benchmark dataset — the schema of `BENCH_lifetime.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeScale {
    /// Fleet size.
    pub boards: u32,
    /// Master seed.
    pub seed: u64,
    /// Service horizon, months.
    pub months: u32,
    /// Whether every pool size produced byte-identical chronicles.
    pub identical: bool,
    /// Re-characterization campaigns the scheduler ran.
    pub recharacterizations: u64,
    /// Safe-point epochs committed over the horizon.
    pub epochs: usize,
    /// Distinct setups the warm-started re-walks visited.
    pub warm_walked_steps: u64,
    /// Setups the same campaigns would have walked cold.
    pub cold_equivalent_steps: u64,
    /// Board-months below the aged Vmin with maintenance on (the
    /// subsystem exists to keep this zero).
    pub sdc_board_months_maintained: u64,
    /// The same count with maintenance ablated (must be positive, or
    /// the horizon proves nothing).
    pub sdc_board_months_ablation: u64,
    /// Fleet savings at deployment, W.
    pub initial_savings_watts: f64,
    /// Fleet savings at the end of the horizon, W.
    pub final_savings_watts: f64,
    /// One record per pool size.
    pub points: Vec<LifetimePoint>,
}

/// Runs the full 16-board / 60-month benchmark.
pub fn run(seed: u64) -> LifetimeScale {
    run_sized(16, seed, 60)
}

/// Runs the benchmark at an arbitrary scale (tests use small fleets and
/// short horizons).
pub fn run_sized(boards: u32, seed: u64, months: u32) -> LifetimeScale {
    let spec = DeploymentSpec::quick(boards, seed, months);
    let (identical, runs) = sweep_pools(
        |workers| run_deployment(&spec, workers),
        LifetimeReport::chronicle_json,
    );
    let points = runs
        .iter()
        .map(|run| LifetimePoint {
            workers: run.workers,
            jobs: run.value.execution.jobs,
            host_wall_seconds: run.wall_seconds,
        })
        .collect();
    let chronicle = &runs.last().expect("POOLS is non-empty").value.chronicle;
    let ablation = run_deployment(
        &spec.without_maintenance(),
        *POOLS.last().expect("POOLS is non-empty"),
    );
    LifetimeScale {
        boards,
        seed,
        months,
        identical,
        recharacterizations: chronicle.recharacterizations,
        epochs: chronicle.epochs.epoch_count(),
        warm_walked_steps: chronicle.warm_walked_steps,
        cold_equivalent_steps: chronicle.cold_equivalent_steps,
        sdc_board_months_maintained: chronicle.production_sdc_board_months,
        sdc_board_months_ablation: ablation.chronicle.production_sdc_board_months,
        initial_savings_watts: chronicle.initial_savings_watts(),
        final_savings_watts: chronicle.final_savings_watts(),
        points,
    }
}

/// Renders the lifetime table.
pub fn render(data: &LifetimeScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Lifetime deployment — {} boards aged {} months (seed {})",
        data.boards, data.months, data.seed
    );
    let _ = writeln!(
        out,
        "  {} re-characterizations over {} epochs; warm walks {} steps vs {} cold ({:.0}% saved)",
        data.recharacterizations,
        data.epochs,
        data.warm_walked_steps,
        data.cold_equivalent_steps,
        if data.cold_equivalent_steps == 0 {
            0.0
        } else {
            100.0 * (1.0 - data.warm_walked_steps as f64 / data.cold_equivalent_steps as f64)
        },
    );
    let _ = writeln!(
        out,
        "  SDC board-months: {} maintained vs {} ablated",
        data.sdc_board_months_maintained, data.sdc_board_months_ablation
    );
    let _ = writeln!(
        out,
        "  fleet savings: {:.1} W at deployment -> {:.1} W at month {}",
        data.initial_savings_watts, data.final_savings_watts, data.months
    );
    // Host wall time varies with the machine and lives in the JSON
    // record only; the deterministic column is the job tally.
    let _ = writeln!(out, "{:>8}{:>8}", "workers", "jobs");
    for p in &data.points {
        let _ = writeln!(out, "{:>8}{:>8}", p.workers, p.jobs);
    }
    let _ = writeln!(
        out,
        "chronicle {} across pool sizes",
        if data.identical {
            "BYTE-IDENTICAL"
        } else {
            "DIVERGED (BUG)"
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_life_stays_identical_across_pools() {
        let data = run_sized(4, 2018, 8);
        assert!(data.identical);
        assert_eq!(data.points.len(), POOLS.len());
        assert_eq!(data.sdc_board_months_maintained, 0);
        // Every pool replays the same life: same job tally everywhere.
        assert!(data.points.windows(2).all(|p| p[0].jobs == p[1].jobs));
        assert!(data.initial_savings_watts > 0.0);
    }

    #[test]
    fn render_reports_the_invariant() {
        let data = run_sized(3, 7, 6);
        assert!(render(&data).contains("BYTE-IDENTICAL"));
    }
}
