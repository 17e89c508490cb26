//! Observatory benchmark: the red-team attack and the aging ablation
//! replayed under full observation, plus raw merge throughput.
//!
//! Three claims are checked at once: the observatory report is
//! byte-identical for every worker-pool size (on both the adversarial
//! replay and the lifetime ablation), each seeded scenario yields at
//! least one reconstructed incident, and the droop spike detector's
//! first warning leads the net's quarantine by at least one epoch with
//! zero false alarms on the benign-neighbor control arm. The dataset
//! serializes to `BENCH_obs.json` via the `experiments obs` subcommand,
//! and CI gates on its `"identical": true` flag and the incident
//! counts.

use crate::sweep_pools;
use lifetime::deployment::{run_deployment, DeploymentSpec, LIFETIME_MARGIN_METRIC};
use observatory::{FleetTimeline, IncidentKind, StreamBuilder};
use redteam::{replay_observatory, AttackScenario, REDTEAM_DROOP_METRIC};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Instant;
use telemetry::Level;
use xgene_sim::workload::WorkloadProfile;

/// One pool size's record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsPoint {
    /// Worker threads.
    pub workers: usize,
    /// Events in the merged red-team timeline.
    pub timeline_events: u64,
    /// Host wall-clock of the observed replay, seconds (informational;
    /// varies with the machine and is NOT part of any assertion).
    pub host_wall_seconds: f64,
}

/// The benchmark dataset — the schema of `BENCH_obs.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsScale {
    /// Fleet size of the red-team scenario.
    pub boards: u32,
    /// Master seed.
    pub seed: u64,
    /// Whether every pool size produced byte-identical observatory
    /// reports, on both scenarios.
    pub identical: bool,
    /// Attacker-quarantine incidents reconstructed from the red-team
    /// scenario (must be ≥ 1).
    pub redteam_incidents: u64,
    /// Production-SDC incidents reconstructed from the aging ablation
    /// (must be ≥ 1).
    pub aging_incidents: u64,
    /// Mean epochs the droop spike warning led the quarantine by,
    /// across quarantined boards (must be ≥ 1).
    pub mean_warning_lead_epochs: f64,
    /// Mean months the margin-drift warning led the first SDC exposure
    /// by, across exposed boards.
    pub mean_aging_lead_months: f64,
    /// Spurious warnings on the benign-neighbor control arm (must
    /// be 0).
    pub false_alarms: u64,
    /// Events pushed through the pure merge throughput measurement.
    pub merge_events: u64,
    /// Merge throughput, events per second (informational).
    pub merge_events_per_sec: f64,
    /// The headline verdict CI gates on: reports identical, at least
    /// one incident per scenario, warnings lead detection, no false
    /// alarms.
    pub holds: bool,
    /// One record per pool size.
    pub points: Vec<ObsPoint>,
}

fn crafted_virus() -> WorkloadProfile {
    WorkloadProfile::builder("obs-virus")
        .activity(1.0)
        .swing(1.0)
        .resonance_alignment(0.9)
        .build()
}

/// Runs the full-size benchmark: the 6-board red-team fleet (40-epoch
/// episodes, onset at epoch 8) and the 12-board 48-month aging
/// ablation.
pub fn run(seed: u64) -> ObsScale {
    run_with(6, seed, 40, 12, 48, 50_000)
}

/// Runs a scaled-down benchmark (tests use small fleets and short
/// horizons; the `holds` flag is only meaningful at full scale).
pub fn run_sized(boards: u32, seed: u64) -> ObsScale {
    run_with(boards, seed, 25, 3, 12, 2_000)
}

fn run_with(
    boards: u32,
    seed: u64,
    epochs: u32,
    aging_boards: u32,
    months: u32,
    merge_events: u64,
) -> ObsScale {
    let fleet = fleet::population::FleetSpec::new(boards, seed);
    let scenario = AttackScenario::hardened(epochs).with_onset(8);
    let virus = crafted_virus();

    let (mut identical, runs) = sweep_pools(
        |workers| replay_observatory(&fleet, Some(&virus), &scenario, workers),
        |(_, obs)| obs.chronicle_json(),
    );
    let points = runs
        .iter()
        .map(|run| ObsPoint {
            workers: run.workers,
            timeline_events: run.value.1.timeline.len() as u64,
            host_wall_seconds: run.wall_seconds,
        })
        .collect();
    let (reports, obs) = &runs.last().expect("POOLS is non-empty").value;

    let redteam_incidents = obs.incidents_of(IncidentKind::AttackerQuarantine).count() as u64;
    let leads: Vec<f64> = reports
        .iter()
        .filter(|r| r.attacker_quarantined)
        .filter_map(|r| {
            let warning = obs.first_warning(r.board, REDTEAM_DROOP_METRIC)?;
            let detected = r.detection_epoch?;
            Some(detected.saturating_sub(warning.epoch) as f64)
        })
        .collect();
    let mean_warning_lead_epochs = mean(&leads);

    // Control arm: the benign neighbor must raise nothing.
    let benign = workload_sim::tenant::benign_neighbor();
    let (_, benign_obs) = replay_observatory(&fleet, Some(&benign), &scenario, 4);
    let false_alarms = benign_obs.warnings.len() as u64;

    // Aging ablation: serial-vs-pooled identity plus SDC incidents.
    let aging_spec = DeploymentSpec::quick(aging_boards, seed, months).without_maintenance();
    let aging = run_deployment(&aging_spec, 4);
    let aging_serial = run_deployment(&aging_spec, 1);
    identical &= aging.observatory_json() == aging_serial.observatory_json();
    let aging_incidents = aging
        .observatory
        .incidents_of(IncidentKind::ProductionSdc)
        .count() as u64;
    let mut exposed: Vec<u32> = aging
        .observatory
        .incidents_of(IncidentKind::ProductionSdc)
        .map(|i| i.board)
        .collect();
    exposed.sort_unstable();
    exposed.dedup();
    let aging_leads: Vec<f64> = exposed
        .iter()
        .filter_map(|&board| {
            let warning = aging
                .observatory
                .first_warning(board, LIFETIME_MARGIN_METRIC)?;
            let first_sdc = aging
                .observatory
                .incidents_of(IncidentKind::ProductionSdc)
                .filter(|i| i.board == board)
                .map(|i| i.trigger_epoch)
                .min()?;
            Some(first_sdc.saturating_sub(warning.epoch) as f64)
        })
        .collect();
    let mean_aging_lead_months = mean(&aging_leads);

    // Pure merge throughput: synthetic streams, no campaign noise.
    let (merged, merge_events_per_sec) = merge_throughput(merge_events);

    let holds = identical
        && redteam_incidents >= 1
        && aging_incidents >= 1
        && mean_warning_lead_epochs >= 1.0
        && false_alarms == 0;

    ObsScale {
        boards,
        seed,
        identical,
        redteam_incidents,
        aging_incidents,
        mean_warning_lead_epochs,
        mean_aging_lead_months,
        false_alarms,
        merge_events: merged,
        merge_events_per_sec,
        holds,
        points,
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Builds `total` events spread over 64 board streams and times one
/// merge, returning `(events, events_per_sec)`.
fn merge_throughput(total: u64) -> (u64, f64) {
    const STREAMS: u64 = 64;
    let per_stream = (total / STREAMS).max(1);
    let streams: Vec<_> = (0..STREAMS)
        .map(|s| {
            let mut builder = StreamBuilder::synthetic(s / 8, (s % 8) as u32);
            for i in 0..per_stream {
                builder.push(
                    Level::Info,
                    if i % 2 == 0 { "tick" } else { "tock" },
                    vec![("i".into(), i.into())],
                );
            }
            builder.finish()
        })
        .collect();
    let events = STREAMS * per_stream;
    let start = Instant::now();
    let timeline = FleetTimeline::merge(&streams);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(timeline.len() as u64, events);
    (events, events as f64 / elapsed.max(1e-9))
}

/// Renders the observatory table.
pub fn render(data: &ObsScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet observatory — {} boards attacked (seed {}), {} SDC months aged",
        data.boards, data.seed, data.aging_incidents
    );
    let _ = writeln!(
        out,
        "  incidents: {} attacker quarantines, {} production SDCs",
        data.redteam_incidents, data.aging_incidents
    );
    let _ = writeln!(
        out,
        "  early warning: droop spike leads quarantine by {:.1} epochs; margin drift leads SDC by {:.1} months; {} false alarms",
        data.mean_warning_lead_epochs, data.mean_aging_lead_months, data.false_alarms
    );
    // Host wall time and merge throughput vary with the machine and
    // live in the JSON record only; the deterministic columns are the
    // event tallies.
    let _ = writeln!(
        out,
        "  merge: {} events through one timeline",
        data.merge_events
    );
    let _ = writeln!(out, "{:>8}{:>10}", "workers", "events");
    for p in &data.points {
        let _ = writeln!(out, "{:>8}{:>10}", p.workers, p.timeline_events);
    }
    let _ = writeln!(
        out,
        "observatory report {} across pool sizes; early warning {}",
        if data.identical {
            "BYTE-IDENTICAL"
        } else {
            "DIVERGED (BUG)"
        },
        if data.holds { "HOLDS" } else { "FAILS (BUG)" },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::POOLS;

    #[test]
    fn a_small_scenario_stays_identical_across_pools() {
        let data = run_sized(3, 2018);
        assert!(data.identical);
        assert_eq!(data.points.len(), POOLS.len());
        assert!(data
            .points
            .windows(2)
            .all(|p| p[0].timeline_events == p[1].timeline_events));
        assert!(data.redteam_incidents >= 1);
        assert_eq!(data.false_alarms, 0);
        assert!(data.merge_events_per_sec > 0.0);
    }

    #[test]
    fn render_reports_the_invariant() {
        let data = run_sized(2, 7);
        assert!(render(&data).contains("BYTE-IDENTICAL"));
    }
}
