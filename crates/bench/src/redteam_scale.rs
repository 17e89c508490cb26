//! Red-team benchmark: the virus GA co-evolved against the seed safety
//! net, replayed by pools of 1/2/4/8 workers, and the champion scored
//! against both net arms.
//!
//! Three claims are checked at once: every worker count produces the
//! *same campaign chronicle bytes*, the co-evolved champion slips at
//! least one SDC past the pre-hardening seed net, and the hardened net
//! holds — zero escapes, with every board detecting the attack within
//! one relaxed sentinel period. The dataset serializes to
//! `BENCH_redteam.json` via the `experiments redteam` subcommand, and CI
//! gates on its `"holds": true` flag.

use crate::{sweep_pools, POOLS};
use redteam::{replay_fleet, run_campaign, AttackScenario, CampaignConfig, CampaignReport};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One pool size's record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RedteamPoint {
    /// Worker threads.
    pub workers: usize,
    /// Adversarial episodes executed (genomes × boards × generations).
    pub episodes: u64,
    /// Host wall-clock of the run, seconds (informational; varies with
    /// the machine and is NOT part of any assertion).
    pub host_wall_seconds: f64,
}

/// The benchmark dataset — the schema of `BENCH_redteam.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RedteamScale {
    /// Fleet size attacked.
    pub boards: u32,
    /// Master seed.
    pub seed: u64,
    /// GA generations the attacker was budgeted.
    pub generations: usize,
    /// Whether every pool size produced byte-identical chronicles.
    pub identical: bool,
    /// The champion's fitness (escapes + resonance shaping).
    pub champion_fitness: f64,
    /// Champion-replay escapes against the pre-hardening seed net (the
    /// leak the red team exists to demonstrate — must be ≥ 1).
    pub seed_net_escapes: u64,
    /// Champion-replay escapes against the hardened net (must be 0).
    pub hardened_escapes: u64,
    /// Boards whose hardened net quarantined the attacker.
    pub quarantined_boards: u32,
    /// Worst detection latency across hardened boards, in epochs.
    pub max_detection_latency_epochs: u64,
    /// The relaxed sentinel period the latency is measured against.
    pub sentinel_period_epochs: u32,
    /// Whether every hardened board detected the attack within one
    /// relaxed sentinel period.
    pub latency_within_period: bool,
    /// The headline verdict CI gates on: chronicles identical, the seed
    /// net leaks, the hardened net holds, detection within one period.
    pub holds: bool,
    /// One record per pool size.
    pub points: Vec<RedteamPoint>,
}

/// Runs the full-size benchmark: a 6-board fleet, 12 genomes × 8
/// generations, 40-epoch episodes.
pub fn run(seed: u64) -> RedteamScale {
    run_with(CampaignConfig::dsn18(6, seed))
}

/// Runs a scaled-down benchmark (tests use small fleets and short
/// budgets; the `holds` flag is only meaningful at full scale).
pub fn run_sized(boards: u32, seed: u64) -> RedteamScale {
    let mut config = CampaignConfig::dsn18(boards, seed);
    config.ga.population = 6;
    config.ga.generations = 3;
    config.scenario.epochs = 25;
    run_with(config)
}

fn run_with(mut config: CampaignConfig) -> RedteamScale {
    let episodes =
        config.ga.population as u64 * u64::from(config.fleet.boards) * config.ga.generations as u64;
    let (identical, runs) = sweep_pools(
        |workers| {
            config.workers = workers;
            run_campaign(&config)
        },
        CampaignReport::chronicle_json,
    );
    let points = runs
        .iter()
        .map(|run| RedteamPoint {
            workers: run.workers,
            episodes,
            host_wall_seconds: run.wall_seconds,
        })
        .collect();
    let report = &runs.last().expect("POOLS is non-empty").value;
    let champion = report.champion_profile();
    let replay_workers = *POOLS.last().expect("POOLS is non-empty");

    let seed_replay = replay_fleet(
        &config.fleet,
        Some(&champion),
        &config.scenario,
        replay_workers,
    );
    // The hardened arm differs from the attacked scenario only in its
    // safety-net config: same victim, governor and episode length.
    let mut hardened_scenario = AttackScenario::hardened(config.scenario.epochs);
    hardened_scenario.victim = config.scenario.victim.clone();
    hardened_scenario.governor = config.scenario.governor;
    let hardened_replay = replay_fleet(
        &config.fleet,
        Some(&champion),
        &hardened_scenario,
        replay_workers,
    );

    let seed_net_escapes: u64 = seed_replay.iter().map(|r| r.escaped_sdcs).sum();
    let hardened_escapes: u64 = hardened_replay.iter().map(|r| r.escaped_sdcs).sum();
    let quarantined_boards = hardened_replay
        .iter()
        .filter(|r| r.attacker_quarantined)
        .count() as u32;
    let all_detected = hardened_replay.iter().all(|r| r.detection_epoch.is_some());
    let max_detection_latency_epochs = hardened_replay
        .iter()
        .filter_map(|r| r.detection_epoch)
        .max()
        .unwrap_or(u64::MAX);
    let sentinel_period_epochs = hardened_scenario.safety.sentinel_every_epochs;
    let latency_within_period =
        all_detected && max_detection_latency_epochs <= u64::from(sentinel_period_epochs);
    let holds =
        identical && seed_net_escapes >= 1 && hardened_escapes == 0 && latency_within_period;

    RedteamScale {
        boards: config.fleet.boards,
        seed: config.fleet.seed,
        generations: config.ga.generations,
        identical,
        champion_fitness: report.champion_fitness,
        seed_net_escapes,
        hardened_escapes,
        quarantined_boards,
        max_detection_latency_epochs,
        sentinel_period_epochs,
        latency_within_period,
        holds,
        points,
    }
}

/// Renders the red-team table.
pub fn render(data: &RedteamScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Red-team co-evolution — {} boards, {} GA generations (seed {})",
        data.boards, data.generations, data.seed
    );
    let _ = writeln!(
        out,
        "  champion fitness {:.2}; champion replay: {} escapes past the seed net, {} past the hardened net",
        data.champion_fitness, data.seed_net_escapes, data.hardened_escapes
    );
    let _ = writeln!(
        out,
        "  hardened detection: {}/{} boards quarantined the attacker, worst latency {} epochs (sentinel period {})",
        data.quarantined_boards, data.boards, data.max_detection_latency_epochs, data.sentinel_period_epochs
    );
    // Host wall time varies with the machine and lives in the JSON
    // record only; the deterministic column is the episode tally.
    let _ = writeln!(out, "{:>8}{:>10}", "workers", "episodes");
    for p in &data.points {
        let _ = writeln!(out, "{:>8}{:>10}", p.workers, p.episodes);
    }
    let _ = writeln!(
        out,
        "chronicle {} across pool sizes; hardened net {}",
        if data.identical {
            "BYTE-IDENTICAL"
        } else {
            "DIVERGED (BUG)"
        },
        if data.holds { "HOLDS" } else { "LEAKS (BUG)" },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_campaign_stays_identical_across_pools() {
        let data = run_sized(3, 2018);
        assert!(data.identical);
        assert_eq!(data.points.len(), POOLS.len());
        assert!(data
            .points
            .windows(2)
            .all(|p| p[0].episodes == p[1].episodes));
        assert_eq!(data.hardened_escapes, 0);
        assert!(data.latency_within_period);
    }

    #[test]
    fn render_reports_the_invariant() {
        let data = run_sized(2, 7);
        assert!(render(&data).contains("BYTE-IDENTICAL"));
    }
}
