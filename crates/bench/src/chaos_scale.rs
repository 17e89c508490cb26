//! Chaos-recovery benchmark: 64 seeded crash schedules against one
//! durable fleet campaign.
//!
//! Every schedule is a `chaos::ChaosPlan::sampled` draw — coordinator
//! kills, mid-job worker deaths, torn/bit-flipped/deleted checkpoints,
//! torn journal tails, duplicated deliveries — replayed by the chaos
//! harness until a clean incarnation completes. All schedules are judged
//! against one shared uninterrupted baseline; the headline bit,
//! `recovered_identical`, is true only when **every** schedule recovers
//! with zero lost boards, zero double-counted merges and a merged
//! characterization byte-identical to that baseline. The dataset
//! serializes to `BENCH_chaos.json` via the `experiments chaos`
//! subcommand, where CI greps for the bit.

use chaos::{run_chaos_against, ChaosConfig, ChaosFault, ChaosPlan, ChaosRound, CorruptionKind};
use fleet::{run_fleet, FleetCampaign, FleetConfig, FleetSpec, CHECKPOINT_EVERY};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Seeded crash schedules the full benchmark replays.
pub const SCHEDULES: u64 = 64;

/// The benchmark dataset — the schema of `BENCH_chaos.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosScale {
    /// Crash schedules replayed (sampled + directed).
    pub schedules: u64,
    /// Directed checkpoint-corruption schedules among them (one per
    /// `CorruptionKind`; sampled plans only rarely land a corruption
    /// fault after an incarnation that left a checkpoint behind, so
    /// these keep the rejection path exercised every run).
    pub directed_schedules: u64,
    /// Master seed (sampled schedule `i` uses plan seed `seed + i`).
    pub seed: u64,
    /// Fleet size each schedule runs against.
    pub boards: u32,
    /// Worker pool size per incarnation.
    pub workers: usize,
    /// Whether every schedule recovered with all invariants intact:
    /// zero lost boards, zero double-counted merges, store and
    /// observatory byte-identical to the uninterrupted baseline.
    pub recovered_identical: bool,
    /// Schedules that survived (== `schedules` when the bit holds).
    pub survived: u64,
    /// Faults actually injected, by kind label.
    pub injections_by_kind: BTreeMap<String, u64>,
    /// Coordinator incarnations summed over all schedules.
    pub total_incarnations: u64,
    /// Interrupts (crashes observed) summed over all schedules.
    pub total_interrupts: u64,
    /// Most incarnations any single schedule needed.
    pub max_incarnations: u64,
    /// Journaled completions reused instead of re-executed, summed
    /// (informational; varies between identical runs and is NOT part of
    /// any assertion: how many jobs a dying worker had finished depends
    /// on thread timing, and so does what a restart finds journaled).
    pub total_resumed: u64,
    /// Corrupt checkpoints detected and rejected, summed.
    pub checkpoint_rejections: u64,
    /// Incarnations that finished on a shrunken (but alive) pool
    /// (informational; varies between identical runs and is NOT part of
    /// any assertion: whether a scheduled worker death fires depends on
    /// how many jobs that worker got to finish, i.e. on thread timing).
    pub degraded_pool_incarnations: u64,
    /// Host wall-clock of the whole sweep, seconds (informational;
    /// varies with the machine and is NOT part of any assertion).
    pub host_wall_seconds: f64,
}

/// Runs the full 64-schedule benchmark.
pub fn run(seed: u64) -> ChaosScale {
    run_sized(SCHEDULES, seed)
}

/// Runs the benchmark over an arbitrary number of schedules (tests use
/// a handful).
pub fn run_sized(schedules: u64, seed: u64) -> ChaosScale {
    let config = ChaosConfig::default();
    let spec = FleetSpec::new(config.boards, config.fleet_seed);
    let campaign = FleetCampaign::quick();
    // One uninterrupted baseline shared by every schedule: the recovery
    // invariant compares characterization bytes, so the baseline only
    // depends on the fleet, never on the chaos seed.
    let baseline = run_fleet(&spec, &campaign, &FleetConfig::with_workers(config.workers));

    let start = Instant::now();
    let mut survived = 0u64;
    let mut injections_by_kind: BTreeMap<String, u64> = BTreeMap::new();
    let mut total_incarnations = 0u64;
    let mut total_interrupts = 0u64;
    let mut max_incarnations = 0u64;
    let mut total_resumed = 0u64;
    let mut checkpoint_rejections = 0u64;
    let mut degraded_pool_incarnations = 0u64;
    let sampled = (0..schedules).map(|i| ChaosPlan::sampled(seed.wrapping_add(i), config.workers));
    // Directed schedules: kill the coordinator right after it commits a
    // checkpoint, then damage that checkpoint while it is down — one
    // schedule per corruption kind, so detection (truncate, bit-flip)
    // and fallback-to-journal (drop) run on every benchmark invocation.
    let kinds = [
        CorruptionKind::Truncate,
        CorruptionKind::BitFlip,
        CorruptionKind::Drop,
    ];
    let directed = kinds.iter().enumerate().map(|(i, kind)| ChaosPlan {
        seed: seed.wrapping_add(schedules + i as u64),
        rounds: vec![
            ChaosRound {
                faults: vec![ChaosFault::CoordinatorKill {
                    after_completions: CHECKPOINT_EVERY,
                }],
            },
            ChaosRound {
                faults: vec![ChaosFault::CorruptCheckpoint { kind: *kind }],
            },
        ],
    });
    let directed_schedules = kinds.len() as u64;
    for plan in sampled.chain(directed) {
        let report = run_chaos_against(&plan, &config, &baseline);
        survived += u64::from(report.survived());
        for (kind, count) in &report.injections {
            *injections_by_kind.entry(kind.clone()).or_insert(0) += count;
        }
        total_incarnations += report.incarnations;
        total_interrupts += report.interrupts.len() as u64;
        max_incarnations = max_incarnations.max(report.incarnations);
        total_resumed += report.total_resumed;
        checkpoint_rejections += report.checkpoint_rejections;
        degraded_pool_incarnations += report.degraded_pool_incarnations;
    }
    let schedules = schedules + directed_schedules;
    ChaosScale {
        schedules,
        directed_schedules,
        seed,
        boards: config.boards,
        workers: config.workers,
        recovered_identical: survived == schedules,
        survived,
        injections_by_kind,
        total_incarnations,
        total_interrupts,
        max_incarnations,
        total_resumed,
        checkpoint_rejections,
        degraded_pool_incarnations,
        host_wall_seconds: start.elapsed().as_secs_f64(),
    }
}

/// Renders the recovery summary table.
pub fn render(data: &ChaosScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Chaos recovery — {} seeded crash schedules (seed {}) x {} boards / {} workers",
        data.schedules, data.seed, data.boards, data.workers
    );
    let _ = writeln!(out, "{:>24}{:>10}", "schedules survived", "");
    let _ = writeln!(
        out,
        "{:>20}/{}{:>10}",
        data.survived,
        data.schedules,
        if data.recovered_identical {
            "OK"
        } else {
            "BUG"
        }
    );
    for (kind, count) in &data.injections_by_kind {
        let _ = writeln!(out, "  injected {kind:<19} x{count}");
    }
    let _ = writeln!(
        out,
        "  {} incarnations ({} crashes recovered, worst schedule {}), \
         {} journaled completions reused",
        data.total_incarnations, data.total_interrupts, data.max_incarnations, data.total_resumed
    );
    let _ = writeln!(
        out,
        "  {} corrupt checkpoints rejected, {} incarnations finished on a degraded pool",
        data.checkpoint_rejections, data.degraded_pool_incarnations
    );
    let _ = writeln!(
        out,
        "recovered characterization {} across all schedules",
        if data.recovered_identical {
            "BYTE-IDENTICAL"
        } else {
            "DIVERGED (BUG)"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_sweep_recovers_identically() {
        let data = run_sized(6, 2018);
        assert!(data.recovered_identical, "{data:?}");
        assert_eq!(data.schedules, 6 + data.directed_schedules);
        assert_eq!(data.survived, data.schedules);
        assert!(data.total_incarnations >= data.schedules);
        assert!(
            !data.injections_by_kind.is_empty(),
            "sampled plans always inject something"
        );
        // The directed schedules guarantee the corruption path ran:
        // truncate and bit-flip are detected and rejected, drop falls
        // back to the journal silently.
        assert!(data.injections_by_kind["corrupt_checkpoint"] >= 3);
        assert!(data.checkpoint_rejections >= 2, "{data:?}");
    }

    #[test]
    fn render_reports_the_invariant() {
        let data = run_sized(3, 7);
        assert!(render(&data).contains("BYTE-IDENTICAL"));
    }
}
