//! The chaos campaign loop: inject, crash, recover, verify.
//!
//! [`run_chaos`] drives one seeded [`ChaosPlan`] against a durable
//! fleet campaign. Each plan round is one coordinator *incarnation*:
//! the harness first damages the journal store as the round demands
//! (torn tails, bit-flipped or deleted checkpoints), then launches
//! `fleet::run_fleet_durable` with the round's process faults compiled
//! to a `Disruption`. An interrupted incarnation falls through to the
//! next round; rounds past the plan are clean, and a clean incarnation
//! always completes, so every chaos campaign terminates. The recovered
//! run is then judged against an uninterrupted baseline by
//! [`crate::invariant::check`], every injection is counted into the
//! `chaos_*` labeled metrics family, and the whole disruption history
//! is fed to the observatory as `chaos_*` incident events with
//! `fleet_recovered` as their resolution.

use crate::invariant::{self, InvariantReport};
use crate::plan::{ChaosFault, ChaosPlan, CorruptionKind};
use fleet::{
    run_fleet, run_fleet_durable, DurableStats, FleetCampaign, FleetConfig, FleetInterrupted,
    FleetJournal, FleetReport, FleetSpec, JournalStore, MemStore,
};
use observatory::{Observatory, ObservatoryReport, StreamBuilder};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use telemetry::{FieldValue, Level};

/// Board the coordinator's own chaos events are keyed under in the
/// observatory timeline (a synthetic "board 0 of the control plane";
/// fleet boards are per-outcome streams with their own epochs).
const COORDINATOR_BOARD: u32 = 0;

/// Shape of the fleet a chaos campaign runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Fleet size.
    pub boards: u32,
    /// Fleet master seed.
    pub fleet_seed: u64,
    /// Worker pool size per incarnation.
    pub workers: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            boards: 5,
            fleet_seed: 2018,
            workers: 3,
        }
    }
}

/// Everything one chaos campaign produced.
#[derive(Debug)]
pub struct ChaosReport {
    /// The plan that was executed.
    pub plan: ChaosPlan,
    /// Coordinator incarnations it took to finish (1 = never crashed).
    pub incarnations: u64,
    /// Injections actually applied, by fault label.
    pub injections: BTreeMap<String, u64>,
    /// Interrupts observed, in order.
    pub interrupts: Vec<FleetInterrupted>,
    /// Durable-run bookkeeping from the final (successful) incarnation.
    pub final_stats: DurableStats,
    /// Sum of completions recovered from the journal across restarts.
    /// Not reproducible: how many jobs a dying worker had finished
    /// depends on thread timing, and so does what a restart finds
    /// journaled.
    pub total_resumed: u64,
    /// Checkpoint rejections across all incarnations.
    pub checkpoint_rejections: u64,
    /// Incarnations that finished with a shrunken (but alive) pool.
    /// Not reproducible: whether a scheduled worker death fires depends
    /// on how many jobs that worker got to finish, i.e. on thread timing.
    pub degraded_pool_incarnations: u64,
    /// The invariant verdict against the uninterrupted baseline.
    pub invariants: InvariantReport,
    /// The recovered fleet report.
    pub recovered: FleetReport,
    /// Postmortems of the whole disruption history.
    pub observatory: ObservatoryReport,
}

impl ChaosReport {
    /// The headline verdict: the campaign survived its chaos schedule
    /// with every invariant intact.
    pub fn survived(&self) -> bool {
        self.invariants.holds()
    }

    /// Human summary of the campaign.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== chaos campaign seed {} : {} round{}, {} incarnation{}, {} ==",
            self.plan.seed,
            self.plan.rounds.len(),
            if self.plan.rounds.len() == 1 { "" } else { "s" },
            self.incarnations,
            if self.incarnations == 1 { "" } else { "s" },
            if self.survived() {
                "SURVIVED"
            } else {
                "VIOLATED"
            },
        );
        for (label, count) in &self.injections {
            let _ = writeln!(out, "  injected {label:<19} x{count}");
        }
        for interrupt in &self.interrupts {
            let _ = writeln!(out, "  interrupt: {interrupt}");
        }
        let _ = writeln!(
            out,
            "  resumed {} completions across restarts; {} checkpoint rejection{}; store identical: {}",
            self.total_resumed,
            self.checkpoint_rejections,
            if self.checkpoint_rejections == 1 { "" } else { "s" },
            self.invariants.store_identical,
        );
        out
    }
}

fn count_injection(injections: &mut BTreeMap<String, u64>, label: &str) {
    *injections.entry(label.to_owned()).or_insert(0) += 1;
    let _ = telemetry::with_registry(|reg| {
        reg.counter_add_labeled("chaos_injections_total", &[("kind", label)], 1);
    });
}

/// Runs the plan against a fresh baseline of the same fleet. Most
/// callers want this; the bench fans 64+ plans over one shared baseline
/// via [`run_chaos_against`].
pub fn run_chaos(plan: &ChaosPlan, config: &ChaosConfig) -> ChaosReport {
    let spec = FleetSpec::new(config.boards, config.fleet_seed);
    let campaign = FleetCampaign::quick();
    let fleet_config = FleetConfig::with_workers(config.workers);
    let baseline = run_fleet(&spec, &campaign, &fleet_config);
    run_chaos_against(plan, config, &baseline)
}

/// Runs the plan against a precomputed uninterrupted baseline (which
/// must come from the same `(boards, fleet_seed)` fleet under
/// `FleetCampaign::quick()` and the same worker-pool policy).
pub fn run_chaos_against(
    plan: &ChaosPlan,
    config: &ChaosConfig,
    baseline: &FleetReport,
) -> ChaosReport {
    let spec = FleetSpec::new(config.boards, config.fleet_seed);
    let campaign = FleetCampaign::quick();
    let fleet_config = FleetConfig::with_workers(config.workers);
    let mut journal = FleetJournal::new(MemStore::new());
    let mut obs = Observatory::new();

    let mut injections = BTreeMap::new();
    let mut interrupts = Vec::new();
    let mut incarnations = 0u64;
    let mut total_resumed = 0u64;
    let mut checkpoint_rejections = 0u64;
    let mut degraded_pool_incarnations = 0u64;
    let mut outcome = None;

    // One extra clean round past the plan: a clean incarnation always
    // completes, so this loop always ends with `outcome` set.
    let clean = crate::plan::ChaosRound::default();
    let rounds = plan.rounds.iter().chain(std::iter::once(&clean));
    for round in rounds {
        let epoch = incarnations;
        incarnations += 1;
        let mut stream = StreamBuilder::coordinator(epoch, COORDINATOR_BOARD);

        // Storage faults land while the coordinator is "down", before
        // this incarnation opens the journal.
        for fault in &round.faults {
            match fault {
                ChaosFault::CorruptCheckpoint { kind } => {
                    let store = journal.store_mut();
                    let applied = match kind {
                        CorruptionKind::Truncate => {
                            store.truncate_checkpoint(24);
                            store.checkpoint_bytes().is_some()
                        }
                        CorruptionKind::BitFlip => {
                            // Flip past the seal header so the damage is
                            // a checksum mismatch, not a malformed header.
                            let len = store.checkpoint_bytes().map_or(0, |b| b.len());
                            store.flip_checkpoint_bit(len.saturating_sub(1), 3);
                            len > 0
                        }
                        CorruptionKind::Drop => store.drop_checkpoint(),
                    };
                    if applied {
                        count_injection(&mut injections, fault.label());
                        stream.push(
                            Level::Warn,
                            "chaos_corrupt_checkpoint",
                            vec![("kind".to_owned(), field_str(kind_label(*kind)))],
                        );
                    }
                }
                ChaosFault::TornJournalTail { drop_bytes } => {
                    let store = journal.store_mut();
                    let len = store.journal_len();
                    if len > 0 {
                        store.truncate_journal(len.saturating_sub(*drop_bytes));
                        count_injection(&mut injections, fault.label());
                        stream.push(
                            Level::Warn,
                            "chaos_journal_damage",
                            vec![(
                                "dropped_bytes".to_owned(),
                                FieldValue::U64(*drop_bytes as u64),
                            )],
                        );
                    }
                }
                ChaosFault::CoordinatorKill { after_completions } => {
                    count_injection(&mut injections, fault.label());
                    stream.push(
                        Level::Warn,
                        "chaos_coordinator_killed",
                        vec![(
                            "after_completions".to_owned(),
                            FieldValue::U64(*after_completions),
                        )],
                    );
                }
                ChaosFault::WorkerDeath { worker, after_jobs } => {
                    count_injection(&mut injections, fault.label());
                    stream.push(
                        Level::Warn,
                        "chaos_worker_died",
                        vec![
                            ("worker".to_owned(), FieldValue::U64(*worker as u64)),
                            ("after_jobs".to_owned(), FieldValue::U64(*after_jobs)),
                        ],
                    );
                }
                ChaosFault::DuplicateDelivery { count } => {
                    count_injection(&mut injections, fault.label());
                    stream.push(
                        Level::Warn,
                        "chaos_duplicate_delivery",
                        vec![("count".to_owned(), FieldValue::U64(*count))],
                    );
                }
            }
        }

        let disruption = round.disruption();
        match run_fleet_durable(&spec, &campaign, &fleet_config, &mut journal, &disruption) {
            Ok(run) => {
                total_resumed += run.stats.resumed_completions;
                if run.stats.checkpoint_rejected {
                    checkpoint_rejections += 1;
                    bump_counter("chaos_checkpoint_rejections_total");
                }
                if run.stats.workers_lost > 0 {
                    degraded_pool_incarnations += 1;
                    bump_counter("chaos_degraded_pool_epochs_total");
                }
                if incarnations > 1 {
                    bump_counter("chaos_recoveries_total");
                }
                stream.push(
                    Level::Info,
                    "fleet_recovered",
                    vec![
                        (
                            "resumed".to_owned(),
                            FieldValue::U64(run.stats.resumed_completions),
                        ),
                        (
                            "executed".to_owned(),
                            FieldValue::U64(run.stats.executed_jobs),
                        ),
                    ],
                );
                obs.ingest_stream(stream.finish());
                outcome = Some(run);
                break;
            }
            Err(interrupt) => {
                obs.ingest_stream(stream.finish());
                interrupts.push(interrupt);
            }
        }
    }

    let run = outcome.expect("a clean incarnation always completes");
    let invariants = invariant::check(baseline, &run.report);
    ChaosReport {
        plan: plan.clone(),
        incarnations,
        injections,
        interrupts,
        total_resumed,
        checkpoint_rejections,
        degraded_pool_incarnations,
        final_stats: run.stats,
        invariants,
        recovered: run.report,
        observatory: obs.finish(),
    }
}

fn bump_counter(name: &str) {
    let _ = telemetry::with_registry(|reg| {
        reg.counter_add(name, 1);
    });
}

fn field_str(s: &str) -> FieldValue {
    FieldValue::Str(s.to_owned())
}

fn kind_label(kind: CorruptionKind) -> &'static str {
    match kind {
        CorruptionKind::Truncate => "truncate",
        CorruptionKind::BitFlip => "bit_flip",
        CorruptionKind::Drop => "drop",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_plan_survives_in_one_incarnation() {
        let config = ChaosConfig {
            boards: 3,
            ..ChaosConfig::default()
        };
        let report = run_chaos(&ChaosPlan::quiet(1), &config);
        assert!(report.survived(), "{:?}", report.invariants);
        assert_eq!(report.incarnations, 1);
        assert!(report.interrupts.is_empty());
    }

    #[test]
    fn a_kill_heavy_plan_recovers_with_identical_output() {
        let config = ChaosConfig {
            boards: 4,
            ..ChaosConfig::default()
        };
        let plan = ChaosPlan {
            seed: 99,
            rounds: vec![
                crate::plan::ChaosRound {
                    faults: vec![ChaosFault::CoordinatorKill {
                        after_completions: 2,
                    }],
                },
                crate::plan::ChaosRound {
                    faults: vec![
                        ChaosFault::TornJournalTail { drop_bytes: 17 },
                        ChaosFault::CorruptCheckpoint {
                            kind: CorruptionKind::BitFlip,
                        },
                    ],
                },
            ],
        };
        let report = run_chaos(&plan, &config);
        assert!(report.survived(), "{:?}", report.invariants);
        assert!(report.incarnations >= 2);
        assert_eq!(report.interrupts.len() as u64, report.incarnations - 1);
        assert!(report.total_resumed > 0, "recovery reused journaled work");
        // The postmortem timeline carries the disruptions and their
        // recovered resolution.
        let chaos_incidents: Vec<_> = report
            .observatory
            .incidents_of(observatory::IncidentKind::ChaosDisruption)
            .collect();
        assert!(!chaos_incidents.is_empty());
        assert!(report.render().contains("SURVIVED"));
    }
}
