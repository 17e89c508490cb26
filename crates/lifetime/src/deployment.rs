//! The multi-year deployment loop: age, watch, re-characterize, repeat.
//!
//! [`run_deployment`] plays a fleet's whole service life in simulated
//! months. Month 0 cold-characterizes every board and deploys the
//! resulting safe points (epoch 0). Every later month it
//!
//! 1. projects each board's drift signals with the [`DriftModel`] —
//!    modeled margin, failing-cell pressure, safe-point age;
//! 2. counts any board whose margin went negative as a production SDC
//!    exposure (the quantity the scheduler exists to keep at zero, and
//!    the ablation run demonstrably does not);
//! 3. asks the [`MaintenancePolicy`] for a budget-capped plan;
//! 4. runs the scheduled boards' re-characterization campaigns on a
//!    worker pool — each against its *aged* silicon and DRAM, each
//!    warm-started from the board's previous epoch — and commits the
//!    fresh safe points as a new epoch.
//!
//! Determinism is inherited, not re-argued: board specs and job
//! execution are pure ([`fleet`]'s pillars), planning is pure
//! ([`fleet::maintenance`]), aging is seeded, and each round's outcomes
//! are sorted by board before any aggregation — so the chronicle is
//! byte-identical across runs and worker counts.

use crate::drift::DriftModel;
use crate::report::{LifetimeChronicle, LifetimeExecution, LifetimeReport, MonthRecord};
use char_fw::warmstart::{cold_walk_setups, WarmStartConfig};
use dram_sim::retention::{RetentionModel, WeakCellPopulation};
use fleet::job::{
    execute_in_env, BoardOutcome, FleetCampaign, FleetJob, JobEnvironment, WarmStartPriors,
};
use fleet::journal::{FleetJournal, JournalEntry, JournalStore, MemStore};
use fleet::maintenance::{BoardHealth, MaintenancePlan, MaintenancePolicy};
use fleet::par_map_ordered;
use fleet::population::{BoardSpec, FleetSpec};
use guardband_core::epoch::VersionedSafePointStore;
use guardband_core::safepoint::BoardSafePoint;
use observatory::{BoardStream, DetectorConfig, Direction, Observatory, SloSpec, StreamBuilder};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use telemetry::metrics::Registry;
use telemetry::{counter, event, gauge, span, FieldValue, Level, Telemetry};
use xgene_sim::topology::CORE_COUNT;

/// Everything a lifetime run is a function of.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// The fleet: seed, size, corner mix, DRAM envelope.
    pub fleet: FleetSpec,
    /// The characterization campaign every epoch runs.
    pub campaign: FleetCampaign,
    /// The degradation physics boards age under.
    pub drift: DriftModel,
    /// Service horizon, months.
    pub months: u32,
    /// When and how much to re-characterize.
    pub maintenance: MaintenancePolicy,
    /// Warm-start window shape for re-characterization walks.
    pub warm_start: WarmStartConfig,
    /// `false` runs the ablation: deploy once, never re-characterize,
    /// and count the SDC exposure that accumulates.
    pub recharacterize: bool,
}

impl DeploymentSpec {
    /// The paper-shaped lifetime study: full campaign, datacenter
    /// stress, default maintenance policy.
    pub fn dsn18(boards: u32, seed: u64, months: u32) -> Self {
        let mut campaign = FleetCampaign::dsn18();
        campaign.inject_sub_vmin_sdc = false;
        DeploymentSpec {
            fleet: FleetSpec::new(boards, seed),
            campaign,
            drift: DriftModel::dsn18(),
            months,
            maintenance: MaintenancePolicy::dsn18(),
            warm_start: WarmStartConfig::dsn18(),
            recharacterize: true,
        }
    }

    /// A cut-down shape for tests and benches: the quick fleet campaign
    /// (one benchmark, four cores, 10 mV steps) without fault injection.
    pub fn quick(boards: u32, seed: u64, months: u32) -> Self {
        let mut campaign = FleetCampaign::quick();
        campaign.inject_sub_vmin_sdc = false;
        DeploymentSpec {
            campaign,
            ..DeploymentSpec::dsn18(boards, seed, months)
        }
    }

    /// The ablation variant: same fleet, same physics, no maintenance.
    pub fn without_maintenance(mut self) -> Self {
        self.recharacterize = false;
        self
    }
}

/// Name of the zero-SDC-escape SLO declared by [`run_deployment`]: any
/// board-month of sub-Vmin operation pages immediately.
pub const LIFETIME_SDC_SLO: &str = "zero-sdc-exposure";

/// Name of the fleet savings-floor SLO declared by [`run_deployment`].
pub const LIFETIME_SAVINGS_SLO: &str = "fleet-savings-floor";

/// The savings floor, as a fraction of the initial deployment's
/// projected savings: losing more than half the reclaimed watts to
/// drift parking means maintenance is failing its economic purpose.
pub const LIFETIME_SAVINGS_FLOOR_FRACTION: f64 = 0.5;

/// Detector metric fed with each board's modeled margin every month;
/// the drift detector warns on the *decay* long before the margin
/// itself goes negative.
pub const LIFETIME_MARGIN_METRIC: &str = "margin_mv";

/// A durable deployment stopped between rounds — the lifetime analogue
/// of a coordinator crash. Restart [`run_deployment_durable`] on the
/// same journal to resume; committed rounds are not re-executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeInterrupted {
    /// Characterization rounds this incarnation executed live before
    /// the interrupt.
    pub live_rounds: u64,
}

impl std::fmt::Display for LifetimeInterrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deployment interrupted after {} live round{}",
            self.live_rounds,
            if self.live_rounds == 1 { "" } else { "s" }
        )
    }
}

/// Plays the fleet's whole service life on a pool of `workers` threads:
/// [`run_deployment_durable`] over a fresh in-memory journal with no
/// interrupt. See the module docs for the loop and the determinism
/// argument.
///
/// # Panics
///
/// Panics if `workers` is zero or a worker thread panics.
pub fn run_deployment(spec: &DeploymentSpec, workers: usize) -> LifetimeReport {
    let mut journal = FleetJournal::new(MemStore::new());
    run_deployment_durable(spec, workers, &mut journal, None)
        .expect("an uninterrupted run on a fresh journal completes")
}

/// [`run_deployment`] with crash consistency: every completed
/// characterization round is journaled as a
/// [`JournalEntry::RoundCommitted`] (with per-record epoch merges),
/// and on entry the journal is replayed so a restarted deployment
/// *replays* committed rounds instead of re-executing them — sound
/// because rounds are pure, so the journaled outcomes are byte-identical
/// to what re-execution would produce. Everything between rounds (drift
/// passes, maintenance planning, SLO observations) is recomputed
/// deterministically, so the resumed chronicle and observatory are
/// byte-identical to an uninterrupted run's. While a round's epoch is
/// missing or damaged at the journal tail, deployed boards keep serving
/// from `VersionedSafePointStore::latest_for` — the last good epoch —
/// until the round re-executes.
///
/// `interrupt_after_rounds` injects the crash: the incarnation stops
/// (with [`LifetimeInterrupted`]) once it has executed that many *live*
/// rounds — replayed rounds don't count. `None` runs to completion.
///
/// # Errors
///
/// Returns [`LifetimeInterrupted`] when the injected interrupt fires.
///
/// # Panics
///
/// Panics if `workers` is zero or a worker thread panics.
pub fn run_deployment_durable<S: JournalStore>(
    spec: &DeploymentSpec,
    workers: usize,
    journal: &mut FleetJournal<S>,
    interrupt_after_rounds: Option<u64>,
) -> Result<LifetimeReport, LifetimeInterrupted> {
    assert!(workers > 0, "lifetime needs at least one worker");
    let replay = journal.replay();
    if let Some(damage) = &replay.damage {
        event!(
            Level::Warn,
            "fleet_journal_damaged",
            detail = damage.to_string(),
        );
    }
    let mut recovered: VecDeque<(u32, Vec<BoardOutcome>)> = replay
        .entries
        .into_iter()
        .filter_map(|entry| match entry {
            JournalEntry::RoundCommitted { month, outcomes } => Some((month, outcomes)),
            _ => None,
        })
        .collect();
    let resumed_rounds = recovered.len() as u64;
    if resumed_rounds > 0 {
        event!(Level::Info, "fleet_recovered", resumed = resumed_rounds);
    }
    let mut live_rounds = 0u64;
    // One round: replay it if the journal committed it, else execute it
    // on the pool and journal it. Outcomes come back in `(board,
    // attempt)` order — maintenance plans are not in board order, so the
    // round sorts what `par_map_ordered` returns in plan order.
    let mut round = |month: u32, jobs: &[(FleetJob, JobEnvironment)]| {
        // Deterministic replanning visits rounds in the same order every
        // incarnation, so committed rounds drain from the front.
        if recovered.front().is_some_and(|(m, _)| *m == month) {
            let (_, outcomes) = recovered.pop_front().expect("front checked");
            return Ok(outcomes);
        }
        if interrupt_after_rounds == Some(live_rounds) {
            return Err(LifetimeInterrupted { live_rounds });
        }
        let mut outcomes = par_map_ordered(workers, jobs, |(job, env)| {
            execute_in_env(job, &spec.campaign, env)
        });
        outcomes.sort_by_key(|o| (o.board, o.attempt));
        journal.append(&JournalEntry::RoundCommitted {
            month,
            outcomes: outcomes.clone(),
        });
        for outcome in &outcomes {
            journal.append(&JournalEntry::MergeCommitted {
                epoch: month,
                board: outcome.board,
                attempt: outcome.attempt,
            });
        }
        live_rounds += 1;
        Ok(outcomes)
    };

    let registry = Rc::new(Registry::new());
    let guard = Telemetry::new()
        .with_registry(Rc::clone(&registry))
        .install();
    let _lifetime_span = span!(
        Level::Info,
        "lifetime",
        boards = spec.fleet.boards,
        months = spec.months,
    );

    let boards: Vec<BoardSpec> = spec.fleet.all_boards().collect();
    // Each board's as-manufactured weak-cell population, generated once:
    // the aging model derives every month's population (and the analytic
    // CE-pressure query) from this base.
    let model = RetentionModel::xgene2_micron();
    let bases: Vec<WeakCellPopulation> = boards
        .iter()
        .map(|b| WeakCellPopulation::generate(&model, spec.fleet.population, b.boot_seed))
        .collect();
    let cold_steps_per_walk = cold_walk_setups(&spec.campaign.vmin_campaign(None));

    let mut epochs = VersionedSafePointStore::new();
    let mut job_counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut months_log: Vec<MonthRecord> = Vec::new();
    let mut recharacterizations = 0u64;
    let mut warm_walked_steps = 0u64;
    let mut sdc_board_months = 0u64;
    let mut rounds = 0u64;

    // Month 0: cold-characterize and deploy the whole fleet.
    let initial: Vec<(FleetJob, JobEnvironment)> = boards
        .iter()
        .zip(&bases)
        .map(|(board, base)| build_job(spec, board, base, 0, None))
        .collect();
    let outcomes = round(0, &initial)?;
    let mut jobs_total = outcomes.len() as u64;
    rounds += 1;
    absorb(&mut epochs, 0, &outcomes, &mut job_counters);

    // The observatory watches the whole life: month = epoch. Job traces
    // live in the per-board seq namespace; the coordinator's monthly
    // health observations use the coordinator namespace, which sorts
    // after same-month job events by convention.
    let mut obs = Observatory::new();
    obs.add_detector(
        LIFETIME_MARGIN_METRIC,
        DetectorConfig::drift(Direction::Low),
    );
    obs.add_slo(SloSpec::zero_escapes(LIFETIME_SDC_SLO));
    let initial_savings = epochs.latest().stats().total_savings_watts;
    obs.add_slo(SloSpec::savings_floor(
        LIFETIME_SAVINGS_SLO,
        LIFETIME_SAVINGS_FLOOR_FRACTION * initial_savings,
    ));
    for outcome in &outcomes {
        obs.ingest_stream(BoardStream::from_events(
            0,
            outcome.board,
            outcome.trace.clone(),
        ));
        obs.ingest_dumps(0, outcome.board, outcome.dumps.clone());
    }

    for month in 1..=spec.months {
        gauge!("lifetime_month", f64::from(month));

        // Drift pass: one health triple per deployed board.
        let mut healths: Vec<BoardHealth> = Vec::with_capacity(boards.len());
        let mut sdc_boards: Vec<u32> = Vec::new();
        let mut min_margin: Option<i64> = None;
        for (board, base) in boards.iter().zip(&bases) {
            let Some((epoch, record)) = epochs.latest_for(board.id) else {
                continue;
            };
            let health = spec
                .drift
                .health(board, &spec.campaign.cores, base, record, epoch, month);
            let mut watch = StreamBuilder::coordinator(u64::from(month), board.id);
            let mut health_fields = vec![
                (
                    "months_since".to_owned(),
                    FieldValue::U64(u64::from(health.months_since_characterization)),
                ),
                (
                    "failing_cells".to_owned(),
                    FieldValue::U64(health.failing_cells),
                ),
            ];
            if let Some(margin) = health.margin_mv {
                health_fields.push(("margin_mv".to_owned(), FieldValue::I64(margin)));
            }
            watch.push(Level::Debug, "board_health", health_fields);
            if let Some(margin) = health.margin_mv {
                min_margin = Some(min_margin.map_or(margin, |m| m.min(margin)));
                obs.detect(
                    board.id,
                    LIFETIME_MARGIN_METRIC,
                    u64::from(month),
                    margin as f64,
                );
                if margin < 0 {
                    sdc_boards.push(board.id);
                    watch.push(
                        Level::Error,
                        "production_sdc",
                        vec![
                            ("month".to_owned(), FieldValue::U64(u64::from(month))),
                            (
                                "months_since".to_owned(),
                                FieldValue::U64(u64::from(health.months_since_characterization)),
                            ),
                            ("margin_mv".to_owned(), FieldValue::I64(margin)),
                        ],
                    );
                }
            }
            obs.ingest_stream(watch.finish());
            healths.push(health);
        }
        if !sdc_boards.is_empty() {
            sdc_board_months += sdc_boards.len() as u64;
            counter!("lifetime_sdc_board_months_total", sdc_boards.len() as u64);
            event!(
                Level::Error,
                "lifetime_production_sdc",
                month = month,
                boards = sdc_boards.len() as u64,
            );
        }
        obs.slo_observe(
            LIFETIME_SDC_SLO,
            u64::from(month),
            None,
            sdc_boards.len() as f64,
        );

        // Plan and execute this month's re-characterizations.
        let plan = if spec.recharacterize {
            spec.maintenance.plan(&healths)
        } else {
            MaintenancePlan::default()
        };
        if !plan.scheduled.is_empty() {
            let jobs: Vec<(FleetJob, JobEnvironment)> = plan
                .scheduled
                .iter()
                .map(|decision| {
                    let idx = boards
                        .iter()
                        .position(|b| b.id == decision.board)
                        .expect("scheduled boards come from this fleet");
                    let prior = epochs.latest_for(decision.board).map(|(_, r)| r);
                    build_job(spec, &boards[idx], &bases[idx], month, prior)
                })
                .collect();
            let outcomes = round(month, &jobs)?;
            jobs_total += outcomes.len() as u64;
            rounds += 1;
            recharacterizations += outcomes.len() as u64;
            warm_walked_steps += outcomes.iter().map(|o| o.walked_steps).sum::<u64>();
            counter!("lifetime_recharacterizations_total", outcomes.len() as u64);
            absorb(&mut epochs, month, &outcomes, &mut job_counters);
            for outcome in &outcomes {
                obs.ingest_stream(BoardStream::from_events(
                    u64::from(month),
                    outcome.board,
                    outcome.trace.clone(),
                ));
                obs.ingest_dumps(u64::from(month), outcome.board, outcome.dumps.clone());
            }
        }

        let total_savings_watts = epochs.latest().stats().total_savings_watts;
        obs.slo_observe(
            LIFETIME_SAVINGS_SLO,
            u64::from(month),
            None,
            total_savings_watts,
        );
        months_log.push(MonthRecord {
            month,
            deferred: plan.deferred.len() as u64,
            scheduled: plan.scheduled,
            sdc_boards,
            min_margin_mv: min_margin,
            total_savings_watts,
        });
    }

    drop(guard);
    // Merge the coordinator's own counters (maintenance triggers, SDC
    // tallies) with the per-job sums; both are pure, so the merged map
    // is too. Wall-clock histograms measure the host and are dropped.
    for (name, value) in &registry.snapshot().counters {
        *job_counters.entry(name.clone()).or_insert(0) += value;
    }

    let chronicle = LifetimeChronicle {
        boards: spec.fleet.boards,
        seed: spec.fleet.seed,
        months: spec.months,
        maintenance_enabled: spec.recharacterize,
        epochs,
        months_log,
        recharacterizations,
        warm_walked_steps,
        cold_equivalent_steps: recharacterizations * cold_steps_per_walk,
        production_sdc_board_months: sdc_board_months,
        campaign_counters: job_counters.into_iter().collect(),
    };
    let execution = LifetimeExecution {
        workers,
        jobs: jobs_total,
        rounds,
    };
    Ok(LifetimeReport {
        chronicle,
        execution,
        observatory: obs.finish(),
    })
}

/// Builds one board's characterization job for `month`: aged chip, aged
/// DRAM, and (for re-characterizations) the previous epoch's Vmins as
/// warm-start priors. `attempt = month` keeps the flat store's
/// precedence order aligned with epoch order.
fn build_job(
    spec: &DeploymentSpec,
    board: &BoardSpec,
    base: &WeakCellPopulation,
    month: u32,
    prior: Option<&BoardSafePoint>,
) -> (FleetJob, JobEnvironment) {
    let aging = DriftModel::aging_of(board);
    let shifts = aging.shifts_mv(&spec.drift.stress, month);
    let warm_start = prior.map(|record| {
        // `core_vmin_mv` is indexed by campaign position; priors are
        // indexed by core — remap through the campaign's core list.
        let mut core_vmin_mv = vec![None; CORE_COUNT];
        for (core, vmin) in spec.campaign.cores.iter().zip(&record.core_vmin_mv) {
            core_vmin_mv[core.index()] = *vmin;
        }
        WarmStartPriors {
            core_vmin_mv,
            config: spec.warm_start,
        }
    });
    (
        FleetJob {
            board: board.clone(),
            attempt: month,
            floor_override_mv: None,
        },
        JobEnvironment {
            chip: board.chip.with_aging(&shifts),
            population: spec.drift.dram.aged(base, month, board.boot_seed),
            max_trefp_ms: spec.fleet.population.max_trefp.as_f64(),
            warm_start,
        },
    )
}

/// Commits one round's records as epoch `month` and folds each job's
/// telemetry counters into the (sorted, deterministic) fleet sum.
fn absorb(
    epochs: &mut VersionedSafePointStore,
    month: u32,
    outcomes: &[BoardOutcome],
    counters: &mut BTreeMap<String, u64>,
) {
    for outcome in outcomes {
        epochs.insert(month, outcome.record.clone());
        for (name, value) in &outcome.metrics.counters {
            *counters.entry(name.clone()).or_insert(0) += value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_life_is_deterministic_and_deploys_everyone() {
        let spec = DeploymentSpec::quick(3, 2018, 6);
        let a = run_deployment(&spec, 1);
        let b = run_deployment(&spec, 1);
        assert_eq!(a.chronicle_json(), b.chronicle_json());
        assert_eq!(a.observatory_json(), b.observatory_json());
        let c = &a.chronicle;
        assert_eq!(c.epochs.epoch(0).unwrap().len(), 3);
        assert_eq!(c.months_log.len(), 6);
        assert!(c.initial_savings_watts() > 0.0);
        // The observatory saw every month: a board_health observation
        // per deployed board per month, and zero SDC incidents on a
        // maintained fleet.
        let healths = a
            .observatory
            .timeline
            .events()
            .iter()
            .filter(|te| te.event.name == "board_health")
            .count();
        assert_eq!(healths, 3 * 6);
        assert!(a
            .observatory
            .incidents_of(observatory::IncidentKind::ProductionSdc)
            .next()
            .is_none());
        assert!(
            a.observatory.alerts.is_empty(),
            "no SLO burns on a maintained short life: {:?}",
            a.observatory.alerts
        );
    }

    #[test]
    fn a_life_interrupted_after_every_round_resumes_byte_identically() {
        let spec = DeploymentSpec::quick(3, 2018, 6);
        let baseline = run_deployment(&spec, 2);
        // Crash after every single live round: each incarnation replays
        // the committed prefix from the journal, executes exactly one
        // new round, and dies.
        let mut journal = FleetJournal::new(fleet::journal::MemStore::new());
        let mut incarnations = 0u32;
        let resumed = loop {
            incarnations += 1;
            assert!(incarnations < 64, "crash-looped without progress");
            match run_deployment_durable(&spec, 2, &mut journal, Some(1)) {
                Ok(report) => break report,
                Err(interrupted) => assert_eq!(interrupted.live_rounds, 1),
            }
        };
        assert!(incarnations >= 2, "month 0 alone forces one crash");
        assert_eq!(baseline.chronicle_json(), resumed.chronicle_json());
        assert_eq!(baseline.observatory_json(), resumed.observatory_json());
        // The journal holds every committed round exactly once.
        let committed = journal
            .replay()
            .entries
            .iter()
            .filter(|e| matches!(e, JournalEntry::RoundCommitted { .. }))
            .count() as u64;
        assert_eq!(committed, baseline.execution.rounds);
    }

    #[test]
    fn the_ablation_never_recharacterizes() {
        let spec = DeploymentSpec::quick(3, 2018, 6).without_maintenance();
        let report = run_deployment(&spec, 2);
        assert_eq!(report.chronicle.recharacterizations, 0);
        assert_eq!(report.chronicle.epochs.epoch_count(), 1);
        assert!(!report.chronicle.maintenance_enabled);
    }
}
