//! The unit of fleet work: characterize one board, end to end.
//!
//! [`execute`] is a *pure function* of `(job, campaign, population
//! envelope)` — it boots the board from its spec, probes the DRAM
//! retention floor per bank, runs the undervolt Vmin walk through
//! `char-fw`'s resilient runner, derives the deployable safe point and
//! the power projection, and prices the whole thing in simulated
//! board-seconds. No wall clock, no global state, no dependence on which
//! worker runs it or when: this purity is the second pillar of the
//! orchestrator's N-workers ≡ serial guarantee. An eviction's follow-up
//! attempt takes the probe's result from the attempt it follows instead
//! of drawing the board's weak cells again; its outcome is the same.

use crate::population::BoardSpec;
use char_fw::resilience::ResilienceConfig;
use char_fw::runner::ResilientRunner;
use char_fw::setup::{SafePolicy, VminCampaign};
use char_fw::warmstart::{distinct_setups, run_warm_start, WarmStartConfig};
use dram_sim::retention::{CouplingContext, PopulationSpec, WeakCellPopulation};
use guardband_core::safepoint::{BoardSafePoint, SafePointPolicy};
use power_model::server::{ServerLoad, ServerPowerModel};
use power_model::units::{Celsius, Megahertz, Milliseconds, Millivolts};
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use telemetry::metrics::{MetricsSnapshot, Registry};
use telemetry::{CaptureSink, Event, FlightDump, FlightRecorder, Level, Sink, Telemetry};
use workload_sim::spec::by_name;
use xgene_sim::fault::FaultPlan;
use xgene_sim::server::XGene2Server;
use xgene_sim::sigma::ChipProfile;
use xgene_sim::topology::CoreId;
use xgene_sim::workload::WorkloadProfile;

/// The campaign every board of the fleet runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCampaign {
    /// Benchmarks characterized per core.
    pub benchmarks: Vec<WorkloadProfile>,
    /// Cores characterized individually.
    pub cores: Vec<CoreId>,
    /// Voltage decrement per step, mV.
    pub step_mv: u32,
    /// Repetitions per setup.
    pub repetitions: u32,
    /// Default search floor (a re-queued board gets a raised override).
    pub floor: Millivolts,
    /// Retry/quarantine/sentinel configuration for every board.
    pub resilience: ResilienceConfig,
    /// Deployment policy deriving the safe point from measurements.
    pub policy: SafePointPolicy,
    /// Temperature the DRAM retention floor is evaluated at.
    pub retention_temperature: Celsius,
    /// Safety divisor on the measured retention floor (a bank's safe
    /// refresh period is `floor / margin`).
    pub retention_margin: f64,
    /// Install a sub-Vmin SDC fault plan on every board, enriching the
    /// silent corruption the walk naturally produces below Vmin — more
    /// boards trip their sentinels and exercise the eviction path.
    pub inject_sub_vmin_sdc: bool,
    /// Simulated duration of one characterization run, seconds.
    pub run_seconds: f64,
    /// Simulated duration of one reboot/power cycle, seconds.
    pub reboot_seconds: f64,
}

impl FleetCampaign {
    /// The paper-shaped fleet campaign: two SPEC benchmarks on all eight
    /// cores, 5 mV steps, 10 repetitions, guarded resilience.
    pub fn dsn18() -> Self {
        FleetCampaign {
            benchmarks: vec![
                by_name("mcf").expect("mcf is in the suite").profile(),
                by_name("milc").expect("milc is in the suite").profile(),
            ],
            cores: CoreId::all().collect(),
            step_mv: 5,
            repetitions: 10,
            floor: Millivolts::new(700),
            resilience: ResilienceConfig::guarded(),
            policy: SafePointPolicy::dsn18(),
            retention_temperature: Celsius::new(60.0),
            retention_margin: 1.25,
            inject_sub_vmin_sdc: false,
            run_seconds: 10.0,
            reboot_seconds: 60.0,
        }
    }

    /// A cut-down shape for benches and tests: one benchmark, four
    /// cores, 10 mV steps, 3 repetitions.
    pub fn quick() -> Self {
        FleetCampaign {
            benchmarks: vec![by_name("mcf").expect("mcf is in the suite").profile()],
            cores: vec![
                CoreId::new(0),
                CoreId::new(2),
                CoreId::new(5),
                CoreId::new(6),
            ],
            step_mv: 10,
            repetitions: 3,
            inject_sub_vmin_sdc: true,
            ..FleetCampaign::dsn18()
        }
    }

    /// The Vmin walk this campaign runs, with an optional raised floor
    /// for re-characterization.
    pub fn vmin_campaign(&self, floor_override_mv: Option<u32>) -> VminCampaign {
        VminCampaign {
            benchmarks: self.benchmarks.clone(),
            cores: self.cores.clone(),
            frequency: Megahertz::XGENE2_NOMINAL,
            start: Millivolts::XGENE2_NOMINAL,
            floor: floor_override_mv.map_or(self.floor, Millivolts::new),
            step_mv: self.step_mv,
            repetitions: self.repetitions,
            policy: SafePolicy::AllowCorrected,
        }
    }

    /// The fault plan a board boots with under this campaign, if any —
    /// deterministic in the board's own seed.
    pub fn fault_plan(&self, board: &BoardSpec) -> Option<FaultPlan> {
        self.inject_sub_vmin_sdc
            .then(|| FaultPlan::quiet(board.boot_seed ^ 0x5DC0_FFEE).with_sub_vmin_sdc())
    }
}

/// A board's physical state at characterization time, when it differs
/// from the pristine spec. The lifetime subsystem hands
/// [`execute_in_env`] aged silicon (Vmin drifted upward), an aged DRAM
/// population (grown weak cells, decayed retention) and the previous
/// epoch's safe point as a warm-start prior; everything stays a pure
/// function of the arguments, so the N-workers ≡ serial guarantee
/// carries over to re-characterization campaigns unchanged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobEnvironment {
    /// The chip as it exists now (e.g. after aging), replacing the
    /// spec's pristine profile.
    pub chip: ChipProfile,
    /// The DRAM weak-cell population as it exists now.
    pub population: WeakCellPopulation,
    /// Longest refresh period the safe-trefp derivation may report, ms
    /// (the envelope [`execute`] takes from its [`PopulationSpec`]).
    pub max_trefp_ms: f64,
    /// Warm-start the Vmin walk from a previous epoch, if available.
    pub warm_start: Option<WarmStartPriors>,
}

/// The previous epoch's per-core Vmin, as [`execute_in_env`] feeds it
/// to [`char_fw::warmstart::run_warm_start`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStartPriors {
    /// Prior Vmin in mV, indexed by **core index** (not campaign
    /// position); `None` where the prior epoch found no safe setup.
    pub core_vmin_mv: Vec<Option<u32>>,
    /// Window shape around each prior.
    pub config: WarmStartConfig,
}

/// One queued unit of work: characterize `board` (again, if the safety
/// net already evicted it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetJob {
    /// The board to characterize.
    pub board: BoardSpec,
    /// Re-characterization attempt (0 = first).
    pub attempt: u32,
    /// Raised search floor for re-characterization, mV.
    pub floor_override_mv: Option<u32>,
}

/// Everything one job produced. The [`BoardSafePoint`] record is what
/// merges into the fleet store; the rest is bookkeeping for scheduling,
/// eviction and reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoardOutcome {
    /// Board id (mirrors `record.board`).
    pub board: u32,
    /// Attempt this outcome belongs to (mirrors `record.attempt`).
    pub attempt: u32,
    /// The mergeable safe-point record.
    pub record: BoardSafePoint,
    /// Whether the campaign's circuit breaker tripped — the eviction
    /// signal: the orchestrator re-queues a tripped board.
    pub tripped: bool,
    /// Highest voltage any setup failed at, mV — the basis of the raised
    /// floor a re-queued board walks down to.
    pub highest_failure_mv: Option<u32>,
    /// Characterization runs executed.
    pub runs: u64,
    /// Watchdog resets during the campaign.
    pub watchdog_resets: u64,
    /// Setups quarantined during the walk.
    pub quarantined_setups: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Backoff the recovery machinery would have slept, ms.
    pub backoff_ms: u64,
    /// What this job would have cost on real hardware, in simulated
    /// board-seconds (runs, sentinels, reboots, backoff, DRAM probe).
    pub sim_cost_seconds: f64,
    /// Distinct (benchmark, core, voltage) setups the walk visited —
    /// the cost metric warm-started re-characterization shrinks.
    /// Defaults keep outcomes from before this field decodable.
    #[serde(default)]
    pub walked_steps: u64,
    /// The job's own telemetry, captured from a per-job registry.
    pub metrics: MetricsSnapshot,
    /// The job's `Warn`-and-above event trace, in emission order — the
    /// per-board stream the observatory merges into the fleet timeline.
    /// Defaults keep outcomes from before this field decodable.
    #[serde(default)]
    pub trace: Vec<Event>,
    /// Flight-recorder dumps triggered during the job (the lead-up to
    /// each quarantine/error), in trigger order.
    #[serde(default)]
    pub dumps: Vec<FlightDump>,
}

/// Simulated boot time charged per job, seconds.
const BOOT_SECONDS: f64 = 30.0;
/// Simulated duration of the per-bank retention probe, seconds. A
/// follow-up that takes its probe's result from the attempt it follows
/// is charged it all the same: the modeled campaign probes the board
/// again, and only the simulation reuses the result instead of drawing
/// the cells again.
const RETENTION_PROBE_SECONDS: f64 = 120.0;

/// Characterizes one board. Pure: the outcome depends only on the
/// arguments, never on the executing thread, wall clock or any global.
pub fn execute(
    job: &FleetJob,
    campaign: &FleetCampaign,
    population: PopulationSpec,
) -> BoardOutcome {
    execute_following(job, campaign, population, None)
}

/// [`execute`], for a follow-up attempt given the per-bank safe refresh
/// periods (`bank_safe_trefp_ms`) of the attempt it follows: the job
/// takes them instead of reading the board's DRAM again. They are exact:
/// the follow-up boots the same board from the same seed under the same
/// campaign, and a CPU breaker trip leaves DRAM retention as it was. With
/// `None` this is [`execute`].
pub(crate) fn execute_following(
    job: &FleetJob,
    campaign: &FleetCampaign,
    population: PopulationSpec,
    bank_safe_trefp_ms: Option<&[f64]>,
) -> BoardOutcome {
    execute_with(
        job,
        campaign,
        population.max_trefp.as_f64(),
        None,
        bank_safe_trefp_ms,
        || job.board.boot(population),
    )
}

/// Characterizes one board in an explicit physical environment — aged
/// chip, aged DRAM, optional warm-start priors. Pure in the same sense
/// as [`execute`]; in fact [`execute`] is this function with the
/// spec's pristine environment and no priors.
pub fn execute_in_env(
    job: &FleetJob,
    campaign: &FleetCampaign,
    env: &JobEnvironment,
) -> BoardOutcome {
    execute_with(
        job,
        campaign,
        env.max_trefp_ms,
        env.warm_start.as_ref(),
        None,
        || {
            XGene2Server::with_chip_and_population(
                env.chip.clone(),
                job.board.boot_seed,
                env.population.clone(),
            )
        },
    )
}

/// One job: `inherited` is the per-bank safe refresh periods of the
/// attempt a follow-up follows; without them the job reads the board's
/// weak-cell population, drawing it.
fn execute_with(
    job: &FleetJob,
    campaign: &FleetCampaign,
    max_trefp: f64,
    warm: Option<&WarmStartPriors>,
    inherited: Option<&[f64]>,
    boot: impl FnOnce() -> XGene2Server,
) -> BoardOutcome {
    // Each job gets its own registry, capture sink and flight recorder
    // in the executing thread's telemetry context: worker threads never
    // share mutable telemetry state, and the captured snapshot, trace
    // and dumps are identical wherever the job runs (the fresh context
    // restarts sequence numbers at zero).
    let registry = Rc::new(Registry::new());
    let capture = Rc::new(CaptureSink::new().with_min_level(Level::Warn));
    let recorder = Rc::new(
        FlightRecorder::with_capacity(48)
            .with_min_level(Level::Debug)
            .with_max_dumps(2),
    );
    let guard = Telemetry::new()
        .with_registry(Rc::clone(&registry))
        .with_shared_sink(Rc::clone(&capture) as Rc<dyn Sink>)
        .with_shared_sink(Rc::clone(&recorder) as Rc<dyn Sink>)
        .install();

    let mut server = boot();
    // Per-bank retention floor → validated-safe refresh period, clamped
    // between the nominal DDR3 period and the population envelope. It is
    // read before the walk, so the walk's allocations never stack on the
    // population's draw.
    let bank_safe_trefp_ms: Vec<f64> = match inherited {
        Some(trefp) => trefp.to_vec(),
        None => server
            .dram()
            .population()
            .min_retention_per_bank(campaign.retention_temperature, CouplingContext::WorstCase)
            .iter()
            .map(|floor| match floor {
                Some(ms) => (ms / campaign.retention_margin)
                    .clamp(Milliseconds::DDR3_NOMINAL_TREFP.as_f64(), max_trefp),
                None => max_trefp,
            })
            .collect(),
    };
    if let Some(plan) = campaign.fault_plan(&job.board) {
        server.install_fault_plan(plan);
    }
    let walk = campaign.vmin_campaign(job.floor_override_mv);
    let (result, walked_steps) = match warm {
        Some(priors) => {
            let outcome = run_warm_start(
                &mut server,
                &walk,
                &priors.core_vmin_mv,
                priors.config,
                campaign.resilience,
            );
            let steps = outcome.walked_setups;
            (outcome.result, steps)
        }
        None => {
            let result =
                ResilientRunner::new(&mut server, walk, campaign.resilience).run_to_completion();
            let steps = distinct_setups(&result);
            (result, steps)
        }
    };

    // Worst-case (highest) Vmin per core across the benchmark set; a
    // core counts as characterized only if every benchmark found one.
    let core_vmin_mv: Vec<Option<u32>> = campaign
        .cores
        .iter()
        .map(|core| {
            campaign
                .benchmarks
                .iter()
                .map(|bench| result.vmin(bench.name(), *core).map(Millivolts::as_u32))
                .try_fold(0u32, |worst, vmin| vmin.map(|v| worst.max(v)))
        })
        .collect();

    // Measured rail Vmin for deploying the whole core set at once: the
    // worst single-core Vmin plus the chip's multicore penalty.
    let rail_vmin_mv = core_vmin_mv
        .iter()
        .copied()
        .try_fold(0u32, |worst, vmin| vmin.map(|v| worst.max(v)))
        .map(|worst| {
            let penalty =
                job.board.chip.multicore_penalty_mv() * (campaign.cores.len() as f64 - 1.0);
            worst + penalty.round() as u32
        });

    let chip_safe_trefp = bank_safe_trefp_ms.iter().copied().fold(max_trefp, f64::min);

    let operating_point = rail_vmin_mv.map(|rail| {
        campaign
            .policy
            .derive_from_measured(Millivolts::new(rail), Milliseconds::new(chip_safe_trefp))
    });
    let power_model = ServerPowerModel::xgene2();
    let load = ServerLoad::jammer_detector();
    let (savings_fraction, savings_watts) = operating_point
        .as_ref()
        .map(|point| {
            (
                power_model.total_savings(point, &load),
                power_model.savings_watts(point, &load).as_f64(),
            )
        })
        .unwrap_or((0.0, 0.0));

    let record = BoardSafePoint {
        board: job.board.id,
        attempt: job.attempt,
        bin: job.board.bin(),
        core_vmin_mv,
        rail_vmin_mv,
        operating_point,
        bank_safe_trefp_ms,
        savings_fraction,
        savings_watts,
    };

    let highest_failure_mv = result
        .vmins
        .iter()
        .filter_map(|v| v.first_failure.map(Millivolts::as_u32))
        .max();
    let runs = result.records.len() as u64;
    let sentinel_runs = result.safety.sentinel.checks;
    let reboots = result.watchdog_resets + result.recovery.reset_retries;
    let sim_cost_seconds = BOOT_SECONDS
        + (runs + sentinel_runs) as f64 * campaign.run_seconds
        + reboots as f64 * campaign.reboot_seconds
        + result.recovery.total_backoff_ms as f64 / 1000.0
        + RETENTION_PROBE_SECONDS;

    drop(guard);
    // Wall-clock profiling histograms (`*_wall_seconds`) measure the
    // host, not the board — strip them so the outcome is a pure function
    // of the job.
    let mut metrics = registry.snapshot();
    metrics
        .histograms
        .retain(|(name, _)| !name.contains("wall"));
    BoardOutcome {
        board: job.board.id,
        attempt: job.attempt,
        record,
        tripped: result.safety.breaker_trips > 0,
        highest_failure_mv,
        runs,
        watchdog_resets: result.watchdog_resets,
        quarantined_setups: result.quarantined.len() as u64,
        breaker_trips: result.safety.breaker_trips,
        backoff_ms: result.recovery.total_backoff_ms,
        sim_cost_seconds,
        walked_steps,
        metrics,
        trace: capture.events(),
        dumps: recorder.take_dumps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::FleetSpec;

    fn job(id: u32) -> FleetJob {
        FleetJob {
            board: FleetSpec::new(8, 2018).board(id),
            attempt: 0,
            floor_override_mv: None,
        }
    }

    #[test]
    fn execute_is_deterministic() {
        let campaign = FleetCampaign::quick();
        let spec = FleetSpec::new(8, 2018);
        let a = execute(&job(1), &campaign, spec.population);
        let b = execute(&job(1), &campaign, spec.population);
        assert_eq!(a, b);
    }

    /// One job outcome's bytes, pinned: the JSON a journal frame
    /// carries, with the job's captured trace, flight dumps and metrics
    /// snapshot. The fleet report pin sees these only indirectly.
    #[test]
    fn a_job_outcome_keeps_its_recorded_bytes() {
        let spec = FleetSpec::new(8, 2018);
        let outcome = execute(&job(1), &FleetCampaign::quick(), spec.population);
        assert!(!outcome.trace.is_empty() && !outcome.dumps.is_empty());
        let json = serde::json::to_string(&outcome);
        let hash = rand::fnv1a(rand::FNV_OFFSET, json.as_bytes());
        assert_eq!(hash, 0x5e65_1dd3_e308_e3ad, "job outcome bytes changed");
    }

    #[test]
    fn an_untripped_board_yields_a_deployable_record() {
        let mut campaign = FleetCampaign::quick();
        campaign.inject_sub_vmin_sdc = false;
        let spec = FleetSpec::new(8, 2018);
        // Board 4's walk completes without tripping the safety net (most
        // boards' deep walks do trip — sub-Vmin corruption is real and
        // the sentinels catch it — which is the eviction path's job).
        let outcome = execute(&job(4), &campaign, spec.population);
        assert!(!outcome.tripped);
        let point = outcome.record.operating_point.expect("characterized");
        assert!(point.pmd_voltage < Millivolts::XGENE2_NOMINAL);
        assert!(outcome.record.margin_mv().unwrap() > 0);
        assert!(outcome.record.savings_watts > 0.0);
        assert!(outcome.sim_cost_seconds > 0.0);
        assert!(outcome.runs > 0);
        // The per-job registry captured the campaign's own counters.
        assert!(!outcome.metrics.counters.is_empty());
        // Every bank validated a refresh period at or beyond nominal.
        assert!(outcome
            .record
            .bank_safe_trefp_ms
            .iter()
            .all(|t| *t >= Milliseconds::DDR3_NOMINAL_TREFP.as_f64()));
    }

    #[test]
    fn outcomes_carry_an_ordered_warn_level_trace_and_dumps() {
        let campaign = FleetCampaign::quick();
        let spec = FleetSpec::new(8, 2018);
        let outcome = execute(&job(1), &campaign, spec.population);
        // quick() injects sub-Vmin SDC: the deep walk crashes and
        // retries, so the Warn-and-above trace is never empty.
        assert!(!outcome.trace.is_empty());
        assert!(outcome.trace.iter().all(|e| e.level >= Level::Warn));
        assert!(
            outcome.trace.windows(2).all(|w| w[0].seq < w[1].seq),
            "trace is in emission order"
        );
        // Dumps are in trigger order and end at their trigger.
        assert!(outcome
            .dumps
            .windows(2)
            .all(|w| w[0].trigger_seq < w[1].trigger_seq));
        for dump in &outcome.dumps {
            assert_eq!(dump.events.last().unwrap().seq, dump.trigger_seq);
        }
        if outcome.quarantined_setups > 0 {
            assert!(!outcome.dumps.is_empty(), "quarantines trigger dumps");
        }
    }

    #[test]
    fn warm_started_recharacterization_walks_far_fewer_steps() {
        let mut campaign = FleetCampaign::quick();
        campaign.inject_sub_vmin_sdc = false;
        let spec = FleetSpec::new(8, 2018);
        let cold = execute(&job(4), &campaign, spec.population);
        assert!(cold.walked_steps > 0);

        // Age the board three years and re-characterize from the prior.
        let board = spec.board(4);
        let aging = xgene_sim::aging::AgingModel::sampled(board.boot_seed);
        let shifts = aging.shifts_mv(&xgene_sim::aging::StressProfile::datacenter(), 36);
        let mut priors = vec![None; xgene_sim::topology::CORE_COUNT];
        for (core, vmin) in campaign.cores.iter().zip(&cold.record.core_vmin_mv) {
            priors[core.index()] = *vmin;
        }
        let env = JobEnvironment {
            chip: board.chip.with_aging(&shifts),
            population: dram_sim::aging::DramAging::dsn18().aged(
                &dram_sim::retention::WeakCellPopulation::generate(
                    &dram_sim::retention::RetentionModel::xgene2_micron(),
                    spec.population,
                    board.boot_seed,
                ),
                36,
                board.boot_seed,
            ),
            max_trefp_ms: spec.population.max_trefp.as_f64(),
            warm_start: Some(WarmStartPriors {
                core_vmin_mv: priors,
                config: WarmStartConfig::dsn18(),
            }),
        };
        let mut rejob = job(4);
        rejob.attempt = 1;
        let warm = execute_in_env(&rejob, &campaign, &env);
        assert_eq!(warm, execute_in_env(&rejob, &campaign, &env), "pure");
        assert!(
            warm.walked_steps * 2 <= cold.walked_steps,
            "warm {} vs cold {}",
            warm.walked_steps,
            cold.walked_steps
        );
        // Aged silicon never reports a lower Vmin than it started with.
        for (aged, fresh) in warm
            .record
            .core_vmin_mv
            .iter()
            .zip(&cold.record.core_vmin_mv)
        {
            if let (Some(a), Some(f)) = (aged, fresh) {
                assert!(a >= f, "aged {a} vs fresh {f}");
            }
        }
    }

    #[test]
    fn raised_floor_keeps_the_walk_shallow() {
        let campaign = FleetCampaign::quick();
        let spec = FleetSpec::new(8, 2018);
        let deep = execute(&job(3), &campaign, spec.population);
        let mut retry = job(3);
        retry.attempt = 1;
        retry.floor_override_mv = deep.highest_failure_mv.map(|mv| mv + 15);
        let shallow = execute(&retry, &campaign, spec.population);
        assert!(shallow.runs < deep.runs, "raised floor must cut the walk");
        assert_eq!(shallow.record.attempt, 1);
    }
}
