//! The execution phase: run campaigns against the server with watchdog
//! recovery, producing raw run records.
//!
//! The framework's execution loop (paper Fig. 2) drives each setup,
//! monitors for hangs/crashes through a watchdog, power-cycles the board
//! when needed, restores the characterization setup after reboot (the
//! firmware boots at nominal V/F), and logs everything for the parsing
//! phase.
//!
//! Execution is resilient to the harness's own failures
//! ([`ResilientRunner`]): power cycles that leave the board hung are
//! retried with exponential backoff, V/F restores the firmware silently
//! drops are detected by read-back and re-issued, setups that crash the
//! board repeatedly are quarantined, and the whole campaign state can be
//! checkpointed at any run boundary and resumed bit-identically. The
//! legacy [`CampaignRunner`] wraps all of this with the non-resilient
//! configuration the seed framework used.

use crate::resilience::{
    recover_board, set_pmd_voltage_verified, CampaignCheckpoint, Cursor, QuarantineRecord,
    QuarantineTracker, RecoveryStats, ResilienceConfig, SearchState,
};
use crate::safety::{
    BreakerState, CampaignSafetyState, HealthSignal, SafetySummary, TenantAttribution,
};
use crate::setup::{Setup, VminCampaign};
use power_model::units::Millivolts;
use serde::{Deserialize, Serialize};
use telemetry::Level;
use xgene_sim::fault::RunOutcome;
use xgene_sim::server::XGene2Server;
use xgene_sim::topology::CoreId;
use xgene_sim::workload::WorkloadProfile;

/// One raw run record, as written to the framework's logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Benchmark name.
    pub benchmark: String,
    /// The setup of this run.
    pub setup: Setup,
    /// Repetition index within the setup.
    pub repetition: u32,
    /// Classified outcome.
    pub outcome: RunOutcome,
    /// Whether the watchdog had to power-cycle the board.
    pub watchdog_reset: bool,
    /// Extra power-cycle attempts the recovery loop needed after this run
    /// (0 when the first cycle worked or none was needed).
    pub reset_retries: u32,
}

/// Vmin search result for one (benchmark, core).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VminResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Core under test.
    pub core: CoreId,
    /// Lowest voltage at which every repetition was safe, if any setup
    /// was safe at all.
    pub vmin: Option<Millivolts>,
    /// First (highest) voltage at which a repetition failed.
    pub first_failure: Option<Millivolts>,
}

/// Result of a whole campaign.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Every raw record in execution order.
    pub records: Vec<RunRecord>,
    /// Per-(benchmark, core) Vmin results.
    pub vmins: Vec<VminResult>,
    /// Total watchdog resets during the campaign.
    pub watchdog_resets: u64,
    /// Setups pulled from the walk for crashing the board repeatedly.
    pub quarantined: Vec<QuarantineRecord>,
    /// What the recovery machinery had to do.
    pub recovery: RecoveryStats,
    /// Safety-net summary: breaker trips and sentinel bookkeeping (all
    /// zero when sentinels were disabled). Defaults keep results from
    /// before this field decodable.
    #[serde(default)]
    pub safety: SafetySummary,
}

impl CampaignResult {
    /// Looks up the Vmin for a benchmark on a core.
    pub fn vmin(&self, benchmark: &str, core: CoreId) -> Option<Millivolts> {
        self.vmins
            .iter()
            .find(|r| r.benchmark == benchmark && r.core == core)
            .and_then(|r| r.vmin)
    }

    /// The most robust core for a benchmark (lowest Vmin).
    pub fn most_robust_core(&self, benchmark: &str) -> Option<(CoreId, Millivolts)> {
        self.vmins
            .iter()
            .filter(|r| r.benchmark == benchmark)
            .filter_map(|r| r.vmin.map(|v| (r.core, v)))
            .min_by_key(|(_, v)| *v)
    }
}

/// Runs campaigns against a server, owning watchdog bookkeeping.
#[derive(Debug)]
pub struct CampaignRunner<'a> {
    server: &'a mut XGene2Server,
}

impl<'a> CampaignRunner<'a> {
    /// Creates a runner over a booted server.
    pub fn new(server: &'a mut XGene2Server) -> Self {
        CampaignRunner { server }
    }

    /// Executes the campaign: for every (benchmark, core), walk the
    /// voltage schedule downward, run `repetitions` runs per setup, and
    /// stop the walk at the first unsafe setup (the runs below it would
    /// only crash the board repeatedly).
    ///
    /// This is the [`ResilientRunner`] under
    /// [`ResilienceConfig::legacy`]: without an installed fault plan the
    /// behavior is identical to the original non-resilient loop.
    pub fn run(&mut self, campaign: &VminCampaign) -> CampaignResult {
        ResilientRunner::new(self.server, campaign.clone(), ResilienceConfig::legacy())
            .run_to_completion()
    }
}

/// The resilient execution loop, advanced one run at a time.
///
/// Each [`Self::step`] executes exactly one benchmark run (plus whatever
/// recovery it entails) and advances the walk, so a campaign can be
/// checkpointed between any two runs with [`Self::checkpoint`] and later
/// resumed bit-identically with [`Self::resume`].
#[derive(Debug)]
pub struct ResilientRunner<'a> {
    server: &'a mut XGene2Server,
    campaign: VminCampaign,
    /// The campaign's voltage schedule, built once: the campaign never
    /// changes under a runner.
    schedule: Vec<Millivolts>,
    config: ResilienceConfig,
    cursor: Cursor,
    search: SearchState,
    quarantine: QuarantineTracker,
    result: CampaignResult,
    safety: CampaignSafetyState,
    resets_before: u64,
    done: bool,
    /// Keeps the `campaign` tracing span open for the runner's lifetime.
    _campaign_span: telemetry::SpanGuard,
}

impl<'a> ResilientRunner<'a> {
    /// Starts a campaign on a booted server.
    pub fn new(
        server: &'a mut XGene2Server,
        campaign: VminCampaign,
        config: ResilienceConfig,
    ) -> Self {
        let resets_before = server.reset_count();
        let done = campaign.benchmarks.is_empty() || campaign.cores.is_empty();
        let span = telemetry::span!(
            Level::Info,
            "campaign",
            benchmarks = campaign.benchmarks.len(),
            cores = campaign.cores.len(),
            repetitions = campaign.repetitions,
        );
        ResilientRunner {
            server,
            schedule: campaign.voltage_schedule(),
            campaign,
            config,
            cursor: Cursor::default(),
            search: SearchState::default(),
            quarantine: QuarantineTracker::default(),
            result: CampaignResult::default(),
            safety: CampaignSafetyState::default(),
            resets_before,
            done,
            _campaign_span: span,
        }
    }

    /// Snapshots the campaign at the current run boundary. The installed
    /// metrics registry (if any) is embedded as an inert snapshot so a
    /// resumed campaign's report starts from the same numbers.
    pub fn checkpoint(&self) -> CampaignCheckpoint {
        telemetry::event!(
            Level::Info,
            "checkpoint_saved",
            runs = self.result.records.len(),
            bench_idx = self.cursor.bench_idx,
            sched_idx = self.cursor.sched_idx,
        );
        telemetry::counter!("campaign_checkpoints_total");
        CampaignCheckpoint {
            metrics: telemetry::with_registry(telemetry::Registry::snapshot).unwrap_or_default(),
            campaign: self.campaign.clone(),
            config: self.config,
            server: self.server.clone(),
            cursor: self.cursor,
            search: self.search,
            partial: self.result.clone(),
            quarantine: self.quarantine.clone(),
            safety: self.safety.clone(),
            resets_before: self.resets_before,
        }
    }

    /// Resumes a checkpointed campaign. The passed server is overwritten
    /// with the snapshot (RNG and fault-plan state included), so the
    /// continuation reproduces the uninterrupted campaign bit-for-bit.
    pub fn resume(server: &'a mut XGene2Server, checkpoint: CampaignCheckpoint) -> Self {
        *server = checkpoint.server;
        let done = checkpoint.cursor.bench_idx >= checkpoint.campaign.benchmarks.len()
            || checkpoint.campaign.cores.is_empty();
        let span = telemetry::span!(
            Level::Info,
            "campaign",
            benchmarks = checkpoint.campaign.benchmarks.len(),
            cores = checkpoint.campaign.cores.len(),
            resumed_runs = checkpoint.partial.records.len(),
        );
        telemetry::event!(
            Level::Info,
            "campaign_resumed",
            runs = checkpoint.partial.records.len(),
            bench_idx = checkpoint.cursor.bench_idx,
        );
        ResilientRunner {
            server,
            schedule: checkpoint.campaign.voltage_schedule(),
            campaign: checkpoint.campaign,
            config: checkpoint.config,
            cursor: checkpoint.cursor,
            search: checkpoint.search,
            quarantine: checkpoint.quarantine,
            result: checkpoint.partial,
            safety: checkpoint.safety,
            resets_before: checkpoint.resets_before,
            done,
            _campaign_span: span,
        }
    }

    /// Whether the campaign has finished.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The results accumulated so far (complete once [`Self::is_done`]).
    pub fn result(&self) -> &CampaignResult {
        &self.result
    }

    /// Finishes the campaign and returns the result.
    pub fn run_to_completion(mut self) -> CampaignResult {
        while self.step() {}
        self.into_result()
    }

    /// Consumes the runner, returning the (possibly partial) result.
    pub fn into_result(self) -> CampaignResult {
        self.result
    }

    /// Executes one run (plus any recovery it entails) and advances the
    /// walk. Returns `false` once the campaign is finished.
    pub fn step(&mut self) -> bool {
        if self.done {
            return false;
        }
        telemetry::time_scope!("step_wall_seconds");
        let Some(&voltage) = self.schedule.get(self.cursor.sched_idx) else {
            // Empty or fully traversed schedule: the walk reached the
            // floor without a failure.
            self.finish_point(None);
            return !self.done;
        };
        if self.campaign.repetitions == 0 {
            // Degenerate campaign: every setup is vacuously safe.
            self.search.last_safe = Some(voltage);
            self.advance_schedule();
            return !self.done;
        }
        let core = self.campaign.cores[self.cursor.core_idx];
        let setup = Setup {
            voltage,
            frequency: self.campaign.frequency,
            core,
        };

        let (outcome, reset_retries) = self.run_once(&setup);
        self.result.records.push(RunRecord {
            benchmark: self.benchmark().name().to_owned(),
            setup,
            repetition: self.cursor.repetition,
            outcome,
            watchdog_reset: outcome.needs_reset(),
            reset_retries,
        });

        if self.campaign.policy.precautionary_reset(outcome) {
            // The board completed the run but reported uncorrectable
            // errors; under the strict policy its state is suspect and it
            // gets power-cycled before anything else runs.
            telemetry::event!(
                Level::Info,
                "precautionary_reset",
                outcome = outcome.label(),
            );
            self.server.reset();
            self.result.recovery.precautionary_resets += 1;
            self.recover_if_hung();
        }

        if self.campaign.policy.accepts(outcome) {
            self.quarantine.record_ok(setup);
            self.search.consecutive_crashes = 0;
            self.cursor.repetition += 1;
            if self.cursor.repetition >= self.campaign.repetitions {
                self.cursor.repetition = 0;
                self.search.last_safe = Some(voltage);
                self.advance_schedule();
            }
        } else if outcome == RunOutcome::Crash && self.config.crash_retries > 0 {
            let streak = self.quarantine.record_crash(setup);
            self.search.consecutive_crashes = streak;
            if streak > self.config.crash_retries {
                // Error level: this is the post-mortem trigger a flight
                // recorder dumps on.
                let benchmark = self.benchmark().name().to_owned();
                telemetry::event!(
                    Level::Error,
                    "quarantine",
                    benchmark = benchmark,
                    voltage_mv = voltage.as_u32(),
                    consecutive_crashes = streak,
                );
                telemetry::counter!("campaign_quarantines_total");
                self.quarantine.quarantine(setup);
                self.result.quarantined.push(QuarantineRecord {
                    benchmark,
                    setup,
                    consecutive_crashes: streak,
                    // Characterization campaigns run single-tenant: the
                    // crashes can only be the board's own.
                    attribution: TenantAttribution::Board,
                });
                self.result.recovery.quarantined_points += 1;
                self.finish_point(Some(voltage));
            } else {
                // Below the threshold the same repetition is simply
                // retried: the cursor does not move.
                telemetry::event!(
                    Level::Warn,
                    "crash_retry",
                    benchmark = self.benchmark().name(),
                    voltage_mv = voltage.as_u32(),
                    streak = streak,
                    retries_left = self.config.crash_retries - streak + 1,
                );
                telemetry::counter!("campaign_crash_retries_total");
            }
        } else {
            self.finish_point(Some(voltage));
        }
        self.maybe_run_sentinel();
        self.result.safety = self.safety.summary();
        !self.done
    }

    /// Every [`ResilienceConfig::sentinel_every`] campaign runs, executes
    /// one DMR sentinel check on the PMD of the core under test and feeds
    /// the observables (CE reports, checksum/vote detections, timeouts)
    /// into the campaign's circuit breaker. A freshly opened breaker
    /// triggers a precautionary power cycle: the board's state is suspect.
    ///
    /// Disabled (`sentinel_every == 0`) this consumes nothing — no server
    /// runs, no RNG draws — so legacy campaigns are bit-identical.
    fn maybe_run_sentinel(&mut self) {
        if self.config.sentinel_every == 0 || self.done {
            return;
        }
        self.safety.runs_since_sentinel += 1;
        if self.safety.runs_since_sentinel < self.config.sentinel_every {
            return;
        }
        self.safety.runs_since_sentinel = 0;
        let pmd = self.campaign.cores[self.cursor.core_idx].pmd();
        let report = self.safety.sentinel.check(self.server, pmd);
        self.recover_if_hung();
        let mut signal = HealthSignal::clean();
        signal.absorb(&report);
        let before = self.safety.breaker.state();
        let after = self.safety.breaker.record_epoch(&signal);
        if after == BreakerState::Tripped && before != BreakerState::Tripped {
            telemetry::event!(
                Level::Warn,
                "campaign_breaker_trip",
                verdict = report.verdict.label(),
                pmd = pmd.index(),
            );
            self.server.reset();
            self.result.recovery.precautionary_resets += 1;
            self.recover_if_hung();
        }
    }

    /// The benchmark under test.
    fn benchmark(&self) -> &WorkloadProfile {
        &self.campaign.benchmarks[self.cursor.bench_idx]
    }

    /// Applies the setup (verifying the V/F writes landed), runs the
    /// benchmark under test once, and recovers the board if the
    /// watchdog's own power cycle left it hung.
    fn run_once(&mut self, setup: &Setup) -> (RunOutcome, u32) {
        {
            let _setup_span = telemetry::span!(
                Level::Debug,
                "setup",
                voltage_mv = setup.voltage.as_u32(),
                freq_mhz = setup.frequency.as_u32(),
                core = setup.core.index(),
            );
            self.apply_setup(setup);
        }
        let benchmark = &self.campaign.benchmarks[self.cursor.bench_idx];
        let _run_span = telemetry::span!(
            Level::Debug,
            "run",
            benchmark = benchmark.name(),
            repetition = self.cursor.repetition,
        );
        let outcome = self.server.run_on_core(setup.core, benchmark).outcome;
        let reset_retries = self.recover_if_hung();
        telemetry::event!(
            Level::Info,
            "run_complete",
            benchmark = self.benchmark().name(),
            voltage_mv = setup.voltage.as_u32(),
            repetition = self.cursor.repetition,
            outcome = outcome.label(),
            reset_retries = reset_retries,
        );
        telemetry::counter!("campaign_runs_total");
        match outcome {
            RunOutcome::Correct => {}
            RunOutcome::CorrectableError => telemetry::counter!("campaign_ce_total"),
            RunOutcome::UncorrectableError => telemetry::counter!("campaign_ue_total"),
            RunOutcome::SilentDataCorruption => telemetry::counter!("campaign_sdc_total"),
            RunOutcome::Crash => telemetry::counter!("campaign_crashes_total"),
        }
        (outcome, reset_retries)
    }

    /// (Re-)applies the characterization setup; the board may have
    /// rebooted at nominal after a previous crash, and a faulty firmware
    /// may silently drop the voltage write — detected by read-back and
    /// re-issued.
    ///
    /// # Panics
    ///
    /// Panics if the firmware drops more consecutive restores than
    /// [`ResilienceConfig::setup_restore_attempts`] allows (a fault plan
    /// with a 100 % loss rate).
    fn apply_setup(&mut self, setup: &Setup) {
        self.result.recovery.setup_restores += set_pmd_voltage_verified(
            self.server,
            setup.voltage,
            self.config.setup_restore_attempts,
        );
        self.server
            .set_pmd_frequency(setup.core.pmd(), setup.frequency)
            .expect("campaign frequencies are valid DVFS steps");
    }

    /// Recovers a hung board with the retry policy, folding the outcome
    /// into the campaign stats. Returns the retry count.
    fn recover_if_hung(&mut self) -> u32 {
        if !self.server.is_hung() {
            return 0;
        }
        let recovery = recover_board(self.server, &self.config.retry);
        self.result.recovery.absorb(&recovery);
        recovery.retries
    }

    /// Moves to the next voltage, finishing the point if the schedule is
    /// exhausted.
    fn advance_schedule(&mut self) {
        self.cursor.sched_idx += 1;
        if self.cursor.sched_idx >= self.schedule.len() {
            self.finish_point(None);
        }
    }

    /// Emits the VminResult of the current (benchmark, core) and advances
    /// to the next point, finishing the campaign after the last one.
    fn finish_point(&mut self, first_failure: Option<Millivolts>) {
        let benchmark = self.benchmark().name().to_owned();
        let core = self.campaign.cores[self.cursor.core_idx];
        telemetry::event!(
            Level::Info,
            "point_complete",
            benchmark = benchmark.as_str(),
            core = core.index(),
            vmin_mv = self
                .search
                .last_safe
                .map(|v| i64::from(v.as_u32()))
                .unwrap_or(-1),
            first_failure_mv = first_failure.map(|v| i64::from(v.as_u32())).unwrap_or(-1),
        );
        self.result.vmins.push(VminResult {
            benchmark,
            core,
            vmin: self.search.last_safe,
            first_failure,
        });
        self.search = SearchState::default();
        self.cursor.sched_idx = 0;
        self.cursor.repetition = 0;
        self.cursor.core_idx += 1;
        if self.cursor.core_idx >= self.campaign.cores.len() {
            self.cursor.core_idx = 0;
            self.cursor.bench_idx += 1;
            if self.cursor.bench_idx >= self.campaign.benchmarks.len() {
                self.result.watchdog_resets = self.server.reset_count() - self.resets_before;
                self.done = true;
                telemetry::event!(
                    Level::Info,
                    "campaign_complete",
                    runs = self.result.records.len(),
                    watchdog_resets = self.result.watchdog_resets,
                    quarantined = self.result.quarantined.len(),
                );
            }
        }
    }
}

/// The classification the parsing phase attaches to a whole setup from
/// its repetition outcomes: the most severe one (a safe policy moves the
/// accept/reject line, not the severity order).
pub fn classify_setup(outcomes: &[RunOutcome]) -> RunOutcome {
    outcomes
        .iter()
        .copied()
        .max()
        .unwrap_or(RunOutcome::Correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SafePolicy;
    use power_model::units::Megahertz;
    use workload_sim::spec::SPEC_SUITE;
    use xgene_sim::fault::FaultPlan;
    use xgene_sim::sigma::SigmaBin;

    fn campaign_for(names: &[&str], cores: Vec<CoreId>) -> VminCampaign {
        let benchmarks = SPEC_SUITE
            .iter()
            .filter(|b| names.contains(&b.name))
            .map(|b| b.profile())
            .collect();
        VminCampaign::dsn18(benchmarks, cores)
    }

    #[test]
    fn vmin_search_finds_model_vmin() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 17);
        let chip = server.chip().clone();
        let core = chip.most_robust_core();
        let campaign = campaign_for(&["mcf"], vec![core]);
        let mut runner = CampaignRunner::new(&mut server);
        let result = runner.run(&campaign);
        let found = result.vmin("mcf", core).expect("campaign found a Vmin");
        let model = chip.vmin(
            core,
            &SPEC_SUITE
                .iter()
                .find(|b| b.name == "mcf")
                .unwrap()
                .profile(),
            Megahertz::XGENE2_NOMINAL,
        );
        // The campaign's safe Vmin sits within one marginal band (the CE
        // zone is probabilistic) above the model Vmin.
        let delta = i64::from(found.as_u32()) - i64::from(model.as_u32());
        assert!((0..=10).contains(&delta), "found {found}, model {model}");
    }

    #[test]
    fn campaign_records_cover_the_walk() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 18);
        let core = server.chip().most_robust_core();
        let campaign = campaign_for(&["milc"], vec![core]);
        let mut runner = CampaignRunner::new(&mut server);
        let result = runner.run(&campaign);
        assert!(!result.records.is_empty());
        // Records walk downward in voltage.
        let voltages: Vec<u32> = result
            .records
            .iter()
            .map(|r| r.setup.voltage.as_u32())
            .collect();
        assert!(voltages.windows(2).all(|w| w[1] <= w[0]));
        // The walk stopped at a failure.
        let last = result.records.last().unwrap();
        assert!(!campaign.policy.accepts(last.outcome));
        // Without a fault plan the recovery machinery never engages.
        assert!(!result.recovery.any_recovery());
        assert!(result.quarantined.is_empty());
    }

    #[test]
    fn watchdog_recovers_from_crashes() {
        let mut server = XGene2Server::new(SigmaBin::Tss, 19);
        let core = server.chip().weakest_core();
        // Coarse 150 mV steps jump straight from safe territory deep into
        // the crash zone, so the first failure is a guaranteed lockup.
        let mut campaign = campaign_for(&["milc", "mcf"], vec![core]);
        campaign.step_mv = 150;
        let mut runner = CampaignRunner::new(&mut server);
        let result = runner.run(&campaign);
        // Walking to the floor guarantees crashes; the campaign still
        // completes both benchmarks.
        assert!(result.watchdog_resets >= 1);
        assert_eq!(result.vmins.len(), 2);
        assert!(result.vmins.iter().all(|v| v.vmin.is_some()));
    }

    #[test]
    fn most_robust_core_matches_chip_profile() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 20);
        let chip = server.chip().clone();
        let cores: Vec<CoreId> = CoreId::all().collect();
        let campaign = campaign_for(&["namd"], cores);
        let mut runner = CampaignRunner::new(&mut server);
        let result = runner.run(&campaign);
        let (best_core, _) = result.most_robust_core("namd").unwrap();
        assert_eq!(best_core, chip.most_robust_core());
    }

    #[test]
    fn classify_setup_takes_worst() {
        use RunOutcome::*;
        assert_eq!(classify_setup(&[Correct, CorrectableError, Crash]), Crash);
        assert_eq!(classify_setup(&[Correct]), Correct);
        assert_eq!(classify_setup(&[]), Correct);
    }

    #[test]
    fn hostile_plan_still_yields_the_same_vmin() {
        // The acceptance scenario: a campaign under an injected fault plan
        // with at least one failed power cycle and one lost setup restore
        // completes with the same Vmin a clean campaign finds. Coarse
        // 150 mV steps guarantee the second setup crashes the board, so
        // reset draws definitely happen; the forced setup loss sits on the
        // first post-recovery voltage write, where the dropped write is
        // actually observable by read-back.
        let core = {
            let server = XGene2Server::new(SigmaBin::Tss, 55);
            server.chip().weakest_core()
        };
        let mut campaign = campaign_for(&["milc"], vec![core]);
        campaign.step_mv = 150;

        let mut clean_server = XGene2Server::new(SigmaBin::Tss, 55);
        let clean = ResilientRunner::new(
            &mut clean_server,
            campaign.clone(),
            ResilienceConfig::dsn18(),
        )
        .run_to_completion();

        let mut faulty_server = XGene2Server::new(SigmaBin::Tss, 55);
        faulty_server.install_fault_plan(
            FaultPlan::quiet(77)
                .with_power_cycle_failure_rate(0.4)
                .with_setup_loss_rate(0.02)
                .force_hang_at(0)
                .force_setup_loss_at(11),
        );
        let faulty = ResilientRunner::new(&mut faulty_server, campaign, ResilienceConfig::dsn18())
            .run_to_completion();

        assert_eq!(
            clean.vmin("milc", core),
            faulty.vmin("milc", core),
            "harness faults must not move the measured Vmin"
        );
        assert!(
            faulty.recovery.failed_power_cycles >= 1,
            "{:?}",
            faulty.recovery
        );
        assert!(faulty.recovery.setup_restores >= 1, "{:?}", faulty.recovery);
        assert!(faulty.recovery.total_backoff_ms > 0);
        assert!(faulty.records.iter().any(|r| r.reset_retries > 0));
    }

    #[test]
    fn repeatedly_crashing_point_is_quarantined() {
        let mut server = XGene2Server::new(SigmaBin::Tss, 56);
        let core = server.chip().weakest_core();
        // 150 mV steps put the second setup deep in the deterministic
        // crash zone: with crash retries on, it crashes K+1 times in a row
        // and gets quarantined.
        let mut campaign = campaign_for(&["milc"], vec![core]);
        campaign.step_mv = 150;
        let config = ResilienceConfig::dsn18();
        let result = ResilientRunner::new(&mut server, campaign, config).run_to_completion();
        assert_eq!(result.quarantined.len(), 1, "{:?}", result.quarantined);
        let q = &result.quarantined[0];
        assert_eq!(q.consecutive_crashes, config.crash_retries + 1);
        assert_eq!(result.recovery.quarantined_points, 1);
        // The walk still produced a Vmin above the quarantined setup.
        let vmin = result.vmins[0].vmin.expect("the first setup was safe");
        assert!(vmin > q.setup.voltage);
        // Every crash retry is in the records: K+1 crashes at the setup.
        let crashes = result
            .records
            .iter()
            .filter(|r| r.setup == q.setup && r.outcome == RunOutcome::Crash)
            .count();
        assert_eq!(crashes as u32, config.crash_retries + 1);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_mid_campaign() {
        let campaign = {
            let server = XGene2Server::new(SigmaBin::Ttt, 57);
            let core = server.chip().most_robust_core();
            let mut c = campaign_for(&["mcf"], vec![core]);
            c.step_mv = 20;
            c.repetitions = 3;
            c
        };
        let plan = FaultPlan::hostile(58);

        let mut reference_server = XGene2Server::new(SigmaBin::Ttt, 57);
        reference_server.install_fault_plan(plan.clone());
        let reference = ResilientRunner::new(
            &mut reference_server,
            campaign.clone(),
            ResilienceConfig::dsn18(),
        )
        .run_to_completion();

        // Same campaign, interrupted after 7 runs and resumed from JSON.
        let mut server = XGene2Server::new(SigmaBin::Ttt, 57);
        server.install_fault_plan(plan);
        let mut runner = ResilientRunner::new(&mut server, campaign, ResilienceConfig::dsn18());
        for _ in 0..7 {
            if !runner.step() {
                break;
            }
        }
        let json = runner.checkpoint().to_json();
        drop(runner);

        // A completely fresh server is overwritten by the snapshot.
        let mut resumed_server = XGene2Server::new(SigmaBin::Tff, 9999);
        let checkpoint = CampaignCheckpoint::from_json(&json).unwrap();
        let resumed = ResilientRunner::resume(&mut resumed_server, checkpoint).run_to_completion();

        assert_eq!(reference, resumed);
    }

    #[test]
    fn a_checkpoint_before_the_first_run_carries_the_population_recipe() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 7);
        let core = server.chip().most_robust_core();
        let campaign = campaign_for(&["mcf"], vec![core]);
        let runner = ResilientRunner::new(&mut server, campaign, ResilienceConfig::dsn18());
        let json = runner.checkpoint().to_json();
        // The ~28,400 generated weak cells took 5.8 MB as a cell list.
        assert!(json.len() < 64 * 1024, "{} bytes", json.len());
        let back = CampaignCheckpoint::from_json(&json).unwrap();
        assert_eq!(
            back.server.dram().population().cells(),
            XGene2Server::new(SigmaBin::Ttt, 7)
                .dram()
                .population()
                .cells()
        );
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn checkpoint_embeds_and_roundtrips_the_metrics_snapshot() {
        let registry = std::rc::Rc::new(telemetry::Registry::new());
        let _guard = telemetry::Telemetry::new()
            .with_registry(registry.clone())
            .install();

        let mut server = XGene2Server::new(SigmaBin::Ttt, 61);
        let core = server.chip().most_robust_core();
        let mut campaign = campaign_for(&["mcf"], vec![core]);
        campaign.step_mv = 20;
        let mut runner = ResilientRunner::new(&mut server, campaign, ResilienceConfig::dsn18());
        for _ in 0..5 {
            assert!(runner.step());
        }
        let checkpoint = runner.checkpoint();
        assert_eq!(checkpoint.metrics, registry.snapshot());
        assert_eq!(checkpoint.metrics.counter("campaign_runs_total"), Some(5));

        // The snapshot survives the JSON round trip bit-for-bit.
        let back = CampaignCheckpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(back.metrics, checkpoint.metrics);

        // Old checkpoints (no metrics key) still decode, as an empty
        // snapshot.
        let json = checkpoint.to_json();
        let legacy = json.replace(
            &format!(
                ",\"metrics\":{}",
                serde::json::to_string(&checkpoint.metrics)
            ),
            "",
        );
        assert_ne!(legacy, json, "metrics key should have been stripped");
        let old = CampaignCheckpoint::from_json(&legacy).unwrap();
        assert_eq!(old.metrics, telemetry::MetricsSnapshot::default());
    }

    #[test]
    fn guarded_campaign_runs_sentinels_and_stays_healthy_without_faults() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 71);
        let core = server.chip().most_robust_core();
        let profile = SPEC_SUITE
            .iter()
            .find(|b| b.name == "mcf")
            .unwrap()
            .profile();
        let vmin = server
            .chip()
            .vmin(core, &profile, Megahertz::XGENE2_NOMINAL);
        let mut campaign = campaign_for(&["mcf"], vec![core]);
        campaign.step_mv = 5;
        // Keep the whole schedule above Vmin: with no setup in the danger
        // zone, every canary must come back clean.
        campaign.floor = Millivolts::new(vmin.as_u32() + 20);
        let config = ResilienceConfig {
            sentinel_every: 4,
            ..ResilienceConfig::guarded()
        };
        let result = ResilientRunner::new(&mut server, campaign, config).run_to_completion();
        assert!(
            result.safety.sentinel.checks >= 2,
            "{:?}",
            result.safety.sentinel
        );
        assert_eq!(result.safety.breaker_trips, 0);
        assert_eq!(result.safety.sentinel.undetected_sdcs, 0);
        assert_eq!(result.safety.last_trip_reason, None);
    }

    #[test]
    fn sub_vmin_sdc_in_a_canary_is_detected_and_trips_the_breaker() {
        // Force every completed sub-Vmin run silent: once the walk dips
        // below Vmin, the sentinel's canaries corrupt too — and the
        // checksum/vote machinery must catch every single one.
        let mut server = XGene2Server::new(SigmaBin::Tss, 72);
        server.install_fault_plan(FaultPlan::quiet(72).with_sub_vmin_sdc());
        let core = server.chip().weakest_core();
        let mut campaign = campaign_for(&["milc"], vec![core]);
        campaign.step_mv = 10;
        let config = ResilienceConfig {
            sentinel_every: 2,
            crash_retries: 6,
            ..ResilienceConfig::guarded()
        };
        let result = ResilientRunner::new(&mut server, campaign, config).run_to_completion();
        let s = result.safety;
        assert!(s.sentinel.checks >= 1, "{s:?}");
        assert_eq!(s.sentinel.undetected_sdcs, 0, "zero misses: {s:?}");
        if s.sentinel.true_sdcs > 0 {
            assert!(s.sentinel.detections() > 0, "{s:?}");
            assert!(s.breaker_trips >= 1, "{s:?}");
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_with_sentinels_enabled() {
        let campaign = {
            let server = XGene2Server::new(SigmaBin::Ttt, 73);
            let core = server.chip().most_robust_core();
            let mut c = campaign_for(&["mcf"], vec![core]);
            c.step_mv = 20;
            c.repetitions = 3;
            c
        };
        let plan = FaultPlan::hostile(74).with_sub_vmin_sdc();
        let config = ResilienceConfig {
            sentinel_every: 3,
            ..ResilienceConfig::guarded()
        };

        let mut reference_server = XGene2Server::new(SigmaBin::Ttt, 73);
        reference_server.install_fault_plan(plan.clone());
        let reference = ResilientRunner::new(&mut reference_server, campaign.clone(), config)
            .run_to_completion();

        let mut server = XGene2Server::new(SigmaBin::Ttt, 73);
        server.install_fault_plan(plan);
        let mut runner = ResilientRunner::new(&mut server, campaign, config);
        for _ in 0..9 {
            if !runner.step() {
                break;
            }
        }
        let json = runner.checkpoint().to_json();
        drop(runner);

        let mut resumed_server = XGene2Server::new(SigmaBin::Tff, 31337);
        let checkpoint = CampaignCheckpoint::from_json(&json).unwrap();
        let resumed = ResilientRunner::resume(&mut resumed_server, checkpoint).run_to_completion();

        assert_eq!(reference, resumed, "safety state must resume seamlessly");
        assert!(reference.safety.sentinel.checks >= 1);
    }

    #[test]
    fn a_checkpoint_that_still_lists_the_canary_kernels_resumes() {
        // Checkpoints once carried the sentinel's two canary kernels; the
        // kernels now come from the process's one suite, and a checkpoint
        // that still lists them must decode and resume unchanged.
        let campaign = {
            let server = XGene2Server::new(SigmaBin::Ttt, 73);
            let core = server.chip().most_robust_core();
            let mut c = campaign_for(&["mcf"], vec![core]);
            c.step_mv = 20;
            c.repetitions = 3;
            c
        };
        let plan = FaultPlan::hostile(74).with_sub_vmin_sdc();
        let config = ResilienceConfig {
            sentinel_every: 3,
            ..ResilienceConfig::guarded()
        };
        let mut reference_server = XGene2Server::new(SigmaBin::Ttt, 73);
        reference_server.install_fault_plan(plan.clone());
        let reference = ResilientRunner::new(&mut reference_server, campaign.clone(), config)
            .run_to_completion();

        let mut server = XGene2Server::new(SigmaBin::Ttt, 73);
        server.install_fault_plan(plan);
        let mut runner = ResilientRunner::new(&mut server, campaign, config);
        for _ in 0..9 {
            assert!(runner.step());
        }
        let json = runner.checkpoint().to_json();
        drop(runner);

        // The kernel list as it was written: name, words, seed, golden.
        let shapes = [(2048, 0x1A5C_0FFE_u64), (8192, 0x5EED_CAFE)];
        let kernels: Vec<String> = workload_sim::canary::CanaryKernel::sentinel_suite()
            .iter()
            .zip(shapes)
            .map(|(kernel, (words, seed))| {
                format!(
                    "{{\"name\":\"{}\",\"words\":{words},\"seed\":{seed},\"golden\":{}}}",
                    kernel.name(),
                    kernel.golden()
                )
            })
            .collect();
        let runner_key = "\"sentinel\":{\"next_kernel\":";
        assert_eq!(json.matches(runner_key).count(), 1);
        let legacy = json.replace(
            runner_key,
            &format!(
                "\"sentinel\":{{\"kernels\":[{}],\"next_kernel\":",
                kernels.join(",")
            ),
        );

        let checkpoint = CampaignCheckpoint::from_json(&legacy).unwrap();
        assert_eq!(checkpoint.to_json(), json, "the kernel list is ignored");
        let mut resumed_server = XGene2Server::new(SigmaBin::Tff, 31337);
        let resumed = ResilientRunner::resume(&mut resumed_server, checkpoint).run_to_completion();
        assert_eq!(reference, resumed);
        assert!(reference.safety.sentinel.checks >= 1);
    }

    #[test]
    fn strict_policy_issues_precautionary_reset_on_ue() {
        // Pin a single setup inside the failure band, where completed runs
        // report UEs. Under StrictCorrect every UE must power-cycle the
        // board even though the run finished without the watchdog; under
        // the default policy none do.
        let run_with = |policy: SafePolicy| {
            let mut server = XGene2Server::new(SigmaBin::Tss, 52);
            let core = server.chip().weakest_core();
            let profile = SPEC_SUITE
                .iter()
                .find(|b| b.name == "milc")
                .unwrap()
                .profile();
            let vmin = server
                .chip()
                .vmin(core, &profile, Megahertz::XGENE2_NOMINAL);
            let mut campaign = campaign_for(&["milc"], vec![core]);
            campaign.start = Millivolts::new(vmin.as_u32() - 6);
            campaign.floor = campaign.start;
            campaign.policy = policy;
            // Generous crash retries keep the walk alive until a
            // completed-but-failing run (CE/SDC/UE) ends it.
            let config = ResilienceConfig {
                crash_retries: 100,
                ..ResilienceConfig::dsn18()
            };
            ResilientRunner::new(&mut server, campaign, config).run_to_completion()
        };

        let strict = run_with(SafePolicy::StrictCorrect);
        let ue_runs = strict
            .records
            .iter()
            .filter(|r| r.outcome == RunOutcome::UncorrectableError)
            .count() as u64;
        assert!(ue_runs >= 1, "the failure band must have produced a UE");
        assert_eq!(strict.recovery.precautionary_resets, ue_runs);

        let lenient = run_with(SafePolicy::AllowCorrected);
        assert_eq!(lenient.recovery.precautionary_resets, 0);
    }
}
