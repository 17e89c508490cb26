//! The assembled safety net around the online governor.
//!
//! [`SafetyNet::run_epoch`] is the production epoch loop: choose a voltage
//! (nominal whenever the breaker is open), run the workload, project the
//! outcome through the observability boundary, feed the governor only
//! what production can see, interleave DMR sentinel checks, and fold all
//! observables into the circuit breaker. A trip restores the governor
//! margin and rolls the DRAM refresh period back to nominal; the breaker's
//! hold-then-cooldown hysteresis re-earns the relaxed settings.

use crate::governor::OnlineGovernor;
use crate::safety::observe::{ErrorReport, Observation};
use char_fw::resilience::{recover_board, RetryPolicy};
use char_fw::safety::{
    BreakerConfig, BreakerState, CircuitBreaker, HealthSignal, SentinelRunner, SentinelStats,
    SentinelVerdict,
};
use dram_sim::array::DramArray;
use dram_sim::scrubber::ScrubberStats;
use power_model::units::{Milliseconds, Millivolts};
use serde::{Deserialize, Serialize};
use telemetry::Level;
use xgene_sim::fault::RunOutcome;
use xgene_sim::server::XGene2Server;
use xgene_sim::topology::CoreId;
use xgene_sim::watchdog::{DeadlineWatchdog, WatchdogConfig};
use xgene_sim::workload::WorkloadProfile;

/// Safety-net tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SafetyNetConfig {
    /// Circuit-breaker thresholds and hold/cooldown lengths.
    pub breaker: BreakerConfig,
    /// Deadline watchdog budget.
    pub watchdog: WatchdogConfig,
    /// Board-recovery retry schedule after a watchdog power cycle.
    pub retry: RetryPolicy,
    /// Run one DMR sentinel check every this many epochs (0 disables
    /// sentinels — not recommended below the guardband).
    pub sentinel_every_epochs: u32,
    /// Extra adaptive margin restored onto the governor when the breaker
    /// trips, in mV.
    pub trip_margin_widen_mv: u32,
    /// The relaxed DRAM refresh period used while the breaker is closed;
    /// an open breaker rolls back to the DDR3 nominal 64 ms.
    pub relaxed_trefp: Milliseconds,
    /// Conservative platform constant (mV per unit of co-runner resonant
    /// energy) used to *estimate* the cross-tenant droop from co-located
    /// tenants' PMU telemetry — both to compensate the commanded voltage
    /// and to feed the breaker's droop EWMA. `0` (the default, and what
    /// every legacy config decodes to) disables estimation entirely.
    #[serde(default)]
    pub cross_droop_mv_per_unit: f64,
    /// Adaptive sentinel cadence: while the droop estimate or breaker
    /// state is anomalous, the sentinel period tightens from
    /// `sentinel_every_epochs` down to this floor. `0` disables.
    #[serde(default)]
    pub min_sentinel_every_epochs: u32,
    /// When the droop EWMA is about to cross the trip threshold,
    /// quarantine the *attacker* (evict the co-tenant, keep the healthy
    /// board scaled) instead of tripping the breaker into nominal hold.
    /// Board-fault trips are untouched — this is what makes attacker
    /// quarantine distinct from board quarantine.
    #[serde(default)]
    pub quarantine_attacker: bool,
}

impl SafetyNetConfig {
    /// Production defaults around the paper's safe point: sentinels every
    /// 10 epochs, a 30 mV margin restore per trip, and the 35× relaxed
    /// refresh period while healthy.
    pub fn dsn18() -> Self {
        SafetyNetConfig {
            breaker: BreakerConfig::dsn18(),
            watchdog: WatchdogConfig::dsn18(),
            retry: RetryPolicy::dsn18(),
            sentinel_every_epochs: 10,
            trip_margin_widen_mv: 30,
            relaxed_trefp: Milliseconds::DSN18_RELAXED_TREFP,
            cross_droop_mv_per_unit: 0.0,
            min_sentinel_every_epochs: 0,
            quarantine_attacker: false,
        }
    }

    /// The red-team-motivated hardening on top of [`Self::dsn18`]:
    ///
    /// * droop estimation at 48 mV per unit resonant energy — the
    ///   worst-characterized corner's rail coupling (0.55 × the TFF droop
    ///   coefficient) plus sampling headroom, so feed-forward
    ///   compensation covers every board in the fleet without oracle
    ///   access to the victim chip's true coefficient;
    /// * droop attribution in the breaker (watch at 12 mV, trip at
    ///   25 mV smoothed);
    /// * sentinel cadence tightening to every 2 epochs under anomalous
    ///   droop or CE bursts;
    /// * attacker quarantine instead of board trips for droop
    ///   excursions.
    pub fn hardened() -> Self {
        SafetyNetConfig {
            breaker: BreakerConfig {
                droop_watch_mv: 12.0,
                droop_trip_mv: 25.0,
                ..BreakerConfig::dsn18()
            },
            cross_droop_mv_per_unit: 48.0,
            min_sentinel_every_epochs: 2,
            quarantine_attacker: true,
            ..SafetyNetConfig::dsn18()
        }
    }
}

impl Default for SafetyNetConfig {
    fn default() -> Self {
        SafetyNetConfig::dsn18()
    }
}

/// Ground-truth bookkeeping for tests and post-hoc analysis. The control
/// path never reads this: it exists so experiments can *prove* the
/// detection coverage the net claims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SdcAudit {
    /// True SDCs suffered by production workload epochs. These are
    /// invisible by construction — the net's answer to them is the
    /// sentinel cadence, not per-run detection.
    pub workload_true_sdcs: u64,
    /// True SDCs that occurred *before* the net's first detection event
    /// (breaker trip or attacker quarantine) — the red-team escape
    /// count. Equal to `workload_true_sdcs` when nothing ever detects.
    #[serde(default)]
    pub escaped_sdcs: u64,
}

/// Aggregate net bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SafetyNetStats {
    /// Epochs executed through the net.
    pub epochs: u64,
    /// Epochs spent at nominal because the breaker was open.
    pub nominal_epochs: u64,
    /// Refresh rollbacks to the DDR3 nominal period (one per trip).
    pub refresh_rollbacks: u64,
    /// Relaxed-refresh restores after a full recovery.
    pub refresh_restores: u64,
    /// Transitions of the sentinel cadence from the relaxed period to
    /// the tightened floor (see
    /// [`SafetyNetConfig::min_sentinel_every_epochs`]).
    #[serde(default)]
    pub cadence_tightenings: u64,
    /// Co-tenants evicted by the droop-attribution preview instead of
    /// tripping the breaker.
    #[serde(default)]
    pub attacker_quarantines: u64,
    /// Epoch index (1-based) of the first detection event — a breaker
    /// trip or an attacker quarantine — if one has happened.
    #[serde(default)]
    pub first_detection_epoch: Option<u64>,
}

/// What one guarded epoch did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Voltage commanded for the workload epoch.
    pub commanded: Millivolts,
    /// The epoch as production observed it.
    pub observation: Observation,
    /// Verdict of the sentinel check, if one was scheduled this epoch.
    pub sentinel: Option<SentinelVerdict>,
    /// Breaker state after folding this epoch in.
    pub breaker_state: BreakerState,
    /// Refresh period in force after this epoch.
    pub trefp: Milliseconds,
    /// Estimated cross-tenant droop folded into this epoch's breaker
    /// signal, in mV (0 on a dedicated PMD or with estimation disabled).
    pub cross_droop_estimate_mv: f64,
    /// Whether an attacker quarantine was in force during this epoch.
    pub attacker_quarantined: bool,
}

/// The assembled safety net.
#[derive(Debug, Clone)]
pub struct SafetyNet {
    config: SafetyNetConfig,
    breaker: CircuitBreaker,
    sentinel: SentinelRunner,
    watchdog: DeadlineWatchdog,
    epochs_since_sentinel: u32,
    /// Latest DRAM scrubber correction rate (corrections/epoch), fed via
    /// [`Self::feed_scrubber`]; folded into every breaker epoch.
    scrub_ce_rate: f64,
    last_scrub: Option<ScrubberStats>,
    audit: SdcAudit,
    stats: SafetyNetStats,
    attacker_quarantined: bool,
    cadence_tightened: bool,
}

impl SafetyNet {
    /// A closed net with the default canary suite.
    pub fn new(config: SafetyNetConfig) -> Self {
        SafetyNet {
            config,
            breaker: CircuitBreaker::new(config.breaker),
            sentinel: SentinelRunner::default(),
            watchdog: DeadlineWatchdog::new(config.watchdog),
            epochs_since_sentinel: 0,
            scrub_ce_rate: 0.0,
            last_scrub: None,
            audit: SdcAudit::default(),
            stats: SafetyNetStats::default(),
            attacker_quarantined: false,
            cadence_tightened: false,
        }
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Breaker trips so far.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker.trips()
    }

    /// Sentinel bookkeeping.
    pub fn sentinel_stats(&self) -> SentinelStats {
        self.sentinel.stats()
    }

    /// Ground-truth audit (tests only — see [`SdcAudit`]).
    pub fn audit(&self) -> SdcAudit {
        self.audit
    }

    /// Net bookkeeping.
    pub fn stats(&self) -> SafetyNetStats {
        self.stats
    }

    /// The refresh period currently authorized: relaxed while the breaker
    /// permits scaled operation, the DDR3 nominal 64 ms otherwise.
    pub fn current_trefp(&self) -> Milliseconds {
        if self.breaker.allows_scaling() {
            self.config.relaxed_trefp
        } else {
            Milliseconds::DDR3_NOMINAL_TREFP
        }
    }

    /// Applies the authorized refresh period to a DRAM array.
    pub fn apply_refresh(&self, dram: &mut DramArray) {
        dram.set_trefp(self.current_trefp());
    }

    /// Feeds the DRAM scrubber's cumulative stats, converting the delta
    /// since the previous feed into a corrections-per-epoch rate that the
    /// breaker folds into its EWMA. `epochs` is how many epochs the delta
    /// spans.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is not strictly positive.
    pub fn feed_scrubber(&mut self, stats: ScrubberStats, epochs: f64) {
        assert!(epochs > 0.0, "the feed must span at least part of an epoch");
        let prev = self.last_scrub.unwrap_or_default();
        let corrections = stats.corrections.saturating_sub(prev.corrections);
        self.scrub_ce_rate = corrections as f64 / epochs;
        self.last_scrub = Some(stats);
        telemetry::gauge!("scrub_ce_rate_per_epoch", self.scrub_ce_rate);
    }

    /// Whether the droop-attribution preview has evicted the co-tenant.
    /// Once set, every later epoch runs the victim solo regardless of the
    /// schedule passed in.
    pub fn attacker_quarantined(&self) -> bool {
        self.attacker_quarantined
    }

    /// Estimated cross-tenant droop, in mV, from the co-runners' PMU
    /// telemetry (resonant energy), scaled by the platform constant. This
    /// is the net's *estimate* — it has no oracle access to the victim
    /// chip's true coupling coefficient.
    fn droop_estimate(&self, co_tenants: &[(CoreId, &WorkloadProfile)]) -> f64 {
        self.config.cross_droop_mv_per_unit
            * co_tenants
                .iter()
                .map(|(_, w)| w.resonant_energy())
                .sum::<f64>()
    }

    /// Feed-forward compensation: raise the governor's choice by the
    /// estimated co-tenant droop (rounded up), never above nominal.
    fn compensate(chosen: Millivolts, droop_estimate_mv: f64) -> Millivolts {
        if droop_estimate_mv <= 0.0 {
            return chosen;
        }
        let bumped = chosen.as_u32() + droop_estimate_mv.ceil() as u32;
        Millivolts::new(bumped.min(Millivolts::XGENE2_NOMINAL.as_u32()))
    }

    /// Marks the first detection event (trip or quarantine) if none has
    /// been recorded yet.
    fn mark_detection(&mut self) {
        if self.stats.first_detection_epoch.is_none() {
            self.stats.first_detection_epoch = Some(self.stats.epochs);
        }
    }

    fn evict_attacker(&mut self, governor: &mut OnlineGovernor) {
        self.attacker_quarantined = true;
        self.stats.attacker_quarantines += 1;
        self.mark_detection();
        governor.record_attacker_quarantine();
        telemetry::event!(
            Level::Warn,
            "attacker_quarantined",
            epoch = self.stats.epochs,
        );
        telemetry::counter!("safety_redteam_attacker_quarantines_total");
    }

    /// Runs one guarded epoch of `workload` on `core`: voltage choice
    /// (nominal when the breaker is open), execution, observation through
    /// the watchdog, governor feedback from observables only, scheduled
    /// sentinel checks, and the breaker update with its trip/recovery
    /// actions.
    pub fn run_epoch(
        &mut self,
        server: &mut XGene2Server,
        governor: &mut OnlineGovernor,
        core: CoreId,
        workload: &WorkloadProfile,
    ) -> EpochReport {
        self.run_epoch_colocated(server, governor, core, workload, &[])
    }

    /// Runs one guarded epoch with `co_tenants` sharing the victim's PMD
    /// rail. With an empty schedule this is exactly [`Self::run_epoch`].
    ///
    /// The hardening knobs in [`SafetyNetConfig`] act here:
    ///
    /// * the co-tenants' droop is estimated from their observable PMU
    ///   profile and compensated feed-forward into the commanded voltage;
    /// * the estimate feeds the breaker's droop EWMA for cross-tenant
    ///   attribution;
    /// * when the EWMA would cross the trip threshold, the *attacker* is
    ///   quarantined (evicted for all later epochs) instead of the board;
    /// * anomalous droop tightens the sentinel cadence to the configured
    ///   floor.
    ///
    /// With every knob at its zeroed default the schedule still runs, but
    /// the net is blind to the coupling — the seed-net ablation the
    /// red-team campaign attacks.
    pub fn run_epoch_colocated(
        &mut self,
        server: &mut XGene2Server,
        governor: &mut OnlineGovernor,
        core: CoreId,
        workload: &WorkloadProfile,
        co_tenants: &[(CoreId, &WorkloadProfile)],
    ) -> EpochReport {
        self.stats.epochs += 1;

        // A quarantined attacker stays evicted: later epochs run solo.
        let co_tenants: &[(CoreId, &WorkloadProfile)] = if self.attacker_quarantined {
            &[]
        } else {
            co_tenants
        };
        let mut droop_estimate = self.droop_estimate(co_tenants);
        // Quarantine preview: if folding this estimate in would trip the
        // breaker on droop, evict the attacker *before* the epoch and keep
        // the (healthy) board scaled. Board-fault trips are unaffected.
        if self.config.quarantine_attacker
            && !co_tenants.is_empty()
            && self.breaker.would_trip_on_droop(droop_estimate)
        {
            self.evict_attacker(governor);
        }
        let co_tenants: &[(CoreId, &WorkloadProfile)] = if self.attacker_quarantined {
            droop_estimate = 0.0;
            &[]
        } else {
            co_tenants
        };

        let commanded = if self.breaker.allows_scaling() {
            if !self.breaker.allows_relaxation() {
                // Watch: keep running scaled but freeze margin narrowing.
                governor.hold_relaxation();
            }
            Self::compensate(governor.choose(workload), droop_estimate)
        } else {
            self.stats.nominal_epochs += 1;
            Millivolts::XGENE2_NOMINAL
        };
        server
            .set_pmd_voltage(commanded)
            .expect("net voltages stay within the regulator range");

        let run = server.run_colocated(core, workload, co_tenants);
        if run.victim.outcome == RunOutcome::SilentDataCorruption {
            // Ground truth only: production cannot see this branch.
            self.audit.workload_true_sdcs += 1;
            if self.stats.first_detection_epoch.is_none() {
                self.audit.escaped_sdcs += 1;
                telemetry::counter!("safety_redteam_escapes_total");
            }
        }
        // An aggressor crash resets the shared board, so the epoch is
        // lost even when the victim's own run would have survived.
        let outcome = if !run.victim.outcome.needs_reset()
            && run.aggressors.iter().any(|a| a.outcome.needs_reset())
        {
            RunOutcome::Crash
        } else {
            run.victim.outcome
        };
        let observation = Observation::from_outcome(outcome, &mut self.watchdog);
        if observation.timed_out() {
            recover_board(server, &self.config.retry);
        }
        governor.observe(commanded, observation.as_feedback());

        let mut signal = HealthSignal {
            ce_events: u32::from(
                observation
                    == Observation::Completed {
                        report: ErrorReport::Corrected,
                    },
            ),
            scrub_ce_rate: self.scrub_ce_rate,
            ue: observation
                == Observation::Completed {
                    report: ErrorReport::Uncorrectable,
                },
            sdc_checksum: false,
            sdc_vote: false,
            timeout: observation.timed_out(),
            droop_mv: droop_estimate,
        };

        // Adaptive cadence: tighten the sentinel period while the droop
        // picture is anomalous (estimate in the watch band, the breaker's
        // droop EWMA elevated, or the breaker escalated to Watch by a CE
        // burst).
        let mut sentinel_period = self.config.sentinel_every_epochs;
        let tighten = self.config.min_sentinel_every_epochs > 0
            && sentinel_period > 0
            && (self.breaker.droop_watch_active()
                || self.breaker.state() == BreakerState::Watch
                || (self.config.breaker.droop_attribution_enabled()
                    && droop_estimate >= self.config.breaker.droop_watch_mv));
        if tighten {
            sentinel_period = self.config.min_sentinel_every_epochs.min(sentinel_period);
            if !self.cadence_tightened {
                self.stats.cadence_tightenings += 1;
                telemetry::event!(
                    Level::Info,
                    "sentinel_cadence_tightened",
                    every_epochs = sentinel_period,
                );
                telemetry::counter!("safety_redteam_cadence_tightenings_total");
            }
        }
        self.cadence_tightened = tighten;

        let mut sentinel_verdict = None;
        if sentinel_period > 0 {
            self.epochs_since_sentinel += 1;
            if self.epochs_since_sentinel >= sentinel_period {
                self.epochs_since_sentinel = 0;
                let report = self.sentinel.check(server, core.pmd());
                recover_board(server, &self.config.retry);
                signal.absorb(&report);
                sentinel_verdict = Some(report.verdict);
            }
        }

        let scaling_before = self.breaker.allows_scaling();
        let tripped_before = self.breaker.state() == BreakerState::Tripped;
        let state = self.breaker.record_epoch(&signal);
        if state == BreakerState::Tripped && !tripped_before {
            self.mark_detection();
            let reason = self
                .breaker
                .last_trip_reason()
                .expect("a fresh trip always records its reason");
            governor.record_breaker_trip(reason);
            governor.widen_margin(self.config.trip_margin_widen_mv);
            if scaling_before {
                self.stats.refresh_rollbacks += 1;
                telemetry::event!(
                    Level::Warn,
                    "refresh_rollback",
                    reason = reason.label(),
                    trefp_ms = Milliseconds::DDR3_NOMINAL_TREFP.as_f64(),
                );
                telemetry::counter!("refresh_rollbacks_total");
            }
        } else if !scaling_before && self.breaker.allows_scaling() {
            self.stats.refresh_restores += 1;
            telemetry::event!(
                Level::Info,
                "refresh_restore",
                trefp_ms = self.config.relaxed_trefp.as_f64(),
            );
            telemetry::counter!("refresh_restores_total");
        }

        EpochReport {
            commanded,
            observation,
            sentinel: sentinel_verdict,
            breaker_state: state,
            trefp: self.current_trefp(),
            cross_droop_estimate_mv: droop_estimate,
            attacker_quarantined: self.attacker_quarantined,
        }
    }
}

impl Default for SafetyNet {
    fn default() -> Self {
        SafetyNet::new(SafetyNetConfig::dsn18())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::GovernorConfig;
    use xgene_sim::fault::FaultPlan;
    use xgene_sim::sigma::SigmaBin;

    fn reactive_governor() -> OnlineGovernor {
        OnlineGovernor::new(None, None, GovernorConfig::conservative())
    }

    fn light_workload() -> WorkloadProfile {
        WorkloadProfile::builder("light").activity(0.2).build()
    }

    #[test]
    fn healthy_epochs_stay_scaled_and_relaxed() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 90);
        let core = server.chip().most_robust_core();
        let mut gov = reactive_governor();
        let mut net = SafetyNet::new(SafetyNetConfig::dsn18());
        let w = light_workload();
        for _ in 0..30 {
            let r = net.run_epoch(&mut server, &mut gov, core, &w);
            assert_eq!(r.breaker_state, BreakerState::Healthy);
            assert!(r.commanded < Millivolts::XGENE2_NOMINAL);
            assert_eq!(r.trefp, Milliseconds::DSN18_RELAXED_TREFP);
        }
        assert_eq!(net.breaker_trips(), 0);
        assert_eq!(net.sentinel_stats().checks, 3, "one check per 10 epochs");
        assert_eq!(net.sentinel_stats().undetected_sdcs, 0);
        assert_eq!(net.stats().nominal_epochs, 0);
    }

    #[test]
    fn a_detected_sentinel_sdc_trips_margin_and_refresh() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 91);
        // The first sentinel canary run is forced silent; the check must
        // catch it and open the breaker.
        server.install_fault_plan(FaultPlan::quiet(91).force_sdc_at_run(1));
        let core = server.chip().most_robust_core();
        let mut gov = reactive_governor();
        let margin_before = gov.dynamic_margin_mv();
        let config = SafetyNetConfig {
            sentinel_every_epochs: 1,
            ..SafetyNetConfig::dsn18()
        };
        let mut net = SafetyNet::new(config);
        let w = light_workload();
        let r = net.run_epoch(&mut server, &mut gov, core, &w);
        assert!(matches!(
            r.sentinel,
            Some(SentinelVerdict::VoteSplit | SentinelVerdict::ChecksumMismatch)
        ));
        assert_eq!(r.breaker_state, BreakerState::Tripped);
        assert_eq!(r.trefp, Milliseconds::DDR3_NOMINAL_TREFP, "rolled back");
        assert_eq!(net.breaker_trips(), 1);
        assert_eq!(net.stats().refresh_rollbacks, 1);
        assert_eq!(gov.stats().breaker_trips, 1);
        assert_eq!(
            gov.dynamic_margin_mv(),
            margin_before + config.trip_margin_widen_mv
        );
        // While open, epochs run at nominal.
        let r = net.run_epoch(&mut server, &mut gov, core, &w);
        assert_eq!(r.commanded, Millivolts::XGENE2_NOMINAL);
        assert!(net.stats().nominal_epochs >= 1);
    }

    #[test]
    fn trip_recovers_through_cooldown_and_restores_refresh() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 92);
        // Run draw 0 is the first workload epoch; draws 1–2 are the first
        // sentinel's canary pair. Force the first canary silent.
        server.install_fault_plan(FaultPlan::quiet(92).force_sdc_at_run(1));
        let core = server.chip().most_robust_core();
        let mut gov = reactive_governor();
        let config = SafetyNetConfig {
            breaker: BreakerConfig {
                trip_hold_epochs: 4,
                cooldown_epochs: 3,
                ..BreakerConfig::dsn18()
            },
            sentinel_every_epochs: 1,
            ..SafetyNetConfig::dsn18()
        };
        let mut net = SafetyNet::new(config);
        let w = light_workload();
        let mut states = Vec::new();
        for _ in 0..30 {
            states.push(net.run_epoch(&mut server, &mut gov, core, &w).breaker_state);
            if *states.last().unwrap() == BreakerState::Healthy && states.len() > 1 {
                break;
            }
        }
        assert!(states.contains(&BreakerState::Tripped), "{states:?}");
        assert!(states.contains(&BreakerState::Cooldown), "{states:?}");
        assert_eq!(*states.last().unwrap(), BreakerState::Healthy);
        assert_eq!(net.stats().refresh_restores, 1);
        assert_eq!(net.current_trefp(), Milliseconds::DSN18_RELAXED_TREFP);
        assert_eq!(net.breaker_trips(), 1, "one trip, one recovery");
    }

    #[test]
    fn scrubber_ce_rate_feeds_the_breaker() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 93);
        let core = server.chip().most_robust_core();
        let mut gov = reactive_governor();
        let mut net = SafetyNet::new(SafetyNetConfig::dsn18());
        let w = light_workload();
        // A scrubber correcting 3 words/epoch is far above the 0.5 trip
        // threshold: the EWMA must open the breaker within a few epochs.
        net.feed_scrubber(
            ScrubberStats {
                words_scrubbed: 10_000,
                corrections: 300,
                uncorrectable: 0,
            },
            100.0,
        );
        let mut tripped_at = None;
        for e in 0..20 {
            let r = net.run_epoch(&mut server, &mut gov, core, &w);
            if r.breaker_state == BreakerState::Tripped {
                tripped_at = Some(e);
                break;
            }
        }
        assert!(tripped_at.is_some(), "scrubber rate never tripped");
        assert_eq!(net.breaker_state(), BreakerState::Tripped,);
        // A later feed with no new corrections drops the rate again.
        net.feed_scrubber(
            ScrubberStats {
                words_scrubbed: 20_000,
                corrections: 300,
                uncorrectable: 0,
            },
            100.0,
        );
        assert_eq!(net.audit().workload_true_sdcs, 0);
    }

    #[test]
    fn refresh_application_follows_the_breaker() {
        use dram_sim::retention::{PopulationSpec, RetentionModel, WeakCellPopulation};
        use power_model::units::Celsius;
        let pop = WeakCellPopulation::generate(
            &RetentionModel::xgene2_micron(),
            PopulationSpec::dsn18(),
            5,
        );
        let mut dram = DramArray::new(pop, Milliseconds::DSN18_RELAXED_TREFP, Celsius::new(60.0));
        let net = SafetyNet::new(SafetyNetConfig::dsn18());
        net.apply_refresh(&mut dram);
        assert_eq!(dram.trefp(), Milliseconds::DSN18_RELAXED_TREFP);
    }

    /// A crafted dI/dt virus neighbor: full activity swing, near-resonant
    /// alignment (resonant energy 0.9).
    fn virus_neighbor() -> WorkloadProfile {
        WorkloadProfile::builder("didt-virus")
            .activity(1.0)
            .swing(1.0)
            .resonance_alignment(0.9)
            .build()
    }

    fn victim_and_sibling(server: &XGene2Server) -> (CoreId, CoreId) {
        let victim = server.chip().most_robust_core();
        let sibling = victim
            .pmd()
            .cores()
            .into_iter()
            .find(|c| *c != victim)
            .expect("a PMD has two cores");
        (victim, sibling)
    }

    #[test]
    fn seed_net_is_blind_to_cross_tenant_droop() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 90);
        let (victim, sibling) = victim_and_sibling(&server);
        let mut gov = reactive_governor();
        let mut net = SafetyNet::new(SafetyNetConfig::dsn18());
        let w = light_workload();
        let virus = virus_neighbor();
        for _ in 0..10 {
            let r =
                net.run_epoch_colocated(&mut server, &mut gov, victim, &w, &[(sibling, &virus)]);
            // Every hardening knob defaults to off: no estimate, no
            // compensation, no quarantine — the schedule just runs.
            assert_eq!(r.cross_droop_estimate_mv, 0.0);
            assert!(!r.attacker_quarantined);
        }
        assert_eq!(net.stats().attacker_quarantines, 0);
        assert_eq!(net.stats().cadence_tightenings, 0);
    }

    #[test]
    fn hardened_net_quarantines_the_attacker_not_the_board() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 90);
        let (victim, sibling) = victim_and_sibling(&server);
        let mut gov = reactive_governor();
        let mut net = SafetyNet::new(SafetyNetConfig::hardened());
        let w = light_workload();
        let virus = virus_neighbor();
        let mut quarantine_epoch = None;
        for e in 1..=20u64 {
            let r =
                net.run_epoch_colocated(&mut server, &mut gov, victim, &w, &[(sibling, &virus)]);
            if r.attacker_quarantined && quarantine_epoch.is_none() {
                quarantine_epoch = Some(e);
            }
            if quarantine_epoch.is_none() {
                // Feed-forward compensation: the estimate (48 × 0.9 mV,
                // rounded up) is added to the governor's choice.
                assert_eq!(r.cross_droop_estimate_mv, 48.0 * 0.9);
                assert_eq!(
                    r.commanded.as_u32(),
                    gov.choose(&w).as_u32() + 44,
                    "commanded voltage is compensated while the attacker runs"
                );
            } else {
                assert_eq!(
                    r.cross_droop_estimate_mv, 0.0,
                    "evicted attacker couples nothing"
                );
            }
        }
        // The droop EWMA preview evicts the attacker before the trip
        // threshold is ever folded in: the board never trips.
        let detected = quarantine_epoch.expect("the droop EWMA must quarantine the attacker");
        assert!(
            detected <= 10,
            "within one relaxed sentinel period, got {detected}"
        );
        assert_eq!(
            net.breaker_trips(),
            0,
            "attacker quarantine spares the board"
        );
        assert_eq!(net.stats().attacker_quarantines, 1);
        assert_eq!(net.stats().first_detection_epoch, Some(detected));
        assert_eq!(gov.stats().attacker_quarantines, 1);
        assert_eq!(gov.stats().breaker_trips, 0);
        assert!(net.attacker_quarantined());
        // The board keeps its scaled voltage and relaxed refresh.
        assert_eq!(net.current_trefp(), Milliseconds::DSN18_RELAXED_TREFP);
    }

    #[test]
    fn droop_trip_without_quarantine_attributes_the_attacker() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 90);
        let (victim, sibling) = victim_and_sibling(&server);
        let mut gov = reactive_governor();
        // Attribution on, eviction off: the breaker itself must trip and
        // blame the attacker, not the board.
        let config = SafetyNetConfig {
            quarantine_attacker: false,
            ..SafetyNetConfig::hardened()
        };
        let mut net = SafetyNet::new(config);
        let w = light_workload();
        let virus = virus_neighbor();
        let mut tripped_at = None;
        for e in 1..=20u64 {
            let r =
                net.run_epoch_colocated(&mut server, &mut gov, victim, &w, &[(sibling, &virus)]);
            if r.breaker_state == BreakerState::Tripped {
                tripped_at = Some(e);
                break;
            }
        }
        assert!(tripped_at.is_some(), "the droop EWMA must trip the breaker");
        assert_eq!(net.stats().attacker_quarantines, 0);
        assert_eq!(net.stats().first_detection_epoch, tripped_at);
        assert_eq!(
            gov.stats().last_trip_attribution,
            Some(crate::safety::TenantAttribution::Attacker)
        );
    }

    #[test]
    fn anomalous_droop_tightens_the_sentinel_cadence() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 90);
        let (victim, sibling) = victim_and_sibling(&server);
        let mut gov = reactive_governor();
        let mut net = SafetyNet::new(SafetyNetConfig::hardened());
        let w = light_workload();
        let virus = virus_neighbor();
        for _ in 0..8 {
            net.run_epoch_colocated(&mut server, &mut gov, victim, &w, &[(sibling, &virus)]);
        }
        // Under the relaxed every-10 cadence no sentinel would have run
        // yet; the droop anomaly tightened it to every 2 epochs.
        assert_eq!(net.stats().cadence_tightenings, 1, "one tighten transition");
        assert!(
            net.sentinel_stats().checks >= 2,
            "tightened cadence ran sentinels early: {:?}",
            net.sentinel_stats()
        );
        // Once the attacker is quarantined and the EWMA decays, the
        // cadence relaxes again without a second transition being counted
        // as a new event until the next anomaly.
        for _ in 0..20 {
            net.run_epoch(&mut server, &mut gov, victim, &w);
        }
        assert_eq!(net.stats().cadence_tightenings, 1);
    }
}
