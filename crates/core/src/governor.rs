//! An online voltage governor — the paper's stated future aim made
//! concrete.
//!
//! §IV.D: "The characterization results could finally be used to develop a
//! module for predicting the hardware behavior and suggesting optimistic
//! 'safe' operating points to the Linux governor … Solid prediction will
//! help establishing a robust and efficient online voltage adoption
//! mechanism."
//!
//! The governor combines the three signals the paper names: the
//! counter-driven [`VminPredictor`] (feed-forward per workload phase), the
//! droop-history failure predictor (a probabilistic floor), and reactive
//! feedback from hardware error reports (CE ⇒ back off; disruption ⇒
//! retreat hard and hold).

use crate::droop_history::FailurePredictor;
use crate::predictor::VminPredictor;
use char_fw::safety::{TenantAttribution, TripReason};
use power_model::units::Millivolts;
use serde::{Deserialize, Serialize};
use telemetry::Level;
use xgene_sim::fault::RunOutcome;
use xgene_sim::server::XGene2Server;
use xgene_sim::topology::CoreId;
use xgene_sim::workload::WorkloadProfile;

/// Governor tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GovernorConfig {
    /// Base margin added above the predicted Vmin, in mV.
    pub base_margin_mv: u32,
    /// Extra margin added per recent correctable error, in mV.
    pub ce_backoff_mv: u32,
    /// Margin added permanently after a disruption (SDC/UE/crash), in mV.
    pub disruption_backoff_mv: u32,
    /// Clean epochs before one step of margin relaxation.
    pub clean_streak_to_relax: u32,
    /// Margin step removed per relaxation, in mV.
    pub relax_step_mv: u32,
    /// The dynamic margin never drops below this, in mV.
    pub min_margin_mv: u32,
    /// Per-epoch failure-probability target for the droop floor.
    pub target_failure_probability: f64,
    /// Consecutive disruptions that trigger graceful degradation: the
    /// governor rolls back to nominal instead of oscillating around a
    /// voltage the chip keeps rejecting.
    pub degrade_after_disruptions: u32,
    /// Epochs spent at nominal before scaled operation resumes.
    pub degrade_hold_epochs: u32,
}

impl GovernorConfig {
    /// Conservative defaults: 15 mV base margin, strong backoff, slow
    /// relaxation, 10⁻⁵ droop-crossing target.
    pub fn conservative() -> Self {
        GovernorConfig {
            base_margin_mv: 15,
            ce_backoff_mv: 10,
            disruption_backoff_mv: 40,
            clean_streak_to_relax: 20,
            relax_step_mv: 5,
            min_margin_mv: 10,
            target_failure_probability: 1e-5,
            degrade_after_disruptions: 3,
            degrade_hold_epochs: 50,
        }
    }
}

/// Aggregate governor telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GovernorStats {
    /// Epochs executed.
    pub epochs: u64,
    /// Correctable-error backoffs taken.
    pub ce_backoffs: u64,
    /// Disruptions (SDC/UE/crash) suffered.
    pub disruptions: u64,
    /// Sum of commanded voltages (for the mean).
    pub voltage_sum_mv: u64,
    /// Sum of `(V/Vnom)²` (dynamic-power proxy).
    pub power_proxy_sum: f64,
    /// Graceful degradations: rollbacks to nominal after consecutive
    /// disruptions.
    pub degradations: u64,
    /// Circuit-breaker trips recorded against this governor by the safety
    /// net. Defaults keep pre-safety-net serialized stats decodable.
    #[serde(default)]
    pub breaker_trips: u64,
    /// Reason of the most recent recorded breaker trip.
    #[serde(default)]
    pub last_trip_reason: Option<TripReason>,
    /// Tenant the most recent trip was attributed to (board fault vs
    /// cross-tenant droop attack).
    #[serde(default)]
    pub last_trip_attribution: Option<TenantAttribution>,
    /// Attacker quarantines the safety net recorded against this
    /// governor's tenure (evictions that spared the board a trip).
    #[serde(default)]
    pub attacker_quarantines: u64,
}

impl GovernorStats {
    /// Mean commanded voltage in mV.
    pub fn mean_voltage_mv(&self) -> f64 {
        if self.epochs == 0 {
            return 0.0;
        }
        self.voltage_sum_mv as f64 / self.epochs as f64
    }

    /// Mean dynamic-power ratio vs nominal — `1 − this` is the savings
    /// proxy the governor achieved.
    pub fn mean_power_ratio(&self) -> f64 {
        if self.epochs == 0 {
            return 1.0;
        }
        self.power_proxy_sum / self.epochs as f64
    }
}

/// The online governor.
#[derive(Debug, Clone)]
pub struct OnlineGovernor {
    predictor: Option<VminPredictor>,
    droop_floor: Option<FailurePredictor>,
    config: GovernorConfig,
    /// Current adaptive margin above the prediction, in mV.
    dynamic_margin_mv: u32,
    clean_streak: u32,
    consecutive_disruptions: u32,
    /// Epochs left at nominal after a graceful degradation.
    hold_remaining: u32,
    stats: GovernorStats,
}

impl OnlineGovernor {
    /// Creates a governor. `predictor` may be `None` for the purely
    /// reactive ablation; `droop_floor` may be `None` when no droop
    /// history exists yet.
    pub fn new(
        predictor: Option<VminPredictor>,
        droop_floor: Option<FailurePredictor>,
        config: GovernorConfig,
    ) -> Self {
        OnlineGovernor {
            predictor,
            droop_floor,
            config,
            dynamic_margin_mv: config.base_margin_mv,
            clean_streak: 0,
            consecutive_disruptions: 0,
            hold_remaining: 0,
            stats: GovernorStats::default(),
        }
    }

    /// Whether the governor is currently degraded to nominal operation.
    pub fn is_degraded(&self) -> bool {
        self.hold_remaining > 0
    }

    /// Telemetry so far.
    pub fn stats(&self) -> GovernorStats {
        self.stats
    }

    /// The currently applied adaptive margin, in mV.
    pub fn dynamic_margin_mv(&self) -> u32 {
        self.dynamic_margin_mv
    }

    /// Widens the adaptive margin by `extra_mv` (the safety net's margin
    /// restore on a breaker trip) and resets the clean streak: the extra
    /// caution must be earned away, not inherited.
    pub fn widen_margin(&mut self, extra_mv: u32) {
        if extra_mv == 0 {
            return;
        }
        self.clean_streak = 0;
        telemetry::event!(
            Level::Warn,
            "margin_widen",
            reason = "breaker_trip",
            from_mv = self.dynamic_margin_mv,
            to_mv = self.dynamic_margin_mv + extra_mv,
        );
        telemetry::counter!("governor_margin_widens_total");
        self.dynamic_margin_mv += extra_mv;
        telemetry::gauge!("governor_margin_mv", f64::from(self.dynamic_margin_mv));
    }

    /// Holds the relaxation machinery still for this epoch: the clean
    /// streak is cleared so margins cannot narrow while the safety net's
    /// breaker sits in its Watch state.
    pub fn hold_relaxation(&mut self) {
        self.clean_streak = 0;
    }

    /// Records a circuit-breaker trip against this governor's stats.
    pub fn record_breaker_trip(&mut self, reason: TripReason) {
        self.stats.breaker_trips += 1;
        self.stats.last_trip_reason = Some(reason);
        self.stats.last_trip_attribution = Some(reason.attribution());
    }

    /// Records an attacker quarantine: the safety net evicted a
    /// co-tenant instead of tripping the breaker, so the board keeps
    /// scaling uninterrupted.
    pub fn record_attacker_quarantine(&mut self) {
        self.stats.attacker_quarantines += 1;
    }

    /// Chooses the voltage for the next epoch of `workload`.
    pub fn choose(&self, workload: &WorkloadProfile) -> Millivolts {
        if self.hold_remaining > 0 {
            // Degraded: hold nominal until the chip has proven itself
            // again rather than oscillating around a rejected voltage.
            return Millivolts::XGENE2_NOMINAL;
        }
        let predicted = match &self.predictor {
            Some(p) => p.predict(workload).as_u32(),
            // Reactive-only ablation starts from a mid guardband guess.
            None => 900,
        };
        let mut v = predicted + self.dynamic_margin_mv;
        if let Some(floor) = &self.droop_floor {
            v = v.max(
                floor
                    .voltage_for(self.config.target_failure_probability)
                    .as_u32(),
            );
        }
        let gridded = v.div_ceil(5) * 5;
        Millivolts::new(gridded.min(Millivolts::XGENE2_NOMINAL.as_u32()))
    }

    /// Feeds back one epoch's outcome at the commanded voltage.
    pub fn observe(&mut self, commanded: Millivolts, outcome: RunOutcome) {
        self.stats.epochs += 1;
        self.stats.voltage_sum_mv += u64::from(commanded.as_u32());
        let r = commanded.ratio_to(Millivolts::XGENE2_NOMINAL);
        self.stats.power_proxy_sum += r * r;
        let holding = self.hold_remaining > 0;
        if holding {
            self.hold_remaining -= 1;
        }
        match outcome {
            RunOutcome::Correct => {
                self.consecutive_disruptions = 0;
                // Clean epochs at nominal prove the chip, not the margin:
                // relaxation only restarts once the hold has expired.
                if !holding {
                    self.clean_streak += 1;
                    if self.clean_streak >= self.config.clean_streak_to_relax {
                        self.clean_streak = 0;
                        let before = self.dynamic_margin_mv;
                        self.dynamic_margin_mv = self
                            .dynamic_margin_mv
                            .saturating_sub(self.config.relax_step_mv)
                            .max(self.config.min_margin_mv);
                        if self.dynamic_margin_mv < before {
                            telemetry::event!(
                                Level::Info,
                                "margin_narrow",
                                reason = "clean_streak",
                                from_mv = before,
                                to_mv = self.dynamic_margin_mv,
                            );
                            telemetry::counter!("governor_margin_narrows_total");
                        }
                        telemetry::gauge!("governor_margin_mv", f64::from(self.dynamic_margin_mv));
                    }
                }
            }
            RunOutcome::CorrectableError => {
                self.clean_streak = 0;
                self.consecutive_disruptions = 0;
                self.stats.ce_backoffs += 1;
                telemetry::event!(
                    Level::Info,
                    "margin_widen",
                    reason = "correctable_error",
                    from_mv = self.dynamic_margin_mv,
                    to_mv = self.dynamic_margin_mv + self.config.ce_backoff_mv,
                );
                telemetry::counter!("governor_margin_widens_total");
                self.dynamic_margin_mv += self.config.ce_backoff_mv;
                telemetry::gauge!("governor_margin_mv", f64::from(self.dynamic_margin_mv));
            }
            RunOutcome::UncorrectableError
            | RunOutcome::SilentDataCorruption
            | RunOutcome::Crash => {
                self.clean_streak = 0;
                self.stats.disruptions += 1;
                telemetry::event!(
                    Level::Warn,
                    "margin_widen",
                    reason = "disruption",
                    outcome = outcome.label(),
                    from_mv = self.dynamic_margin_mv,
                    to_mv = self.dynamic_margin_mv + self.config.disruption_backoff_mv,
                );
                telemetry::counter!("governor_margin_widens_total");
                self.dynamic_margin_mv += self.config.disruption_backoff_mv;
                telemetry::gauge!("governor_margin_mv", f64::from(self.dynamic_margin_mv));
                self.consecutive_disruptions += 1;
                if self.consecutive_disruptions >= self.config.degrade_after_disruptions
                    && self.hold_remaining == 0
                {
                    self.stats.degradations += 1;
                    self.hold_remaining = self.config.degrade_hold_epochs;
                    self.consecutive_disruptions = 0;
                    // Re-widen so the post-hold restart is conservative.
                    self.dynamic_margin_mv = self
                        .dynamic_margin_mv
                        .max(self.config.base_margin_mv + self.config.disruption_backoff_mv);
                    telemetry::event!(
                        Level::Error,
                        "governor_degraded",
                        hold_epochs = self.config.degrade_hold_epochs,
                        margin_mv = self.dynamic_margin_mv,
                    );
                    telemetry::counter!("governor_degradations_total");
                }
            }
        }
    }
}

/// Simulates the governor driving one core of a server through a schedule
/// of workload phases, one epoch each, cycling `epochs` times.
pub fn simulate(
    server: &mut XGene2Server,
    governor: &mut OnlineGovernor,
    schedule: &[WorkloadProfile],
    core: CoreId,
    epochs: usize,
) -> GovernorStats {
    assert!(!schedule.is_empty(), "schedule must not be empty");
    for e in 0..epochs {
        let workload = &schedule[e % schedule.len()];
        let v = governor.choose(workload);
        server
            .set_pmd_voltage(v)
            .expect("governor voltages stay within the regulator range");
        let outcome = server.run_on_core(core, workload).outcome;
        governor.observe(v, outcome);
    }
    governor.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_model::units::Megahertz;
    use workload_sim::spec::SPEC_SUITE;
    use xgene_sim::sigma::{ChipProfile, SigmaBin};

    fn trained_predictor(bin: SigmaBin) -> VminPredictor {
        let chip = ChipProfile::corner(bin);
        let core = chip.most_robust_core();
        let data: Vec<_> = SPEC_SUITE
            .iter()
            .map(|b| {
                let p = b.profile();
                (p.clone(), chip.vmin(core, &p, Megahertz::XGENE2_NOMINAL))
            })
            .collect();
        VminPredictor::train(&data).expect("well-posed")
    }

    fn schedule() -> Vec<WorkloadProfile> {
        SPEC_SUITE.iter().map(|b| b.profile()).collect()
    }

    #[test]
    fn predictive_governor_saves_power_without_disruption() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 71);
        let core = server.chip().most_robust_core();
        let mut gov = OnlineGovernor::new(
            Some(trained_predictor(SigmaBin::Ttt)),
            None,
            GovernorConfig::conservative(),
        );
        let stats = simulate(&mut server, &mut gov, &schedule(), core, 500);
        assert_eq!(stats.disruptions, 0, "{stats:?}");
        let savings = 1.0 - stats.mean_power_ratio();
        assert!(savings > 0.12, "power savings proxy {savings}");
        assert!(
            stats.mean_voltage_mv() < 920.0,
            "{}",
            stats.mean_voltage_mv()
        );
    }

    #[test]
    fn governor_tracks_workload_phases() {
        // The commanded voltage follows the predictor across phases:
        // higher for milc than for mcf.
        let gov = OnlineGovernor::new(
            Some(trained_predictor(SigmaBin::Ttt)),
            None,
            GovernorConfig::conservative(),
        );
        let mcf = SPEC_SUITE
            .iter()
            .find(|b| b.name == "mcf")
            .unwrap()
            .profile();
        let milc = SPEC_SUITE
            .iter()
            .find(|b| b.name == "milc")
            .unwrap()
            .profile();
        assert!(gov.choose(&milc) > gov.choose(&mcf));
    }

    #[test]
    fn ce_feedback_backs_off_and_clean_streaks_relax() {
        let mut gov = OnlineGovernor::new(None, None, GovernorConfig::conservative());
        let start = gov.dynamic_margin_mv();
        gov.observe(Millivolts::new(900), RunOutcome::CorrectableError);
        assert_eq!(gov.dynamic_margin_mv(), start + 10);
        for _ in 0..40 {
            gov.observe(Millivolts::new(900), RunOutcome::Correct);
        }
        assert!(gov.dynamic_margin_mv() < start + 10);
        assert!(gov.dynamic_margin_mv() >= GovernorConfig::conservative().min_margin_mv);
    }

    #[test]
    fn reactive_only_ablation_is_worse() {
        // Without the predictor the governor either suffers disruptions or
        // ends up holding a higher mean voltage after the backoffs.
        let run = |predictive: bool| {
            let mut server = XGene2Server::new(SigmaBin::Ttt, 72);
            let core = server.chip().most_robust_core();
            let predictor = predictive.then(|| trained_predictor(SigmaBin::Ttt));
            let mut gov = OnlineGovernor::new(predictor, None, GovernorConfig::conservative());
            simulate(&mut server, &mut gov, &schedule(), core, 500)
        };
        let predictive = run(true);
        let reactive = run(false);
        let worse = reactive.disruptions > predictive.disruptions
            || reactive.mean_power_ratio() > predictive.mean_power_ratio()
            || reactive.ce_backoffs > predictive.ce_backoffs + 5;
        assert!(worse, "reactive {reactive:?} vs predictive {predictive:?}");
    }

    #[test]
    fn droop_floor_raises_the_choice() {
        use crate::droop_history::DroopHistory;
        let mut history = DroopHistory::new(64);
        for _ in 0..64 {
            history.record(45.0); // large observed droops
        }
        let floor = FailurePredictor::new(Millivolts::new(880), history);
        let with_floor = OnlineGovernor::new(
            Some(trained_predictor(SigmaBin::Ttt)),
            Some(floor),
            GovernorConfig::conservative(),
        );
        let without = OnlineGovernor::new(
            Some(trained_predictor(SigmaBin::Ttt)),
            None,
            GovernorConfig::conservative(),
        );
        let mcf = SPEC_SUITE
            .iter()
            .find(|b| b.name == "mcf")
            .unwrap()
            .profile();
        assert!(with_floor.choose(&mcf) > without.choose(&mcf));
    }

    #[test]
    fn repeated_disruptions_degrade_to_nominal_and_hold() {
        let config = GovernorConfig {
            disruption_backoff_mv: 5,
            degrade_after_disruptions: 3,
            degrade_hold_epochs: 10,
            ..GovernorConfig::conservative()
        };
        let mut gov = OnlineGovernor::new(None, None, config);
        let heavy = SPEC_SUITE
            .iter()
            .find(|b| b.name == "milc")
            .unwrap()
            .profile();
        for _ in 0..3 {
            let v = gov.choose(&heavy);
            gov.observe(v, RunOutcome::Crash);
        }
        assert_eq!(gov.stats().degradations, 1);
        assert!(gov.is_degraded());
        for _ in 0..10 {
            assert_eq!(
                gov.choose(&heavy),
                Millivolts::XGENE2_NOMINAL,
                "holds nominal"
            );
            gov.observe(Millivolts::XGENE2_NOMINAL, RunOutcome::Correct);
        }
        assert!(!gov.is_degraded(), "the hold expires");
        // Scaled operation resumes from the re-widened margin: 900 mV
        // reactive base + (15 base + 3×5 backoff) margin.
        assert_eq!(gov.choose(&heavy), Millivolts::new(930));
        assert_eq!(gov.stats().degradations, 1, "no re-trigger while holding");
    }

    #[test]
    fn degradation_does_not_oscillate_under_sustained_faults() {
        let config = GovernorConfig {
            degrade_after_disruptions: 3,
            degrade_hold_epochs: 20,
            ..GovernorConfig::conservative()
        };
        let mut gov = OnlineGovernor::new(None, None, config);
        let heavy = SPEC_SUITE
            .iter()
            .find(|b| b.name == "milc")
            .unwrap()
            .profile();
        // 30 straight crashes: one degradation fires, then the hold
        // absorbs the rest instead of re-triggering every third epoch.
        for _ in 0..30 {
            let v = gov.choose(&heavy);
            gov.observe(v, RunOutcome::Crash);
        }
        assert!(gov.stats().degradations <= 2, "{:?}", gov.stats());
    }

    #[test]
    fn zero_hold_epochs_never_degrades_operation() {
        // Boundary: with a zero hold the degradation machinery fires (the
        // margin re-widens, the stat increments) but there is no nominal
        // hold at all — the very next choice is already scaled.
        let config = GovernorConfig {
            disruption_backoff_mv: 5,
            degrade_after_disruptions: 2,
            degrade_hold_epochs: 0,
            ..GovernorConfig::conservative()
        };
        let mut gov = OnlineGovernor::new(None, None, config);
        let heavy = SPEC_SUITE
            .iter()
            .find(|b| b.name == "milc")
            .unwrap()
            .profile();
        for _ in 0..2 {
            let v = gov.choose(&heavy);
            gov.observe(v, RunOutcome::Crash);
        }
        assert_eq!(gov.stats().degradations, 1);
        assert!(!gov.is_degraded(), "a zero hold expires instantly");
        assert!(gov.choose(&heavy) < Millivolts::XGENE2_NOMINAL);
    }

    #[test]
    fn one_hold_epoch_holds_nominal_exactly_once() {
        let config = GovernorConfig {
            disruption_backoff_mv: 5,
            degrade_after_disruptions: 2,
            degrade_hold_epochs: 1,
            ..GovernorConfig::conservative()
        };
        let mut gov = OnlineGovernor::new(None, None, config);
        let heavy = SPEC_SUITE
            .iter()
            .find(|b| b.name == "milc")
            .unwrap()
            .profile();
        for _ in 0..2 {
            let v = gov.choose(&heavy);
            gov.observe(v, RunOutcome::Crash);
        }
        assert!(gov.is_degraded());
        assert_eq!(gov.choose(&heavy), Millivolts::XGENE2_NOMINAL);
        gov.observe(Millivolts::XGENE2_NOMINAL, RunOutcome::Correct);
        assert!(!gov.is_degraded(), "one observed epoch consumes the hold");
        assert!(gov.choose(&heavy) < Millivolts::XGENE2_NOMINAL);
    }

    #[test]
    fn hold_expires_exactly_at_the_configured_epoch() {
        let hold = 7;
        let config = GovernorConfig {
            disruption_backoff_mv: 5,
            degrade_after_disruptions: 2,
            degrade_hold_epochs: hold,
            ..GovernorConfig::conservative()
        };
        let mut gov = OnlineGovernor::new(None, None, config);
        let heavy = SPEC_SUITE
            .iter()
            .find(|b| b.name == "milc")
            .unwrap()
            .profile();
        for _ in 0..2 {
            let v = gov.choose(&heavy);
            gov.observe(v, RunOutcome::Crash);
        }
        // Epochs 1..=hold are nominal; epoch hold+1 is scaled again.
        for epoch in 1..=hold {
            assert!(gov.is_degraded(), "epoch {epoch} still inside the hold");
            assert_eq!(gov.choose(&heavy), Millivolts::XGENE2_NOMINAL);
            gov.observe(Millivolts::XGENE2_NOMINAL, RunOutcome::Correct);
        }
        assert!(!gov.is_degraded(), "the hold expires at epoch {hold}");
        assert!(gov.choose(&heavy) < Millivolts::XGENE2_NOMINAL);
    }

    #[test]
    fn breaker_trips_are_recorded_and_widen_margin() {
        use char_fw::safety::TripReason;
        let mut gov = OnlineGovernor::new(None, None, GovernorConfig::conservative());
        let before = gov.dynamic_margin_mv();
        gov.widen_margin(30);
        gov.record_breaker_trip(TripReason::SdcVote);
        assert_eq!(gov.dynamic_margin_mv(), before + 30);
        assert_eq!(gov.stats().breaker_trips, 1);
        assert_eq!(gov.stats().last_trip_reason, Some(TripReason::SdcVote));
        // Stats roundtrip with the new fields, and old serialized stats
        // (without them) still decode.
        let text = serde::json::to_string(&gov.stats());
        let back: GovernorStats = serde::json::from_str(&text).unwrap();
        assert_eq!(back, gov.stats());
        let legacy = "{\"epochs\":3,\"ce_backoffs\":1,\"disruptions\":0,\
                      \"voltage_sum_mv\":2700,\"power_proxy_sum\":2.4,\"degradations\":0}";
        let old: GovernorStats = serde::json::from_str(legacy).unwrap();
        assert_eq!(old.breaker_trips, 0);
        assert_eq!(old.last_trip_reason, None);
    }

    #[test]
    fn hold_relaxation_freezes_margin_narrowing() {
        let mut gov = OnlineGovernor::new(None, None, GovernorConfig::conservative());
        gov.observe(Millivolts::new(900), RunOutcome::CorrectableError);
        let widened = gov.dynamic_margin_mv();
        // Clean epochs would normally relax the margin — holding the
        // relaxation every epoch must pin it.
        for _ in 0..100 {
            gov.hold_relaxation();
            gov.observe(Millivolts::new(900), RunOutcome::Correct);
        }
        assert_eq!(gov.dynamic_margin_mv(), widened);
    }

    #[test]
    fn never_exceeds_nominal() {
        let mut gov = OnlineGovernor::new(None, None, GovernorConfig::conservative());
        for _ in 0..30 {
            gov.observe(Millivolts::new(950), RunOutcome::Crash);
        }
        let heavy = SPEC_SUITE
            .iter()
            .find(|b| b.name == "milc")
            .unwrap()
            .profile();
        assert!(gov.choose(&heavy) <= Millivolts::XGENE2_NOMINAL);
    }
}
