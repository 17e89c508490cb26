//! The production safety net's building blocks: redundant-execution SDC
//! sentinels and a CE-rate circuit breaker.
//!
//! Below the guardband the failure sequence is not "crash first": the
//! region just under Vmin produces correctable errors, *silent* data
//! corruptions and hangs before clean lockups. A production system
//! exploiting characterized safe points therefore needs an online
//! detection layer built only from observables:
//!
//! * **Sentinels** ([`SentinelRunner`]) periodically run a canary kernel
//!   with a precomputed golden checksum ([`workload_sim::canary`]) on
//!   *both* cores of a PMD (dual modular redundancy). An SDC becomes a
//!   detectable event two independent ways: the corrupted checksum
//!   mismatches golden, and — even without a golden value — the two
//!   cores' checksums disagree;
//! * **The circuit breaker** ([`CircuitBreaker`]) tracks an EWMA of the
//!   correctable-error rate (CPU error reports plus DRAM scrubber
//!   correction rates) and walks a four-state machine — Healthy → Watch →
//!   Tripped → Cooldown — with hysteresis: it trips eagerly (any detected
//!   SDC, watchdog timeout or UE report, or a CE-rate excursion) and
//!   recovers reluctantly (a hold at nominal, then a clean cooldown).
//!
//! These live here (not in `guardband-core`) because the characterization
//! framework itself schedules sentinels inside campaigns and carries
//! breaker state in its checkpoints; `guardband_core::safety` composes
//! them with the online governor into the full safety net.

use serde::{Deserialize, Serialize};
use telemetry::Level;
use workload_sim::canary::CanaryKernel;
use xgene_sim::fault::RunOutcome;
use xgene_sim::server::XGene2Server;
use xgene_sim::topology::PmdId;

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Normal scaled operation; margin relaxation allowed.
    #[default]
    Healthy,
    /// Elevated CE rate: scaled operation continues but relaxation is
    /// frozen.
    Watch,
    /// A disruption was detected (or the CE rate crossed the trip
    /// threshold): operate at nominal V/F and nominal refresh.
    Tripped,
    /// Post-trip probation at conservative settings; clean epochs drain
    /// back to [`BreakerState::Healthy`], any recurrence re-trips.
    Cooldown,
}

impl BreakerState {
    /// The state's short label, as logs and telemetry fields show it.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Healthy => "healthy",
            BreakerState::Watch => "watch",
            BreakerState::Tripped => "tripped",
            BreakerState::Cooldown => "cooldown",
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why the breaker tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TripReason {
    /// The CPU-side EWMA CE rate crossed the trip threshold.
    CeRate,
    /// The DRAM scrubber's correction rate dominated the trip signal.
    ScrubberCeRate,
    /// A sentinel checksum mismatched its golden value.
    SdcChecksum,
    /// The two cores of a DMR sentinel pair disagreed.
    SdcVote,
    /// The deadline watchdog fired (a run hung).
    WatchdogTimeout,
    /// Hardware reported an uncorrectable error.
    UncorrectableError,
    /// The smoothed cross-tenant droop estimate crossed the trip
    /// threshold: an adversarial neighbour, not this board, is eroding
    /// the margin.
    CrossTenantDroop,
}

impl std::fmt::Display for TripReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl TripReason {
    /// The reason's short label, as logs and telemetry fields show it.
    pub fn label(self) -> &'static str {
        match self {
            TripReason::CeRate => "ce-rate",
            TripReason::ScrubberCeRate => "scrub-ce-rate",
            TripReason::SdcChecksum => "sdc-checksum",
            TripReason::SdcVote => "sdc-vote",
            TripReason::WatchdogTimeout => "watchdog-timeout",
            TripReason::UncorrectableError => "ue-report",
            TripReason::CrossTenantDroop => "cross-tenant-droop",
        }
    }

    /// Which tenant a trip with this reason is attributed to: every
    /// classic reason blames the board's own silicon; a cross-tenant
    /// droop excursion blames the adversarial neighbour.
    pub fn attribution(self) -> TenantAttribution {
        match self {
            TripReason::CrossTenantDroop => TenantAttribution::Attacker,
            _ => TenantAttribution::Board,
        }
    }
}

/// Who a protective action (a trip, a quarantine) is attributed to: the
/// board's own silicon, or an adversarial co-tenant. The distinction
/// drives very different responses — a faulty board is pulled from
/// below-guardband duty, while a healthy board under attack keeps its
/// scaled operating point and sheds the *attacker* instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TenantAttribution {
    /// The board itself is at fault (the default for all legacy records).
    #[default]
    Board,
    /// An adversarial co-tenant caused the condition; the board is fine.
    Attacker,
}

impl std::fmt::Display for TenantAttribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TenantAttribution::Board => "board",
            TenantAttribution::Attacker => "attacker",
        })
    }
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// EWMA smoothing factor in `(0, 1]` (weight of the newest epoch).
    pub ewma_alpha: f64,
    /// EWMA CE rate (events/epoch) above which Healthy escalates to Watch.
    pub watch_ce_rate: f64,
    /// EWMA CE rate above which the breaker trips.
    pub trip_ce_rate: f64,
    /// Hysteresis: the EWMA must fall below this before Watch or Cooldown
    /// may resolve back to Healthy (strictly below `watch_ce_rate`).
    pub recover_ce_rate: f64,
    /// Epochs held in Tripped (at nominal) before probing in Cooldown.
    pub trip_hold_epochs: u32,
    /// Clean Cooldown epochs required before returning to Healthy.
    pub cooldown_epochs: u32,
    /// Smoothed cross-tenant droop estimate (mV) above which Healthy
    /// escalates to Watch. `0` (the default, and the value every legacy
    /// checkpoint decodes to) disables droop attribution entirely.
    #[serde(default)]
    pub droop_watch_mv: f64,
    /// Smoothed cross-tenant droop estimate (mV) above which the breaker
    /// trips with [`TripReason::CrossTenantDroop`]. `0` disables.
    #[serde(default)]
    pub droop_trip_mv: f64,
}

impl BreakerConfig {
    /// Production defaults: trip when the smoothed CE rate exceeds one
    /// event per two epochs, hold nominal for 20 epochs, then a 10-epoch
    /// probation.
    pub fn dsn18() -> Self {
        BreakerConfig {
            ewma_alpha: 0.2,
            watch_ce_rate: 0.2,
            trip_ce_rate: 0.5,
            recover_ce_rate: 0.05,
            trip_hold_epochs: 20,
            cooldown_epochs: 10,
            droop_watch_mv: 0.0,
            droop_trip_mv: 0.0,
        }
    }

    /// Whether cross-tenant droop attribution is enabled.
    pub fn droop_attribution_enabled(&self) -> bool {
        self.droop_trip_mv > 0.0
    }
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig::dsn18()
    }
}

/// One epoch's observable health inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthSignal {
    /// CPU-side correctable-error reports this epoch.
    pub ce_events: u32,
    /// DRAM scrubber corrections per epoch (already rate-normalized).
    pub scrub_ce_rate: f64,
    /// Hardware reported an uncorrectable error.
    pub ue: bool,
    /// A sentinel checksum mismatched golden.
    pub sdc_checksum: bool,
    /// A DMR sentinel pair split its vote.
    pub sdc_vote: bool,
    /// The deadline watchdog fired.
    pub timeout: bool,
    /// Estimated cross-tenant droop (mV) co-located tenants coupled onto
    /// this rail during the epoch, derived from their PMU activity
    /// telemetry (zero on a dedicated PMD).
    pub droop_mv: f64,
}

impl HealthSignal {
    /// A perfectly clean epoch.
    pub fn clean() -> Self {
        HealthSignal::default()
    }

    /// Folds one sentinel check into this epoch: its CE reports add to
    /// the epoch's, and its verdict raises the matching flag.
    pub fn absorb(&mut self, report: &SentinelReport) {
        self.ce_events += report.ce_events;
        match report.verdict {
            SentinelVerdict::Clean => {}
            SentinelVerdict::ChecksumMismatch => self.sdc_checksum = true,
            SentinelVerdict::VoteSplit => self.sdc_vote = true,
            SentinelVerdict::HwError => self.ue = true,
            SentinelVerdict::Timeout => self.timeout = true,
        }
    }

    /// Whether this epoch carries an immediate-trip disruption.
    pub fn disruption(&self) -> Option<TripReason> {
        // Voting/checksum detections outrank the rest: they are the
        // events the whole net exists to surface.
        if self.sdc_vote {
            Some(TripReason::SdcVote)
        } else if self.sdc_checksum {
            Some(TripReason::SdcChecksum)
        } else if self.timeout {
            Some(TripReason::WatchdogTimeout)
        } else if self.ue {
            Some(TripReason::UncorrectableError)
        } else {
            None
        }
    }
}

/// The EWMA CE-rate circuit breaker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Smoothed CE events/epoch (CPU reports + scrubber rate).
    ewma: f64,
    /// Epochs spent in the current state.
    epochs_in_state: u32,
    trips: u64,
    last_trip: Option<TripReason>,
    /// Smoothed cross-tenant droop estimate (mV). Defaults to 0 when
    /// decoding checkpoints taken before droop attribution existed.
    #[serde(default)]
    droop_ewma: f64,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ewma_alpha <= 1` and
    /// `recover < watch <= trip`.
    pub fn new(config: BreakerConfig) -> Self {
        assert!(
            config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0,
            "alpha in (0,1]"
        );
        assert!(
            config.recover_ce_rate < config.watch_ce_rate
                && config.watch_ce_rate <= config.trip_ce_rate,
            "thresholds must satisfy recover < watch <= trip"
        );
        if config.droop_attribution_enabled() {
            assert!(
                config.droop_watch_mv > 0.0 && config.droop_watch_mv <= config.droop_trip_mv,
                "droop thresholds must satisfy 0 < watch <= trip"
            );
        }
        CircuitBreaker {
            config,
            state: BreakerState::Healthy,
            ewma: 0.0,
            epochs_in_state: 0,
            trips: 0,
            last_trip: None,
            droop_ewma: 0.0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Smoothed cross-tenant droop estimate (mV).
    pub fn droop_ewma_mv(&self) -> f64 {
        self.droop_ewma
    }

    /// The droop EWMA this breaker would hold *after* folding in one more
    /// epoch with the given estimate — a pure preview, nothing recorded.
    pub fn droop_ewma_after(&self, droop_mv: f64) -> f64 {
        self.config.ewma_alpha * droop_mv + (1.0 - self.config.ewma_alpha) * self.droop_ewma
    }

    /// Whether folding in one more epoch at `droop_mv` would cross the
    /// droop trip threshold. The safety net consults this *before*
    /// scheduling an epoch: answering yes is its cue to quarantine the
    /// attacker (shedding the droop source) rather than let a healthy
    /// board trip into nominal hold.
    pub fn would_trip_on_droop(&self, droop_mv: f64) -> bool {
        self.config.droop_attribution_enabled()
            && self.droop_ewma_after(droop_mv) >= self.config.droop_trip_mv
    }

    /// Whether the smoothed droop estimate currently sits in the watch
    /// band (anomalous, but below the trip threshold).
    pub fn droop_watch_active(&self) -> bool {
        self.config.droop_attribution_enabled() && self.droop_ewma >= self.config.droop_watch_mv
    }

    /// Total trips so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Reason of the most recent trip.
    pub fn last_trip_reason(&self) -> Option<TripReason> {
        self.last_trip
    }

    /// Whether below-guardband (scaled) operation is currently permitted.
    pub fn allows_scaling(&self) -> bool {
        matches!(self.state, BreakerState::Healthy | BreakerState::Watch)
    }

    /// Whether the governor may keep *narrowing* margins (Healthy only:
    /// Watch freezes relaxation, Tripped/Cooldown forbid scaling).
    pub fn allows_relaxation(&self) -> bool {
        self.state == BreakerState::Healthy
    }

    /// Folds one epoch's observables in and returns the (possibly new)
    /// state.
    pub fn record_epoch(&mut self, signal: &HealthSignal) -> BreakerState {
        let x = f64::from(signal.ce_events) + signal.scrub_ce_rate;
        self.ewma = self.config.ewma_alpha * x + (1.0 - self.config.ewma_alpha) * self.ewma;
        self.droop_ewma = self.droop_ewma_after(signal.droop_mv);
        telemetry::gauge!("breaker_ewma_ce_rate", self.ewma);
        telemetry::gauge!("breaker_ewma_droop_mv", self.droop_ewma);
        self.epochs_in_state = self.epochs_in_state.saturating_add(1);

        if let Some(reason) = signal.disruption() {
            if self.state == BreakerState::Tripped {
                // Already open: restart the hold, do not double-count.
                self.epochs_in_state = 0;
            } else {
                self.trip(reason);
            }
            return self.state;
        }

        let droop_trip =
            self.config.droop_attribution_enabled() && self.droop_ewma >= self.config.droop_trip_mv;
        let droop_watch = self.droop_watch_active();
        match self.state {
            BreakerState::Healthy => {
                if self.ewma >= self.config.trip_ce_rate {
                    self.trip(self.rate_reason(signal));
                } else if droop_trip {
                    self.trip(TripReason::CrossTenantDroop);
                } else if self.ewma >= self.config.watch_ce_rate || droop_watch {
                    self.transition(BreakerState::Watch);
                }
            }
            BreakerState::Watch => {
                if self.ewma >= self.config.trip_ce_rate {
                    self.trip(self.rate_reason(signal));
                } else if droop_trip {
                    self.trip(TripReason::CrossTenantDroop);
                } else if self.ewma < self.config.recover_ce_rate && !droop_watch {
                    self.transition(BreakerState::Healthy);
                }
            }
            BreakerState::Tripped => {
                if self.epochs_in_state >= self.config.trip_hold_epochs {
                    self.transition(BreakerState::Cooldown);
                }
            }
            BreakerState::Cooldown => {
                if self.ewma >= self.config.trip_ce_rate {
                    self.trip(self.rate_reason(signal));
                } else if droop_trip {
                    self.trip(TripReason::CrossTenantDroop);
                } else if self.epochs_in_state >= self.config.cooldown_epochs
                    && self.ewma < self.config.recover_ce_rate
                    && !droop_watch
                {
                    self.transition(BreakerState::Healthy);
                }
            }
        }
        self.state
    }

    /// Which rate source dominated a threshold trip.
    fn rate_reason(&self, signal: &HealthSignal) -> TripReason {
        if signal.scrub_ce_rate > f64::from(signal.ce_events) {
            TripReason::ScrubberCeRate
        } else {
            TripReason::CeRate
        }
    }

    fn trip(&mut self, reason: TripReason) {
        self.trips += 1;
        self.last_trip = Some(reason);
        telemetry::event!(
            Level::Error,
            "breaker_trip",
            reason = reason.label(),
            from = self.state.label(),
            ewma = self.ewma,
            trips = self.trips,
        );
        telemetry::counter!("breaker_trips_total");
        self.state = BreakerState::Tripped;
        self.epochs_in_state = 0;
    }

    fn transition(&mut self, to: BreakerState) {
        telemetry::event!(
            Level::Info,
            "breaker_state",
            from = self.state.label(),
            to = to.label(),
            ewma = self.ewma,
        );
        self.state = to;
        self.epochs_in_state = 0;
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new(BreakerConfig::dsn18())
    }
}

/// How one sentinel DMR check resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SentinelVerdict {
    /// Both checksums matched golden.
    Clean,
    /// Both cores agreed on the *same wrong* checksum: only the golden
    /// comparison caught it.
    ChecksumMismatch,
    /// The two cores disagreed (at least one corrupted): caught by
    /// voting, confirmed against golden.
    VoteSplit,
    /// A canary run reported a hardware uncorrectable error.
    HwError,
    /// A canary run hung and the watchdog fired.
    Timeout,
}

impl SentinelVerdict {
    /// The verdict's short label, as logs and telemetry fields show it.
    pub fn label(self) -> &'static str {
        match self {
            SentinelVerdict::Clean => "clean",
            SentinelVerdict::ChecksumMismatch => "checksum-mismatch",
            SentinelVerdict::VoteSplit => "vote-split",
            SentinelVerdict::HwError => "hw-error",
            SentinelVerdict::Timeout => "timeout",
        }
    }
}

impl std::fmt::Display for SentinelVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One sentinel check's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SentinelReport {
    /// PMD whose core pair ran the canary.
    pub pmd: PmdId,
    /// How the check resolved.
    pub verdict: SentinelVerdict,
    /// CE reports among the pair (observable, fed to the breaker EWMA).
    pub ce_events: u32,
    /// Ground-truth silent corruptions among the pair (audit only — the
    /// control path never reads this).
    pub true_sdcs: u32,
}

impl SentinelReport {
    /// Whether the check detected a silent corruption.
    pub fn detected_sdc(&self) -> bool {
        matches!(
            self.verdict,
            SentinelVerdict::ChecksumMismatch | SentinelVerdict::VoteSplit
        )
    }
}

/// Aggregate sentinel bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SentinelStats {
    /// DMR checks executed.
    pub checks: u64,
    /// Checks that detected an SDC by golden-checksum mismatch (vote
    /// agreed on the wrong value).
    pub detected_by_checksum: u64,
    /// Checks that detected an SDC by a split DMR vote.
    pub detected_by_vote: u64,
    /// Checks ending in a watchdog timeout.
    pub timeouts: u64,
    /// Checks reporting a hardware UE.
    pub hw_errors: u64,
    /// Ground-truth SDCs the canaries suffered (audit).
    pub true_sdcs: u64,
    /// Ground-truth SDCs the check failed to flag — the safety net's
    /// miss count, asserted zero by the acceptance test.
    pub undetected_sdcs: u64,
}

impl SentinelStats {
    /// All SDC detections, either mechanism.
    pub fn detections(&self) -> u64 {
        self.detected_by_checksum + self.detected_by_vote
    }
}

/// Schedules and executes DMR canary checks over the process's one
/// [`CanaryKernel::sentinel_suite`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SentinelRunner {
    next_kernel: usize,
    /// Deterministic corruption-seed counter: each true SDC among canary
    /// runs draws the next seed, so corrupted checksums are reproducible.
    fault_counter: u64,
    stats: SentinelStats,
}

impl SentinelRunner {
    /// Bookkeeping so far.
    pub fn stats(&self) -> SentinelStats {
        self.stats
    }

    /// Runs one DMR check: the next canary (round-robin) on both cores of
    /// `pmd`, checksums compared to each other and to golden.
    pub fn check(&mut self, server: &mut XGene2Server, pmd: PmdId) -> SentinelReport {
        let suite = CanaryKernel::sentinel_suite();
        let kernel = &suite[self.next_kernel];
        self.next_kernel = (self.next_kernel + 1) % suite.len();
        let profile = kernel.profile();
        let [core_a, core_b] = pmd.cores();
        let results = server.run_many(&[(core_a, profile), (core_b, profile)]);

        let mut ce_events = 0;
        let mut true_sdcs = 0;
        let mut timeout = false;
        let mut hw_error = false;
        let mut checksums = [kernel.golden(); 2];
        for (i, r) in results.iter().enumerate() {
            match r.outcome {
                RunOutcome::Correct => {}
                RunOutcome::CorrectableError => ce_events += 1,
                RunOutcome::UncorrectableError => hw_error = true,
                RunOutcome::SilentDataCorruption => {
                    true_sdcs += 1;
                    checksums[i] = kernel.run_corrupted(self.fault_counter);
                    self.fault_counter += 1;
                }
                RunOutcome::Crash => timeout = true,
            }
        }

        let verdict = if timeout {
            SentinelVerdict::Timeout
        } else if hw_error {
            SentinelVerdict::HwError
        } else if checksums[0] != checksums[1] {
            SentinelVerdict::VoteSplit
        } else if checksums[0] != kernel.golden() {
            SentinelVerdict::ChecksumMismatch
        } else {
            SentinelVerdict::Clean
        };

        self.stats.checks += 1;
        match verdict {
            SentinelVerdict::VoteSplit => self.stats.detected_by_vote += 1,
            SentinelVerdict::ChecksumMismatch => self.stats.detected_by_checksum += 1,
            SentinelVerdict::Timeout => self.stats.timeouts += 1,
            SentinelVerdict::HwError => self.stats.hw_errors += 1,
            SentinelVerdict::Clean => {}
        }
        self.stats.true_sdcs += u64::from(true_sdcs);
        // A timeout or UE supersedes the checksum comparison, but neither
        // is a *miss*: the disruption was observed. A miss is a true SDC
        // in a check that resolved Clean.
        if verdict == SentinelVerdict::Clean && true_sdcs > 0 {
            self.stats.undetected_sdcs += u64::from(true_sdcs);
        }

        telemetry::event!(
            Level::Debug,
            "sentinel_check",
            pmd = pmd.index(),
            verdict = verdict.label(),
            ce_events = ce_events,
        );
        telemetry::counter!("sentinel_checks_total");
        if verdict != SentinelVerdict::Clean {
            telemetry::event!(
                Level::Warn,
                "sentinel_detection",
                pmd = pmd.index(),
                verdict = verdict.label(),
            );
            telemetry::counter!("sentinel_detections_total");
        }

        SentinelReport {
            pmd,
            verdict,
            ce_events,
            true_sdcs,
        }
    }
}

/// Campaign-level safety summary, carried in [`CampaignResult`] and the
/// report CSV so degradations are attributable post-hoc.
///
/// [`CampaignResult`]: crate::runner::CampaignResult
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SafetySummary {
    /// Breaker trips during the campaign.
    pub breaker_trips: u64,
    /// Reason of the most recent trip.
    pub last_trip_reason: Option<TripReason>,
    /// Final breaker state.
    pub breaker_state: BreakerState,
    /// Sentinel bookkeeping.
    pub sentinel: SentinelStats,
}

/// The runner's live safety-net state, checkpointed with the campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignSafetyState {
    /// The campaign's circuit breaker (fed by sentinel observations).
    pub breaker: CircuitBreaker,
    /// Sentinel scheduler/executor.
    pub sentinel: SentinelRunner,
    /// Runs since the last sentinel check.
    pub runs_since_sentinel: u32,
}

impl CampaignSafetyState {
    /// The summary snapshot recorded into results.
    pub fn summary(&self) -> SafetySummary {
        SafetySummary {
            breaker_trips: self.breaker.trips(),
            last_trip_reason: self.breaker.last_trip_reason(),
            breaker_state: self.breaker.state(),
            sentinel: self.sentinel.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgene_sim::fault::FaultPlan;
    use xgene_sim::sigma::SigmaBin;

    fn ce(n: u32) -> HealthSignal {
        HealthSignal {
            ce_events: n,
            ..HealthSignal::clean()
        }
    }

    #[test]
    fn absorbing_a_sentinel_report_adds_its_ces_and_raises_its_verdict() {
        let report = |verdict, ce_events| SentinelReport {
            pmd: PmdId::new(0),
            verdict,
            ce_events,
            true_sdcs: 0,
        };
        for (verdict, reason) in [
            (SentinelVerdict::Clean, None),
            (
                SentinelVerdict::ChecksumMismatch,
                Some(TripReason::SdcChecksum),
            ),
            (SentinelVerdict::VoteSplit, Some(TripReason::SdcVote)),
            (
                SentinelVerdict::HwError,
                Some(TripReason::UncorrectableError),
            ),
            (SentinelVerdict::Timeout, Some(TripReason::WatchdogTimeout)),
        ] {
            let mut signal = ce(1);
            signal.absorb(&report(verdict, 2));
            assert_eq!(signal.ce_events, 3, "{verdict}");
            assert_eq!(signal.disruption(), reason, "{verdict}");
        }
    }

    #[test]
    fn sustained_ce_rate_walks_healthy_watch_tripped() {
        let mut b = CircuitBreaker::default();
        assert_eq!(b.state(), BreakerState::Healthy);
        let mut saw_watch = false;
        for _ in 0..40 {
            let s = b.record_epoch(&ce(1));
            saw_watch |= s == BreakerState::Watch;
            if s == BreakerState::Tripped {
                break;
            }
        }
        assert!(saw_watch, "the walk must pass through Watch");
        assert_eq!(b.state(), BreakerState::Tripped);
        assert_eq!(b.trips(), 1);
        assert_eq!(b.last_trip_reason(), Some(TripReason::CeRate));
    }

    #[test]
    fn detected_sdc_trips_immediately_from_healthy() {
        let mut b = CircuitBreaker::default();
        let s = b.record_epoch(&HealthSignal {
            sdc_vote: true,
            ..HealthSignal::clean()
        });
        assert_eq!(s, BreakerState::Tripped);
        assert_eq!(b.last_trip_reason(), Some(TripReason::SdcVote));
        assert!(!b.allows_scaling());
    }

    #[test]
    fn trip_holds_then_cools_then_recovers_with_hysteresis() {
        let config = BreakerConfig {
            trip_hold_epochs: 5,
            cooldown_epochs: 3,
            ..BreakerConfig::dsn18()
        };
        let mut b = CircuitBreaker::new(config);
        b.record_epoch(&HealthSignal {
            timeout: true,
            ..HealthSignal::clean()
        });
        assert_eq!(b.state(), BreakerState::Tripped);
        // The hold: clean epochs at nominal.
        for _ in 0..5 {
            assert_ne!(
                b.record_epoch(&HealthSignal::clean()),
                BreakerState::Healthy
            );
        }
        assert_eq!(b.state(), BreakerState::Cooldown);
        // Probation drains back to Healthy only once the EWMA is low.
        let mut epochs = 0;
        while b.state() == BreakerState::Cooldown {
            b.record_epoch(&HealthSignal::clean());
            epochs += 1;
            assert!(epochs < 100, "cooldown must terminate");
        }
        assert_eq!(b.state(), BreakerState::Healthy);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn recurrence_during_cooldown_re_trips() {
        let config = BreakerConfig {
            trip_hold_epochs: 2,
            cooldown_epochs: 10,
            ..BreakerConfig::dsn18()
        };
        let mut b = CircuitBreaker::new(config);
        b.record_epoch(&HealthSignal {
            ue: true,
            ..HealthSignal::clean()
        });
        for _ in 0..2 {
            b.record_epoch(&HealthSignal::clean());
        }
        assert_eq!(b.state(), BreakerState::Cooldown);
        b.record_epoch(&HealthSignal {
            sdc_checksum: true,
            ..HealthSignal::clean()
        });
        assert_eq!(b.state(), BreakerState::Tripped);
        assert_eq!(b.trips(), 2);
        assert_eq!(b.last_trip_reason(), Some(TripReason::SdcChecksum));
    }

    #[test]
    fn disruption_while_tripped_restarts_the_hold_without_double_counting() {
        let config = BreakerConfig {
            trip_hold_epochs: 3,
            ..BreakerConfig::dsn18()
        };
        let mut b = CircuitBreaker::new(config);
        b.record_epoch(&HealthSignal {
            timeout: true,
            ..HealthSignal::clean()
        });
        b.record_epoch(&HealthSignal::clean());
        b.record_epoch(&HealthSignal::clean());
        // One epoch short of Cooldown: a fresh disruption restarts it.
        b.record_epoch(&HealthSignal {
            timeout: true,
            ..HealthSignal::clean()
        });
        assert_eq!(b.trips(), 1, "no double-count while open");
        b.record_epoch(&HealthSignal::clean());
        b.record_epoch(&HealthSignal::clean());
        assert_eq!(b.state(), BreakerState::Tripped, "hold restarted");
        b.record_epoch(&HealthSignal::clean());
        assert_eq!(b.state(), BreakerState::Cooldown);
    }

    #[test]
    fn scrubber_rate_dominance_is_attributed() {
        let mut b = CircuitBreaker::default();
        for _ in 0..50 {
            if b.record_epoch(&HealthSignal {
                scrub_ce_rate: 2.0,
                ..HealthSignal::clean()
            }) == BreakerState::Tripped
            {
                break;
            }
        }
        assert_eq!(b.last_trip_reason(), Some(TripReason::ScrubberCeRate));
    }

    #[test]
    fn watch_freezes_relaxation_but_allows_scaling() {
        let mut b = CircuitBreaker::default();
        while b.state() == BreakerState::Healthy {
            b.record_epoch(&ce(1));
        }
        assert_eq!(b.state(), BreakerState::Watch);
        assert!(b.allows_scaling());
        assert!(!b.allows_relaxation());
    }

    #[test]
    fn clean_sentinel_check_on_a_healthy_server() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 7);
        let mut sentinel = SentinelRunner::default();
        let report = sentinel.check(&mut server, PmdId::new(0));
        assert_eq!(report.verdict, SentinelVerdict::Clean);
        assert!(!report.detected_sdc());
        assert_eq!(sentinel.stats().checks, 1);
        assert_eq!(sentinel.stats().detections(), 0);
        assert_eq!(sentinel.stats().undetected_sdcs, 0);
    }

    #[test]
    fn injected_sdc_in_a_canary_is_always_detected() {
        // Force SDCs into canary runs via the fault plan: whatever the
        // voltage, the corrupted checksum can never read back golden.
        let mut server = XGene2Server::new(SigmaBin::Ttt, 8);
        server.install_fault_plan(
            FaultPlan::quiet(8).force_sdc_at_run(0).force_sdc_at_run(3), // second check, second core
        );
        let mut sentinel = SentinelRunner::default();
        let first = sentinel.check(&mut server, PmdId::new(1));
        assert_eq!(first.verdict, SentinelVerdict::VoteSplit);
        assert_eq!(first.true_sdcs, 1);
        let second = sentinel.check(&mut server, PmdId::new(1));
        assert_eq!(second.verdict, SentinelVerdict::VoteSplit);
        let stats = sentinel.stats();
        assert_eq!(stats.true_sdcs, 2);
        assert_eq!(stats.detections(), 2);
        assert_eq!(stats.undetected_sdcs, 0, "zero misses");
    }

    #[test]
    fn double_sdc_same_wrong_answer_needs_the_golden_checksum() {
        // Both cores corrupted with the same fault seed would defeat pure
        // voting; the golden comparison still catches it. Drive the
        // checksum comparison directly (the runner draws distinct seeds,
        // so this is the model-level guarantee).
        let kernel = &CanaryKernel::sentinel_suite()[0];
        let a = kernel.run_corrupted(5);
        let b = kernel.run_corrupted(5);
        assert_eq!(a, b, "identical faults agree");
        assert_ne!(a, kernel.golden(), "yet mismatch golden");
    }

    #[test]
    fn dmr_pair_with_both_cores_corrupted_is_detected() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 9);
        server.install_fault_plan(FaultPlan::quiet(9).force_sdc_at_run(0).force_sdc_at_run(1));
        let mut sentinel = SentinelRunner::default();
        let report = sentinel.check(&mut server, PmdId::new(2));
        // Distinct fault seeds → the pair (almost surely) splits; either
        // way the SDCs are detected, never missed.
        assert!(report.detected_sdc(), "{report:?}");
        assert_eq!(sentinel.stats().undetected_sdcs, 0);
    }

    fn droop_config() -> BreakerConfig {
        BreakerConfig {
            droop_watch_mv: 12.0,
            droop_trip_mv: 25.0,
            ..BreakerConfig::dsn18()
        }
    }

    fn droop(mv: f64) -> HealthSignal {
        HealthSignal {
            droop_mv: mv,
            ..HealthSignal::clean()
        }
    }

    #[test]
    fn sustained_cross_tenant_droop_walks_watch_then_trips_attributed() {
        let mut b = CircuitBreaker::new(droop_config());
        let mut saw_watch = false;
        let mut epochs = 0;
        while b.state() != BreakerState::Tripped {
            let s = b.record_epoch(&droop(40.0));
            saw_watch |= s == BreakerState::Watch;
            epochs += 1;
            assert!(epochs < 20, "a 40 mV attack must trip the breaker");
        }
        assert!(saw_watch);
        assert_eq!(b.last_trip_reason(), Some(TripReason::CrossTenantDroop));
        assert_eq!(
            b.last_trip_reason().unwrap().attribution(),
            TenantAttribution::Attacker
        );
        // Classic reasons stay board-attributed.
        assert_eq!(TripReason::SdcVote.attribution(), TenantAttribution::Board);
    }

    #[test]
    fn droop_preview_matches_the_recorded_fold_without_mutating() {
        let mut b = CircuitBreaker::new(droop_config());
        b.record_epoch(&droop(30.0));
        let preview = b.droop_ewma_after(30.0);
        let before = b.droop_ewma_mv();
        assert!(!b.would_trip_on_droop(0.0));
        assert_eq!(b.droop_ewma_mv(), before, "previews must not record");
        b.record_epoch(&droop(30.0));
        assert!((b.droop_ewma_mv() - preview).abs() < 1e-12);
        // The preview crosses the threshold exactly when recording would.
        let mut probe = CircuitBreaker::new(droop_config());
        let mut epochs = 0;
        while !probe.would_trip_on_droop(40.0) {
            probe.record_epoch(&droop(40.0));
            epochs += 1;
            assert!(epochs < 20);
        }
        assert_ne!(probe.state(), BreakerState::Tripped);
        probe.record_epoch(&droop(40.0));
        assert_eq!(probe.state(), BreakerState::Tripped);
    }

    #[test]
    fn droop_attribution_disabled_by_default_keeps_legacy_behavior() {
        let mut b = CircuitBreaker::default();
        for _ in 0..50 {
            assert_eq!(b.record_epoch(&droop(100.0)), BreakerState::Healthy);
        }
        assert!(!b.would_trip_on_droop(1000.0));
        assert_eq!(b.trips(), 0);
        // The EWMA still tracks (it is observability, not control).
        assert!(b.droop_ewma_mv() > 90.0);
    }

    #[test]
    fn droop_watch_band_freezes_recovery_until_the_attack_subsides() {
        let mut b = CircuitBreaker::new(droop_config());
        // Hold inside the watch band, below trip.
        for _ in 0..60 {
            b.record_epoch(&droop(15.0));
        }
        assert_eq!(b.state(), BreakerState::Watch);
        assert!(b.droop_watch_active());
        // Droop gone: the EWMA decays and the breaker recovers.
        let mut epochs = 0;
        while b.state() != BreakerState::Healthy {
            b.record_epoch(&HealthSignal::clean());
            epochs += 1;
            assert!(epochs < 100, "recovery must happen once the droop stops");
        }
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn legacy_breaker_json_without_droop_fields_decodes() {
        let modern = serde::json::to_string(&CircuitBreaker::default());
        let legacy = modern
            .replace(",\"droop_watch_mv\":0.0", "")
            .replace(",\"droop_trip_mv\":0.0", "")
            .replace(",\"droop_ewma\":0.0", "");
        assert!(!legacy.contains("droop"), "fixture must predate droop");
        let b: CircuitBreaker = serde::json::from_str(&legacy).unwrap();
        assert_eq!(b, CircuitBreaker::default());
    }

    #[test]
    fn safety_state_serde_roundtrip() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 10);
        let mut state = CampaignSafetyState::default();
        state.sentinel.check(&mut server, PmdId::new(0));
        state.breaker.record_epoch(&ce(2));
        state.runs_since_sentinel = 3;
        let text = serde::json::to_string(&state);
        let back: CampaignSafetyState = serde::json::from_str(&text).unwrap();
        assert_eq!(state, back);
        assert_eq!(back.summary(), state.summary());
    }
}
