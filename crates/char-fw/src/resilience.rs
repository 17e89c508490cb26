//! Resilient campaign execution: retry policies, quarantine bookkeeping
//! and checkpoint/resume state.
//!
//! The DSN'18 framework babysits boards for weeks, so the execution phase
//! has to survive the harness's own failure modes: power cycles that do
//! not bring the board back, reboots that loop in firmware, and V/F
//! restores that the freshly booted firmware silently drops. This module
//! holds the pieces the [`runner`](crate::runner) uses to do that:
//!
//! * [`RetryPolicy`] — bounded retry with exponential backoff for failed
//!   power cycles (the backoff is bookkeeping, not wall-clock sleeping:
//!   the simulation records what the real framework would have waited);
//! * [`ResilienceConfig`] — how aggressively to retry crashed setups
//!   before quarantining them;
//! * [`QuarantineRecord`] / [`QuarantineTracker`] — (setup, benchmark)
//!   points that crashed the board too many consecutive times and were
//!   pulled from the walk;
//! * [`RecoveryStats`] — the campaign-level tally of everything the
//!   recovery machinery did;
//! * [`CampaignCheckpoint`] — a complete serializable snapshot of a
//!   campaign in flight, taken at a run boundary, from which
//!   [`ResilientRunner`](crate::runner::ResilientRunner) resumes
//!   bit-identically.

use crate::runner::CampaignResult;
use crate::safety::TenantAttribution;
use crate::setup::{Setup, VminCampaign};
use power_model::units::Millivolts;
use serde::{Deserialize, Serialize};
use telemetry::metrics::MetricsSnapshot;
use telemetry::Level;
use xgene_sim::server::XGene2Server;

/// Bounded exponential backoff for failed power cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum retries after the first failed attempt.
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Multiplier applied per subsequent retry.
    pub factor: u32,
    /// Ceiling on any single backoff interval, in milliseconds.
    pub cap_ms: u64,
}

impl RetryPolicy {
    /// The framework's IPMI recovery schedule: up to 8 retries starting at
    /// 500 ms and doubling to a 30 s cap.
    pub fn dsn18() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_backoff_ms: 500,
            factor: 2,
            cap_ms: 30_000,
        }
    }

    /// The backoff before retry `attempt` (0-based), capped.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let mut b = self.base_backoff_ms;
        for _ in 0..attempt {
            b = b.saturating_mul(u64::from(self.factor));
            if b >= self.cap_ms {
                return self.cap_ms;
            }
        }
        b.min(self.cap_ms)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::dsn18()
    }
}

/// How the execution loop reacts to harness faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Power-cycle retry schedule.
    pub retry: RetryPolicy,
    /// Consecutive crashes tolerated at one setup before quarantining it.
    /// `0` reproduces the legacy behavior: the first crash ends the walk
    /// with no retry and no quarantine record.
    pub crash_retries: u32,
    /// How many times a dropped V/F restore is re-issued before giving up.
    pub setup_restore_attempts: u32,
    /// Run a DMR sentinel check every this many campaign runs (0 disables
    /// sentinels — the legacy and plain-dsn18 behavior, so existing
    /// deterministic walks are unperturbed). Defaults to 0 when absent so
    /// old checkpoints still decode.
    #[serde(default)]
    pub sentinel_every: u32,
}

impl ResilienceConfig {
    /// The legacy, non-resilient configuration: no crash retries (a crash
    /// immediately ends the walk, as the seed runner behaved), but lost
    /// setup writes are still re-issued so a fault plan cannot silently
    /// corrupt a measurement.
    pub fn legacy() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::dsn18(),
            crash_retries: 0,
            setup_restore_attempts: 16,
            sentinel_every: 0,
        }
    }

    /// The resilient production configuration: crashes are retried twice
    /// before the point is quarantined.
    pub fn dsn18() -> Self {
        ResilienceConfig {
            crash_retries: 2,
            ..ResilienceConfig::legacy()
        }
    }

    /// The guarded production configuration: everything in
    /// [`ResilienceConfig::dsn18`] plus a DMR sentinel check every 25
    /// campaign runs feeding the campaign's circuit breaker.
    pub fn guarded() -> Self {
        ResilienceConfig {
            sentinel_every: 25,
            ..ResilienceConfig::dsn18()
        }
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig::legacy()
    }
}

/// A characterization point pulled from the walk because it kept crashing
/// the board.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Benchmark running when the crashes happened.
    pub benchmark: String,
    /// The offending setup.
    pub setup: Setup,
    /// Consecutive crashes observed before quarantine.
    pub consecutive_crashes: u32,
    /// Who the quarantine blames: the board's own silicon (the default,
    /// and what every legacy record decodes to) or an adversarial
    /// co-tenant whose droop caused the crashes.
    #[serde(default)]
    pub attribution: TenantAttribution,
}

/// Tracks consecutive crashes per setup and decides quarantine.
///
/// Keyed linearly on [`Setup`] (campaigns visit at most a few hundred
/// setups, and `Setup` has no ordering), and only ever tracking the
/// current walk position, the tracker stays tiny.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QuarantineTracker {
    counts: Vec<(Setup, u32)>,
    quarantined: Vec<Setup>,
}

impl QuarantineTracker {
    /// Records one crash at `setup`; returns the new consecutive count.
    pub fn record_crash(&mut self, setup: Setup) -> u32 {
        if let Some(entry) = self.counts.iter_mut().find(|(s, _)| *s == setup) {
            entry.1 += 1;
            return entry.1;
        }
        self.counts.push((setup, 1));
        1
    }

    /// Records a clean run at `setup`, breaking its crash streak.
    pub fn record_ok(&mut self, setup: Setup) {
        self.counts.retain(|(s, _)| *s != setup);
    }

    /// Marks `setup` quarantined.
    pub fn quarantine(&mut self, setup: Setup) {
        if !self.is_quarantined(setup) {
            self.quarantined.push(setup);
        }
    }

    /// Whether `setup` has been quarantined.
    pub fn is_quarantined(&self, setup: Setup) -> bool {
        self.quarantined.contains(&setup)
    }

    /// Number of quarantined setups.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }
}

/// Campaign-level tally of the recovery machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Power cycles that left the board hung.
    pub failed_power_cycles: u64,
    /// Extra power-cycle attempts issued by the retry loop.
    pub reset_retries: u64,
    /// Backoff the real framework would have slept, in milliseconds.
    pub total_backoff_ms: u64,
    /// V/F restore writes re-issued after the firmware dropped them.
    pub setup_restores: u64,
    /// Setups quarantined for crashing the board repeatedly.
    pub quarantined_points: u64,
    /// Precautionary resets issued after uncorrectable errors.
    pub precautionary_resets: u64,
}

impl RecoveryStats {
    /// Whether any recovery action was needed at all.
    pub fn any_recovery(&self) -> bool {
        *self != RecoveryStats::default()
    }

    /// Folds one board recovery into the campaign tally.
    pub fn absorb(&mut self, recovery: &BoardRecovery) {
        self.failed_power_cycles += recovery.failed_cycles;
        self.reset_retries += u64::from(recovery.retries);
        self.total_backoff_ms += recovery.backoff_ms;
    }
}

/// What one [`recover_board`] call had to do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoardRecovery {
    /// Power-cycle retries issued (0 if the board was not hung).
    pub retries: u32,
    /// Backoff the real framework would have slept, in milliseconds.
    pub backoff_ms: u64,
    /// Cycles that still left the board hung (including the one that hung
    /// it in the first place).
    pub failed_cycles: u64,
    /// Whether the retry budget ran out and the operator had to reseat
    /// the board ([`XGene2Server::force_recover`]).
    pub escalated: bool,
}

/// Drives a hung board back up: power-cycle retries with exponential
/// backoff per `retry`, escalating to operator-level recovery
/// ([`XGene2Server::force_recover`], which always succeeds) once the
/// retry budget is exhausted. A board that is not hung is left untouched
/// and costs nothing.
pub fn recover_board(server: &mut XGene2Server, retry: &RetryPolicy) -> BoardRecovery {
    let mut recovery = BoardRecovery::default();
    if !server.is_hung() {
        return recovery;
    }
    recovery.failed_cycles += 1; // the cycle that hung the board
    while recovery.retries < retry.max_retries {
        let backoff = retry.backoff_ms(recovery.retries);
        recovery.backoff_ms += backoff;
        recovery.retries += 1;
        telemetry::event!(
            Level::Warn,
            "recovery_retry",
            attempt = recovery.retries,
            backoff_ms = backoff,
        );
        telemetry::counter!("recovery_retries_total");
        telemetry::counter!("recovery_backoff_ms_total", backoff);
        if server.power_cycle() {
            telemetry::event!(
                Level::Info,
                "board_recovered",
                retries = recovery.retries,
                backoff_ms = recovery.backoff_ms,
            );
            return recovery;
        }
        recovery.failed_cycles += 1;
    }
    telemetry::event!(
        Level::Warn,
        "recovery_escalated",
        retries = recovery.retries,
        backoff_ms = recovery.backoff_ms,
    );
    server.force_recover();
    recovery.escalated = true;
    recovery
}

/// Applies `v` to the PMD rail and read-back-verifies it, re-issuing the
/// write whenever a faulty firmware silently dropped it. Returns the
/// number of restores that were needed (0 on a healthy board).
///
/// A lost write is only detectable when the rail was at a *different*
/// voltage — a dropped re-write of the current value is a harmless no-op
/// and is not counted.
///
/// # Panics
///
/// Panics if `v` is outside the regulator range, or if more than
/// `max_attempts` consecutive restores are dropped (a fault plan with a
/// ~100 % loss rate).
pub fn set_pmd_voltage_verified(
    server: &mut XGene2Server,
    v: Millivolts,
    max_attempts: u32,
) -> u64 {
    server
        .set_pmd_voltage(v)
        .expect("campaign voltages stay within regulator range");
    let mut restores = 0;
    while server.pmd_voltage() != v {
        assert!(
            restores < u64::from(max_attempts),
            "firmware dropped {restores} consecutive voltage restores"
        );
        telemetry::event!(
            Level::Warn,
            "setup_restore_retry",
            requested_mv = v.as_u32(),
            actual_mv = server.pmd_voltage().as_u32(),
            attempt = restores + 1,
        );
        telemetry::counter!("setup_restores_total");
        server
            .set_pmd_voltage(v)
            .expect("campaign voltages stay within regulator range");
        restores += 1;
    }
    restores
}

/// Where a campaign stands, measured in run boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cursor {
    /// Index into the campaign's benchmark list.
    pub bench_idx: usize,
    /// Index into the campaign's core list.
    pub core_idx: usize,
    /// Index into the voltage schedule of the current (benchmark, core).
    pub sched_idx: usize,
    /// Repetition within the current setup.
    pub repetition: u32,
}

/// Per-(benchmark, core) Vmin search state, carried across checkpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchState {
    /// Lowest fully safe voltage seen so far on this walk.
    pub last_safe: Option<Millivolts>,
    /// Consecutive crashes at the current setup.
    pub consecutive_crashes: u32,
}

/// A complete snapshot of a campaign in flight, taken at a run boundary.
///
/// Contains everything needed to resume bit-identically: the campaign
/// definition, the whole simulated server (RNG and fault-plan state
/// included), the walk position, the partial results and the resilience
/// bookkeeping. Serializes through the workspace `serde` JSON so it can be
/// written to disk between processes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    /// The campaign being executed.
    pub campaign: VminCampaign,
    /// Resilience configuration in force.
    pub config: ResilienceConfig,
    /// Full server snapshot.
    pub server: XGene2Server,
    /// Walk position (the next run to execute).
    pub cursor: Cursor,
    /// Search state of the current (benchmark, core).
    pub search: SearchState,
    /// Results accumulated so far.
    pub partial: CampaignResult,
    /// Quarantine bookkeeping.
    pub quarantine: QuarantineTracker,
    /// Server reset count when the campaign started (for the final
    /// watchdog tally).
    pub resets_before: u64,
    /// Snapshot of the installed metrics registry at checkpoint time
    /// (empty when no registry was installed). Defaults keep checkpoints
    /// from before this field decodable.
    #[serde(default)]
    pub metrics: MetricsSnapshot,
    /// Live safety-net state (circuit breaker + sentinel scheduler).
    /// Defaults keep pre-safety-net checkpoints decodable and resumable.
    #[serde(default)]
    pub safety: crate::safety::CampaignSafetyState,
}

/// Why a checkpoint failed to load, split along the line that decides
/// what the operator should do next: [`CheckpointError::Corrupt`] means
/// the *file* is damaged (torn write, bit rot) and the caller should
/// fall back to the previous checkpoint; [`CheckpointError::Schema`]
/// means the file is intact but from an incompatible build, and no
/// amount of falling back will fix it.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The sealed framing failed verification before any decoding.
    Corrupt(crate::integrity::CorruptCheckpoint),
    /// The framing verified (or the file was legacy/unsealed) but the
    /// payload does not decode as a [`CampaignCheckpoint`].
    Schema(serde::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Corrupt(c) => write!(f, "{c}"),
            CheckpointError::Schema(e) => write!(f, "checkpoint schema mismatch: {e}"),
        }
    }
}

impl CampaignCheckpoint {
    /// Serializes the checkpoint to JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Serializes the checkpoint to JSON sealed with a CRC-32 + length
    /// header ([`crate::integrity::seal`]), so a torn write is detected
    /// at load time instead of surfacing as a decode error.
    pub fn to_sealed_json(&self) -> String {
        crate::integrity::seal(&self.to_json())
    }

    /// Restores a checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying decode error if the text is not a valid
    /// checkpoint.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde::json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_model::units::Megahertz;
    use xgene_sim::topology::CoreId;

    fn setup_at(mv: u32) -> Setup {
        Setup {
            voltage: Millivolts::new(mv),
            frequency: Megahertz::XGENE2_NOMINAL,
            core: CoreId::new(0),
        }
    }

    #[test]
    fn backoff_doubles_to_the_cap() {
        let p = RetryPolicy::dsn18();
        assert_eq!(p.backoff_ms(0), 500);
        assert_eq!(p.backoff_ms(1), 1000);
        assert_eq!(p.backoff_ms(2), 2000);
        assert_eq!(p.backoff_ms(6), 30_000, "capped");
        assert_eq!(p.backoff_ms(60), 30_000, "no overflow far past the cap");
    }

    #[test]
    fn quarantine_counts_consecutive_crashes_only() {
        let mut q = QuarantineTracker::default();
        let s = setup_at(900);
        assert_eq!(q.record_crash(s), 1);
        assert_eq!(q.record_crash(s), 2);
        q.record_ok(s);
        assert_eq!(q.record_crash(s), 1, "a clean run breaks the streak");
        assert!(!q.is_quarantined(s));
        q.quarantine(s);
        q.quarantine(s);
        assert!(q.is_quarantined(s));
        assert_eq!(q.quarantined_count(), 1, "idempotent");
        assert!(!q.is_quarantined(setup_at(895)));
    }

    #[test]
    fn recovery_stats_detect_activity() {
        let mut stats = RecoveryStats::default();
        assert!(!stats.any_recovery());
        stats.setup_restores += 1;
        assert!(stats.any_recovery());
    }

    #[test]
    fn retry_policy_roundtrips_through_json() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 7,
            factor: 3,
            cap_ms: 100,
        };
        let text = serde::json::to_string(&p);
        let back: RetryPolicy = serde::json::from_str(&text).unwrap();
        assert_eq!(p, back);
    }
}
