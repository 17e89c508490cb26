//! The parsing phase: raw run records → fine-grained classification and
//! the final CSV the framework emits.

use crate::runner::{CampaignResult, RunRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use xgene_sim::fault::RunOutcome;

/// Aggregate outcome counts of one group of runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Correct completions.
    pub correct: u64,
    /// Runs with corrected errors.
    pub ce: u64,
    /// Runs with uncorrectable errors.
    pub ue: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Crashes / hangs.
    pub crash: u64,
}

impl OutcomeCounts {
    /// Adds one outcome.
    pub fn record(&mut self, outcome: RunOutcome) {
        match outcome {
            RunOutcome::Correct => self.correct += 1,
            RunOutcome::CorrectableError => self.ce += 1,
            RunOutcome::UncorrectableError => self.ue += 1,
            RunOutcome::SilentDataCorruption => self.sdc += 1,
            RunOutcome::Crash => self.crash += 1,
        }
    }

    /// Total runs.
    pub fn total(&self) -> u64 {
        self.correct + self.ce + self.ue + self.sdc + self.crash
    }
}

/// Per-(benchmark, voltage) classification table.
pub fn classify(records: &[RunRecord]) -> BTreeMap<(String, u32), OutcomeCounts> {
    let mut table: BTreeMap<(String, u32), OutcomeCounts> = BTreeMap::new();
    for r in records {
        table
            .entry((r.benchmark.clone(), r.setup.voltage.as_u32()))
            .or_default()
            .record(r.outcome);
    }
    table
}

/// Renders the raw records as the framework's final CSV.
pub fn records_to_csv(records: &[RunRecord]) -> String {
    let mut csv = String::from(
        "benchmark,core,voltage_mv,frequency_mhz,repetition,outcome,watchdog_reset,reset_retries\n",
    );
    for r in records {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{},{}",
            r.benchmark,
            r.setup.core.index(),
            r.setup.voltage.as_u32(),
            r.setup.frequency.as_u32(),
            r.repetition,
            r.outcome,
            r.watchdog_reset,
            r.reset_retries
        );
    }
    csv
}

/// Renders the quarantined setups of a campaign as CSV (empty list →
/// header only).
pub fn quarantine_to_csv(result: &CampaignResult) -> String {
    let mut csv =
        String::from("benchmark,core,voltage_mv,frequency_mhz,consecutive_crashes,attribution\n");
    for q in &result.quarantined {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            q.benchmark,
            q.setup.core.index(),
            q.setup.voltage.as_u32(),
            q.setup.frequency.as_u32(),
            q.consecutive_crashes,
            q.attribution
        );
    }
    csv
}

/// Builds a metrics registry summarizing a finished campaign: run and
/// outcome counters, recovery work (retries, backoff, setup restores),
/// quarantine totals and a per-run reset-retry histogram.
///
/// This is the post-hoc counterpart to the live counters the runner
/// emits while a campaign executes: it derives the same families of
/// numbers from the final [`CampaignResult`], so reports can be
/// rendered (Prometheus text or JSON) without having had a telemetry
/// context installed during the run.
pub fn campaign_metrics(result: &CampaignResult) -> telemetry::Registry {
    let reg = telemetry::Registry::new();
    reg.counter_add("campaign_runs_total", result.records.len() as u64);
    let mut counts = OutcomeCounts::default();
    reg.register_histogram("run_reset_retries", &[0.0, 1.0, 2.0, 4.0, 8.0]);
    for r in &result.records {
        counts.record(r.outcome);
        reg.observe("run_reset_retries", f64::from(r.reset_retries));
    }
    reg.counter_add("campaign_correct_total", counts.correct);
    reg.counter_add("campaign_ce_total", counts.ce);
    reg.counter_add("campaign_ue_total", counts.ue);
    reg.counter_add("campaign_sdc_total", counts.sdc);
    reg.counter_add("campaign_crashes_total", counts.crash);
    reg.counter_add("campaign_watchdog_resets_total", result.watchdog_resets);
    reg.counter_add(
        "campaign_quarantines_total",
        result.quarantined.len() as u64,
    );
    reg.counter_add("campaign_vmin_points_total", result.vmins.len() as u64);
    reg.counter_add("recovery_retries_total", result.recovery.reset_retries);
    reg.counter_add(
        "recovery_backoff_ms_total",
        result.recovery.total_backoff_ms,
    );
    reg.counter_add(
        "recovery_failed_power_cycles_total",
        result.recovery.failed_power_cycles,
    );
    reg.counter_add("setup_restores_total", result.recovery.setup_restores);
    reg.counter_add(
        "precautionary_resets_total",
        result.recovery.precautionary_resets,
    );
    reg.counter_add("breaker_trips_total", result.safety.breaker_trips);
    reg.counter_add("sentinel_checks_total", result.safety.sentinel.checks);
    reg.counter_add(
        "sentinel_detections_total",
        result.safety.sentinel.detections(),
    );
    reg.counter_add(
        "sentinel_undetected_sdcs_total",
        result.safety.sentinel.undetected_sdcs,
    );
    reg
}

/// Renders the campaign's safety-net summary as a one-row CSV: breaker
/// trips and final state, the reason of the last trip, and the sentinel
/// tallies (checks, detections split by mechanism, timeouts, hardware
/// errors, and the audit-only miss count).
pub fn safety_to_csv(result: &CampaignResult) -> String {
    let s = &result.safety;
    let mut csv = String::from(
        "breaker_trips,last_trip_reason,breaker_state,sentinel_checks,\
         detected_by_checksum,detected_by_vote,sentinel_timeouts,sentinel_hw_errors,\
         true_sdcs,undetected_sdcs\n",
    );
    let _ = writeln!(
        csv,
        "{},{},{},{},{},{},{},{},{},{}",
        s.breaker_trips,
        s.last_trip_reason
            .map(|r| r.to_string())
            .unwrap_or_else(|| "-".into()),
        s.breaker_state,
        s.sentinel.checks,
        s.sentinel.detected_by_checksum,
        s.sentinel.detected_by_vote,
        s.sentinel.timeouts,
        s.sentinel.hw_errors,
        s.sentinel.true_sdcs,
        s.sentinel.undetected_sdcs,
    );
    csv
}

/// Renders the per-(benchmark, core) Vmin summary as CSV.
pub fn vmins_to_csv(result: &CampaignResult) -> String {
    let mut csv = String::from("benchmark,core,vmin_mv,first_failure_mv\n");
    for v in &result.vmins {
        let _ = writeln!(
            csv,
            "{},{},{},{}",
            v.benchmark,
            v.core.index(),
            v.vmin
                .map(|m| m.as_u32().to_string())
                .unwrap_or_else(|| "-".into()),
            v.first_failure
                .map(|m| m.as_u32().to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Setup;
    use power_model::units::{Megahertz, Millivolts};
    use xgene_sim::topology::CoreId;

    fn record(bench: &str, mv: u32, outcome: RunOutcome) -> RunRecord {
        RunRecord {
            benchmark: bench.into(),
            setup: Setup {
                voltage: Millivolts::new(mv),
                frequency: Megahertz::XGENE2_NOMINAL,
                core: CoreId::new(0),
            },
            repetition: 0,
            outcome,
            watchdog_reset: outcome.needs_reset(),
            reset_retries: 0,
        }
    }

    #[test]
    fn classification_groups_by_benchmark_and_voltage() {
        let records = vec![
            record("mcf", 900, RunOutcome::Correct),
            record("mcf", 900, RunOutcome::CorrectableError),
            record("mcf", 895, RunOutcome::Crash),
            record("milc", 900, RunOutcome::Correct),
        ];
        let table = classify(&records);
        let mcf_900 = table.get(&("mcf".into(), 900)).unwrap();
        assert_eq!(mcf_900.correct, 1);
        assert_eq!(mcf_900.ce, 1);
        assert_eq!(mcf_900.total(), 2);
        assert_eq!(table.get(&("mcf".into(), 895)).unwrap().crash, 1);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let records = vec![record("mcf", 900, RunOutcome::Correct)];
        let csv = records_to_csv(&records);
        let mut lines = csv.lines();
        assert!(lines
            .next()
            .unwrap()
            .starts_with("benchmark,core,voltage_mv"));
        assert_eq!(lines.next().unwrap(), "mcf,0,900,2400,0,correct,false,0");
    }

    #[test]
    fn quarantine_csv_lists_pulled_setups() {
        let result = CampaignResult {
            quarantined: vec![crate::resilience::QuarantineRecord {
                benchmark: "milc".into(),
                setup: Setup {
                    voltage: Millivolts::new(830),
                    frequency: Megahertz::XGENE2_NOMINAL,
                    core: CoreId::new(5),
                },
                consecutive_crashes: 3,
                attribution: crate::safety::TenantAttribution::default(),
            }],
            ..CampaignResult::default()
        };
        let csv = quarantine_to_csv(&result);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("benchmark,core"));
        assert_eq!(lines.next().unwrap(), "milc,5,830,2400,3,board");
        assert!(
            quarantine_to_csv(&CampaignResult::default())
                .lines()
                .count()
                == 1
        );
    }

    #[test]
    fn campaign_metrics_summarize_the_result() {
        let mut crash = record("mcf", 880, RunOutcome::Crash);
        crash.reset_retries = 2;
        let result = CampaignResult {
            records: vec![
                record("mcf", 900, RunOutcome::Correct),
                record("mcf", 890, RunOutcome::CorrectableError),
                record("mcf", 885, RunOutcome::SilentDataCorruption),
                crash,
            ],
            watchdog_resets: 3,
            recovery: crate::resilience::RecoveryStats {
                failed_power_cycles: 1,
                reset_retries: 2,
                total_backoff_ms: 300,
                setup_restores: 1,
                quarantined_points: 0,
                precautionary_resets: 1,
            },
            ..CampaignResult::default()
        };
        let reg = campaign_metrics(&result);
        assert_eq!(reg.counter("campaign_runs_total"), 4);
        assert_eq!(reg.counter("campaign_correct_total"), 1);
        assert_eq!(reg.counter("campaign_ce_total"), 1);
        assert_eq!(reg.counter("campaign_sdc_total"), 1);
        assert_eq!(reg.counter("campaign_crashes_total"), 1);
        assert_eq!(reg.counter("campaign_ue_total"), 0);
        assert_eq!(reg.counter("campaign_watchdog_resets_total"), 3);
        assert_eq!(reg.counter("recovery_retries_total"), 2);
        assert_eq!(reg.counter("recovery_backoff_ms_total"), 300);
        let retries = reg.histogram("run_reset_retries").unwrap();
        assert_eq!(retries.count(), 4);
        assert_eq!(retries.counts()[0], 3); // three runs with zero retries
        let text = reg.prometheus();
        assert!(text.contains("# TYPE campaign_runs_total counter"));
        assert!(text.contains("campaign_runs_total 4"));
        assert!(text.contains("run_reset_retries_bucket{le=\"2\"} 4"));
    }

    #[test]
    fn safety_csv_renders_trips_and_sentinel_tallies() {
        use crate::safety::{SafetySummary, SentinelStats, TripReason};
        let result = CampaignResult {
            safety: SafetySummary {
                breaker_trips: 2,
                last_trip_reason: Some(TripReason::SdcVote),
                breaker_state: crate::safety::BreakerState::Cooldown,
                sentinel: SentinelStats {
                    checks: 40,
                    detected_by_checksum: 1,
                    detected_by_vote: 2,
                    timeouts: 1,
                    hw_errors: 0,
                    true_sdcs: 3,
                    undetected_sdcs: 0,
                },
            },
            ..CampaignResult::default()
        };
        let csv = safety_to_csv(&result);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("breaker_trips,"));
        assert_eq!(lines.next().unwrap(), "2,sdc-vote,cooldown,40,1,2,1,0,3,0");
        // No trips: the reason renders as a dash.
        let quiet = safety_to_csv(&CampaignResult::default());
        assert!(quiet.lines().nth(1).unwrap().starts_with("0,-,healthy,0,"));
        let reg = campaign_metrics(&result);
        assert_eq!(reg.counter("breaker_trips_total"), 2);
        assert_eq!(reg.counter("sentinel_checks_total"), 40);
        assert_eq!(reg.counter("sentinel_detections_total"), 3);
        assert_eq!(reg.counter("sentinel_undetected_sdcs_total"), 0);
    }

    #[test]
    fn vmin_csv_handles_missing_values() {
        let result = CampaignResult {
            vmins: vec![crate::runner::VminResult {
                benchmark: "mcf".into(),
                core: CoreId::new(3),
                vmin: Some(Millivolts::new(860)),
                first_failure: None,
            }],
            ..CampaignResult::default()
        };
        let csv = vmins_to_csv(&result);
        assert!(csv.contains("mcf,3,860,-"));
    }
}
