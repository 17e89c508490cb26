//! Characterization setups and campaign definitions.
//!
//! A *setup* is one (voltage, frequency, cores) configuration; a
//! *campaign* is the set of runs of one benchmark across setups (paper
//! §III). The initialization phase of the framework turns a benchmark
//! list plus a voltage schedule into campaigns.

use power_model::units::{Megahertz, Millivolts};
use serde::{Deserialize, Serialize};
use xgene_sim::topology::CoreId;
use xgene_sim::workload::WorkloadProfile;

/// One characterization setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Setup {
    /// PMD-rail voltage of this run.
    pub voltage: Millivolts,
    /// Core frequency.
    pub frequency: Megahertz,
    /// Core under test.
    pub core: CoreId,
}

/// Policy deciding which run outcomes count as "safe" when searching for
/// Vmin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SafePolicy {
    /// Only fully correct runs are safe (conservative).
    StrictCorrect,
    /// Corrected errors are tolerated — the hardware masked them and the
    /// output was correct (the paper's operational definition: "without
    /// any disruption").
    #[default]
    AllowCorrected,
}

impl SafePolicy {
    /// Whether `outcome` is acceptable under this policy.
    pub fn accepts(self, outcome: xgene_sim::fault::RunOutcome) -> bool {
        use xgene_sim::fault::RunOutcome;
        match self {
            SafePolicy::StrictCorrect => outcome == RunOutcome::Correct,
            SafePolicy::AllowCorrected => outcome.is_usable(),
        }
    }

    /// Whether the execution loop should power-cycle the board after
    /// `outcome` even though the run completed without the watchdog.
    ///
    /// An uncorrectable error means the hardware knows state was
    /// corrupted; under the strict policy the board is considered suspect
    /// and gets a precautionary reset before anything else runs. The
    /// default [`SafePolicy::AllowCorrected`] never asks for one, so
    /// legacy campaigns behave exactly as before.
    pub fn precautionary_reset(self, outcome: xgene_sim::fault::RunOutcome) -> bool {
        use xgene_sim::fault::RunOutcome;
        self == SafePolicy::StrictCorrect && outcome == RunOutcome::UncorrectableError
    }
}

/// An undervolting campaign for a list of benchmarks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VminCampaign {
    /// Benchmarks to characterize.
    pub benchmarks: Vec<WorkloadProfile>,
    /// Cores to characterize individually.
    pub cores: Vec<CoreId>,
    /// Frequency of the runs.
    pub frequency: Megahertz,
    /// Starting (highest) voltage.
    pub start: Millivolts,
    /// Search floor — the campaign never goes below this.
    pub floor: Millivolts,
    /// Voltage decrement per step, in mV (zero walks in 1 mV steps).
    pub step_mv: u32,
    /// Repeated runs per setup (the paper repeats each experiment 10×).
    pub repetitions: u32,
    /// What counts as safe.
    pub policy: SafePolicy,
}

impl VminCampaign {
    /// The paper's campaign shape: from nominal down in 5 mV steps with 10
    /// repetitions per setup at 2.4 GHz.
    pub fn dsn18(benchmarks: Vec<WorkloadProfile>, cores: Vec<CoreId>) -> Self {
        VminCampaign {
            benchmarks,
            cores,
            frequency: Megahertz::XGENE2_NOMINAL,
            start: Millivolts::XGENE2_NOMINAL,
            floor: Millivolts::new(700),
            step_mv: 5,
            repetitions: 10,
            policy: SafePolicy::AllowCorrected,
        }
    }

    /// The descending voltage schedule of this campaign. A zero
    /// `step_mv` walks in 1 mV steps, as warm-started walks read it.
    pub fn voltage_schedule(&self) -> Vec<Millivolts> {
        descending(self.start, self.floor, self.step_mv).collect()
    }
}

/// The voltages from `start` down to `floor` (both inclusive, never
/// 0 mV) in `step_mv` steps: the Vmin and rail-Vmin walks' schedule.
pub(crate) fn descending(
    start: Millivolts,
    floor: Millivolts,
    step_mv: u32,
) -> impl Iterator<Item = Millivolts> {
    stepped((floor.as_u32().max(1)..=start.as_u32()).rev(), step_mv).map(Millivolts::new)
}

/// Every `step`-th unit of `units`, a zero step read as one unit: the
/// one stepping rule of the Vmin, rail-Vmin and Fmax schedules.
pub(crate) fn stepped<I: Iterator<Item = u32>>(units: I, step: u32) -> std::iter::StepBy<I> {
    units.step_by(step.max(1) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgene_sim::fault::RunOutcome;

    #[test]
    fn voltage_schedule_descends_to_floor() {
        let campaign = VminCampaign::dsn18(vec![], vec![]);
        let schedule = campaign.voltage_schedule();
        assert_eq!(schedule.first().copied(), Some(Millivolts::new(980)));
        assert_eq!(schedule.last().copied(), Some(Millivolts::new(700)));
        for w in schedule.windows(2) {
            assert_eq!(w[0].as_u32() - w[1].as_u32(), 5);
        }
    }

    #[test]
    fn a_zero_step_walks_in_millivolt_steps() {
        let campaign = VminCampaign {
            start: Millivolts::new(980),
            floor: Millivolts::new(970),
            step_mv: 0,
            ..VminCampaign::dsn18(vec![], vec![])
        };
        let expected: Vec<Millivolts> = (970..=980).rev().map(Millivolts::new).collect();
        assert_eq!(campaign.voltage_schedule(), expected);
    }

    #[test]
    fn only_strict_policy_asks_for_precautionary_resets() {
        assert!(SafePolicy::StrictCorrect.precautionary_reset(RunOutcome::UncorrectableError));
        for outcome in [
            RunOutcome::Correct,
            RunOutcome::CorrectableError,
            RunOutcome::SilentDataCorruption,
            RunOutcome::Crash,
        ] {
            assert!(
                !SafePolicy::StrictCorrect.precautionary_reset(outcome),
                "{outcome}"
            );
        }
        assert!(!SafePolicy::AllowCorrected.precautionary_reset(RunOutcome::UncorrectableError));
    }

    #[test]
    fn policies_differ_on_corrected_errors() {
        assert!(SafePolicy::AllowCorrected.accepts(RunOutcome::CorrectableError));
        assert!(!SafePolicy::StrictCorrect.accepts(RunOutcome::CorrectableError));
        for policy in [SafePolicy::StrictCorrect, SafePolicy::AllowCorrected] {
            assert!(policy.accepts(RunOutcome::Correct));
            assert!(!policy.accepts(RunOutcome::SilentDataCorruption));
            assert!(!policy.accepts(RunOutcome::Crash));
        }
    }
}
