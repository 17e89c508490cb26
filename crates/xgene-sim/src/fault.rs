//! Run-outcome fault model: what happens when a program executes below,
//! at, or above its Vmin.
//!
//! The characterization framework classifies every run as one of: correct
//! completion, correctable/uncorrectable error reports (from cache ECC and
//! parity), silent data corruption (caught only by comparing against a
//! golden output), or a crash/hang needing the watchdog. The margin between
//! the operating voltage and the workload's Vmin determines the outcome
//! distribution: a few millivolts above Vmin runs are clean; inside a
//! narrow band the first symptoms are CEs and SDCs; below it the machine
//! locks up.

use crate::sigma::ChipProfile;
use crate::topology::CoreId;
use crate::workload::WorkloadProfile;
use power_model::units::{Megahertz, Millivolts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Classification of one characterization run. The variants run from
/// mildest to most severe, so `Ord` is the severity order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RunOutcome {
    /// Completed with output matching the golden reference.
    Correct,
    /// Completed; hardware reported corrected errors (CE).
    CorrectableError,
    /// Completed; hardware reported uncorrectable errors (UE).
    UncorrectableError,
    /// Completed with wrong output and no hardware error report.
    SilentDataCorruption,
    /// Kernel panic, lockup or reset — watchdog intervention required.
    Crash,
}

impl RunOutcome {
    /// Whether the run finished with usable output.
    pub fn is_usable(self) -> bool {
        matches!(self, RunOutcome::Correct | RunOutcome::CorrectableError)
    }

    /// Whether the system needs a reset after this outcome.
    pub fn needs_reset(self) -> bool {
        matches!(self, RunOutcome::Crash)
    }

    /// The outcome's short label, as logs and telemetry fields show it.
    pub fn label(self) -> &'static str {
        match self {
            RunOutcome::Correct => "correct",
            RunOutcome::CorrectableError => "CE",
            RunOutcome::UncorrectableError => "UE",
            RunOutcome::SilentDataCorruption => "SDC",
            RunOutcome::Crash => "crash",
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome model: margin bands around Vmin.
///
/// * margin ≥ `safe_band_mv` — always correct;
/// * `0 ≤ margin < safe_band_mv` — mostly correct, occasional CEs (cache
///   ECC catching marginal bitcells);
/// * `-failure_band_mv < margin < 0` — mixed CEs, SDCs and UEs;
/// * margin ≤ `-failure_band_mv` — crash.
///
/// # Examples
///
/// ```
/// use xgene_sim::fault::{FaultModel, RunOutcome};
/// use xgene_sim::sigma::{ChipProfile, SigmaBin};
/// use xgene_sim::workload::WorkloadProfile;
/// use power_model::units::{Megahertz, Millivolts};
/// use rand::SeedableRng;
///
/// let model = FaultModel::default();
/// let chip = ChipProfile::corner(SigmaBin::Ttt);
/// let w = WorkloadProfile::builder("w").activity(0.5).build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let outcome = model.classify(
///     &chip, chip.most_robust_core(), &w, Megahertz::XGENE2_NOMINAL,
///     Millivolts::XGENE2_NOMINAL, &mut rng);
/// assert_eq!(outcome, RunOutcome::Correct);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Width of the marginal band above Vmin where sporadic CEs appear.
    safe_band_mv: f64,
    /// Width of the band below Vmin where errors appear before lockup.
    failure_band_mv: f64,
    /// CE probability at margin 0 (decays linearly through the safe band).
    ce_probability_at_vmin: f64,
}

impl FaultModel {
    /// Creates a fault model with explicit band widths.
    ///
    /// # Panics
    ///
    /// Panics if any band width is negative or the CE probability is
    /// outside `[0, 1]`.
    pub fn new(safe_band_mv: f64, failure_band_mv: f64, ce_probability_at_vmin: f64) -> Self {
        assert!(safe_band_mv >= 0.0, "safe band must be non-negative");
        assert!(failure_band_mv > 0.0, "failure band must be positive");
        assert!(
            (0.0..=1.0).contains(&ce_probability_at_vmin),
            "probability in [0,1]"
        );
        FaultModel {
            safe_band_mv,
            failure_band_mv,
            ce_probability_at_vmin,
        }
    }

    /// Classifies one run at `voltage` for `(chip, core, workload,
    /// frequency)` with `active_cores` busy cores in total.
    #[allow(clippy::too_many_arguments)]
    pub fn classify_with_active_cores<R: Rng + ?Sized>(
        &self,
        chip: &ChipProfile,
        core: CoreId,
        workload: &WorkloadProfile,
        frequency: Megahertz,
        voltage: Millivolts,
        active_cores: usize,
        rng: &mut R,
    ) -> RunOutcome {
        let vmin = chip.vmin_with_active_cores(core, workload, frequency, active_cores);
        let margin = f64::from(voltage.as_u32()) - f64::from(vmin.as_u32());
        if margin >= self.safe_band_mv {
            return RunOutcome::Correct;
        }
        if margin >= 0.0 {
            // Marginal band: sporadic correctable errors, linearly more
            // likely as the margin shrinks.
            let p_ce = self.ce_probability_at_vmin * (1.0 - margin / self.safe_band_mv);
            return if rng.gen::<f64>() < p_ce {
                RunOutcome::CorrectableError
            } else {
                RunOutcome::Correct
            };
        }
        if margin <= -self.failure_band_mv {
            return RunOutcome::Crash;
        }
        // Inside the failure band: severity grows as voltage drops.
        let depth = -margin / self.failure_band_mv; // 0 at Vmin, 1 at crash
        let roll: f64 = rng.gen();
        // Observed mix near Vmin: CEs first, then SDC/UE, then crashes.
        let p_crash = depth * depth * 0.8;
        let p_ue = 0.15 + 0.2 * depth;
        let p_sdc = 0.25;
        if roll < p_crash {
            RunOutcome::Crash
        } else if roll < p_crash + p_ue {
            RunOutcome::UncorrectableError
        } else if roll < p_crash + p_ue + p_sdc {
            RunOutcome::SilentDataCorruption
        } else {
            RunOutcome::CorrectableError
        }
    }

    /// Classifies a single-program run (one active core).
    pub fn classify<R: Rng + ?Sized>(
        &self,
        chip: &ChipProfile,
        core: CoreId,
        workload: &WorkloadProfile,
        frequency: Megahertz,
        voltage: Millivolts,
        rng: &mut R,
    ) -> RunOutcome {
        self.classify_with_active_cores(chip, core, workload, frequency, voltage, 1, rng)
    }
}

impl Default for FaultModel {
    /// The calibrated bands: 5 mV marginal band with 30 % CE incidence at
    /// Vmin, 12 mV failure band before guaranteed lockup.
    fn default() -> Self {
        FaultModel::new(5.0, 12.0, 0.3)
    }
}

/// What one reset request actually did to the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResetBehavior {
    /// The power cycle completed and the firmware booted at nominal.
    Booted,
    /// The board entered a boot-loop and needed this many extra power
    /// cycles before coming up.
    BootLoop {
        /// Extra power cycles consumed by the loop.
        extra_cycles: u32,
    },
    /// The IPMI power cycle was acknowledged but the board stayed hung;
    /// the requester must retry.
    StayedHung,
}

/// Board- and framework-level fault injection: the failure modes of the
/// *harness* rather than the silicon.
///
/// The DSN'18 framework babysits real boards for weeks, and the things
/// that actually go wrong are mundane: an IPMI power cycle that does not
/// bring the board back, a reboot that loops in firmware, a V/F restore
/// that the freshly booted firmware silently drops, and thermal sensors
/// that stick or drop out. A `FaultPlan` injects those events into the
/// simulated server deterministically: all draws come from an embedded
/// seeded generator, and individual events can additionally be *forced*
/// at specific draw indices so a test can guarantee "at least one of
/// each" without cranking the rates.
///
/// The plan serializes with the server (generator state included), so a
/// checkpointed campaign resumes into the identical fault sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    rng: StdRng,
    power_cycle_failure_rate: f64,
    boot_loop_rate: f64,
    boot_loop_max_extra: u32,
    setup_loss_rate: f64,
    sensor_stuck_rate: f64,
    sensor_dropout_rate: f64,
    /// Reset-draw indices (0-based) forced to [`ResetBehavior::StayedHung`].
    forced_hangs: Vec<u64>,
    /// Setup-write draw indices (0-based) forced to be lost.
    forced_setup_losses: Vec<u64>,
    reset_draws: u64,
    setup_draws: u64,
    /// Run-draw indices (0-based) whose completed outcome is forced to
    /// [`RunOutcome::SilentDataCorruption`]. Pure bookkeeping — no RNG
    /// draws — so legacy fault sequences are unaffected.
    #[serde(default)]
    forced_sdc_runs: Vec<u64>,
    /// When set, every run that completes below its Vmin is reclassified
    /// as a silent corruption: the deterministic worst case for detection
    /// studies (hangs stay hangs — a run that never finishes cannot be
    /// silently wrong).
    #[serde(default)]
    sdc_below_vmin: bool,
    #[serde(default)]
    run_draws: u64,
}

impl FaultPlan {
    /// A plan with every rate zero: faults occur only where forced.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed ^ 0xFA17_FA17),
            power_cycle_failure_rate: 0.0,
            boot_loop_rate: 0.0,
            boot_loop_max_extra: 3,
            setup_loss_rate: 0.0,
            sensor_stuck_rate: 0.0,
            sensor_dropout_rate: 0.0,
            forced_hangs: Vec::new(),
            forced_setup_losses: Vec::new(),
            reset_draws: 0,
            setup_draws: 0,
            forced_sdc_runs: Vec::new(),
            sdc_below_vmin: false,
            run_draws: 0,
        }
    }

    /// A hostile plan for resilience testing: frequent hung power cycles,
    /// boot loops, lost restores and flaky sensors.
    pub fn hostile(seed: u64) -> Self {
        FaultPlan {
            power_cycle_failure_rate: 0.3,
            boot_loop_rate: 0.2,
            setup_loss_rate: 0.05,
            sensor_stuck_rate: 0.02,
            sensor_dropout_rate: 0.02,
            ..FaultPlan::quiet(seed)
        }
    }

    /// Sets the probability that a requested power cycle leaves the board
    /// hung.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` (also for the other setters).
    #[must_use]
    pub fn with_power_cycle_failure_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.power_cycle_failure_rate = rate;
        self
    }

    /// Sets the probability that a reset enters a boot-loop.
    #[must_use]
    pub fn with_boot_loop_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.boot_loop_rate = rate;
        self
    }

    /// Sets the probability that a post-boot V/F restore write is lost.
    #[must_use]
    pub fn with_setup_loss_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.setup_loss_rate = rate;
        self
    }

    /// Sets the thermal-sensor stuck/dropout probabilities per reading.
    #[must_use]
    pub fn with_sensor_fault_rates(mut self, stuck: f64, dropout: f64) -> Self {
        assert!((0.0..=1.0).contains(&stuck), "rate must be in [0,1]");
        assert!((0.0..=1.0).contains(&dropout), "rate must be in [0,1]");
        self.sensor_stuck_rate = stuck;
        self.sensor_dropout_rate = dropout;
        self
    }

    /// Forces the `index`-th reset draw (0-based) to leave the board hung.
    #[must_use]
    pub fn force_hang_at(mut self, index: u64) -> Self {
        self.forced_hangs.push(index);
        self
    }

    /// Forces the `index`-th setup-write draw (0-based) to be lost.
    #[must_use]
    pub fn force_setup_loss_at(mut self, index: u64) -> Self {
        self.forced_setup_losses.push(index);
        self
    }

    /// Forces the `index`-th run draw (0-based) that completes to be a
    /// silent corruption (a crash at that index stays a crash).
    #[must_use]
    pub fn force_sdc_at_run(mut self, index: u64) -> Self {
        self.forced_sdc_runs.push(index);
        self
    }

    /// Reclassifies every completed sub-Vmin run as a silent corruption.
    #[must_use]
    pub fn with_sub_vmin_sdc(mut self) -> Self {
        self.sdc_below_vmin = true;
        self
    }

    /// The `(stuck, dropout)` per-reading sensor fault rates, for wiring
    /// into thermal-testbed sensors.
    pub fn sensor_fault_rates(&self) -> (f64, f64) {
        (self.sensor_stuck_rate, self.sensor_dropout_rate)
    }

    /// Draws the behavior of one power-cycle request.
    pub fn next_reset_behavior(&mut self) -> ResetBehavior {
        let index = self.reset_draws;
        self.reset_draws += 1;
        // Consume the stochastic draws unconditionally so forcing an event
        // does not shift the rest of the sequence.
        let hang_roll: f64 = self.rng.gen();
        let loop_roll: f64 = self.rng.gen();
        let extra = self.rng.gen_range(1..=self.boot_loop_max_extra.max(1));
        if self.forced_hangs.contains(&index) || hang_roll < self.power_cycle_failure_rate {
            return ResetBehavior::StayedHung;
        }
        if loop_roll < self.boot_loop_rate {
            return ResetBehavior::BootLoop {
                extra_cycles: extra,
            };
        }
        ResetBehavior::Booted
    }

    /// Draws whether one V/F setup write is silently lost.
    pub fn next_setup_write_lost(&mut self) -> bool {
        let index = self.setup_draws;
        self.setup_draws += 1;
        let roll: f64 = self.rng.gen();
        self.forced_setup_losses.contains(&index) || roll < self.setup_loss_rate
    }

    /// Draws the silicon-level override for one run: whether a run that
    /// classified as `outcome` (`below_vmin` says where the operating
    /// point sat relative to the run's Vmin) must be reclassified as a
    /// silent corruption. Consumes no RNG — forcing never shifts the
    /// fault sequence.
    pub fn next_run_sdc_override(&mut self, below_vmin: bool, outcome: RunOutcome) -> bool {
        let index = self.run_draws;
        self.run_draws += 1;
        if outcome.needs_reset() {
            return false;
        }
        self.forced_sdc_runs.contains(&index) || (self.sdc_below_vmin && below_vmin)
    }

    /// Total run draws taken so far.
    pub fn run_draws(&self) -> u64 {
        self.run_draws
    }

    /// Total reset draws taken so far.
    pub fn reset_draws(&self) -> u64 {
        self.reset_draws
    }

    /// Total setup-write draws taken so far.
    pub fn setup_draws(&self) -> u64 {
        self.setup_draws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sigma::SigmaBin;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (FaultModel, ChipProfile, WorkloadProfile, StdRng) {
        (
            FaultModel::default(),
            ChipProfile::corner(SigmaBin::Ttt),
            WorkloadProfile::builder("w")
                .activity(0.6)
                .swing(0.4)
                .build(),
            StdRng::seed_from_u64(99),
        )
    }

    #[test]
    fn far_above_vmin_is_always_correct() {
        let (model, chip, w, mut rng) = setup();
        let core = chip.most_robust_core();
        for _ in 0..200 {
            let o = model.classify(
                &chip,
                core,
                &w,
                Megahertz::XGENE2_NOMINAL,
                Millivolts::XGENE2_NOMINAL,
                &mut rng,
            );
            assert_eq!(o, RunOutcome::Correct);
        }
    }

    #[test]
    fn far_below_vmin_always_crashes() {
        let (model, chip, w, mut rng) = setup();
        let core = chip.most_robust_core();
        let vmin = chip.vmin(core, &w, Megahertz::XGENE2_NOMINAL);
        let deep = Millivolts::new(vmin.as_u32() - 30);
        for _ in 0..200 {
            let o = model.classify(&chip, core, &w, Megahertz::XGENE2_NOMINAL, deep, &mut rng);
            assert_eq!(o, RunOutcome::Crash);
        }
    }

    #[test]
    fn failure_band_mixes_error_classes() {
        let (model, chip, w, mut rng) = setup();
        let core = chip.most_robust_core();
        let vmin = chip.vmin(core, &w, Megahertz::XGENE2_NOMINAL);
        let just_below = Millivolts::new(vmin.as_u32() - 5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(model.classify(
                &chip,
                core,
                &w,
                Megahertz::XGENE2_NOMINAL,
                just_below,
                &mut rng,
            ));
        }
        assert!(seen.contains(&RunOutcome::SilentDataCorruption), "{seen:?}");
        assert!(seen.contains(&RunOutcome::CorrectableError), "{seen:?}");
        assert!(
            !seen.contains(&RunOutcome::Correct),
            "below Vmin is never correct"
        );
    }

    #[test]
    fn marginal_band_shows_sporadic_ce() {
        let (model, chip, w, mut rng) = setup();
        let core = chip.most_robust_core();
        let vmin = chip.vmin(core, &w, Megahertz::XGENE2_NOMINAL);
        let at_vmin = vmin;
        let mut ces = 0;
        for _ in 0..1000 {
            match model.classify(
                &chip,
                core,
                &w,
                Megahertz::XGENE2_NOMINAL,
                at_vmin,
                &mut rng,
            ) {
                RunOutcome::CorrectableError => ces += 1,
                RunOutcome::Correct => {}
                other => panic!("unexpected {other} at Vmin"),
            }
        }
        assert!((200..400).contains(&ces), "CE count at Vmin: {ces}");
    }

    #[test]
    fn outcome_flags() {
        assert!(RunOutcome::Correct.is_usable());
        assert!(RunOutcome::CorrectableError.is_usable());
        assert!(!RunOutcome::SilentDataCorruption.is_usable());
        assert!(RunOutcome::Crash.needs_reset());
        assert!(!RunOutcome::UncorrectableError.needs_reset());
    }

    #[test]
    fn fault_plan_forces_events_without_shifting_the_stream() {
        // Two identical plans, one with a forced hang: every draw after
        // the forced index must still agree.
        let mut plain = FaultPlan::quiet(5).with_boot_loop_rate(0.5);
        let mut forced = FaultPlan::quiet(5)
            .with_boot_loop_rate(0.5)
            .force_hang_at(2);
        for i in 0..20u64 {
            let a = plain.next_reset_behavior();
            let b = forced.next_reset_behavior();
            if i == 2 {
                assert_eq!(b, ResetBehavior::StayedHung);
            } else {
                assert_eq!(a, b, "draw {i} diverged");
            }
        }
    }

    #[test]
    fn quiet_plan_never_faults() {
        let mut plan = FaultPlan::quiet(9);
        for _ in 0..100 {
            assert_eq!(plan.next_reset_behavior(), ResetBehavior::Booted);
            assert!(!plan.next_setup_write_lost());
        }
    }

    #[test]
    fn hostile_plan_shows_every_fault_class() {
        let mut plan = FaultPlan::hostile(11);
        let mut hangs = 0;
        let mut loops = 0;
        let mut losses = 0;
        for _ in 0..400 {
            match plan.next_reset_behavior() {
                ResetBehavior::StayedHung => hangs += 1,
                ResetBehavior::BootLoop { extra_cycles } => {
                    assert!(extra_cycles >= 1);
                    loops += 1;
                }
                ResetBehavior::Booted => {}
            }
            if plan.next_setup_write_lost() {
                losses += 1;
            }
        }
        assert!(
            hangs > 0 && loops > 0 && losses > 0,
            "{hangs}/{loops}/{losses}"
        );
    }

    #[test]
    fn sdc_override_never_resurrects_a_crash_and_consumes_no_rng() {
        let mut plan = FaultPlan::quiet(3)
            .with_boot_loop_rate(0.5)
            .force_sdc_at_run(0)
            .with_sub_vmin_sdc();
        // A crash at the forced index stays a crash.
        assert!(!plan.next_run_sdc_override(true, RunOutcome::Crash));
        // Forced index already consumed; sub-Vmin mode still applies.
        assert!(plan.next_run_sdc_override(true, RunOutcome::CorrectableError));
        assert!(!plan.next_run_sdc_override(false, RunOutcome::Correct));
        assert_eq!(plan.run_draws(), 3);
        // Run draws never touch the RNG: the reset stream is unshifted.
        let mut twin = FaultPlan::quiet(3).with_boot_loop_rate(0.5);
        for _ in 0..20 {
            assert_eq!(plan.next_reset_behavior(), twin.next_reset_behavior());
        }
    }

    #[test]
    fn fault_plan_serde_roundtrip_preserves_sequence() {
        let mut plan = FaultPlan::hostile(13);
        for _ in 0..7 {
            plan.next_reset_behavior();
        }
        let snapshot = serde::json::to_string(&plan);
        let mut restored: FaultPlan = serde::json::from_str(&snapshot).unwrap();
        for _ in 0..50 {
            assert_eq!(plan.next_reset_behavior(), restored.next_reset_behavior());
            assert_eq!(
                plan.next_setup_write_lost(),
                restored.next_setup_write_lost()
            );
        }
    }

    #[test]
    fn more_active_cores_fail_earlier() {
        let (model, chip, w, mut rng) = setup();
        let core = chip.weakest_core();
        let vmin1 = chip.vmin_with_active_cores(core, &w, Megahertz::XGENE2_NOMINAL, 1);
        // At a voltage safe for 1 core but inside the 8-core failure zone:
        let v = Millivolts::new(vmin1.as_u32() + 8);
        let mut eight_core_failures = 0;
        for _ in 0..200 {
            let o = model.classify_with_active_cores(
                &chip,
                core,
                &w,
                Megahertz::XGENE2_NOMINAL,
                v,
                8,
                &mut rng,
            );
            if !o.is_usable() {
                eight_core_failures += 1;
            }
            let solo = model.classify(&chip, core, &w, Megahertz::XGENE2_NOMINAL, v, &mut rng);
            assert!(solo.is_usable() || solo == RunOutcome::CorrectableError);
        }
        assert!(eight_core_failures > 0, "8-core runs should fail at {v}");
    }
}
