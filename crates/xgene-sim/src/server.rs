//! The assembled X-Gene2 server: chip + DRAM + sensors + SLIMpro.
//!
//! SLIMpro (Scalable Lightweight Intelligent Management Processor) is the
//! management core that boots the system, exposes temperature and power
//! sensors, reports ECC/parity errors to the kernel, and configures MCU
//! parameters such as the refresh period. The characterization framework
//! talks exclusively to this interface — exactly as the real framework
//! does — so swapping the simulated server for real hardware would only
//! replace this module.

use crate::fault::{FaultModel, FaultPlan, ResetBehavior, RunOutcome};
use crate::sigma::{ChipProfile, SigmaBin};
use crate::topology::{CoreId, PmdId, PMD_COUNT};
use crate::workload::WorkloadProfile;
use dram_sim::array::DramArray;
use dram_sim::retention::{PopulationSpec, RetentionModel, WeakCellPopulation};
use power_model::server::{OperatingPoint, PowerBreakdown, ServerLoad, ServerPowerModel};
use power_model::tradeoff::FrequencyPlan;
use power_model::units::{Celsius, Megahertz, Milliseconds, Millivolts, Watts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use telemetry::Level;

/// Voltage programmable range of the PMD/SoC regulators.
pub const VOLTAGE_RANGE_MV: std::ops::RangeInclusive<u32> = 700..=1050;

/// Error raised by invalid management-interface requests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigError {
    /// Requested voltage is outside the regulator's range.
    VoltageOutOfRange {
        /// The rejected request in millivolts.
        requested_mv: u32,
    },
    /// Requested frequency is not one of the supported DVFS steps.
    UnsupportedFrequency {
        /// The rejected request in MHz.
        requested_mhz: u32,
    },
    /// Requested refresh period is non-positive.
    InvalidRefreshPeriod,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::VoltageOutOfRange { requested_mv } => {
                write!(f, "voltage {requested_mv} mV outside regulator range")
            }
            ConfigError::UnsupportedFrequency { requested_mhz } => {
                write!(f, "frequency {requested_mhz} MHz is not a DVFS step")
            }
            ConfigError::InvalidRefreshPeriod => f.write_str("refresh period must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Supported per-PMD DVFS frequency steps.
pub const DVFS_STEPS_MHZ: [u32; 5] = [2400, 2000, 1600, 1200, 800];

/// One program run's result as the framework observes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreRunResult {
    /// Core the program ran on.
    pub core: CoreId,
    /// Classified outcome.
    pub outcome: RunOutcome,
}

impl CoreRunResult {
    /// What a hung board answers for a run on `core`: nothing executes.
    fn crash(core: CoreId) -> Self {
        CoreRunResult {
            core,
            outcome: RunOutcome::Crash,
        }
    }
}

/// One multi-tenant epoch: a victim run plus its co-tenants' runs, with
/// the cross-tenant PDN droop each induced on the other.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColocatedRun {
    /// The victim tenant's classified run.
    pub victim: CoreRunResult,
    /// Co-tenant (aggressor) runs, in assignment order.
    pub aggressors: Vec<CoreRunResult>,
    /// Ground-truth rail droop (mV) the co-tenants induced at the
    /// victim's supply pins. This is simulator-side truth for audits and
    /// tests; a safety net must *estimate* it from observable telemetry.
    pub cross_droop_mv: f64,
}

/// SplitMix domain tag for the adversarial tenant's RNG stream — the same
/// domain-separation pattern the fleet uses for per-board streams, so an
/// attacker's fault draws can never perturb the victim's trace.
const ATTACKER_STREAM_DOMAIN: u64 = 0xAD;

/// The simulated server.
///
/// # Examples
///
/// ```
/// use xgene_sim::server::XGene2Server;
/// use xgene_sim::sigma::SigmaBin;
/// use xgene_sim::workload::WorkloadProfile;
/// use power_model::units::Millivolts;
///
/// let mut server = XGene2Server::new(SigmaBin::Ttt, 42);
/// server.set_pmd_voltage(Millivolts::new(930))?;
/// let w = WorkloadProfile::builder("bench").activity(0.5).build();
/// let result = server.run_on_core(server.chip().most_robust_core(), &w);
/// assert!(result.outcome.is_usable());
/// # Ok::<(), xgene_sim::server::ConfigError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XGene2Server {
    chip: ChipProfile,
    fault_model: FaultModel,
    power_model: ServerPowerModel,
    dram: DramArray,
    pmd_voltage: Millivolts,
    soc_voltage: Millivolts,
    pmd_frequencies: [Megahertz; PMD_COUNT],
    dram_temperature: Celsius,
    reset_count: u64,
    rng: StdRng,
    fault_plan: Option<FaultPlan>,
    hung: bool,
    /// Seed of the domain-separated attacker stream (see
    /// [`ATTACKER_STREAM_DOMAIN`]). Defaults to 0 when decoding snapshots
    /// taken before multi-tenancy existed.
    #[serde(default)]
    attacker_seed: u64,
    /// Lazily seeded attacker RNG: `None` until the first co-located run,
    /// so purely single-tenant campaigns replay byte-identically against
    /// pre-multi-tenancy snapshots.
    #[serde(default)]
    attacker_rng: Option<StdRng>,
}

impl XGene2Server {
    /// Boots a server with the given chip corner, deterministic in `seed`.
    pub fn new(bin: SigmaBin, seed: u64) -> Self {
        XGene2Server::with_population_spec(bin, seed, PopulationSpec::dsn18())
    }

    /// Boots a server whose DRAM population covers a custom envelope
    /// (needed for sweeps beyond 60 °C / 2.283 s).
    pub fn with_population_spec(bin: SigmaBin, seed: u64, spec: PopulationSpec) -> Self {
        XGene2Server::with_chip(ChipProfile::corner(bin), seed, spec)
    }

    /// Boots a server around an explicit chip personality (typically
    /// [`ChipProfile::sampled`]) — the fleet orchestrator's constructor,
    /// where every board carries its own sampled silicon rather than one
    /// of the three characterized corner parts. The DRAM weak-cell
    /// population and fault RNG still derive deterministically from
    /// `seed`; the population's cells are drawn on the first DRAM read
    /// (see [`WeakCellPopulation::generate`]), so a board that never
    /// reads its DRAM never draws them.
    pub fn with_chip(chip: ChipProfile, seed: u64, spec: PopulationSpec) -> Self {
        let population = WeakCellPopulation::generate(&RetentionModel::xgene2_micron(), spec, seed);
        XGene2Server::with_chip_and_population(chip, seed, population)
    }

    /// Boots a server around an explicit chip *and* an explicit DRAM
    /// weak-cell population — the lifetime subsystem's constructor,
    /// where a re-characterization boots the board as it exists after
    /// years of deployment (aged silicon, grown cell population) rather
    /// than as it left the factory. The fault RNG still derives from
    /// `seed`.
    pub fn with_chip_and_population(
        chip: ChipProfile,
        seed: u64,
        population: WeakCellPopulation,
    ) -> Self {
        let dram = DramArray::new(
            population,
            Milliseconds::DDR3_NOMINAL_TREFP,
            Celsius::new(45.0),
        );
        XGene2Server {
            chip,
            fault_model: FaultModel::default(),
            power_model: ServerPowerModel::xgene2(),
            dram,
            pmd_voltage: Millivolts::XGENE2_NOMINAL,
            soc_voltage: Millivolts::XGENE2_NOMINAL,
            pmd_frequencies: [Megahertz::XGENE2_NOMINAL; PMD_COUNT],
            dram_temperature: Celsius::new(45.0),
            reset_count: 0,
            rng: StdRng::seed_from_u64(seed ^ 0xD5A5_5A5D),
            fault_plan: None,
            hung: false,
            attacker_seed: seed ^ ATTACKER_STREAM_DOMAIN.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            attacker_rng: None,
        }
    }

    /// Installs a board-level fault-injection plan. Without one (the
    /// default) every reset succeeds and every setup write lands, which is
    /// the exact legacy behavior: no plan means zero extra RNG draws.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Whether the board is currently hung (a power cycle failed to bring
    /// it back). A hung board crashes every run until [`Self::power_cycle`]
    /// succeeds.
    pub fn is_hung(&self) -> bool {
        self.hung
    }

    /// The chip installed in the socket.
    pub fn chip(&self) -> &ChipProfile {
        &self.chip
    }

    /// The DRAM subsystem (mutable: workloads read and write it).
    pub fn dram_mut(&mut self) -> &mut DramArray {
        &mut self.dram
    }

    /// The DRAM subsystem.
    pub fn dram(&self) -> &DramArray {
        &self.dram
    }

    /// Current PMD-rail voltage.
    pub fn pmd_voltage(&self) -> Millivolts {
        self.pmd_voltage
    }

    /// Current SoC-rail voltage.
    pub fn soc_voltage(&self) -> Millivolts {
        self.soc_voltage
    }

    /// Current frequency of a PMD.
    pub fn pmd_frequency(&self, pmd: PmdId) -> Megahertz {
        self.pmd_frequencies[pmd.index()]
    }

    /// Number of watchdog resets since boot.
    pub fn reset_count(&self) -> u64 {
        self.reset_count
    }

    /// Sets the PMD-domain voltage.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::VoltageOutOfRange`] outside 700–1050 mV.
    pub fn set_pmd_voltage(&mut self, voltage: Millivolts) -> Result<(), ConfigError> {
        validate_voltage(voltage)?;
        // A faulty firmware may silently drop the write (the SLIMpro call
        // returns success but the regulator stays where it was); callers
        // that care must read the voltage back.
        if let Some(plan) = self.fault_plan.as_mut() {
            if plan.next_setup_write_lost() {
                telemetry::event!(
                    Level::Warn,
                    "setup_write_lost",
                    requested_mv = voltage.as_u32(),
                    actual_mv = self.pmd_voltage.as_u32(),
                );
                telemetry::counter!("setup_writes_lost_total");
                return Ok(());
            }
        }
        telemetry::event!(Level::Trace, "pmd_voltage_set", mv = voltage.as_u32());
        self.pmd_voltage = voltage;
        Ok(())
    }

    /// Sets the SoC-domain voltage.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::VoltageOutOfRange`] outside 700–1050 mV.
    pub fn set_soc_voltage(&mut self, voltage: Millivolts) -> Result<(), ConfigError> {
        validate_voltage(voltage)?;
        telemetry::event!(Level::Trace, "soc_voltage_set", mv = voltage.as_u32());
        self.soc_voltage = voltage;
        Ok(())
    }

    /// Sets one PMD's frequency to a supported DVFS step.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnsupportedFrequency`] for other values.
    pub fn set_pmd_frequency(&mut self, pmd: PmdId, freq: Megahertz) -> Result<(), ConfigError> {
        if !DVFS_STEPS_MHZ.contains(&freq.as_u32()) {
            return Err(ConfigError::UnsupportedFrequency {
                requested_mhz: freq.as_u32(),
            });
        }
        telemetry::event!(
            Level::Trace,
            "pmd_frequency_set",
            pmd = pmd.index(),
            mhz = freq.as_u32(),
        );
        self.pmd_frequencies[pmd.index()] = freq;
        Ok(())
    }

    /// Sets one PMD's frequency to an arbitrary PLL value — the socketed
    /// validation boards allow overriding the DVFS table for frequency
    /// characterization (Fmax search).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnsupportedFrequency`] outside 200–3200 MHz.
    pub fn set_pmd_frequency_unlocked(
        &mut self,
        pmd: PmdId,
        freq: Megahertz,
    ) -> Result<(), ConfigError> {
        if !(200..=3200).contains(&freq.as_u32()) {
            return Err(ConfigError::UnsupportedFrequency {
                requested_mhz: freq.as_u32(),
            });
        }
        self.pmd_frequencies[pmd.index()] = freq;
        Ok(())
    }

    /// Configures the DRAM refresh period through SLIMpro.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidRefreshPeriod`] for non-positive values.
    pub fn set_trefp(&mut self, trefp: Milliseconds) -> Result<(), ConfigError> {
        if trefp.as_f64() <= 0.0 {
            return Err(ConfigError::InvalidRefreshPeriod);
        }
        self.dram.set_trefp(trefp);
        Ok(())
    }

    /// Sets the DRAM temperature (driven by the thermal testbed).
    pub fn set_dram_temperature(&mut self, temp: Celsius) {
        self.dram_temperature = temp;
        self.dram.set_temperature(temp);
    }

    /// Runs one program alone on `core` and classifies the outcome.
    ///
    /// On a hung board nothing executes: the result is a crash and no
    /// watchdog fires (the watchdog already gave up; recovery needs an
    /// explicit [`Self::power_cycle`]).
    pub fn run_on_core(&mut self, core: CoreId, workload: &WorkloadProfile) -> CoreRunResult {
        if self.hung {
            return CoreRunResult::crash(core);
        }
        let outcome = self.classify_run(core, workload, self.pmd_voltage, 1);
        if outcome.needs_reset() {
            self.reset();
        }
        telemetry::event!(
            Level::Debug,
            "run_outcome",
            core = core.index(),
            workload = workload.name(),
            outcome = outcome.label(),
        );
        CoreRunResult { core, outcome }
    }

    /// Runs one program per assignment simultaneously (multi-process
    /// setup); each run sees the combined rail noise of all active cores.
    pub fn run_many(&mut self, assignments: &[(CoreId, &WorkloadProfile)]) -> Vec<CoreRunResult> {
        if self.hung {
            return assignments
                .iter()
                .map(|&(core, _)| CoreRunResult::crash(core))
                .collect();
        }
        let n = assignments.len().max(1);
        let rail = self.pmd_voltage;
        let results: Vec<CoreRunResult> = assignments
            .iter()
            .map(|&(core, workload)| CoreRunResult {
                core,
                outcome: self.classify_run(core, workload, rail, n),
            })
            .collect();
        if results.iter().any(|r| r.outcome.needs_reset()) {
            self.reset();
        }
        results
    }

    /// Runs the victim tenant on `core` simultaneously with co-located
    /// tenants on other cores of the shared rail, applying the
    /// cross-tenant PDN droop each induces on the others (see
    /// [`ChipProfile::cross_tenant_droop_mv`]).
    ///
    /// Two invariants make this safe to add to an existing campaign:
    ///
    /// * With an empty `co_tenants` slice the victim path is draw-for-draw
    ///   identical to [`Self::run_on_core`] — same RNG stream, same fault
    ///   plan advancement, same classification inputs.
    /// * Co-tenant runs are classified from a *domain-separated* attacker
    ///   RNG stream and never advance the fault plan, so adding or
    ///   swapping an attacker cannot perturb the victim's fault trace
    ///   (only its physics, through the droop it couples in).
    pub fn run_colocated(
        &mut self,
        core: CoreId,
        workload: &WorkloadProfile,
        co_tenants: &[(CoreId, &WorkloadProfile)],
    ) -> ColocatedRun {
        if self.hung {
            return ColocatedRun {
                victim: CoreRunResult::crash(core),
                aggressors: co_tenants
                    .iter()
                    .map(|&(c, _)| CoreRunResult::crash(c))
                    .collect(),
                cross_droop_mv: 0.0,
            };
        }
        let active = 1 + co_tenants.len();
        let aggressor_profiles: Vec<&WorkloadProfile> =
            co_tenants.iter().map(|(_, w)| *w).collect();
        let cross_droop_mv = self.chip.cross_tenant_droop_mv(&aggressor_profiles);

        // Victim: classified at the droop-eroded effective voltage, drawing
        // from the victim RNG stream and advancing the fault plan exactly
        // as a solo run would.
        let effective = droop_adjusted(self.pmd_voltage, cross_droop_mv);
        let outcome = self.classify_run(core, workload, effective, active);
        let mut crashed = outcome.needs_reset();
        let victim = CoreRunResult { core, outcome };

        // Aggressors: classified from the attacker stream at *their*
        // droop-eroded voltage (the droop every other tenant couples onto
        // them); a benign victim contributes ~0 back.
        let attacker_seed = self.attacker_seed;
        let mut aggressors = Vec::with_capacity(co_tenants.len());
        for (i, (a_core, a_workload)) in co_tenants.iter().enumerate() {
            let mut others: Vec<&WorkloadProfile> = vec![workload];
            others.extend(
                co_tenants
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, (_, w))| *w),
            );
            let a_droop = self.chip.cross_tenant_droop_mv(&others);
            let a_effective = droop_adjusted(self.pmd_voltage, a_droop);
            let a_freq = self.pmd_frequencies[a_core.pmd().index()];
            let arng = self
                .attacker_rng
                .get_or_insert_with(|| StdRng::seed_from_u64(attacker_seed));
            let a_outcome = self.fault_model.classify_with_active_cores(
                &self.chip,
                *a_core,
                a_workload,
                a_freq,
                a_effective,
                active,
                arng,
            );
            crashed |= a_outcome.needs_reset();
            aggressors.push(CoreRunResult {
                core: *a_core,
                outcome: a_outcome,
            });
        }
        // A crash anywhere on the shared rail takes the whole board down:
        // one watchdog reset, exactly as in `run_many`.
        if crashed {
            self.reset();
        }
        telemetry::event!(
            Level::Debug,
            "colocated_run",
            core = core.index(),
            workload = workload.name(),
            co_tenants = co_tenants.len(),
            cross_droop_mv = cross_droop_mv,
            outcome = victim.outcome.label(),
        );
        ColocatedRun {
            victim,
            aggressors,
            cross_droop_mv,
        }
    }

    /// Classifies one run on the victim stream: the fault model at the
    /// core's PMD frequency, the rail voltage the run saw (`rail`,
    /// droop-adjusted for co-located runs) and `active_cores` switching
    /// cores, then the fault plan's silicon-level SDC injection. Without
    /// a plan the injection is a no-op; with one, the plan's run-draw
    /// counter advances (no RNG) and forced or sub-Vmin runs are
    /// reclassified as silent corruptions.
    fn classify_run(
        &mut self,
        core: CoreId,
        workload: &WorkloadProfile,
        rail: Millivolts,
        active_cores: usize,
    ) -> RunOutcome {
        let freq = self.pmd_frequencies[core.pmd().index()];
        let outcome = self.fault_model.classify_with_active_cores(
            &self.chip,
            core,
            workload,
            freq,
            rail,
            active_cores,
            &mut self.rng,
        );
        let Some(plan) = self.fault_plan.as_mut() else {
            return outcome;
        };
        let vmin = self
            .chip
            .vmin_with_active_cores(core, workload, freq, active_cores);
        if plan.next_run_sdc_override(rail < vmin, outcome)
            && outcome != RunOutcome::SilentDataCorruption
        {
            telemetry::event!(
                Level::Debug,
                "sdc_injected",
                core = core.index(),
                workload = workload.name(),
                original = outcome.label(),
            );
            telemetry::counter!("sdc_injections_total");
            return RunOutcome::SilentDataCorruption;
        }
        outcome
    }

    /// Board power at the current operating point for a given load, as the
    /// SLIMpro power sensors report it.
    pub fn read_power(&self, load: &ServerLoad) -> PowerBreakdown {
        let point = OperatingPoint {
            pmd_voltage: self.pmd_voltage,
            soc_voltage: self.soc_voltage,
            plan: FrequencyPlan::from_frequencies(self.pmd_frequencies),
            trefp: self.dram.trefp(),
        };
        self.power_model.power(&point, load)
    }

    /// Total board power under `load` (convenience over [`Self::read_power`]).
    pub fn read_total_power(&self, load: &ServerLoad) -> Watts {
        self.read_power(load).total()
    }

    /// DRAM temperature as the SPD sensors report it.
    pub fn read_dram_temperature(&self) -> Celsius {
        self.dram_temperature
    }

    /// Power-cycles the server: restores nominal V/F (the firmware boots at
    /// nominal), clears DRAM contents, and counts the reset.
    ///
    /// With a [`FaultPlan`] installed the cycle may misbehave: a boot-loop
    /// burns extra cycles before coming up, and a failed cycle leaves the
    /// board hung (state untouched, every subsequent run crashes) until
    /// [`Self::power_cycle`] succeeds.
    pub fn reset(&mut self) {
        self.reset_count += 1;
        telemetry::counter!("watchdog_resets_total");
        let behavior = match self.fault_plan.as_mut() {
            Some(plan) => plan.next_reset_behavior(),
            None => ResetBehavior::Booted,
        };
        match behavior {
            ResetBehavior::StayedHung => {
                telemetry::event!(
                    Level::Warn,
                    "reset_failed_board_hung",
                    reset_count = self.reset_count,
                );
                self.hung = true;
            }
            ResetBehavior::BootLoop { extra_cycles } => {
                telemetry::event!(
                    Level::Warn,
                    "boot_loop",
                    extra_cycles = extra_cycles,
                    reset_count = self.reset_count,
                );
                self.reset_count += u64::from(extra_cycles);
                self.complete_boot();
            }
            ResetBehavior::Booted => {
                telemetry::event!(
                    Level::Debug,
                    "watchdog_reset",
                    reset_count = self.reset_count
                );
                self.complete_boot();
            }
        }
    }

    /// Issues an explicit IPMI power cycle and reports whether the board
    /// came back. On success the board is un-hung and at the nominal
    /// operating point; on failure it is (still) hung and the caller
    /// should retry with backoff.
    pub fn power_cycle(&mut self) -> bool {
        self.reset();
        let success = !self.hung;
        telemetry::counter!("power_cycles_total");
        telemetry::event!(Level::Info, "power_cycle", success = success);
        success
    }

    /// Operator-level recovery — physically reseating the board — which
    /// always brings it back at nominal, bypassing the fault plan. The
    /// escalation path once power-cycle retries are exhausted.
    pub fn force_recover(&mut self) {
        telemetry::event!(
            Level::Warn,
            "force_recover",
            reset_count = self.reset_count + 1
        );
        telemetry::counter!("force_recoveries_total");
        self.reset_count += 1;
        self.complete_boot();
    }

    fn complete_boot(&mut self) {
        self.hung = false;
        self.pmd_voltage = Millivolts::XGENE2_NOMINAL;
        self.soc_voltage = Millivolts::XGENE2_NOMINAL;
        self.pmd_frequencies = [Megahertz::XGENE2_NOMINAL; PMD_COUNT];
        self.dram
            .fill_pattern(dram_sim::patterns::DataPattern::AllZeros);
    }
}

/// Applies a PDN droop (mV) to the rail set-point, saturating at zero.
fn droop_adjusted(rail: Millivolts, droop_mv: f64) -> Millivolts {
    let v = (f64::from(rail.as_u32()) - droop_mv).round().max(0.0);
    Millivolts::new(v as u32)
}

fn validate_voltage(voltage: Millivolts) -> Result<(), ConfigError> {
    if !VOLTAGE_RANGE_MV.contains(&voltage.as_u32()) {
        return Err(ConfigError::VoltageOutOfRange {
            requested_mv: voltage.as_u32(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boots_at_nominal() {
        let server = XGene2Server::new(SigmaBin::Ttt, 1);
        assert_eq!(server.pmd_voltage(), Millivolts::XGENE2_NOMINAL);
        assert_eq!(
            server.pmd_frequency(PmdId::new(0)),
            Megahertz::XGENE2_NOMINAL
        );
        assert_eq!(server.reset_count(), 0);
    }

    #[test]
    fn rejects_out_of_range_voltage() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 1);
        let err = server.set_pmd_voltage(Millivolts::new(600)).unwrap_err();
        assert_eq!(err, ConfigError::VoltageOutOfRange { requested_mv: 600 });
        assert!(server.set_pmd_voltage(Millivolts::new(700)).is_ok());
    }

    #[test]
    fn rejects_unsupported_frequency() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 1);
        assert!(server
            .set_pmd_frequency(PmdId::new(0), Megahertz::new(1234))
            .is_err());
        assert!(server
            .set_pmd_frequency(PmdId::new(0), Megahertz::XGENE2_HALF)
            .is_ok());
        assert_eq!(server.pmd_frequency(PmdId::new(0)), Megahertz::XGENE2_HALF);
    }

    #[test]
    fn crash_triggers_watchdog_reset_and_reboot_at_nominal() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 1);
        server.set_pmd_voltage(Millivolts::new(700)).unwrap();
        let heavy = WorkloadProfile::builder("heavy")
            .activity(0.9)
            .swing(0.8)
            .build();
        let result = server.run_on_core(CoreId::new(0), &heavy);
        assert_eq!(result.outcome, RunOutcome::Crash);
        assert_eq!(server.reset_count(), 1);
        assert_eq!(server.pmd_voltage(), Millivolts::XGENE2_NOMINAL);
    }

    #[test]
    fn nominal_run_is_clean() {
        let mut server = XGene2Server::new(SigmaBin::Tss, 2);
        let w = WorkloadProfile::builder("w")
            .activity(0.7)
            .swing(0.5)
            .build();
        let r = server.run_on_core(CoreId::new(3), &w);
        assert_eq!(r.outcome, RunOutcome::Correct);
    }

    #[test]
    fn multiprocess_runs_report_per_core() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 3);
        let a = WorkloadProfile::builder("a").activity(0.4).build();
        let b = WorkloadProfile::builder("b").activity(0.6).build();
        let results = server.run_many(&[(CoreId::new(0), &a), (CoreId::new(2), &b)]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].core, CoreId::new(0));
        assert_eq!(results[1].core, CoreId::new(2));
    }

    #[test]
    fn power_reading_drops_at_safe_point() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 4);
        let load = ServerLoad::jammer_detector();
        let nominal = server.read_total_power(&load);
        server.set_pmd_voltage(Millivolts::new(930)).unwrap();
        server.set_soc_voltage(Millivolts::new(920)).unwrap();
        server.set_trefp(Milliseconds::DSN18_RELAXED_TREFP).unwrap();
        let safe = server.read_total_power(&load);
        let savings = nominal.savings_to(safe);
        assert!((savings - 0.202).abs() < 0.01, "savings {savings}");
    }

    #[test]
    fn trefp_validation() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 5);
        assert_eq!(
            server.set_trefp(Milliseconds::new(0.0)).unwrap_err(),
            ConfigError::InvalidRefreshPeriod
        );
        assert!(server.set_trefp(Milliseconds::DSN18_RELAXED_TREFP).is_ok());
        assert_eq!(server.dram().trefp(), Milliseconds::DSN18_RELAXED_TREFP);
    }

    #[test]
    fn forced_hang_leaves_board_dead_until_power_cycle_succeeds() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 1);
        // First reset draw hangs the board; later cycles succeed.
        server.install_fault_plan(FaultPlan::quiet(7).force_hang_at(0));
        server.set_pmd_voltage(Millivolts::new(700)).unwrap();
        let heavy = WorkloadProfile::builder("heavy")
            .activity(0.9)
            .swing(0.8)
            .build();
        let crash = server.run_on_core(CoreId::new(0), &heavy);
        assert_eq!(crash.outcome, RunOutcome::Crash);
        assert!(server.is_hung(), "the watchdog reset must have failed");
        // A hung board crashes everything without further resets.
        let before = server.reset_count();
        let dead = server.run_on_core(CoreId::new(1), &heavy);
        assert_eq!(dead.outcome, RunOutcome::Crash);
        assert_eq!(server.reset_count(), before);
        // An explicit power cycle recovers it.
        assert!(server.power_cycle());
        assert!(!server.is_hung());
        assert_eq!(server.pmd_voltage(), Millivolts::XGENE2_NOMINAL);
        let clean = server.run_on_core(CoreId::new(0), &heavy);
        assert!(clean.outcome.is_usable());
    }

    #[test]
    fn lost_setup_write_keeps_old_voltage_but_reports_success() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 1);
        server.install_fault_plan(FaultPlan::quiet(7).force_setup_loss_at(0));
        assert!(server.set_pmd_voltage(Millivolts::new(900)).is_ok());
        assert_eq!(
            server.pmd_voltage(),
            Millivolts::XGENE2_NOMINAL,
            "the write must have been silently dropped"
        );
        // The next write lands.
        server.set_pmd_voltage(Millivolts::new(900)).unwrap();
        assert_eq!(server.pmd_voltage(), Millivolts::new(900));
    }

    #[test]
    fn boot_loop_burns_extra_power_cycles() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 1);
        server.install_fault_plan(FaultPlan::quiet(7).with_boot_loop_rate(1.0));
        server.reset();
        assert!(!server.is_hung());
        assert!(
            server.reset_count() >= 2,
            "a boot loop costs at least one extra cycle"
        );
    }

    #[test]
    fn quiet_plan_preserves_legacy_run_sequence() {
        let heavy = WorkloadProfile::builder("heavy")
            .activity(0.8)
            .swing(0.6)
            .build();
        let drive = |server: &mut XGene2Server| -> Vec<RunOutcome> {
            (0..40)
                .map(|_| {
                    server.set_pmd_voltage(Millivolts::new(880)).unwrap();
                    server.run_on_core(CoreId::new(0), &heavy).outcome
                })
                .collect()
        };
        let mut plain = XGene2Server::new(SigmaBin::Ttt, 21);
        let mut planned = XGene2Server::new(SigmaBin::Ttt, 21);
        planned.install_fault_plan(FaultPlan::quiet(999));
        assert_eq!(drive(&mut plain), drive(&mut planned));
        assert_eq!(plain.reset_count(), planned.reset_count());
    }

    #[test]
    fn server_serde_roundtrip_reproduces_outcomes() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 33);
        server.install_fault_plan(FaultPlan::hostile(33));
        let heavy = WorkloadProfile::builder("heavy")
            .activity(0.8)
            .swing(0.6)
            .build();
        for _ in 0..5 {
            let _ = server.set_pmd_voltage(Millivolts::new(890));
            server.run_on_core(CoreId::new(0), &heavy);
        }
        let snapshot = serde::json::to_string(&server);
        let mut restored: XGene2Server = serde::json::from_str(&snapshot).unwrap();
        for _ in 0..20 {
            let _ = server.set_pmd_voltage(Millivolts::new(885));
            let _ = restored.set_pmd_voltage(Millivolts::new(885));
            let a = server.run_on_core(CoreId::new(0), &heavy);
            let b = restored.run_on_core(CoreId::new(0), &heavy);
            assert_eq!(a, b);
            assert_eq!(server.reset_count(), restored.reset_count());
            assert_eq!(server.is_hung(), restored.is_hung());
            if server.is_hung() {
                assert_eq!(server.power_cycle(), restored.power_cycle());
            }
        }
    }

    #[test]
    fn sub_vmin_sdc_injection_turns_completed_failures_silent() {
        let heavy = WorkloadProfile::builder("heavy")
            .activity(0.9)
            .swing(0.8)
            .build();
        let mut server = XGene2Server::new(SigmaBin::Ttt, 44);
        server.install_fault_plan(FaultPlan::quiet(44).with_sub_vmin_sdc());
        let core = server.chip().most_robust_core();
        let vmin = server.chip().vmin(core, &heavy, Megahertz::XGENE2_NOMINAL);
        // A few mV below Vmin: completed runs are CE/UE/SDC mixes in the
        // plain model, all silent under injection.
        server
            .set_pmd_voltage(Millivolts::new(vmin.as_u32() - 4))
            .unwrap();
        let mut completed = 0;
        for _ in 0..100 {
            let o = server.run_on_core(core, &heavy).outcome;
            if !o.needs_reset() {
                assert_eq!(o, RunOutcome::SilentDataCorruption);
                completed += 1;
            }
            server
                .set_pmd_voltage(Millivolts::new(vmin.as_u32() - 4))
                .unwrap();
        }
        assert!(completed > 0, "some sub-Vmin runs must have completed");
        // At or above Vmin the injection is inert.
        server.set_pmd_voltage(vmin).unwrap();
        for _ in 0..50 {
            let o = server.run_on_core(core, &heavy).outcome;
            assert_ne!(o, RunOutcome::SilentDataCorruption);
            server.set_pmd_voltage(vmin).unwrap();
        }
    }

    #[test]
    fn forced_sdc_lands_on_the_requested_run_draw() {
        let w = WorkloadProfile::builder("w").activity(0.5).build();
        let mut server = XGene2Server::new(SigmaBin::Ttt, 45);
        server.install_fault_plan(FaultPlan::quiet(45).force_sdc_at_run(2));
        let core = server.chip().most_robust_core();
        // Nominal voltage: every run is Correct except the forced draw.
        let outcomes: Vec<RunOutcome> = (0..5)
            .map(|_| server.run_on_core(core, &w).outcome)
            .collect();
        assert_eq!(outcomes[2], RunOutcome::SilentDataCorruption);
        for (i, o) in outcomes.iter().enumerate() {
            if i != 2 {
                assert_eq!(*o, RunOutcome::Correct, "run {i}");
            }
        }
    }

    #[test]
    fn colocated_droop_erodes_victim_margin() {
        // At a voltage with a few mV of solo margin, a resonant aggressor
        // couples enough droop across the rail to push the victim below
        // Vmin, while a non-resonant neighbour leaves it clean.
        let chip = ChipProfile::corner(SigmaBin::Tff);
        let victim_core = chip.weakest_core();
        let [a, b] = victim_core.pmd().cores();
        let attacker_core = if a == victim_core { b } else { a };
        let victim = WorkloadProfile::builder("victim").activity(0.3).build();
        let virus = WorkloadProfile::builder("virus")
            .activity(0.6)
            .swing(1.0)
            .resonance_alignment(0.9)
            .build();
        let benign = WorkloadProfile::builder("benign")
            .activity(0.6)
            .resonance_alignment(0.0)
            .build();
        let vmin = chip.vmin_with_active_cores(victim_core, &victim, Megahertz::XGENE2_NOMINAL, 2);
        let volts = Millivolts::new(vmin.as_u32() + 8);
        assert!(
            chip.cross_tenant_droop_mv(&[&virus]) > 8.0,
            "premise: the virus must couple more droop than the margin"
        );
        assert!(chip.cross_tenant_droop_mv(&[&benign]) < 1e-9);

        let mut failed = 0;
        let mut server = XGene2Server::new(SigmaBin::Tff, 77);
        for _ in 0..60 {
            server.set_pmd_voltage(volts).unwrap();
            let run = server.run_colocated(victim_core, &victim, &[(attacker_core, &virus)]);
            if run.victim.outcome != RunOutcome::Correct {
                failed += 1;
            }
        }
        assert!(failed > 0, "the coupled droop never bit the victim");

        let mut server = XGene2Server::new(SigmaBin::Tff, 77);
        for _ in 0..60 {
            server.set_pmd_voltage(volts).unwrap();
            let run = server.run_colocated(victim_core, &victim, &[(attacker_core, &benign)]);
            assert_eq!(run.victim.outcome, RunOutcome::Correct);
            assert!(run.cross_droop_mv < 1e-9);
        }
    }

    #[test]
    fn attacker_stream_never_perturbs_victim_trace() {
        // Byte-identity regression for the SplitMix stream separation:
        // two aggressors with *identical* coupling physics (zero resonant
        // energy) but very different fault-draw behavior — one runs in its
        // own safe band and consumes classification draws, the other sits
        // far above its Vmin and consumes none. The victim's outcome
        // sequence must be byte-identical either way, and a fault plan's
        // run counter must advance for victim runs only.
        let victim = WorkloadProfile::builder("victim").activity(0.3).build();
        // Zero resonance alignment => zero resonant energy => zero
        // cross-tenant droop, so only the RNG streams can differ.
        let marginal = WorkloadProfile::builder("marginal")
            .activity(0.9)
            .swing(0.9)
            .resonance_alignment(0.0)
            .build();
        let idle = WorkloadProfile::idle();
        let chip = ChipProfile::corner(SigmaBin::Ttt);
        let victim_core = chip.weakest_core();
        let [a, b] = victim_core.pmd().cores();
        let attacker_core = if a == victim_core { b } else { a };
        // Place the rail inside the marginal aggressor's safe band so its
        // runs draw from the attacker stream without ever crashing.
        let marginal_vmin =
            chip.vmin_with_active_cores(attacker_core, &marginal, Megahertz::XGENE2_NOMINAL, 2);
        let volts = Millivolts::new(marginal_vmin.as_u32() + 2);

        let drive = |attacker: &WorkloadProfile| -> (Vec<RunOutcome>, Vec<RunOutcome>) {
            let mut server = XGene2Server::new(SigmaBin::Ttt, 2024);
            server.install_fault_plan(FaultPlan::quiet(2024).force_sdc_at_run(5));
            let mut victims = Vec::new();
            let mut attackers = Vec::new();
            for _ in 0..30 {
                server.set_pmd_voltage(volts).unwrap();
                let run = server.run_colocated(victim_core, &victim, &[(attacker_core, attacker)]);
                victims.push(run.victim.outcome);
                attackers.push(run.aggressors[0].outcome);
            }
            (victims, attackers)
        };

        let (victims_marginal, attackers_marginal) = drive(&marginal);
        let (victims_idle, attackers_idle) = drive(&idle);
        // The marginal aggressor genuinely exercised its own fault band...
        assert!(
            attackers_marginal.contains(&RunOutcome::CorrectableError),
            "premise: the marginal aggressor never drew a fault"
        );
        assert!(attackers_idle.iter().all(|o| *o == RunOutcome::Correct));
        // ...yet the victim trace is byte-identical, down to the forced
        // SDC landing on the victim's 5th plan draw in both worlds.
        assert_eq!(
            serde::json::to_string(&victims_marginal),
            serde::json::to_string(&victims_idle)
        );
        assert_eq!(victims_marginal[5], RunOutcome::SilentDataCorruption);
    }

    #[test]
    fn solo_colocated_run_matches_run_on_core_exactly() {
        let heavy = WorkloadProfile::builder("heavy")
            .activity(0.8)
            .swing(0.6)
            .build();
        let mut solo = XGene2Server::new(SigmaBin::Ttt, 21);
        let mut colo = XGene2Server::new(SigmaBin::Ttt, 21);
        solo.install_fault_plan(FaultPlan::quiet(9).with_sub_vmin_sdc());
        colo.install_fault_plan(FaultPlan::quiet(9).with_sub_vmin_sdc());
        for _ in 0..40 {
            solo.set_pmd_voltage(Millivolts::new(880)).unwrap();
            colo.set_pmd_voltage(Millivolts::new(880)).unwrap();
            let a = solo.run_on_core(CoreId::new(0), &heavy);
            let b = colo.run_colocated(CoreId::new(0), &heavy, &[]);
            assert_eq!(a, b.victim);
            assert_eq!(b.cross_droop_mv, 0.0);
            assert_eq!(solo.reset_count(), colo.reset_count());
        }
    }

    #[test]
    fn a_single_assignment_run_many_matches_run_on_core() {
        let heavy = WorkloadProfile::builder("heavy")
            .activity(0.9)
            .swing(0.8)
            .build();
        let plan = FaultPlan::quiet(46)
            .with_sub_vmin_sdc()
            .with_power_cycle_failure_rate(0.3)
            .with_boot_loop_rate(0.2);
        let mut solo = XGene2Server::new(SigmaBin::Ttt, 46);
        let mut many = XGene2Server::new(SigmaBin::Ttt, 46);
        solo.install_fault_plan(plan.clone());
        many.install_fault_plan(plan);
        let core = solo.chip().most_robust_core();
        let vmin = solo.chip().vmin(core, &heavy, Megahertz::XGENE2_NOMINAL);
        let volts = Millivolts::new(vmin.as_u32() - 6);
        let mut outcomes = Vec::new();
        for _ in 0..60 {
            solo.set_pmd_voltage(volts).unwrap();
            many.set_pmd_voltage(volts).unwrap();
            let solo_run = solo.run_on_core(core, &heavy);
            outcomes.push(solo_run.outcome);
            assert_eq!(many.run_many(&[(core, &heavy)]), [solo_run]);
            assert_eq!(solo.reset_count(), many.reset_count());
            assert_eq!(solo.is_hung(), many.is_hung());
            if solo.is_hung() {
                assert_eq!(solo.power_cycle(), many.power_cycle());
            }
        }
        assert!(
            outcomes.contains(&RunOutcome::Crash),
            "premise: some sub-Vmin runs crash the board"
        );
        assert!(
            outcomes.contains(&RunOutcome::SilentDataCorruption),
            "premise: the plan turns completed sub-Vmin runs silent"
        );
    }

    #[test]
    fn dram_temperature_propagates() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 6);
        server.set_dram_temperature(Celsius::new(60.0));
        assert_eq!(server.read_dram_temperature(), Celsius::new(60.0));
        assert_eq!(server.dram().temperature(), Celsius::new(60.0));
    }
}
