//! Frequency (Fmax) characterization campaigns — the DVFS dual of the
//! undervolting study.
//!
//! At a fixed supply voltage the framework walks the PLL upward (the
//! socketed validation boards allow frequencies outside the DVFS table)
//! until a benchmark fails, revealing each chip's frequency guardband the
//! same way the Vmin campaigns reveal the voltage guardband.

use crate::resilience::{recover_board, set_pmd_voltage_verified, ResilienceConfig};
use crate::setup::{stepped, SafePolicy};
use power_model::units::{Megahertz, Millivolts};
use serde::{Deserialize, Serialize};
use xgene_sim::server::XGene2Server;
use xgene_sim::topology::CoreId;
use xgene_sim::workload::WorkloadProfile;

/// An Fmax campaign definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FmaxCampaign {
    /// Benchmarks to characterize.
    pub benchmarks: Vec<WorkloadProfile>,
    /// Cores to characterize individually.
    pub cores: Vec<CoreId>,
    /// Supply voltage during the search.
    pub voltage: Millivolts,
    /// Starting frequency (the nominal clock).
    pub start: Megahertz,
    /// Search ceiling.
    pub ceiling: Megahertz,
    /// PLL step per setup, in MHz (zero climbs in 1 MHz steps).
    pub step_mhz: u32,
    /// Repetitions per setup.
    pub repetitions: u32,
    /// What counts as safe.
    pub policy: SafePolicy,
}

impl FmaxCampaign {
    /// The standard search: from 2.4 GHz upward in 25 MHz steps at the
    /// nominal 980 mV, 10 repetitions per step.
    pub fn dsn18(benchmarks: Vec<WorkloadProfile>, cores: Vec<CoreId>) -> Self {
        FmaxCampaign {
            benchmarks,
            cores,
            voltage: Millivolts::XGENE2_NOMINAL,
            start: Megahertz::XGENE2_NOMINAL,
            ceiling: Megahertz::new(3200),
            step_mhz: 25,
            repetitions: 10,
            policy: SafePolicy::AllowCorrected,
        }
    }

    /// The ascending frequency schedule. A zero `step_mhz` climbs in
    /// 1 MHz steps.
    pub fn schedule(&self) -> Vec<Megahertz> {
        stepped(self.start.as_u32()..=self.ceiling.as_u32(), self.step_mhz)
            .map(Megahertz::new)
            .collect()
    }
}

/// Fmax search result for one (benchmark, core).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FmaxResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Core under test.
    pub core: CoreId,
    /// Highest frequency at which every repetition was safe.
    pub fmax: Option<Megahertz>,
}

/// Runs the campaign against a server.
pub fn run_fmax_campaign(server: &mut XGene2Server, campaign: &FmaxCampaign) -> Vec<FmaxResult> {
    let resilience = ResilienceConfig::default();
    let schedule = campaign.schedule();
    let mut results = Vec::new();
    for benchmark in &campaign.benchmarks {
        for &core in &campaign.cores {
            let mut best: Option<Megahertz> = None;
            'schedule: for &freq in &schedule {
                for _rep in 0..campaign.repetitions {
                    set_pmd_voltage_verified(
                        server,
                        campaign.voltage,
                        resilience.setup_restore_attempts,
                    );
                    server
                        .set_pmd_frequency_unlocked(core.pmd(), freq)
                        .expect("campaign frequencies are in the PLL range");
                    let outcome = server.run_on_core(core, benchmark).outcome;
                    if campaign.policy.precautionary_reset(outcome) {
                        server.reset();
                    }
                    recover_board(server, &resilience.retry);
                    if !campaign.policy.accepts(outcome) {
                        break 'schedule;
                    }
                }
                best = Some(freq);
            }
            results.push(FmaxResult {
                benchmark: benchmark.name().to_owned(),
                core,
                fmax: best,
            });
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload_sim::spec::by_name;
    use xgene_sim::sigma::SigmaBin;

    fn campaign_for(bench: &str, core: CoreId) -> FmaxCampaign {
        FmaxCampaign::dsn18(vec![by_name(bench).unwrap().profile()], vec![core])
    }

    #[test]
    fn campaign_finds_the_model_fmax() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 81);
        let chip = server.chip().clone();
        let core = chip.most_robust_core();
        let campaign = campaign_for("mcf", core);
        let results = run_fmax_campaign(&mut server, &campaign);
        let found = results[0].fmax.expect("mcf overclocks at nominal voltage");
        let model = chip.fmax(core, &by_name("mcf").unwrap().profile(), campaign.voltage);
        let delta = i64::from(found.as_u32()) - i64::from(model.as_u32());
        // Within one marginal band's worth of PLL steps below the model.
        assert!((-60..=25).contains(&delta), "found {found}, model {model}");
    }

    #[test]
    fn fast_corner_clocks_highest() {
        let fmax_of = |bin| {
            let mut server = XGene2Server::new(bin, 82);
            let core = server.chip().most_robust_core();
            let campaign = campaign_for("mcf", core);
            run_fmax_campaign(&mut server, &campaign)[0]
                .fmax
                .expect("all corners overclock mcf somewhat")
        };
        let tff = fmax_of(SigmaBin::Tff);
        let ttt = fmax_of(SigmaBin::Ttt);
        let tss = fmax_of(SigmaBin::Tss);
        assert!(tff > ttt, "TFF {tff} vs TTT {ttt}");
        assert!(ttt > tss, "TTT {ttt} vs TSS {tss}");
    }

    #[test]
    fn heavier_workloads_clock_lower() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 83);
        let core = server.chip().most_robust_core();
        let mcf = run_fmax_campaign(&mut server, &campaign_for("mcf", core))[0]
            .fmax
            .unwrap();
        let milc = run_fmax_campaign(&mut server, &campaign_for("milc", core))[0]
            .fmax
            .unwrap();
        assert!(mcf > milc, "mcf {mcf} vs milc {milc}");
    }

    #[test]
    fn hung_board_recovery_keeps_later_walks_intact() {
        let profile = by_name("mcf").unwrap().profile();
        let mut campaign = FmaxCampaign::dsn18(vec![profile], vec![CoreId::new(0), CoreId::new(1)]);
        // 600 MHz steps overshoot straight into the deterministic crash
        // zone, so the first core's walk ends with a watchdog reset that
        // the fault plan turns into a hang.
        campaign.step_mhz = 600;
        let mut clean = XGene2Server::new(SigmaBin::Ttt, 85);
        let reference = run_fmax_campaign(&mut clean, &campaign);
        let mut faulty = XGene2Server::new(SigmaBin::Ttt, 85);
        faulty.install_fault_plan(xgene_sim::fault::FaultPlan::quiet(9).force_hang_at(0));
        let measured = run_fmax_campaign(&mut faulty, &campaign);
        assert_eq!(
            reference, measured,
            "a hung board must not poison the next core's walk"
        );
        assert!(!faulty.is_hung());
        assert!(
            faulty.reset_count() > clean.reset_count(),
            "recovery cycles happened"
        );
    }

    #[test]
    fn a_zero_step_climbs_in_megahertz_steps_to_the_ceiling() {
        let campaign = FmaxCampaign {
            step_mhz: 0,
            ..FmaxCampaign::dsn18(vec![], vec![])
        };
        let schedule = campaign.schedule();
        let expected: Vec<Megahertz> = (2400..=3200).map(Megahertz::new).collect();
        assert_eq!(schedule, expected);
    }

    #[test]
    fn undervolted_fmax_drops_below_nominal_clock() {
        let mut server = XGene2Server::new(SigmaBin::Ttt, 84);
        let core = server.chip().most_robust_core();
        let mut campaign = campaign_for("milc", core);
        // At milc's Vmin there is no frequency headroom left.
        campaign.voltage = Millivolts::new(885);
        let results = run_fmax_campaign(&mut server, &campaign);
        match results[0].fmax {
            None => {} // not even 2.4 GHz was stable
            Some(f) => assert!(f.as_u32() <= 2450, "fmax {f}"),
        }
    }
}
