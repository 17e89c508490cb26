//! Multi-process characterization (§III: "single-process and
//! multi-process setups").
//!
//! Running N program instances simultaneously raises the shared rail's
//! Vmin — both because more cores switch at once and because the weakest
//! loaded core sets the requirement. This campaign measures the rail Vmin
//! as a function of instance count, which is what connects the
//! single-program Fig. 4 numbers to the Fig. 5 mix voltage (915 mV for
//! 8 instances on TTT).

use crate::resilience::{recover_board, set_pmd_voltage_verified, ResilienceConfig};
use crate::setup::{descending, SafePolicy};
use power_model::units::{Megahertz, Millivolts};
use serde::{Deserialize, Serialize};
use xgene_sim::server::XGene2Server;
use xgene_sim::topology::CoreId;
use xgene_sim::workload::WorkloadProfile;

/// A multi-process rail-Vmin campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiProcessCampaign {
    /// One workload per instance, pinned to cores 0..N in order.
    pub workloads: Vec<WorkloadProfile>,
    /// Starting voltage.
    pub start: Millivolts,
    /// Search floor.
    pub floor: Millivolts,
    /// Step in mV (zero walks in 1 mV steps).
    pub step_mv: u32,
    /// Repetitions per setup.
    pub repetitions: u32,
    /// Safe-outcome policy.
    pub policy: SafePolicy,
}

impl MultiProcessCampaign {
    /// The standard shape: 5 mV steps from nominal, 10 repetitions.
    pub fn dsn18(workloads: Vec<WorkloadProfile>) -> Self {
        MultiProcessCampaign {
            workloads,
            start: Millivolts::XGENE2_NOMINAL,
            floor: Millivolts::new(700),
            step_mv: 5,
            repetitions: 10,
            policy: SafePolicy::AllowCorrected,
        }
    }
}

/// Result: the lowest rail voltage at which all instances stayed safe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RailVminResult {
    /// Number of simultaneous instances.
    pub instances: usize,
    /// The measured rail Vmin, if any setup was safe.
    pub rail_vmin: Option<Millivolts>,
}

/// Runs the campaign: walks the rail down until any instance fails.
///
/// # Panics
///
/// Panics if the campaign has no workloads or more than 8.
pub fn run_multiprocess_campaign(
    server: &mut XGene2Server,
    campaign: &MultiProcessCampaign,
) -> RailVminResult {
    let n = campaign.workloads.len();
    assert!((1..=8).contains(&n), "1..=8 instances");
    let resilience = ResilienceConfig::default();
    let cores: Vec<CoreId> = (0..n as u8).map(CoreId::new).collect();
    let mut last_safe = None;
    for v in descending(campaign.start, campaign.floor, campaign.step_mv) {
        let mut all_safe = true;
        'reps: for _ in 0..campaign.repetitions {
            set_pmd_voltage_verified(server, v, resilience.setup_restore_attempts);
            for (core, _) in cores.iter().zip(&campaign.workloads) {
                server
                    .set_pmd_frequency(core.pmd(), Megahertz::XGENE2_NOMINAL)
                    .expect("nominal frequency is a DVFS step");
            }
            let assignments: Vec<(CoreId, &WorkloadProfile)> = cores
                .iter()
                .copied()
                .zip(campaign.workloads.iter())
                .collect();
            let results = server.run_many(&assignments);
            if results
                .iter()
                .any(|r| campaign.policy.precautionary_reset(r.outcome))
            {
                server.reset();
            }
            recover_board(server, &resilience.retry);
            if results.iter().any(|r| !campaign.policy.accepts(r.outcome)) {
                all_safe = false;
                break 'reps;
            }
        }
        if all_safe {
            last_safe = Some(v);
        } else {
            break;
        }
    }
    RailVminResult {
        instances: n,
        rail_vmin: last_safe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload_sim::spec::{by_name, fig5_mix};
    use xgene_sim::sigma::SigmaBin;

    #[test]
    fn rail_vmin_rises_with_instance_count() {
        let w = by_name("milc").unwrap().profile();
        let vmins: Vec<u32> = (1..=8)
            .map(|n| {
                let campaign = MultiProcessCampaign::dsn18(vec![w.clone(); n]);
                let mut server = XGene2Server::new(SigmaBin::Ttt, 91);
                let result = run_multiprocess_campaign(&mut server, &campaign);
                assert_eq!(result.instances, n);
                result.rail_vmin.expect("safe point exists").as_u32()
            })
            .collect();
        for w in vmins.windows(2) {
            assert!(w[1] >= w[0], "{vmins:?}");
        }
        assert!(vmins[7] > vmins[0], "{vmins:?}");
    }

    #[test]
    fn forced_setup_loss_does_not_corrupt_the_rail_walk() {
        let w = by_name("milc").unwrap().profile();
        let campaign = MultiProcessCampaign::dsn18(vec![w; 4]);
        let mut clean = XGene2Server::new(SigmaBin::Ttt, 93);
        let reference = run_multiprocess_campaign(&mut clean, &campaign);

        // Draw 10 is the first write at the second voltage step — the
        // first write whose loss is visible to read-back.
        let mut faulty = XGene2Server::new(SigmaBin::Ttt, 93);
        faulty.install_fault_plan(xgene_sim::fault::FaultPlan::quiet(7).force_setup_loss_at(10));
        let measured = run_multiprocess_campaign(&mut faulty, &campaign);
        assert_eq!(
            reference, measured,
            "a dropped V restore must not move the rail Vmin"
        );
    }

    #[test]
    fn hung_board_is_recovered_and_the_walk_ends_clean() {
        let w = by_name("milc").unwrap().profile();
        let mut campaign = MultiProcessCampaign::dsn18(vec![w; 2]);
        // 150 mV steps make the second setup crash deterministically, so
        // the forced hang at the first watchdog reset actually fires.
        campaign.step_mv = 150;
        let mut server = XGene2Server::new(SigmaBin::Ttt, 94);
        server.install_fault_plan(xgene_sim::fault::FaultPlan::quiet(8).force_hang_at(0));
        let result = run_multiprocess_campaign(&mut server, &campaign);
        assert_eq!(result.rail_vmin, Some(Millivolts::new(980)));
        assert!(!server.is_hung(), "recovery must leave the board up");
    }

    #[test]
    fn a_zero_step_walks_in_millivolt_steps_to_the_floor() {
        let w = by_name("milc").unwrap().profile();
        let mut campaign = MultiProcessCampaign::dsn18(vec![w]);
        campaign.start = Millivolts::new(980);
        campaign.floor = Millivolts::new(975);
        campaign.step_mv = 0;
        campaign.repetitions = 2;
        let mut server = XGene2Server::new(SigmaBin::Ttt, 95);
        let result = run_multiprocess_campaign(&mut server, &campaign);
        assert_eq!(result.rail_vmin, Some(Millivolts::new(975)));
    }

    #[test]
    fn eight_instance_mix_needs_about_915mv_on_ttt() {
        // The Fig. 5 first rung, measured through the framework this time.
        let mut server = XGene2Server::new(SigmaBin::Ttt, 92);
        let mix: Vec<WorkloadProfile> = fig5_mix().iter().map(|b| b.profile()).collect();
        // Worst-case placement: heaviest instance on the weakest core —
        // replicate the paper by pinning in droop order onto cores 0..8.
        let mut ordered = mix.clone();
        ordered.sort_by(|a, b| b.droop_score().total_cmp(&a.droop_score()));
        let campaign = MultiProcessCampaign::dsn18(ordered);
        let result = run_multiprocess_campaign(&mut server, &campaign);
        let v = result.rail_vmin.expect("the mix has a safe point").as_u32();
        assert!((910..=925).contains(&v), "rail Vmin {v}");
    }
}
