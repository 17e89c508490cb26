//! Multi-programmed energy exploitation — the Fig. 5 analysis.
//!
//! For the 8-benchmark SPEC mix the paper derives a ladder of safe rail
//! voltages as the weakest PMDs are slowed to 1.2 GHz, then converts it
//! into the power/performance curve. This module derives that ladder from
//! the chip model with predictor-assisted scheduling (heaviest benchmarks
//! onto the slowed PMDs — "the predictor … can also assist task
//! scheduling"), and evaluates the resulting energy savings through the
//! dynamic-power model.

use power_model::scaling::DynamicScaling;
use power_model::tradeoff::{FrequencyPlan, TradeoffCurve, TradeoffPoint};
use power_model::units::{Megahertz, Millivolts};
use serde::{Deserialize, Serialize};
use xgene_sim::sigma::ChipProfile;
use xgene_sim::topology::{CoreId, CORE_COUNT};
use xgene_sim::workload::WorkloadProfile;

/// One rung of the derived ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LadderRung {
    /// PMDs running at 1.2 GHz (the weakest ones, PMD0 upward).
    pub slow_pmds: usize,
    /// Safe rail voltage for the mix under this plan.
    pub rail_voltage: Millivolts,
    /// Which benchmark (by index into the mix) runs on each core.
    pub assignment: [usize; CORE_COUNT],
}

/// Derives the safe rail voltage ladder for a mix of 8 benchmarks.
///
/// Scheduling policy: benchmarks are sorted by droop score; the heaviest
/// go to the slowed PMDs (their Vmin drops with frequency), and the rail
/// must cover the *worst-case* placement among the remaining full-speed
/// cores (the OS may migrate tasks within the full-speed set). Voltages
/// snap up to the 5 mV regulator grid.
///
/// # Panics
///
/// Panics if the mix does not contain exactly 8 workloads.
pub fn derive_ladder(chip: &ChipProfile, mix: &[WorkloadProfile]) -> Vec<LadderRung> {
    assert_eq!(
        mix.len(),
        CORE_COUNT,
        "the Fig. 5 mix runs one benchmark per core"
    );
    // Benchmarks sorted by droop score, heaviest first.
    let mut order: Vec<usize> = (0..mix.len()).collect();
    order.sort_by(|&a, &b| mix[b].droop_score().total_cmp(&mix[a].droop_score()));

    let mut ladder = Vec::new();
    for slow_pmds in 0..=4usize {
        let slow_cores = slow_pmds * 2;
        // Heaviest `slow_cores` benchmarks on the slowed cores (0..).
        let mut assignment = [0usize; CORE_COUNT];
        for (i, &bench) in order.iter().enumerate() {
            assignment[i] = bench; // core i gets the i-th heaviest
        }
        let mut rail = 0u32;
        for core_idx in 0..CORE_COUNT {
            let core = CoreId::new(core_idx as u8);
            let freq = if core_idx < slow_cores {
                Megahertz::XGENE2_HALF
            } else {
                Megahertz::XGENE2_NOMINAL
            };
            if core_idx < slow_cores {
                let w = &mix[assignment[core_idx]];
                let v = chip.vmin_with_active_cores(core, w, freq, CORE_COUNT);
                rail = rail.max(v.as_u32());
            } else {
                // Worst-case placement: any of the remaining benchmarks may
                // land on any full-speed core.
                for &bench in &order[slow_cores..] {
                    let v = chip.vmin_with_active_cores(core, &mix[bench], freq, CORE_COUNT);
                    rail = rail.max(v.as_u32());
                }
            }
        }
        let rail_voltage = Millivolts::new(rail.div_ceil(5) * 5);
        ladder.push(LadderRung {
            slow_pmds,
            rail_voltage,
            assignment,
        });
    }
    ladder
}

/// Converts a derived ladder into trade-off points through the dynamic
/// power model (relative performance and power vs. the nominal point).
pub fn ladder_tradeoff(ladder: &[LadderRung]) -> Vec<TradeoffPoint> {
    let scaling = DynamicScaling::xgene2();
    let mut steps = Vec::with_capacity(ladder.len() + 1);
    steps.push((FrequencyPlan::all_nominal(), Millivolts::XGENE2_NOMINAL));
    for rung in ladder {
        steps.push((
            FrequencyPlan::with_slow_pmds(rung.slow_pmds),
            rung.rail_voltage,
        ));
    }
    TradeoffCurve::new(scaling, steps).points()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload_sim::spec::fig5_mix;
    use xgene_sim::sigma::SigmaBin;

    fn mix() -> Vec<WorkloadProfile> {
        fig5_mix().iter().map(|b| b.profile()).collect()
    }

    #[test]
    fn ladder_tracks_published_fig5_within_10mv() {
        let chip = ChipProfile::corner(SigmaBin::Ttt);
        let ladder = derive_ladder(&chip, &mix());
        let paper = [915u32, 900, 885, 875, 850];
        assert_eq!(ladder.len(), paper.len());
        for (rung, expect) in ladder.iter().zip(paper) {
            let got = rung.rail_voltage.as_u32();
            assert!(
                (i64::from(got) - i64::from(expect)).abs() <= 10,
                "{} slow PMDs: model {got} mV vs paper {expect} mV",
                rung.slow_pmds
            );
        }
    }

    #[test]
    fn ladder_voltage_decreases_with_slowed_pmds() {
        let chip = ChipProfile::corner(SigmaBin::Ttt);
        let ladder = derive_ladder(&chip, &mix());
        for w in ladder.windows(2) {
            assert!(w[1].rail_voltage <= w[0].rail_voltage);
        }
    }

    #[test]
    fn tradeoff_reproduces_headline_savings_shape() {
        let chip = ChipProfile::corner(SigmaBin::Ttt);
        let points = ladder_tradeoff(&derive_ladder(&chip, &mix()));
        // Point 1 = no performance loss: savings close to the paper's 12.8%.
        let free = points[1].power_savings();
        assert!((free - 0.128).abs() < 0.03, "free savings {free}");
        // Point 3 = 25% performance loss: close to the paper's 38.8%.
        let quarter = points[3].power_savings();
        assert!((quarter - 0.388).abs() < 0.03, "quarter savings {quarter}");
        assert!((points[3].performance_loss() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn heaviest_benchmarks_scheduled_onto_weakest_cores() {
        let chip = ChipProfile::corner(SigmaBin::Ttt);
        let m = mix();
        let ladder = derive_ladder(&chip, &m);
        let rung = &ladder[2]; // 2 slow PMDs
                               // Core 0 hosts the heaviest benchmark of the mix.
        let heaviest = rung.assignment[0];
        for (i, w) in m.iter().enumerate() {
            assert!(
                w.droop_score() <= m[heaviest].droop_score() + 1e-12,
                "bench {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one benchmark per core")]
    fn rejects_wrong_mix_size() {
        let chip = ChipProfile::corner(SigmaBin::Ttt);
        let _ = derive_ladder(&chip, &mix()[..4]);
    }
}
