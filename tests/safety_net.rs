//! End-to-end acceptance tests for the production safety net.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Backward compatibility** — a campaign checkpoint written before
//!    the safety net existed (a committed JSON fixture with neither the
//!    `sentinel_every` nor the `safety` keys) still decodes and resumes
//!    to the exact result recorded alongside it.
//! 2. **Detection coverage** — with a seeded fault plan that turns every
//!    sub-Vmin run into a silent data corruption, a governor commanding a
//!    voltage below the canaries' Vmin suffers SDCs that the DMR
//!    sentinels detect with *zero* misses, the breaker trips within one
//!    sentinel period, and the guarded run still beats nominal power.

use armv8_guardbands::char_fw::resilience::CampaignCheckpoint;
use armv8_guardbands::char_fw::runner::ResilientRunner;
use armv8_guardbands::guardband_core::governor::{GovernorConfig, OnlineGovernor};
use armv8_guardbands::guardband_core::predictor::VminPredictor;
use armv8_guardbands::guardband_core::safety::{
    BreakerState, SafetyNet, SafetyNetConfig, SentinelVerdict,
};
use armv8_guardbands::power_model::units::{Megahertz, Millivolts};
use armv8_guardbands::workload_sim::canary::CanaryKernel;
use armv8_guardbands::workload_sim::spec::{by_name, SPEC_SUITE};
use armv8_guardbands::xgene_sim::fault::FaultPlan;
use armv8_guardbands::xgene_sim::server::XGene2Server;
use armv8_guardbands::xgene_sim::sigma::{ChipProfile, SigmaBin};
use armv8_guardbands::xgene_sim::topology::CoreId;

/// A checkpoint taken before the safety net was introduced must decode
/// (serde defaults fill the missing `sentinel_every` and `safety` fields)
/// and resume to the exact pre-safety-net result. The expected values
/// live next to the fixture in `pre_safety_net_expected.csv`.
#[test]
fn pre_safety_net_checkpoint_decodes_and_resumes() {
    let json = include_str!("fixtures/pre_safety_net_checkpoint.json");
    assert!(
        !json.contains("sentinel_every") && !json.contains("\"safety\""),
        "the fixture must predate the safety net to exercise the defaults"
    );
    let checkpoint = CampaignCheckpoint::from_json(json).expect("legacy checkpoint decodes");
    assert_eq!(checkpoint.config.sentinel_every, 0, "legacy default: off");
    assert_eq!(checkpoint.safety.breaker.trips(), 0);

    // The snapshot overwrites whatever server it is resumed onto.
    let mut server = XGene2Server::new(SigmaBin::Tff, 9999);
    let result = ResilientRunner::resume(&mut server, checkpoint).run_to_completion();

    let expected = include_str!("fixtures/pre_safety_net_expected.csv");
    let row = expected.lines().next().expect("one data row");
    let fields: Vec<&str> = row.trim().split(',').collect();
    assert_eq!(result.records.len(), fields[0].parse::<usize>().unwrap());
    assert_eq!(
        result.vmin("mcf", CoreId::new(6)),
        Some(Millivolts::new(fields[1].parse().unwrap()))
    );
    assert_eq!(result.watchdog_resets, fields[2].parse::<u64>().unwrap());
    // The resumed legacy campaign never scheduled a sentinel.
    assert_eq!(result.safety.sentinel.checks, 0);
    assert_eq!(result.safety.breaker_trips, 0);
}

/// The headline acceptance test: below-guardband operation with injected
/// silent corruptions is fully self-protecting.
///
/// Setup: a TSS-corner chip whose weakest core runs mcf under a governor
/// whose predictor was (realistically) trained on the *robust* core, so
/// the commanded voltage lands between mcf's true Vmin on the weak core
/// and the canary suite's Vmin with both PMD cores active. The workload
/// itself runs clean, but every sentinel canary executes below its own
/// Vmin — and the seeded fault plan turns every sub-Vmin run into an SDC.
#[test]
fn injected_sub_vmin_sdcs_are_fully_detected_and_trip_the_breaker() {
    const SEED: u64 = 2018;
    const SENTINEL_EVERY: u32 = 5; // the configurable trip bound, in epochs

    let mut server = XGene2Server::new(SigmaBin::Tss, SEED);
    server.install_fault_plan(FaultPlan::quiet(SEED).with_sub_vmin_sdc());
    let chip = ChipProfile::corner(SigmaBin::Tss);
    let weak = chip.weakest_core();
    let mcf = by_name("mcf").expect("mcf is in the suite").profile();

    // Predictor trained on the robust core: a deliberate, realistic
    // miscalibration for the weak core it will steer.
    let robust = chip.most_robust_core();
    let training: Vec<_> = SPEC_SUITE
        .iter()
        .map(|b| {
            let p = b.profile();
            (p.clone(), chip.vmin(robust, &p, Megahertz::XGENE2_NOMINAL))
        })
        .collect();
    let predictor = VminPredictor::train(&training).expect("well-posed regression");
    let mut gov = OnlineGovernor::new(Some(predictor), None, GovernorConfig::conservative());

    // Premise check — the scenario only demonstrates the net if the
    // commanded voltage is above the workload's Vmin (so the workload is
    // clean) but below the canaries' 2-active-core Vmin (so sentinels
    // genuinely execute sub-Vmin).
    let commanded = gov.choose(&mcf);
    let workload_vmin = chip.vmin(weak, &mcf, Megahertz::XGENE2_NOMINAL);
    let canary_vmin = CanaryKernel::sentinel_suite()
        .iter()
        .map(|k| {
            chip.vmin_with_active_cores(weak, k.profile(), Megahertz::XGENE2_NOMINAL, 2)
                .as_u32()
        })
        .min()
        .map(Millivolts::new)
        .unwrap();
    assert!(
        workload_vmin < commanded && commanded < canary_vmin,
        "premise broken: vmin(mcf)={workload_vmin} < commanded={commanded} < \
         vmin(canaries)={canary_vmin} must hold"
    );

    let config = SafetyNetConfig {
        sentinel_every_epochs: SENTINEL_EVERY,
        ..SafetyNetConfig::dsn18()
    };
    let mut net = SafetyNet::new(config);

    let mut first_trip_epoch = None;
    for epoch in 0..60u32 {
        let report = net.run_epoch(&mut server, &mut gov, weak, &mcf);
        if let Some(v) = report.sentinel {
            // Every sentinel check run below the canary Vmin must detect.
            if report.commanded < canary_vmin {
                assert!(
                    matches!(
                        v,
                        SentinelVerdict::VoteSplit | SentinelVerdict::ChecksumMismatch
                    ),
                    "sub-Vmin sentinel check at {} escaped detection: {v:?}",
                    report.commanded
                );
            }
        }
        if first_trip_epoch.is_none() && report.breaker_state == BreakerState::Tripped {
            first_trip_epoch = Some(epoch);
        }
    }

    // 100 % detection: SDCs were injected and none slipped past a
    // sentinel as a Clean verdict.
    let sentinel = net.sentinel_stats();
    assert!(sentinel.true_sdcs > 0, "the fault plan injected no SDCs");
    assert_eq!(sentinel.undetected_sdcs, 0, "an SDC escaped the sentinels");
    assert!(sentinel.detections() > 0);

    // The breaker tripped within the configured sentinel period.
    let tripped_at = first_trip_epoch.expect("the breaker never tripped");
    assert!(
        tripped_at < SENTINEL_EVERY,
        "trip after {tripped_at} epochs exceeds the {SENTINEL_EVERY}-epoch bound"
    );
    assert!(net.breaker_trips() >= 1);
    assert_eq!(net.stats().refresh_rollbacks, net.breaker_trips());
    assert_eq!(gov.stats().breaker_trips, net.breaker_trips());
    assert!(gov.stats().last_trip_reason.is_some());

    // The workload epochs themselves stayed clean: every injected SDC
    // landed in a canary, where the net could see it.
    assert_eq!(net.audit().workload_true_sdcs, 0);

    // And the guarded run still saves measurable power vs nominal.
    let savings = 1.0 - gov.stats().mean_power_ratio();
    assert!(
        savings > 0.0,
        "no power saved: mean ratio {}",
        gov.stats().mean_power_ratio()
    );
}

/// After the trip the net widens the margin above the canary Vmin, so a
/// long steady-state run re-earns scaled, relaxed-refresh operation.
#[test]
fn the_net_recovers_to_scaled_operation_after_the_trip() {
    const SEED: u64 = 2018;
    let mut server = XGene2Server::new(SigmaBin::Tss, SEED);
    server.install_fault_plan(FaultPlan::quiet(SEED).with_sub_vmin_sdc());
    let chip = ChipProfile::corner(SigmaBin::Tss);
    let weak = chip.weakest_core();
    let mcf = by_name("mcf").unwrap().profile();
    let robust = chip.most_robust_core();
    let training: Vec<_> = SPEC_SUITE
        .iter()
        .map(|b| {
            let p = b.profile();
            (p.clone(), chip.vmin(robust, &p, Megahertz::XGENE2_NOMINAL))
        })
        .collect();
    let mut gov = OnlineGovernor::new(
        Some(VminPredictor::train(&training).unwrap()),
        None,
        GovernorConfig {
            // Freeze relaxation so the post-trip margin is not slowly
            // narrowed back into the canaries' sub-Vmin region.
            clean_streak_to_relax: u32::MAX,
            ..GovernorConfig::conservative()
        },
    );
    let mut net = SafetyNet::new(SafetyNetConfig {
        sentinel_every_epochs: 5,
        ..SafetyNetConfig::dsn18()
    });

    let mut last = None;
    for _ in 0..80 {
        last = Some(net.run_epoch(&mut server, &mut gov, weak, &mcf));
    }
    let last = last.unwrap();
    assert_eq!(net.breaker_trips(), 1, "one trip, then stable recovery");
    assert_eq!(net.stats().refresh_restores, 1);
    assert_eq!(last.breaker_state, BreakerState::Healthy);
    assert!(last.commanded < Millivolts::XGENE2_NOMINAL, "scaled again");
    assert_eq!(net.sentinel_stats().undetected_sdcs, 0);
}
