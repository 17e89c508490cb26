//! Workspace-wide property tests: invariants that must hold for *any*
//! input, checked with proptest.

use armv8_guardbands::power_model::scaling::DynamicScaling;
use armv8_guardbands::power_model::tradeoff::FrequencyPlan;
use armv8_guardbands::power_model::units::{Megahertz, Millivolts};
use armv8_guardbands::xgene_sim::fault::FaultModel;
use armv8_guardbands::xgene_sim::sigma::{ChipProfile, SigmaBin};
use armv8_guardbands::xgene_sim::topology::CoreId;
use armv8_guardbands::xgene_sim::workload::WorkloadProfile;
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
    (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0).prop_map(|(a, s, r, m)| {
        WorkloadProfile::builder("arb")
            .activity(a)
            .swing(s)
            .resonance_alignment(r)
            .memory_intensity(m)
            .build()
    })
}

fn arb_corner() -> impl Strategy<Value = SigmaBin> {
    prop_oneof![
        Just(SigmaBin::Ttt),
        Just(SigmaBin::Tff),
        Just(SigmaBin::Tss)
    ]
}

proptest! {
    /// Undervolting never increases power in the dynamic model.
    #[test]
    fn dynamic_power_monotone_in_voltage(v1 in 700u32..=980, v2 in 700u32..=980) {
        let s = DynamicScaling::xgene2();
        let f = Megahertz::XGENE2_NOMINAL;
        let (lo, hi) = (v1.min(v2), v1.max(v2));
        prop_assert!(
            s.factor(Millivolts::new(lo), f) <= s.factor(Millivolts::new(hi), f) + 1e-12
        );
    }

    /// Frequency-plan performance is the mean of the per-PMD ratios and
    /// stays in (0, 1].
    #[test]
    fn plan_performance_bounds(slow in 0usize..=4) {
        let plan = FrequencyPlan::with_slow_pmds(slow);
        let perf = plan.relative_performance();
        prop_assert!(perf > 0.0 && perf <= 1.0);
        prop_assert!((perf - (1.0 - slow as f64 * 0.125)).abs() < 1e-12);
    }

    /// Millivolt guardband fractions are always in [0, 1).
    #[test]
    fn guardband_fraction_bounds(nominal in 1u32..=2000, vmin in 0u32..=2000) {
        let f = Millivolts::new(nominal).guardband_fraction(Millivolts::new(vmin));
        prop_assert!((0.0..1.0).contains(&f));
    }

    /// Vmin is monotone in the droop score for every corner and core.
    #[test]
    fn vmin_monotone_in_droop_score(
        corner in arb_corner(),
        core in 0u8..8,
        a1 in 0.0f64..=1.0,
        a2 in 0.0f64..=1.0,
    ) {
        let chip = ChipProfile::corner(corner);
        let core = CoreId::new(core);
        let (lo, hi) = (a1.min(a2), a1.max(a2));
        let p_lo = WorkloadProfile::builder("lo").activity(lo).build();
        let p_hi = WorkloadProfile::builder("hi").activity(hi).build();
        prop_assert!(
            chip.vmin(core, &p_lo, Megahertz::XGENE2_NOMINAL)
                <= chip.vmin(core, &p_hi, Megahertz::XGENE2_NOMINAL)
        );
    }

    /// Vmin never increases when frequency drops.
    #[test]
    fn vmin_monotone_in_frequency(corner in arb_corner(), profile in arb_profile()) {
        let chip = ChipProfile::corner(corner);
        let core = chip.most_robust_core();
        let full = chip.vmin(core, &profile, Megahertz::XGENE2_NOMINAL);
        let half = chip.vmin(core, &profile, Megahertz::XGENE2_HALF);
        prop_assert!(half <= full);
    }

    /// A comfortable margin above Vmin is always classified Correct, for
    /// any workload on any corner.
    #[test]
    fn safe_margin_is_always_correct(
        corner in arb_corner(),
        profile in arb_profile(),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let chip = ChipProfile::corner(corner);
        let core = chip.weakest_core();
        let vmin = chip.vmin(core, &profile, Megahertz::XGENE2_NOMINAL);
        let v = Millivolts::new((vmin.as_u32() + 20).min(1050));
        let model = FaultModel::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let outcome = model.classify(&chip, core, &profile, Megahertz::XGENE2_NOMINAL, v, &mut rng);
        prop_assert_eq!(outcome, armv8_guardbands::xgene_sim::fault::RunOutcome::Correct);
    }

    /// The rail requirement of a set of assignments is at least the Vmin
    /// of each member alone.
    #[test]
    fn rail_vmin_dominates_members(profiles in prop::collection::vec(arb_profile(), 1..8)) {
        let chip = ChipProfile::corner(SigmaBin::Ttt);
        let assignments: Vec<_> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (CoreId::new(i as u8), p, Megahertz::XGENE2_NOMINAL))
            .collect();
        let rail = chip.rail_vmin(&assignments).unwrap();
        for (core, p, f) in &assignments {
            prop_assert!(rail >= chip.vmin(*core, p, *f));
        }
    }

    /// The governor's choice never exceeds nominal and never drops below
    /// the predicted Vmin plus its minimum margin.
    #[test]
    fn governor_choice_bounds(activity in 0.0f64..=1.0) {
        use armv8_guardbands::guardband_core::governor::{GovernorConfig, OnlineGovernor};
        let gov = OnlineGovernor::new(None, None, GovernorConfig::conservative());
        let w = WorkloadProfile::builder("w").activity(activity).build();
        let v = gov.choose(&w);
        prop_assert!(v <= Millivolts::XGENE2_NOMINAL);
        prop_assert!(v.as_u32().is_multiple_of(5), "regulator grid");
    }

    /// DPBench pattern words are pure functions of the address.
    #[test]
    fn patterns_are_pure(flat in 0u64..1_000_000, seed: u64) {
        use armv8_guardbands::dram_sim::geometry::WordAddr;
        use armv8_guardbands::dram_sim::patterns::DataPattern;
        let addr = WordAddr::unflatten(flat);
        for p in DataPattern::dpbench_suite(seed) {
            prop_assert_eq!(p.word(addr), p.word(addr));
        }
    }

    /// MCU access latency is always positive and bounded by the worst
    /// case (refresh stall + row conflict).
    #[test]
    fn mcu_latency_bounds(flats in prop::collection::vec(0u64..1_000_000_000, 1..200)) {
        use armv8_guardbands::dram_sim::geometry::WordAddr;
        use armv8_guardbands::dram_sim::timing::{DdrTimings, McuTimingModel};
        use armv8_guardbands::power_model::units::Milliseconds;
        let t = DdrTimings::ddr3_1600();
        let worst = u64::from(t.t_rfc + t.t_rp + t.t_rcd + t.t_cl + t.burst_clocks);
        let mut mcu = McuTimingModel::new(t, Milliseconds::new(64.0));
        for f in flats {
            let lat = mcu.access(WordAddr::unflatten(f % armv8_guardbands::dram_sim::geometry::WORD_COUNT));
            prop_assert!(lat > 0 && lat <= worst, "latency {lat}");
        }
    }

    /// The Vmin predictor exactly recovers any linear ground truth in its
    /// features when given enough distinct samples.
    #[test]
    fn predictor_recovers_linear_models(
        w_act in 10.0f64..80.0,
        w_mem in -20.0f64..20.0,
        intercept in 800.0f64..900.0,
    ) {
        use armv8_guardbands::guardband_core::predictor::VminPredictor;
        let mut data = Vec::new();
        for i in 0..12 {
            let a = i as f64 / 11.0;
            let m = ((i * 7) % 12) as f64 / 11.0;
            let p = WorkloadProfile::builder(format!("s{i}"))
                .activity(a)
                .memory_intensity(m)
                .ipc(0.5 + a)
                .build();
            let v = intercept + w_act * a + w_mem * m;
            data.push((p, Millivolts::new(v.round() as u32)));
        }
        let model = VminPredictor::train(&data).unwrap();
        prop_assert!(model.training_rmse_mv(&data) < 1.0);
    }
}

fn arb_outcome() -> impl Strategy<Value = armv8_guardbands::xgene_sim::fault::RunOutcome> {
    use armv8_guardbands::xgene_sim::fault::RunOutcome;
    prop_oneof![
        Just(RunOutcome::Correct),
        Just(RunOutcome::CorrectableError),
        Just(RunOutcome::UncorrectableError),
        Just(RunOutcome::SilentDataCorruption),
        Just(RunOutcome::Crash),
    ]
}

proptest! {
    /// The setup classification is dominated by its worst member: it never
    /// reports anything milder than any individual repetition, and the
    /// reported class always appears among the inputs.
    #[test]
    fn classify_setup_severity_dominance(
        outcomes in prop::collection::vec(arb_outcome(), 0..12),
    ) {
        use armv8_guardbands::char_fw::runner::classify_setup;
        use armv8_guardbands::xgene_sim::fault::RunOutcome;
        let severity = |x: RunOutcome| match x {
            RunOutcome::Correct => 0,
            RunOutcome::CorrectableError => 1,
            RunOutcome::UncorrectableError => 2,
            RunOutcome::SilentDataCorruption => 3,
            RunOutcome::Crash => 4,
        };
        let class = classify_setup(&outcomes);
        for &o in &outcomes {
            prop_assert!(severity(class) >= severity(o), "{class:?} milder than {o:?}");
        }
        if outcomes.is_empty() {
            prop_assert_eq!(class, RunOutcome::Correct, "vacuous setups are safe");
        } else {
            prop_assert!(outcomes.contains(&class), "{class:?} not among inputs");
        }
    }

    /// The classification is order-independent: any rotation (and the
    /// reversal) of the repetition list yields the same class.
    #[test]
    fn classify_setup_is_order_independent(
        outcomes in prop::collection::vec(arb_outcome(), 1..10),
        rotation in 0usize..10,
    ) {
        use armv8_guardbands::char_fw::runner::classify_setup;
        let baseline = classify_setup(&outcomes);
        let mut rotated = outcomes.clone();
        rotated.rotate_left(rotation % outcomes.len());
        prop_assert_eq!(classify_setup(&rotated), baseline);
        let mut reversed = outcomes.clone();
        reversed.reverse();
        prop_assert_eq!(classify_setup(&reversed), baseline);
    }
}

proptest! {
    /// Killing a campaign at *any* run boundary and resuming it from a
    /// JSON checkpoint reproduces the uninterrupted result bit-for-bit —
    /// RNG state, fault-plan state and quarantine bookkeeping included.
    #[test]
    fn checkpoint_resume_is_transparent_at_any_boundary(
        seed in 0u64..500,
        steps_before_pause in 0usize..48,
        step_mv in prop_oneof![Just(20u32), Just(60), Just(150)],
    ) {
        use armv8_guardbands::char_fw::resilience::{CampaignCheckpoint, ResilienceConfig};
        use armv8_guardbands::char_fw::runner::ResilientRunner;
        use armv8_guardbands::char_fw::setup::VminCampaign;
        use armv8_guardbands::workload_sim::spec::by_name;
        use armv8_guardbands::xgene_sim::fault::FaultPlan;
        use armv8_guardbands::xgene_sim::server::XGene2Server;

        let profile = by_name("milc").unwrap().profile();
        let make_campaign = || {
            let mut c = VminCampaign::dsn18(vec![profile.clone()], vec![CoreId::new(3)]);
            c.step_mv = step_mv;
            c.repetitions = 2;
            c
        };
        let make_server = || {
            let mut s = XGene2Server::new(SigmaBin::Ttt, seed);
            s.install_fault_plan(FaultPlan::hostile(seed.wrapping_add(1)));
            s
        };

        let mut ref_server = make_server();
        let reference = ResilientRunner::new(
            &mut ref_server,
            make_campaign(),
            ResilienceConfig::dsn18(),
        )
        .run_to_completion();

        let mut server = make_server();
        let mut runner =
            ResilientRunner::new(&mut server, make_campaign(), ResilienceConfig::dsn18());
        for _ in 0..steps_before_pause {
            if !runner.step() {
                break;
            }
        }
        let json = runner.checkpoint().to_json();
        drop(runner);

        // "Kill the process": resume onto a brand-new server object.
        let mut resumed_server = XGene2Server::new(SigmaBin::Tff, 0);
        let checkpoint = CampaignCheckpoint::from_json(&json).unwrap();
        let resumed =
            ResilientRunner::resume(&mut resumed_server, checkpoint).run_to_completion();

        prop_assert_eq!(reference, resumed);
    }
}
