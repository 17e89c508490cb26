//! Lifetime subsystem integration tests: the multi-year deployment
//! end-to-end invariants (byte-identical chronicles across pool sizes,
//! zero production SDCs under maintenance, warm-start walk savings) and
//! the property layer underneath them (aging drift monotonicity and
//! determinism, the versioned safe-point store's semilattice laws).

use armv8_guardbands::guardband_core::epoch::VersionedSafePointStore;
use armv8_guardbands::guardband_core::safepoint::{BoardSafePoint, SafePointPolicy};
use armv8_guardbands::lifetime::{run_deployment, DeploymentSpec};
use armv8_guardbands::power_model::units::{Celsius, Milliseconds, Millivolts};
use armv8_guardbands::xgene_sim::aging::{AgingModel, StressProfile};
use armv8_guardbands::xgene_sim::sigma::SigmaBin;
use armv8_guardbands::xgene_sim::topology::CoreId;
use proptest::prelude::*;

/// The tentpole invariant, end to end: a 12-board fleet aged through
/// four years of maintenance produces a byte-identical chronicle on 1
/// worker and on 8, never spends a board-month below its aged Vmin, and
/// pays for re-characterization at warm-start prices — while the
/// no-maintenance ablation of the very same fleet accumulates SDC
/// exposure.
#[test]
fn four_year_deployment_is_identical_safe_and_warm_started() {
    let spec = DeploymentSpec::quick(12, 2018, 48);
    let serial = run_deployment(&spec, 1);
    let pooled = run_deployment(&spec, 8);
    assert_eq!(
        serial.chronicle_json(),
        pooled.chronicle_json(),
        "8-worker lifetime diverged from the serial run"
    );

    let c = &serial.chronicle;
    assert_eq!(c.production_sdc_board_months, 0, "maintenance failed");
    assert!(
        c.recharacterizations > 0,
        "48 months must force maintenance"
    );
    assert!(
        c.epochs.epoch_count() > 1,
        "re-characterization makes epochs"
    );
    // Satellite: warm-started re-walks cost at most half the cold walks.
    assert!(
        c.warm_walked_steps * 2 <= c.cold_equivalent_steps,
        "warm {} vs cold-equivalent {}",
        c.warm_walked_steps,
        c.cold_equivalent_steps
    );
    // Savings survive every epoch (smaller than at deployment — aging
    // reclaims some guardband — but still real).
    assert!(c.final_savings_watts() > 0.0);
    assert!(c.initial_savings_watts() >= c.final_savings_watts());
    // Aging only ever raises a board's deployed voltage: margin decay
    // is non-negative wherever two epochs exist.
    for board in 0..c.boards {
        if let Some(decay) = c.epochs.margin_decay_mv(board) {
            assert!(decay >= 0, "board {board} margin decay {decay}");
        }
    }

    let ablation = run_deployment(&spec.clone().without_maintenance(), 8);
    assert!(
        ablation.chronicle.production_sdc_board_months > 0,
        "the ablation must accumulate SDC exposure"
    );
    assert_eq!(ablation.chronicle.recharacterizations, 0);
}

/// Satellite: the chronicle's merged telemetry carries the lifetime
/// loop's own counters alongside the campaign counters from every job.
#[test]
fn chronicle_telemetry_spans_scheduler_and_campaigns() {
    let spec = DeploymentSpec::quick(6, 2018, 10);
    let report = run_deployment(&spec, 2);
    let counters = &report.chronicle.campaign_counters;
    let value = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(
        value("lifetime_recharacterizations_total") > 0,
        "counters seen: {counters:?}"
    );
    assert_eq!(
        value("lifetime_recharacterizations_total"),
        value("maintenance_scheduled_total"),
        "every scheduled board must be re-characterized"
    );
    // The warm-start path instrumented its narrowed walks.
    assert!(value("warmstart_points_total") > 0);
    // And the per-trigger counters partition the scheduled total.
    assert_eq!(
        value("maintenance_scheduled_total"),
        value("maintenance_trigger_margin_total")
            + value("maintenance_trigger_ce_total")
            + value("maintenance_trigger_age_total"),
    );
}

fn arb_stress() -> impl Strategy<Value = StressProfile> {
    (850u32..1000, 25.0f64..95.0, 0.0f64..1.0).prop_map(|(mv, temp, activity)| StressProfile {
        voltage: Millivolts::new(mv),
        temperature: Celsius::new(temp),
        activity,
    })
}

proptest! {
    /// Vmin drift never decreases with time, and is a pure function of
    /// the sampling seed.
    #[test]
    fn aging_drift_is_monotone_in_time_and_deterministic(
        seed in any::<u64>(),
        stress in arb_stress(),
        a in 0u32..120,
        b in 0u32..120,
    ) {
        let model = AgingModel::sampled(seed);
        let again = AgingModel::sampled(seed);
        let (early, late) = (a.min(b), a.max(b));
        for core in CoreId::all() {
            let shift_early = model.vmin_shift_mv(core, &stress, early);
            let shift_late = model.vmin_shift_mv(core, &stress, late);
            prop_assert!(shift_early >= 0.0);
            prop_assert!(shift_late >= shift_early - 1e-12);
            prop_assert_eq!(
                shift_late,
                again.vmin_shift_mv(core, &stress, late),
                "same seed must give the same drift"
            );
        }
    }

    /// More stress never means less drift: raising temperature,
    /// voltage or activity (each alone) can only accelerate aging.
    #[test]
    fn aging_drift_is_monotone_in_stress(
        seed in any::<u64>(),
        stress in arb_stress(),
        months in 1u32..120,
        dv in 0u32..80,
        dt in 0.0f64..30.0,
        da in 0.0f64..0.5,
    ) {
        let model = AgingModel::sampled(seed);
        let core = model.most_susceptible_core();
        let base = model.vmin_shift_mv(core, &stress, months);
        let hotter = StressProfile {
            temperature: Celsius::new(stress.temperature.as_f64() + dt),
            ..stress
        };
        prop_assert!(model.vmin_shift_mv(core, &hotter, months) >= base - 1e-12);
        let higher = StressProfile {
            voltage: Millivolts::new(stress.voltage.as_u32() + dv),
            ..stress
        };
        prop_assert!(model.vmin_shift_mv(core, &higher, months) >= base - 1e-12);
        let busier = StressProfile {
            activity: (stress.activity + da).min(1.0),
            ..stress
        };
        prop_assert!(model.vmin_shift_mv(core, &busier, months) >= base - 1e-12);
    }
}

fn arb_epoch_record() -> impl Strategy<Value = (u32, BoardSafePoint)> {
    (
        0u32..4,
        0u32..6,
        prop_oneof![
            Just(SigmaBin::Ttt),
            Just(SigmaBin::Tff),
            Just(SigmaBin::Tss)
        ],
        700u32..980,
        any::<bool>(),
    )
        .prop_map(|(epoch, board, bin, rail, characterized)| {
            let operating_point = characterized.then(|| {
                SafePointPolicy::dsn18()
                    .derive_from_measured(Millivolts::new(rail), Milliseconds::new(128.0))
            });
            let record = BoardSafePoint {
                board,
                attempt: epoch,
                bin,
                core_vmin_mv: vec![Some(rail.saturating_sub(6)), None],
                rail_vmin_mv: Some(rail),
                operating_point,
                bank_safe_trefp_ms: vec![64.0 + f64::from(rail % 7); 8],
                savings_fraction: f64::from(rail % 10) / 50.0,
                savings_watts: f64::from(rail % 10) / 3.0,
            };
            (epoch, record)
        })
}

fn versioned_of(records: &[(u32, BoardSafePoint)]) -> VersionedSafePointStore {
    let mut store = VersionedSafePointStore::new();
    for (epoch, record) in records {
        store.insert(*epoch, record.clone());
    }
    store
}

fn canonical(store: &VersionedSafePointStore) -> String {
    serde::json::to_string(store)
}

proptest! {
    /// The pointwise merge of per-epoch semilattices is a semilattice:
    /// associative, commutative, idempotent — so epoch-sharded workers
    /// can fold their stores in any order.
    #[test]
    fn versioned_store_merge_is_a_semilattice(
        a in prop::collection::vec(arb_epoch_record(), 0..10),
        b in prop::collection::vec(arb_epoch_record(), 0..10),
        c in prop::collection::vec(arb_epoch_record(), 0..10),
    ) {
        let (sa, sb, sc) = (versioned_of(&a), versioned_of(&b), versioned_of(&c));
        // Associative.
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(canonical(&left), canonical(&right));
        // Commutative.
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(canonical(&ab), canonical(&ba));
        // Idempotent.
        let mut twice = ab.clone();
        twice.merge(&sb);
        prop_assert_eq!(canonical(&twice), canonical(&ab));
    }

    /// Insertion order never matters, and the flattened deployment view
    /// equals the flat store built from the same records (with
    /// `attempt = epoch`, flat precedence and epoch order agree).
    #[test]
    fn versioned_store_is_insertion_order_free(
        records in prop::collection::vec(arb_epoch_record(), 0..14),
        rotate in 0usize..14,
    ) {
        let store = versioned_of(&records);
        let mut rotated = records.clone();
        rotated.rotate_left(rotate.min(records.len()));
        prop_assert_eq!(canonical(&versioned_of(&rotated)), canonical(&store));

        let latest = store.latest();
        for (_, record) in &records {
            let kept = latest.get(record.board).expect("board inserted");
            let highest = records
                .iter()
                .filter(|(_, r)| r.board == record.board)
                .map(|(e, _)| *e)
                .max()
                .expect("non-empty");
            prop_assert_eq!(kept.attempt, highest);
        }
    }
}
