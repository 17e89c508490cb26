//! Fleet orchestration integration tests: the safe-point store's merge
//! algebra under arbitrary shard orderings, the seeded 256-board
//! end-to-end determinism invariant from the roadmap, and the recorded
//! bytes of a seeded fleet report.

use armv8_guardbands::fleet::{
    run_fleet, BoardSafePoint, FleetCampaign, FleetConfig, FleetSpec, SafePointStore,
};
use armv8_guardbands::guardband_core::safepoint::SafePointPolicy;
use armv8_guardbands::power_model::units::{Milliseconds, Millivolts};
use armv8_guardbands::xgene_sim::sigma::SigmaBin;
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = BoardSafePoint> {
    (
        0u32..6,
        0u32..3,
        prop_oneof![
            Just(SigmaBin::Ttt),
            Just(SigmaBin::Tff),
            Just(SigmaBin::Tss)
        ],
        700u32..980,
        any::<bool>(),
    )
        .prop_map(|(board, attempt, bin, rail, characterized)| {
            let operating_point = characterized.then(|| {
                SafePointPolicy::dsn18()
                    .derive_from_measured(Millivolts::new(rail), Milliseconds::new(128.0))
            });
            BoardSafePoint {
                board,
                attempt,
                bin,
                core_vmin_mv: vec![Some(rail.saturating_sub(6)), None],
                rail_vmin_mv: Some(rail),
                operating_point,
                bank_safe_trefp_ms: vec![64.0 + f64::from(rail % 7); 8],
                savings_fraction: f64::from(rail % 10) / 50.0,
                savings_watts: f64::from(rail % 10) / 3.0,
            }
        })
}

fn store_of(records: &[BoardSafePoint]) -> SafePointStore {
    let mut store = SafePointStore::new();
    for record in records {
        store.insert(record.clone());
    }
    store
}

fn canonical(store: &SafePointStore) -> String {
    serde::json::to_string(store)
}

proptest! {
    /// Merging shards is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(arb_record(), 0..10),
        b in prop::collection::vec(arb_record(), 0..10),
        c in prop::collection::vec(arb_record(), 0..10),
    ) {
        let (sa, sb, sc) = (store_of(&a), store_of(&b), store_of(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(canonical(&left), canonical(&right));
    }

    /// Merging shards is commutative: a ∪ b == b ∪ a.
    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(arb_record(), 0..12),
        b in prop::collection::vec(arb_record(), 0..12),
    ) {
        let (sa, sb) = (store_of(&a), store_of(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(canonical(&ab), canonical(&ba));
    }

    /// Merging is idempotent, and insertion order within a shard never
    /// matters: any permutation of the records folds to the same store.
    #[test]
    fn merge_is_idempotent_and_order_free(
        records in prop::collection::vec(arb_record(), 0..14),
        rotate in 0usize..14,
    ) {
        let store = store_of(&records);
        let mut twice = store.clone();
        twice.merge(&store);
        prop_assert_eq!(canonical(&twice), canonical(&store));

        let mut rotated = records.clone();
        rotated.rotate_left(rotate.min(records.len()));
        prop_assert_eq!(canonical(&store_of(&rotated)), canonical(&store));
    }
}

/// The roadmap's acceptance invariant: a seeded 256-board fleet produces
/// byte-identical characterization output on 1 worker and on 8.
#[test]
fn fleet_256_boards_is_bit_identical_across_pool_sizes() {
    let spec = FleetSpec::new(256, 2018);
    let campaign = FleetCampaign::quick();
    let serial = run_fleet(&spec, &campaign, &FleetConfig::with_workers(1));
    let pooled = run_fleet(&spec, &campaign, &FleetConfig::with_workers(8));
    assert_eq!(
        serial.characterization_json(),
        pooled.characterization_json(),
        "8-worker fleet diverged from the serial run"
    );
    let stats = &serial.characterization.stats;
    assert_eq!(stats.boards, 256);
    assert_eq!(stats.characterized, 256);
    assert!(stats.total_savings_watts > 0.0);
    // The corner mix is represented in the characterized population.
    assert!(stats.corner_histogram.iter().all(|(_, n)| *n > 0));
    // The pool actually parallelized: the modeled makespan shrank.
    assert!(pooled.execution.sim_makespan_seconds < serial.execution.sim_makespan_seconds);
}

/// The fleet report's bytes, pinned: FNV-1a over the characterization
/// JSON followed by the observatory JSON of a seeded 10-board fleet on
/// 2 workers. No other test compares `run_fleet` with a recorded output,
/// so a different hash means the fleet measures or reports something
/// else.
#[test]
fn a_seeded_fleet_report_keeps_its_recorded_bytes() {
    let report = run_fleet(
        &FleetSpec::new(10, 2018),
        &FleetCampaign::quick(),
        &FleetConfig::with_workers(2),
    );
    let hash = rand::fnv1a(
        rand::fnv1a(rand::FNV_OFFSET, report.characterization_json().as_bytes()),
        report.observatory_json().as_bytes(),
    );
    assert_eq!(hash, 0x1bbb_3238_b38a_0715, "fleet report bytes changed");
}
