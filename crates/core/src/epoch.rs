//! Epoch-versioned safe points: the time axis of the fleet database.
//!
//! A [`SafePointStore`] answers "what is each board's safe point?" —
//! one snapshot. The lifetime subsystem needs the *history*: silicon
//! ages, DRAM retention drifts, and each re-characterization campaign
//! produces a fresh, slightly-less-aggressive safe point. A
//! [`VersionedSafePointStore`] keeps one store per **epoch** (the
//! simulated month the campaign ran), so the fleet can
//!
//! * deploy from the latest epoch while keeping every prior epoch as
//!   the warm-start prior for the next re-characterization;
//! * quantify margin decay per board across epochs — the headline
//!   "how much guardband does aging reclaim per year" curve;
//! * merge shards from concurrent workers with the same algebra the
//!   flat store has: the pointwise (per-epoch) merge of join-
//!   semilattices is itself a join-semilattice, so associativity,
//!   commutativity and idempotence carry over and N-worker runs stay
//!   byte-identical (property-tested in `tests/lifetime.rs`).

use crate::safepoint::{BoardSafePoint, SafePointStore};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The epoch-indexed safe-point database.
///
/// # Examples
///
/// ```
/// use guardband_core::epoch::VersionedSafePointStore;
/// use guardband_core::safepoint::BoardSafePoint;
/// use xgene_sim::sigma::SigmaBin;
///
/// let record = |attempt| BoardSafePoint {
///     board: 7,
///     attempt,
///     bin: SigmaBin::Ttt,
///     core_vmin_mv: vec![Some(890 + attempt); 8],
///     rail_vmin_mv: Some(905 + attempt),
///     operating_point: None,
///     bank_safe_trefp_ms: vec![64.0; 8],
///     savings_fraction: 0.0,
///     savings_watts: 0.0,
/// };
/// let mut store = VersionedSafePointStore::new();
/// store.insert(0, record(0));
/// store.insert(12, record(12)); // re-characterized at month 12
/// assert_eq!(store.latest_for(7).unwrap().0, 12);
/// assert_eq!(store.history(7).len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VersionedSafePointStore {
    /// Epoch (simulated month of the campaign) → that campaign's store.
    epochs: BTreeMap<u32, SafePointStore>,
}

impl VersionedSafePointStore {
    /// An empty history.
    pub fn new() -> Self {
        VersionedSafePointStore::default()
    }

    /// Inserts one record under `epoch`, with the flat store's
    /// highest-precedence-wins semantics within the epoch.
    pub fn insert(&mut self, epoch: u32, record: BoardSafePoint) {
        self.epochs.entry(epoch).or_default().insert(record);
    }

    /// Pointwise merge: each of `other`'s epoch stores joins into the
    /// matching epoch here. Associative, commutative and idempotent —
    /// see the module docs.
    pub fn merge(&mut self, other: &VersionedSafePointStore) {
        for (epoch, store) in &other.epochs {
            self.epochs.entry(*epoch).or_default().merge(store);
        }
    }

    /// Number of epochs with any record.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// Whether the history holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// The most recent epoch, if any.
    pub fn latest_epoch(&self) -> Option<u32> {
        self.epochs.keys().next_back().copied()
    }

    /// Epochs in ascending order with their stores.
    pub fn epochs(&self) -> impl Iterator<Item = (u32, &SafePointStore)> {
        self.epochs.iter().map(|(e, s)| (*e, s))
    }

    /// The store of one epoch.
    pub fn epoch(&self, epoch: u32) -> Option<&SafePointStore> {
        self.epochs.get(&epoch)
    }

    /// A board's most recent record: the highest epoch that knows the
    /// board, with that epoch.
    ///
    /// This is the O(epochs) scanning path — correct for one-off
    /// queries, wrong for a serving hot loop. A lookup service should
    /// build a [`LatestIndex`] once per store version instead and answer
    /// every request from it (the control plane does exactly that); the
    /// two paths are equivalence-property-tested against each other.
    pub fn latest_for(&self, board: u32) -> Option<(u32, &BoardSafePoint)> {
        self.epochs
            .iter()
            .rev()
            .find_map(|(epoch, store)| store.get(board).map(|r| (*epoch, r)))
    }

    /// Builds the read-optimized [`LatestIndex`] of this store: one
    /// fold per epoch, O(log boards) lookups afterwards.
    pub fn latest_index(&self) -> LatestIndex {
        LatestIndex::build(self)
    }

    /// A board's full trajectory, in epoch order.
    pub fn history(&self, board: u32) -> Vec<(u32, &BoardSafePoint)> {
        self.epochs
            .iter()
            .filter_map(|(epoch, store)| store.get(board).map(|r| (*epoch, r)))
            .collect()
    }

    /// How much exploited PMD margin a board lost between its first and
    /// latest epochs, in mV: positive means the deployed voltage had to
    /// rise (aging reclaimed guardband), zero means the safe point held.
    /// `None` until the board has two epochs with derived points.
    ///
    /// Folds the board's history through the same [`MarginTrend`]
    /// accumulator [`LatestIndex::fold`] uses, so the scanning and
    /// indexed answers can never drift apart.
    pub fn margin_decay_mv(&self, board: u32) -> Option<i64> {
        let mut trend = MarginTrend::default();
        for (epoch, record) in self.history(board) {
            trend.push(epoch, record);
        }
        trend.decay_mv()
    }

    /// The fleet's current deployment view: every board's record from
    /// the most recent epoch that characterized it, flattened into one
    /// store. Records carry `attempt = epoch` in the lifetime flow, so
    /// the flat store's precedence order and the epoch order agree.
    pub fn latest(&self) -> SafePointStore {
        let mut flat = SafePointStore::new();
        for store in self.epochs.values() {
            flat.merge(store);
        }
        flat
    }
}

/// The margin-trajectory accumulator shared by the scanning
/// [`VersionedSafePointStore::margin_decay_mv`] and the indexed
/// [`LatestIndex`]: push a board's records, read the decay off the
/// earliest and latest derived margins. Keeping one definition is what
/// makes the "index equals scan" property structural rather than
/// coincidental.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarginTrend {
    epochs: usize,
    /// `(epoch, margin)` of the earliest epoch with a derived margin.
    first_margin_mv: Option<(u32, i64)>,
    /// `(epoch, margin)` of the latest epoch with a derived margin.
    last_margin_mv: Option<(u32, i64)>,
}

impl MarginTrend {
    /// Folds one epoch's record. Epochs may arrive in any order, each
    /// once.
    pub fn push(&mut self, epoch: u32, record: &BoardSafePoint) {
        self.epochs += 1;
        if let Some(margin) = record.margin_mv() {
            if self.first_margin_mv.is_none_or(|(first, _)| epoch < first) {
                self.first_margin_mv = Some((epoch, margin));
            }
            if self.last_margin_mv.is_none_or(|(last, _)| epoch > last) {
                self.last_margin_mv = Some((epoch, margin));
            }
        }
    }

    /// Epochs folded so far (with or without a derived margin).
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// First-minus-latest exploited margin, mV — positive means aging
    /// reclaimed guardband. `None` until two epochs exist and at least
    /// one record carries a derived margin.
    pub fn decay_mv(&self) -> Option<i64> {
        if self.epochs < 2 {
            return None;
        }
        Some(self.first_margin_mv?.1 - self.last_margin_mv?.1)
    }
}

/// One board's entry in a [`LatestIndex`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexEntry {
    /// The highest epoch that characterized the board.
    pub epoch: u32,
    /// That epoch's record — the one a lookup service deploys.
    pub point: BoardSafePoint,
    /// The board's margin trajectory across every known epoch.
    pub trend: MarginTrend,
}

/// The read-optimized projection of a [`VersionedSafePointStore`]:
/// board → (latest epoch, latest record, margin trend), grown one epoch
/// at a time by [`LatestIndex::fold`].
///
/// [`VersionedSafePointStore::latest_for`] walks the epoch map backwards
/// on every call — O(epochs) per lookup, which a control plane serving
/// millions of lookups cannot afford. This index folds each epoch in
/// once, so it never has to keep the epochs themselves; lookups are a
/// single map probe. The equivalence of the two paths is property-tested
/// (`latest_for` and `margin_decay_mv` against
/// [`LatestIndex::latest_for`] and [`LatestIndex::margin_decay_mv`] over
/// arbitrary stores).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatestIndex {
    entries: BTreeMap<u32, IndexEntry>,
}

impl LatestIndex {
    /// Builds the index of a whole store by folding its epochs in
    /// ascending order.
    pub fn build(store: &VersionedSafePointStore) -> Self {
        let mut index = LatestIndex::default();
        for (epoch, epoch_store) in store.epochs() {
            index.fold(epoch, epoch_store);
        }
        index
    }

    /// Folds one epoch's store into the index: a board's served point
    /// moves to `epoch` only if `epoch` is newer than the one it holds,
    /// and every record feeds the board's margin trend. Epochs may
    /// arrive in any order, each once.
    pub fn fold(&mut self, epoch: u32, store: &SafePointStore) {
        for record in store.records() {
            let entry = self
                .entries
                .entry(record.board)
                .or_insert_with(|| IndexEntry {
                    epoch,
                    point: record.clone(),
                    trend: MarginTrend::default(),
                });
            if epoch > entry.epoch {
                entry.epoch = epoch;
                entry.point = record.clone();
            }
            entry.trend.push(epoch, record);
        }
    }

    /// A board's latest record with its epoch — the indexed equivalent
    /// of [`VersionedSafePointStore::latest_for`].
    pub fn latest_for(&self, board: u32) -> Option<(u32, &BoardSafePoint)> {
        self.entries.get(&board).map(|e| (e.epoch, &e.point))
    }

    /// A board's full index entry, if known.
    pub fn entry(&self, board: u32) -> Option<&IndexEntry> {
        self.entries.get(&board)
    }

    /// The indexed equivalent of
    /// [`VersionedSafePointStore::margin_decay_mv`].
    pub fn margin_decay_mv(&self, board: u32) -> Option<i64> {
        self.entries.get(&board).and_then(|e| e.trend.decay_mv())
    }

    /// Boards known to the index, ascending.
    pub fn boards(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.keys().copied()
    }

    /// Number of boards with at least one record.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index knows no board at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safepoint::SafePointPolicy;
    use power_model::units::Millivolts;
    use xgene_sim::sigma::SigmaBin;

    fn record(board: u32, epoch: u32, rail: u32) -> BoardSafePoint {
        let policy = SafePointPolicy::dsn18();
        BoardSafePoint {
            board,
            attempt: epoch,
            bin: SigmaBin::Ttt,
            core_vmin_mv: vec![Some(rail - 5); 8],
            rail_vmin_mv: Some(rail),
            operating_point: Some(policy.derive_from_measured(Millivolts::new(rail), policy.trefp)),
            bank_safe_trefp_ms: vec![2283.0; 8],
            savings_fraction: 0.2,
            savings_watts: 6.0,
        }
    }

    #[test]
    fn latest_for_walks_epochs_backwards() {
        let mut store = VersionedSafePointStore::new();
        store.insert(0, record(1, 0, 905));
        store.insert(0, record(2, 0, 910));
        store.insert(14, record(1, 14, 915));
        let (epoch, r) = store.latest_for(1).unwrap();
        assert_eq!((epoch, r.rail_vmin_mv), (14, Some(915)));
        let (epoch, r) = store.latest_for(2).unwrap();
        assert_eq!((epoch, r.rail_vmin_mv), (0, Some(910)));
        assert_eq!(store.latest_for(3), None);
        assert_eq!(store.latest_epoch(), Some(14));
        assert_eq!(store.epoch_count(), 2);
    }

    #[test]
    fn latest_for_on_an_empty_store_is_none() {
        let store = VersionedSafePointStore::new();
        assert_eq!(store.latest_for(0), None);
        assert_eq!(store.latest_epoch(), None);
        assert!(store.is_empty());
        assert!(store.history(0).is_empty());
    }

    #[test]
    fn latest_for_skips_missing_intermediate_epochs() {
        // Board 5 was characterized at months 0 and 6 but skipped by the
        // month-12 and month-18 maintenance rounds (other boards were
        // not): the stale board serves from its last good epoch.
        let mut store = VersionedSafePointStore::new();
        store.insert(0, record(5, 0, 905));
        store.insert(6, record(5, 6, 910));
        store.insert(12, record(9, 12, 920));
        store.insert(18, record(9, 18, 925));
        let (epoch, r) = store.latest_for(5).unwrap();
        assert_eq!((epoch, r.rail_vmin_mv), (6, Some(910)));
        assert_eq!(store.latest_for(9).unwrap().0, 18);
        // The fallback is also what the flattened deployment view serves.
        assert_eq!(store.latest().get(5).unwrap().attempt, 6);
        // History shows exactly the epochs that knew the board, in order.
        let history: Vec<u32> = store.history(5).iter().map(|(e, _)| *e).collect();
        assert_eq!(history, vec![0, 6]);
    }

    #[test]
    fn a_single_epoch_store_serves_that_epoch_for_everyone() {
        let mut store = VersionedSafePointStore::new();
        store.insert(3, record(0, 3, 905));
        store.insert(3, record(1, 3, 910));
        for board in 0..2 {
            let (epoch, _) = store.latest_for(board).unwrap();
            assert_eq!(epoch, 3);
        }
        assert_eq!(store.latest_for(2), None, "unknown board stays unknown");
        assert_eq!(store.epoch_count(), 1);
        assert_eq!(
            store.margin_decay_mv(0),
            None,
            "a single epoch is never a decay trend"
        );
    }

    #[test]
    fn margin_decay_tracks_the_rising_rail() {
        let mut store = VersionedSafePointStore::new();
        store.insert(0, record(4, 0, 905)); // deploys 930 → margin 50
        assert_eq!(store.margin_decay_mv(4), None, "one epoch is no trend");
        store.insert(18, record(4, 18, 925)); // deploys 950 → margin 30
        assert_eq!(store.margin_decay_mv(4), Some(20));
    }

    #[test]
    fn pointwise_merge_keeps_the_semilattice_laws() {
        let mut a = VersionedSafePointStore::new();
        a.insert(0, record(0, 0, 905));
        a.insert(12, record(0, 12, 915));
        let mut b = VersionedSafePointStore::new();
        b.insert(0, record(1, 0, 900));
        b.insert(12, record(0, 12, 915));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutative");
        let mut again = ab.clone();
        again.merge(&b);
        assert_eq!(again, ab, "idempotent");
        assert_eq!(ab.epoch(0).unwrap().len(), 2);
    }

    #[test]
    fn latest_flattens_to_the_deployment_view() {
        let mut store = VersionedSafePointStore::new();
        store.insert(0, record(0, 0, 905));
        store.insert(0, record(1, 0, 910));
        store.insert(20, record(0, 20, 920));
        let flat = store.latest();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.get(0).unwrap().attempt, 20);
        assert_eq!(flat.get(1).unwrap().attempt, 0);
    }

    #[test]
    fn roundtrips_through_json() {
        let mut store = VersionedSafePointStore::new();
        store.insert(0, record(3, 0, 905));
        store.insert(9, record(3, 9, 910));
        let text = serde::json::to_string(&store);
        let back: VersionedSafePointStore = serde::json::from_str(&text).unwrap();
        assert_eq!(back, store);
    }

    #[test]
    fn the_index_answers_exactly_what_the_scan_answers() {
        let mut store = VersionedSafePointStore::new();
        store.insert(0, record(5, 0, 905));
        store.insert(6, record(5, 6, 910));
        store.insert(12, record(9, 12, 920));
        let index = store.latest_index();
        assert_eq!(index.len(), 2);
        for board in [5, 9, 77] {
            assert_eq!(index.latest_for(board), store.latest_for(board));
            assert_eq!(index.margin_decay_mv(board), store.margin_decay_mv(board));
        }
        assert_eq!(index.entry(5).unwrap().trend.epochs(), 2);
        assert_eq!(index.boards().collect::<Vec<_>>(), vec![5, 9]);
    }

    #[test]
    fn an_empty_store_builds_an_empty_index() {
        let index = VersionedSafePointStore::new().latest_index();
        assert!(index.is_empty());
        assert_eq!(index.latest_for(0), None);
        assert_eq!(index.margin_decay_mv(0), None);
    }

    #[test]
    fn margin_trend_needs_two_epochs_and_a_derived_margin() {
        let mut trend = MarginTrend::default();
        assert_eq!(trend.decay_mv(), None);
        trend.push(0, &record(0, 0, 905));
        assert_eq!(trend.decay_mv(), None, "one epoch is no trend");
        trend.push(12, &record(0, 12, 925));
        // 905 deploys 930, 925 deploys 950: 20 mV of guardband reclaimed.
        assert_eq!(trend.decay_mv(), Some(20));

        // Records with no derived operating point count as epochs but
        // contribute no margin.
        let mut bare = record(1, 0, 905);
        bare.operating_point = None;
        let mut trend = MarginTrend::default();
        trend.push(0, &bare);
        trend.push(12, &bare);
        assert_eq!(trend.epochs(), 2);
        assert_eq!(trend.decay_mv(), None);
    }

    #[test]
    fn margin_trend_takes_epochs_in_any_order() {
        // Month 12 arrives before month 0 (a resumed campaign finishing
        // after a later one), then month 6 lands in between: the decay
        // still runs from the earliest to the latest derived margin.
        let mut trend = MarginTrend::default();
        trend.push(12, &record(0, 12, 925)); // deploys 950 → margin 30
        trend.push(0, &record(0, 0, 905)); // deploys 930 → margin 50
        assert_eq!(trend.decay_mv(), Some(20));
        trend.push(6, &record(0, 6, 915));
        assert_eq!(trend.epochs(), 3);
        assert_eq!(
            trend.decay_mv(),
            Some(20),
            "a middle epoch moves neither end"
        );

        let mut in_order = MarginTrend::default();
        for (epoch, rail) in [(0, 905), (6, 915), (12, 925)] {
            in_order.push(epoch, &record(0, epoch, rail));
        }
        assert_eq!(in_order, trend);
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// A record that may or may not have a derived operating point.
        fn arb_record() -> impl Strategy<Value = (u32, u32, bool)> {
            (0u32..12, 0u32..8, proptest::prelude::any::<bool>())
        }

        proptest! {
            /// For arbitrary stores, the one-pass index and the
            /// O(epochs) scan agree on every board — latest record,
            /// latest epoch and margin decay alike.
            #[test]
            fn index_equals_scan(records in proptest::collection::vec(arb_record(), 0..40)) {
                let mut store = VersionedSafePointStore::new();
                for (board, epoch, derived) in records {
                    let mut r = record(board, epoch, 900 + 5 * epoch);
                    if !derived {
                        r.operating_point = None;
                    }
                    store.insert(epoch, r);
                }
                let index = store.latest_index();
                for board in 0..13 {
                    prop_assert_eq!(index.latest_for(board), store.latest_for(board));
                    prop_assert_eq!(index.margin_decay_mv(board), store.margin_decay_mv(board));
                }
                prop_assert_eq!(index.len(), store.latest().len());
            }
        }
    }
}
