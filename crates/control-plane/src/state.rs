//! Shared serving state: an Arc-swapped safe-point snapshot, the fleet
//! health summary and the campaign-derived metrics base.
//!
//! # Snapshot-swap concurrency model
//!
//! Lookups must never contend with campaign completions. The control
//! plane *serves* from an immutable [`SafePointSnapshot`] — a
//! [`LatestIndex`] plus a monotonically increasing version number —
//! held as an `Arc` behind an `RwLock`, and keeps no other copy of the
//! safe points. A lookup takes the read lock just long enough to clone
//! the `Arc` (no allocation, no contention with other readers) and then
//! works entirely on immutable data. An epoch roll, under a writer-side
//! roll lock, clones the served index (O(boards)), folds the new epoch
//! into the clone and swaps the `Arc` in one short write-lock critical
//! section. Consequences:
//!
//! * lookups never take the write lock and never observe a
//!   half-built index;
//! * after [`ControlState::roll_epoch`] returns, every subsequent
//!   lookup sees the new version — the zero-stale-reads property
//!   `BENCH_serving.json` gates on;
//! * a lookup that raced the swap serves the *previous* complete
//!   version, which is exactly the consistency an epoch-versioned
//!   database wants;
//! * a roll costs O(boards) however many epochs came before it;
//! * a thread that panics while holding one of these locks stops
//!   nothing: every published value is read and replaced through a
//!   poisoned lock, since no critical section can leave it half-written.

use guardband_core::epoch::LatestIndex;
use guardband_core::safepoint::SafePointStore;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use telemetry::metrics::MetricsSnapshot;

/// One immutable serving view of the safe-point database.
#[derive(Debug, Default)]
pub struct SafePointSnapshot {
    /// Publish counter: bumps on every swap, never reused.
    pub version: u64,
    /// Highest epoch in the snapshot, if any.
    pub latest_epoch: Option<u32>,
    /// The read-optimized index of every epoch rolled so far.
    pub index: LatestIndex,
}

/// What `GET /v1/safe-point/{board}` answers: the deployable point for
/// one board *right now*, stamped with the snapshot version and epoch
/// so clients (and the stale-read audit) can detect rollovers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SafePointView {
    /// The board asked about.
    pub board: u32,
    /// Epoch of the served record.
    pub epoch: u32,
    /// Snapshot version that answered (monotonic across rollovers).
    pub snapshot_version: u64,
    /// Measured rail Vmin, mV, if characterization succeeded.
    pub rail_vmin_mv: Option<u32>,
    /// Deployable PMD voltage, mV (`None`: run at nominal).
    pub pmd_mv: Option<u32>,
    /// Deployable SoC voltage, mV.
    pub soc_mv: Option<u32>,
    /// Deployable DRAM refresh period, ms.
    pub trefp_ms: Option<f64>,
    /// Exploited PMD margin below nominal, mV.
    pub margin_mv: Option<i64>,
    /// Margin lost to aging across the board's epochs, mV.
    pub margin_decay_mv: Option<i64>,
    /// Projected server power saving at this point, W.
    pub savings_watts: f64,
}

impl SafePointSnapshot {
    /// Builds the view served for `board`, or `None` when the board is
    /// unknown to this snapshot.
    pub fn lookup(&self, board: u32) -> Option<SafePointView> {
        let entry = self.index.entry(board)?;
        let point = &entry.point;
        let op = point.operating_point.as_ref();
        Some(SafePointView {
            board,
            epoch: entry.epoch,
            snapshot_version: self.version,
            rail_vmin_mv: point.rail_vmin_mv,
            pmd_mv: op.map(|p| p.pmd_voltage.as_u32()),
            soc_mv: op.map(|p| p.soc_voltage.as_u32()),
            trefp_ms: op.map(|p| p.trefp.as_f64()),
            margin_mv: point.margin_mv(),
            margin_decay_mv: entry.trend.decay_mv(),
            savings_watts: point.savings_watts,
        })
    }
}

/// Fleet health as `GET /v1/status` reports it: breaker state, sentinel
/// verdicts and quarantines, summarized from the latest campaigns.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatusSnapshot {
    /// Dominant breaker state across the fleet (worst wins), rendered
    /// with [`char_fw::safety::BreakerState`]'s display names.
    pub breaker: String,
    /// Breaker trips summed across characterizations.
    pub breaker_trips: u64,
    /// Sentinel SDC detections summed across characterizations.
    pub sentinel_detections: u64,
    /// Boards the safety net evicted at least once.
    pub evicted_boards: Vec<u32>,
    /// Boards quarantined as adversarial tenants (attacker quarantine,
    /// distinct from board eviction).
    pub attacker_quarantines: Vec<u32>,
    /// Boards with a served safe point.
    pub boards_served: usize,
    /// Highest published epoch.
    pub latest_epoch: Option<u32>,
    /// Current snapshot version.
    pub snapshot_version: u64,
    /// Per-board margin lost to aging across epochs, mV — `(board,
    /// decay)` pairs in ascending board order, only boards whose trend
    /// spans at least two epochs. This is the signal the economic
    /// dispatcher derates capacity on, exposed so dispatch decisions
    /// are auditable over the wire.
    #[serde(default)]
    pub margin_decay_mv: Vec<(u32, i64)>,
}

/// What `GET /v1/dispatch` answers: the economic dispatcher's latest
/// published summary — fleet-wide economics plus the per-board routing
/// view. Empty (with `enabled = false`) until a dispatcher publishes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DispatchStatus {
    /// Whether a dispatcher has published a summary at all.
    pub enabled: bool,
    /// Requests the dispatcher admitted and routed.
    pub requests_routed: u64,
    /// Requests rejected by admission control (no routable board with
    /// queue headroom).
    pub requests_rejected: u64,
    /// Requests that blew their latency deadline.
    pub qos_violations: u64,
    /// Requests routed away from their economically preferred board
    /// because it was draining, in maintenance or quarantined.
    pub reroutes: u64,
    /// Fleet-wide energy cost per served request, joules (numerically
    /// equal to average watts per unit of QPS).
    pub watts_per_qps: f64,
    /// Per-board routing view, ascending board order.
    pub boards: Vec<DispatchBoardStatus>,
}

/// One board's row in [`DispatchStatus`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchBoardStatus {
    /// Fleet-wide board id.
    pub board: u32,
    /// Routing mode label (`exploited`, `nominal`, `draining`,
    /// `maintenance`, `quarantined`).
    pub mode: String,
    /// Capacity the router plans against, requests/second.
    pub capacity_qps: u64,
    /// Busy power at the board's current operating point, W.
    pub busy_watts: f64,
    /// Requests served.
    pub served: u64,
    /// Margin lost to aging, mV (0 until two epochs exist).
    pub margin_decay_mv: i64,
}

/// One published value: readers clone the current `Arc`, writers swap
/// in a whole new one.
///
/// The lock is read through a poisoned state. Each critical section is
/// one `Arc` clone or one pointer store, so the value is whole at every
/// unlock, whatever panicked while holding it.
#[derive(Debug, Default)]
struct Published<T>(RwLock<Arc<T>>);

impl<T> Published<T> {
    /// The current value: one brief read lock and an `Arc` clone.
    fn load(&self) -> Arc<T> {
        Arc::clone(&self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `value`; readers holding the previous one keep it.
    fn store(&self, value: T) {
        *self.0.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(value);
    }
}

/// The serving state shared by every worker thread.
#[derive(Debug, Default)]
pub struct ControlState {
    /// Serializes rolls from reading the served snapshot through the
    /// swap, so a roll never publishes an index that misses another's
    /// epoch.
    roll: Mutex<()>,
    /// The served snapshot, swapped whole on every publish.
    snapshot: Published<SafePointSnapshot>,
    /// The served health summary.
    status: Published<StatusSnapshot>,
    /// The served dispatch summary.
    dispatch: Published<DispatchStatus>,
    /// Campaign-derived metrics merged into `/metrics` output.
    base_metrics: Published<MetricsSnapshot>,
}

impl ControlState {
    /// Empty state: no safe points, version 0, healthy status.
    pub fn new() -> Self {
        ControlState::default()
    }

    /// The current snapshot — the lookup hot path. Cost: one brief read
    /// lock and an `Arc` clone.
    pub fn snapshot(&self) -> Arc<SafePointSnapshot> {
        self.snapshot.load()
    }

    /// The current health summary.
    pub fn status(&self) -> Arc<StatusSnapshot> {
        self.status.load()
    }

    /// Replaces the health summary (stamping it with the current
    /// snapshot version, epoch and per-board margin decay).
    pub fn set_status(&self, mut status: StatusSnapshot) {
        let snapshot = self.snapshot();
        status.snapshot_version = snapshot.version;
        status.latest_epoch = snapshot.latest_epoch;
        status.boards_served = snapshot.index.len();
        status.margin_decay_mv = snapshot
            .index
            .boards()
            .filter_map(|board| {
                snapshot
                    .index
                    .margin_decay_mv(board)
                    .map(|decay| (board, decay))
            })
            .collect();
        self.status.store(status);
    }

    /// The served dispatch summary.
    pub fn dispatch(&self) -> Arc<DispatchStatus> {
        self.dispatch.load()
    }

    /// Replaces the dispatch summary (the economic dispatcher publishes
    /// one after every run).
    pub fn set_dispatch(&self, status: DispatchStatus) {
        self.dispatch.store(status);
    }

    /// The campaign-derived metrics base merged into `/metrics`.
    pub fn base_metrics(&self) -> Arc<MetricsSnapshot> {
        self.base_metrics.load()
    }

    /// Replaces the campaign-derived metrics base.
    pub fn set_base_metrics(&self, snapshot: MetricsSnapshot) {
        self.base_metrics.store(snapshot);
    }

    /// Folds one epoch's store into a copy of the served index and
    /// publishes it. Returns the new snapshot version.
    ///
    /// Each epoch must be rolled once; epochs may arrive in any order. A
    /// board's served point moves only to a newer epoch, and an older
    /// epoch still joins its margin trend — a campaign resumed after a
    /// restart can complete after a later one was re-served at boot.
    pub fn roll_epoch(&self, epoch: u32, store: &SafePointStore) -> u64 {
        let _roll = self.roll.lock().unwrap_or_else(PoisonError::into_inner);
        let served = self.snapshot();
        let mut index = served.index.clone();
        index.fold(epoch, store);
        let latest_epoch = if store.is_empty() {
            served.latest_epoch
        } else {
            served.latest_epoch.max(Some(epoch))
        };
        // Only rolls swap the snapshot, and they hold the roll lock, so
        // the served version is the latest one issued.
        let version = served.version + 1;
        self.snapshot.store(SafePointSnapshot {
            version,
            latest_epoch,
            index,
        });
        version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardband_core::safepoint::{BoardSafePoint, SafePointPolicy};
    use power_model::units::Millivolts;
    use xgene_sim::sigma::SigmaBin;

    fn record(board: u32, attempt: u32, rail: u32) -> BoardSafePoint {
        let policy = SafePointPolicy::dsn18();
        BoardSafePoint {
            board,
            attempt,
            bin: SigmaBin::Ttt,
            core_vmin_mv: vec![Some(rail - 5); 8],
            rail_vmin_mv: Some(rail),
            operating_point: Some(policy.derive_from_measured(Millivolts::new(rail), policy.trefp)),
            bank_safe_trefp_ms: vec![2283.0; 8],
            savings_fraction: 0.2,
            savings_watts: 6.0,
        }
    }

    fn one_board_store(board: u32, attempt: u32, rail: u32) -> SafePointStore {
        let mut store = SafePointStore::new();
        store.insert(record(board, attempt, rail));
        store
    }

    #[test]
    fn lookups_serve_the_latest_published_epoch() {
        let state = ControlState::new();
        assert_eq!(state.snapshot().lookup(7), None);

        let v1 = state.roll_epoch(0, &one_board_store(7, 0, 905));
        let view = state.snapshot().lookup(7).unwrap();
        assert_eq!((view.epoch, view.snapshot_version), (0, v1));
        assert_eq!(view.rail_vmin_mv, Some(905));
        assert_eq!(view.pmd_mv, Some(930));
        assert_eq!(view.margin_mv, Some(50));
        assert_eq!(view.margin_decay_mv, None, "one epoch is no trend");

        let v2 = state.roll_epoch(12, &one_board_store(7, 12, 925));
        assert!(v2 > v1);
        let view = state.snapshot().lookup(7).unwrap();
        assert_eq!((view.epoch, view.snapshot_version), (12, v2));
        assert_eq!(view.margin_decay_mv, Some(20));
    }

    #[test]
    fn an_old_snapshot_keeps_serving_its_version_after_a_roll() {
        // The consistency contract: a reader holding a pre-roll Arc sees
        // a complete old view, never a half-updated one.
        let state = ControlState::new();
        state.roll_epoch(0, &one_board_store(3, 0, 905));
        let held = state.snapshot();
        state.roll_epoch(6, &one_board_store(3, 6, 915));
        assert_eq!(held.lookup(3).unwrap().epoch, 0);
        assert_eq!(state.snapshot().lookup(3).unwrap().epoch, 6);
    }

    #[test]
    fn status_is_stamped_with_the_serving_version() {
        let state = ControlState::new();
        state.roll_epoch(0, &one_board_store(1, 0, 905));
        state.set_status(StatusSnapshot {
            breaker: "healthy".to_owned(),
            breaker_trips: 2,
            ..StatusSnapshot::default()
        });
        let status = state.status();
        assert_eq!(status.snapshot_version, state.snapshot().version);
        assert_eq!(status.boards_served, 1);
        assert_eq!(status.latest_epoch, Some(0));
        assert_eq!(status.breaker_trips, 2);
    }

    #[test]
    fn status_exposes_per_board_margin_decay() {
        let state = ControlState::new();
        state.roll_epoch(0, &one_board_store(7, 0, 905));
        state.set_status(StatusSnapshot::default());
        assert!(
            state.status().margin_decay_mv.is_empty(),
            "one epoch is no trend"
        );
        // Aging raises the measured rail; the re-characterized epoch
        // records a 20 mV decay, which status now reports per board.
        state.roll_epoch(12, &one_board_store(7, 12, 925));
        state.set_status(StatusSnapshot::default());
        assert_eq!(state.status().margin_decay_mv, vec![(7, 20)]);
    }

    #[test]
    fn dispatch_status_swaps_whole() {
        let state = ControlState::new();
        assert!(!state.dispatch().enabled, "empty until published");
        state.set_dispatch(DispatchStatus {
            enabled: true,
            requests_routed: 1_000,
            watts_per_qps: 0.031,
            boards: vec![DispatchBoardStatus {
                board: 3,
                mode: "exploited".to_owned(),
                capacity_qps: 200,
                busy_watts: 24.8,
                served: 1_000,
                margin_decay_mv: 0,
            }],
            ..DispatchStatus::default()
        });
        let published = state.dispatch();
        assert!(published.enabled);
        assert_eq!(published.boards[0].board, 3);
        // Round-trips through the wire format.
        let json = serde::json::to_string(published.as_ref());
        let back: DispatchStatus = serde::json::from_str(&json).unwrap();
        assert_eq!(back, *published);
    }

    #[test]
    fn an_older_epoch_joins_the_trend_but_not_the_served_point() {
        let state = ControlState::new();
        state.roll_epoch(12, &one_board_store(7, 12, 925));
        state.roll_epoch(0, &one_board_store(7, 0, 905));
        let snapshot = state.snapshot();
        let view = snapshot.lookup(7).unwrap();
        assert_eq!(view.epoch, 12);
        assert_eq!(view.rail_vmin_mv, Some(925));
        // margin(0) − margin(12) = 50 − 30.
        assert_eq!(view.margin_decay_mv, Some(20));
        assert_eq!(snapshot.latest_epoch, Some(12));
    }

    #[test]
    fn concurrent_rolls_lose_no_epoch() {
        // Epoch 0 serves a wide fleet, so each roll's clone-and-fold
        // takes long enough for the two threads' rolls to overlap.
        let state = ControlState::new();
        let mut fleet = SafePointStore::new();
        for board in 2..1000 {
            fleet.insert(record(board, 0, 905));
        }
        state.roll_epoch(0, &fleet);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for board in 0..2u32 {
                let (state, start) = (&state, &start);
                scope.spawn(move || {
                    start.wait();
                    for k in 0..100u32 {
                        let epoch = 1 + 2 * k + board;
                        state.roll_epoch(epoch, &one_board_store(board, epoch, 905));
                    }
                });
            }
        });
        let snapshot = state.snapshot();
        assert_eq!(snapshot.version, 201);
        assert_eq!(snapshot.lookup(0).unwrap().epoch, 199);
        assert_eq!(snapshot.lookup(1).unwrap().epoch, 200);
        assert_eq!(snapshot.latest_epoch, Some(200));
        for board in 0..2 {
            assert_eq!(snapshot.index.entry(board).unwrap().trend.epochs(), 100);
        }
    }

    #[test]
    fn poisoned_cells_keep_serving_and_publishing() {
        let state = ControlState::new();
        state.roll_epoch(0, &one_board_store(7, 0, 905));
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = (state.snapshot.0.write(), state.status.0.write());
                    panic!("a publisher dies holding both locks");
                })
                .join()
        });
        assert!(died.is_err());
        assert!(state.snapshot.0.is_poisoned() && state.status.0.is_poisoned());
        assert_eq!(state.snapshot().lookup(7).unwrap().epoch, 0);
        assert_eq!(state.status().snapshot_version, 0);
        let version = state.roll_epoch(12, &one_board_store(7, 12, 925));
        assert_eq!(state.snapshot().lookup(7).unwrap().epoch, 12);
        state.set_status(StatusSnapshot::default());
        assert_eq!(state.status().snapshot_version, version);
    }

    mod folding {
        use super::*;
        use guardband_core::epoch::VersionedSafePointStore;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            /// Rolling distinct epochs one at a time, in any order,
            /// serves exactly the index of the whole history.
            #[test]
            fn rolls_in_any_order_serve_the_index_of_the_whole_history(
                epochs in proptest::collection::vec((0u32..40, any::<u64>()), 0..12),
                records in proptest::collection::vec(
                    (0u32..6, 0usize..12, any::<bool>()),
                    0..40,
                ),
            ) {
                let mut epochs = epochs;
                epochs.sort_unstable();
                epochs.dedup_by_key(|(epoch, _)| *epoch);
                let mut history = VersionedSafePointStore::new();
                let mut stores: BTreeMap<u32, SafePointStore> =
                    epochs.iter().map(|&(epoch, _)| (epoch, SafePointStore::new())).collect();
                if !epochs.is_empty() {
                    for (board, slot, derived) in records {
                        let epoch = epochs[slot % epochs.len()].0;
                        let mut r = record(board, epoch, 900 + 5 * (epoch % 8));
                        if !derived {
                            r.operating_point = None;
                        }
                        history.insert(epoch, r.clone());
                        stores.get_mut(&epoch).expect("epoch has a store").insert(r);
                    }
                }
                // Shuffle the roll order by each epoch's random key.
                epochs.sort_unstable_by_key(|&(epoch, key)| (key, epoch));

                let state = ControlState::new();
                for (epoch, _) in &epochs {
                    state.roll_epoch(*epoch, &stores[epoch]);
                }
                let snapshot = state.snapshot();
                prop_assert_eq!(&snapshot.index, &history.latest_index());
                prop_assert_eq!(snapshot.latest_epoch, history.latest_epoch());
            }
        }
    }
}
