//! The dispatch simulation: a seeded request stream routed across a
//! heterogeneous fleet, with aging, breaker backoff and maintenance
//! drains folded into one deterministic event loop.
//!
//! Three clocks interleave on a single microsecond timeline:
//!
//! 1. **arrivals** — the open-loop [`LoadProfile`] trace (diurnal
//!    sinusoid plus flash crowds), placed by the seeded
//!    [`PlacementRouter`];
//! 2. **epochs** — at every epoch boundary, exploited boards age: a
//!    seeded margin-decay draw erodes each board's rail Vmin, which
//!    re-derives its operating point (power up, margin down) and
//!    derates its capacity;
//! 3. **maintenance** — the boundary also runs
//!    [`fleet::MaintenancePolicy::plan`] over the decayed margins; every
//!    scheduled board gets a drain lead (traffic steered away *before*
//!    the window starts), a powered-down re-characterization window and
//!    a resume with its margin restored.
//!
//! Injected faults ride the same timeline: a breaker trip backs the
//! board off to nominal-cost routing (it keeps serving, expensively); a
//! quarantine removes it outright. Everything downstream of the trace
//! is sequential and seeded, so the chronicle is byte-identical for any
//! worker count — workers only parallelize the up-front fleet
//! characterization and the post-hoc per-board latency statistics, both
//! provably pool-independent.

use crate::economics::{fleet_economics, BoardEconomics, EconomicsConfig};
use crate::report::{
    BoardRow, DispatchChronicle, DispatchExecution, DispatchReport, EpochRow, LatencyStats,
};
use crate::router::{BoardPort, Candidate, Placement, PlacementRouter, QueuePolicy};
use control_plane::loadgen::{LoadProfile, TraceDigest};
use fleet::{
    par_map_ordered, run_fleet, BoardHealth, FleetCampaign, FleetConfig, FleetSpec,
    MaintenancePolicy, SafePointStore,
};
use guardband_core::epoch::VersionedSafePointStore;
use guardband_core::safepoint::{BoardSafePoint, SafePointPolicy};
use observatory::{Observatory, SloSpec, StreamBuilder};
use power_model::server::ServerPowerModel;
use power_model::units::Millivolts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use telemetry::metrics::Registry;
use telemetry::{counter, gauge, FieldValue, Level, Telemetry};

/// Everything a dispatch run needs, all of it seeded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchSpec {
    /// Fleet size.
    pub boards: u32,
    /// Master seed: characterization, decay draws and placement all
    /// derive from it.
    pub seed: u64,
    /// The offered traffic.
    pub profile: LoadProfile,
    /// Capacity and cost derivation knobs.
    pub economics: EconomicsConfig,
    /// Queue bounds and the QoS deadline.
    pub queue: QueuePolicy,
    /// Aging epochs across the trace (boundaries at `k/epochs` of the
    /// duration for `k` in `1..epochs`).
    pub epochs: u32,
    /// Upper bound of the per-epoch seeded margin-decay draw, mV.
    pub decay_mv_per_epoch: i64,
    /// The re-characterization scheduler run at every boundary.
    pub maintenance: MaintenancePolicy,
    /// How long before its window a scheduled board stops taking
    /// traffic (must cover the queue cap, so the drain loses nothing).
    pub drain_lead_us: u64,
    /// Length of one re-characterization window.
    pub window_duration_us: u64,
    /// Ablation arm: every board priced and routed at nominal, no
    /// aging, no maintenance.
    pub nominal_only: bool,
    /// Injected breaker trips, `(at_us, board)`: the board backs off to
    /// nominal-cost routing but keeps serving.
    pub breaker_trips: Vec<(u64, u32)>,
    /// Injected quarantines, `(at_us, board)`: the board stops serving.
    pub quarantines: Vec<(u64, u32)>,
}

impl DispatchSpec {
    /// A minute of diurnal traffic over a small fleet — the testing and
    /// example configuration.
    pub fn quick(boards: u32, seed: u64) -> Self {
        DispatchSpec {
            boards,
            seed,
            profile: LoadProfile {
                seed,
                ..LoadProfile::default()
            },
            economics: EconomicsConfig::default(),
            queue: QueuePolicy::default(),
            epochs: 4,
            decay_mv_per_epoch: 3,
            maintenance: MaintenancePolicy {
                margin_threshold_mv: 45,
                ce_cells_threshold: u64::MAX,
                max_epoch_age_months: 1000,
                budget_per_round: 1,
            },
            drain_lead_us: 2_000_000,
            window_duration_us: 3_000_000,
            nominal_only: false,
            breaker_trips: Vec::new(),
            quarantines: Vec::new(),
        }
    }

    /// The same run with dispatch economics switched off — the
    /// nominal-only ablation this dispatcher is benchmarked against.
    pub fn nominal_arm(&self) -> Self {
        DispatchSpec {
            nominal_only: true,
            ..self.clone()
        }
    }

    fn duration_us(&self) -> u64 {
        (self.profile.duration_s * 1e6) as u64
    }

    fn segment_us(&self) -> u64 {
        (self.duration_us() / u64::from(self.epochs.max(1))).max(1)
    }
}

/// Characterizes the fleet, then dispatches the trace across it.
pub fn run_dispatch(spec: &DispatchSpec, workers: usize) -> DispatchReport {
    let fleet = run_fleet(
        &FleetSpec::new(spec.boards, spec.seed),
        &FleetCampaign::quick(),
        &FleetConfig::with_workers(workers),
    );
    run_dispatch_with_store(spec, workers, &fleet.characterization.store)
}

/// Dispatches over an already-characterized fleet (the store is
/// pool-independent, so callers comparing worker counts or ablation
/// arms characterize once and reuse it).
pub fn run_dispatch_with_store(
    spec: &DispatchSpec,
    workers: usize,
    store: &SafePointStore,
) -> DispatchReport {
    assert!(workers > 0, "dispatch needs at least one worker");
    assert!(spec.boards > 0 && spec.epochs > 0);
    let registry = Rc::new(Registry::new());
    let guard = Telemetry::new()
        .with_registry(Rc::clone(&registry))
        .install();

    let mut sim = Sim::new(spec, store);
    sim.run();
    // Per-board latency quantiles, merged in board order: any worker
    // count yields identical statistics.
    let stats = par_map_ordered(workers, &sim.latencies, |l| LatencyStats::of(l));

    counter!("dispatch_requests_total", sim.requests);
    counter!("dispatch_requests_routed_total", sim.served);
    counter!("dispatch_requests_rejected_total", sim.rejected);
    counter!("dispatch_qos_violations_total", sim.violations);
    counter!("dispatch_reroutes_total", sim.reroutes);
    counter!("dispatch_drains_total", sim.drains);
    counter!("dispatch_breaker_backoffs_total", sim.backoffs);
    counter!(
        "dispatch_maintenance_windows_total",
        sim.maintenance_windows
    );
    let watts_per_qps = if sim.served > 0 {
        sim.total_energy() / sim.served as f64
    } else {
        0.0
    };
    gauge!("dispatch_watts_per_qps", watts_per_qps);
    drop(guard);

    let observatory = sim.observe();
    let chronicle = sim.chronicle(stats, watts_per_qps, &registry);
    DispatchReport {
        chronicle,
        execution: DispatchExecution { workers },
        observatory,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Exploited,
    Nominal,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Avail {
    Serving,
    Draining,
    Maintenance,
    Quarantined,
}

// Control-event kinds on the shared timeline, ordered for deterministic
// same-timestamp processing: capacity returns before it is consumed.
const K_WINDOW_END: u8 = 0;
const K_EPOCH: u8 = 1;
const K_TRIP: u8 = 2;
const K_QUARANTINE: u8 = 3;
const K_DRAIN: u8 = 4;
const K_WINDOW_START: u8 = 5;

struct BoardSim {
    exploited: BoardEconomics,
    nominal: BoardEconomics,
    mode: Mode,
    avail: Avail,
    port: BoardPort,
    orig_rail: Option<u32>,
    decay_mv: i64,
    attempt: u32,
    served: u64,
    violations: u64,
    violation_open: bool,
    energy_j: f64,
    seg_start_us: u64,
    tripped: bool,
    drained: u32,
    maintained: u32,
    quarantined: bool,
}

impl BoardSim {
    fn active(&self) -> &BoardEconomics {
        match self.mode {
            Mode::Exploited => &self.exploited,
            Mode::Nominal => &self.nominal,
        }
    }

    fn idle_watts_now(&self) -> f64 {
        match self.avail {
            Avail::Maintenance | Avail::Quarantined => 0.0,
            Avail::Serving | Avail::Draining => self.active().idle_watts,
        }
    }

    /// Closes the idle-power segment up to `now` — call before any
    /// state change that alters the board's idle draw.
    fn close_segment(&mut self, now_us: u64) {
        let now = now_us.max(self.seg_start_us);
        self.energy_j += self.idle_watts_now() * (now - self.seg_start_us) as f64 / 1e6;
        self.seg_start_us = now;
    }

    fn update_capacity(&mut self, config: &EconomicsConfig) {
        self.port.capacity_qps = match self.mode {
            Mode::Exploited => config.derated_capacity(self.decay_mv),
            Mode::Nominal => config.base_capacity_qps,
        };
    }
}

struct Fact {
    at_us: u64,
    board: u32,
    level: Level,
    name: &'static str,
    fields: Vec<(String, FieldValue)>,
}

struct Sim<'a> {
    spec: &'a DispatchSpec,
    model: ServerPowerModel,
    policy: SafePointPolicy,
    boards: Vec<BoardSim>,
    placement: PlacementRouter,
    versioned: VersionedSafePointStore,
    pending_maintenance: BTreeSet<u32>,
    controls: BTreeSet<(u64, u8, u32)>,
    facts: Vec<Fact>,
    latencies: Vec<Vec<u64>>,
    epoch_rows: Vec<EpochRow>,
    trace_fingerprint: u64,
    requests: u64,
    served: u64,
    rejected: u64,
    violations: u64,
    reroutes: u64,
    drains: u64,
    backoffs: u64,
    maintenance_windows: u64,
}

impl<'a> Sim<'a> {
    fn new(spec: &'a DispatchSpec, store: &SafePointStore) -> Self {
        let model = ServerPowerModel::xgene2();
        let policy = SafePointPolicy::dsn18();
        let exploited_cards = fleet_economics(spec.boards, store, &model, &spec.economics);
        let mut versioned = VersionedSafePointStore::new();
        let mut boards = Vec::with_capacity(spec.boards as usize);
        for card in exploited_cards {
            let record = store.get(card.board);
            let orig_rail = record.and_then(|r| r.rail_vmin_mv);
            if let Some(record) = record {
                versioned.insert(0, record.clone());
            }
            let nominal = BoardEconomics::nominal(card.board, &model, &spec.economics);
            let mode = if spec.nominal_only || !card.exploited {
                Mode::Nominal
            } else {
                Mode::Exploited
            };
            let mut board = BoardSim {
                exploited: card,
                nominal,
                mode,
                avail: Avail::Serving,
                port: BoardPort::idle(spec.economics.base_capacity_qps),
                orig_rail,
                decay_mv: 0,
                attempt: record.map_or(0, |r| r.attempt),
                served: 0,
                violations: 0,
                violation_open: false,
                energy_j: 0.0,
                seg_start_us: 0,
                tripped: false,
                drained: 0,
                maintained: 0,
                quarantined: false,
            };
            board.update_capacity(&spec.economics);
            boards.push(board);
        }

        let mut controls: BTreeSet<(u64, u8, u32)> = BTreeSet::new();
        for k in 1..spec.epochs {
            controls.insert((u64::from(k) * spec.segment_us(), K_EPOCH, k));
        }
        for &(at, board) in &spec.breaker_trips {
            controls.insert((at, K_TRIP, board));
        }
        for &(at, board) in &spec.quarantines {
            controls.insert((at, K_QUARANTINE, board));
        }

        Sim {
            spec,
            model,
            policy,
            latencies: vec![Vec::new(); spec.boards as usize],
            boards,
            placement: PlacementRouter::new(spec.seed),
            versioned,
            pending_maintenance: BTreeSet::new(),
            controls,
            facts: Vec::new(),
            epoch_rows: Vec::new(),
            trace_fingerprint: 0,
            requests: 0,
            served: 0,
            rejected: 0,
            violations: 0,
            reroutes: 0,
            drains: 0,
            backoffs: 0,
            maintenance_windows: 0,
        }
    }

    fn run(&mut self) {
        let trace = self.spec.profile.generate();
        self.requests = trace.events.len() as u64;
        let mut digest = TraceDigest::new();
        for event in &trace.events {
            digest.push(event);
            self.drain_controls(event.at_us);
            self.route(event.at_us);
        }
        self.trace_fingerprint = digest.finish();
        let end = self.spec.duration_us();
        self.drain_controls(end);
        for board in &mut self.boards {
            board.close_segment(end);
        }
    }

    fn drain_controls(&mut self, up_to_us: u64) {
        while let Some(&(at, kind, payload)) = self.controls.iter().next() {
            if at > up_to_us {
                break;
            }
            self.controls.remove(&(at, kind, payload));
            match kind {
                K_EPOCH => self.epoch_boundary(at, payload),
                K_TRIP => self.breaker_trip(at, payload),
                K_QUARANTINE => self.quarantine(at, payload),
                K_DRAIN => self.drain_start(at, payload),
                K_WINDOW_START => self.window_start(at, payload),
                K_WINDOW_END => self.window_end(at, payload),
                _ => unreachable!("unknown control kind"),
            }
        }
    }

    fn route(&mut self, at_us: u64) {
        let candidates: Vec<Candidate> = self
            .boards
            .iter()
            .enumerate()
            .map(|(index, board)| {
                let routable = board.avail == Avail::Serving;
                Candidate {
                    index,
                    joules_per_request: board.active().joules_per_request(board.port.capacity_qps),
                    headroom: board.port.headroom(at_us, &self.spec.queue),
                    routable,
                    admits: board.port.admits(at_us, &self.spec.queue),
                }
            })
            .collect();
        match self.placement.place(&candidates) {
            Placement::Rejected => self.rejected += 1,
            Placement::Placed { index, rerouted } => {
                if rerouted {
                    self.reroutes += 1;
                }
                let deadline = self.spec.queue.deadline_us;
                let board = &mut self.boards[index];
                let latency = board.port.assign(at_us);
                let service_s = board.port.service_us() as f64 / 1e6;
                let (busy, idle) = (board.active().busy_watts, board.active().idle_watts);
                board.energy_j += service_s * (busy - idle);
                board.served += 1;
                self.served += 1;
                self.latencies[index].push(latency);
                if latency > deadline {
                    self.violations += 1;
                    board.violations += 1;
                    if !board.violation_open {
                        board.violation_open = true;
                        let id = board.exploited.board;
                        self.facts.push(Fact {
                            at_us,
                            board: id,
                            level: Level::Error,
                            name: "dispatch_qos_violation",
                            fields: vec![
                                ("latency_us".to_owned(), FieldValue::U64(latency)),
                                ("deadline_us".to_owned(), FieldValue::U64(deadline)),
                            ],
                        });
                    }
                } else if board.violation_open {
                    board.violation_open = false;
                    let id = board.exploited.board;
                    self.facts.push(Fact {
                        at_us,
                        board: id,
                        level: Level::Info,
                        name: "dispatch_qos_recovered",
                        fields: vec![("latency_us".to_owned(), FieldValue::U64(latency))],
                    });
                }
            }
        }
    }

    /// Ages every exploited board by a seeded decay draw, refreshes its
    /// operating point and capacity, then runs the maintenance planner
    /// over the eroded margins.
    fn epoch_boundary(&mut self, at_us: u64, epoch: u32) {
        if self.spec.nominal_only {
            return;
        }
        let mut decayed: Vec<(u32, i64)> = Vec::new();
        for board in &mut self.boards {
            let id = board.exploited.board;
            if board.mode != Mode::Exploited
                || board.avail == Avail::Quarantined
                || board.avail == Avail::Maintenance
            {
                continue;
            }
            let Some(orig_rail) = board.orig_rail else {
                continue;
            };
            let mut rng = StdRng::seed_from_u64(
                self.spec
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(epoch) << 32 | u64::from(id)),
            );
            let delta = rng.gen_range(1..=self.spec.decay_mv_per_epoch.max(1));
            board.close_segment(at_us);
            board.decay_mv += delta;
            let aged_rail = Millivolts::new(orig_rail + board.decay_mv as u32);
            let point = self
                .policy
                .derive_from_measured(aged_rail, self.policy.trefp);
            board.exploited =
                BoardEconomics::at_point(id, &point, true, &self.model, &self.spec.economics);
            board.update_capacity(&self.spec.economics);
            self.versioned
                .insert(epoch, aged_record(id, board.attempt, aged_rail, &point));
            decayed.push((id, board.decay_mv));
        }

        // Plan re-characterization over the eroded margins. Boards
        // already scheduled, draining or down report no margin — the
        // planner only sees silicon it could actually help.
        let healths: Vec<BoardHealth> = self
            .boards
            .iter()
            .map(|board| {
                let id = board.exploited.board;
                let eligible = board.mode == Mode::Exploited
                    && board.avail == Avail::Serving
                    && !self.pending_maintenance.contains(&id);
                BoardHealth {
                    board: id,
                    months_since_characterization: epoch,
                    margin_mv: if eligible {
                        Some(board.exploited.margin_mv)
                    } else {
                        None
                    },
                    failing_cells: 0,
                }
            })
            .collect();
        let plan = self.spec.maintenance.plan(&healths);
        let windows = plan.windows(
            at_us + self.spec.drain_lead_us,
            self.spec.window_duration_us,
            self.spec.window_duration_us,
        );
        let mut scheduled: Vec<u32> = Vec::new();
        for window in &windows {
            self.pending_maintenance.insert(window.board);
            scheduled.push(window.board);
            let drain_at = window.start_us.saturating_sub(self.spec.drain_lead_us);
            self.controls.insert((drain_at, K_DRAIN, window.board));
            self.controls
                .insert((window.start_us, K_WINDOW_START, window.board));
            self.controls
                .insert((window.end_us(), K_WINDOW_END, window.board));
        }
        self.epoch_rows.push(EpochRow {
            epoch,
            at_us,
            decayed,
            scheduled,
        });
    }

    fn breaker_trip(&mut self, at_us: u64, id: u32) {
        let Some(idx) = self.board_index(id) else {
            return;
        };
        let board = &mut self.boards[idx];
        if board.mode != Mode::Exploited || board.avail == Avail::Quarantined {
            return;
        }
        board.close_segment(at_us);
        let lost_margin = board.exploited.margin_mv;
        board.mode = Mode::Nominal;
        board.tripped = true;
        board.update_capacity(&self.spec.economics);
        self.backoffs += 1;
        self.facts.push(Fact {
            at_us,
            board: id,
            level: Level::Warn,
            name: "dispatch_breaker_backoff",
            fields: vec![("lost_margin_mv".to_owned(), FieldValue::I64(lost_margin))],
        });
    }

    fn quarantine(&mut self, at_us: u64, id: u32) {
        let Some(idx) = self.board_index(id) else {
            return;
        };
        let board = &mut self.boards[idx];
        if board.avail == Avail::Quarantined {
            return;
        }
        board.close_segment(at_us);
        board.avail = Avail::Quarantined;
        board.quarantined = true;
        self.facts.push(Fact {
            at_us,
            board: id,
            level: Level::Warn,
            name: "dispatch_quarantine",
            fields: Vec::new(),
        });
    }

    fn drain_start(&mut self, at_us: u64, id: u32) {
        let Some(idx) = self.board_index(id) else {
            return;
        };
        let board = &mut self.boards[idx];
        if board.avail != Avail::Serving {
            return;
        }
        // Idle draw is unchanged while draining — no segment to close;
        // the board just stops being routable so its queue empties
        // before the window starts.
        board.avail = Avail::Draining;
        board.drained += 1;
        let backlog = board.port.backlog_us(at_us);
        self.drains += 1;
        self.facts.push(Fact {
            at_us,
            board: id,
            level: Level::Info,
            name: "dispatch_drain",
            fields: vec![("backlog_us".to_owned(), FieldValue::U64(backlog))],
        });
    }

    fn window_start(&mut self, at_us: u64, id: u32) {
        let Some(idx) = self.board_index(id) else {
            return;
        };
        let board = &mut self.boards[idx];
        if board.avail == Avail::Quarantined {
            return;
        }
        board.close_segment(at_us);
        board.avail = Avail::Maintenance;
        board.maintained += 1;
        self.maintenance_windows += 1;
    }

    /// Re-characterization restores the original (unaged) safe point:
    /// the decay resets, capacity and cost return to day-one values.
    fn window_end(&mut self, at_us: u64, id: u32) {
        let epoch = (at_us / self.spec.segment_us()).min(u64::from(self.spec.epochs) - 1) as u32;
        self.pending_maintenance.remove(&id);
        let Some(idx) = self.board_index(id) else {
            return;
        };
        if self.boards[idx].avail == Avail::Quarantined {
            return;
        }
        let refreshed = {
            let board = &mut self.boards[idx];
            board.close_segment(at_us);
            board.decay_mv = 0;
            let mut record = None;
            if let Some(orig_rail) = board.orig_rail {
                board.attempt += 1;
                let rail = Millivolts::new(orig_rail);
                let point = self.policy.derive_from_measured(rail, self.policy.trefp);
                board.exploited =
                    BoardEconomics::at_point(id, &point, true, &self.model, &self.spec.economics);
                board.mode = Mode::Exploited;
                record = Some(aged_record(id, board.attempt, rail, &point));
            }
            board.avail = Avail::Serving;
            board.update_capacity(&self.spec.economics);
            record
        };
        if let Some(record) = refreshed {
            self.versioned.insert(epoch, record);
        }
        self.facts.push(Fact {
            at_us,
            board: id,
            level: Level::Info,
            name: "dispatch_resumed",
            fields: vec![("epoch".to_owned(), FieldValue::U64(u64::from(epoch)))],
        });
    }

    fn board_index(&self, id: u32) -> Option<usize> {
        self.boards.iter().position(|b| b.exploited.board == id)
    }

    fn total_energy(&self) -> f64 {
        self.boards.iter().map(|b| b.energy_j).sum()
    }

    /// Feeds the run's facts to the observatory: per-(epoch, board)
    /// coordinator streams, a zero-violation SLO observed per epoch, and
    /// incident reconstruction over the merged timeline.
    fn observe(&self) -> observatory::ObservatoryReport {
        let seg = self.spec.segment_us();
        let last_epoch = u64::from(self.spec.epochs) - 1;
        let mut obs = Observatory::new();
        obs.add_slo(SloSpec::zero_escapes("dispatch_qos_violations"));

        let mut streams: BTreeMap<(u64, u32), StreamBuilder> = BTreeMap::new();
        for fact in &self.facts {
            let epoch = (fact.at_us / seg).min(last_epoch);
            streams
                .entry((epoch, fact.board))
                .or_insert_with(|| StreamBuilder::coordinator(epoch, fact.board))
                .push(fact.level, fact.name, fact.fields.clone());
        }
        for (_, builder) in streams {
            obs.ingest_stream(builder.finish());
        }

        let mut violations_per_epoch = vec![0u64; self.spec.epochs as usize];
        for fact in &self.facts {
            if fact.name == "dispatch_qos_violation" {
                let epoch = (fact.at_us / seg).min(last_epoch) as usize;
                violations_per_epoch[epoch] += 1;
            }
        }
        for (epoch, &count) in violations_per_epoch.iter().enumerate() {
            obs.slo_observe("dispatch_qos_violations", epoch as u64, None, count as f64);
        }
        obs.finish()
    }

    fn chronicle(
        &self,
        stats: Vec<LatencyStats>,
        watts_per_qps: f64,
        registry: &Registry,
    ) -> DispatchChronicle {
        let index = self.versioned.latest_index();
        let board_rows: Vec<BoardRow> = self
            .boards
            .iter()
            .zip(&stats)
            .map(|(board, lat)| {
                let id = board.exploited.board;
                BoardRow {
                    board: id,
                    final_mode: match board.mode {
                        Mode::Exploited => "exploited".to_owned(),
                        Mode::Nominal => "nominal".to_owned(),
                    },
                    served: board.served,
                    violations: board.violations,
                    energy_joules: board.energy_j,
                    busy_watts: board.active().busy_watts,
                    final_capacity_qps: board.port.capacity_qps,
                    margin_decay_mv: index.margin_decay_mv(id).unwrap_or(0),
                    latency: *lat,
                    drained: board.drained,
                    maintained: board.maintained,
                    tripped: board.tripped,
                    quarantined: board.quarantined,
                }
            })
            .collect();
        let counters: BTreeMap<String, u64> =
            registry.snapshot().counters.iter().cloned().collect();
        DispatchChronicle {
            boards: self.spec.boards,
            seed: self.spec.seed,
            nominal_only: self.spec.nominal_only,
            profile: self.spec.profile.clone(),
            trace_fingerprint: self.trace_fingerprint,
            epochs: self.spec.epochs,
            deadline_us: self.spec.queue.deadline_us,
            queue_cap_us: self.spec.queue.queue_cap_us,
            base_capacity_qps: self.spec.economics.base_capacity_qps,
            requests: self.requests,
            served: self.served,
            rejected: self.rejected,
            qos_violations: self.violations,
            reroutes: self.reroutes,
            drains: self.drains,
            breaker_backoffs: self.backoffs,
            maintenance_windows: self.maintenance_windows,
            energy_joules: self.total_energy(),
            watts_per_qps,
            board_rows,
            epoch_rows: self.epoch_rows.clone(),
            counters,
        }
    }
}

/// A refreshed safe-point record for the versioned store: same board,
/// aged (or restored) rail, re-derived operating point. The margin
/// trend across these records is what `GET /v1/status` reports as
/// `margin_decay_mv`.
fn aged_record(
    board: u32,
    attempt: u32,
    rail: Millivolts,
    point: &power_model::server::OperatingPoint,
) -> BoardSafePoint {
    BoardSafePoint {
        board,
        attempt,
        bin: xgene_sim::sigma::SigmaBin::Ttt,
        core_vmin_mv: Vec::new(),
        rail_vmin_mv: Some(rail.as_u32()),
        operating_point: Some(*point),
        bank_safe_trefp_ms: Vec::new(),
        savings_fraction: 0.0,
        savings_watts: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(board: u32, rail: u32) -> BoardSafePoint {
        let policy = SafePointPolicy::dsn18();
        BoardSafePoint {
            board,
            attempt: 0,
            bin: xgene_sim::sigma::SigmaBin::Ttt,
            core_vmin_mv: vec![Some(rail - 5); 8],
            rail_vmin_mv: Some(rail),
            operating_point: Some(policy.derive_from_measured(Millivolts::new(rail), policy.trefp)),
            bank_safe_trefp_ms: vec![2283.0; 8],
            savings_fraction: 0.2,
            savings_watts: 6.0,
        }
    }

    /// A hand-built 4-board store: two deep boards, a shallow one and
    /// an uncharacterized one — heterogeneity without the cost of the
    /// fleet characterization pipeline.
    fn store() -> SafePointStore {
        let mut store = SafePointStore::new();
        store.insert(record(0, 890));
        store.insert(record(1, 905));
        store.insert(record(2, 945));
        store
    }

    fn quick_spec(seed: u64) -> DispatchSpec {
        let mut spec = DispatchSpec::quick(4, seed);
        spec.profile.duration_s = 10.0;
        spec.profile.base_qps = 120.0;
        spec.drain_lead_us = 500_000;
        spec.window_duration_us = 1_000_000;
        spec
    }

    #[test]
    fn chronicles_are_identical_across_worker_counts() {
        let spec = quick_spec(2018);
        let store = store();
        let baseline = run_dispatch_with_store(&spec, 1, &store);
        let base_chronicle = baseline.chronicle_json();
        let base_observatory = baseline.observatory_json();
        for workers in [2, 4, 8] {
            let report = run_dispatch_with_store(&spec, workers, &store);
            assert_eq!(
                report.chronicle_json(),
                base_chronicle,
                "{workers}-worker chronicle diverged"
            );
            assert_eq!(
                report.observatory_json(),
                base_observatory,
                "{workers}-worker observatory diverged"
            );
            assert_eq!(report.execution.workers, workers);
        }
    }

    #[test]
    fn different_seeds_dispatch_differently() {
        let store = store();
        let a = run_dispatch_with_store(&quick_spec(2018), 2, &store);
        let b = run_dispatch_with_store(&quick_spec(999), 2, &store);
        assert_ne!(a.chronicle_json(), b.chronicle_json());
    }

    #[test]
    fn economic_dispatch_beats_nominal_per_qps() {
        let spec = quick_spec(2018);
        let store = store();
        let economic = run_dispatch_with_store(&spec, 2, &store);
        let nominal = run_dispatch_with_store(&spec.nominal_arm(), 2, &store);
        assert_eq!(
            economic.chronicle.requests, nominal.chronicle.requests,
            "both arms dispatch the same trace"
        );
        assert!(economic.chronicle.served > 0);
        assert!(
            economic.chronicle.watts_per_qps < nominal.chronicle.watts_per_qps,
            "economic {} vs nominal {}",
            economic.chronicle.watts_per_qps,
            nominal.chronicle.watts_per_qps
        );
        assert!(
            economic.chronicle.qos_violations <= nominal.chronicle.qos_violations,
            "exploiting guardbands must not cost QoS"
        );
    }

    #[test]
    fn traffic_prefers_the_deepest_guardbands() {
        let spec = quick_spec(2018);
        let report = run_dispatch_with_store(&spec, 2, &store());
        let rows = &report.chronicle.board_rows;
        // Board 0 (890 mV rail) is the cheapest; board 3 is nominal.
        assert!(
            rows[0].served > rows[3].served,
            "deep board served {} vs nominal board {}",
            rows[0].served,
            rows[3].served
        );
    }

    #[test]
    fn a_breaker_trip_backs_the_board_off_to_nominal() {
        let mut spec = quick_spec(2018);
        spec.breaker_trips = vec![(2_000_000, 0)];
        // Keep aging out of the picture so the mode flip is the trip's.
        spec.epochs = 1;
        let report = run_dispatch_with_store(&spec, 2, &store());
        let row = &report.chronicle.board_rows[0];
        assert!(row.tripped);
        assert_eq!(row.final_mode, "nominal");
        assert_eq!(report.chronicle.breaker_backoffs, 1);
        assert_eq!(
            report.chronicle.rejected, 0,
            "backoff must not drop traffic"
        );
        // The board keeps serving, at nominal cost.
        let baseline = {
            let mut clean = quick_spec(2018);
            clean.epochs = 1;
            run_dispatch_with_store(&clean, 2, &store())
        };
        assert!(
            report.chronicle.watts_per_qps > baseline.chronicle.watts_per_qps,
            "nominal fallback must cost more"
        );
    }

    #[test]
    fn a_quarantined_board_takes_no_further_traffic() {
        let mut spec = quick_spec(2018);
        spec.quarantines = vec![(0, 1)];
        spec.epochs = 1;
        let report = run_dispatch_with_store(&spec, 2, &store());
        let row = &report.chronicle.board_rows[1];
        assert!(row.quarantined);
        assert_eq!(row.served, 0, "quarantined at t=0, nothing placed");
        assert_eq!(report.chronicle.rejected, 0, "three boards absorb the load");
    }

    #[test]
    fn overload_violates_qos_and_the_observatory_sees_it() {
        let mut spec = quick_spec(2018);
        // Starve the fleet: deep queues admit far past the deadline.
        spec.economics.base_capacity_qps = 25;
        spec.queue.deadline_us = 20_000;
        spec.queue.queue_cap_us = 400_000;
        spec.epochs = 1;
        let report = run_dispatch_with_store(&spec, 2, &store());
        assert!(report.chronicle.qos_violations > 0);
        let qos_incidents = report
            .observatory
            .incidents_of(observatory::IncidentKind::QosViolation)
            .count();
        assert!(qos_incidents > 0, "violations must surface as incidents");
    }

    #[test]
    fn aging_erodes_margin_and_maintenance_restores_it() {
        let mut spec = quick_spec(2018);
        spec.profile.duration_s = 20.0;
        // Trigger on any erosion: margins start at 50+ mV and the
        // per-epoch draw is 1..=3 mV snapped to the 5 mV grid.
        spec.maintenance.margin_threshold_mv = 100;
        let report = run_dispatch_with_store(&spec, 2, &store());
        assert!(
            !report.chronicle.epoch_rows.is_empty(),
            "boundaries must be recorded"
        );
        assert!(
            report
                .chronicle
                .epoch_rows
                .iter()
                .any(|r| !r.decayed.is_empty()),
            "exploited boards must age"
        );
        assert!(
            report.chronicle.drains > 0,
            "the planner must drain a board"
        );
        assert!(report.chronicle.maintenance_windows > 0);
        assert_eq!(report.chronicle.rejected, 0, "drains must not drop traffic");
        let drained = report
            .observatory
            .incidents_of(observatory::IncidentKind::TrafficDrain)
            .count();
        assert!(drained > 0, "drains must surface as incidents");
    }

    #[test]
    fn nominal_arm_never_ages_or_drains() {
        let mut spec = quick_spec(2018);
        spec.maintenance.margin_threshold_mv = 100;
        let report = run_dispatch_with_store(&spec.nominal_arm(), 2, &store());
        assert_eq!(report.chronicle.drains, 0);
        assert_eq!(report.chronicle.maintenance_windows, 0);
        assert!(report.chronicle.epoch_rows.is_empty());
        assert!(report
            .chronicle
            .board_rows
            .iter()
            .all(|r| r.final_mode == "nominal"));
    }

    #[test]
    fn the_status_summary_mirrors_the_chronicle() {
        let spec = quick_spec(2018);
        let report = run_dispatch_with_store(&spec, 2, &store());
        let status = report.status();
        assert!(status.enabled);
        assert_eq!(status.requests_routed, report.chronicle.served);
        assert_eq!(status.boards.len(), 4);
        assert_eq!(status.watts_per_qps, report.chronicle.watts_per_qps);
    }
}
