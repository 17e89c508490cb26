//! Campaign submission and execution: `POST /v1/campaigns` lands here.
//!
//! # Lifecycle state machine
//!
//! ```text
//!            submit                dequeue               Ok(run)
//!   (new) ──────────▶ Queued ───────────────▶ Running ──────────▶ Completed
//!                       ▲                        │
//!                       │ next boot resumes      │ Err(FleetInterrupted)
//!                       └──────────────────── Interrupted
//! ```
//!
//! * **Queued → Running** when the single runner thread dequeues the
//!   campaign (one at a time: characterization saturates the host, and
//!   serial execution keeps epoch numbering deterministic).
//! * **Running → Completed** publishes the merged store into the
//!   [`ControlState`] under the campaign's epoch, folds the campaign
//!   counters into the `/metrics` base and refreshes `/v1/status`.
//! * **Running → Interrupted** only when the durable run returns
//!   [`FleetInterrupted`] — a crash (or an injected one). Interrupted
//!   campaigns are *not* silently retried in-process; like a killed
//!   coordinator they resume on the next boot, from their journal, so a
//!   drain that races a crash can never double-run a job.
//! * **Interrupted/Running/Queued → Queued** on boot: anything the
//!   previous incarnation left unfinished re-enters the queue and
//!   [`fleet::run_fleet_durable`] replays its journal, re-running only
//!   jobs with no journaled completion.
//!
//! Every transition persists the manifest (`campaigns.json`, written
//! atomically) when the runner owns a data directory; each campaign's
//! write-ahead journal lives in `campaign-<id>/` beside it. A runner
//! without a data directory has no next boot to resume from, so each
//! run gets a fresh in-memory journal that is dropped when the run ends.

use crate::state::{ControlState, StatusSnapshot};
use fleet::{
    run_fleet_durable, DirStore, Disruption, DurableRun, FleetCampaign, FleetConfig,
    FleetInterrupted, FleetJournal, FleetReport, FleetSpec, MemStore,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use telemetry::metrics::Registry;

/// Most boards one `POST /v1/campaigns` may ask to characterize; the
/// router answers 400 above it.
pub const MAX_CAMPAIGN_BOARDS: u32 = 4096;

/// Most worker threads one `POST /v1/campaigns` may ask for; the router
/// answers 400 above it.
pub const MAX_CAMPAIGN_WORKERS: usize = 64;

/// What a client submits: the fleet to characterize and how.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Fleet size.
    pub boards: u32,
    /// Master seed of the board population.
    pub seed: u64,
    /// Worker threads of the characterization pool.
    #[serde(default)]
    pub workers: usize,
    /// Test/chaos knob: kill the coordinator after this many completions
    /// of the campaign's *first* incarnation (resumed incarnations run
    /// clean). `None` in production.
    #[serde(default)]
    pub interrupt_after: Option<u64>,
}

impl CampaignSpec {
    /// A spec with the default pool.
    pub fn new(boards: u32, seed: u64) -> Self {
        CampaignSpec {
            boards,
            seed,
            workers: 0,
            interrupt_after: None,
        }
    }

    fn fleet_config(&self) -> FleetConfig {
        FleetConfig::with_workers(if self.workers == 0 { 2 } else { self.workers })
    }
}

/// Where a campaign is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignState {
    /// Waiting for the runner (or re-queued by boot recovery).
    Queued,
    /// The runner is executing it now.
    Running,
    /// A crash stopped it; its journal resumes it on the next boot.
    Interrupted,
    /// Done; its safe points are being served.
    Completed,
}

impl CampaignState {
    /// Whether boot recovery should re-enqueue this campaign.
    fn needs_resume(self) -> bool {
        !matches!(self, CampaignState::Completed)
    }
}

impl std::fmt::Display for CampaignState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Interrupted => "interrupted",
            CampaignState::Completed => "completed",
        };
        f.write_str(s)
    }
}

/// One campaign's record — what `GET /v1/campaigns/{id}` answers and
/// what the manifest persists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRecord {
    /// Campaign id (monotonic; doubles as the published epoch).
    pub id: u64,
    /// The submitted spec.
    pub spec: CampaignSpec,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Epoch the results publish under.
    pub epoch: u32,
    /// Incarnations that have executed (first run + resumptions).
    pub incarnations: u64,
    /// Jobs executed across every incarnation (no job is ever counted
    /// twice: resumed completions come from the journal, not the pool).
    pub executed_jobs: u64,
    /// Completions the latest incarnation recovered from the journal.
    pub resumed_completions: u64,
    /// Total jobs of the finished campaign (boards + eviction retries).
    pub jobs_total: u64,
    /// Boards with a derived safe point, once completed.
    pub boards_characterized: usize,
    /// Projected fleet saving, W, once completed.
    pub total_savings_watts: f64,
}

impl CampaignRecord {
    fn new(id: u64, spec: CampaignSpec) -> Self {
        CampaignRecord {
            id,
            spec,
            state: CampaignState::Queued,
            epoch: id as u32,
            incarnations: 0,
            executed_jobs: 0,
            resumed_completions: 0,
            jobs_total: 0,
            boards_characterized: 0,
            total_savings_watts: 0.0,
        }
    }
}

/// The persisted manifest: every record plus the id counter.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Manifest {
    next_id: u64,
    records: Vec<CampaignRecord>,
}

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    records: BTreeMap<u64, CampaignRecord>,
    queue: VecDeque<u64>,
}

/// The campaign runner: accepts submissions, executes them one at a
/// time on a background thread, persists every transition, and resumes
/// unfinished campaigns on boot.
#[derive(Debug)]
pub struct CampaignRunner {
    shared: Arc<RunnerShared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

#[derive(Debug)]
struct RunnerShared {
    state: Arc<ControlState>,
    data_dir: Option<PathBuf>,
    inner: Mutex<Inner>,
    wake: Condvar,
    draining: AtomicBool,
}

impl CampaignRunner {
    /// Boots a runner with no persistence (each run's journal lives in
    /// memory for that run) — for benches and examples that never
    /// restart.
    pub fn in_memory(state: Arc<ControlState>) -> Arc<Self> {
        CampaignRunner::boot(state, None)
    }

    /// Boots a runner over a data directory: loads the manifest,
    /// republishes completed campaigns' checkpointed stores, re-enqueues
    /// everything unfinished, then starts the executor thread.
    pub fn open(state: Arc<ControlState>, data_dir: impl Into<PathBuf>) -> Arc<Self> {
        CampaignRunner::boot(state, Some(data_dir.into()))
    }

    fn boot(state: Arc<ControlState>, data_dir: Option<PathBuf>) -> Arc<Self> {
        let mut inner = Inner::default();
        if let Some(dir) = &data_dir {
            if let Some(manifest) = load_manifest(dir) {
                inner.next_id = manifest.next_id;
                for mut record in manifest.records {
                    if record.state.needs_resume() {
                        record.state = CampaignState::Queued;
                        inner.queue.push_back(record.id);
                    } else {
                        // Re-serve the completed campaign's store from its
                        // journal checkpoint (sealed; rot falls back to a
                        // full journal replay inside the durable runner).
                        let journal =
                            FleetJournal::new(DirStore::open(campaign_dir(dir, record.id)));
                        if let Ok(Some(store)) = journal.load_store_checkpoint() {
                            state.roll_epoch(record.epoch, &store);
                        }
                    }
                    inner.records.insert(record.id, record);
                }
            }
        }
        let shared = Arc::new(RunnerShared {
            state,
            data_dir,
            inner: Mutex::new(inner),
            wake: Condvar::new(),
            draining: AtomicBool::new(false),
        });
        shared.persist();
        let runner = Arc::new(CampaignRunner {
            shared: shared.clone(),
            worker: Mutex::new(None),
        });
        let handle = std::thread::spawn(move || shared.run());
        *runner.worker.lock().expect("worker slot poisoned") = Some(handle);
        runner
    }

    /// Submits a campaign; returns its id, or `None` while draining.
    pub fn submit(&self, spec: CampaignSpec) -> Option<u64> {
        if self.shared.draining.load(Ordering::SeqCst) {
            return None;
        }
        let id = {
            let mut inner = self.shared.inner.lock().expect("runner lock poisoned");
            let id = inner.next_id;
            inner.next_id += 1;
            inner.records.insert(id, CampaignRecord::new(id, spec));
            inner.queue.push_back(id);
            id
        };
        self.shared.persist();
        self.shared.wake.notify_all();
        Some(id)
    }

    /// One campaign's record.
    pub fn record(&self, id: u64) -> Option<CampaignRecord> {
        self.shared
            .inner
            .lock()
            .expect("runner lock poisoned")
            .records
            .get(&id)
            .cloned()
    }

    /// Every record, id-ascending.
    pub fn records(&self) -> Vec<CampaignRecord> {
        self.shared
            .inner
            .lock()
            .expect("runner lock poisoned")
            .records
            .values()
            .cloned()
            .collect()
    }

    /// SIGTERM-style drain: refuse new submissions, let the in-flight
    /// campaign finish (its journal makes even a hard kill recoverable),
    /// persist the manifest and stop the executor thread. Blocks until
    /// the thread exits.
    pub fn drain(&self) {
        self.stop_executor();
        self.shared.persist();
    }

    /// Raises `draining` and joins the executor thread. The flag is
    /// stored under the runner lock, so the executor cannot check it,
    /// miss the store and then sleep through the wake-up.
    fn stop_executor(&self) {
        let inner = self.shared.inner.lock().expect("runner lock poisoned");
        self.shared.draining.store(true, Ordering::SeqCst);
        drop(inner);
        self.shared.wake.notify_all();
        if let Some(handle) = self.worker.lock().expect("worker slot poisoned").take() {
            let _ = handle.join();
        }
    }

    /// Whether the runner has fully drained (no queued or running work).
    pub fn idle(&self) -> bool {
        let inner = self.shared.inner.lock().expect("runner lock poisoned");
        inner.queue.is_empty()
            && inner
                .records
                .values()
                .all(|r| r.state != CampaignState::Running)
    }
}

impl Drop for CampaignRunner {
    fn drop(&mut self) {
        self.stop_executor();
    }
}

impl RunnerShared {
    fn run(&self) {
        loop {
            let id = {
                let mut inner = self.inner.lock().expect("runner lock poisoned");
                loop {
                    // Draining stops *pickups*, not the in-flight
                    // campaign: queued work stays in the manifest for
                    // the next boot.
                    if self.draining.load(Ordering::SeqCst) {
                        break None;
                    }
                    if let Some(id) = inner.queue.pop_front() {
                        break Some(id);
                    }
                    inner = self.wake.wait(inner).expect("runner lock poisoned");
                }
            };
            let Some(id) = id else { return };
            self.execute(id);
            if self.draining.load(Ordering::SeqCst) {
                return;
            }
        }
    }

    fn execute(&self, id: u64) {
        let (spec, incarnations) = {
            let mut inner = self.inner.lock().expect("runner lock poisoned");
            let record = inner.records.get_mut(&id).expect("queued id has a record");
            record.state = CampaignState::Running;
            (record.spec.clone(), record.incarnations)
        };
        self.persist();

        let fleet_spec = FleetSpec::new(spec.boards, spec.seed);
        let campaign = FleetCampaign::quick();
        let config = spec.fleet_config();
        // The injected kill fires only on the first incarnation —
        // resumptions model the post-crash boot and must run clean.
        let disruption = Disruption {
            kill_coordinator_after: spec.interrupt_after.filter(|_| incarnations == 0),
            ..Disruption::none()
        };

        let result = match &self.data_dir {
            Some(dir) => {
                let mut journal = FleetJournal::new(DirStore::open(campaign_dir(dir, id)));
                run_fleet_durable(&fleet_spec, &campaign, &config, &mut journal, &disruption)
            }
            None => {
                let mut journal = FleetJournal::new(MemStore::new());
                run_fleet_durable(&fleet_spec, &campaign, &config, &mut journal, &disruption)
            }
        };

        match result {
            Ok(run) => self.complete(id, run),
            Err(interrupted) => self.interrupt(id, &interrupted),
        }
        self.persist();
    }

    fn complete(&self, id: u64, run: DurableRun) {
        let report = &run.report;
        let epoch = self
            .inner
            .lock()
            .expect("runner lock poisoned")
            .records
            .get(&id)
            .expect("running id has a record")
            .epoch;
        // Publish BEFORE marking the record completed: a client that
        // polls the campaign to `Completed` and then looks up a safe
        // point must find the new epoch served. Order: safe points,
        // then health (stamped with the new snapshot version), then
        // the metrics base.
        self.state.roll_epoch(epoch, &report.characterization.store);
        self.state.set_status(status_from_report(report));
        let base = Registry::from_snapshot(&self.state.base_metrics());
        for (name, value) in &report.characterization.campaign_counters {
            base.counter_add(name, *value);
        }
        base.counter_add("control_plane_campaigns_completed_total", 1);
        base.gauge_set("control_plane_latest_epoch", f64::from(epoch));
        self.state.set_base_metrics(base.snapshot());

        let mut inner = self.inner.lock().expect("runner lock poisoned");
        let record = inner.records.get_mut(&id).expect("running id has a record");
        record.state = CampaignState::Completed;
        record.incarnations += 1;
        record.executed_jobs += run.stats.executed_jobs;
        record.resumed_completions = run.stats.resumed_completions;
        // `execution.jobs` counts only this incarnation's pool;
        // `characterization.jobs` is the deterministic full job set
        // (initial boards plus eviction retries), identical to an
        // uninterrupted run — the right "exactly once" denominator.
        record.jobs_total = report.characterization.jobs.len() as u64;
        record.boards_characterized = report.characterization.stats.characterized;
        record.total_savings_watts = report.characterization.stats.total_savings_watts;
    }

    fn interrupt(&self, id: u64, interrupted: &FleetInterrupted) {
        let mut inner = self.inner.lock().expect("runner lock poisoned");
        let record = inner.records.get_mut(&id).expect("running id has a record");
        record.state = CampaignState::Interrupted;
        record.incarnations += 1;
        record.executed_jobs += match interrupted {
            FleetInterrupted::CoordinatorKilled { completions }
            | FleetInterrupted::PoolLost { completions, .. } => *completions,
        };
    }

    fn persist(&self) {
        let Some(dir) = &self.data_dir else { return };
        let manifest = {
            let inner = self.inner.lock().expect("runner lock poisoned");
            Manifest {
                next_id: inner.next_id,
                records: inner.records.values().cloned().collect(),
            }
        };
        let _ = std::fs::create_dir_all(dir);
        let tmp = dir.join("campaigns.json.tmp");
        let path = dir.join("campaigns.json");
        if std::fs::write(&tmp, serde::json::to_string(&manifest)).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

fn campaign_dir(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("campaign-{id}"))
}

fn load_manifest(dir: &Path) -> Option<Manifest> {
    let text = std::fs::read_to_string(dir.join("campaigns.json")).ok()?;
    serde::json::from_str(&text).ok()
}

/// Summarizes a finished fleet report into the `/v1/status` shape.
pub fn status_from_report(report: &FleetReport) -> StatusSnapshot {
    let jobs = &report.characterization.jobs;
    let breaker_trips: u64 = jobs.iter().map(|j| j.breaker_trips).sum();
    let mut evicted: Vec<u32> = jobs.iter().filter(|j| j.tripped).map(|j| j.board).collect();
    evicted.sort_unstable();
    evicted.dedup();
    let sentinel_detections = report
        .characterization
        .campaign_counters
        .iter()
        .find(|(name, _)| name == "sentinel_detections_total")
        .map_or(0, |(_, v)| *v);
    StatusSnapshot {
        breaker: if jobs.iter().any(|j| j.tripped) {
            "tripped".to_owned()
        } else {
            "healthy".to_owned()
        },
        breaker_trips,
        sentinel_detections,
        evicted_boards: evicted,
        attacker_quarantines: Vec::new(),
        ..StatusSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU64;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "guardband_cp_{tag}_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::SeqCst)
        ))
    }

    fn wait_for<F: Fn() -> bool>(what: &str, cond: F) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !cond() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn a_campaign_completes_and_publishes_its_epoch() {
        let state = Arc::new(ControlState::new());
        let runner = CampaignRunner::in_memory(state.clone());
        let id = runner.submit(CampaignSpec::new(6, 2018)).unwrap();
        wait_for("completion", || {
            runner.record(id).unwrap().state == CampaignState::Completed
        });
        let record = runner.record(id).unwrap();
        assert_eq!(record.boards_characterized, 6);
        assert!(record.total_savings_watts > 0.0);
        assert_eq!(record.resumed_completions, 0);
        assert_eq!(record.executed_jobs, record.jobs_total);
        // The store is being served.
        let snapshot = state.snapshot();
        assert_eq!(snapshot.index.len(), 6);
        assert_eq!(snapshot.latest_epoch, Some(record.epoch));
        // Status and metrics base followed.
        assert!(state.status().boards_served == 6);
        assert!(state
            .base_metrics()
            .counter("control_plane_campaigns_completed_total")
            .is_some());
        runner.drain();
    }

    #[test]
    fn draining_refuses_new_submissions() {
        let state = Arc::new(ControlState::new());
        let runner = CampaignRunner::in_memory(state);
        runner.drain();
        assert_eq!(runner.submit(CampaignSpec::new(4, 1)), None);
    }

    #[test]
    fn an_interrupted_campaign_resumes_across_a_restart_without_rerunning_jobs() {
        // Baseline: the same campaign, uninterrupted.
        let fleet_spec = FleetSpec::new(8, 77);
        let baseline = fleet::run_fleet(
            &fleet_spec,
            &FleetCampaign::quick(),
            &CampaignSpec::new(8, 77).fleet_config(),
        );

        let dir = unique_dir("resume");
        let state = Arc::new(ControlState::new());
        let runner = CampaignRunner::open(state, &dir);
        let spec = CampaignSpec {
            interrupt_after: Some(3),
            ..CampaignSpec::new(8, 77)
        };
        let id = runner.submit(spec).unwrap();
        wait_for("interrupt", || {
            runner.record(id).unwrap().state == CampaignState::Interrupted
        });
        let first = runner.record(id).unwrap();
        assert_eq!(first.executed_jobs, 3, "the kill fired after 3 jobs");
        runner.drain();
        drop(runner);

        // Reboot on the same directory: the campaign resumes from its
        // journal and the totals prove no job was lost or double-run.
        let state = Arc::new(ControlState::new());
        let runner = CampaignRunner::open(state.clone(), &dir);
        wait_for("resumed completion", || {
            runner.record(id).unwrap().state == CampaignState::Completed
        });
        let record = runner.record(id).unwrap();
        assert_eq!(record.incarnations, 2);
        assert_eq!(record.resumed_completions, 3);
        assert_eq!(
            record.executed_jobs, record.jobs_total,
            "first-life jobs + resumed-life jobs = every job exactly once"
        );
        assert_eq!(record.jobs_total, baseline.execution.jobs);
        assert_eq!(record.boards_characterized, 8);
        runner.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_with_queued_work_loses_nothing_across_restart() {
        // Submit two campaigns and drain while the second is still
        // queued (the first may be running): the manifest persists both,
        // and the reboot finishes whatever did not complete.
        let dir = unique_dir("queued");
        let state = Arc::new(ControlState::new());
        let runner = CampaignRunner::open(state, &dir);
        let a = runner.submit(CampaignSpec::new(4, 21)).unwrap();
        let b = runner.submit(CampaignSpec::new(3, 22)).unwrap();
        runner.drain();
        drop(runner);

        let state = Arc::new(ControlState::new());
        let runner = CampaignRunner::open(state.clone(), &dir);
        for id in [a, b] {
            wait_for("completion after reboot", || {
                runner.record(id).unwrap().state == CampaignState::Completed
            });
            let record = runner.record(id).unwrap();
            assert_eq!(
                record.executed_jobs, record.jobs_total,
                "campaign {id}: every job exactly once"
            );
        }
        // Both campaigns' boards are served (epoch b > epoch a, and the
        // index holds the union's latest records).
        assert_eq!(state.snapshot().latest_epoch, Some(b as u32));
        assert_eq!(state.snapshot().index.len(), 4);
        runner.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rebooted_runner_reserves_completed_campaigns() {
        let dir = unique_dir("reserve");
        let state = Arc::new(ControlState::new());
        let runner = CampaignRunner::open(state, &dir);
        let id = runner.submit(CampaignSpec::new(5, 9)).unwrap();
        wait_for("completion", || {
            runner.record(id).unwrap().state == CampaignState::Completed
        });
        runner.drain();
        drop(runner);

        // A fresh boot re-serves the checkpointed store without
        // re-running anything.
        let state = Arc::new(ControlState::new());
        let runner = CampaignRunner::open(state.clone(), &dir);
        let record = runner.record(id).unwrap();
        assert_eq!(record.state, CampaignState::Completed);
        assert_eq!(state.snapshot().index.len(), 5);
        runner.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
