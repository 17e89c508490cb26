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
//!   [`FleetInterrupted`] — a crash (or an injected one), or a journal
//!   that began another campaign, which the run refuses before touching
//!   it. Interrupted campaigns are *not* silently retried in-process;
//!   like a killed coordinator they resume on the next boot, from their
//!   journal, so a drain that races a crash can never double-run a job
//!   (a foreign journal is refused again on every boot).
//! * **Interrupted/Running/Queued → Queued** on boot: anything the
//!   previous incarnation left unfinished re-enters the queue and
//!   [`fleet::run_fleet_durable`] replays its journal, re-running only
//!   jobs with no journaled completion.
//!
//! Every transition persists the manifest (`campaigns.json`, written
//! atomically under the runner's one lock, so the file on disk is always
//! the newest state) when the runner owns a data directory; each
//! campaign's write-ahead journal lives in `campaign-<id>/` beside it,
//! and boot hands out ids past every such directory even if the
//! manifest was lost. A runner without a data directory has no next
//! boot to resume from, so each run gets a fresh in-memory journal that
//! is dropped when the run ends.

use crate::state::{ControlState, StatusSnapshot};
use fleet::{
    run_fleet_durable, DirStore, Disruption, DurableRun, FleetCampaign, FleetConfig,
    FleetInterrupted, FleetJournal, FleetReport, FleetSpec, MemStore,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

/// Everything the runner lock guards.
#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    records: BTreeMap<u64, CampaignRecord>,
    queue: VecDeque<u64>,
    /// Set once by a drain: refuses submissions and stops pickups.
    draining: bool,
    /// The executor thread, until a drain takes it to join.
    executor: Option<JoinHandle<()>>,
}

/// The campaign runner: accepts submissions, executes them one at a
/// time on a background thread, persists every transition, and resumes
/// unfinished campaigns on boot.
#[derive(Debug)]
pub struct CampaignRunner {
    shared: Arc<RunnerShared>,
}

#[derive(Debug)]
struct RunnerShared {
    state: Arc<ControlState>,
    data_dir: Option<PathBuf>,
    inner: Mutex<Inner>,
    wake: Condvar,
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
            // A lost or undecodable manifest must not hand out an id
            // whose journal an earlier campaign wrote.
            inner.next_id = inner.next_id.max(first_unjournaled_id(dir));
        }
        let shared = Arc::new(RunnerShared {
            state,
            data_dir,
            inner: Mutex::new(inner),
            wake: Condvar::new(),
        });
        shared.persist(&shared.lock());
        let executor = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                while let Some(id) = shared.next_queued() {
                    shared.execute(id);
                }
            })
        };
        shared.lock().executor = Some(executor);
        Arc::new(CampaignRunner { shared })
    }

    /// Submits a campaign; returns its id, or `None` while draining.
    pub fn submit(&self, spec: CampaignSpec) -> Option<u64> {
        let mut inner = self.shared.lock();
        if inner.draining {
            return None;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.records.insert(id, CampaignRecord::new(id, spec));
        inner.queue.push_back(id);
        self.shared.persist(&inner);
        drop(inner);
        self.shared.wake.notify_all();
        Some(id)
    }

    /// One campaign's record.
    pub fn record(&self, id: u64) -> Option<CampaignRecord> {
        self.shared.lock().records.get(&id).cloned()
    }

    /// Every record, id-ascending.
    pub fn records(&self) -> Vec<CampaignRecord> {
        self.shared.lock().records.values().cloned().collect()
    }

    /// SIGTERM-style drain: refuse new submissions, let the in-flight
    /// campaign finish (its journal makes even a hard kill recoverable)
    /// and stop the executor thread; the manifest already holds every
    /// transition. Blocks until the thread exits.
    ///
    /// The flag is raised under the runner lock, so the executor cannot
    /// check it, miss the store and then sleep through the wake-up, and
    /// no submission lands after it.
    pub fn drain(&self) {
        let executor = {
            let mut inner = self.shared.lock();
            inner.draining = true;
            inner.executor.take()
        };
        self.shared.wake.notify_all();
        if let Some(executor) = executor {
            let _ = executor.join();
        }
    }
}

impl Drop for CampaignRunner {
    fn drop(&mut self) {
        self.drain();
    }
}

impl RunnerShared {
    /// The runner lock. Every critical section leaves [`Inner`] whole (a
    /// transition is a few field stores), so a panic that poisoned it
    /// left nothing half-updated and the lock is taken through it.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until a campaign is queued and dequeues it; `None` once
    /// draining. Draining stops *pickups*, not the in-flight campaign:
    /// queued work stays in the manifest for the next boot.
    fn next_queued(&self) -> Option<u64> {
        let mut inner = self.lock();
        loop {
            if inner.draining {
                return None;
            }
            if let Some(id) = inner.queue.pop_front() {
                return Some(id);
            }
            inner = self
                .wake
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn execute(&self, id: u64) {
        let (spec, incarnations, epoch) = self.transition(id, |record| {
            record.state = CampaignState::Running;
            (record.spec.clone(), record.incarnations, record.epoch)
        });

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
            Ok(run) => self.complete(id, epoch, run),
            Err(interrupted) => self.interrupt(id, &interrupted),
        }
    }

    fn complete(&self, id: u64, epoch: u32, run: DurableRun) {
        let report = &run.report;
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

        self.transition(id, |record| {
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
        });
    }

    fn interrupt(&self, id: u64, interrupted: &FleetInterrupted) {
        self.transition(id, |record| {
            record.state = CampaignState::Interrupted;
            record.incarnations += 1;
            record.executed_jobs += match interrupted {
                FleetInterrupted::CoordinatorKilled { completions }
                | FleetInterrupted::PoolLost { completions, .. } => *completions,
                FleetInterrupted::ForeignJournal { .. } => 0,
            };
        });
    }

    /// Applies one transition to a dequeued campaign's record and
    /// persists the manifest before releasing the lock.
    fn transition<R>(&self, id: u64, apply: impl FnOnce(&mut CampaignRecord) -> R) -> R {
        let mut inner = self.lock();
        let record = inner
            .records
            .get_mut(&id)
            .expect("a dequeued id has a record");
        let out = apply(record);
        self.persist(&inner);
        out
    }

    /// Writes the manifest atomically. The caller holds the runner lock,
    /// so writes never interleave on the temporary file and the manifest
    /// renamed last is the newest state.
    fn persist(&self, inner: &Inner) {
        let Some(dir) = &self.data_dir else { return };
        let manifest = Manifest {
            next_id: inner.next_id,
            records: inner.records.values().cloned().collect(),
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

/// One past the highest id with a `campaign-<id>` journal directory.
fn first_unjournaled_id(dir: &Path) -> u64 {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    entries
        .filter_map(|entry| {
            let id = entry
                .file_name()
                .to_str()?
                .strip_prefix("campaign-")?
                .parse::<u64>();
            Some(id.ok()?.saturating_add(1))
        })
        .max()
        .unwrap_or(0)
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
        use std::sync::atomic::{AtomicU64, Ordering};
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
    fn a_lost_manifest_does_not_hand_out_a_journaled_id() {
        let dir = unique_dir("lost_manifest");
        let runner = CampaignRunner::open(Arc::new(ControlState::new()), &dir);
        let first = runner.submit(CampaignSpec::new(2, 1)).unwrap();
        wait_for("completion", || {
            runner.record(first).unwrap().state == CampaignState::Completed
        });
        runner.drain();
        drop(runner);
        std::fs::remove_file(dir.join("campaigns.json")).unwrap();

        // The reboot has no record of campaign 0, but its journal is on
        // disk: the next campaign must not reuse that directory.
        let runner = CampaignRunner::open(Arc::new(ControlState::new()), &dir);
        let next = runner.submit(CampaignSpec::new(3, 2)).unwrap();
        assert_eq!(next, first + 1, "campaign-{first}/ already holds a journal");
        wait_for("completion after the lost manifest", || {
            runner.record(next).unwrap().state == CampaignState::Completed
        });
        assert_eq!(runner.record(next).unwrap().boards_characterized, 3);
        runner.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_foreign_journal_interrupts_its_campaign_and_the_executor_moves_on() {
        let dir = unique_dir("foreign_journal");
        let runner = CampaignRunner::open(Arc::new(ControlState::new()), &dir);
        let first = runner.submit(CampaignSpec::new(2, 1)).unwrap();
        wait_for("completion", || {
            runner.record(first).unwrap().state == CampaignState::Completed
        });
        let done = runner.record(first).unwrap();
        runner.drain();
        drop(runner);

        // The manifest now says campaign 0 was running seed 2, but its
        // journal began seed 1.
        let mut manifest = load_manifest(&dir).unwrap();
        manifest.records[0].state = CampaignState::Running;
        manifest.records[0].spec.seed = 2;
        std::fs::write(
            dir.join("campaigns.json"),
            serde::json::to_string(&manifest),
        )
        .unwrap();

        let runner = CampaignRunner::open(Arc::new(ControlState::new()), &dir);
        let next = runner.submit(CampaignSpec::new(2, 3)).unwrap();
        wait_for("the next campaign after the refused one", || {
            runner.record(next).unwrap().state == CampaignState::Completed
        });
        let refused = runner.record(first).unwrap();
        assert_eq!(refused.state, CampaignState::Interrupted);
        assert_eq!(refused.incarnations, done.incarnations + 1);
        assert_eq!(refused.executed_jobs, done.executed_jobs, "no job ran");
        runner.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_runner_lock_still_serves_submit_and_record() {
        let runner = CampaignRunner::in_memory(Arc::new(ControlState::new()));
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = runner.shared.inner.lock();
                    panic!("a thread dies holding the runner lock");
                })
                .join()
        });
        assert!(died.is_err());
        assert!(runner.shared.inner.is_poisoned());
        // The executor still waits, dequeues and records the campaign
        // through the poisoned lock.
        let id = runner.submit(CampaignSpec::new(2, 3)).unwrap();
        wait_for("completion under a poisoned lock", || {
            runner.record(id).unwrap().state == CampaignState::Completed
        });
        assert_eq!(runner.records().len(), 1);
        runner.drain();
        assert_eq!(runner.submit(CampaignSpec::new(2, 3)), None);
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
