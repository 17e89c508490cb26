//! The fleet coordinator: shard, execute, evict, merge.
//!
//! There is one coordinator loop, [`run_fleet_durable`]. It seeds a
//! bounded FIFO [`FleetQueue`] with one job per board, runs them on a
//! pool of worker threads, listens for outcomes, and re-queues any board
//! the safety net evicted (breaker tripped) with a raised search floor
//! and the per-bank retention result of the attempt it follows, so the
//! follow-up draws no DRAM — journaling every claim, completion and merge
//! before acting on it.
//! [`run_fleet`] is that loop over a fresh in-memory journal with no
//! injected faults, so every fleet campaign runs the path the chaos
//! harness certifies. When the last job lands the coordinator sorts
//! every outcome into `(board, attempt)` order and only then aggregates
//! — the merged [`SafePointStore`], population stats, summed campaign
//! counters and the modeled schedule are all computed from sorted data,
//! never from arrival order. Together with pure board specs and pure job
//! execution this yields the headline invariant: an N-worker run's
//! characterization output is byte-identical to the serial run's.

use crate::job::{self, BoardOutcome, FleetCampaign, FleetJob};
use crate::journal::{FleetJournal, JournalDamage, JournalEntry, JournalStore, MemStore};
use crate::population::{BoardSpec, FleetSpec};
use crate::queue::FleetQueue;
use crate::report::{FleetCharacterization, FleetExecution, FleetReport, JobSummary};
use crate::schedule::ScheduleModel;
use guardband_core::safepoint::SafePointStore;
use observatory::{BoardStream, Observatory, SloSpec, StreamBuilder};
use power_model::units::Millivolts;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;
use telemetry::{counter, event, gauge, observe, span, FieldValue, Level};

/// Per-board power-savings floor for the fleet SLO, watts. A
/// characterized board on the DSN'18 testbed reclaims several watts;
/// a board whose record projects less than this either failed to
/// characterize or is pinned at nominal, and the observatory should page.
pub const FLEET_SAVINGS_FLOOR_WATTS: f64 = 0.5;

/// Name of the per-board savings-floor SLO declared by [`run_fleet`].
pub const FLEET_SAVINGS_SLO: &str = "board-savings-floor";

/// Unique completions between durable store-checkpoint commits.
pub const CHECKPOINT_EVERY: u64 = 4;

/// The eviction predicate and floor arithmetic, as one pure function:
/// `Some(raised_floor_mv)` when `outcome` must be re-queued for another
/// attempt, `None` when it is terminal. Every consumer of the predicate
/// — the live coordinator loop, the observatory re-synthesis, durable
/// crash recovery's job-closure recomputation, and the chaos invariant
/// checker — calls this one definition, so they can never drift apart.
pub fn eviction_floor(outcome: &BoardOutcome, config: &FleetConfig) -> Option<u32> {
    if outcome.tripped && outcome.attempt + 1 < config.max_attempts {
        outcome
            .highest_failure_mv
            .map(|mv| (mv + config.requeue_backoff_mv).min(Millivolts::XGENE2_NOMINAL.as_u32()))
    } else {
        None
    }
}

/// Builds the fleet observatory from `(board, attempt)`-sorted outcomes.
///
/// Every input is already arrival-order-free: per-job traces and dumps
/// ride on the sorted outcomes, and the coordinator's eviction events
/// are *re-synthesized* here from the same predicate and floor
/// arithmetic the live path uses, rather than captured from the racy
/// coordinator thread. The result is byte-identical across pool sizes.
fn assemble_observatory(
    outcomes: &[BoardOutcome],
    store: &SafePointStore,
    config: &FleetConfig,
) -> Observatory {
    let mut obs = Observatory::new();
    obs.add_slo(SloSpec::savings_floor(
        FLEET_SAVINGS_SLO,
        FLEET_SAVINGS_FLOOR_WATTS,
    ));
    for outcome in outcomes {
        let epoch = u64::from(outcome.attempt);
        obs.ingest_stream(BoardStream::from_events(
            epoch,
            outcome.board,
            outcome.trace.clone(),
        ));
        obs.ingest_dumps(epoch, outcome.board, outcome.dumps.clone());
        // The live coordinator loop's eviction predicate, verbatim.
        if let Some(floor) = eviction_floor(outcome, config) {
            let mut coordinator = StreamBuilder::coordinator(epoch, outcome.board);
            coordinator.push(
                Level::Warn,
                "fleet_board_evicted",
                vec![
                    (
                        "board".to_owned(),
                        FieldValue::U64(u64::from(outcome.board)),
                    ),
                    (
                        "attempt".to_owned(),
                        FieldValue::U64(u64::from(outcome.attempt)),
                    ),
                    (
                        "raised_floor_mv".to_owned(),
                        FieldValue::U64(u64::from(floor)),
                    ),
                ],
            );
            obs.ingest_stream(coordinator.finish());
        }
    }
    // One savings observation per surviving record, in board order.
    for record in store.records() {
        obs.slo_observe(
            FLEET_SAVINGS_SLO,
            u64::from(record.board),
            Some(record.board),
            record.savings_watts,
        );
    }
    obs
}

/// Pool and eviction policy of a fleet run. Changing any knob here may
/// change *how fast* the fleet characterizes, never *what* it measures —
/// except `max_attempts` and `requeue_backoff_mv`, which are part of the
/// campaign semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker threads.
    pub workers: usize,
    /// Does nothing: the coordinator holds every pending job anyway, so
    /// its queue is unbounded and a push never waits on workers that
    /// may all be dead. It stays so the benchmark package keeps
    /// compiling; the next change to the benchmark removes it.
    pub queue_capacity: usize,
    /// Does nothing: a worker takes one job at a time from the queue's
    /// front. It stays so the benchmark package keeps compiling; the next
    /// change to the benchmark removes it.
    pub batch_size: usize,
    /// Characterization attempts per board (1 = never re-queue).
    pub max_attempts: u32,
    /// How far above the highest observed failure a re-queued board's
    /// search floor is raised, mV.
    pub requeue_backoff_mv: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            queue_capacity: 64,
            batch_size: 4,
            max_attempts: 2,
            requeue_backoff_mv: 15,
        }
    }
}

impl FleetConfig {
    /// The default policy with an explicit pool size.
    pub fn with_workers(workers: usize) -> Self {
        FleetConfig {
            workers,
            ..FleetConfig::default()
        }
    }
}

/// Characterizes the whole fleet: [`run_fleet_durable`] over a fresh
/// in-memory journal with no injected faults. See the module docs for
/// the determinism argument.
///
/// # Panics
///
/// Panics if `config.workers` or `config.max_attempts` is zero, or if a
/// worker thread panics.
pub fn run_fleet(spec: &FleetSpec, campaign: &FleetCampaign, config: &FleetConfig) -> FleetReport {
    let mut journal = FleetJournal::new(MemStore::new());
    run_fleet_durable(spec, campaign, config, &mut journal, &Disruption::none())
        .expect("an undisrupted run on a fresh journal completes")
        .report
}

/// Folds outcomes into the final [`FleetReport`]. Everything here works
/// over `(board, attempt)`-sorted data, so no trace of arrival order —
/// or of *which run incarnation executed which job* — survives into the
/// report: an uninterrupted run and a crash-recovered one produce
/// byte-identical characterization output.
fn aggregate(
    spec: &FleetSpec,
    config: &FleetConfig,
    mut outcomes: Vec<BoardOutcome>,
    per_worker_jobs: Vec<u64>,
) -> FleetReport {
    outcomes.sort_by_key(|o| (o.board, o.attempt));
    // Every attempt past the first is an eviction's follow-up.
    let requeues = outcomes.iter().filter(|o| o.attempt > 0).count() as u64;
    let mut store = SafePointStore::new();
    for outcome in &outcomes {
        store.insert(outcome.record.clone());
    }
    let stats = store.stats();
    let costs: Vec<f64> = outcomes.iter().map(|o| o.sim_cost_seconds).collect();
    let plan = ScheduleModel::plan(&costs, config.workers);

    let mut summed: BTreeMap<String, u64> = BTreeMap::new();
    for outcome in &outcomes {
        for (name, value) in &outcome.metrics.counters {
            *summed.entry(name.clone()).or_insert(0) += value;
        }
    }
    let campaign_counters: Vec<(String, u64)> = summed.into_iter().collect();

    counter!("fleet_jobs_total", outcomes.len() as u64);
    counter!("fleet_requeues_total", requeues);
    counter!("fleet_boards_characterized", stats.characterized as u64);
    gauge!("fleet_total_savings_watts", stats.total_savings_watts);
    let _ = telemetry::with_registry(|reg| {
        reg.register_histogram(
            "fleet_margin_mv",
            &[10.0, 20.0, 30.0, 40.0, 60.0, 80.0, 120.0],
        );
    });
    for record in store.records() {
        if let Some(margin) = record.margin_mv() {
            observe!("fleet_margin_mv", margin as f64);
        }
    }
    // Per-board labeled series alongside the fleet-wide aggregates, so a
    // Prometheus scrape can tell *which* board is dragging the totals.
    let _ = telemetry::with_registry(|reg| {
        for record in store.records() {
            let board = format!("b{}", record.board);
            let labels = [("board", board.as_str())];
            reg.gauge_set_labeled("fleet_board_savings_watts", &labels, record.savings_watts);
            if let Some(margin) = record.margin_mv() {
                reg.gauge_set_labeled("fleet_board_margin_mv", &labels, margin as f64);
            }
        }
    });
    for (worker, jobs) in per_worker_jobs.iter().enumerate() {
        event!(
            Level::Debug,
            "fleet_worker_done",
            worker = worker as u64,
            jobs = *jobs,
        );
    }

    let jobs = outcomes
        .iter()
        .map(|o| JobSummary {
            board: o.board,
            attempt: o.attempt,
            tripped: o.tripped,
            runs: o.runs,
            watchdog_resets: o.watchdog_resets,
            quarantined_setups: o.quarantined_setups,
            breaker_trips: o.breaker_trips,
            backoff_ms: o.backoff_ms,
            sim_cost_seconds: o.sim_cost_seconds,
        })
        .collect();
    let characterization = FleetCharacterization {
        boards: spec.boards,
        seed: spec.seed,
        store,
        stats,
        jobs,
        campaign_counters,
        sim_serial_seconds: plan.serial_seconds,
    };
    let execution = FleetExecution::new(per_worker_jobs, requeues, &plan);
    let observatory = assemble_observatory(&outcomes, &characterization.store, config).finish();
    FleetReport {
        characterization,
        execution,
        observatory,
    }
}

/// Fault-injection schedule for one [`run_fleet_durable`] incarnation.
/// Chaos-agnostic on purpose: the chaos crate compiles its seeded
/// [`ChaosPlan`](../../chaos) rounds down to this, but production
/// callers just pass [`Disruption::none`] and get the durability
/// machinery (journaling, checkpoints, dead-worker handling) with no
/// faults injected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Disruption {
    /// Kill the coordinator (return [`FleetInterrupted::CoordinatorKilled`])
    /// once it has processed this many unique completions in this
    /// incarnation. `None` or a count past the backlog never fires.
    pub kill_coordinator_after: Option<u64>,
    /// `(worker, after_jobs)`: the worker dies *holding its next job*
    /// after completing `after_jobs` — modelling a lease expiry whose
    /// in-flight job, the only one it holds, must come back exactly once.
    pub worker_deaths: Vec<(usize, u64)>,
    /// Deliver the first N completions twice — at-least-once queue
    /// semantics. Duplicates must be absorbed by idempotent merges and
    /// dropped from the aggregation multiset.
    pub duplicate_deliveries: u64,
}

impl Disruption {
    /// No injected faults: plain durable operation.
    pub fn none() -> Self {
        Disruption::default()
    }
}

/// Why a durable incarnation stopped short of completion. A killed
/// coordinator or a lost pool is *recoverable*: restart
/// [`run_fleet_durable`] on the same journal and it resumes from the
/// intact prefix. A foreign journal is not: a restart refuses it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetInterrupted {
    /// The injected coordinator kill fired.
    CoordinatorKilled {
        /// Unique completions this incarnation had processed.
        completions: u64,
    },
    /// Every worker died with jobs still outstanding: the pool degraded
    /// to zero and the campaign cannot make progress.
    PoolLost {
        /// Unique completions this incarnation had processed.
        completions: u64,
        /// Workers lost before the pool emptied.
        workers_lost: u64,
    },
    /// The journal began another campaign: its identity `(boards, seed,
    /// max_attempts, requeue_backoff_mv)` differs from this run's. The
    /// run appended nothing, and no restart on this journal can cure it.
    ForeignJournal {
        /// The identity the journal began with.
        journal: (u32, u64, u32, u32),
        /// The identity of the refused run.
        run: (u32, u64, u32, u32),
    },
}

impl std::fmt::Display for FleetInterrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetInterrupted::CoordinatorKilled { completions } => {
                write!(f, "coordinator killed after {completions} completions")
            }
            FleetInterrupted::PoolLost {
                completions,
                workers_lost,
            } => write!(
                f,
                "worker pool lost ({workers_lost} deaths) after {completions} completions"
            ),
            FleetInterrupted::ForeignJournal { journal, run } => write!(
                f,
                "journal began campaign {journal:?}, not {run:?} (boards, seed, \
                 max_attempts, requeue_backoff_mv)"
            ),
        }
    }
}

/// Recovery bookkeeping from one *successful* durable incarnation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurableStats {
    /// Completions recovered from the journal instead of re-executed.
    pub resumed_completions: u64,
    /// Jobs actually executed by this incarnation's pool.
    pub executed_jobs: u64,
    /// Duplicate deliveries absorbed (merged idempotently, dropped from
    /// the aggregation multiset).
    pub duplicates_dropped: u64,
    /// The store checkpoint failed its seal or schema check and recovery
    /// fell back to journal replay.
    pub checkpoint_rejected: bool,
    /// Damage found at the journal tail during replay, if any.
    pub journal_damage: Option<JournalDamage>,
    /// Workers that died during this incarnation (the pool shrank but
    /// survived).
    pub workers_lost: u64,
}

/// A completed durable run: the ordinary report plus how it got there.
#[derive(Debug)]
pub struct DurableRun {
    /// The fleet report — `characterization_json()` is byte-identical to
    /// an uninterrupted run of the same spec and campaign.
    pub report: FleetReport,
    /// Recovery bookkeeping for this incarnation.
    pub stats: DurableStats,
}

/// A queued job. A follow-up carries the per-bank safe refresh periods
/// of the attempt it follows, so its worker reads no DRAM; the journal's
/// `JobClaimed` frame records the job alone.
struct Queued {
    job: FleetJob,
    bank_safe_trefp_ms: Option<Vec<f64>>,
}

impl Queued {
    /// The first attempt at `board`, which probes its DRAM.
    fn first(board: BoardSpec) -> Self {
        Queued {
            job: FleetJob {
                board,
                attempt: 0,
                floor_override_mv: None,
            },
            bank_safe_trefp_ms: None,
        }
    }

    /// The follow-up of `outcome` at the raised floor `floor_mv`,
    /// inheriting its retention probe.
    fn follow_up(spec: &FleetSpec, outcome: &BoardOutcome, floor_mv: u32) -> Self {
        Queued {
            job: FleetJob {
                board: spec.board(outcome.board),
                attempt: outcome.attempt + 1,
                floor_override_mv: Some(floor_mv),
            },
            bank_safe_trefp_ms: Some(outcome.record.bank_safe_trefp_ms.clone()),
        }
    }
}

enum WorkerMsg {
    Done(BoardOutcome),
    Died { worker: usize, in_flight: Queued },
}

/// The fleet coordinator loop, crash-consistent: every claim, completion
/// and merge is journaled before it takes effect, the merged store is
/// checkpointed (sealed, atomically) every [`CHECKPOINT_EVERY`]
/// completions, and on entry the journal is replayed so a restarted
/// coordinator re-runs *only* unfinished jobs — recomputing the
/// expected-job closure from journaled completions with the same
/// [`eviction_floor`] predicate the live loop uses, which is sound
/// because job execution is pure. A dead worker's in-flight job, the only
/// one it holds, is re-queued exactly once; a pool that shrinks keeps
/// going, a pool that empties returns [`FleetInterrupted::PoolLost`].
///
/// # Errors
///
/// Returns [`FleetInterrupted`] when an injected fault stops the
/// incarnation; restarting on the same journal resumes the campaign.
/// Returns [`FleetInterrupted::ForeignJournal`], before appending
/// anything, when the journal belongs to a different campaign (another
/// fleet size, seed or eviction policy); a restart refuses it again.
///
/// # Panics
///
/// Panics if `config.workers` or `config.max_attempts` is zero, or if a
/// worker thread panics.
pub fn run_fleet_durable<S: JournalStore>(
    spec: &FleetSpec,
    campaign: &FleetCampaign,
    config: &FleetConfig,
    journal: &mut FleetJournal<S>,
    disruption: &Disruption,
) -> Result<DurableRun, FleetInterrupted> {
    assert!(config.max_attempts > 0, "fleet needs at least one attempt");
    assert!(config.workers > 0, "fleet needs at least one worker");
    let _fleet_span = span!(
        Level::Info,
        "fleet",
        boards = spec.boards,
        workers = config.workers as u64,
    );

    // ---- Recovery: replay the journal's intact prefix. ----
    let replay = journal.replay();
    let mut stats = DurableStats {
        journal_damage: replay.damage.clone(),
        ..DurableStats::default()
    };
    if let Some(damage) = &replay.damage {
        event!(
            Level::Warn,
            "fleet_journal_damaged",
            detail = damage.to_string()
        );
        counter!("fleet_journal_damage_total", 1);
    }
    let begun = replay.entries.iter().find_map(|e| match e {
        JournalEntry::CampaignBegun {
            boards,
            seed,
            max_attempts,
            requeue_backoff_mv,
        } => Some((*boards, *seed, *max_attempts, *requeue_backoff_mv)),
        _ => None,
    });
    let identity = (
        spec.boards,
        spec.seed,
        config.max_attempts,
        config.requeue_backoff_mv,
    );
    match begun {
        Some(found) if found != identity => {
            return Err(FleetInterrupted::ForeignJournal {
                journal: found,
                run: identity,
            })
        }
        Some(_) => {}
        None => journal.append(&JournalEntry::CampaignBegun {
            boards: spec.boards,
            seed: spec.seed,
            max_attempts: config.max_attempts,
            requeue_backoff_mv: config.requeue_backoff_mv,
        }),
    }

    // Completions recovered from the journal, deduplicated by
    // `(board, attempt)` — duplicates are byte-identical by purity, so
    // keeping the first is keeping them all.
    let mut completed: BTreeMap<(u32, u32), BoardOutcome> = BTreeMap::new();
    for entry in &replay.entries {
        if let JournalEntry::JobCompleted { outcome } = entry {
            completed
                .entry((outcome.board, outcome.attempt))
                .or_insert_with(|| outcome.clone());
        }
    }
    stats.resumed_completions = completed.len() as u64;
    if stats.resumed_completions > 0 {
        event!(
            Level::Info,
            "fleet_recovered",
            resumed = stats.resumed_completions,
        );
        counter!("fleet_recoveries_total", 1);
    }

    // The checkpoint is an accelerator and an export artifact; the
    // journal is the recovery authority. Verify the checkpoint's seal
    // here so corruption is *detected and typed* — and then fall back to
    // replay either way, which is always last-good.
    if let Err(err) = journal.load_store_checkpoint() {
        stats.checkpoint_rejected = true;
        event!(
            Level::Warn,
            "fleet_checkpoint_rejected",
            detail = err.to_string(),
        );
        counter!("fleet_checkpoint_rejected_total", 1);
    }

    // Expected-job closure: every board at attempt 0, plus the
    // eviction-predicate follow-up of every journaled completion.
    // Outstanding work is the closure minus what already completed.
    // A follow-up inherits its retention probe from the journaled outcome
    // it follows, as in the live loop.
    let mut pending: Vec<Queued> = Vec::new();
    for board in spec.all_boards() {
        if !completed.contains_key(&(board.id, 0)) {
            pending.push(Queued::first(board));
        }
    }
    for outcome in completed.values() {
        if let Some(floor) = eviction_floor(outcome, config) {
            if !completed.contains_key(&(outcome.board, outcome.attempt + 1)) {
                pending.push(Queued::follow_up(spec, outcome, floor));
            }
        }
    }

    // Live store for periodic checkpoints, seeded from recovered
    // completions. Insertion order varies across incarnations; the
    // semilattice makes the merged value order-independent.
    let mut live_store = SafePointStore::new();
    for outcome in completed.values() {
        live_store.insert(outcome.record.clone());
    }

    // ---- Execution: pool with a death schedule. ----
    // Unbounded: every pending job is already in memory, and a push that
    // waited for room could wait on workers that have all died.
    let queue = FleetQueue::new(config.workers, usize::MAX, config.batch_size);
    let (tx, rx) = mpsc::channel::<WorkerMsg>();
    let deaths: BTreeMap<usize, u64> = disruption.worker_deaths.iter().copied().collect();
    let mut duplicates_left = disruption.duplicate_deliveries;
    let mut interrupted: Option<FleetInterrupted> = None;

    let per_worker_jobs: Vec<u64> = thread::scope(|scope| {
        let handles: Vec<_> = (0..config.workers)
            .map(|w| {
                let tx = tx.clone();
                let queue = &queue;
                let death_at = deaths.get(&w).copied();
                scope.spawn(move || {
                    let mut jobs = 0u64;
                    while let Some(next) = queue.next(w) {
                        if death_at == Some(jobs) {
                            // Die holding the job: report it so the
                            // coordinator re-queues it exactly once.
                            let _ = tx.send(WorkerMsg::Died {
                                worker: w,
                                in_flight: next,
                            });
                            return jobs;
                        }
                        let outcome = job::execute_following(
                            &next.job,
                            campaign,
                            spec.population,
                            next.bank_safe_trefp_ms.as_deref(),
                        );
                        jobs += 1;
                        if tx.send(WorkerMsg::Done(outcome)).is_err() {
                            break;
                        }
                    }
                    jobs
                })
            })
            .collect();
        drop(tx);

        // Every dispatch is journaled as a claim before the job is queued.
        let claim = |journal: &mut FleetJournal<S>, queued: Queued| {
            journal.append(&JournalEntry::JobClaimed {
                board: queued.job.board.id,
                attempt: queued.job.attempt,
                floor_override_mv: queued.job.floor_override_mv,
            });
            queue.push(queued);
        };
        let mut outstanding: u64 = 0;
        for queued in pending {
            claim(journal, queued);
            outstanding += 1;
        }

        let mut processed: u64 = 0;
        let mut alive = config.workers as u64;
        while outstanding > 0 {
            if disruption.kill_coordinator_after == Some(processed) {
                interrupted = Some(FleetInterrupted::CoordinatorKilled {
                    completions: processed,
                });
                break;
            }
            let msg = match rx.recv() {
                Ok(msg) => msg,
                Err(_) => {
                    // Every worker exited without a death report: they
                    // panicked, and joining them below re-raises that.
                    interrupted = Some(FleetInterrupted::PoolLost {
                        completions: processed,
                        workers_lost: stats.workers_lost,
                    });
                    break;
                }
            };
            match msg {
                WorkerMsg::Done(outcome) => {
                    // At-least-once delivery processes a completion twice.
                    // Purity makes the duplicate byte-identical; the merge
                    // absorbs it.
                    let deliveries = if duplicates_left > 0 {
                        duplicates_left -= 1;
                        stats.duplicates_dropped += 1;
                        2
                    } else {
                        1
                    };
                    for _ in 0..deliveries {
                        // Journal before acting: claim→complete→merge is
                        // the write-ahead order recovery replays.
                        journal.append(&JournalEntry::JobCompleted {
                            outcome: outcome.clone(),
                        });
                        live_store.insert(outcome.record.clone());
                        journal.append(&JournalEntry::MergeCommitted {
                            epoch: 0,
                            board: outcome.board,
                            attempt: outcome.attempt,
                        });
                    }
                    processed += 1;
                    stats.executed_jobs += 1;
                    if processed.is_multiple_of(CHECKPOINT_EVERY) {
                        journal.commit_store_checkpoint(&live_store);
                    }
                    // Eviction: a tripped breaker means the board
                    // misbehaved below its real limits. Send it back to
                    // nominal and re-characterize with the floor raised
                    // clear of the observed crash zone.
                    if let Some(floor) = eviction_floor(&outcome, config) {
                        if !completed.contains_key(&(outcome.board, outcome.attempt + 1)) {
                            event!(
                                Level::Warn,
                                "fleet_board_evicted",
                                board = outcome.board,
                                attempt = outcome.attempt,
                                raised_floor_mv = floor,
                            );
                            claim(journal, Queued::follow_up(spec, &outcome, floor));
                            outstanding += 1;
                        }
                    }
                    completed
                        .entry((outcome.board, outcome.attempt))
                        .or_insert(outcome);
                    outstanding -= 1;
                }
                WorkerMsg::Died { worker, in_flight } => {
                    alive -= 1;
                    stats.workers_lost += 1;
                    event!(Level::Warn, "fleet_worker_died", worker = worker as u64);
                    counter!("fleet_worker_deaths_total", 1);
                    claim(journal, in_flight);
                    if alive == 0 {
                        interrupted = Some(FleetInterrupted::PoolLost {
                            completions: processed,
                            workers_lost: stats.workers_lost,
                        });
                        break;
                    }
                }
            }
        }
        queue.close();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    if let Some(interrupted) = interrupted {
        // A crash commits nothing further: no CampaignCompleted, no
        // final checkpoint. The journal's intact prefix is the restart
        // point.
        return Err(interrupted);
    }

    journal.append(&JournalEntry::CampaignCompleted);
    journal.commit_store_checkpoint(&live_store);

    // The aggregation multiset is the deduplicated completion map —
    // exactly one outcome per `(board, attempt)`, the same multiset an
    // uninterrupted run produces — already in sorted order.
    let outcomes: Vec<BoardOutcome> = completed.into_values().collect();
    let report = aggregate(spec, config, outcomes, per_worker_jobs);
    Ok(DurableRun { report, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet() -> FleetSpec {
        FleetSpec::new(10, 2018)
    }

    #[test]
    fn parallel_runs_match_the_serial_run_byte_for_byte() {
        let spec = small_fleet();
        let campaign = FleetCampaign::quick();
        let serial = run_fleet(&spec, &campaign, &FleetConfig::with_workers(1));
        let pooled = run_fleet(&spec, &campaign, &FleetConfig::with_workers(4));
        assert_eq!(
            serial.characterization_json(),
            pooled.characterization_json()
        );
        assert_eq!(
            serial.observatory_json(),
            pooled.observatory_json(),
            "the observatory report is pool-independent too"
        );
        assert_eq!(serial.execution.jobs, pooled.execution.jobs);
        assert_ne!(serial.execution.workers, pooled.execution.workers);
    }

    #[test]
    fn the_observatory_reconstructs_every_eviction_as_an_incident() {
        let spec = small_fleet();
        let campaign = FleetCampaign::quick(); // injects sub-Vmin SDC
        let report = run_fleet(&spec, &campaign, &FleetConfig::with_workers(2));
        assert!(report.execution.requeues > 0, "the fault plan must evict");
        let evictions: Vec<_> = report
            .observatory
            .incidents_of(observatory::IncidentKind::BoardEviction)
            .collect();
        assert_eq!(
            evictions.len() as u64,
            report.execution.requeues,
            "one BoardEviction incident per requeue"
        );
        // Each eviction incident points at a job whose breaker tripped on
        // its first attempt.
        for incident in &evictions {
            assert_eq!(incident.trigger_epoch, 0, "evictions happen at attempt 0");
            let job = report
                .characterization
                .jobs
                .iter()
                .find(|j| j.board == incident.board && j.attempt == 0)
                .expect("incident board exists");
            assert!(job.tripped);
        }
        // The quick campaign characterizes every board, so the per-board
        // savings-floor SLO stays quiet.
        assert!(
            report.observatory.alerts.is_empty(),
            "no savings-floor alerts on a healthy fleet: {:?}",
            report.observatory.alerts
        );
    }

    #[test]
    fn tripped_boards_are_requeued_once_with_a_raised_floor() {
        let spec = small_fleet();
        let campaign = FleetCampaign::quick(); // injects sub-Vmin SDC
        let report = run_fleet(&spec, &campaign, &FleetConfig::with_workers(2));
        let c = &report.characterization;
        assert!(report.execution.requeues > 0, "the fault plan must evict");
        assert_eq!(
            report.execution.jobs,
            u64::from(spec.boards) + report.execution.requeues
        );
        // Every evicted board's surviving record is its re-characterization.
        for job in c.jobs.iter().filter(|j| j.tripped && j.attempt == 0) {
            assert_eq!(c.store.get(job.board).unwrap().attempt, 1);
        }
        // And re-walks stay above the crash zone: no third attempts exist.
        assert!(c.jobs.iter().all(|j| j.attempt <= 1));
    }

    #[test]
    fn an_undisrupted_durable_run_closes_its_journal() {
        let spec = small_fleet();
        let campaign = FleetCampaign::quick();
        let config = FleetConfig::with_workers(2);
        let mut journal = FleetJournal::new(MemStore::new());
        let durable =
            run_fleet_durable(&spec, &campaign, &config, &mut journal, &Disruption::none())
                .expect("no faults injected");
        assert_eq!(durable.stats.resumed_completions, 0);
        assert_eq!(durable.stats.duplicates_dropped, 0);
        assert!(!durable.stats.checkpoint_rejected);
        // The journal closed out cleanly.
        let replay = journal.replay();
        assert_eq!(replay.damage, None);
        assert!(matches!(
            replay.entries.last(),
            Some(JournalEntry::CampaignCompleted)
        ));
    }

    #[test]
    fn a_journal_from_another_campaign_is_refused_untouched() {
        let spec = FleetSpec::new(3, 2018);
        let campaign = FleetCampaign::quick();
        let config = FleetConfig::with_workers(2);
        let mut journal = FleetJournal::new(MemStore::new());
        run_fleet_durable(&spec, &campaign, &config, &mut journal, &Disruption::none())
            .expect("no faults injected");
        let before = journal.store_mut().clone();

        let other = FleetSpec::new(3, 2019);
        let err = run_fleet_durable(
            &other,
            &campaign,
            &config,
            &mut journal,
            &Disruption::none(),
        )
        .expect_err("the journal began seed 2018");
        assert_eq!(
            err,
            FleetInterrupted::ForeignJournal {
                journal: (3, 2018, 2, 15),
                run: (3, 2019, 2, 15),
            }
        );
        assert_eq!(journal.store_mut(), &before, "nothing was appended");
        assert!(err.to_string().contains("(3, 2018, 2, 15)"), "{err}");
    }

    #[test]
    fn a_killed_coordinator_resumes_from_its_journal() {
        let spec = small_fleet();
        let campaign = FleetCampaign::quick();
        let config = FleetConfig::with_workers(2);
        let baseline = run_fleet(&spec, &campaign, &config);
        let mut journal = FleetJournal::new(MemStore::new());
        let kill = Disruption {
            kill_coordinator_after: Some(3),
            ..Disruption::none()
        };
        let err = run_fleet_durable(&spec, &campaign, &config, &mut journal, &kill)
            .expect_err("the kill fires with 10 boards outstanding");
        assert_eq!(err, FleetInterrupted::CoordinatorKilled { completions: 3 });
        // Restart on the same journal: only unfinished jobs re-run, and
        // the merged output is byte-identical to the uninterrupted run.
        let resumed =
            run_fleet_durable(&spec, &campaign, &config, &mut journal, &Disruption::none())
                .expect("clean restart completes");
        assert_eq!(resumed.stats.resumed_completions, 3);
        assert!(
            resumed.stats.executed_jobs < baseline.execution.jobs,
            "recovery re-runs only unfinished jobs"
        );
        assert_eq!(
            baseline.characterization_json(),
            resumed.report.characterization_json()
        );
    }

    /// A follow-up takes its retention probe from the attempt it follows:
    /// in the live loop, in recovery (from a journaled outcome) and on a
    /// dead worker's re-claim. Each such outcome must equal a fresh
    /// `execute` of its job, which draws the board's DRAM again.
    #[test]
    fn an_inherited_retention_probe_equals_a_fresh_one() {
        let spec = small_fleet();
        let campaign = FleetCampaign::quick();
        let config = FleetConfig::with_workers(2);
        let baseline = run_fleet(&spec, &campaign, &config);
        let mut journal = FleetJournal::new(MemStore::new());
        let kill = Disruption {
            kill_coordinator_after: Some(6),
            ..Disruption::none()
        };
        run_fleet_durable(&spec, &campaign, &config, &mut journal, &kill)
            .expect_err("the kill fires with work outstanding");
        // Follow-ups queue behind the ten first attempts, so the first six
        // completions are first attempts, and five of the ten trip: at
        // least one of the six tripped without its follow-up completed,
        // and recovery rebuilds that follow-up from the journaled outcome.
        let prefix = journal.replay().entries;
        let done: Vec<(u32, u32)> = prefix
            .iter()
            .filter_map(|e| match e {
                JournalEntry::JobCompleted { outcome } => Some((outcome.board, outcome.attempt)),
                _ => None,
            })
            .collect();
        assert!(prefix.iter().any(|e| matches!(
            e,
            JournalEntry::JobCompleted { outcome }
                if eviction_floor(outcome, &config).is_some()
                    && !done.contains(&(outcome.board, outcome.attempt + 1))
        )));
        let deaths = Disruption {
            worker_deaths: vec![(0, 3)],
            ..Disruption::none()
        };
        let resumed = run_fleet_durable(&spec, &campaign, &config, &mut journal, &deaths)
            .expect("one worker finishes the campaign");
        assert_eq!(
            baseline.characterization_json(),
            resumed.report.characterization_json()
        );

        let entries = journal.replay().entries;
        let mut follow_ups = 0;
        for entry in &entries {
            let JournalEntry::JobCompleted { outcome } = entry else {
                continue;
            };
            if outcome.attempt == 0 {
                continue;
            }
            let floor_override_mv = entries.iter().find_map(|e| match e {
                JournalEntry::JobClaimed {
                    board,
                    attempt,
                    floor_override_mv,
                } if (*board, *attempt) == (outcome.board, outcome.attempt) => {
                    Some(*floor_override_mv)
                }
                _ => None,
            });
            let fresh = job::execute(
                &FleetJob {
                    board: spec.board(outcome.board),
                    attempt: outcome.attempt,
                    floor_override_mv: floor_override_mv.expect("every job is claimed"),
                },
                &campaign,
                spec.population,
            );
            assert_eq!(
                serde::json::to_string(outcome),
                serde::json::to_string(&fresh),
                "board {} attempt {}",
                outcome.board,
                outcome.attempt
            );
            follow_ups += 1;
        }
        assert!(follow_ups > 0, "the quick campaign evicts");
    }

    #[test]
    fn dead_workers_shrink_the_pool_and_lose_no_work() {
        let spec = small_fleet();
        let campaign = FleetCampaign::quick();
        let config = FleetConfig::with_workers(3);
        let baseline = run_fleet(&spec, &campaign, &config);
        let mut journal = FleetJournal::new(MemStore::new());
        let deaths = Disruption {
            worker_deaths: vec![(0, 1), (2, 0)],
            ..Disruption::none()
        };
        let durable = run_fleet_durable(&spec, &campaign, &config, &mut journal, &deaths)
            .expect("one worker survives");
        assert_eq!(durable.stats.workers_lost, 2);
        // Duplicate merges are idempotent, so the bytes alone cannot show
        // a job that ran twice; the executed count can.
        assert_eq!(durable.stats.executed_jobs, baseline.execution.jobs);
        assert_eq!(
            baseline.characterization_json(),
            durable.report.characterization_json()
        );
    }

    #[test]
    fn losing_every_worker_interrupts_then_recovers() {
        let spec = small_fleet();
        let campaign = FleetCampaign::quick();
        let config = FleetConfig::with_workers(2);
        let baseline = run_fleet(&spec, &campaign, &config);
        let mut journal = FleetJournal::new(MemStore::new());
        let wipeout = Disruption {
            worker_deaths: vec![(0, 1), (1, 1)],
            ..Disruption::none()
        };
        let err = run_fleet_durable(&spec, &campaign, &config, &mut journal, &wipeout)
            .expect_err("both workers die with work outstanding");
        assert!(matches!(
            err,
            FleetInterrupted::PoolLost {
                workers_lost: 2,
                ..
            }
        ));
        let resumed =
            run_fleet_durable(&spec, &campaign, &config, &mut journal, &Disruption::none())
                .expect("a fresh pool finishes the campaign");
        assert_eq!(
            baseline.characterization_json(),
            resumed.report.characterization_json()
        );
    }

    #[test]
    fn losing_every_worker_behind_a_full_queue_interrupts_instead_of_hanging() {
        // Ten jobs against a one-slot `queue_capacity` (which once
        // bounded the coordinator's queue), and both workers die on
        // their first job: the coordinator must still learn of both.
        // Run it on its own thread so a hang fails the test instead of
        // the suite.
        let (tx, rx) = mpsc::channel();
        let run = thread::spawn(move || {
            let config = FleetConfig {
                queue_capacity: 1,
                ..FleetConfig::with_workers(2)
            };
            let wipeout = Disruption {
                worker_deaths: vec![(0, 0), (1, 0)],
                ..Disruption::none()
            };
            let mut journal = FleetJournal::new(MemStore::new());
            let result = run_fleet_durable(
                &small_fleet(),
                &FleetCampaign::quick(),
                &config,
                &mut journal,
                &wipeout,
            );
            let _ = tx.send(result.err());
        });
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the coordinator returns instead of hanging");
        run.join().expect("the run thread exits cleanly");
        assert!(matches!(
            err,
            Some(FleetInterrupted::PoolLost {
                workers_lost: 2,
                ..
            })
        ));
    }

    #[test]
    fn duplicate_deliveries_are_absorbed_by_idempotent_merges() {
        let spec = small_fleet();
        let campaign = FleetCampaign::quick();
        let config = FleetConfig::with_workers(2);
        let baseline = run_fleet(&spec, &campaign, &config);
        let mut journal = FleetJournal::new(MemStore::new());
        let dupes = Disruption {
            duplicate_deliveries: 5,
            ..Disruption::none()
        };
        let durable = run_fleet_durable(&spec, &campaign, &config, &mut journal, &dupes)
            .expect("duplicates never block completion");
        assert_eq!(durable.stats.duplicates_dropped, 5);
        assert_eq!(
            baseline.characterization_json(),
            durable.report.characterization_json()
        );
    }

    #[test]
    fn a_single_attempt_fleet_never_requeues_and_projects_savings() {
        let spec = small_fleet();
        let campaign = FleetCampaign::quick();
        let config = FleetConfig {
            max_attempts: 1,
            ..FleetConfig::with_workers(2)
        };
        let report = run_fleet(&spec, &campaign, &config);
        assert_eq!(report.execution.requeues, 0);
        let stats = &report.characterization.stats;
        assert_eq!(stats.characterized, 10);
        assert!(stats.total_savings_watts > 0.0);
        assert!(stats.min_margin_mv.unwrap() > 0);
        assert!(report.execution.speedup > 1.0);
        assert!(!report.characterization.campaign_counters.is_empty());
    }
}
