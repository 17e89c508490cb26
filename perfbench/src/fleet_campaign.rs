//! `fleet-campaign`: each op is one `fleet::run_fleet` over a small
//! fresh fleet with the paper-shaped `FleetCampaign::dsn18()`.
//!
//! This is the campaign users run, and the one workload where the Vmin
//! walk and the job's telemetry context do most of the work. The traced
//! run drives the same jobs through `WeakCellPopulation::generate` and
//! `fleet::job::execute_in_env` on the same worker count, rebuilds the
//! characterization and observatory the way the coordinator does, and
//! checks both against the untraced op byte for byte.

use crate::measure::{median, op_phases, repeated_setup, OpOutcome, WorkloadRun};
use crate::trace::{analyze, covered, Span, Tracer, NO_OP, OP_SPAN};
use crate::{mix, Ctx, Fnv, Scale, WARMUP_SEED, WORKERS};
use char_fw::runner::ResilientRunner;
use dram_sim::retention::{RetentionModel, WeakCellPopulation};
use fleet::orchestrator::{FLEET_SAVINGS_FLOOR_WATTS, FLEET_SAVINGS_SLO};
use fleet::schedule::ScheduleModel;
use fleet::{
    eviction_floor, run_fleet, BoardOutcome, FleetCampaign, FleetCharacterization, FleetConfig,
    FleetJob, FleetQueue, FleetSpec, JobEnvironment, JobSummary, SafePointStore,
};
use observatory::{BoardStream, Observatory, SloSpec, StreamBuilder};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::mpsc;
use std::thread;
use telemetry::metrics::Registry;
use telemetry::{CaptureSink, FieldValue, FlightRecorder, Level, Sink, Telemetry, TelemetryGuard};
use xgene_sim::server::XGene2Server;

/// Untimed warm-up ops per set-up; every set-up runs the same ones.
const WARMUP_OPS: u64 = 4;
/// Op indices of warm-up ops start here, clear of every timed index.
const WARMUP_BASE: u64 = 1 << 40;
/// Traced ops whose jobs the boot/walk attribution probe re-runs.
const PROBE_OPS: usize = 2;

fn boards(scale: Scale) -> u32 {
    match scale {
        Scale::Full => 8,
        Scale::Tiny => 2,
    }
}

fn campaign(scale: Scale) -> FleetCampaign {
    match scale {
        Scale::Full => FleetCampaign::dsn18(),
        Scale::Tiny => FleetCampaign::quick(),
    }
}

/// The deterministic outputs of one op.
struct Output {
    characterization: String,
    observatory: String,
    jobs: usize,
}

impl Output {
    fn fingerprint(&self) -> u64 {
        Fnv::default()
            .push(self.characterization.as_bytes())
            .push(self.observatory.as_bytes())
            .finish()
    }
}

/// Per traced op: what the coordinator saw.
#[derive(Default, Clone)]
struct OpCounts {
    jobs: usize,
    boards: usize,
    characterized: usize,
    runs: u64,
    events: usize,
    executed: Vec<FleetJob>,
}

pub fn run(ctx: &Ctx<'_>) -> WorkloadRun {
    let campaign = campaign(ctx.scale);
    let config = FleetConfig::with_workers(WORKERS);
    let boards = boards(ctx.scale);
    let spec = |index: u64| FleetSpec::new(boards, mix(ctx.seed, index));
    let untraced = |spec: &FleetSpec| {
        let report = run_fleet(spec, &campaign, &config);
        Output {
            characterization: report.characterization_json(),
            observatory: report.observatory_json(),
            jobs: report.characterization.jobs.len(),
        }
    };
    let outcome = |out: &Output| OpOutcome {
        work: u64::from(boards),
        ok: out.jobs >= boards as usize && !out.characterization.is_empty(),
        fingerprint: out.fingerprint(),
    };

    let (setup, ()) = repeated_setup(|_| {
        for index in WARMUP_BASE..WARMUP_BASE + WARMUP_OPS {
            let spec = FleetSpec::new(boards, mix(WARMUP_SEED, index));
            std::hint::black_box(untraced(&spec));
        }
    });
    let counts = RefCell::new(Vec::new());
    let phases = op_phases(
        ctx,
        |index| outcome(&untraced(&spec(index))),
        |tracer, root, index| {
            let (out, op_counts) = traced_op(tracer, root, index, &spec(index), &campaign, &config);
            counts.borrow_mut().push(op_counts);
            outcome(&out)
        },
    );
    let counts = counts.into_inner();
    let mut walks_agree = true;
    for op in counts.iter().take(PROBE_OPS) {
        walks_agree &= probe(&phases.tracer, &spec(0), &campaign, &op.executed);
    }
    let mut run = phases.into_run(setup, "boards characterized");
    if !walks_agree {
        run.setup_failures
            .push("a walk under the job's telemetry context differs from the bare walk".to_owned());
    }
    if ctx.trace {
        run.layers = layers(&run.spans, &counts);
    }
    run
}

/// One op through the public sub-steps: the coordinator loop of
/// `run_fleet` (its `FleetQueue`, eviction re-queue) over `WORKERS`
/// threads, then the aggregation into the characterization and
/// observatory.
fn traced_op(
    tracer: &Tracer,
    root: u64,
    op: u64,
    spec: &FleetSpec,
    campaign: &FleetCampaign,
    config: &FleetConfig,
) -> (Output, OpCounts) {
    let queue =
        FleetQueue::<FleetJob>::new(config.workers, config.queue_capacity, config.batch_size);
    let (tx, rx) = mpsc::channel::<BoardOutcome>();
    let mut outcomes = Vec::new();
    let mut executed = Vec::new();
    thread::scope(|scope| {
        for w in 0..config.workers {
            let tx = tx.clone();
            let queue = &queue;
            scope.spawn(move || {
                while let Some(job) = queue.next(w) {
                    let population = tracer.span("dram-sim.population", root, op, |_| {
                        WeakCellPopulation::generate(
                            &RetentionModel::xgene2_micron(),
                            spec.population,
                            job.board.boot_seed,
                        )
                    });
                    let env = JobEnvironment {
                        chip: job.board.chip.clone(),
                        population,
                        max_trefp_ms: spec.population.max_trefp.as_f64(),
                        warm_start: None,
                    };
                    let outcome = tracer.span("fleet.job", root, op, |_| {
                        fleet::job::execute_in_env(&job, campaign, &env)
                    });
                    tx.send(outcome).expect("coordinator outlives workers");
                }
            });
        }
        drop(tx);
        let mut push = |job: FleetJob| {
            executed.push(job.clone());
            queue.push(job);
        };
        let mut outstanding = 0u64;
        for board in spec.all_boards() {
            push(FleetJob {
                board,
                attempt: 0,
                floor_override_mv: None,
            });
            outstanding += 1;
        }
        while outstanding > 0 {
            let outcome = rx.recv().expect("workers outlive the backlog");
            outstanding -= 1;
            if let Some(floor) = eviction_floor(&outcome, config) {
                push(FleetJob {
                    board: spec.board(outcome.board),
                    attempt: outcome.attempt + 1,
                    floor_override_mv: Some(floor),
                });
                outstanding += 1;
            }
            outcomes.push(outcome);
        }
        queue.close();
    });

    outcomes.sort_by_key(|o| (o.board, o.attempt));
    let (store, stats) = tracer.span("core.store", root, op, |_| {
        let mut store = SafePointStore::new();
        for outcome in &outcomes {
            store.insert(outcome.record.clone());
        }
        let stats = store.stats();
        (store, stats)
    });
    let characterized = stats.characterized;
    let characterization = tracer.span("fleet.aggregate", root, op, |_| {
        let mut summed: BTreeMap<String, u64> = BTreeMap::new();
        for outcome in &outcomes {
            for (name, value) in &outcome.metrics.counters {
                *summed.entry(name.clone()).or_insert(0) += value;
            }
        }
        let costs: Vec<f64> = outcomes.iter().map(|o| o.sim_cost_seconds).collect();
        let characterization = FleetCharacterization {
            boards: spec.boards,
            seed: spec.seed,
            store: store.clone(),
            stats,
            jobs: outcomes.iter().map(summary).collect(),
            campaign_counters: summed.into_iter().collect(),
            sim_serial_seconds: ScheduleModel::plan(&costs, config.workers).serial_seconds,
        };
        serde::json::to_string(&characterization)
    });
    let observatory = tracer.span("observatory.merge", root, op, |_| {
        observatory(&outcomes, &store, config)
            .finish()
            .chronicle_json()
    });
    let counts = OpCounts {
        jobs: outcomes.len(),
        boards: spec.boards as usize,
        characterized,
        runs: outcomes.iter().map(|o| o.runs).sum(),
        events: outcomes.iter().map(|o| o.trace.len()).sum(),
        executed,
    };
    let out = Output {
        characterization,
        observatory,
        jobs: outcomes.len(),
    };
    (out, counts)
}

fn summary(o: &BoardOutcome) -> JobSummary {
    JobSummary {
        board: o.board,
        attempt: o.attempt,
        tripped: o.tripped,
        runs: o.runs,
        watchdog_resets: o.watchdog_resets,
        quarantined_setups: o.quarantined_setups,
        breaker_trips: o.breaker_trips,
        backoff_ms: o.backoff_ms,
        sim_cost_seconds: o.sim_cost_seconds,
    }
}

/// The fleet observatory as the coordinator assembles it: per-job
/// streams and dumps, a coordinator eviction stream per re-queued job,
/// and one savings observation per record.
fn observatory(
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

/// The telemetry context `fleet::job` installs around every job.
fn job_context() -> TelemetryGuard {
    let recorder = FlightRecorder::with_capacity(48)
        .with_min_level(Level::Debug)
        .with_max_dumps(2);
    Telemetry::new()
        .with_registry(Rc::new(Registry::new()))
        .with_shared_sink(Rc::new(CaptureSink::new().with_min_level(Level::Warn)) as Rc<dyn Sink>)
        .with_shared_sink(Rc::new(recorder) as Rc<dyn Sink>)
        .install()
}

/// Attribution probe, outside every op: re-runs each job's boot without
/// population generation, its bare Vmin walk, and the same walk under
/// the job's telemetry context. Returns whether every walk under the
/// context equals its bare walk.
fn probe(tracer: &Tracer, spec: &FleetSpec, campaign: &FleetCampaign, jobs: &[FleetJob]) -> bool {
    let boot = |job: &FleetJob, population: WeakCellPopulation| {
        let mut server = XGene2Server::with_chip_and_population(
            job.board.chip.clone(),
            job.board.boot_seed,
            population,
        );
        if let Some(plan) = campaign.fault_plan(&job.board) {
            server.install_fault_plan(plan);
        }
        server
    };
    let walk = |server: &mut XGene2Server, job: &FleetJob| {
        ResilientRunner::new(
            server,
            campaign.vmin_campaign(job.floor_override_mv),
            campaign.resilience,
        )
        .run_to_completion()
    };
    let mut agree = true;
    for job in jobs {
        let population = WeakCellPopulation::generate(
            &RetentionModel::xgene2_micron(),
            spec.population,
            job.board.boot_seed,
        );
        let mut server = tracer.span("xgene-sim.boot", 0, NO_OP, |_| {
            boot(job, population.clone())
        });
        let bare = tracer.span("char-fw.walk", 0, NO_OP, |_| walk(&mut server, job));
        let mut server = boot(job, population);
        let guard = job_context();
        let in_context = tracer.span("telemetry.walk", 0, NO_OP, |_| walk(&mut server, job));
        drop(guard);
        agree &= bare == in_context;
    }
    agree
}

fn layers(spans: &[Span], counts: &[OpCounts]) -> Vec<(&'static str, f64)> {
    let a = analyze(spans);
    let ops: Vec<&Span> = spans.iter().filter(|s| s.name == OP_SPAN).collect();
    let op_ns: u64 = ops.iter().map(|s| s.dur()).sum();
    let job = a.get("fleet.job");
    let population = a.get("dram-sim.population");
    // Op wall outside jobs: the coordinator's queueing, aggregation and
    // observatory assembly while no worker runs a job.
    let coordinator_ms: Vec<f64> = ops
        .iter()
        .map(|op| {
            let jobs = spans
                .iter()
                .filter(|s| {
                    s.op == op.op && (s.name == "fleet.job" || s.name == "dram-sim.population")
                })
                .map(|s| (s.start, s.end))
                .collect();
            (op.dur() - covered(jobs, op.start, op.end)) as f64 / 1e6
        })
        .collect();
    let n = counts.len().max(1) as f64;
    let per_op = |f: &dyn Fn(&OpCounts) -> f64| counts.iter().map(f).sum::<f64>() / n;
    let jobs = per_op(&|c| c.jobs as f64);
    let boards = per_op(&|c| c.boards as f64);
    vec![
        ("fleet.job_ms", job.mean(1e6)),
        (
            "fleet.busy_frac",
            (job.total_ns + population.total_ns) as f64 / (WORKERS as f64 * op_ns as f64),
        ),
        ("fleet.coordinator_ms", median(&coordinator_ms)),
        ("dram-sim.population_ms", population.mean(1e6)),
        ("xgene-sim.boot_ms", a.get("xgene-sim.boot").mean(1e6)),
        ("char-fw.walk_ms", a.get("char-fw.walk").mean(1e6)),
        (
            "telemetry.overhead_ms",
            a.get("telemetry.walk").mean(1e6) - a.get("char-fw.walk").mean(1e6),
        ),
        ("observatory.merge_ms", a.get("observatory.merge").mean(1e6)),
        ("core.store_ms", a.get("core.store").mean(1e6)),
        ("fleet.jobs", jobs),
        ("fleet.requeues", jobs - boards),
        ("fleet.boots_per_board", jobs / boards),
        ("char-fw.runs", per_op(&|c| c.runs as f64)),
        ("telemetry.events", per_op(&|c| c.events as f64)),
        (
            "fleet.useful_ratio",
            per_op(&|c| c.characterized as f64) / jobs,
        ),
    ]
}
