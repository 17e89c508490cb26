//! `redteam-campaign`: each op is one `redteam::run_campaign` with a
//! small GA budget over a small fleet.
//!
//! It shares the board-boot path with `fleet-campaign` but reboots each
//! board once per genome per generation, and it is the only workload
//! that exercises `stress-gen`, the colocated PDN-droop model and
//! guardband-core's `SafetyNet`. The traced run drives the same
//! co-evolution through `evolve_batched`, `genome_profile` and
//! `run_episode` on the same worker count and checks the chronicle
//! against the untraced op byte for byte.

use crate::measure::{op_phases, repeated_setup, OpOutcome, WorkloadRun};
use crate::trace::{analyze, Span, Tracer, NO_OP, OP_SPAN};
use crate::{mix, Ctx, Fnv, Scale, WARMUP_SEED, WORKERS};
use dram_sim::retention::PopulationSpec;
use fleet::population::BoardSpec;
use redteam::{run_campaign, run_episode, CampaignConfig, CampaignReport, GenerationRecord};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use stress_gen::ga::{evolve_batched, genome_profile};
use xgene_sim::pdn::PdnModel;
use xgene_sim::workload::WorkloadProfile;

/// Untimed warm-up ops per set-up; every set-up runs the same ones. Six,
/// not fleet-campaign's four: red-team ops vary more in length, and with
/// four `setup_s` spread by 0.09 over ten seeds.
const WARMUP_OPS: u64 = 6;
/// Op indices of warm-up ops start here, clear of every timed index.
const WARMUP_BASE: u64 = 1 << 40;
/// Weight of the resonant-energy shaping term in `run_campaign`'s fitness.
const RESONANCE_SHAPING: f64 = 0.01;

fn config(run_seed: u64, scale: Scale, index: u64) -> CampaignConfig {
    let seed = mix(run_seed, index);
    let (boards, genomes, generations, epochs) = match scale {
        Scale::Full => (4, 6, 2, 40),
        Scale::Tiny => (2, 3, 1, 10),
    };
    let mut config = CampaignConfig::dsn18(boards, seed);
    config.ga.population = genomes;
    config.ga.generations = generations;
    config.scenario.epochs = epochs;
    config.workers = WORKERS;
    config
}

fn episodes(config: &CampaignConfig) -> u64 {
    u64::from(config.fleet.boards) * (config.ga.population * config.ga.generations) as u64
}

pub fn run(ctx: &Ctx<'_>) -> WorkloadRun {
    let outcome = |config: &CampaignConfig, report: &CampaignReport| OpOutcome {
        work: episodes(config),
        ok: report.generations.len() == config.ga.generations
            && report.boards == config.fleet.boards,
        fingerprint: Fnv::default()
            .push(report.chronicle_json().as_bytes())
            .finish(),
    };
    let (setup, ()) = repeated_setup(|_| {
        for index in WARMUP_BASE..WARMUP_BASE + WARMUP_OPS {
            std::hint::black_box(run_campaign(&config(WARMUP_SEED, ctx.scale, index)));
        }
    });
    let escapes = RefCell::new(Vec::new());
    let phases = op_phases(
        ctx,
        |index| {
            let config = config(ctx.seed, ctx.scale, index);
            outcome(&config, &run_campaign(&config))
        },
        |tracer, root, index| {
            let config = config(ctx.seed, ctx.scale, index);
            let report = traced_op(tracer, root, index, &config);
            escapes.borrow_mut().push(report.total_escapes());
            outcome(&config, &report)
        },
    );
    if ctx.trace {
        // Boot attribution probe, outside every op: the boot each
        // episode pays, population generation included.
        for board in config(ctx.seed, ctx.scale, 0).fleet.all_boards() {
            phases.tracer.span("redteam.boot", 0, NO_OP, |_| {
                std::hint::black_box(board.boot(PopulationSpec::dsn18()))
            });
        }
    }
    let mut run = phases.into_run(setup, "episodes");
    if !ctx.trace {
        return run;
    }

    let a = analyze(&run.spans);
    let ops = run.spans.iter().filter(|s| s.name == OP_SPAN);
    let traced_ops = ops.clone().count().max(1) as f64;
    let op_ns: u64 = ops.map(Span::dur).sum();
    let escapes = escapes.into_inner();
    let episode = a.get("redteam.episode");
    // Counted from the run: one `redteam.episode` span per episode, and
    // every episode boots its board once.
    let episodes = episode.count as f64 / traced_ops;
    let boards = f64::from(config(ctx.seed, ctx.scale, 0).fleet.boards);
    run.layers = vec![
        ("redteam.episode_ms", episode.mean(1e6)),
        ("redteam.boot_ms", a.get("redteam.boot").mean(1e6)),
        (
            "redteam.busy_frac",
            episode.total_ns as f64 / (WORKERS as f64 * op_ns as f64),
        ),
        (
            "stress-gen.profile_ms",
            a.get("stress-gen.profile").mean(1e6),
        ),
        ("redteam.episodes", episodes),
        (
            "redteam.escapes",
            escapes.iter().sum::<u64>() as f64 / escapes.len().max(1) as f64,
        ),
        ("redteam.boots_per_board", episodes / boards),
    ];
    run
}

/// `run_campaign` through its public sub-steps: the GA's batched
/// evaluation, one `genome_profile` per genome, and the
/// `(genome × board)` episode grid pulled by index on `WORKERS` threads.
fn traced_op(tracer: &Tracer, root: u64, op: u64, config: &CampaignConfig) -> CampaignReport {
    let pdn = PdnModel::xgene2();
    let boards: Vec<BoardSpec> = config.fleet.all_boards().collect();
    let mut generations = Vec::new();
    let result = evolve_batched(&config.ga, |genomes| {
        let profiles: Vec<WorkloadProfile> = genomes
            .iter()
            .map(|g| {
                tracer.span("stress-gen.profile", root, op, |_| {
                    genome_profile("redteam-virus", g, &pdn)
                })
            })
            .collect();
        let escapes = episode_grid(tracer, root, op, &boards, &profiles, config);
        let scores: Vec<f64> = escapes
            .iter()
            .zip(&profiles)
            .map(|(e, p)| *e as f64 + RESONANCE_SHAPING * p.resonant_energy())
            .collect();
        let mut best = 0;
        for i in 1..scores.len() {
            if scores[i] > scores[best] {
                best = i;
            }
        }
        generations.push(GenerationRecord {
            generation: generations.len() as u32,
            best_fitness: scores[best],
            best_escapes: escapes[best],
            total_escapes: escapes.iter().sum(),
        });
        scores
    });
    CampaignReport {
        boards: config.fleet.boards,
        seed: config.fleet.seed,
        generations,
        champion: result.champion,
        champion_fitness: result.champion_fitness,
    }
}

/// Per-genome escape totals over every board, in genome order.
fn episode_grid(
    tracer: &Tracer,
    root: u64,
    op: u64,
    boards: &[BoardSpec],
    profiles: &[WorkloadProfile],
    config: &CampaignConfig,
) -> Vec<u64> {
    let jobs: Vec<(usize, usize)> = (0..profiles.len())
        .flat_map(|g| (0..boards.len()).map(move |b| (g, b)))
        .collect();
    let next = AtomicUsize::new(0);
    let done: Vec<(usize, u64)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..config.workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(&(g, b)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let report = tracer.span("redteam.episode", root, op, |_| {
                            run_episode(&boards[b], Some(&profiles[g]), &config.scenario)
                        });
                        done.push((g, report.escaped_sdcs));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("episode worker panicked"))
            .collect()
    });
    let mut per_genome = vec![0u64; profiles.len()];
    for (g, escapes) in done {
        per_genome[g] += escapes;
    }
    per_genome
}
