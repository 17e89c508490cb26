//! `dram-relaxed`: each op is one reduced-scale Fig. 8a panel on one
//! board at 60 °C under the 35× TREFP (2.283 s): the four DPBench
//! patterns (fill, wait 1.5 × TREFP, `DramArray::scrub`) and the four
//! Rodinia kernels through `DramArena`.
//!
//! This is the only workload where dram-sim's scrub, SECDED and per-access
//! decay path do the work. Kernel sizes are cut so every op does the same
//! kind of work. The board's weak-cell population is generated in set-up;
//! each op starts a fresh array over it at t = 0, so an op's outputs
//! depend only on its seed and index.
//!
//! A cut kernel's footprint spans a few hundred DRAM rows, and whether
//! those rows hold weak cells decides whether its accesses take the decay
//! path. Each kernel therefore runs at an arena base that moves with the
//! op index, so the ops of a run sample the board's rows instead of
//! re-reading the same few. The board is fixed ([`BOARD_SEED`]) and the
//! bases depend on the op index alone: the run's seed changes the data
//! (DPBench patterns, kernel inputs), not which rows the ops land on, so
//! every run does the same simulated work up to its data. With the
//! population drawn from the run's seed, a few weak rows under a kernel's
//! hottest words decided a run's set-up and median.

use crate::measure::{op_phases, repeated_setup, OpOutcome, WorkloadRun};
use crate::trace::{analyze, Tracer, NO_OP};
use crate::{mix, Ctx, Fnv, Scale, WARMUP_SEED};
use dram_sim::array::DramArray;
use dram_sim::ecc::{CodeWord, Secded72};
use dram_sim::geometry::{COLS_PER_ROW, DATA_BYTES, ROWS_PER_BANK};
use dram_sim::patterns::DataPattern;
use dram_sim::retention::{PopulationSpec, RetentionModel, WeakCellPopulation};
use power_model::units::{Celsius, Milliseconds};
use std::cell::RefCell;
use std::hint::black_box;
use workload_sim::arena::DramArena;
use workload_sim::dpbench::run_round;
use workload_sim::rodinia::backprop::Backprop;
use workload_sim::rodinia::kmeans::Kmeans;
use workload_sim::rodinia::nw::NeedlemanWunsch;
use workload_sim::rodinia::srad::Srad;
use workload_sim::rodinia::{HostMemory, KernelConfig, KernelReport, RodiniaKernel};

/// Untimed warm-up ops per set-up; every set-up runs the same ones.
const WARMUP_OPS: u64 = 2;
/// Op indices of warm-up ops start here, clear of every timed index.
const WARMUP_BASE: u64 = 1 << 40;
/// Seed of the board under test, whose weak-cell population every run
/// uses, like the chip model it stands for.
const BOARD_SEED: u64 = crate::DEFAULT_SEED;
/// DPBench wait between fill and scrub, in refresh periods.
const WAIT_FACTOR: f64 = 1.5;
/// Code words the SECDED attribution probe encodes and decodes.
const SECDED_WORDS: u64 = 200_000;

/// `(scale, iterations, simulated runtime ms)` per kernel. Scales are
/// cut from the Fig. 8 run (backprop 224, kmeans 512, nw 448, srad 288,
/// where backprop alone takes seconds) so a whole panel takes under a
/// second; the simulated runtime keeps each kernel's accesses spread
/// across several 2.283 s refresh periods.
fn sizes(scale: Scale) -> [(usize, usize, f64); 4] {
    match scale {
        Scale::Full => [
            (10, 2, 7000.0),
            (40, 4, 7000.0),
            (80, 1, 7000.0),
            (56, 2, 7000.0),
        ],
        Scale::Tiny => [
            (8, 1, 3000.0),
            (16, 1, 3000.0),
            (16, 1, 3000.0),
            (8, 1, 3000.0),
        ],
    }
}

/// Counts of one op, summed over its rounds and kernels.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    scrub_words: u64,
    arena_accesses: u64,
    ce: u64,
    ue: u64,
    incorrect_kernels: u64,
}

/// Span names of the traced kernels.
fn kernel_span(name: &str) -> &'static str {
    match name {
        "backprop" => "workload-sim.kernel.backprop",
        "kmeans" => "workload-sim.kernel.kmeans",
        "nw" => "workload-sim.kernel.nw",
        _ => "workload-sim.kernel.srad",
    }
}

/// Words in one row of every bank of every rank: `DramArena` stripes
/// linear indices over 8 ranks × 8 banks × 1024 columns before the row.
const ROW_STRIPE: u64 = 8 * 8 * COLS_PER_ROW as u64;

/// Linear base of a kernel's arena in op `index`: a row-stripe boundary
/// drawn from the index, leaving room for any cut footprint below the
/// array's end.
fn arena_base(index: u64, kernel: u64) -> u64 {
    let stripes = ROWS_PER_BANK as u64 - 64;
    (mix(index, kernel) % stripes) * ROW_STRIPE
}

/// `RodiniaKernel::characterize` with the arena at `base`: the golden run
/// on host memory, the run through the arena, and the read-back of the
/// whole footprint that compares against the golden output.
fn characterize_at<K: RodiniaKernel>(
    k: &K,
    dram: &mut DramArray,
    cfg: &KernelConfig,
    base: u64,
    golden: impl FnOnce() -> u64,
) -> KernelReport {
    let words = k.footprint_words(cfg);
    let golden_checksum = golden();
    let mut arena = DramArena::new(dram, base, words);
    let start = arena.dram_mut().now();
    let output_checksum = k.run(&mut arena, cfg);
    for i in 0..words {
        let _ = arena.read(i);
    }
    let stats = arena.stats();
    let runtime_ms = arena.dram_mut().now() - start;
    KernelReport {
        name: k.name().to_owned(),
        output_checksum,
        golden_checksum,
        stats,
        runtime_ms,
        footprint_words: words,
    }
}

/// Runs one kernel; traced, the kernel and its golden run get spans.
fn kernel<K: RodiniaKernel>(
    k: &K,
    dram: &mut DramArray,
    cfg: &KernelConfig,
    base: u64,
    trace: Option<(&Tracer, u64, u64)>,
) -> KernelReport {
    let golden = || k.run(&mut HostMemory::new(k.footprint_words(cfg)), cfg);
    match trace {
        None => characterize_at(k, dram, cfg, base, golden),
        Some((tracer, root, op)) => tracer.span(kernel_span(k.name()), root, op, |parent| {
            characterize_at(k, dram, cfg, base, || {
                tracer.span("workload-sim.golden", parent, op, |_| golden())
            })
        }),
    }
}

/// Op `index` of a run with seed `run_seed`: one Fig. 8a panel. Returns
/// the output fingerprint and counts.
fn panel(
    population: &WeakCellPopulation,
    run_seed: u64,
    index: u64,
    scale: Scale,
    trace: Option<(&Tracer, u64, u64)>,
) -> (u64, Counts) {
    let seed = mix(run_seed, index);
    let mut dram = DramArray::new(
        population.clone(),
        Milliseconds::DSN18_RELAXED_TREFP,
        Celsius::new(60.0),
    );
    let mut fp = Fnv::default();
    let mut counts = Counts::default();
    for pattern in DataPattern::dpbench_suite(seed) {
        let report = match trace {
            None => run_round(&mut dram, pattern, WAIT_FACTOR).report,
            Some((tracer, root, op)) => {
                dram.fill_pattern(pattern);
                dram.advance(dram.trefp().as_f64() * WAIT_FACTOR);
                tracer.span("dram-sim.scrub", root, op, |_| dram.scrub())
            }
        };
        let ber = report.ber(DATA_BYTES * 8);
        fp.push(pattern.to_string().as_bytes())
            .push(&report.words_read.to_le_bytes())
            .push(&report.ce_events.to_le_bytes())
            .push(&report.ue_events.to_le_bytes())
            .push(&report.flipped_bits.to_le_bytes())
            .push(&ber.to_bits().to_le_bytes());
        counts.scrub_words += report.words_read;
        counts.ce += report.ce_events;
        counts.ue += report.ue_events;
    }
    let [bp, km, nw, sr] = sizes(scale);
    let cfg = |(scale, iterations, runtime_ms): (usize, usize, f64)| KernelConfig {
        scale,
        iterations,
        seed,
        runtime_ms,
    };
    let reports = [
        kernel(&Backprop, &mut dram, &cfg(bp), arena_base(index, 0), trace),
        kernel(&Kmeans, &mut dram, &cfg(km), arena_base(index, 1), trace),
        kernel(
            &NeedlemanWunsch,
            &mut dram,
            &cfg(nw),
            arena_base(index, 2),
            trace,
        ),
        kernel(&Srad, &mut dram, &cfg(sr), arena_base(index, 3), trace),
    ];
    for r in &reports {
        fp.push(r.name.as_bytes())
            .push(&r.output_checksum.to_le_bytes())
            .push(&r.golden_checksum.to_le_bytes())
            .push(&r.stats.reads.to_le_bytes())
            .push(&r.stats.writes.to_le_bytes())
            .push(&r.stats.corrected_errors.to_le_bytes())
            .push(&r.stats.uncorrectable_errors.to_le_bytes())
            .push(&r.stats.flipped_bits.to_le_bytes());
        counts.arena_accesses += r.stats.reads + r.stats.writes;
        counts.ce += r.stats.corrected_errors;
        counts.ue += r.stats.uncorrectable_errors;
        counts.incorrect_kernels += u64::from(!r.is_correct());
    }
    (fp.finish(), counts)
}

pub fn run(ctx: &Ctx<'_>) -> WorkloadRun {
    let generate = || {
        WeakCellPopulation::generate(
            &RetentionModel::xgene2_micron(),
            PopulationSpec::dsn18(),
            BOARD_SEED,
        )
    };
    // The paper's result: every error SECDED-corrected (UE = 0) and every
    // Rodinia output equal to its golden run.
    let invariants_hold = |c: &Counts| c.ue == 0 && c.incorrect_kernels == 0;
    let (setup, population) = repeated_setup(|_| {
        let population = generate();
        for index in WARMUP_BASE..WARMUP_BASE + WARMUP_OPS {
            black_box(panel(&population, WARMUP_SEED, index, ctx.scale, None));
        }
        population
    });

    let outcome = |(fingerprint, counts): (u64, Counts)| OpOutcome {
        work: counts.scrub_words + counts.arena_accesses,
        ok: invariants_hold(&counts),
        fingerprint,
    };
    let op_counts = RefCell::new(Vec::new());
    let phases = op_phases(
        ctx,
        |index| outcome(panel(&population, ctx.seed, index, ctx.scale, None)),
        |tracer, root, index| {
            let trace = Some((tracer, root, index));
            let (fp, counts) = panel(&population, ctx.seed, index, ctx.scale, trace);
            op_counts.borrow_mut().push(counts);
            outcome((fp, counts))
        },
    );
    let secded_ok = !ctx.trace || secded_probe(&phases.tracer, ctx.seed);
    let mut run = phases.into_run(
        setup,
        "simulated DRAM word accesses (scrubbed words + arena reads and writes)",
    );
    if !secded_ok {
        run.setup_failures
            .push("SECDED probe: a single-bit flip was not corrected".to_owned());
    }
    if !ctx.trace {
        return run;
    }

    let a = analyze(&run.spans);
    let op_counts = op_counts.into_inner();
    let n = op_counts.len().max(1) as f64;
    let per_op = |f: fn(&Counts) -> u64| op_counts.iter().map(f).sum::<u64>() as f64 / n;
    let kernels = ["backprop", "kmeans", "nw", "srad"].map(|k| a.get(kernel_span(k)));
    let kernel_ns: u64 = kernels.iter().map(|k| k.total_ns).sum();
    let golden = a.get("workload-sim.golden");
    let accesses: u64 = op_counts.iter().map(|c| c.arena_accesses).sum();
    run.layers = vec![
        ("dram-sim.scrub_ms", a.get("dram-sim.scrub").mean(1e6)),
        (
            "dram-sim.secded_encode_ns",
            a.get("dram-sim.secded_encode").total_ns as f64 / SECDED_WORDS as f64,
        ),
        (
            "dram-sim.secded_decode_ns",
            a.get("dram-sim.secded_decode").total_ns as f64 / SECDED_WORDS as f64,
        ),
        ("workload-sim.kernel_ms.backprop", kernels[0].mean(1e6)),
        ("workload-sim.kernel_ms.kmeans", kernels[1].mean(1e6)),
        ("workload-sim.kernel_ms.nw", kernels[2].mean(1e6)),
        ("workload-sim.kernel_ms.srad", kernels[3].mean(1e6)),
        ("workload-sim.golden_ms", golden.total_ns as f64 / 1e6 / n),
        (
            "dram-sim.access_ns",
            kernel_ns.saturating_sub(golden.total_ns) as f64 / accesses.max(1) as f64,
        ),
        ("dram-sim.scrub_words", per_op(|c| c.scrub_words)),
        ("dram-sim.arena_accesses", per_op(|c| c.arena_accesses)),
        ("dram-sim.ce", per_op(|c| c.ce)),
        ("dram-sim.ue", per_op(|c| c.ue)),
    ];
    run
}

/// Times SECDED encode and decode over seeded words, every other word
/// with one flipped bit; true when every word decodes to its data.
fn secded_probe(tracer: &Tracer, seed: u64) -> bool {
    let codec = Secded72::new();
    let words: Vec<u64> = (0..SECDED_WORDS).map(|i| mix(seed, i)).collect();
    let codes: Vec<CodeWord> = tracer.span("dram-sim.secded_encode", 0, NO_OP, |_| {
        words.iter().map(|&w| codec.encode(black_box(w))).collect()
    });
    let flipped: Vec<CodeWord> = codes
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            if i % 2 == 0 {
                c.with_bit_flipped((i % 72) as u32)
            } else {
                c
            }
        })
        .collect();
    let decoded: Vec<Option<u64>> = tracer.span("dram-sim.secded_decode", 0, NO_OP, |_| {
        flipped
            .iter()
            .map(|&c| codec.decode(black_box(c)).data())
            .collect()
    });
    decoded.iter().zip(&words).all(|(d, w)| *d == Some(*w))
}
