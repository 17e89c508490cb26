//! Turns a [`WorkloadRun`] into the printed result: a human-readable
//! table, then one JSON line with `correct`, `attempted`, `failed` and
//! `metrics` as the last line of standard output.

use crate::measure::{median, WorkloadRun};
use crate::trace::{analyze, Analysis, OP_SPAN};
use crate::{host, reference, Ctx};

/// End-to-end metrics of an untraced run, with units. The times are
/// scaled to the reference speed ([`crate::reference`]); the table prints
/// the raw wall-time figures beside them. `error_rate` is printed in the
/// table but not in `metrics`: on a passing run it is 0, and
/// `attempted`/`failed` already carry it. `rss_peak_mb` is printed beside
/// `heap_peak_mb` but not bounded: it moved with malloc arena retention
/// from run to run (see [`crate::heap`]).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput", "work/s"),
    ("heap_peak_mb", "MB"),
];

/// Per-layer metrics of a traced run, with units. Every traced run
/// prints all of them; a layer the workload does not drive reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    // fleet-campaign
    ("fleet.job_ms", "ms"),
    ("fleet.busy_frac", "ratio"),
    ("fleet.coordinator_ms", "ms"),
    ("dram-sim.population_ms", "ms"),
    ("xgene-sim.boot_ms", "ms"),
    ("char-fw.walk_ms", "ms"),
    ("telemetry.overhead_ms", "ms"),
    ("observatory.merge_ms", "ms"),
    ("core.store_ms", "ms"),
    ("fleet.jobs", "count"),
    ("fleet.requeues", "count"),
    ("fleet.boots_per_board", "count"),
    ("char-fw.runs", "count"),
    ("telemetry.events", "count"),
    ("fleet.useful_ratio", "ratio"),
    // redteam-campaign
    ("redteam.episode_ms", "ms"),
    ("redteam.boot_ms", "ms"),
    ("redteam.busy_frac", "ratio"),
    ("stress-gen.profile_ms", "ms"),
    ("redteam.episodes", "count"),
    ("redteam.escapes", "count"),
    ("redteam.boots_per_board", "count"),
    // dram-relaxed
    ("dram-sim.scrub_ms", "ms"),
    ("dram-sim.secded_encode_ns", "ns"),
    ("dram-sim.secded_decode_ns", "ns"),
    ("workload-sim.kernel_ms.backprop", "ms"),
    ("workload-sim.kernel_ms.kmeans", "ms"),
    ("workload-sim.kernel_ms.nw", "ms"),
    ("workload-sim.kernel_ms.srad", "ms"),
    ("workload-sim.golden_ms", "ms"),
    ("dram-sim.access_ns", "ns"),
    ("dram-sim.scrub_words", "count"),
    ("dram-sim.arena_accesses", "count"),
    ("dram-sim.ce", "count"),
    ("dram-sim.ue", "count"),
    // serve-mixed
    ("control-plane.parse_us", "us"),
    ("control-plane.handle_us.safe-point", "us"),
    ("control-plane.handle_us.status", "us"),
    ("control-plane.handle_us.campaigns", "us"),
    ("control-plane.handle_us.metrics", "us"),
    ("control-plane.encode_us", "us"),
    ("control-plane.transport_us", "us"),
    ("control-plane.roll_ms", "ms"),
    ("fleet.campaign_s", "s"),
    ("fleet.journal_bytes", "bytes"),
    ("control-plane.not_modified_ratio", "ratio"),
    ("control-plane.miss_ratio", "ratio"),
    // every workload
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
];

/// The printed result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Whether every op and set-up check passed.
    pub correct: bool,
    /// Ops attempted (untraced plus traced).
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// `(name, value, unit)` in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
}

/// Builds the report of one run.
pub fn build(ctx: &Ctx<'_>, run: &WorkloadRun) -> Report {
    let m = &run.measured;
    let attempted = m.attempted + run.traced.as_ref().map_or(0, |t| t.attempted);
    let failed = m.failed + run.traced.as_ref().map_or(0, |t| t.failed);
    let setup_s = median(&run.setup_s);
    let op_ms = m.op_ms();
    let tail = m.tail_ms();
    let raw_tail = m.raw_tail_ms();
    let error_rate = failed as f64 / attempted.max(1) as f64;

    let mut lines = vec![format!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    )];
    let (hb, ha) = (m.host_before, m.host_after);
    lines.push(format!(
        "host nproc={} profile={} rustc=\"{}\" timed_phase: steal_s={:.2} cpu_s={:.2} minor_faults={} reference_pass_ms={:.3} (median of {}; nominal {})",
        host::nproc(),
        host::profile(),
        host::rustc(),
        ha.steal_s - hb.steal_s,
        ha.cpu_s - hb.cpu_s,
        ha.minor_faults.saturating_sub(hb.minor_faults),
        m.reference_ms(),
        m.reference_s.len(),
        reference::NOMINAL_S * 1e3
    ));
    let setups: Vec<String> = run.setup_wall_s.iter().map(|s| format!("{s:.3}")).collect();
    lines.push(format!(
        "setup_s      {setup_s:>12.4} s       median of {} set-ups at reference speed; wall: {}",
        run.setup_s.len(),
        setups.join(" ")
    ));
    lines.push(format!(
        "p50_ms       {:>12.4} ms      {} timed of {} ops; wall {:.4} ms",
        m.p50_ms(),
        op_ms.len(),
        m.attempted,
        m.raw_p50_ms()
    ));
    let sets = if tail.sets > 1 {
        format!(" (median over {} interleaved sets)", tail.sets)
    } else {
        String::new()
    };
    lines.push(format!(
        "tail_ms      {:>12.4} ms      p{:.3} over {} samples, {} beyond{sets}; wall {:.4} ms",
        tail.value, tail.percentile, tail.samples, tail.beyond, raw_tail.value
    ));
    lines.push(format!(
        "throughput   {:>12.4} work/s  work = {}; per wall second {:.4}",
        m.throughput(),
        run.work_unit,
        m.raw_throughput()
    ));
    lines.push(format!(
        "heap_peak_mb {:>12.4} MB      most heap held at once (median over ops of each op's peak; serve: over the phase)",
        m.heap_peak_mb
    ));
    lines.push(format!(
        "rss_peak_mb  {:>12.4} MB      peak resident set of the process",
        host::rss_peak_mb()
    ));
    lines.push(format!(
        "error_rate   {error_rate:>12.4} ratio   {failed} failed of {attempted} attempted"
    ));
    for failure in &run.setup_failures {
        lines.push(format!("setup check failed: {failure}"));
    }
    let analysis = analyze(&run.spans);
    if ctx.trace {
        lines.extend(self_times(&analysis, m.raw_p50_ms()));
    }
    // Metrics every traced run derives the same way, from wall times.
    let traced_p50 = run.traced.as_ref().map_or(f64::NAN, |t| t.raw_p50_ms());
    let common = [
        ("trace.overhead_ms", traced_p50 - m.raw_p50_ms()),
        ("trace.coverage", median(&analysis.coverage)),
    ];

    let metrics: Vec<(&str, f64, &str)> = if ctx.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = run
                    .layers
                    .iter()
                    .chain(&common)
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                lines.push(format!("{name:<36} {value:>14.4} {unit}"));
                (name, value, unit)
            })
            .collect()
    } else {
        let values = [
            setup_s,
            m.p50_ms(),
            tail.value,
            m.throughput(),
            m.heap_peak_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    Report {
        correct: failed == 0 && run.setup_failures.is_empty() && finite,
        attempted,
        failed,
        metrics,
        lines,
    }
}

/// Self time per layer per traced op, and how much wall time the layer
/// spans cover next to the untraced op's.
fn self_times(a: &Analysis, untraced_p50_ms: f64) -> Vec<String> {
    let ops = a.get(OP_SPAN).count.max(1) as f64;
    let mut lines: Vec<String> = a
        .layer_self_ns
        .iter()
        .map(|(layer, ns)| {
            format!(
                "self_time    {layer:<14} {:>12.4} ms/op, summed over threads",
                *ns as f64 / 1e6 / ops
            )
        })
        .collect();
    let covered_ms: Vec<f64> = a.covered_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    lines.push(format!(
        "coverage     layer spans cover {:.4} ms of a traced op (median, {:.1} %); untraced p50 {:.4} ms",
        median(&covered_ms),
        100.0 * median(&a.coverage),
        untraced_p50_ms
    ));
    lines
}

/// The result line.
pub fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
