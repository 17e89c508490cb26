//! Timing: repeated set-up, the timed op loop, and the order statistics
//! every end-to-end metric is computed with.
//!
//! The bounded time metrics are scaled to the reference speed: each op's
//! (each set-up's, each serve slice's) wall time is multiplied by the
//! [`reference::scale`] of the reference passes timed beside it. Raw wall
//! times are kept and printed beside them.

use crate::host::HostSample;
use crate::reference;
use crate::trace::{Span, Tracer, OP_SPAN};
use crate::Ctx;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Ops a timed phase runs even past its deadline, so the tail percentile
/// (10 samples beyond it) is always defined.
pub const MIN_OPS: usize = 21;
/// Reference passes between two set-up repetitions. A set-up is scaled
/// by the median of the passes on both sides of it; with one pass a side
/// a single slow pass (passes after DRAM panels ranged 8–37 ms) moved
/// dram-relaxed's `setup_s` by a third.
const GAP_PASSES: usize = 3;

/// What one op of an op-based workload reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Work units completed.
    pub work: u64,
    /// Whether the op's own output checks passed.
    pub ok: bool,
    /// Hash of the op's deterministic outputs.
    pub fingerprint: u64,
}

/// One timed phase: its ops, its wall time and the host's `/proc`
/// counters around it.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall time of each timed op (every op, or a fixed subsample), s.
    pub op_secs: Vec<f64>,
    /// Reference-speed factor of each op in `op_secs`; empty in an
    /// unscaled (traced) phase, whose ops count at their wall time.
    pub op_scale: Vec<f64>,
    /// Wall time of each reference pass timed in the phase, s.
    pub reference_s: Vec<f64>,
    /// Interleaved sets `op_secs` is split into for the tail (0 or 1:
    /// one set); see [`tail_of_sets`].
    pub tail_sets: usize,
    /// Ops run, timed or not.
    pub attempted: u64,
    /// Ops whose checks failed (a panic counts).
    pub failed: u64,
    /// Work units completed by every op.
    pub work: u64,
    /// Wall time the phase spent on ops, seconds (reference passes
    /// excluded).
    pub wall_s: f64,
    /// [`Self::wall_s`] scaled to the reference speed.
    pub scaled_wall_s: f64,
    /// Host counters at the start of the phase.
    pub host_before: HostSample,
    /// Host counters at the end of the phase.
    pub host_after: HostSample,
    /// Most heap held at once during each op, MB (op-based workloads).
    pub op_heap_mb: Vec<f64>,
    /// Most heap held at once: the median over ops of [`Self::op_heap_mb`]
    /// (a single run's maximum over ops jumped with the rare op that held
    /// more), or the peak over the whole phase where ops are requests.
    pub heap_peak_mb: f64,
}

impl Phase {
    /// Median op time at the reference speed, ms.
    pub fn p50_ms(&self) -> f64 {
        median(&self.scaled_ms())
    }

    /// Median op wall time, ms.
    pub fn raw_p50_ms(&self) -> f64 {
        median(&self.op_ms())
    }

    /// Op wall times, ms.
    pub fn op_ms(&self) -> Vec<f64> {
        self.op_secs.iter().map(|s| s * 1e3).collect()
    }

    /// Op times at the reference speed, ms (wall times in an unscaled
    /// phase).
    pub fn scaled_ms(&self) -> Vec<f64> {
        if self.op_scale.is_empty() {
            return self.op_ms();
        }
        self.op_secs
            .iter()
            .zip(&self.op_scale)
            .map(|(s, k)| s * k * 1e3)
            .collect()
    }

    /// The tail of the op times at the reference speed, ms.
    pub fn tail_ms(&self) -> Tail {
        tail_of_sets(&self.scaled_ms(), self.tail_sets.max(1))
    }

    /// The tail of the op wall times, ms.
    pub fn raw_tail_ms(&self) -> Tail {
        tail_of_sets(&self.op_ms(), self.tail_sets.max(1))
    }

    /// Work per second of op time at the reference speed.
    pub fn throughput(&self) -> f64 {
        self.work as f64 / self.scaled_wall_s
    }

    /// Work per second of op wall time.
    pub fn raw_throughput(&self) -> f64 {
        self.work as f64 / self.wall_s
    }

    /// Median wall time of the reference passes, ms (NaN when none ran).
    pub fn reference_ms(&self) -> f64 {
        median(&self.reference_s) * 1e3
    }
}

/// What a workload run hands to the report.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRun {
    /// Each set-up repetition's time at the reference speed, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each set-up repetition, seconds.
    pub setup_wall_s: Vec<f64>,
    /// The untraced timed phase.
    pub measured: Phase,
    /// The traced phase (traced runs only).
    pub traced: Option<Phase>,
    /// What one unit of `throughput` is.
    pub work_unit: &'static str,
    /// Per-layer metrics (traced runs only): name → value. Units come
    /// from [`crate::report::PER_LAYER`].
    pub layers: Vec<(&'static str, f64)>,
    /// Set-up checks that failed (each fails the run's `correct`).
    pub setup_failures: Vec<String>,
    /// `(op index, output fingerprint)` of the untraced ops.
    pub fingerprints: Vec<(u64, u64)>,
    /// Every span of a traced run.
    pub spans: Vec<Span>,
}

/// Set-up times of one run, seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Each repetition's time at the reference speed.
    pub scaled: Vec<f64>,
    /// Each repetition's wall time.
    pub wall: Vec<f64>,
}

/// Runs `setup` [`crate::SETUP_REPS`] times, timing each, and keeps the
/// last result. Earlier results are dropped outside the timed span.
/// [`GAP_PASSES`] reference passes run before every repetition and after
/// the last (after an untimed pass that pages the tables in); each
/// repetition is scaled by the median of the passes on both sides of it.
pub fn repeated_setup<S>(mut setup: impl FnMut(usize) -> S) -> (SetupTimes, S) {
    let gap = || -> Vec<f64> { (0..GAP_PASSES).map(|_| reference::pass()).collect() };
    reference::pass();
    let mut wall = Vec::with_capacity(crate::SETUP_REPS);
    let mut gaps = vec![gap()];
    let mut last = None;
    for rep in 0..crate::SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let state = setup(rep);
        wall.push(start.elapsed().as_secs_f64());
        gaps.push(gap());
        last = Some(state);
    }
    let scaled = wall
        .iter()
        .zip(gaps.windows(2))
        .map(|(s, around)| s * reference::NOMINAL_S / median(&around.concat()))
        .collect();
    (
        SetupTimes { scaled, wall },
        last.expect("at least one set-up repetition"),
    )
}

impl Phase {
    /// Times one op and records it; a panic counts as a failed op that
    /// did no work.
    fn record(&mut self, op: impl FnOnce() -> (u64, bool)) {
        crate::heap::reset_peak();
        let t0 = Instant::now();
        let (work, ok) = catch_unwind(AssertUnwindSafe(op)).unwrap_or((0, false));
        self.op_secs.push(t0.elapsed().as_secs_f64());
        self.op_heap_mb.push(crate::heap::peak_mb());
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.work += work;
    }
}

/// Runs ops `0, 1, …`, each followed by a reference pass, until
/// `seconds` have passed and at least [`MIN_OPS`] ran; `op` returns
/// `(work, ok)`.
fn timed_ops(seconds: f64, mut op: impl FnMut(u64) -> (u64, bool)) -> Phase {
    let mut phase = Phase {
        host_before: HostSample::read(),
        ..Phase::default()
    };
    let start = Instant::now();
    while phase.op_secs.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let index = phase.attempted;
        phase.record(|| op(index));
        phase.reference_s.push(reference::pass());
    }
    phase.host_after = HostSample::read();
    phase.op_scale = (0..phase.op_secs.len())
        .map(|i| reference::scale(&phase.reference_s, i))
        .collect();
    phase.finish_ops();
    phase
}

impl Phase {
    /// Sets the phase's wall times and heap peak from its ops.
    fn finish_ops(&mut self) {
        self.wall_s = self.op_secs.iter().sum();
        self.scaled_wall_s = self.scaled_ms().iter().sum::<f64>() / 1e3;
        self.heap_peak_mb = median(&self.op_heap_mb);
    }
}

/// The timed phases of a workload whose ops are single calls.
#[derive(Debug)]
pub struct OpPhases {
    measured: Phase,
    traced: Option<Phase>,
    fingerprints: Vec<(u64, u64)>,
    /// The traced ops' spans; attribution probes add theirs.
    pub tracer: Tracer,
}

/// Runs untraced ops for `ctx.seconds`. A traced run alternates instead:
/// each op index runs untraced, then again traced inside an [`OP_SPAN`]
/// root, so both phases see the same host conditions; neither is scaled
/// to the reference speed. A phase's wall time is the sum of its ops'. An op fails when its own checks fail,
/// when its fingerprint differs from the one recorded for its index, or
/// (traced) when it differs from its untraced twin's.
pub fn op_phases(
    ctx: &Ctx<'_>,
    mut untraced: impl FnMut(u64) -> OpOutcome,
    mut traced: impl FnMut(&Tracer, u64, u64) -> OpOutcome,
) -> OpPhases {
    let checked =
        |index: u64, out: &OpOutcome| out.ok && ctx.fingerprint_ok(index, out.fingerprint);
    let mut fingerprints = Vec::new();
    let tracer = Tracer::default();
    if !ctx.trace {
        let measured = timed_ops(ctx.seconds, |index| {
            let out = untraced(index);
            fingerprints.push((index, out.fingerprint));
            (out.work, checked(index, &out))
        });
        return OpPhases {
            measured,
            traced: None,
            fingerprints,
            tracer,
        };
    }
    let mut measured = Phase {
        host_before: HostSample::read(),
        ..Phase::default()
    };
    let mut twin = Phase {
        host_before: measured.host_before,
        ..Phase::default()
    };
    let start = Instant::now();
    let mut index = 0;
    while measured.op_secs.len() < MIN_OPS || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut untraced_fp = None;
        measured.record(|| {
            let out = untraced(index);
            untraced_fp = Some(out.fingerprint);
            (out.work, checked(index, &out))
        });
        if let Some(fp) = untraced_fp {
            fingerprints.push((index, fp));
        }
        twin.record(|| {
            let out = tracer.span(OP_SPAN, 0, index, |root| traced(&tracer, root, index));
            let same = untraced_fp.is_none_or(|fp| fp == out.fingerprint);
            (out.work, same && checked(index, &out))
        });
        index += 1;
    }
    let host_after = HostSample::read();
    for phase in [&mut measured, &mut twin] {
        phase.host_after = host_after;
        phase.finish_ops();
    }
    OpPhases {
        measured,
        traced: Some(twin),
        fingerprints,
        tracer,
    }
}

impl OpPhases {
    /// The run these phases make, with their spans.
    pub fn into_run(self, setup: SetupTimes, work_unit: &'static str) -> WorkloadRun {
        WorkloadRun {
            setup_s: setup.scaled,
            setup_wall_s: setup.wall,
            measured: self.measured,
            traced: self.traced,
            work_unit,
            fingerprints: self.fingerprints,
            spans: self.tracer.spans(),
            ..WorkloadRun::default()
        }
    }
}

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail statistic: the highest nearest-rank percentile that still
/// has at least 10 samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile (the median over sets, when the
    /// samples were split into sets).
    pub value: f64,
    /// The percentile, 0–100.
    pub percentile: f64,
    /// Samples it was taken over (per set).
    pub samples: usize,
    /// Samples strictly beyond it (10 whenever `samples > 10`).
    pub beyond: usize,
    /// Interleaved sets the value is the median over (1: all samples).
    pub sets: usize,
}

/// Computes [`Tail`]. With 10 or fewer samples no percentile has 10
/// beyond it; the maximum is returned with `beyond` below 10.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            samples: 0,
            beyond: 0,
            sets: 1,
        };
    }
    // Nearest rank r (1-based) leaves n - r samples beyond it; the
    // largest r with n - r >= 10 is n - 10.
    let rank = if n > 10 { n - 10 } else { n };
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond: n - rank,
        sets: 1,
    }
}

/// [`tail`] of each of `sets` interleaved sets (sample `i` goes to set
/// `i % sets`), and the median of their values. With about 10 samples
/// beyond it, one set's tail moves with which few requests met a host
/// preemption; the median over sets that each span the whole phase does
/// not. Percentile and counts are those of the first set.
pub fn tail_of_sets(values: &[f64], sets: usize) -> Tail {
    if sets <= 1 {
        return tail(values);
    }
    let tails: Vec<Tail> = (0..sets)
        .map(|set| {
            let members: Vec<f64> = values.iter().skip(set).step_by(sets).copied().collect();
            tail(&members)
        })
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Tail {
        value: median(&values),
        sets,
        ..tails[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);

        // 1000 samples: p99, the 990th smallest.
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));

        // 31 samples: rank 21 of 31.
        let values: Vec<f64> = (0..31).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 20.0);
        assert!((t.percentile - 100.0 * 21.0 / 31.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_sets_is_the_median_of_each_sets_tail() {
        // Four sets of 100: set k holds k*1000 + 1..=100 interleaved, so
        // its tail is k*1000 + 90; the median of 90, 1090, 2090, 3090.
        let values: Vec<f64> = (0..400)
            .map(|i| f64::from((i % 4) * 1000 + i / 4 + 1))
            .collect();
        let t = tail_of_sets(&values, 4);
        assert_eq!(t.value, 1590.0);
        assert_eq!(
            (t.percentile, t.samples, t.beyond, t.sets),
            (90.0, 100, 10, 4)
        );
        assert_eq!(tail_of_sets(&values, 1), tail(&values));
    }

    #[test]
    fn tail_of_a_short_run_is_its_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.beyond), (3.0, 0));
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.beyond), (0.0, 10));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn a_panicking_op_counts_as_failed() {
        let phase = timed_ops(0.0, |i| {
            assert!(i != 3, "op 3 panics");
            (1, true)
        });
        assert_eq!(phase.op_secs.len(), MIN_OPS);
        assert_eq!(
            (phase.attempted, phase.failed, phase.work),
            (MIN_OPS as u64, 1, 20)
        );
        // Every op is followed by a reference pass and scaled by it.
        assert_eq!(phase.reference_s.len(), MIN_OPS);
        assert_eq!(phase.op_scale.len(), MIN_OPS);
        assert!(phase.scaled_wall_s > 0.0 && phase.p50_ms() > 0.0);
    }
}
