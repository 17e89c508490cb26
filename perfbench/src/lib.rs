//! The repository's benchmark: four workloads, each timed end to end
//! from outside the program and, in a separate traced run, split across
//! the workspace crates (the layers) by spans the benchmark wraps around
//! its own calls into each layer's public functions.
//!
//! * [`fleet_campaign`] — `fleet::run_fleet` over a fresh small fleet;
//! * [`redteam_campaign`] — `redteam::run_campaign` with a small GA budget;
//! * [`dram_relaxed`] — a reduced Fig. 8a panel under the 35× TREFP;
//! * [`serve_mixed`] — closed-loop keep-alive clients against `serve()`
//!   on loopback, replaying the seeded `loadgen` mix beside epoch rolls.
//!
//! The bounded time metrics are scaled to one host speed by a reference
//! kernel timed beside the ops ([`reference`]); raw wall times are
//! printed beside them.
//!
//! See `perfbench/README.md` for why each workload exists, the metric
//! definitions and the layer → end-to-end predictions.

pub mod dram_relaxed;
pub mod fleet_campaign;
pub mod heap;
pub mod host;
pub mod measure;
pub mod redteam_campaign;
pub mod reference;
pub mod report;
pub mod serve_mixed;
pub mod trace;

use std::collections::BTreeMap;

/// Seed used when none is given; the recorded fingerprints are for it.
pub const DEFAULT_SEED: u64 = 2018;

/// Seed of every set-up's warm-up inputs, whatever the run's seed: set-up
/// then does the same work in every run. With warm-up ops drawn from the
/// run's seed, red-team set-ups of five seeds ran five different pairs of
/// campaigns, and `setup_s` spread by 0.31.
pub const WARMUP_SEED: u64 = DEFAULT_SEED;

/// Worker threads every workload uses: the core count of the 2-core VM
/// the benchmark's bounds were set on.
pub const WORKERS: usize = 2;

/// Set-up repetitions per run, each doing the same work; `setup_s` is
/// their median.
pub const SETUP_REPS: usize = 5;

/// The workloads, in the order the steadiness report alternates them.
pub const WORKLOADS: [&str; 4] = [
    "fleet-campaign",
    "redteam-campaign",
    "dram-relaxed",
    "serve-mixed",
];

/// Problem size. `Tiny` exists for the benchmark's own tests: same code
/// paths, inputs small enough to run all four workloads in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// The test size.
    Tiny,
}

/// Expected per-op output fingerprints, keyed by `(workload, op index)`.
/// Recorded for [`DEFAULT_SEED`] at [`Scale::Full`].
#[derive(Debug, Clone, Default)]
pub struct Expected {
    map: BTreeMap<(String, u64), u64>,
}

impl Expected {
    /// Parses the `workload index fingerprint-hex` line format; `#`
    /// starts a comment line.
    ///
    /// # Panics
    ///
    /// Panics on a malformed line: the file ships with the benchmark.
    pub fn parse(text: &str) -> Self {
        let mut map = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, index, fp] = fields[..] else {
                panic!("malformed expected line: {line}");
            };
            let index = index.parse().expect("op index is a u64");
            let fp = u64::from_str_radix(fp, 16).expect("fingerprint is hex");
            map.insert((workload.to_owned(), index), fp);
        }
        Expected { map }
    }

    /// The fingerprints shipped with the benchmark.
    pub fn recorded() -> Self {
        Expected::parse(include_str!("../expected.txt"))
    }

    /// Records one fingerprint.
    pub fn insert(&mut self, workload: &str, index: u64, fingerprint: u64) {
        self.map.insert((workload.to_owned(), index), fingerprint);
    }

    /// The expected fingerprint of op `index` of `workload`, if recorded.
    pub fn get(&self, workload: &str, index: u64) -> Option<u64> {
        self.map.get(&(workload.to_owned(), index)).copied()
    }

    /// Renders the file format [`Expected::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Output fingerprints per op (FNV-1a of the op's deterministic outputs),\n\
             # seed 2018, full scale. Regenerate with `perfbench record-expected`.\n",
        );
        for ((workload, index), fp) in &self.map {
            out.push_str(&format!("{workload} {index} {fp:016x}\n"));
        }
        out
    }
}

/// Everything a workload run is parameterized by.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds; a traced run spends it on
    /// untraced and traced ops alike.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// Fingerprints to check ops against; only consulted at
    /// [`DEFAULT_SEED`], the seed they are recorded for.
    pub expected: &'a Expected,
}

impl Ctx<'_> {
    /// Whether op `index`'s fingerprint matches the recorded one (true
    /// when none is recorded for this seed and index).
    pub fn fingerprint_ok(&self, index: u64, fingerprint: u64) -> bool {
        self.seed != DEFAULT_SEED
            || self
                .expected
                .get(self.workload, index)
                .is_none_or(|want| want == fingerprint)
    }
}

/// FNV-1a over bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in, followed by a separator so field boundaries count.
    pub fn push(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64 finalizer: the per-op input seed is `mix(seed, index)`, so
/// inputs advance with the op index and never repeat.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs one workload.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(ctx: &Ctx<'_>) -> measure::WorkloadRun {
    match ctx.workload {
        "fleet-campaign" => fleet_campaign::run(ctx),
        "redteam-campaign" => redteam_campaign::run(ctx),
        "dram-relaxed" => dram_relaxed::run(ctx),
        "serve-mixed" => serve_mixed::run(ctx),
        other => panic!("unknown workload {other}"),
    }
}
