//! Weak-cell retention model.
//!
//! Simulating 2.75 × 10¹¹ individual cells is intractable and unnecessary:
//! at the refresh periods and temperatures the paper explores, only a sparse
//! tail of "weak" cells can ever fail. Following the retention literature
//! (Liu et al., ISCA'13) we model that tail as two populations:
//!
//! * a **defect tail** — cells with manufacturing defects whose retention is
//!   low at any temperature; these dominate the 50 °C counts and carry a
//!   strong bank-to-bank layout signature (the 41 % spread of Table I);
//! * a **main tail** — the extreme lower tail of the bulk lognormal
//!   retention distribution; these dominate at 60 °C, where Table I's
//!   bank-to-bank spread compresses to 16 %.
//!
//! Retention halves every [`RetentionModel::halving_celsius`] kelvin
//! (cell-leakage Arrhenius behaviour linearized over the 45–75 °C window).
//! Data-pattern dependence enters as *stress relief*: the random data
//! pattern is the worst case (it defines the base retention), solid and
//! checkerboard patterns under-stress bitline coupling and therefore see a
//! longer effective retention.

use crate::geometry::{
    BankId, CellAddr, RankId, WordAddr, BANKS_PER_CHIP, CODE_BITS_PER_WORD, COLS_PER_ROW,
    RANK_COUNT, ROWS_PER_BANK,
};
use crate::math;
use crate::{entry, Fields};
use power_model::units::{Celsius, Milliseconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// Which stored value leaks: a *true cell* loses a stored `1`, an
/// *anti cell* loses a stored `0` (charge encodes the opposite level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Polarity {
    /// Charged state encodes logical 1.
    True,
    /// Charged state encodes logical 0.
    Anti,
}

impl Polarity {
    /// The stored bit value that is vulnerable to leakage.
    pub fn charged_value(self) -> bool {
        matches!(self, Polarity::True)
    }
}

/// Data-pattern context seen by a cell, ordered from most to least
/// stressful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CouplingContext {
    /// Random or high-entropy data — the worst case (base retention).
    WorstCase,
    /// Regular alternating data (checkerboard).
    Alternating,
    /// Solid data (all-0s / all-1s) — minimal bitline stress.
    Uniform,
}

/// One weak cell and its retention characteristics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeakCell {
    /// Physical location.
    pub addr: CellAddr,
    /// Leakage polarity.
    pub polarity: Polarity,
    /// Retention of the charged state at 60 °C under worst-case data, ms.
    pub retention_at_60c_ms: f64,
    /// Effective-retention multiplier (> 1) under checkerboard data.
    pub relief_alternating: f64,
    /// Effective-retention multiplier (> 1) under solid data.
    pub relief_uniform: f64,
}

impl WeakCell {
    /// Effective retention at `temp` under a data context, in ms.
    pub fn retention_ms(
        &self,
        temp: Celsius,
        context: CouplingContext,
        model: &RetentionModel,
    ) -> f64 {
        let temp_factor = model.temperature_factor(temp);
        let relief = match context {
            CouplingContext::WorstCase => 1.0,
            CouplingContext::Alternating => self.relief_alternating,
            CouplingContext::Uniform => self.relief_uniform,
        };
        self.retention_at_60c_ms * temp_factor * relief
    }

    /// Whether the cell's charge decays within `interval` at `temp` under
    /// `context` (ignores what is stored — see [`Polarity`]).
    pub fn decays_within(
        &self,
        interval: Milliseconds,
        temp: Celsius,
        context: CouplingContext,
        model: &RetentionModel,
    ) -> bool {
        self.retention_ms(temp, context, model) < interval.as_f64()
    }
}

/// Expected Table I counts used to calibrate the per-bank rates: unique
/// error locations per bank under the random data-pattern benchmark at
/// TREFP = 2.283 s.
pub const TABLE1_50C: [f64; 8] = [180.0, 213.0, 228.0, 230.0, 163.0, 198.0, 204.0, 208.0];
/// Expected per-bank counts at 60 °C (see [`TABLE1_50C`]).
pub const TABLE1_60C: [f64; 8] = [
    3358.0, 3610.0, 3641.0, 3842.0, 3293.0, 3448.0, 3601.0, 3540.0,
];

/// The calibrated two-population retention model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetentionModel {
    /// Reference temperature of the base retention values.
    ref_temp: Celsius,
    /// Kelvin per halving of retention.
    halving_celsius: f64,
    /// ln(seconds) location of the main-tail lognormal at 60 °C.
    main_mu_ln_s: f64,
    /// Shape of the main-tail lognormal.
    main_sigma: f64,
    /// Expected main-tail cells per bank with retention below the
    /// calibration threshold (2.283 s at 60 °C), across the whole array.
    main_rate_per_bank: [f64; 8],
    /// ln(seconds) location of the defect-tail lognormal at 60 °C.
    defect_mu_ln_s: f64,
    /// Shape of the defect-tail lognormal.
    defect_sigma: f64,
    /// Hard cap on defect retention at 60 °C (they fail even at 50 °C).
    defect_cap_s: f64,
    /// Expected defect cells per bank across the whole array.
    defect_rate_per_bank: [f64; 8],
    /// Calibration refresh period.
    calibration_trefp: Milliseconds,
}

impl RetentionModel {
    /// The model calibrated to the paper's 72 Micron MT41J512M8 chips, so
    /// that the expected per-bank unique-error counts at 2.283 s reproduce
    /// Table I at 50 °C and 60 °C.
    pub fn xgene2_micron() -> Self {
        let halving_celsius = 10.0;
        // Main-tail shape: σ = 0.85 spreads the weak cells' retention over
        // roughly a decade below the 2.283 s calibration threshold (cells
        // between ~0.3 s and 2.283 s), matching the broad retention tails
        // of Liu ISCA'13 — workloads whose access gaps only reach part of
        // a refresh period then catch part of the tail (Fig. 8a). The
        // location anchors the threshold 3.32σ into the tail.
        let main_sigma = 0.85;
        let calibration_s = Milliseconds::DSN18_RELAXED_TREFP.as_secs();
        let main_mu_ln_s = calibration_s.ln() + 3.32 * main_sigma;
        // Fraction of main-tail cells (below the 60 °C calibration
        // threshold) that already fail at 50 °C, where retention doubles.
        let z60 = (calibration_s.ln() - main_mu_ln_s) / main_sigma;
        let z50 = ((calibration_s / 2.0).ln() - main_mu_ln_s) / main_sigma;
        let q = math::normal_cdf(z50) / math::normal_cdf(z60);
        let mut main_rate = [0.0; 8];
        let mut defect_rate = [0.0; 8];
        for b in 0..8 {
            // Solve d + q·m = c50 and d + m = c60.
            let m = (TABLE1_60C[b] - TABLE1_50C[b]) / (1.0 - q);
            let d = (TABLE1_50C[b] - q * m).max(0.0);
            main_rate[b] = m;
            defect_rate[b] = d;
        }
        RetentionModel {
            ref_temp: Celsius::new(60.0),
            halving_celsius,
            main_mu_ln_s,
            main_sigma,
            main_rate_per_bank: main_rate,
            defect_mu_ln_s: 0.5_f64.ln(),
            defect_sigma: 0.4,
            // Defects must fail at 50 °C (retention ×2): cap below
            // calibration/2 = 1.14 s.
            defect_cap_s: calibration_s / 2.0,
            defect_rate_per_bank: defect_rate,
            calibration_trefp: Milliseconds::DSN18_RELAXED_TREFP,
        }
    }

    /// Ablation variant: the same calibration but with the defect tail
    /// removed and the main-tail rates refit to the 60 °C counts alone.
    /// Used to demonstrate that a single lognormal population cannot
    /// reproduce Table I's bank-to-bank spread at 50 °C.
    pub fn xgene2_micron_no_defect_tail() -> Self {
        let mut model = RetentionModel::xgene2_micron();
        for (b, &rate) in TABLE1_60C.iter().enumerate() {
            model.main_rate_per_bank[b] = rate;
            model.defect_rate_per_bank[b] = 0.0;
        }
        model
    }

    /// Retention multiplier at `temp` relative to the 60 °C reference
    /// (`2^((60 − T)/halving)`).
    pub fn temperature_factor(&self, temp: Celsius) -> f64 {
        let dt = self.ref_temp.delta(temp);
        (dt / self.halving_celsius).exp2()
    }

    /// Kelvin per retention halving.
    pub fn halving_celsius(&self) -> f64 {
        self.halving_celsius
    }

    /// Expected number of weak cells in bank `bank` (across the whole
    /// array) whose worst-case retention at `temp` is below `trefp`.
    pub fn expected_failing(&self, bank: BankId, temp: Celsius, trefp: Milliseconds) -> f64 {
        // A cell with base retention r (at 60 °C) fails at temperature T
        // iff r · 2^((60−T)/h) < trefp.
        let threshold_s = trefp.as_secs() / self.temperature_factor(temp);
        let b = bank.index();
        // Main tail: rate is calibrated at the 2.283 s threshold.
        let z = (threshold_s.ln() - self.main_mu_ln_s) / self.main_sigma;
        let z_cal = (self.calibration_trefp.as_secs().ln() - self.main_mu_ln_s) / self.main_sigma;
        let main = self.main_rate_per_bank[b] * math::normal_cdf(z) / math::normal_cdf(z_cal);
        // Defect tail: truncated lognormal below the cap.
        let zc = (self.defect_cap_s.ln() - self.defect_mu_ln_s) / self.defect_sigma;
        let zd =
            (threshold_s.min(self.defect_cap_s).ln() - self.defect_mu_ln_s) / self.defect_sigma;
        let defect = self.defect_rate_per_bank[b] * math::normal_cdf(zd) / math::normal_cdf(zc);
        main + defect
    }
}

impl Default for RetentionModel {
    fn default() -> Self {
        RetentionModel::xgene2_micron()
    }
}

/// Bounds on the conditions a generated population must cover.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationSpec {
    /// Hottest temperature that will be simulated.
    pub max_temperature: Celsius,
    /// Longest refresh period that will be simulated.
    pub max_trefp: Milliseconds,
}

impl PopulationSpec {
    /// The paper's characterization envelope: 60 °C at 2.283 s.
    pub fn dsn18() -> Self {
        PopulationSpec {
            max_temperature: Celsius::new(60.0),
            max_trefp: Milliseconds::DSN18_RELAXED_TREFP,
        }
    }
}

/// The generated sparse weak-cell population.
///
/// # Examples
///
/// ```
/// use dram_sim::retention::{PopulationSpec, RetentionModel, WeakCellPopulation};
///
/// let model = RetentionModel::xgene2_micron();
/// let pop = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 42);
/// assert!(pop.len() > 10_000); // tens of thousands of weak cells
/// ```
///
/// [`Self::generate`] stores the recipe, `{model, spec, seed}`, and draws
/// the cells the first time something reads them: a board that is booted
/// and never reads its DRAM holds no cells. A generated population
/// encodes as its recipe whether or not it was drawn, and decoding a
/// recipe draws nothing; a population built from an explicit cell list
/// ([`Self::from_cells`]: an aged one, or one decoded from a checkpoint
/// that carried cells) encodes as `{model, cells}`. The row index is
/// built on the first row lookup.
#[derive(Debug)]
pub struct WeakCellPopulation {
    model: RetentionModel,
    /// The cells, shared by every clone: empty until the first read of a
    /// generated population, filled at construction for an explicit list.
    cells: Arc<OnceLock<Vec<WeakCell>>>,
    /// The envelope and seed [`Self::generate`] draws the cells from;
    /// `None` for an explicit cell list.
    recipe: Option<(PopulationSpec, u64)>,
    index: OnceLock<RowIndex>,
}

/// A clone shares the cells, drawn or not, and never copies them. Cloning
/// a drawn population builds the row index first, so that every clone
/// shares it too: a population is cloned to back another array, and
/// arrays look rows up. An undrawn one is cloned as it is, so a clone
/// draws nothing either.
impl Clone for WeakCellPopulation {
    fn clone(&self) -> Self {
        let index = match self.cells.get() {
            Some(_) => OnceLock::from(self.index().clone()),
            None => OnceLock::new(),
        };
        WeakCellPopulation {
            model: self.model.clone(),
            cells: Arc::clone(&self.cells),
            recipe: self.recipe,
            index,
        }
    }
}

/// Row-major index of the weak rows. A row is keyed by `(row, lane)`: its
/// row within the bank, then its lane `rank · 8 + bank`. A memory
/// controller stripes consecutive words across ranks and banks, so an
/// access stream cycles through the 64 rows that share one row index. Keyed
/// this way their occupancy is one bitmap word; in flat row order it would
/// be 64 words spread 8 KB apart. The index never changes once built, so
/// clones share its arrays.
#[derive(Debug, Clone)]
struct RowIndex {
    /// Per row index: bit `lane` set ⇔ that row hosts a weak cell.
    lanes: Arc<[u64]>,
    /// Per row index: the weak rows before it in key order, so a weak
    /// row's ordinal is `before[row]` plus the set lanes below its own.
    before: Arc<[u32]>,
    /// Flat address of each weak row, by ordinal (key order).
    rows: Arc<[u64]>,
    /// `cells[offsets[o]..offsets[o + 1]]` belongs to weak row `o`.
    offsets: Arc<[u32]>,
    /// Indices into the population's cells, grouped by weak row and
    /// ascending by column within a row (generation order within a word).
    cells: Arc<[u32]>,
}

/// Lanes per row index: ranks × banks.
const LANES: u64 = (RANK_COUNT * BANKS_PER_CHIP) as u64;

/// `(row, lane)` of a flat row address, or `None` past the last rank.
#[inline]
fn row_key(flat_row: u64) -> Option<(usize, u32)> {
    let lane = flat_row / ROWS_PER_BANK as u64;
    (lane < LANES).then(|| ((flat_row % ROWS_PER_BANK as u64) as usize, lane as u32))
}

impl RowIndex {
    fn build(cells: &[WeakCell]) -> Self {
        let mut lanes = vec![0u64; ROWS_PER_BANK];
        let keys: Vec<(usize, u32)> = cells
            .iter()
            .map(|cell| {
                let key = row_key(cell.addr.word.row_addr().flatten())
                    .expect("a cell address names a valid rank and bank");
                lanes[key.0] |= 1 << key.1;
                key
            })
            .collect();
        let mut before = Vec::with_capacity(ROWS_PER_BANK);
        let mut rows = Vec::new();
        for (row, &word) in lanes.iter().enumerate() {
            before.push(rows.len() as u32);
            let mut rest = word;
            while rest != 0 {
                let lane = u64::from(rest.trailing_zeros());
                rows.push(lane * ROWS_PER_BANK as u64 + row as u64);
                rest &= rest - 1;
            }
        }
        let mut index = RowIndex {
            lanes: lanes.into(),
            before: before.into(),
            rows: rows.into(),
            offsets: Arc::default(),
            cells: Arc::default(),
        };
        // Counting sort of the cells by ordinal keeps generation order
        // within each row; a stable sort by column then orders each row.
        let ordinals: Vec<usize> = keys
            .iter()
            .map(|&(row, lane)| index.ordinal_of(row, lane).expect("indexed above"))
            .collect();
        let mut offsets = vec![0u32; index.rows.len() + 1];
        for &o in &ordinals {
            offsets[o + 1] += 1;
        }
        for o in 0..index.rows.len() {
            offsets[o + 1] += offsets[o];
        }
        let mut next: Vec<u32> = offsets[..index.rows.len()].to_vec();
        let mut grouped = vec![0u32; cells.len()];
        for (i, &o) in ordinals.iter().enumerate() {
            grouped[next[o] as usize] = i as u32;
            next[o] += 1;
        }
        for pair in offsets.windows(2) {
            let row = &mut grouped[pair[0] as usize..pair[1] as usize];
            if row.len() > 1 {
                row.sort_by_key(|&i| cells[i as usize].addr.word.col);
            }
        }
        index.offsets = offsets.into();
        index.cells = grouped.into();
        index
    }

    #[inline]
    fn ordinal_of(&self, row: usize, lane: u32) -> Option<usize> {
        let word = self.lanes[row];
        let bit = 1u64 << lane;
        (word & bit != 0)
            .then(|| self.before[row] as usize + (word & (bit - 1)).count_ones() as usize)
    }
}

/// What generation draws from, per tail and bank. Nothing here draws a
/// random number, so it is computed before the first draw and leaves the
/// generator's stream unchanged.
struct Tails {
    /// `(mu, sigma, cap_s)` of the main and the defect tail's truncated
    /// lognormal, in that order.
    shapes: [(f64, f64, f64); 2],
    /// Per bank, the Poisson mean of each tail's cell count.
    means: [[f64; 2]; BANKS_PER_CHIP],
}

/// Most cells a decoded recipe may expect: 2²¹ (84 MB of cells). That
/// admits the model's 45–75 °C window at the paper's 2.283 s, where 75 °C
/// expects about 1.11 million cells and 60 °C about 28,300.
const MAX_DECODED_CELLS: f64 = 2_097_152.0;

impl Tails {
    fn new(model: &RetentionModel, spec: PopulationSpec) -> Self {
        // Worst-case base-retention threshold a cell needs to possibly fail
        // within the spec envelope (plus slack for stress-relief factors —
        // relief multipliers only *raise* effective retention, so the
        // envelope threshold itself is sufficient).
        let threshold_s = spec.max_trefp.as_secs() / model.temperature_factor(spec.max_temperature);
        let z_cal =
            (model.calibration_trefp.as_secs().ln() - model.main_mu_ln_s) / model.main_sigma;
        let p_cal = math::normal_cdf(z_cal);
        let z_thr = (threshold_s.ln() - model.main_mu_ln_s) / model.main_sigma;
        let p_thr = math::normal_cdf(z_thr);
        // Defect tail (cap may exceed the envelope threshold at mild
        // conditions; generate up to the smaller of the two).
        let cap = model.defect_cap_s.min(threshold_s.max(f64::MIN_POSITIVE));
        let zc = (model.defect_cap_s.ln() - model.defect_mu_ln_s) / model.defect_sigma;
        let zd = (cap.ln() - model.defect_mu_ln_s) / model.defect_sigma;
        let (p_d, p_c) = (math::normal_cdf(zd), math::normal_cdf(zc));
        Tails {
            shapes: [
                (model.main_mu_ln_s, model.main_sigma, threshold_s),
                (model.defect_mu_ln_s, model.defect_sigma, cap),
            ],
            means: std::array::from_fn(|b| {
                [
                    model.main_rate_per_bank[b] * p_thr / p_cal,
                    model.defect_rate_per_bank[b] * p_d / p_c,
                ]
            }),
        }
    }

    /// The expected cell count: the sum of the Poisson means.
    fn expected(&self) -> f64 {
        self.means.iter().flatten().sum()
    }

    /// Whether generation can draw these tails: every mean finite and not
    /// negative, at most [`MAX_DECODED_CELLS`] in all, and a finite shape
    /// with a positive `sigma` and cap for every tail that expects cells.
    fn check(&self) -> Result<(), Error> {
        if !self
            .means
            .iter()
            .flatten()
            .all(|&m| m >= 0.0 && m.is_finite())
        {
            return Err(Error::custom(format!(
                "population recipe has no finite cell count: {:?}",
                self.means
            )));
        }
        let expected = self.expected();
        if expected > MAX_DECODED_CELLS {
            return Err(Error::custom(format!(
                "population recipe expects {expected:.0} weak cells, above {MAX_DECODED_CELLS}"
            )));
        }
        for (tail, &(mu, sigma, cap)) in self.shapes.iter().enumerate() {
            let drawn = self.means.iter().any(|means| means[tail] > 0.0);
            if drawn && !(mu.is_finite() && sigma.is_finite() && sigma > 0.0 && cap > 0.0) {
                return Err(Error::custom(format!(
                    "population recipe has no valid tail shape: mu {mu}, sigma {sigma}, cap {cap}"
                )));
            }
        }
        Ok(())
    }
}

/// Occupied code words by flat address. Membership is exact, so the hash
/// decides no resample; one [`rand::mix64`] per word costs a fraction of
/// the randomly keyed SipHash a default set would run. The hash is fixed
/// and invertible, so the set suits addresses the generators draw, not
/// addresses chosen outside the program to collide.
pub(crate) type WordSet = HashSet<u64, BuildHasherDefault<WordHasher>>;

/// The [`WordSet`] hasher: the SplitMix64 finalizer of a `u64` key.
#[derive(Debug, Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = rand::mix64(self.0 ^ word);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }
}

impl WeakCellPopulation {
    /// A population covering `spec`, deterministic in `seed`. It stores
    /// the recipe only: the cells are drawn the first time something
    /// reads them ([`Self::cells`], [`Self::len`], a row lookup, a
    /// retention query), once for the population and all its clones.
    ///
    /// What one draw costs: per bank and tail one Poisson draw and one
    /// truncated-lognormal sampler, then per cell one retention draw, one
    /// placement and one probe of the occupied-word set. The set and the
    /// cell list are sized from the expected count before the first draw,
    /// so neither grows while it fills.
    pub fn generate(model: &RetentionModel, spec: PopulationSpec, seed: u64) -> Self {
        WeakCellPopulation {
            model: model.clone(),
            cells: Arc::default(),
            recipe: Some((spec, seed)),
            index: OnceLock::new(),
        }
    }

    /// Draws the cells of the recipe `(spec, seed)` under `model`.
    fn draw(model: &RetentionModel, spec: PopulationSpec, seed: u64) -> Vec<WeakCell> {
        let mut rng = StdRng::seed_from_u64(seed);
        let tails = Tails::new(model, spec);
        let expected = tails.expected();
        // Manufacturers map out words with multiple marginal cells through
        // row/column sparing at production test, so no code word hosts two
        // weak cells — consistent with the paper observing zero
        // uncorrectable errors. Generation resamples colliding locations.
        let mut occupied_words =
            WordSet::with_capacity_and_hasher(expected as usize, <_>::default());
        // The count is a sum of Poisson draws: a few standard deviations
        // over its mean, the list never grows.
        let mut cells = Vec::with_capacity((expected + 6.0 * expected.sqrt()) as usize);
        for bank in BankId::all() {
            // Main tail, then defect tail.
            for (&(mu, sigma, cap), lambda) in tails.shapes.iter().zip(tails.means[bank.index()]) {
                let n = math::sample_poisson(&mut rng, lambda);
                if n == 0 {
                    continue;
                }
                let below = math::LognormalBelow::new(mu, sigma, cap);
                for _ in 0..n {
                    let r = below.sample(&mut rng);
                    cells.push(random_cell(&mut rng, bank, r * 1000.0, &mut occupied_words));
                }
            }
        }
        cells
    }

    /// Builds a population around an explicit cell list — the constructor
    /// the aging model uses to assemble a board's population as it exists
    /// after years of deployment.
    pub fn from_cells(model: RetentionModel, cells: Vec<WeakCell>) -> Self {
        WeakCellPopulation {
            model,
            cells: Arc::new(OnceLock::from(cells)),
            recipe: None,
            index: OnceLock::new(),
        }
    }

    /// The row index, built on the first call.
    #[inline]
    fn index(&self) -> &RowIndex {
        self.index.get_or_init(|| RowIndex::build(self.cells()))
    }

    /// The model this population was generated from.
    pub fn model(&self) -> &RetentionModel {
        &self.model
    }

    /// Number of weak cells.
    pub fn len(&self) -> usize {
        self.cells().len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.cells().is_empty()
    }

    /// All weak cells, drawn on the first call.
    #[inline]
    pub fn cells(&self) -> &[WeakCell] {
        self.cells.get_or_init(|| {
            let (spec, seed) = self
                .recipe
                .expect("an explicit cell list fills its slot at construction");
            WeakCellPopulation::draw(&self.model, spec, seed)
        })
    }

    /// Weak cells located in the given row, as indices into [`Self::cells`],
    /// ascending by column.
    pub fn cells_in_row(&self, flat_row: u64) -> &[u32] {
        self.row_ordinal(flat_row)
            .map_or(&[], |ordinal| self.cells_of(ordinal))
    }

    /// Whether the row hosts any weak cell — a single bitmap probe, the
    /// fast path for externally backed kernel accesses.
    #[inline]
    pub fn row_has_cells(&self, flat_row: u64) -> bool {
        row_key(flat_row).is_some_and(|(row, lane)| (self.index().lanes[row] >> lane) & 1 == 1)
    }

    /// Iterator over the flat row addresses that contain weak cells, in
    /// row-major key order (row index, then rank and bank).
    pub fn rows_with_cells(&self) -> impl Iterator<Item = u64> + '_ {
        self.index().rows.iter().copied()
    }

    /// Number of rows that host weak cells.
    pub(crate) fn weak_row_count(&self) -> usize {
        self.index().rows.len()
    }

    /// The ordinal of a weak row in [`Self::rows_with_cells`] order, or
    /// `None` for a row without weak cells.
    #[inline]
    pub(crate) fn row_ordinal(&self, flat_row: u64) -> Option<usize> {
        let (row, lane) = row_key(flat_row)?;
        self.index().ordinal_of(row, lane)
    }

    /// Flat address of the weak row with `ordinal`.
    pub(crate) fn weak_row(&self, ordinal: usize) -> u64 {
        self.index().rows[ordinal]
    }

    /// Cells of the weak row with `ordinal` (see [`Self::cells_in_row`]).
    pub(crate) fn cells_of(&self, ordinal: usize) -> &[u32] {
        let index = self.index();
        let (start, end) = (index.offsets[ordinal], index.offsets[ordinal + 1]);
        &index.cells[start as usize..end as usize]
    }

    /// Cells that would decay within `trefp` at `temp` under `context` —
    /// the set a multi-round DPBench campaign discovers.
    pub fn failing_cells(
        &self,
        temp: Celsius,
        trefp: Milliseconds,
        context: CouplingContext,
    ) -> impl Iterator<Item = &WeakCell> {
        let model = &self.model;
        self.cells()
            .iter()
            .filter(move |c| c.decays_within(trefp, temp, context, model))
    }

    /// The most leaky cell's effective retention per bank at `temp` under
    /// `context`, in ms — `None` for banks whose population holds no weak
    /// cell. A bank is error-free at refresh period `trefp` iff its floor
    /// is ≥ `trefp`, so a fleet shard can derive each bank's safe refresh
    /// period from this floor without replaying the multi-round campaign.
    pub fn min_retention_per_bank(
        &self,
        temp: Celsius,
        context: CouplingContext,
    ) -> [Option<f64>; BANKS_PER_CHIP] {
        let mut floors = [None; BANKS_PER_CHIP];
        for cell in self.cells() {
            let retention = cell.retention_ms(temp, context, &self.model);
            let slot = &mut floors[cell.addr.word.bank.index()];
            *slot = Some(slot.map_or(retention, |floor: f64| floor.min(retention)));
        }
        floors
    }

    /// Count of failing cells per bank (the Table I measurement).
    pub fn failing_per_bank(
        &self,
        temp: Celsius,
        trefp: Milliseconds,
        context: CouplingContext,
    ) -> [u64; BANKS_PER_CHIP] {
        let mut counts = [0u64; BANKS_PER_CHIP];
        for cell in self.failing_cells(temp, trefp, context) {
            counts[cell.addr.word.bank.index()] += 1;
        }
        counts
    }
}

impl Serialize for WeakCellPopulation {
    fn to_value(&self) -> Value {
        let model = entry("model", &self.model);
        Value::Map(match self.recipe {
            Some((spec, seed)) => vec![model, entry("spec", &spec), entry("seed", &seed)],
            None => vec![model, entry("cells", &self.cells())],
        })
    }
}

/// Decodes a recipe, `{model, spec, seed}`, into an undrawn population
/// that draws on its first read, or a cell list, `{model, cells}`, around
/// those cells; the row index is built again on first use.
///
/// A recipe decodes when generation can draw it: each tail's expected
/// count per bank is finite and not negative, the counts sum to at most
/// 2²¹ cells, and a tail that expects cells has a finite shape with a
/// positive `sigma` and cap. At the paper's 2.283 s the bound admits
/// every temperature of the model's 45–75 °C window (60 °C expects about
/// 28,300 cells, 70 °C about 379,000 and 75 °C about 1.11 million); 80 °C
/// (2.8 million), or 60 °C at four times the period, is refused. A NaN
/// temperature or a negative refresh period makes a count NaN and is
/// refused too. Every listed cell must lie inside the array: its rank,
/// bank, row, column and bit in range. Checkpoints taken before the index
/// was row-major also carry `row_index` and `row_bitmap` fields in the
/// old flat layout; they are never read.
impl Deserialize for WeakCellPopulation {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let fields = Fields::of("WeakCellPopulation", v)?;
        let model: RetentionModel = fields.get("model")?;
        if let Some(spec) = fields.opt::<PopulationSpec>("spec")? {
            let seed: u64 = fields.get("seed")?;
            Tails::new(&model, spec).check()?;
            return Ok(WeakCellPopulation::generate(&model, spec, seed));
        }
        let cells: Vec<WeakCell> = fields.get("cells")?;
        if let Some(cell) = cells.iter().find(|c| {
            let w = c.addr.word;
            w.rank.index() >= RANK_COUNT
                || w.bank.index() >= BANKS_PER_CHIP
                || w.row as usize >= ROWS_PER_BANK
                || usize::from(w.col) >= COLS_PER_ROW
                || usize::from(c.addr.bit) >= CODE_BITS_PER_WORD
        }) {
            return Err(Error::custom(format!(
                "weak cell outside the array: {:?}",
                cell.addr
            )));
        }
        Ok(WeakCellPopulation::from_cells(model, cells))
    }
}

/// Places a weak cell at a uniformly random location within `bank`,
/// resampling any word that already hosts a weak cell (redundancy repair).
pub(crate) fn random_cell(
    rng: &mut StdRng,
    bank: BankId,
    retention_ms: f64,
    occupied_words: &mut WordSet,
) -> WeakCell {
    let (rank, row, col) = loop {
        let rank = RankId::new(rng.gen_range(0..8));
        let row = rng.gen_range(0..ROWS_PER_BANK as u32);
        let col = rng.gen_range(0..COLS_PER_ROW as u16);
        let flat = WordAddr::new(rank, bank, row, col).flatten();
        if occupied_words.insert(flat) {
            break (rank, row, col);
        }
    };
    let bit = rng.gen_range(0..CODE_BITS_PER_WORD as u8);
    let polarity = if rng.gen::<bool>() {
        Polarity::True
    } else {
        Polarity::Anti
    };
    WeakCell {
        addr: CellAddr::new(WordAddr::new(rank, bank, row, col), bit),
        polarity,
        retention_at_60c_ms: retention_ms,
        relief_alternating: rng.gen_range(1.05..1.30),
        relief_uniform: rng.gen_range(1.20..1.70),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(counts: &[u64; 8]) -> f64 {
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        (max - min) / min
    }

    #[test]
    fn expected_counts_match_table1() {
        let model = RetentionModel::xgene2_micron();
        for b in 0..8 {
            let e50 = model.expected_failing(
                BankId::new(b),
                Celsius::new(50.0),
                Milliseconds::DSN18_RELAXED_TREFP,
            );
            let e60 = model.expected_failing(
                BankId::new(b),
                Celsius::new(60.0),
                Milliseconds::DSN18_RELAXED_TREFP,
            );
            assert!(
                (e50 - TABLE1_50C[b as usize]).abs() / TABLE1_50C[b as usize] < 0.02,
                "bank {b} @50°C: {e50} vs {}",
                TABLE1_50C[b as usize]
            );
            assert!(
                (e60 - TABLE1_60C[b as usize]).abs() / TABLE1_60C[b as usize] < 0.02,
                "bank {b} @60°C: {e60} vs {}",
                TABLE1_60C[b as usize]
            );
        }
    }

    #[test]
    fn generated_counts_track_table1() {
        let model = RetentionModel::xgene2_micron();
        let pop = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 7);
        let c50 = pop.failing_per_bank(
            Celsius::new(50.0),
            Milliseconds::DSN18_RELAXED_TREFP,
            CouplingContext::WorstCase,
        );
        let c60 = pop.failing_per_bank(
            Celsius::new(60.0),
            Milliseconds::DSN18_RELAXED_TREFP,
            CouplingContext::WorstCase,
        );
        for b in 0..8 {
            let rel50 = (c50[b] as f64 - TABLE1_50C[b]).abs() / TABLE1_50C[b];
            let rel60 = (c60[b] as f64 - TABLE1_60C[b]).abs() / TABLE1_60C[b];
            assert!(
                rel50 < 0.30,
                "bank {b} @50: {} vs {}",
                c50[b],
                TABLE1_50C[b]
            );
            assert!(
                rel60 < 0.10,
                "bank {b} @60: {} vs {}",
                c60[b],
                TABLE1_60C[b]
            );
        }
        // Bank-to-bank spread compresses from ~41% to ~16% as temperature
        // rises — the paper's headline Table I observation. The sampled
        // spread varies with the generator stream; the floor only has to
        // separate it from the compressed 60 °C spread below.
        assert!(spread(&c50) > 0.15, "50°C spread {}", spread(&c50));
        assert!(spread(&c60) < 0.25, "60°C spread {}", spread(&c60));
        assert!(spread(&c60) < spread(&c50));
    }

    #[test]
    fn counts_increase_with_temperature_and_trefp() {
        let model = RetentionModel::xgene2_micron();
        let b = BankId::new(0);
        let t = Milliseconds::DSN18_RELAXED_TREFP;
        assert!(
            model.expected_failing(b, Celsius::new(60.0), t)
                > model.expected_failing(b, Celsius::new(50.0), t)
        );
        assert!(
            model.expected_failing(b, Celsius::new(50.0), Milliseconds::new(4000.0))
                > model.expected_failing(b, Celsius::new(50.0), t)
        );
    }

    #[test]
    fn nominal_refresh_is_error_free() {
        // At the nominal 64 ms refresh the guardband holds: essentially no
        // weak cell fails even at 60 °C.
        let model = RetentionModel::xgene2_micron();
        let total: f64 = (0..8)
            .map(|b| {
                model.expected_failing(
                    BankId::new(b),
                    Celsius::new(60.0),
                    Milliseconds::DDR3_NOMINAL_TREFP,
                )
            })
            .sum();
        assert!(total < 0.5, "expected failures at nominal refresh: {total}");
    }

    #[test]
    fn stress_relief_reduces_failures() {
        let model = RetentionModel::xgene2_micron();
        let pop = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 9);
        let t = Milliseconds::DSN18_RELAXED_TREFP;
        let worst = pop
            .failing_cells(Celsius::new(60.0), t, CouplingContext::WorstCase)
            .count();
        let alt = pop
            .failing_cells(Celsius::new(60.0), t, CouplingContext::Alternating)
            .count();
        let uni = pop
            .failing_cells(Celsius::new(60.0), t, CouplingContext::Uniform)
            .count();
        assert!(worst > alt, "worst {worst} vs alternating {alt}");
        assert!(alt > uni, "alternating {alt} vs uniform {uni}");
    }

    #[test]
    fn bank_retention_floor_separates_failing_from_safe_periods() {
        let model = RetentionModel::xgene2_micron();
        let pop = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 21);
        let temp = Celsius::new(60.0);
        let floors = pop.min_retention_per_bank(temp, CouplingContext::WorstCase);
        let counts = pop.failing_per_bank(
            temp,
            Milliseconds::DSN18_RELAXED_TREFP,
            CouplingContext::WorstCase,
        );
        for (b, floor) in floors.iter().enumerate() {
            let floor = floor.expect("every bank has weak cells at the envelope");
            // The floor really is a lower bound on every cell's retention…
            for cell in pop.cells().iter().filter(|c| c.addr.word.bank.index() == b) {
                assert!(cell.retention_ms(temp, CouplingContext::WorstCase, &model) >= floor);
            }
            // …and is consistent with the failing-count view: errors at
            // the paper's relaxed period, none just below the floor.
            assert!(floor < Milliseconds::DSN18_RELAXED_TREFP.as_f64());
            assert!(counts[b] > 0);
            let safe = Milliseconds::new(floor * 0.999);
            assert_eq!(
                pop.failing_per_bank(temp, safe, CouplingContext::WorstCase)[b],
                0,
                "bank {b} must be clean below its retention floor"
            );
        }
    }

    #[test]
    fn row_index_is_consistent() {
        let model = RetentionModel::xgene2_micron();
        let pop = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 11);
        let key = |flat: u64| (flat % ROWS_PER_BANK as u64, flat / ROWS_PER_BANK as u64);
        let rows: Vec<u64> = pop.rows_with_cells().collect();
        assert!(
            rows.windows(2).all(|w| key(w[0]) < key(w[1])),
            "rows ascend strictly in (row, rank, bank) order"
        );
        let mut seen = vec![0u32; pop.len()];
        for &row in &rows {
            assert!(pop.row_has_cells(row));
            let cells = pop.cells_in_row(row);
            assert!(!cells.is_empty());
            for &i in cells {
                seen[i as usize] += 1;
                assert_eq!(pop.cells()[i as usize].addr.word.row_addr().flatten(), row);
            }
            let cols: Vec<u16> = cells
                .iter()
                .map(|&i| pop.cells()[i as usize].addr.word.col)
                .collect();
            assert!(cols.windows(2).all(|w| w[0] <= w[1]), "row {row}: {cols:?}");
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "every cell under exactly one row"
        );

        // Past the last rank, a row's lane would wrap onto a real lane if
        // it were only shifted: rank 0, bank 0 is where it would land.
        let clean = (0..).find(|r| !rows.contains(r)).unwrap();
        let past_the_array = (RANK_COUNT * BANKS_PER_CHIP * ROWS_PER_BANK) as u64;
        let first_lane = *rows
            .iter()
            .find(|&&r| r < ROWS_PER_BANK as u64)
            .expect("rank 0, bank 0 hosts weak rows");
        for row in [
            clean,
            past_the_array,
            first_lane + past_the_array,
            first_lane + 2 * past_the_array,
            u64::MAX,
        ] {
            assert!(!pop.row_has_cells(row), "row {row}");
            assert_eq!(pop.cells_in_row(row), &[] as &[u32], "row {row}");
        }
    }

    #[test]
    fn decoding_rejects_cells_outside_the_array() {
        let model = RetentionModel::xgene2_micron();
        let generated = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 3);
        let pop = WeakCellPopulation::from_cells(model.clone(), generated.cells().to_vec());
        let text = serde::json::to_string(&pop);
        let back: WeakCellPopulation = serde::json::from_str(&text).unwrap();
        assert_eq!(back.cells(), pop.cells());
        let past_the_last_rank = text.replacen("\"rank\":[", "\"rank\":[9", 1);
        // The address types decode without their constructors' checks, so
        // a column or bit past the word reached the first scrub.
        let with_first_cell = |edit: fn(&mut CellAddr)| {
            let mut cells = pop.cells().to_vec();
            edit(&mut cells[0].addr);
            serde::json::to_string(&WeakCellPopulation::from_cells(model.clone(), cells))
        };
        let past_the_last_column = with_first_cell(|addr| addr.word.col = 1500);
        let past_the_last_bit = with_first_cell(|addr| addr.bit = 80);
        for outside in [past_the_last_rank, past_the_last_column, past_the_last_bit] {
            let err = serde::json::from_str::<WeakCellPopulation>(&outside).unwrap_err();
            assert!(err.to_string().contains("outside the array"), "{err}");
        }
    }

    #[test]
    fn a_generated_population_encodes_as_its_recipe() {
        let model = RetentionModel::xgene2_micron();
        let pop = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 2018);
        let text = serde::json::to_string(&pop);
        assert!(text.len() < 1024, "{} bytes", text.len());
        let value = serde::json::parse(&text).unwrap();
        let keys: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["model", "spec", "seed"]);

        let back: WeakCellPopulation = serde::json::from_str(&text).unwrap();
        assert_eq!(back.cells(), pop.cells());
        assert_eq!(serde::json::to_string(&back), text);
        // A clone keeps the recipe.
        assert_eq!(serde::json::to_string(&pop.clone()), text);
    }

    #[test]
    fn an_explicit_cell_list_encodes_as_its_cells() {
        let model = RetentionModel::xgene2_micron();
        let base = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 3);
        let aged = crate::aging::DramAging::dsn18().aged(&base, 36, 7);
        let text = serde::json::to_string(&aged);
        assert!(text.contains("\"cells\""));
        assert!(!text.contains("\"seed\""));
        let back: WeakCellPopulation = serde::json::from_str(&text).unwrap();
        assert_eq!(back.cells(), aged.cells());
        assert_eq!(serde::json::to_string(&back), text);
    }

    /// Replaces every `from` number in `value` by `to`.
    fn replace_f64(value: &mut Value, from: f64, to: f64) {
        match value {
            Value::F64(x) if *x == from => *x = to,
            Value::Seq(items) => items.iter_mut().for_each(|v| replace_f64(v, from, to)),
            Value::Map(fields) => fields
                .iter_mut()
                .for_each(|(_, v)| replace_f64(v, from, to)),
            _ => {}
        }
    }

    #[test]
    fn a_recipe_outside_the_envelope_decodes_to_an_error() {
        // A recipe whose envelope reads as a decoder may find it: the unit
        // constructors refuse NaN and negative values, a decoded value is
        // whatever its source says.
        let recipe = |model: &RetentionModel, max_temperature: f64, max_trefp: f64| {
            let spec = PopulationSpec {
                max_temperature: Celsius::new(-123.25),
                max_trefp: Milliseconds::new(98_765.5),
            };
            let mut value = WeakCellPopulation {
                recipe: Some((spec, 3)),
                ..WeakCellPopulation::from_cells(model.clone(), Vec::new())
            }
            .to_value();
            replace_f64(&mut value, -123.25, max_temperature);
            replace_f64(&mut value, 98_765.5, max_trefp);
            value
        };
        let model = RetentionModel::xgene2_micron();
        let relaxed = Milliseconds::DSN18_RELAXED_TREFP.as_f64();
        let mut flat = model.clone();
        flat.main_sigma = 0.0;
        for (what, value) in [
            ("a NaN temperature", recipe(&model, f64::NAN, relaxed)),
            ("a negative refresh period", recipe(&model, 60.0, -1.0)),
            ("a hot envelope", recipe(&model, 150.0, relaxed)),
            ("a long envelope", recipe(&model, 60.0, 1e9)),
            (
                "an infinite temperature",
                recipe(&model, f64::INFINITY, relaxed),
            ),
            ("a tail without width", recipe(&flat, 60.0, relaxed)),
        ] {
            let err = WeakCellPopulation::from_value(&value)
                .map(|pop| pop.len())
                .unwrap_err();
            assert!(
                err.to_string().contains("population recipe"),
                "{what}: {err}"
            );
        }

        // The edges of the accepted envelope decode: no refresh period
        // (an empty population) and 70 °C at the paper's period.
        for (max_temperature, max_trefp) in [(60.0, 0.0), (70.0, relaxed)] {
            let value = recipe(&model, max_temperature, max_trefp);
            let pop = WeakCellPopulation::from_value(&value).unwrap();
            assert_eq!(pop.to_value(), value);
        }
    }

    #[test]
    fn the_row_index_is_built_on_first_lookup_and_shared_by_clones() {
        let model = RetentionModel::xgene2_micron();
        let pop = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 17);
        assert!(pop.index.get().is_none(), "generation builds no index");
        let _ = pop.min_retention_per_bank(Celsius::new(60.0), CouplingContext::WorstCase);
        assert!(pop.index.get().is_none(), "cell queries build no index");

        let copy = pop.clone();
        let built = pop.index.get().expect("cloning builds the index");
        let shared = copy.index.get().expect("the clone holds it");
        assert!(Arc::ptr_eq(&built.lanes, &shared.lanes));
        assert!(Arc::ptr_eq(&built.cells, &shared.cells));

        let fresh = WeakCellPopulation::from_cells(model, pop.cells().to_vec());
        let row = pop.rows_with_cells().next().unwrap();
        assert_eq!(fresh.cells_in_row(row), pop.cells_in_row(row));
        assert!(fresh.index.get().is_some(), "a lookup builds the index");
    }

    #[test]
    fn a_generated_population_draws_on_first_read_and_clones_share_the_draw() {
        let model = RetentionModel::xgene2_micron();
        let pop = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 2018);
        assert!(pop.cells.get().is_none(), "generation draws nothing");
        let text = serde::json::to_string(&pop);
        assert!(pop.cells.get().is_none(), "encoding a recipe draws nothing");
        let back: WeakCellPopulation = serde::json::from_str(&text).unwrap();
        assert!(
            back.cells.get().is_none(),
            "decoding a recipe draws nothing"
        );

        // An undrawn population encodes to the same bytes as its drawn twin.
        let drawn = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 2018);
        assert!(drawn.len() > 10_000);
        assert_eq!(serde::json::to_string(&drawn), text);

        // A clone shares the slot: whichever side draws, both hold the one
        // cell list.
        let copy = back.clone();
        assert!(copy.cells.get().is_none(), "cloning draws nothing");
        assert_eq!(copy.cells(), drawn.cells());
        assert!(std::ptr::eq(back.cells(), copy.cells()));
        assert!(back.cells.get().is_some(), "the clone drew for both");

        let explicit = WeakCellPopulation::from_cells(model, drawn.cells().to_vec());
        assert!(explicit.cells.get().is_some(), "an explicit list is drawn");
    }

    /// FNV-1a of the JSON of generated cells, recorded before generation
    /// was made cheaper: a changed resample decision or a reordered float
    /// operation moves one of them.
    #[test]
    fn generated_cells_keep_their_recorded_bytes() {
        let model = RetentionModel::xgene2_micron();
        let fingerprint = |pop: &WeakCellPopulation| {
            let json = serde::json::to_string(pop.cells());
            format!("{:016x}", rand::fnv1a(rand::FNV_OFFSET, json.as_bytes()))
        };
        let dsn18 = |seed| WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), seed);
        let hot = PopulationSpec {
            max_temperature: Celsius::new(70.0),
            max_trefp: Milliseconds::DSN18_RELAXED_TREFP,
        };
        let base = dsn18(3);
        let aged = crate::aging::DramAging::dsn18().aged(&base, 36, 7);
        let fingerprints = [
            fingerprint(&base),
            fingerprint(&dsn18(2018)),
            fingerprint(&dsn18(u64::MAX)),
            fingerprint(&WeakCellPopulation::generate(&model, hot, 3)),
            fingerprint(&aged),
        ];
        assert_eq!(
            fingerprints,
            [
                "ca9a916acfb9109c",
                "d9c0a88a6cc12450",
                "2e66715e0a9fe730",
                "e4129981c2ce9dbf",
                "d4c634a72479869f",
            ]
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let model = RetentionModel::xgene2_micron();
        let a = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 5);
        let b = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 5);
        assert_eq!(a.cells(), b.cells());
    }

    #[test]
    fn polarity_split_is_balanced() {
        let model = RetentionModel::xgene2_micron();
        let pop = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 13);
        let true_cells = pop
            .cells()
            .iter()
            .filter(|c| c.polarity == Polarity::True)
            .count() as f64;
        let frac = true_cells / pop.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "true-cell fraction {frac}");
    }
}
