//! The simulated 32 GiB DRAM array with sparse weak-cell decay.
//!
//! Data is held implicitly (whole-array pattern fills) or sparsely
//! (explicitly written words). Decay is evaluated lazily at read time: for
//! each weak cell in the word being read, the maximum recharge gap the cell
//! experienced since its data was written — accounting for the staggered
//! auto-refresh schedule at the configured TREFP and for the inherent
//! refresh performed by row accesses — is compared against the cell's
//! effective retention at the current temperature and data pattern.

use crate::ecc::{DecodeOutcome, Secded72};
use crate::geometry::{CellAddr, RowAddr, WordAddr, BANKS_PER_CHIP};
use crate::patterns::DataPattern;
use crate::retention::{CouplingContext, WeakCellPopulation};
use crate::{entry, Fields};
use power_model::units::{Celsius, Milliseconds};
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::{HashMap, HashSet};

/// Number of staggered auto-refresh phases across rows.
const REFRESH_PHASES: u64 = 8192;

/// Kind of memory error, matching SLIMpro's reporting categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorKind {
    /// Corrected by SECDED (CE).
    Correctable,
    /// Detected but uncorrectable (UE).
    Uncorrectable,
}

/// One logged memory-error event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorRecord {
    /// The failing cell.
    pub cell: CellAddr,
    /// Simulation time of the detection, in ms.
    pub time_ms: f64,
    /// CE or UE.
    pub kind: ErrorKind,
}

/// Accumulated error log with unique-location tracking (the Table I
/// metric counts *unique* error locations). The unique set encodes sorted,
/// so equal logs encode to equal bytes.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct ErrorLog {
    records: Vec<ErrorRecord>,
    unique: HashSet<CellAddr>,
    ce_count: u64,
    ue_count: u64,
}

impl ErrorLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ErrorLog::default()
    }

    fn record(&mut self, cell: CellAddr, time_ms: f64, kind: ErrorKind) {
        match kind {
            ErrorKind::Correctable => self.ce_count += 1,
            ErrorKind::Uncorrectable => self.ue_count += 1,
        }
        self.unique.insert(cell);
        self.records.push(ErrorRecord {
            cell,
            time_ms,
            kind,
        });
    }

    /// Logs every decayed bit of one read of `addr`, as CE or UE by the
    /// read's decode outcome.
    fn record_read(&mut self, addr: WordAddr, time_ms: f64, out: &ReadOutcome) {
        let kind = match out.decode {
            DecodeOutcome::Corrected { .. } => ErrorKind::Correctable,
            DecodeOutcome::Uncorrectable => ErrorKind::Uncorrectable,
            DecodeOutcome::Clean { .. } => return,
        };
        for &bit in &out.flipped_bits {
            self.record(CellAddr::new(addr, bit), time_ms, kind);
        }
    }

    /// All events in detection order.
    pub fn records(&self) -> &[ErrorRecord] {
        &self.records
    }

    /// Total corrected-error events.
    pub fn ce_count(&self) -> u64 {
        self.ce_count
    }

    /// Total uncorrectable-error events.
    pub fn ue_count(&self) -> u64 {
        self.ue_count
    }

    /// Number of distinct failing cell locations seen so far.
    pub fn unique_locations(&self) -> usize {
        self.unique.len()
    }

    /// Unique failing locations per bank — the Table I row.
    pub fn unique_per_bank(&self) -> [u64; BANKS_PER_CHIP] {
        let mut counts = [0u64; BANKS_PER_CHIP];
        for cell in &self.unique {
            counts[cell.word.bank.index()] += 1;
        }
        counts
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.records.clear();
        self.unique.clear();
        self.ce_count = 0;
        self.ue_count = 0;
    }
}

impl Serialize for ErrorLog {
    fn to_value(&self) -> Value {
        let mut unique: Vec<CellAddr> = self.unique.iter().copied().collect();
        unique.sort_unstable();
        Value::Map(vec![
            entry("records", &self.records),
            entry("unique", &unique),
            entry("ce_count", &self.ce_count),
            entry("ue_count", &self.ue_count),
        ])
    }
}

/// Outcome of reading one word.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadOutcome {
    /// The data delivered to the requester (ECC-corrected when possible);
    /// `None` on an uncorrectable error.
    pub data: Option<u64>,
    /// The ECC decode result.
    pub decode: DecodeOutcome,
    /// Code-word bit positions that had decayed.
    pub flipped_bits: Vec<u8>,
}

impl ReadOutcome {
    /// A read in which nothing decayed.
    fn clean(data: u64) -> Self {
        ReadOutcome {
            data: Some(data),
            decode: DecodeOutcome::Clean { data },
            flipped_bits: Vec::new(),
        }
    }
}

/// Read/write traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessCounters {
    /// Word reads.
    pub reads: u64,
    /// Word writes.
    pub writes: u64,
}

impl AccessCounters {
    /// Total bytes moved (8 payload bytes per access).
    pub fn bytes(&self) -> u64 {
        (self.reads + self.writes) * 8
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct FillState {
    pattern: DataPattern,
    time_ms: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct WordState {
    data: u64,
    written_at: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct RowState {
    written_at: f64,
    last_event: f64,
    max_gap: f64,
}

impl RowState {
    /// A row fully recharged at `time_ms`.
    fn recharged(time_ms: f64) -> Self {
        RowState {
            written_at: time_ms,
            last_event: time_ms,
            max_gap: 0.0,
        }
    }
}

/// The simulated DRAM array.
///
/// # Examples
///
/// Run a one-round random DPBench at 60 °C under the 35× relaxed refresh:
///
/// ```
/// use dram_sim::array::DramArray;
/// use dram_sim::patterns::DataPattern;
/// use dram_sim::retention::{PopulationSpec, RetentionModel, WeakCellPopulation};
/// use power_model::units::{Celsius, Milliseconds};
///
/// let pop = WeakCellPopulation::generate(
///     &RetentionModel::xgene2_micron(), PopulationSpec::dsn18(), 42);
/// let mut dram = DramArray::new(pop, Milliseconds::DSN18_RELAXED_TREFP, Celsius::new(60.0));
/// dram.fill_pattern(DataPattern::Random { seed: 1 });
/// dram.advance(Milliseconds::DSN18_RELAXED_TREFP.as_f64() * 2.0);
/// let report = dram.scrub();
/// assert!(report.ce_events > 1_000); // thousands of correctable errors
/// assert_eq!(report.ue_events, 0);   // all corrected by SECDED
/// ```
///
/// It encodes explicit words and row states as `[address, state]` pairs
/// sorted by address, so equal arrays encode to equal bytes.
#[derive(Debug, Clone)]
pub struct DramArray {
    population: WeakCellPopulation,
    codec: Secded72,
    trefp: Milliseconds,
    temperature: Celsius,
    now_ms: f64,
    fill: Option<FillState>,
    words: HashMap<u64, WordState>,
    /// Refresh state of each weak row, by its ordinal in the population's
    /// row index; `None` until the row's first access after a fill. Rows
    /// without weak cells keep no state: no read of them can change. Empty
    /// until a row first keeps state, so a board that is booted and never
    /// reads its DRAM holds none.
    rows: Vec<Option<RowState>>,
    log: ErrorLog,
    counters: AccessCounters,
}

/// Summary of a whole-array scrub (the DPBench read phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Words visited (only words containing weak cells can fail).
    pub words_read: u64,
    /// Correctable-error events raised.
    pub ce_events: u64,
    /// Uncorrectable-error events raised.
    pub ue_events: u64,
    /// Total decayed bits observed.
    pub flipped_bits: u64,
}

impl ScrubReport {
    /// Bit-error rate relative to a full-array scan of `total_bits`.
    pub fn ber(&self, total_bits: u64) -> f64 {
        if total_bits == 0 {
            return 0.0;
        }
        self.flipped_bits as f64 / total_bits as f64
    }
}

impl DramArray {
    /// Creates an array over a weak-cell population at an initial refresh
    /// period and temperature. The array starts zero-filled.
    pub fn new(population: WeakCellPopulation, trefp: Milliseconds, temperature: Celsius) -> Self {
        DramArray {
            population,
            codec: Secded72::new(),
            trefp,
            temperature,
            now_ms: 0.0,
            fill: Some(FillState {
                pattern: DataPattern::AllZeros,
                time_ms: 0.0,
            }),
            words: HashMap::new(),
            rows: Vec::new(),
            log: ErrorLog::new(),
            counters: AccessCounters::default(),
        }
    }

    /// Current simulation time in ms.
    pub fn now(&self) -> f64 {
        self.now_ms
    }

    /// The weak-cell population.
    pub fn population(&self) -> &WeakCellPopulation {
        &self.population
    }

    /// The configured refresh period.
    pub fn trefp(&self) -> Milliseconds {
        self.trefp
    }

    /// Reconfigures the refresh period (the SLIMpro MCU knob).
    pub fn set_trefp(&mut self, trefp: Milliseconds) {
        self.trefp = trefp;
    }

    /// Current DRAM temperature.
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Sets the DRAM temperature (driven by the thermal testbed).
    pub fn set_temperature(&mut self, temperature: Celsius) {
        self.temperature = temperature;
    }

    /// The error log.
    pub fn error_log(&self) -> &ErrorLog {
        &self.log
    }

    /// Clears the error log (between campaign runs).
    pub fn clear_error_log(&mut self) {
        self.log.clear();
    }

    /// Traffic counters.
    pub fn counters(&self) -> AccessCounters {
        self.counters
    }

    /// Advances simulated time by `ms`.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn advance(&mut self, ms: f64) {
        assert!(ms.is_finite() && ms >= 0.0, "time must advance forward");
        self.now_ms += ms;
    }

    /// Fills the entire array with `pattern` (instantaneous, at the current
    /// simulation time). Discards all explicit word data.
    pub fn fill_pattern(&mut self, pattern: DataPattern) {
        self.words.clear();
        self.rows.fill(None);
        self.fill = Some(FillState {
            pattern,
            time_ms: self.now_ms,
        });
    }

    /// Writes a 64-bit payload to `addr` at the current time.
    pub fn write_word(&mut self, addr: WordAddr, data: u64) {
        self.counters.writes += 1;
        self.words.insert(
            addr.flatten(),
            WordState {
                data,
                written_at: self.now_ms,
            },
        );
        self.recharge_row(addr);
    }

    /// Reads the word at `addr`, evaluating weak-cell decay and ECC.
    pub fn read_word(&mut self, addr: WordAddr) -> ReadOutcome {
        self.counters.reads += 1;
        match self.population.row_ordinal(addr.row_addr().flatten()) {
            None => ReadOutcome::clean(self.stored_word(addr).0),
            Some(ordinal) => {
                let outcome = self.read_stored(ordinal, addr);
                self.log.record_read(addr, self.now_ms, &outcome);
                self.touch_row(ordinal);
                outcome
            }
        }
    }

    /// Registers a write whose payload the *caller* stores (externally
    /// backed data, used by workload kernels whose footprints are too large
    /// for the sparse map). Updates refresh bookkeeping only; rows without
    /// weak cells are skipped entirely, so this is cheap on the hot path.
    #[inline]
    pub fn write_external(&mut self, addr: WordAddr) {
        self.counters.writes += 1;
        self.recharge_row(addr);
    }

    /// Reads a word whose payload the caller stores: evaluates weak-cell
    /// decay against `stored`, runs ECC, logs errors, and returns the
    /// (possibly corrected) data. Rows without weak cells short-circuit.
    #[inline]
    pub fn read_external(&mut self, addr: WordAddr, stored: u64) -> ReadOutcome {
        self.counters.reads += 1;
        match self.population.row_ordinal(addr.row_addr().flatten()) {
            None => ReadOutcome::clean(stored),
            Some(ordinal) => self.read_external_weak(ordinal, addr, stored),
        }
    }

    /// [`Self::read_external`] in the row with weak-row `ordinal`; out of
    /// line, so the clean-row path stays small where it is inlined.
    #[inline(never)]
    fn read_external_weak(&mut self, ordinal: usize, addr: WordAddr, stored: u64) -> ReadOutcome {
        let row_state = self.row_state(ordinal);
        let outcome =
            self.evaluate_word(ordinal, addr, stored, row_state, CouplingContext::WorstCase);
        self.log.record_read(addr, self.now_ms, &outcome);
        self.touch_row(ordinal);
        outcome
    }

    /// Scrubs every word that contains weak cells — the efficient
    /// equivalent of the DPBench full-array read (words without weak cells
    /// cannot produce errors). Rows go in the population's key order and
    /// words by column, so equal histories log equal records.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport {
            words_read: 0,
            ce_events: 0,
            ue_events: 0,
            flipped_bits: 0,
        };
        for ordinal in 0..self.population.weak_row_count() {
            let row = row_from_flat(self.population.weak_row(ordinal));
            // Distinct words within the row that hold weak cells; the
            // row's cells ascend by column.
            let cells = self.population.cells();
            let mut last_col = None;
            for &cell in self.population.cells_of(ordinal) {
                let col = cells[cell as usize].addr.word.col;
                if last_col == Some(col) {
                    continue;
                }
                last_col = Some(col);
                let addr = WordAddr::new(row.rank, row.bank, row.row, col);
                let out = self.read_stored(ordinal, addr);
                self.log.record_read(addr, self.now_ms, &out);
                report.words_read += 1;
                report.flipped_bits += out.flipped_bits.len() as u64;
                match out.decode {
                    DecodeOutcome::Corrected { .. } => report.ce_events += 1,
                    DecodeOutcome::Uncorrectable => report.ue_events += 1,
                    DecodeOutcome::Clean { .. } => {}
                }
            }
            self.touch_row(ordinal);
        }
        report
    }

    /// The data stored at `addr` as originally written (golden value).
    pub fn golden_word(&self, addr: WordAddr) -> u64 {
        self.stored_word(addr).0
    }

    /// The data at `addr` with the time it was written and the data
    /// context its cells see.
    fn stored_word(&self, addr: WordAddr) -> (u64, f64, CouplingContext) {
        match self.words.get(&addr.flatten()) {
            Some(w) => (w.data, w.written_at, CouplingContext::WorstCase),
            None => match self.fill {
                Some(f) => (
                    f.pattern.word(addr),
                    f.time_ms,
                    f.pattern.coupling_context(),
                ),
                None => (0, 0.0, CouplingContext::Uniform),
            },
        }
    }

    /// Reads the array's own data at `addr`, in the weak row `ordinal`.
    fn read_stored(&self, ordinal: usize, addr: WordAddr) -> ReadOutcome {
        let (data, written_at, context) = self.stored_word(addr);
        let row_state = self
            .saved_row_state(ordinal)
            .unwrap_or(RowState::recharged(written_at));
        self.evaluate_word(ordinal, addr, data, row_state, context)
    }

    /// The refresh state of weak row `ordinal`: as last accessed, or as
    /// the last fill left it.
    fn row_state(&self, ordinal: usize) -> RowState {
        self.saved_row_state(ordinal)
            .unwrap_or_else(|| RowState::recharged(self.fill.map_or(0.0, |f| f.time_ms)))
    }

    /// The state weak row `ordinal` kept since the last fill, if any.
    fn saved_row_state(&self, ordinal: usize) -> Option<RowState> {
        self.rows.get(ordinal).copied().flatten()
    }

    /// Keeps `state` for weak row `ordinal`.
    #[inline]
    fn save_row_state(&mut self, ordinal: usize, state: RowState) {
        if self.rows.is_empty() {
            self.make_room_for_rows();
        }
        self.rows[ordinal] = Some(state);
    }

    /// Makes room for the state of every weak row.
    #[cold]
    fn make_room_for_rows(&mut self) {
        self.rows = vec![None; self.population.weak_row_count()];
    }

    /// Core decay + ECC evaluation for one word of weak row `ordinal` with
    /// explicit data and row state.
    fn evaluate_word(
        &self,
        ordinal: usize,
        addr: WordAddr,
        data: u64,
        row_state: RowState,
        context: CouplingContext,
    ) -> ReadOutcome {
        let flat_row = self.population.weak_row(ordinal);
        // Effective maximum recharge gap experienced since the data was
        // written: the accumulated per-row maximum plus the segment between
        // the last row event and now, cut by auto-refresh boundaries.
        let segment = self.max_segment_gap(flat_row, row_state.last_event, self.now_ms);
        let effective_gap = row_state.max_gap.max(segment);

        let code = self.codec.encode(data);
        let mut corrupted = code;
        let mut flipped_bits = Vec::new();
        let model = self.population.model();
        let cells = self.population.cells();
        for &idx in self.population.cells_of(ordinal) {
            let cell = &cells[idx as usize];
            if cell.addr.word != addr {
                continue;
            }
            let stored = code.bit(u32::from(cell.addr.bit));
            if stored != cell.polarity.charged_value() {
                continue; // discharged state cannot decay
            }
            let retention = cell.retention_ms(self.temperature, context, model);
            if effective_gap > retention {
                corrupted = corrupted.with_bit_flipped(u32::from(cell.addr.bit));
                flipped_bits.push(cell.addr.bit);
            }
        }

        let decode = self.codec.decode(corrupted);
        ReadOutcome {
            data: decode.data(),
            decode,
            flipped_bits,
        }
    }

    /// A write activates the row: recharge everything in it and restart
    /// the decay clock (row-granular approximation; our workloads write
    /// rows densely).
    #[inline]
    fn recharge_row(&mut self, addr: WordAddr) {
        if let Some(ordinal) = self.population.row_ordinal(addr.row_addr().flatten()) {
            self.save_row_state(ordinal, RowState::recharged(self.now_ms));
        }
    }

    /// Registers an activation of weak row `ordinal` at the current time,
    /// folding the elapsed interval into the row's maximum-gap accumulator.
    fn touch_row(&mut self, ordinal: usize) {
        let state = self.row_state(ordinal);
        let flat_row = self.population.weak_row(ordinal);
        let segment = self.max_segment_gap(flat_row, state.last_event, self.now_ms);
        self.save_row_state(
            ordinal,
            RowState {
                written_at: state.written_at,
                last_event: self.now_ms,
                max_gap: state.max_gap.max(segment),
            },
        );
    }

    /// Longest charge-holding stretch within `[a, b]` for a row, given the
    /// staggered auto-refresh schedule: recharges happen at `a`, at every
    /// auto-refresh boundary inside `(a, b)`, and the stretch ends at `b`.
    fn max_segment_gap(&self, flat_row: u64, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        let p = self.trefp.as_f64();
        if p <= 0.0 {
            return b - a;
        }
        let stagger = (flat_row % REFRESH_PHASES) as f64 / REFRESH_PHASES as f64 * p;
        // First auto-refresh strictly after `a`.
        let k0 = ((a - stagger) / p).floor() + 1.0;
        let ar0 = stagger + k0 * p;
        if ar0 >= b {
            return b - a;
        }
        // Last auto-refresh at or before `b`.
        let k1 = ((b - stagger) / p).floor();
        let ar1 = stagger + k1 * p;
        let first = ar0 - a;
        let middle = if ar1 > ar0 + 1e-9 { p } else { 0.0 };
        let last = b - ar1;
        first.max(middle).max(last)
    }
}

impl Serialize for DramArray {
    fn to_value(&self) -> Value {
        let mut words: Vec<(u64, WordState)> = self.words.iter().map(|(&a, &w)| (a, w)).collect();
        words.sort_unstable_by_key(|&(flat, _)| flat);
        let mut rows: Vec<(u64, RowState)> = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(ordinal, state)| Some((self.population.weak_row(ordinal), (*state)?)))
            .collect();
        rows.sort_unstable_by_key(|&(flat, _)| flat);
        Value::Map(vec![
            entry("population", &self.population),
            entry("codec", &self.codec),
            entry("trefp", &self.trefp),
            entry("temperature", &self.temperature),
            entry("now_ms", &self.now_ms),
            entry("fill", &self.fill),
            entry("words", &words),
            entry("rows", &rows),
            entry("log", &self.log),
            entry("counters", &self.counters),
        ])
    }
}

/// Drops the state of rows without weak cells, which older checkpoints
/// kept.
impl Deserialize for DramArray {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let fields = Fields::of("DramArray", v)?;
        let words: Vec<(u64, WordState)> = fields.get("words")?;
        let states: Vec<(u64, RowState)> = fields.get("rows")?;
        let mut dram = DramArray {
            population: fields.get("population")?,
            codec: fields.get("codec")?,
            trefp: fields.get("trefp")?,
            temperature: fields.get("temperature")?,
            now_ms: fields.get("now_ms")?,
            fill: fields.get("fill")?,
            words: words.into_iter().collect(),
            rows: Vec::new(),
            log: fields.get("log")?,
            counters: fields.get("counters")?,
        };
        for (flat, state) in states {
            if let Some(ordinal) = dram.population.row_ordinal(flat) {
                dram.save_row_state(ordinal, state);
            }
        }
        Ok(dram)
    }
}

fn row_from_flat(flat: u64) -> RowAddr {
    use crate::geometry::{BankId, RankId, ROWS_PER_BANK};
    let row = (flat % ROWS_PER_BANK as u64) as u32;
    let rest = flat / ROWS_PER_BANK as u64;
    let bank = BankId::new((rest % BANKS_PER_CHIP as u64) as u8);
    let rank = RankId::new((rest / BANKS_PER_CHIP as u64) as u8);
    RowAddr::new(rank, bank, row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retention::{PopulationSpec, RetentionModel};

    fn test_array(temp_c: f64, trefp: Milliseconds) -> DramArray {
        let pop = WeakCellPopulation::generate(
            &RetentionModel::xgene2_micron(),
            PopulationSpec::dsn18(),
            42,
        );
        DramArray::new(pop, trefp, Celsius::new(temp_c))
    }

    #[test]
    fn nominal_refresh_shows_no_errors() {
        let mut dram = test_array(60.0, Milliseconds::DDR3_NOMINAL_TREFP);
        dram.fill_pattern(DataPattern::Random { seed: 3 });
        dram.advance(10_000.0);
        let report = dram.scrub();
        assert_eq!(report.ce_events, 0);
        assert_eq!(report.ue_events, 0);
    }

    #[test]
    fn relaxed_refresh_produces_correctable_errors_only() {
        let mut dram = test_array(60.0, Milliseconds::DSN18_RELAXED_TREFP);
        dram.fill_pattern(DataPattern::Random { seed: 3 });
        dram.advance(2.0 * Milliseconds::DSN18_RELAXED_TREFP.as_f64());
        let report = dram.scrub();
        assert!(report.ce_events > 1_000, "CEs {}", report.ce_events);
        // SECDED handles everything at ≤ 60 °C (sparse cells rarely pair up
        // in one word; with this seed none do).
        assert_eq!(report.ue_events, 0, "UEs {}", report.ue_events);
    }

    #[test]
    fn random_pattern_beats_solids_and_checkerboard() {
        let relaxed = Milliseconds::DSN18_RELAXED_TREFP;
        let mut flips = Vec::new();
        for pattern in [
            DataPattern::AllZeros,
            DataPattern::AllOnes,
            DataPattern::Checkerboard { inverted: false },
            DataPattern::Random { seed: 9 },
        ] {
            let mut dram = test_array(60.0, relaxed);
            dram.fill_pattern(pattern);
            dram.advance(relaxed.as_f64() * 2.0);
            flips.push((pattern, dram.scrub().flipped_bits));
        }
        let random = flips[3].1;
        for (pattern, f) in &flips[..3] {
            assert!(random > *f, "random {random} vs {pattern} {f}");
        }
        // Checkerboard stresses coupling more than solids.
        assert!(flips[2].1 > flips[0].1.min(flips[1].1));
    }

    #[test]
    fn frequent_access_inherently_refreshes() {
        // A row read more often than its cells' retention never fails,
        // even at relaxed TREFP — the mechanism behind low HPC-workload BER.
        let relaxed = Milliseconds::DSN18_RELAXED_TREFP;
        let mut dram = test_array(60.0, relaxed);
        // Find a word with a weak cell that fails under the fill pattern.
        dram.fill_pattern(DataPattern::AllOnes);
        let cell = dram
            .population()
            .cells()
            .iter()
            .find(|c| {
                c.polarity.charged_value()
                    && c.retention_ms(
                        Celsius::new(60.0),
                        CouplingContext::Uniform,
                        dram.population().model(),
                    ) < 600.0
            })
            .expect("population has a fast-decaying true cell")
            .clone();
        let addr = cell.addr.word;
        // Access the row every 100 ms for three refresh periods.
        let steps = (relaxed.as_f64() * 3.0 / 100.0) as usize;
        let mut any_error = false;
        for _ in 0..steps {
            dram.advance(100.0);
            let out = dram.read_word(addr);
            any_error |= !out.flipped_bits.is_empty();
        }
        assert!(!any_error, "inherent refresh failed to protect the cell");
    }

    #[test]
    fn infrequent_access_lets_cells_decay() {
        let relaxed = Milliseconds::DSN18_RELAXED_TREFP;
        let mut dram = test_array(60.0, relaxed);
        dram.fill_pattern(DataPattern::AllOnes);
        let cell = dram
            .population()
            .cells()
            .iter()
            .find(|c| {
                c.polarity.charged_value()
                    && c.retention_ms(
                        Celsius::new(60.0),
                        CouplingContext::Uniform,
                        dram.population().model(),
                    ) < 600.0
            })
            .expect("population has a fast-decaying true cell")
            .clone();
        // Wait a full relaxed refresh period without touching the row.
        dram.advance(relaxed.as_f64() * 1.5);
        let out = dram.read_word(cell.addr.word);
        assert!(out.flipped_bits.contains(&cell.addr.bit));
        assert!(out.decode.is_corrected());
        assert_eq!(out.data, Some(u64::MAX));
    }

    #[test]
    fn explicit_write_resets_decay() {
        let relaxed = Milliseconds::DSN18_RELAXED_TREFP;
        let mut dram = test_array(60.0, relaxed);
        dram.fill_pattern(DataPattern::AllOnes);
        let cell = dram
            .population()
            .cells()
            .iter()
            .find(|c| c.polarity.charged_value() && c.retention_at_60c_ms < 600.0)
            .unwrap()
            .clone();
        dram.advance(relaxed.as_f64());
        // Rewrite just before reading: no time to decay.
        dram.write_word(cell.addr.word, u64::MAX);
        dram.advance(1.0);
        let out = dram.read_word(cell.addr.word);
        assert!(out.flipped_bits.is_empty());
        assert_eq!(out.data, Some(u64::MAX));
    }

    #[test]
    fn golden_word_reflects_fill_and_writes() {
        let mut dram = test_array(50.0, Milliseconds::DDR3_NOMINAL_TREFP);
        dram.fill_pattern(DataPattern::Checkerboard { inverted: false });
        let addr = WordAddr::unflatten(12345);
        let pattern_value = DataPattern::Checkerboard { inverted: false }.word(addr);
        assert_eq!(dram.golden_word(addr), pattern_value);
        dram.write_word(addr, 77);
        assert_eq!(dram.golden_word(addr), 77);
    }

    #[test]
    fn unique_error_locations_accumulate_across_rounds() {
        let relaxed = Milliseconds::DSN18_RELAXED_TREFP;
        let mut dram = test_array(60.0, relaxed);
        let mut last_unique = 0;
        for round in 0..4 {
            dram.fill_pattern(DataPattern::Random { seed: round });
            dram.advance(relaxed.as_f64() * 2.0);
            dram.scrub();
            let unique = dram.error_log().unique_locations();
            assert!(unique >= last_unique);
            last_unique = unique;
        }
        // Multiple random rounds cover both polarities: the unique count
        // approaches the failing-cell population.
        let failing = dram
            .population()
            .failing_cells(Celsius::new(60.0), relaxed, CouplingContext::WorstCase)
            .count();
        assert!(
            last_unique as f64 > 0.85 * failing as f64,
            "unique {last_unique} vs failing population {failing}"
        );
    }

    #[test]
    fn counters_track_traffic() {
        let mut dram = test_array(50.0, Milliseconds::DDR3_NOMINAL_TREFP);
        let addr = WordAddr::unflatten(1);
        dram.write_word(addr, 1);
        dram.read_word(addr);
        dram.read_word(addr);
        assert_eq!(dram.counters().writes, 1);
        assert_eq!(dram.counters().reads, 2);
        assert_eq!(dram.counters().bytes(), 24);
    }

    #[test]
    fn max_segment_gap_respects_autorefresh() {
        let dram = test_array(50.0, Milliseconds::new(1000.0));
        // A row whose stagger is 0: gaps are cut at multiples of 1000 ms.
        let gap = dram.max_segment_gap(0, 0.0, 5_500.0);
        assert!((gap - 1000.0).abs() < 1e-6, "gap {gap}");
        let short = dram.max_segment_gap(0, 100.0, 600.0);
        assert!((short - 500.0).abs() < 1e-6, "gap {short}");
    }

    #[test]
    fn external_access_detects_decay_without_storing_data() {
        let relaxed = Milliseconds::DSN18_RELAXED_TREFP;
        let mut dram = test_array(60.0, relaxed);
        let cell = dram
            .population()
            .cells()
            .iter()
            .find(|c| c.retention_at_60c_ms < 600.0)
            .unwrap()
            .clone();
        let stored = if cell.polarity.charged_value() {
            u64::MAX
        } else {
            0
        };
        dram.write_external(cell.addr.word);
        dram.advance(relaxed.as_f64() * 1.5);
        let out = dram.read_external(cell.addr.word, stored);
        assert!(out.flipped_bits.contains(&cell.addr.bit));
        assert_eq!(out.data, Some(stored), "ECC corrects the flip");
        assert!(dram.error_log().ce_count() > 0);
    }

    #[test]
    fn external_access_fast_path_for_clean_rows() {
        let mut dram = test_array(50.0, Milliseconds::DDR3_NOMINAL_TREFP);
        // Find a row with no weak cells (flat row 0 may host one; search).
        let occupied: std::collections::HashSet<u64> =
            dram.population().rows_with_cells().collect();
        let flat = (0..).find(|r| !occupied.contains(r)).unwrap();
        let addr = WordAddr::new(
            crate::geometry::RankId::new(0),
            crate::geometry::BankId::new(0),
            flat as u32,
            0,
        );
        dram.write_external(addr);
        dram.advance(100_000.0);
        let out = dram.read_external(addr, 0xABCD);
        assert_eq!(out.data, Some(0xABCD));
        assert!(out.flipped_bits.is_empty());
        assert_eq!(dram.counters().reads, 1);
        assert_eq!(dram.counters().writes, 1);
        assert!(dram.rows.is_empty(), "clean rows keep no state");
    }

    #[test]
    fn row_state_is_made_when_a_weak_row_first_keeps_some() {
        let relaxed = Milliseconds::DSN18_RELAXED_TREFP;
        let mut dram = test_array(60.0, relaxed);
        assert!(dram.rows.is_empty(), "a booted array keeps no row state");
        let text = serde::json::to_string(&dram);
        let back: DramArray = serde::json::from_str(&text).unwrap();
        assert!(back.rows.is_empty());
        assert_eq!(serde::json::to_string(&back), text);

        dram.fill_pattern(DataPattern::Random { seed: 1 });
        dram.advance(relaxed.as_f64());
        assert!(dram.rows.is_empty(), "a fill keeps none either");
        let report = dram.scrub();
        assert!(report.ce_events > 0);
        let weak_rows = dram.population().rows_with_cells().count();
        assert_eq!(dram.rows.len(), weak_rows);
        assert!(
            dram.rows.iter().all(Option::is_some),
            "a scrub touches every weak row"
        );
    }

    #[test]
    fn equal_histories_log_equal_records() {
        let relaxed = Milliseconds::DSN18_RELAXED_TREFP;
        let run = || {
            let mut dram = test_array(60.0, relaxed);
            for round in 0..2 {
                dram.fill_pattern(DataPattern::Random { seed: round });
                dram.advance(relaxed.as_f64() * 2.0);
                dram.scrub();
            }
            dram.error_log().records().to_vec()
        };
        let first = run();
        assert!(first.len() > 1_000, "records {}", first.len());
        assert_eq!(first, run());
    }

    #[test]
    fn encoding_round_trips_and_keeps_row_state() {
        let relaxed = Milliseconds::DSN18_RELAXED_TREFP;
        let mut dram = test_array(60.0, relaxed);
        dram.fill_pattern(DataPattern::Random { seed: 5 });
        dram.advance(relaxed.as_f64() * 1.5);
        dram.scrub();
        // Recharge every other weak word's row; give a few explicit data.
        let words: Vec<WordAddr> = dram
            .population()
            .cells()
            .iter()
            .map(|c| c.addr.word)
            .collect();
        for (i, &addr) in words.iter().enumerate().step_by(2) {
            if i % 1_000 == 0 {
                dram.write_word(addr, i as u64);
            } else {
                dram.write_external(addr);
            }
        }
        dram.advance(relaxed.as_f64() * 0.5);

        let text = serde::json::to_string(&dram);
        let mut back: DramArray = serde::json::from_str(&text).expect("the array decodes");
        assert_eq!(serde::json::to_string(&back), text);
        let next = dram.scrub();
        assert_eq!(back.scrub(), next);
        assert_eq!(back.error_log().records(), dram.error_log().records());

        // The recharged rows' state is what keeps their words clean.
        let mut value = serde::json::parse(&text).unwrap();
        let Value::Map(fields) = &mut value else {
            panic!("an array encodes as a map")
        };
        for (name, field) in fields.iter_mut() {
            if name == "rows" {
                *field = Value::Seq(Vec::new());
            }
        }
        let mut stateless = DramArray::from_value(&value).unwrap();
        assert!(stateless.scrub().ce_events > next.ce_events);
    }

    #[test]
    fn scrub_report_ber() {
        let r = ScrubReport {
            words_read: 10,
            ce_events: 5,
            ue_events: 0,
            flipped_bits: 5,
        };
        assert!((r.ber(1000) - 0.005).abs() < 1e-12);
        assert_eq!(r.ber(0), 0.0);
    }
}
