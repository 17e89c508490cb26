//! A host-backed data arena over the simulated DRAM.
//!
//! Workload kernels keep their data in ordinary host memory (a `Vec<u64>`)
//! while every read and write is mirrored to the [`DramArray`] for refresh
//! bookkeeping, decay evaluation and ECC accounting. Linear indices are
//! interleaved across ranks and banks the way a real memory controller
//! stripes physical addresses, so a kernel's footprint samples weak cells
//! from every bank.

use dram_sim::array::DramArray;
use dram_sim::geometry::{BankId, RankId, WordAddr, COLS_PER_ROW, ROWS_PER_BANK};
use serde::{Deserialize, Serialize};

/// Maps a linear word index to an interleaved physical address:
/// rank, then bank, then column, then row — matching a controller that
/// stripes consecutive cache lines across channels and banks.
///
/// # Panics
///
/// Panics if the index exceeds the array capacity.
#[inline]
pub fn interleave(linear: u64) -> WordAddr {
    let rank = RankId::new((linear % 8) as u8);
    let rest = linear / 8;
    let bank = BankId::new((rest % 8) as u8);
    let rest = rest / 8;
    let col = (rest % COLS_PER_ROW as u64) as u16;
    let row = rest / COLS_PER_ROW as u64;
    assert!(
        row < ROWS_PER_BANK as u64,
        "linear index out of array range"
    );
    WordAddr::new(rank, bank, row as u32, col)
}

/// Access statistics of an arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ArenaStats {
    /// Word reads performed.
    pub reads: u64,
    /// Word writes performed.
    pub writes: u64,
    /// Corrected single-bit errors encountered during reads.
    pub corrected_errors: u64,
    /// Uncorrectable errors encountered during reads.
    pub uncorrectable_errors: u64,
    /// Total decayed bits observed (before correction).
    pub flipped_bits: u64,
}

impl ArenaStats {
    /// Bit-error rate over the words this arena read.
    pub fn ber(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.flipped_bits as f64 / (self.reads as f64 * 72.0)
    }
}

/// A contiguous (in linear index space) region of DRAM-backed `u64` words.
///
/// # Examples
///
/// ```
/// use dram_sim::array::DramArray;
/// use dram_sim::retention::{PopulationSpec, RetentionModel, WeakCellPopulation};
/// use power_model::units::{Celsius, Milliseconds};
/// use workload_sim::arena::DramArena;
///
/// let pop = WeakCellPopulation::generate(
///     &RetentionModel::xgene2_micron(), PopulationSpec::dsn18(), 3);
/// let mut dram = DramArray::new(pop, Milliseconds::DDR3_NOMINAL_TREFP, Celsius::new(45.0));
/// let mut arena = DramArena::new(&mut dram, 0, 1024);
/// arena.write(5, 42);
/// assert_eq!(arena.read(5), 42);
/// ```
#[derive(Debug)]
pub struct DramArena<'a> {
    dram: &'a mut DramArray,
    base: u64,
    data: Vec<u64>,
    stats: ArenaStats,
}

impl<'a> DramArena<'a> {
    /// Allocates an arena of `len` words starting at linear index `base`.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the array capacity.
    pub fn new(dram: &'a mut DramArray, base: u64, len: usize) -> Self {
        // Validate both endpoints map into the array.
        let _ = interleave(base);
        if len > 0 {
            let _ = interleave(base + len as u64 - 1);
        }
        DramArena {
            dram,
            base,
            data: vec![0; len],
            stats: ArenaStats::default(),
        }
    }

    /// Number of words in the arena.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// The underlying DRAM (e.g. to advance time between iterations).
    pub fn dram_mut(&mut self) -> &mut DramArray {
        self.dram
    }

    /// Writes a word.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn write(&mut self, index: usize, value: u64) {
        self.data[index] = value;
        self.dram
            .write_external(interleave(self.base + index as u64));
        self.stats.writes += 1;
    }

    /// Reads a word through the DRAM decay/ECC path. Uncorrectable errors
    /// return the *stored* (pre-decay) value — matching a machine-check
    /// that the framework logs — and are counted in the statistics.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn read(&mut self, index: usize) -> u64 {
        let stored = self.data[index];
        let out = self
            .dram
            .read_external(interleave(self.base + index as u64), stored);
        self.stats.reads += 1;
        self.stats.flipped_bits += out.flipped_bits.len() as u64;
        match out.decode {
            dram_sim::ecc::DecodeOutcome::Corrected { .. } => self.stats.corrected_errors += 1,
            dram_sim::ecc::DecodeOutcome::Uncorrectable => self.stats.uncorrectable_errors += 1,
            dram_sim::ecc::DecodeOutcome::Clean { .. } => {}
        }
        out.data.unwrap_or(stored)
    }

    /// Reads an `f64` stored via [`Self::write_f64`].
    pub fn read_f64(&mut self, index: usize) -> f64 {
        f64::from_bits(self.read(index))
    }

    /// Stores an `f64` in one word.
    pub fn write_f64(&mut self, index: usize, value: f64) {
        self.write(index, value.to_bits());
    }

    /// Reads an `i64`.
    pub fn read_i64(&mut self, index: usize) -> i64 {
        self.read(index) as i64
    }

    /// Stores an `i64`.
    pub fn write_i64(&mut self, index: usize, value: i64) {
        self.write(index, value as u64);
    }

    /// Advances simulated DRAM time by `ms` (models compute phases between
    /// memory bursts).
    pub fn advance_time(&mut self, ms: f64) {
        self.dram.advance(ms);
    }

    /// Number of weak cells that physically fall inside this arena's
    /// footprint (useful to size experiments).
    pub fn weak_cells_in_footprint(&self) -> usize {
        let base = self.base;
        let len = self.data.len() as u64;
        self.dram
            .population()
            .cells()
            .iter()
            .filter(|c| {
                // Invert the interleave for membership testing.
                let w = c.addr.word;
                let linear = ((u64::from(w.row) * COLS_PER_ROW as u64 + u64::from(w.col)) * 8
                    + w.bank.index() as u64)
                    * 8
                    + w.rank.index() as u64;
                linear >= base && linear < base + len
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::retention::{PopulationSpec, RetentionModel, WeakCellPopulation};
    use power_model::units::{Celsius, Milliseconds};

    fn dram(seed: u64) -> DramArray {
        let pop = WeakCellPopulation::generate(
            &RetentionModel::xgene2_micron(),
            PopulationSpec::dsn18(),
            seed,
        );
        DramArray::new(pop, Milliseconds::DDR3_NOMINAL_TREFP, Celsius::new(45.0))
    }

    #[test]
    fn interleave_is_injective_over_a_window() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(interleave(i)), "collision at {i}");
        }
    }

    #[test]
    fn interleave_strides_ranks_then_banks() {
        assert_eq!(interleave(0).rank.index(), 0);
        assert_eq!(interleave(1).rank.index(), 1);
        assert_eq!(interleave(8).bank.index(), 1);
        assert_eq!(interleave(64).col, 1);
    }

    #[test]
    fn roundtrip_values() {
        let mut d = dram(1);
        let mut arena = DramArena::new(&mut d, 0, 4096);
        for i in 0..4096 {
            arena.write(i, i as u64 * 3);
        }
        for i in 0..4096 {
            assert_eq!(arena.read(i), i as u64 * 3);
        }
        assert_eq!(arena.stats().reads, 4096);
        assert_eq!(arena.stats().writes, 4096);
    }

    #[test]
    fn f64_and_i64_roundtrip() {
        let mut d = dram(1);
        let mut arena = DramArena::new(&mut d, 0, 16);
        arena.write_f64(0, -3.25);
        arena.write_i64(1, -77);
        assert_eq!(arena.read_f64(0), -3.25);
        assert_eq!(arena.read_i64(1), -77);
    }

    #[test]
    fn footprint_contains_weak_cells_at_scale() {
        let mut d = dram(2);
        // 16 Mi words = 128 MiB.
        let arena = DramArena::new(&mut d, 0, 16 * 1024 * 1024);
        let cells = arena.weak_cells_in_footprint();
        assert!(cells > 20, "expected dozens of weak cells, got {cells}");
    }

    #[test]
    fn decay_manifests_under_relaxed_refresh() {
        let mut d = dram(3);
        d.set_trefp(Milliseconds::DSN18_RELAXED_TREFP);
        d.set_temperature(Celsius::new(60.0));
        let words = 4 * 1024 * 1024;
        let mut arena = DramArena::new(&mut d, 0, words);
        for i in 0..words {
            arena.write(i, u64::MAX);
        }
        arena.advance_time(Milliseconds::DSN18_RELAXED_TREFP.as_f64() * 1.5);
        for i in 0..words {
            arena.read(i);
        }
        assert!(
            arena.stats().corrected_errors > 0,
            "expected corrected errors over a 32 MiB footprint, stats {:?}",
            arena.stats()
        );
    }

    #[test]
    #[should_panic(expected = "out of array range")]
    fn arena_rejects_oversized_region() {
        let mut d = dram(1);
        let _ = DramArena::new(&mut d, u64::MAX / 2, 10);
    }
}
