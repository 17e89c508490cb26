//! DDR3 geometry of the X-Gene2's 32 GiB memory subsystem.
//!
//! The characterized configuration is 4 ECC DIMMs (one per MCU channel),
//! each with 2 ranks of 9 Micron MT41J512M8 chips (512 M × 8, 4 Gb):
//! 8 data chips + 1 ECC chip per rank, 72 chips total — exactly the
//! population the paper characterizes. Each chip has 8 banks, 65 536 rows
//! and 1 024 columns of 8 bits.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of DIMMs in the characterized configuration.
pub const DIMM_COUNT: usize = 4;
/// Ranks per DIMM.
pub const RANKS_PER_DIMM: usize = 2;
/// Total ranks.
pub const RANK_COUNT: usize = DIMM_COUNT * RANKS_PER_DIMM;
/// Chips per rank on an ECC DIMM (8 data + 1 ECC).
pub const CHIPS_PER_RANK: usize = 9;
/// Total DRAM chips — the 72 chips the paper characterizes.
pub const CHIP_COUNT: usize = RANK_COUNT * CHIPS_PER_RANK;
/// Banks per chip (DDR3).
pub const BANKS_PER_CHIP: usize = 8;
/// Rows per bank (MT41J512M8).
pub const ROWS_PER_BANK: usize = 65_536;
/// Columns (8-bit each) per row per chip.
pub const COLS_PER_ROW: usize = 1_024;
/// Payload bits per ECC word.
pub const DATA_BITS_PER_WORD: usize = 64;
/// Total bits per ECC word (64 data + 8 check).
pub const CODE_BITS_PER_WORD: usize = 72;

/// Total number of 72-bit words in the array.
pub const WORD_COUNT: u64 = (RANK_COUNT * BANKS_PER_CHIP * ROWS_PER_BANK * COLS_PER_ROW) as u64;

/// Total data capacity in bytes (32 GiB).
pub const DATA_BYTES: u64 = WORD_COUNT * (DATA_BITS_PER_WORD as u64 / 8);

/// A rank index `0..8`, ordered by (DIMM, rank-in-DIMM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RankId(u8);

impl RankId {
    /// Creates a rank id.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= 8`.
    #[inline]
    pub fn new(rank: u8) -> Self {
        assert!((rank as usize) < RANK_COUNT, "rank must be < {RANK_COUNT}");
        RankId(rank)
    }

    /// The flat index `0..8`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The DIMM this rank sits on.
    pub fn dimm(self) -> u8 {
        self.0 / RANKS_PER_DIMM as u8
    }

    /// Rank index within its DIMM.
    pub fn rank_in_dimm(self) -> u8 {
        self.0 % RANKS_PER_DIMM as u8
    }

    /// All ranks in index order.
    pub fn all() -> impl Iterator<Item = RankId> {
        (0..RANK_COUNT as u8).map(RankId)
    }
}

impl fmt::Display for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dimm{}/rank{}", self.dimm(), self.rank_in_dimm())
    }
}

/// A bank index `0..8` (shared across the chips of a rank: DDR3 bank
/// addresses go to every chip in lock-step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BankId(u8);

impl BankId {
    /// Creates a bank id.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= 8`.
    #[inline]
    pub fn new(bank: u8) -> Self {
        assert!(
            (bank as usize) < BANKS_PER_CHIP,
            "bank must be < {BANKS_PER_CHIP}"
        );
        BankId(bank)
    }

    /// The flat index `0..8`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// All banks in index order.
    pub fn all() -> impl Iterator<Item = BankId> {
        (0..BANKS_PER_CHIP as u8).map(BankId)
    }
}

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bank{}", self.0)
    }
}

/// Address of one 72-bit ECC word: `(rank, bank, row, col)`.
///
/// # Examples
///
/// ```
/// use dram_sim::geometry::{BankId, RankId, WordAddr};
///
/// let addr = WordAddr::new(RankId::new(3), BankId::new(5), 1234, 56);
/// let flat = addr.flatten();
/// assert_eq!(WordAddr::unflatten(flat), addr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WordAddr {
    /// Rank.
    pub rank: RankId,
    /// Bank.
    pub bank: BankId,
    /// Row within the bank, `0..65536`.
    pub row: u32,
    /// Column (64-bit word) within the row, `0..1024`.
    pub col: u16,
}

impl WordAddr {
    /// Creates a word address.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn new(rank: RankId, bank: BankId, row: u32, col: u16) -> Self {
        assert!(
            (row as usize) < ROWS_PER_BANK,
            "row must be < {ROWS_PER_BANK}"
        );
        assert!(
            (col as usize) < COLS_PER_ROW,
            "col must be < {COLS_PER_ROW}"
        );
        WordAddr {
            rank,
            bank,
            row,
            col,
        }
    }

    /// Flattens to a linear word index `0..WORD_COUNT`
    /// (rank-major, then bank, row, col).
    #[inline]
    pub fn flatten(self) -> u64 {
        let r = self.rank.index() as u64;
        let b = self.bank.index() as u64;
        let row = u64::from(self.row);
        let col = u64::from(self.col);
        ((r * BANKS_PER_CHIP as u64 + b) * ROWS_PER_BANK as u64 + row) * COLS_PER_ROW as u64 + col
    }

    /// Inverse of [`WordAddr::flatten`].
    ///
    /// # Panics
    ///
    /// Panics if `flat >= WORD_COUNT`.
    pub fn unflatten(flat: u64) -> Self {
        assert!(flat < WORD_COUNT, "word index out of range");
        let col = (flat % COLS_PER_ROW as u64) as u16;
        let rest = flat / COLS_PER_ROW as u64;
        let row = (rest % ROWS_PER_BANK as u64) as u32;
        let rest = rest / ROWS_PER_BANK as u64;
        let bank = BankId::new((rest % BANKS_PER_CHIP as u64) as u8);
        let rank = RankId::new((rest / BANKS_PER_CHIP as u64) as u8);
        WordAddr {
            rank,
            bank,
            row,
            col,
        }
    }

    /// The row this word belongs to.
    #[inline]
    pub fn row_addr(self) -> RowAddr {
        RowAddr {
            rank: self.rank,
            bank: self.bank,
            row: self.row,
        }
    }
}

impl fmt::Display for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/row{}/col{}",
            self.rank, self.bank, self.row, self.col
        )
    }
}

/// Address of one DRAM row (the refresh granule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RowAddr {
    /// Rank.
    pub rank: RankId,
    /// Bank.
    pub bank: BankId,
    /// Row within the bank.
    pub row: u32,
}

impl RowAddr {
    /// Creates a row address.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn new(rank: RankId, bank: BankId, row: u32) -> Self {
        assert!(
            (row as usize) < ROWS_PER_BANK,
            "row must be < {ROWS_PER_BANK}"
        );
        RowAddr { rank, bank, row }
    }

    /// Flat row index across the whole array.
    #[inline]
    pub fn flatten(self) -> u64 {
        (self.rank.index() as u64 * BANKS_PER_CHIP as u64 + self.bank.index() as u64)
            * ROWS_PER_BANK as u64
            + u64::from(self.row)
    }
}

impl fmt::Display for RowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/row{}", self.rank, self.bank, self.row)
    }
}

/// Location of a single DRAM cell: a word plus a bit index `0..72`.
///
/// Bit `i` lives on chip `i / 8`, DQ line `i % 8`; chip 8 is the ECC chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellAddr {
    /// The ECC word holding the cell.
    pub word: WordAddr,
    /// Bit position within the 72-bit code word.
    pub bit: u8,
}

impl CellAddr {
    /// Creates a cell address.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 72`.
    pub fn new(word: WordAddr, bit: u8) -> Self {
        assert!(
            (bit as usize) < CODE_BITS_PER_WORD,
            "bit must be < {CODE_BITS_PER_WORD}"
        );
        CellAddr { word, bit }
    }

    /// The physical chip (0..9 within the rank) holding this cell.
    pub fn chip_in_rank(self) -> u8 {
        self.bit / 8
    }

    /// The global chip index `0..72`.
    pub fn chip(self) -> usize {
        self.word.rank.index() * CHIPS_PER_RANK + usize::from(self.chip_in_rank())
    }

    /// Whether the cell sits on the rank's ECC chip.
    pub fn is_ecc_chip(self) -> bool {
        usize::from(self.chip_in_rank()) == CHIPS_PER_RANK - 1
    }
}

impl fmt::Display for CellAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/bit{}", self.word, self.bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_32_gib_with_72_chips() {
        assert_eq!(CHIP_COUNT, 72);
        assert_eq!(DATA_BYTES, 32 * 1024 * 1024 * 1024);
    }

    #[test]
    fn flatten_roundtrip_corners() {
        for flat in [0, 1, WORD_COUNT / 2, WORD_COUNT - 1] {
            assert_eq!(WordAddr::unflatten(flat).flatten(), flat);
        }
    }

    #[test]
    fn flatten_is_dense_and_ordered() {
        let a = WordAddr::new(RankId::new(0), BankId::new(0), 0, 0);
        let b = WordAddr::new(RankId::new(0), BankId::new(0), 0, 1);
        let c = WordAddr::new(RankId::new(0), BankId::new(0), 1, 0);
        assert_eq!(a.flatten() + 1, b.flatten());
        assert_eq!(c.flatten(), COLS_PER_ROW as u64);
    }

    #[test]
    fn rank_dimm_mapping() {
        assert_eq!(RankId::new(0).dimm(), 0);
        assert_eq!(RankId::new(1).dimm(), 0);
        assert_eq!(RankId::new(7).dimm(), 3);
        assert_eq!(RankId::new(7).rank_in_dimm(), 1);
        assert_eq!(RankId::all().count(), RANK_COUNT);
    }

    #[test]
    fn cell_chip_mapping() {
        let word = WordAddr::new(RankId::new(2), BankId::new(1), 0, 0);
        let data_cell = CellAddr::new(word, 17);
        assert_eq!(data_cell.chip_in_rank(), 2);
        assert!(!data_cell.is_ecc_chip());
        let ecc_cell = CellAddr::new(word, 71);
        assert_eq!(ecc_cell.chip_in_rank(), 8);
        assert!(ecc_cell.is_ecc_chip());
        assert_eq!(ecc_cell.chip(), 2 * CHIPS_PER_RANK + 8);
    }

    #[test]
    #[should_panic(expected = "row must be <")]
    fn rejects_out_of_range_row() {
        let _ = WordAddr::new(RankId::new(0), BankId::new(0), ROWS_PER_BANK as u32, 0);
    }

    #[test]
    #[should_panic(expected = "word index out of range")]
    fn unflatten_rejects_out_of_range() {
        let _ = WordAddr::unflatten(WORD_COUNT);
    }

    #[test]
    fn display_formats() {
        let w = WordAddr::new(RankId::new(3), BankId::new(5), 7, 9);
        assert_eq!(w.to_string(), "dimm1/rank1/bank5/row7/col9");
    }
}
