//! DDR3 memory-control-unit timing: bank state machine and the
//! performance cost of refresh.
//!
//! SLIMpro "allows to configure the parameters of the MCUs, such as
//! timings and the refresh period". Besides the power saved, relaxing
//! TREFP also removes refresh stalls: every tREFI the MCU must close all
//! banks of a rank for tRFC. This module implements the DDR3-1600 bank
//! state machine (ACT/READ/WRITE/PRE + refresh) with the standard timing
//! parameters so that overhead — and row-buffer locality — can be
//! measured rather than assumed.

use crate::geometry::{BankId, RankId, WordAddr, BANKS_PER_CHIP, RANK_COUNT};
use power_model::units::Milliseconds;
use serde::{Deserialize, Serialize};

/// DDR3 timing parameters in memory-clock cycles (800 MHz for DDR3-1600).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DdrTimings {
    /// Clock period in hundredths of nanoseconds (125 = 1.25 ns).
    pub clock_ns_x100: u32,
    /// ACT → READ/WRITE delay (tRCD).
    pub t_rcd: u32,
    /// READ → data (CAS latency, tCL).
    pub t_cl: u32,
    /// PRE → ACT delay (tRP).
    pub t_rp: u32,
    /// Minimum ACT → PRE (tRAS).
    pub t_ras: u32,
    /// Refresh cycle time for a 4 Gb device (tRFC).
    pub t_rfc: u32,
    /// Burst length in beats (BL8 → 4 clocks of data).
    pub burst_clocks: u32,
}

impl DdrTimings {
    /// DDR3-1600 (11-11-11) with a 4 Gb tRFC of 260 ns.
    pub fn ddr3_1600() -> Self {
        DdrTimings {
            clock_ns_x100: 125, // 1.25 ns
            t_rcd: 11,
            t_cl: 11,
            t_rp: 11,
            t_ras: 28,
            t_rfc: 208, // 260 ns / 1.25 ns
            burst_clocks: 4,
        }
    }

    /// Clock period in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        f64::from(self.clock_ns_x100) / 100.0
    }

    /// Average refresh interval (tREFI) in clocks for a whole-array
    /// refresh period: DDR3 spreads 8192 refresh commands per rank over
    /// TREFP.
    pub fn t_refi_clocks(&self, trefp: Milliseconds) -> u64 {
        let refi_ns = trefp.as_f64() * 1e6 / 8192.0;
        (refi_ns / self.clock_ns()).max(1.0) as u64
    }
}

/// Per-bank open-row state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum BankState {
    Idle,
    /// Row open since `ready_at` (activation completed).
    Open {
        row: u32,
    },
}

/// Outcome category of one access, for locality statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Row already open — CAS only.
    RowHit,
    /// Bank idle — ACT + CAS.
    RowMiss,
    /// Different row open — PRE + ACT + CAS.
    RowConflict,
}

/// Aggregate MCU statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct McuStats {
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row misses (bank was idle).
    pub row_misses: u64,
    /// Row conflicts (wrong row open).
    pub row_conflicts: u64,
    /// Total clocks spent stalled behind refresh.
    pub refresh_stall_clocks: u64,
    /// Total refresh commands issued.
    pub refreshes: u64,
    /// Total access service clocks (excluding refresh stalls).
    pub access_clocks: u64,
}

impl McuStats {
    /// Row-buffer hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Mean stall clocks added per access by refresh collisions.
    pub fn stall_per_access(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.refresh_stall_clocks as f64 / total as f64
        }
    }
}

/// The MCU timing model: one rank-level command queue per rank with
/// per-bank row state and periodic refresh.
///
/// # Examples
///
/// ```
/// use dram_sim::timing::{DdrTimings, McuTimingModel};
/// use dram_sim::geometry::WordAddr;
/// use power_model::units::Milliseconds;
///
/// let mut mcu = McuTimingModel::new(DdrTimings::ddr3_1600(),
///                                   Milliseconds::DDR3_NOMINAL_TREFP);
/// let addr = WordAddr::unflatten(0);
/// let first = mcu.access(addr);
/// let second = mcu.access(addr); // same row: cheaper
/// assert!(second < first);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct McuTimingModel {
    timings: DdrTimings,
    trefp: Milliseconds,
    /// Current time in memory clocks.
    now: u64,
    /// Next refresh due time per rank.
    next_refresh: [u64; RANK_COUNT],
    /// Rank unavailable (refreshing) until this clock.
    busy_until: [u64; RANK_COUNT],
    banks: Vec<BankState>,
    stats: McuStats,
}

impl McuTimingModel {
    /// Creates the model at time zero with all banks idle.
    pub fn new(timings: DdrTimings, trefp: Milliseconds) -> Self {
        let refi = timings.t_refi_clocks(trefp);
        McuTimingModel {
            timings,
            trefp,
            now: 0,
            next_refresh: [refi; RANK_COUNT],
            busy_until: [0; RANK_COUNT],
            banks: vec![BankState::Idle; RANK_COUNT * BANKS_PER_CHIP],
            stats: McuStats::default(),
        }
    }

    /// Reconfigures the refresh period (takes effect from the next
    /// refresh).
    pub fn set_trefp(&mut self, trefp: Milliseconds) {
        self.trefp = trefp;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> McuStats {
        self.stats
    }

    /// Services one word access; returns its latency in memory clocks
    /// (including any refresh stall it had to wait behind).
    pub fn access(&mut self, addr: WordAddr) -> u64 {
        let start = self.now;
        self.drain_refresh(addr.rank);
        // An access colliding with an in-progress refresh waits it out.
        let busy = self.busy_until[addr.rank.index()];
        if self.now < busy {
            self.stats.refresh_stall_clocks += busy - self.now;
            self.now = busy;
        }
        let (kind, service) = self.service_clocks(addr);
        match kind {
            AccessKind::RowHit => self.stats.row_hits += 1,
            AccessKind::RowMiss => self.stats.row_misses += 1,
            AccessKind::RowConflict => self.stats.row_conflicts += 1,
        }
        self.stats.access_clocks += service;
        self.now += service;
        self.banks[bank_index(addr.rank, addr.bank)] = BankState::Open { row: addr.row };
        self.now - start
    }

    /// Advances idle time (no accesses); refreshes still occur at their
    /// scheduled instants.
    pub fn idle(&mut self, clocks: u64) {
        let target = self.now + clocks;
        self.now = target;
        for r in 0..RANK_COUNT {
            let rank = RankId::new(r as u8);
            while self.next_refresh[r] <= self.now {
                self.perform_refresh(rank);
            }
        }
    }

    /// Executes any refreshes that came due on `rank` before `now`.
    fn drain_refresh(&mut self, rank: RankId) {
        while self.next_refresh[rank.index()] <= self.now {
            self.perform_refresh(rank);
        }
    }

    /// Performs the refresh at its scheduled instant: closes the rank's
    /// banks and marks the rank busy for tRFC from the *due time*.
    fn perform_refresh(&mut self, rank: RankId) {
        for b in 0..BANKS_PER_CHIP {
            self.banks[bank_index(rank, BankId::new(b as u8))] = BankState::Idle;
        }
        let due = self.next_refresh[rank.index()];
        let t_rfc = u64::from(self.timings.t_rfc);
        self.busy_until[rank.index()] = due + t_rfc;
        self.stats.refreshes += 1;
        let refi = self.timings.t_refi_clocks(self.trefp);
        self.next_refresh[rank.index()] += refi;
    }

    fn service_clocks(&self, addr: WordAddr) -> (AccessKind, u64) {
        let t = &self.timings;
        let state = self.banks[bank_index(addr.rank, addr.bank)];
        match state {
            BankState::Open { row } if row == addr.row => {
                (AccessKind::RowHit, u64::from(t.t_cl + t.burst_clocks))
            }
            BankState::Idle => (
                AccessKind::RowMiss,
                u64::from(t.t_rcd + t.t_cl + t.burst_clocks),
            ),
            BankState::Open { .. } => (
                AccessKind::RowConflict,
                u64::from(t.t_rp + t.t_rcd + t.t_cl + t.burst_clocks),
            ),
        }
    }
}

fn bank_index(rank: RankId, bank: BankId) -> usize {
    rank.index() * BANKS_PER_CHIP + bank.index()
}

/// Measures the refresh *performance* overhead for a random access stream
/// at a given refresh period — the §IV ablation quantifying what TREFP
/// relaxation buys besides power.
pub fn refresh_overhead_for(
    trefp: Milliseconds,
    accesses: u64,
    gap_clocks: u64,
    seed: u64,
) -> McuStats {
    let mut mcu = McuTimingModel::new(DdrTimings::ddr3_1600(), trefp);
    let mut x = seed | 1;
    for _ in 0..accesses {
        // xorshift for a deterministic scattered stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = WordAddr::unflatten(x % crate::geometry::WORD_COUNT);
        mcu.access(addr);
        mcu.idle(gap_clocks);
    }
    mcu.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::RankId;

    fn addr(rank: u8, bank: u8, row: u32, col: u16) -> WordAddr {
        WordAddr::new(RankId::new(rank), BankId::new(bank), row, col)
    }

    #[test]
    fn row_hit_is_cheaper_than_miss_and_conflict() {
        let mut mcu = McuTimingModel::new(DdrTimings::ddr3_1600(), Milliseconds::new(64.0));
        let miss = mcu.access(addr(0, 0, 10, 0));
        let hit = mcu.access(addr(0, 0, 10, 1));
        let conflict = mcu.access(addr(0, 0, 11, 0));
        assert!(hit < miss, "hit {hit} vs miss {miss}");
        assert!(miss < conflict, "miss {miss} vs conflict {conflict}");
        assert_eq!(mcu.stats().row_hits, 1);
        assert_eq!(mcu.stats().row_misses, 1);
        assert_eq!(mcu.stats().row_conflicts, 1);
    }

    #[test]
    fn banks_are_independent() {
        let mut mcu = McuTimingModel::new(DdrTimings::ddr3_1600(), Milliseconds::new(64.0));
        mcu.access(addr(0, 0, 10, 0));
        mcu.access(addr(0, 1, 99, 0)); // other bank: does not close bank 0
        let hit = mcu.access(addr(0, 0, 10, 1));
        assert_eq!(mcu.stats().row_hits, 1);
        assert_eq!(hit, 11 + 4);
    }

    #[test]
    fn refresh_closes_rows_and_stalls() {
        let trefp = Milliseconds::new(64.0);
        let mut mcu = McuTimingModel::new(DdrTimings::ddr3_1600(), trefp);
        mcu.access(addr(0, 0, 10, 0));
        // Jump past the first refresh due time.
        let refi = DdrTimings::ddr3_1600().t_refi_clocks(trefp);
        mcu.idle(refi + 1);
        let after = mcu.access(addr(0, 0, 10, 1));
        // The idle absorbed the refresh, but the row is closed again.
        assert!(after >= 11 + 11 + 4, "latency {after}");
        assert!(mcu.stats().refreshes >= 1);
    }

    #[test]
    fn relaxed_refresh_reduces_overhead_35x() {
        let nominal = refresh_overhead_for(Milliseconds::new(64.0), 20_000, 500, 9);
        let relaxed = refresh_overhead_for(Milliseconds::DSN18_RELAXED_TREFP, 20_000, 500, 9);
        // Expected collision stall ≈ tRFC²/(2·tREFI) ≈ 3.5 clocks/access.
        assert!(
            nominal.stall_per_access() > 1.0,
            "nominal stall/access {}",
            nominal.stall_per_access()
        );
        assert!(
            relaxed.stall_per_access() < nominal.stall_per_access() / 10.0,
            "nominal {} vs relaxed {}",
            nominal.stall_per_access(),
            relaxed.stall_per_access()
        );
    }

    #[test]
    fn trefi_matches_jedec_for_nominal() {
        // 64 ms / 8192 = 7.8 µs → 6250 clocks at 1.25 ns.
        let t = DdrTimings::ddr3_1600();
        assert_eq!(t.t_refi_clocks(Milliseconds::new(64.0)), 6250);
    }

    #[test]
    fn sequential_stream_has_high_hit_ratio() {
        let mut mcu = McuTimingModel::new(DdrTimings::ddr3_1600(), Milliseconds::new(64.0));
        for col in 0..1024u16 {
            mcu.access(addr(0, 0, 5, col));
        }
        assert!(mcu.stats().hit_ratio() > 0.99);
    }
}
