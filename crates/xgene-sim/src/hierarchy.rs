//! The X-Gene2 cache hierarchy assembled from [`crate::cache::Cache`]:
//! per-core L1I/L1D, a per-PMD shared L2, and the chip-wide L3 behind the
//! cache-coherent Central Switch (CSW).
//!
//! The hierarchy serves two purposes in the study: cache-targeted viruses
//! need real containment behaviour (their working sets must hit in exactly
//! one level), and the Vmin predictor consumes the miss-rate performance
//! counters the hierarchy produces.

use crate::cache::Cache;
use crate::topology::{CacheLevel, CoreId, CORE_COUNT, PMD_COUNT};
use serde::{Deserialize, Serialize};

/// DRAM access latency seen by the cores, in core cycles at nominal clock.
pub const DRAM_LATENCY_CYCLES: u32 = 220;

/// Where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServedBy {
    /// Hit in a cache level.
    Cache(CacheLevel),
    /// Missed everywhere — served by DRAM.
    Dram,
}

/// Per-core performance counters, as the PMU exposes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreCounters {
    /// Demand accesses issued by the core.
    pub accesses: u64,
    /// L1 misses (instruction + data).
    pub l1_misses: u64,
    /// L2 misses attributed to this core.
    pub l2_misses: u64,
    /// L3 misses attributed to this core (DRAM accesses).
    pub l3_misses: u64,
    /// Total memory-access latency in cycles.
    pub latency_cycles: u64,
}

impl CoreCounters {
    /// DRAM accesses per memory access — the memory-intensity counter the
    /// Vmin predictor uses.
    pub fn dram_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l3_misses as f64 / self.accesses as f64
        }
    }

    /// Average memory-access latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.latency_cycles as f64 / self.accesses as f64
        }
    }
}

/// The assembled hierarchy.
///
/// # Examples
///
/// ```
/// use xgene_sim::hierarchy::{CacheHierarchy, ServedBy};
/// use xgene_sim::topology::{CacheLevel, CoreId};
///
/// let mut h = CacheHierarchy::xgene2();
/// let core = CoreId::new(0);
/// assert_eq!(h.access_data(core, 0x4000).0, ServedBy::Dram); // cold
/// assert_eq!(h.access_data(core, 0x4000).0, ServedBy::Cache(CacheLevel::L1D));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheHierarchy {
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    counters: Vec<CoreCounters>,
}

impl CacheHierarchy {
    /// Builds the X-Gene2 hierarchy (8× L1I + 8× L1D, 4× L2, 1× L3).
    pub fn xgene2() -> Self {
        CacheHierarchy {
            l1i: (0..CORE_COUNT)
                .map(|_| Cache::for_level(CacheLevel::L1I))
                .collect(),
            l1d: (0..CORE_COUNT)
                .map(|_| Cache::for_level(CacheLevel::L1D))
                .collect(),
            l2: (0..PMD_COUNT)
                .map(|_| Cache::for_level(CacheLevel::L2))
                .collect(),
            l3: Cache::for_level(CacheLevel::L3),
            counters: vec![CoreCounters::default(); CORE_COUNT],
        }
    }

    /// A data access from `core`; returns where it was served and the
    /// latency in core cycles.
    pub fn access_data(&mut self, core: CoreId, addr: u64) -> (ServedBy, u32) {
        self.access(core, addr, false)
    }

    /// An instruction fetch from `core`.
    pub fn access_instr(&mut self, core: CoreId, addr: u64) -> (ServedBy, u32) {
        self.access(core, addr, true)
    }

    fn access(&mut self, core: CoreId, addr: u64, is_instr: bool) -> (ServedBy, u32) {
        let idx = core.index();
        let pmd = core.pmd().index();
        let c = &mut self.counters[idx];
        c.accesses += 1;

        let l1 = if is_instr {
            &mut self.l1i[idx]
        } else {
            &mut self.l1d[idx]
        };
        let l1_level = if is_instr {
            CacheLevel::L1I
        } else {
            CacheLevel::L1D
        };
        if l1.access(addr) {
            let lat = l1_level.latency_cycles();
            c.latency_cycles += u64::from(lat);
            return (ServedBy::Cache(l1_level), lat);
        }
        c.l1_misses += 1;
        if self.l2[pmd].access(addr) {
            let lat = CacheLevel::L2.latency_cycles();
            c.latency_cycles += u64::from(lat);
            return (ServedBy::Cache(CacheLevel::L2), lat);
        }
        c.l2_misses += 1;
        if self.l3.access(addr) {
            let lat = CacheLevel::L3.latency_cycles();
            c.latency_cycles += u64::from(lat);
            return (ServedBy::Cache(CacheLevel::L3), lat);
        }
        c.l3_misses += 1;
        c.latency_cycles += u64::from(DRAM_LATENCY_CYCLES);
        (ServedBy::Dram, DRAM_LATENCY_CYCLES)
    }

    /// Per-core counters.
    pub fn counters(&self, core: CoreId) -> CoreCounters {
        self.counters[core.index()]
    }

    /// Flushes every cache and clears counters.
    pub fn reset(&mut self) {
        for c in self.l1i.iter_mut().chain(&mut self.l1d).chain(&mut self.l2) {
            c.flush();
            c.reset_stats();
        }
        self.l3.flush();
        self.l3.reset_stats();
        self.counters = vec![CoreCounters::default(); CORE_COUNT];
    }
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        CacheHierarchy::xgene2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_path_fills_all_levels() {
        let mut h = CacheHierarchy::xgene2();
        let core = CoreId::new(2);
        let (served, lat) = h.access_data(core, 0x1_0000);
        assert_eq!(served, ServedBy::Dram);
        assert_eq!(lat, DRAM_LATENCY_CYCLES);
        // Now resident everywhere down the path.
        assert_eq!(
            h.access_data(core, 0x1_0000).0,
            ServedBy::Cache(CacheLevel::L1D)
        );
    }

    #[test]
    fn l2_is_shared_within_a_pmd_only() {
        let mut h = CacheHierarchy::xgene2();
        let (a, b) = (CoreId::new(0), CoreId::new(1)); // same PMD0
        let other = CoreId::new(2); // PMD1
        h.access_data(a, 0x8000);
        // Sibling core misses L1 but hits the shared L2.
        assert_eq!(h.access_data(b, 0x8000).0, ServedBy::Cache(CacheLevel::L2));
        // A core in another PMD misses L2 but hits the chip-wide L3.
        assert_eq!(
            h.access_data(other, 0x8000).0,
            ServedBy::Cache(CacheLevel::L3)
        );
    }

    #[test]
    fn instruction_and_data_l1_are_split() {
        let mut h = CacheHierarchy::xgene2();
        let core = CoreId::new(0);
        h.access_instr(core, 0x2000);
        // Same address as data: misses L1D (split caches) but hits L2.
        assert_eq!(
            h.access_data(core, 0x2000).0,
            ServedBy::Cache(CacheLevel::L2)
        );
    }

    #[test]
    fn counters_track_miss_chain() {
        let mut h = CacheHierarchy::xgene2();
        let core = CoreId::new(5);
        h.access_data(core, 0xAA000);
        h.access_data(core, 0xAA000);
        let c = h.counters(core);
        assert_eq!(c.accesses, 2);
        assert_eq!(c.l1_misses, 1);
        assert_eq!(c.l3_misses, 1);
        assert!((c.dram_ratio() - 0.5).abs() < 1e-12);
        assert!(c.avg_latency() > 1.0);
    }

    #[test]
    fn streaming_beyond_l3_goes_to_dram() {
        let mut h = CacheHierarchy::xgene2();
        let core = CoreId::new(0);
        // Stream 16 MiB twice: exceeds the 8 MiB L3, so the second pass
        // still misses (LRU thrash on a streaming pattern).
        let lines = 16 * 1024 * 1024 / 64;
        for _ in 0..2 {
            for i in 0..lines {
                h.access_data(core, i as u64 * 64);
            }
        }
        let c = h.counters(core);
        assert!(
            c.l3_misses as f64 > 0.9 * c.accesses as f64,
            "l3 misses {} of {}",
            c.l3_misses,
            c.accesses
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut h = CacheHierarchy::xgene2();
        let core = CoreId::new(0);
        h.access_data(core, 0x40);
        h.reset();
        assert_eq!(h.counters(core).accesses, 0);
        assert_eq!(h.access_data(core, 0x40).0, ServedBy::Dram);
    }
}
