//! X-Gene2 Server-on-Chip topology (paper Fig. 1).
//!
//! Four processor modules (PMDs), each with two 64-bit ARMv8 cores at
//! 2.4 GHz; per-core 32 KiB L1I and L1D; a 256 KiB L2 shared by the two
//! cores of a PMD; an 8 MiB L3 shared across the chip through the
//! cache-coherent Central Switch (CSW); two memory-controller bridges
//! (MCBs), each fanning out to two DDR3 MCUs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of PMDs (processor modules).
pub const PMD_COUNT: usize = 4;
/// Cores per PMD.
pub const CORES_PER_PMD: usize = 2;
/// Total application cores.
pub const CORE_COUNT: usize = PMD_COUNT * CORES_PER_PMD;

/// One of the eight ARMv8 cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoreId(u8);

impl CoreId {
    /// Creates a core id.
    ///
    /// # Panics
    ///
    /// Panics if `core >= 8`.
    pub fn new(core: u8) -> Self {
        assert!((core as usize) < CORE_COUNT, "core must be < {CORE_COUNT}");
        CoreId(core)
    }

    /// Flat index `0..8`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The PMD hosting this core.
    pub fn pmd(self) -> PmdId {
        PmdId(self.0 / CORES_PER_PMD as u8)
    }

    /// All cores in index order.
    pub fn all() -> impl Iterator<Item = CoreId> {
        (0..CORE_COUNT as u8).map(CoreId)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// One of the four processor modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PmdId(u8);

impl PmdId {
    /// Creates a PMD id.
    ///
    /// # Panics
    ///
    /// Panics if `pmd >= 4`.
    pub fn new(pmd: u8) -> Self {
        assert!((pmd as usize) < PMD_COUNT, "pmd must be < {PMD_COUNT}");
        PmdId(pmd)
    }

    /// Flat index `0..4`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The two cores of this PMD.
    pub fn cores(self) -> [CoreId; CORES_PER_PMD] {
        let base = self.0 * CORES_PER_PMD as u8;
        [CoreId(base), CoreId(base + 1)]
    }

    /// All PMDs in index order.
    pub fn all() -> impl Iterator<Item = PmdId> {
        (0..PMD_COUNT as u8).map(PmdId)
    }
}

impl fmt::Display for PmdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PMD{}", self.0)
    }
}

/// A level of the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CacheLevel {
    /// Per-core 32 KiB instruction cache.
    L1I,
    /// Per-core 32 KiB data cache.
    L1D,
    /// Per-PMD 256 KiB unified cache.
    L2,
    /// Chip-wide 8 MiB cache behind the central switch.
    L3,
}

impl CacheLevel {
    /// All levels, innermost first.
    pub const ALL: [CacheLevel; 4] = [
        CacheLevel::L1I,
        CacheLevel::L1D,
        CacheLevel::L2,
        CacheLevel::L3,
    ];

    /// Capacity in bytes.
    pub fn capacity(self) -> usize {
        match self {
            CacheLevel::L1I | CacheLevel::L1D => 32 * 1024,
            CacheLevel::L2 => 256 * 1024,
            CacheLevel::L3 => 8 * 1024 * 1024,
        }
    }

    /// Associativity (ways).
    pub fn ways(self) -> usize {
        match self {
            CacheLevel::L1I | CacheLevel::L1D => 8,
            CacheLevel::L2 => 32,
            CacheLevel::L3 => 32,
        }
    }

    /// Line size in bytes (64 B across the hierarchy).
    pub fn line_bytes(self) -> usize {
        64
    }

    /// Access latency in core cycles at nominal frequency.
    pub fn latency_cycles(self) -> u32 {
        match self {
            CacheLevel::L1I | CacheLevel::L1D => 3,
            CacheLevel::L2 => 12,
            CacheLevel::L3 => 35,
        }
    }
}

impl fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheLevel::L1I => "L1I",
            CacheLevel::L1D => "L1D",
            CacheLevel::L2 => "L2",
            CacheLevel::L3 => "L3",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_to_pmd_mapping() {
        assert_eq!(CoreId::new(0).pmd(), PmdId::new(0));
        assert_eq!(CoreId::new(1).pmd(), PmdId::new(0));
        assert_eq!(CoreId::new(7).pmd(), PmdId::new(3));
        assert_eq!(CoreId::all().count(), 8);
    }

    #[test]
    fn pmd_cores_roundtrip() {
        for pmd in PmdId::all() {
            for core in pmd.cores() {
                assert_eq!(core.pmd(), pmd);
            }
        }
    }

    #[test]
    fn cache_capacities_match_paper() {
        assert_eq!(CacheLevel::L1D.capacity(), 32 * 1024);
        assert_eq!(CacheLevel::L2.capacity(), 256 * 1024);
        assert_eq!(CacheLevel::L3.capacity(), 8 * 1024 * 1024);
    }

    #[test]
    fn latency_grows_outward() {
        assert!(CacheLevel::L1D.latency_cycles() < CacheLevel::L2.latency_cycles());
        assert!(CacheLevel::L2.latency_cycles() < CacheLevel::L3.latency_cycles());
    }

    #[test]
    #[should_panic(expected = "core must be <")]
    fn rejects_core_8() {
        let _ = CoreId::new(8);
    }
}
