//! Canary kernels for redundant-execution SDC sentinels.
//!
//! A silent data corruption is, by definition, invisible to the hardware
//! error reporting: the run completes, no CE/UE is logged, and the output
//! is simply wrong. The only way a production system operating below the
//! guardband can *observe* one is to run a workload whose correct output
//! is known in advance and compare. These canaries are that workload: tiny
//! deterministic integer/float kernels whose full execution folds into a
//! single 64-bit checksum, with the golden value precomputed when the
//! process first builds the suite so a sentinel check is one equality
//! test.
//!
//! Two properties matter:
//!
//! * **Determinism** — the same kernel always produces the same checksum,
//!   on any host, so golden values can be computed once and reused across
//!   epochs, cores and (in DMR mode) compared between the two cores of a
//!   PMD;
//! * **Fault sensitivity** — any single-bit upset in the kernel's working
//!   set changes the checksum. The fold is FNV-1a over every intermediate
//!   word, so a flip anywhere in the stream avalanches into the digest.
//!
//! [`CanaryKernel::run_corrupted`] models what an SDC does to the kernel:
//! it flips one deterministic pseudo-random bit mid-stream and returns the
//! resulting (wrong) checksum, which the sentinel layer uses to emulate
//! corrupted executions without needing oracle access to outcomes.

use rand::{fnv1a, splitmix64, FNV_OFFSET};
use std::sync::LazyLock;
use xgene_sim::workload::{StressTarget, WorkloadProfile};

/// A deterministic checksum kernel with a precomputed golden value.
#[derive(Debug, Clone, PartialEq)]
pub struct CanaryKernel {
    /// Working-set length in 64-bit words.
    words: usize,
    /// Seed of the input stream.
    seed: u64,
    /// Checksum of a fault-free execution.
    golden: u64,
    /// Electrical activity profile, named after the kernel.
    profile: WorkloadProfile,
}

impl CanaryKernel {
    /// The sentinel pair, alternated by the sentinel scheduler: the
    /// integer-pipeline `canary-int` (2,048 words of multiply/rotate
    /// chains the ALUs see) and `canary-stream` (8,192 words,
    /// representative of the cache-resident data an SDC would corrupt
    /// in flight). Built, golden checksums included, on the first call;
    /// every later call returns the same slice.
    pub fn sentinel_suite() -> &'static [CanaryKernel] {
        static SUITE: LazyLock<[CanaryKernel; 2]> = LazyLock::new(|| {
            [
                CanaryKernel::new("canary-int", 2048, 0x1A5C_0FFE),
                CanaryKernel::new("canary-stream", 8192, 0x5EED_CAFE),
            ]
        });
        &*SUITE
    }

    /// Builds a kernel and precomputes its golden checksum. Its profile
    /// is a moderate, mixed-stress load: sentinels must not themselves
    /// be viruses — they probe the operating point the *production*
    /// workload runs at, without dragging Vmin up.
    fn new(name: &str, words: usize, seed: u64) -> Self {
        let mut kernel = CanaryKernel {
            words,
            seed,
            golden: 0,
            profile: WorkloadProfile::builder(name)
                .activity(0.55)
                .swing(0.35)
                .resonance_alignment(0.05)
                .memory_intensity(if words >= 4096 { 0.5 } else { 0.1 })
                .target(StressTarget::IntAlu)
                .build(),
        };
        kernel.golden = kernel.checksum(None);
        kernel
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        self.profile.name()
    }

    /// The precomputed golden checksum.
    pub fn golden(&self) -> u64 {
        self.golden
    }

    /// Electrical activity profile of the canary for the fault model.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Executes the kernel fault-free and returns the checksum (always
    /// equal to [`Self::golden`]).
    pub fn run_clean(&self) -> u64 {
        self.checksum(None)
    }

    /// Executes the kernel with one single-bit upset injected at a
    /// position derived deterministically from `fault_seed`, returning the
    /// corrupted checksum. Guaranteed (and tested) to differ from golden
    /// for every seed: the flipped word enters the FNV fold directly.
    pub fn run_corrupted(&self, fault_seed: u64) -> u64 {
        let word = (splitmix64(fault_seed) % self.words as u64) as usize;
        let bit = (splitmix64(fault_seed ^ 0x9E37_79B9) % 64) as u32;
        self.checksum(Some((word, bit)))
    }

    /// The kernel body: an xorshift input stream pushed through a short
    /// integer pipeline, every intermediate folded into FNV-1a.
    fn checksum(&self, fault: Option<(usize, u32)>) -> u64 {
        let mut x = self.seed | 1;
        let mut acc: u64 = 0x2545_F491_4F6C_DD1D;
        let mut digest = FNV_OFFSET;
        for i in 0..self.words {
            // xorshift64 input stream.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // A dependent multiply-rotate-add chain: the kind of dataflow
            // whose corruption an SDC cannot hide from the fold.
            let mut v = x
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left((i % 63) as u32)
                .wrapping_add(acc);
            if let Some((word, bit)) = fault {
                if i == word {
                    v ^= 1u64 << bit;
                }
            }
            acc = acc.wrapping_add(v).rotate_left(7);
            digest = fnv1a(digest, &v.to_le_bytes());
        }
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_is_reproducible() {
        let a = &CanaryKernel::sentinel_suite()[0];
        let b = CanaryKernel::new("canary-int", 2048, 0x1A5C_0FFE);
        assert_eq!(*a, b);
        assert_eq!(a.run_clean(), a.golden());
        for _ in 0..5 {
            assert_eq!(a.run_clean(), a.golden(), "checksum is pure");
        }
    }

    #[test]
    fn the_suite_is_built_once_per_process() {
        assert!(std::ptr::eq(
            CanaryKernel::sentinel_suite(),
            CanaryKernel::sentinel_suite()
        ));
    }

    #[test]
    fn suite_kernels_have_distinct_goldens() {
        let suite = CanaryKernel::sentinel_suite();
        assert_eq!(suite.len(), 2);
        assert_ne!(suite[0].golden(), suite[1].golden());
        assert_eq!(suite[0].name(), "canary-int");
        assert_eq!(suite[1].name(), "canary-stream");
    }

    #[test]
    fn every_injected_fault_changes_the_checksum() {
        // The acceptance-critical property: a single-bit upset anywhere in
        // the stream is never absorbed by the fold.
        for kernel in CanaryKernel::sentinel_suite() {
            for fault_seed in 0..512u64 {
                let corrupted = kernel.run_corrupted(fault_seed);
                assert_ne!(
                    corrupted,
                    kernel.golden(),
                    "fault seed {fault_seed} collided with golden on {}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn distinct_faults_usually_produce_distinct_checksums() {
        let kernel = &CanaryKernel::sentinel_suite()[0];
        let mut seen = std::collections::HashSet::new();
        for fault_seed in 0..256u64 {
            seen.insert(kernel.run_corrupted(fault_seed));
        }
        // (word, bit) positions collide across seeds, but far fewer than
        // half of them may alias.
        assert!(seen.len() > 128, "only {} distinct checksums", seen.len());
    }

    #[test]
    fn profile_is_moderate() {
        let p = CanaryKernel::sentinel_suite()[1].profile();
        assert!(p.droop_score() < 0.7, "sentinels must not be viruses");
        assert_eq!(p.target(), StressTarget::IntAlu);
        assert_eq!(p.name(), "canary-stream");
    }
}
