//! The host-speed reference: a fixed kernel, owned by the benchmark and
//! independent of the program, timed beside the ops so that the bounded
//! time metrics can be scaled to one host speed.
//!
//! On the shared 2-core VM the bounds were set on, the host's own speed
//! halved the same ops' wall time within half an hour: redteam-campaign's
//! median op took 340–390 ms with 12 % steal, then 280–325 ms with almost
//! none, then 170–215 ms. Process CPU time per op moved with it (0.62 to
//! 0.51 s over the first two), so neither longer runs nor subtracting
//! steal could make two sets of runs agree.
//! A pass of this kernel, timed after every op, moved with the host: over
//! eight consecutive red-team runs the spread of the median op time fell
//! from 0.175 raw to 0.05 scaled, and that of the tail from 0.16 to 0.05
//! (measured with an earlier pass on two threads). A program change does
//! not move the kernel, so it shows in full in the scaled metrics.

use crate::measure::median;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Words in the table: 2 MiB, about one core's L2, so a pass sees both
/// the core's speed and its share of the cache behind it.
const WORDS: usize = 1 << 18;
/// Table updates per pass: about 10 ms on the reference VM.
const STEPS: u64 = 5_500_000;
/// Wall time of one pass at the reference speed, s. Scaled metrics read
/// as wall times on a host that runs one pass in this time.
pub const NOMINAL_S: f64 = 0.010;
/// Passes on each side of an op whose median its scale is taken from:
/// one pass can meet a preemption, and the host's speed drifts over
/// seconds, not over a whole run.
const WINDOW: usize = 2;

/// The table, static so that it is neither counted as heap nor paged in
/// again on every pass.
static TABLE: [AtomicU64; WORDS] = [const { AtomicU64::new(0) }; WORDS];

/// Runs one pass on the calling thread, updating the table at
/// pseudo-random places, and returns its wall time, s. One thread, not
/// one per worker: passes that spawned two threads took 7–37 ms on an
/// otherwise steady host, as the scheduler placed the new threads, while
/// passes on the calling thread stayed within 7–9 ms.
pub fn pass() -> f64 {
    let start = Instant::now();
    let mut x = 1u64;
    for step in 0..STEPS {
        x = x
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            .wrapping_add(0x1405_7b7e_f767_814f);
        let slot = &TABLE[(x >> 46) as usize];
        slot.store(slot.load(Relaxed).wrapping_add(step), Relaxed);
    }
    start.elapsed().as_secs_f64()
}

/// The factor that scales the wall time of op `i` to the reference
/// speed: [`NOMINAL_S`] over the median of the passes timed within
/// [`WINDOW`] of it (`passes[i]` ran right after op `i`).
pub fn scale(passes: &[f64], i: usize) -> f64 {
    let last = passes.len() - 1;
    let window = &passes[i.saturating_sub(WINDOW).min(last)..=(i + WINDOW).min(last)];
    NOMINAL_S / median(window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_takes_the_median_of_nearby_passes() {
        let passes = [0.010, 0.020, 0.010, 0.040, 0.020, 0.005, 0.020];
        // Op 3: passes 1..=5 = 20, 10, 40, 20, 5 ms; median 20 ms.
        assert_eq!(scale(&passes, 3), 0.5);
        // Op 0: passes 0..=2 = 10, 20, 10 ms; median 10 ms.
        assert_eq!(scale(&passes, 0), 1.0);
        // Op 6: passes 4..=6 = 20, 5, 20 ms.
        assert_eq!(scale(&passes, 6), 0.5);
        assert_eq!(scale(&[0.004], 0), 2.5);
    }

    #[test]
    fn a_pass_takes_a_few_milliseconds() {
        let secs = pass();
        assert!(secs > 0.0 && secs < 1.0, "{secs}");
    }
}
