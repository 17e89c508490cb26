//! The host record printed beside every result: core count, build
//! profile, compiler, and `/proc` counters read around the timed phase.
//! Steal time explains runs that look like regressions but are a
//! neighbour taking the CPU.

use std::fs;

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, 100
/// on every Linux architecture the workspace targets).
const TICKS_PER_SECOND: f64 = 100.0;

/// `/proc` counters at one instant. Missing files read as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostSample {
    /// Host-wide steal time, seconds.
    pub steal_s: f64,
    /// This process's user + system CPU time, seconds.
    pub cpu_s: f64,
    /// This process's minor page faults.
    pub minor_faults: u64,
}

impl HostSample {
    /// Reads `/proc/stat` and `/proc/self/stat`.
    pub fn read() -> Self {
        let steal_s = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let cpu = s
                    .lines()
                    .next()?
                    .split_whitespace()
                    .nth(8)?
                    .parse::<f64>()
                    .ok()?;
                Some(cpu / TICKS_PER_SECOND)
            })
            .unwrap_or(0.0);
        // Fields after the parenthesized command name: state is field 3,
        // minflt field 10, utime 14, stime 15 (1-based, proc(5)).
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let rest: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let field = |n: usize| {
            rest.get(n - 3)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        HostSample {
            steal_s,
            cpu_s: (field(14) + field(15)) as f64 / TICKS_PER_SECOND,
            minor_faults: field(10),
        }
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The compiler that built this binary (captured by the build script).
pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_move_forward() {
        let before = HostSample::read();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let after = HostSample::read();
        assert!(after.cpu_s >= before.cpu_s);
        assert!(after.minor_faults >= before.minor_faults);
        assert!(rss_peak_mb() > 0.0);
        assert!(!rustc().is_empty());
    }
}
