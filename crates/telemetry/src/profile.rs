//! A lightweight profiling timer feeding the metrics registry.
//!
//! [`WallTimer`] measures *wall time* (how long the host actually
//! spent, e.g. inside a Vmin search) with `std::time::Instant` and
//! observes it into a histogram of the installed
//! [`Registry`](crate::metrics::Registry) — wall time never enters
//! recorded *events*, so traces stay deterministic.
//!
//! The timer is a no-op (no clock read, no allocation) when no registry
//! is installed.

use crate::metrics::WALL_SECONDS_BUCKETS;

/// RAII wall-clock timer: observes the elapsed seconds into the
/// histogram `name` (with [`WALL_SECONDS_BUCKETS`]) when dropped.
///
/// Prefer the [`time_scope!`](crate::time_scope) macro, which expands to
/// one of these bound to the end of the enclosing scope.
#[derive(Debug)]
pub struct WallTimer {
    name: &'static str,
    start: Option<std::time::Instant>,
}

impl WallTimer {
    /// Starts timing; reads the clock only if a registry is installed.
    pub fn start(name: &'static str) -> Self {
        let start = crate::has_registry().then(std::time::Instant::now);
        WallTimer { name, start }
    }
}

impl Drop for WallTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let secs = start.elapsed().as_secs_f64();
            let _ = crate::with_registry(|reg| {
                reg.observe_or_declare(self.name, &WALL_SECONDS_BUCKETS, secs);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::Telemetry;
    use std::rc::Rc;

    #[test]
    fn wall_timer_observes_into_registry() {
        let reg = Rc::new(Registry::new());
        let _guard = Telemetry::new().with_registry(reg.clone()).install();
        {
            let _t = WallTimer::start("search_seconds");
        }
        let h = reg.histogram("search_seconds").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.bounds(), WALL_SECONDS_BUCKETS);
    }

    #[test]
    fn timers_are_noops_without_registry() {
        let _t = WallTimer::start("nothing");
        assert!(_t.start.is_none());
    }
}
