//! Benchmark harness regenerating every table and figure of the DSN'18
//! guardband paper.
//!
//! One module per experiment, each exposing `run(..)` (returning the
//! dataset) and `render(..)` (the paper-vs-measured text table):
//!
//! | Module     | Paper artefact |
//! |------------|----------------|
//! | [`fig4`]   | Fig. 4 — SPEC2006 Vmin on TTT/TFF/TSS |
//! | [`fig5`]   | Fig. 5 — power/performance trade-off |
//! | [`fig6_7`] | Fig. 6/7 — EM virus vs NAS, inter-chip margins |
//! | [`table1`] | Table I — unique error locations per bank |
//! | [`fig8`]   | Fig. 8a/8b — BER and refresh power savings |
//! | [`fig9`]   | Fig. 9 — jammer-detector exploitation |
//! | [`extras`] | §IV.C stencil scheduling, §IV.D predictor |
//! | [`ablation`] | ECC / virus-search / retention-model / governor ablations |
//! | [`sweep`]  | extension: safe refresh envelope vs temperature |
//! | [`fleet_scale`] | extension: 256-board fleet orchestration speedup |
//! | [`chaos_scale`] | extension: 64 seeded crash schedules, byte-identical recovery |
//! | [`lifetime_scale`] | extension: 16-board fleet aged 60 months with maintenance |
//! | [`redteam_scale`] | extension: adversarial co-evolution vs the safety net |
//! | [`obs_scale`] | extension: fleet observatory incidents, early warning, merge throughput |
//! | [`serving`] | extension: control-plane serving under seeded diurnal load |
//! | [`dispatch_scale`] | extension: economic dispatch vs nominal-only ablation |
//!
//! The `experiments` binary drives all of them; the `benches/` directory
//! holds criterion timings of the same entry points. The scaling
//! benchmarks share one pool sweep ([`sweep_pools`] over [`POOLS`]) and
//! one record writer ([`write_record`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod chaos_scale;
pub mod dispatch_scale;
pub mod extras;
pub mod fig4;
pub mod fig5;
pub mod fig6_7;
pub mod fig8;
pub mod fig9;
pub mod fleet_scale;
pub mod lifetime_scale;
pub mod obs_scale;
pub mod redteam_scale;
pub mod serving;
pub mod sweep;
pub mod table1;

use serde::Serialize;
use std::time::Instant;

/// Worker-pool sizes every scaling benchmark sweeps.
pub const POOLS: [usize; 4] = [1, 2, 4, 8];

/// One pool size's run inside [`sweep_pools`].
#[derive(Debug)]
pub struct PoolRun<T> {
    /// Worker threads.
    pub workers: usize,
    /// Host wall-clock of the run, seconds (informational; varies with
    /// the machine and is NOT part of any assertion).
    pub wall_seconds: f64,
    /// What the run returned.
    pub value: T,
}

/// Runs `run` once per pool size in [`POOLS`], timing each call, and
/// returns whether `identity` agrees across every pool together with
/// one [`PoolRun`] per pool, in [`POOLS`] order.
pub fn sweep_pools<T, K: PartialEq>(
    mut run: impl FnMut(usize) -> T,
    identity: impl Fn(&T) -> K,
) -> (bool, Vec<PoolRun<T>>) {
    let runs: Vec<PoolRun<T>> = POOLS
        .iter()
        .map(|&workers| {
            let start = Instant::now();
            let value = run(workers);
            PoolRun {
                workers,
                wall_seconds: start.elapsed().as_secs_f64(),
                value,
            }
        })
        .collect();
    let first = identity(&runs[0].value);
    let identical = runs[1..].iter().all(|r| identity(&r.value) == first);
    (identical, runs)
}

/// Writes `data` as JSON to `path` and prints
/// `(<what> record written to <path>)`; a failed write is reported on
/// stderr instead.
pub fn write_record<T: Serialize>(path: &str, what: &str, data: &T) {
    match std::fs::write(path, serde::json::to_string(data)) {
        Ok(()) => println!("({what} record written to {path})"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}
