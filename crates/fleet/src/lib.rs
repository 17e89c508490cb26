//! Fleet-scale campaign orchestration.
//!
//! The paper characterizes three X-Gene 2 boards by hand; this crate
//! scales the same campaigns to a simulated datacenter. It is built
//! around one invariant: **an N-worker fleet run produces byte-identical
//! characterization output to the serial run**, resting on three pillars —
//!
//! 1. [`population`] — every board's silicon is a pure function of
//!    `(fleet seed, board id)`: corner drawn from a [`CornerMix`],
//!    chip personality sampled around it, DRAM weak cells from the
//!    board's own boot seed;
//! 2. [`job`] — characterizing a board is a pure function of its spec
//!    and the campaign: the full `char-fw` resilient Vmin walk, the
//!    per-bank DRAM retention floor, the derived safe point and a
//!    simulated cost in board-seconds;
//! 3. [`orchestrator`] — dispatch through the bounded FIFO [`queue`]
//!    is intentionally racy, but aggregation sorts every outcome by
//!    `(board, attempt)` before folding, and the safe-point database
//!    ([`SafePointStore`]) is an order-independent semilattice.
//!
//! The same purity argument powers crash consistency: [`journal`] is a
//! CRC-framed write-ahead journal of claims, completions and merges,
//! and [`orchestrator::run_fleet_durable`] replays it on restart to
//! re-run *only* unfinished jobs — with the recovered campaign's merged
//! output byte-identical to an uninterrupted run (the chaos crate's
//! whole test surface). It is the crate's one coordinator loop:
//! [`run_fleet`] calls it over a fresh in-memory journal with no
//! injected faults.
//!
//! Work that is a fixed batch from the start — a lifetime round, a
//! red-team episode grid — runs on [`par_map_ordered`] instead, which
//! claims items by index and returns results in input order.
//!
//! Boards whose safety net trips (sub-Vmin silent corruption caught by
//! the DMR sentinels) are evicted back to nominal and re-queued once
//! with a raised search floor. Fleet speedup is *modeled* by the
//! deterministic [`schedule`] makespan over per-job simulated costs —
//! see that module for why wall clock is not the metric.
//!
//! Safe points age with the silicon under them: [`maintenance`] plans
//! budget-capped re-characterization rounds from per-board drift
//! signals, and [`job::execute_in_env`] re-runs a board's campaign
//! against aged silicon with a warm-started Vmin walk seeded by the
//! previous epoch's safe point.
//!
//! # Examples
//!
//! ```
//! use fleet::{run_fleet, FleetCampaign, FleetConfig, FleetSpec};
//!
//! let spec = FleetSpec::new(4, 2018);
//! let report = run_fleet(&spec, &FleetCampaign::quick(), &FleetConfig::with_workers(2));
//! assert_eq!(report.characterization.stats.boards, 4);
//! println!("{}", report.render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod job;
pub mod journal;
pub mod maintenance;
pub mod orchestrator;
pub mod population;
pub mod queue;
pub mod report;
pub mod schedule;

pub use guardband_core::safepoint::{BoardSafePoint, FleetStats, SafePointStore};
pub use job::{
    execute, execute_in_env, BoardOutcome, FleetCampaign, FleetJob, JobEnvironment, WarmStartPriors,
};
pub use journal::{
    DirStore, FleetJournal, JournalDamage, JournalEntry, JournalStore, MemStore, Replay,
};
pub use maintenance::{
    BoardHealth, MaintenanceDecision, MaintenancePlan, MaintenancePolicy, MaintenanceTrigger,
    MaintenanceWindow,
};
pub use orchestrator::{
    eviction_floor, run_fleet, run_fleet_durable, Disruption, DurableRun, DurableStats,
    FleetConfig, FleetInterrupted, CHECKPOINT_EVERY,
};
pub use population::{BoardSpec, CornerMix, FleetSpec};
pub use queue::{par_map_ordered, FleetQueue};
pub use report::{FleetCharacterization, FleetExecution, FleetReport, JobSummary};
pub use schedule::ScheduleModel;
