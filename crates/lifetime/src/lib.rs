//! Lifetime simulation: what happens to exploited guardbands as the
//! hardware under them ages.
//!
//! The DSN'18 study measures guardbands at one instant; this crate asks
//! the question a datacenter operator must: *for how long does a safe
//! point stay safe?* Silicon Vmin drifts upward under NBTI/HCI stress
//! ([`xgene_sim::aging`]), the DRAM weak-cell tail grows and flickers
//! ([`dram_sim::aging`]), and a point deployed with 25 mV of margin
//! eventually has none. The crate plays a fleet's whole service life in
//! simulated months and shows the operating discipline that keeps
//! below-guardband operation safe indefinitely:
//!
//! * [`drift`] — modeled per-board drift signals: remaining voltage
//!   margin, failing-cell (CE) pressure at the deployed refresh period,
//!   safe-point age;
//! * [`deployment`] — the monthly loop: watch drift, plan budget-capped
//!   re-characterization rounds through [`fleet::maintenance`], run the
//!   scheduled boards' campaigns against their aged silicon with
//!   warm-started Vmin walks ([`char_fw::warmstart`]), commit each
//!   round as a new epoch in the versioned safe-point store
//!   ([`guardband_core::epoch`]);
//! * [`report`] — the [`LifetimeChronicle`]: a month-by-month ledger
//!   that is byte-identical across runs and worker counts, CI's pinned
//!   artifact.
//!
//! The headline result mirrors the paper's safety argument, extended in
//! time: with maintenance on, **zero** board-months are spent below the
//! aged Vmin while most of the initial power savings survive every
//! epoch; with maintenance ablated, the same fleet accumulates SDC
//! exposure as aging silently consumes the deployed margin.
//!
//! # Examples
//!
//! ```
//! use lifetime::{run_deployment, DeploymentSpec};
//!
//! // Two boards, four months, on a pool of two workers. Each round is
//! // journaled in memory as it commits, exactly as a restartable
//! // `run_deployment_durable` journals it on disk.
//! let spec = DeploymentSpec::quick(2, 2018, 4);
//! let report = run_deployment(&spec, 2);
//! assert_eq!(report.chronicle.epochs.epoch(0).unwrap().len(), 2);
//! println!("{}", report.render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod deployment;
pub mod drift;
pub mod report;

pub use deployment::{run_deployment, run_deployment_durable, DeploymentSpec, LifetimeInterrupted};
pub use drift::DriftModel;
pub use report::{LifetimeChronicle, LifetimeExecution, LifetimeReport, MonthRecord};
