//! The guardband control plane: an always-on serving layer in front of
//! the characterization pipeline.
//!
//! Everything upstream of this crate is batch: a campaign runs, derives
//! safe points, writes a report. Real deployments need the opposite
//! interface — rack controllers ask "what voltage may board 17 run at
//! *right now*?" thousands of times a second, operators submit
//! recharacterization campaigns and watch them converge, and fleet
//! dashboards scrape health. This crate is that always-on layer:
//!
//! * [`http`] — a minimal, limit-enforcing HTTP/1.1 message layer
//!   (the workspace is offline; there is no hyper to lean on);
//! * [`state`] — the Arc-swapped [`state::SafePointSnapshot`] serving
//!   reads without ever taking the writer lock, with each epoch roll
//!   folded into a copy of the served index;
//! * [`campaigns`] — the campaign lifecycle (submit → run → publish)
//!   on top of the fleet crate's journaled durable runner, so a killed
//!   server resumes exactly where it died;
//! * [`router`] — transport-free dispatch shared by the TCP path, the
//!   tests and the serving benchmark;
//! * [`server`] — the bounded worker pool over `std::net::TcpListener`
//!   with deadline I/O and graceful drain;
//! * [`metrics`] — the `control_plane_*` metrics family, counted in one
//!   `telemetry::Registry` behind a lock and merged with campaign
//!   metrics into one Prometheus exposition;
//! * [`loadgen`] — seeded open-loop diurnal traffic for the `loadgen`
//!   binary and `BENCH_serving.json`.
//!
//! The serving guarantees the benchmark gates on: lookups are
//! wait-free with respect to epoch rolls (readers clone an `Arc`,
//! writers swap it), and after [`state::ControlState::roll_epoch`]
//! returns no lookup ever observes the previous epoch — zero stale
//! reads across a rollover.

pub mod campaigns;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod router;
pub mod server;
pub mod state;

pub use campaigns::{CampaignRecord, CampaignRunner, CampaignSpec, CampaignState};
pub use http::{parse_request, Limits, Method, ParseError, Parsed, Request, Response};
pub use loadgen::{LoadEvent, LoadProfile, LoadTrace, TraceDigest};
pub use metrics::{Route, ServerMetrics};
pub use router::Router;
pub use server::{serve, ServerConfig, ServerHandle};
pub use state::{
    ControlState, DispatchBoardStatus, DispatchStatus, SafePointSnapshot, SafePointView,
    StatusSnapshot,
};
