//! The automated characterization framework of the DSN'18 guardband study.
//!
//! Paper Fig. 2 describes a three-phase framework — initialization,
//! execution, parsing — that finds each component's limits under scaled
//! voltage/frequency/refresh conditions and classifies every run's effect:
//!
//! * [`setup`] — characterization setups, voltage schedules, safe-outcome
//!   policies (initialization phase);
//! * [`runner`] — the execution loop with watchdog recovery and per-run
//!   records, including the Vmin search (execution phase);
//! * [`resilience`] — retry/backoff policies, quarantine bookkeeping and
//!   checkpoint/resume state for campaigns that must survive the
//!   harness's own failures;
//! * [`integrity`] — CRC-sealed framing for serialized campaign state,
//!   so a torn checkpoint write is a typed corruption error rather than
//!   a mystery decode failure;
//! * [`safety`] — the production safety net's primitives: redundant-
//!   execution (DMR) sentinel canaries and the EWMA CE-rate circuit
//!   breaker scheduled inside campaigns;
//! * [`report`] — classification tables and the final CSVs (parsing
//!   phase);
//! * [`dramchar`] — DRAM campaigns combining the PID thermal testbed,
//!   refresh relaxation and DPBench/Rodinia workloads;
//! * [`frequency`] — Fmax campaigns (the DVFS dual of the Vmin search);
//! * [`multiprocess`] — rail-Vmin campaigns for simultaneous instances
//!   (the single-process → Fig. 5 mix bridge);
//! * [`mod@soak`] — long-duration safe-point qualification ("without any
//!   disruption");
//! * [`warmstart`] — re-characterization seeded by a previous epoch's
//!   safe point: narrow Vmin windows around the prior, with escalation
//!   to a cold walk when drift outruns the headroom.
//!
//! # Examples
//!
//! Characterize one benchmark's Vmin on the most robust core:
//!
//! ```no_run
//! use char_fw::runner::CampaignRunner;
//! use char_fw::setup::VminCampaign;
//! use workload_sim::spec::by_name;
//! use xgene_sim::server::XGene2Server;
//! use xgene_sim::sigma::SigmaBin;
//!
//! let mut server = XGene2Server::new(SigmaBin::Ttt, 1);
//! let core = server.chip().most_robust_core();
//! let campaign = VminCampaign::dsn18(vec![by_name("mcf").unwrap().profile()], vec![core]);
//! let result = CampaignRunner::new(&mut server).run(&campaign);
//! println!("mcf Vmin: {:?}", result.vmin("mcf", core));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dramchar;
pub mod frequency;
pub mod integrity;
pub mod multiprocess;
pub mod report;
pub mod resilience;
pub mod runner;
pub mod safety;
pub mod setup;
pub mod soak;
pub mod warmstart;

pub use dramchar::{run_dram_campaign, DramCampaignConfig, DramCampaignReport};
pub use frequency::{run_fmax_campaign, FmaxCampaign, FmaxResult};
pub use integrity::{crc32, seal, unseal, CorruptCheckpoint};
pub use multiprocess::{run_multiprocess_campaign, MultiProcessCampaign, RailVminResult};
pub use report::{
    classify, quarantine_to_csv, records_to_csv, safety_to_csv, vmins_to_csv, OutcomeCounts,
};
pub use resilience::{
    recover_board, BoardRecovery, CampaignCheckpoint, CheckpointError, QuarantineRecord,
    QuarantineTracker, RecoveryStats, ResilienceConfig, RetryPolicy,
};
pub use runner::{CampaignResult, CampaignRunner, ResilientRunner, RunRecord, VminResult};
pub use safety::{
    BreakerConfig, BreakerState, CampaignSafetyState, CircuitBreaker, HealthSignal, SafetySummary,
    SentinelReport, SentinelRunner, SentinelStats, SentinelVerdict, TripReason,
};
pub use setup::{SafePolicy, Setup, VminCampaign};
pub use soak::{soak, SoakConfig, SoakReport};
pub use warmstart::{
    cold_walk_setups, distinct_setups, run_warm_start, WarmStartConfig, WarmStartOutcome,
};
