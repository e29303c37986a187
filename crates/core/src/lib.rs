//! SkyByte full-system simulator.
//!
//! This crate is the top of the stack: it wires the host-side models
//! ([`skybyte_cpu`], [`skybyte_os`], [`skybyte_cxl`]) to the device-side
//! [`skybyte_ssd::SsdController`], drives them with the synthetic workloads
//! of [`skybyte_workloads`], and implements every design point compared in
//! the paper's evaluation:
//!
//! * `Base-CSSD` — the state-of-the-art baseline CXL-SSD,
//! * `SkyByte-C` / `-P` / `-W` / `-CP` / `-WP` / `-Full` — the ablation of
//!   coordinated context switches (C), adaptive page promotion (P) and the
//!   CXL-aware write log (W),
//! * `DRAM-Only` — the infinite-host-DRAM ideal,
//! * `SkyByte-CT` / `-WCT` — TPP-style software migration (§VI-H),
//! * `AstriFlash-CXL` — the AstriFlash comparison point (§VI-H).
//!
//! The [`experiments`] module regenerates every table and figure of the
//! evaluation section, and `skybyte-bench`'s `figures` binary prints them;
//! `ROADMAP.md` tabulates the default-scale values next to the paper's
//! headline numbers.
//!
//! # Quick start
//!
//! ```
//! use skybyte_sim::{ExperimentScale, Simulation};
//! use skybyte_types::prelude::*;
//! use skybyte_workloads::WorkloadKind;
//!
//! // A deliberately tiny run so the doctest finishes quickly.
//! let scale = ExperimentScale::tiny();
//! let result = Simulation::build(VariantKind::SkyByteFull, WorkloadKind::Ycsb, &scale)
//!     .run();
//! assert!(result.exec_time > Nanos::ZERO);
//! assert!(result.total_accesses() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod engine;
pub mod event;
pub mod experiments;
pub mod fleet;
pub mod metrics;
pub mod migration;
pub mod report;
pub mod runner;
pub mod scale;
pub mod system;
pub mod telemetry;
mod tenant_sched;
pub mod thread_exec;

pub use engine::{Simulation, TraceDrive};
pub use event::{Event, EventQueue};
pub use fleet::{
    audit_fleet, device_groups, fig_fleet, interference_scores, run_fleet, DeviceOutcome,
    FleetConfig, FleetResult, TenantDemand,
};
pub use metrics::{AmatBreakdown, LayerCounters, RequestBreakdown, SimResult, TenantCounters};
pub use migration::MigrationEngine;
pub use report::{figure_table, figure_table_named, paper_table, render_figure, render_table};
pub use runner::{PerfReport, RunRequest, RunTiming, Runner};
pub use scale::ExperimentScale;
pub use system::SystemState;
pub use telemetry::{
    chrome_trace_json, metrics_csv, EventKind, MetricsLog, MetricsSample, Telemetry,
    TelemetryOutput, Timeline, TimelineEvent,
};
pub use thread_exec::ThreadExecutor;
