//! Host CPU substrate: host DRAM and core timing model.
//!
//! The SkyByte paper evaluates with MacSim, a cycle-accurate multi-core
//! simulator. Its conclusions, however, are driven by off-chip memory
//! behaviour: Figure 4 shows that the studied workloads spend 62.9–99.8 % of
//! their cycles bounded by memory even on host DRAM. This crate therefore
//! provides a core model that only bounds how much off-chip latency the
//! out-of-order window hides, instead of a full pipeline model. The on-chip
//! cache hierarchy is not simulated: each workload's Table I LLC MPKI sets
//! how many instructions run between two off-chip accesses.
//!
//! * [`HostDram`] — DDR5 latency/bandwidth model for accesses that stay in
//!   host memory (and for promoted pages);
//! * [`CoreTimingModel`] — converts instruction counts to time and bounds how
//!   much off-chip latency the out-of-order window can hide;
//! * [`Boundedness`] — the memory- vs compute-bounded cycle accounting used
//!   by Figures 4 and 10.
//!
//! # Example
//!
//! ```
//! use skybyte_cpu::{CoreTimingModel, HostDram};
//! use skybyte_types::{CpuConfig, HostDramConfig, Nanos};
//!
//! let cfg = CpuConfig::default();
//! let core = CoreTimingModel::new(&cfg);
//! // 1000 instructions at IPC 2 and 4 GHz = 125 ns.
//! assert_eq!(core.compute_time(1000), Nanos::new(125));
//! // The 256-entry ROB hides only ~32 ns of a 3 µs flash access.
//! assert!(core.effective_stall(Nanos::from_micros(3)) > Nanos::from_micros(2));
//!
//! let mut dram = HostDram::new(&HostDramConfig::default());
//! let done = dram.access(Nanos::ZERO);
//! assert_eq!(done, Nanos::new(70));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod core_model;
mod dram;

pub use core_model::{Boundedness, CoreTimingModel};
pub use dram::HostDram;
