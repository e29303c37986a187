//! Host operating-system substrate for the SkyByte simulator.
//!
//! SkyByte co-designs the OS with the SSD controller. The OS-side pieces
//! modelled here are:
//!
//! * [`sched`] — the run queue and the CXL-aware thread scheduling policies
//!   (Round-Robin, Random, CFS) invoked by the *Long Delay Exception* handler
//!   (§III-A);
//! * [`thread`] — thread control blocks with vruntime and blocking state;
//! * [`vm`] — the page table mapping virtual pages to host DRAM or the
//!   CXL-SSD, plus a TLB model with shootdown accounting (page migrations
//!   update the PTE and invalidate the TLB entry, §III-C);
//! * [`memory`] — the host-DRAM promotion pool with Linux-style
//!   active/inactive lists used to pick "cold" pages for eviction back to the
//!   SSD when the promotion budget fills up;
//! * [`tpp`] — a TPP-style periodic-sampling hotness estimator used by the
//!   SkyByte-CT / SkyByte-WCT comparison points (§VI-H).
//!
//! # Example
//!
//! ```
//! use skybyte_os::Scheduler;
//! use skybyte_types::{Nanos, SchedPolicy};
//!
//! let mut sched = Scheduler::new(SchedPolicy::Cfs, Nanos::from_micros(2), 42);
//! let t0 = sched.spawn();
//! let t1 = sched.spawn();
//! let core = 0;
//! let first = sched.schedule_on(core, Nanos::ZERO).unwrap();
//! assert!(first == t0 || first == t1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod memory;
pub mod sched;
pub mod thread;
pub mod tpp;
pub mod vm;

pub use memory::{HostMemoryPool, PoolDecision};
pub use sched::{SchedStats, Scheduler};
pub use thread::{BlockReason, ThreadControlBlock, ThreadId, ThreadState};
pub use tpp::TppSampler;
pub use vm::{PagePlacement, PageTable, Tlb};
