//! Workspace facade for the SkyByte CXL-SSD simulator.
//!
//! This crate re-exports the top of the crate stack so that downstream users
//! (and this workspace's own integration tests and examples) can depend on a
//! single package. The heavy lifting lives in the `skybyte-*` crates under
//! `crates/`; see the README for the full crate map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use skybyte_sim as sim;
pub use skybyte_ssd as ssd;
pub use skybyte_trace as trace;
pub use skybyte_types as types;
pub use skybyte_workloads as workloads;
