//! CXL.mem protocol model for the SkyByte CXL-SSD.
//!
//! The host CPU accesses the SSD as a Type-3 device through CXL.mem: reads are
//! `MemRd` master-to-slave requests answered either by a `MemData` response
//! carrying the cacheline or by a *No Data Response* (NDR). SkyByte extends
//! the NDR opcode space with `SkyByte-Delay` (Figure 8): when the SSD
//! controller predicts a long access delay it completes the transaction with
//! this opcode, and the host turns it into a *Long Delay Exception* that lets
//! the OS context-switch the blocked thread (Figure 7).
//!
//! This crate provides [`port`], the link/protocol timing model (40 ns
//! protocol latency, PCIe 5.0 ×4 bandwidth) and its traffic counters.
//!
//! Messages are not modelled flit by flit. The `SkyByte-Delay` response is
//! the controller's `SsdAccessOutcome::delay_hint` flag. The Promotion
//! Look-aside Buffer of §III-C is not modelled either: a page promotion
//! completes within one step of the simulation, so no access can meet a page
//! in flight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod port;

pub use port::{CxlPort, CxlPortStats};
