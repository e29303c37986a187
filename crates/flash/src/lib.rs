//! NAND flash array timing model.
//!
//! This crate is the lowest substrate of the SkyByte stack: it models the
//! physical flash array of the CXL-SSD described in Table II of the paper —
//! 16 channels × 8 chips/channel × 8 dies/chip × 1 plane/die × 128
//! blocks/plane × 256 pages/block of 4 KiB pages (128 GiB) — together with the
//! per-channel FIFO command queues whose occupancy drives the latency
//! estimation of the coordinated context-switch trigger policy (Algorithm 1).
//!
//! The model is *timing only*: page payloads are carried by upper layers
//! (write log / data cache); this crate answers "when will this flash command
//! complete and how busy is each channel".
//!
//! # Example
//!
//! ```
//! use skybyte_flash::{FlashArray, FlashCommandKind};
//! use skybyte_types::{Nanos, Ppa, SsdConfig};
//!
//! let cfg = SsdConfig::default();
//! let mut flash = FlashArray::new(cfg.geometry, cfg.flash);
//! let ppa = Ppa::default(); // channel 0, chip 0, ..., page 0
//! let done = flash.submit(FlashCommandKind::Read, ppa, Nanos::ZERO);
//! assert_eq!(done, Nanos::from_micros(3)); // tR of Z-NAND
//! // A second read on the same channel queues behind the first.
//! let done2 = flash.submit(FlashCommandKind::Read, ppa, Nanos::ZERO);
//! assert_eq!(done2, Nanos::from_micros(6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod array;
mod channel;
mod command;
mod stats;

pub use array::FlashArray;
pub use channel::{ChannelQueue, QueueCounters};
pub use command::FlashCommandKind;
pub use stats::FlashStats;
