//! Flash translation layer (FTL) for the SkyByte CXL-SSD simulator.
//!
//! The FTL sits between the logical page space exported over CXL and the
//! physical NAND array modelled by [`skybyte_flash`]. It provides:
//!
//! * a **page-level mapping table** from logical page addresses
//!   ([`Lpa`](skybyte_types::Lpa)) to physical page addresses
//!   ([`Ppa`](skybyte_types::Ppa)) with out-of-place updates,
//! * **block management**: free-block pools per plane, write striping across
//!   channels, valid-page accounting,
//! * **garbage collection**: a greedy (min-valid-pages) victim selector that
//!   relocates live pages and erases blocks when the device fills beyond the
//!   configured threshold (80 % in Table II), and
//! * **write-amplification statistics** used by Figure 18 / Figure 20.
//!
//! # Example
//!
//! ```
//! use skybyte_flash::FlashArray;
//! use skybyte_ftl::Ftl;
//! use skybyte_types::prelude::*;
//!
//! let cfg = SsdConfig::default();
//! let mut flash = FlashArray::new(cfg.geometry, cfg.flash);
//! let mut ftl = Ftl::new(&cfg);
//!
//! // Write a logical page, then read it back through the mapping.
//! let outcome = ftl.write_page(Lpa::new(7), Nanos::ZERO, &mut flash);
//! assert!(outcome.completes_at >= Nanos::from_micros(100)); // >= tProg
//! let ppa = ftl.translate(Lpa::new(7)).unwrap();
//! assert_eq!(ftl.stats().host_pages_written, 1);
//! assert_eq!(flash.stats().pages_programmed, 1);
//! # let _ = ppa;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod ftl_impl;
mod stats;

pub use blocks::{BlockId, BlockManager, BlockState};
pub use ftl_impl::{Ftl, GcReport, WriteOutcome};
pub use stats::FtlStats;
