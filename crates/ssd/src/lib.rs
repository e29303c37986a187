//! The SkyByte CXL-SSD controller.
//!
//! This crate assembles the substrates — the NAND array ([`skybyte_flash`]),
//! the FTL ([`skybyte_ftl`]), the CXL-aware SSD DRAM ([`skybyte_cache`]) and
//! the CXL message model ([`skybyte_cxl`]) — into the device-side half of
//! SkyByte:
//!
//! * [`SsdController`] serves cacheline reads and writes arriving over
//!   CXL.mem, following the R1/R2/R3 and W1/W2/W3 paths of Figure 11 when the
//!   write log is enabled, or the conventional page-granular cache of the
//!   Base-CSSD baseline when it is not. On a flash miss it applies
//!   Algorithm 1: it estimates the fetch's delay from its channel's queue
//!   occupancy and decides whether to answer with the `SkyByte-Delay` NDR
//!   opcode;
//! * the [`HotnessTracker`] nominates promotion candidates for the adaptive
//!   page-migration mechanism (§III-C), matching on its
//!   [`HotnessPolicyKind`](skybyte_types::HotnessPolicyKind): `threshold` is
//!   the paper's exact counter; `decay` and `topk` are memory-bounded
//!   contenders;
//! * background **log compaction** (Figure 13) and **garbage collection** are
//!   executed against the flash channel queues so that their interference with
//!   foreground reads is visible in the latency estimates.
//!
//! # Example
//!
//! ```
//! use skybyte_ssd::{ServedBy, SsdController};
//! use skybyte_types::{Lpa, Nanos, SimConfig, VariantKind};
//!
//! let mut cfg = SimConfig::default().with_variant(VariantKind::SkyByteFull);
//! // Shrink the device so the example runs instantly.
//! cfg.ssd.geometry.blocks_per_plane = 8;
//! cfg.ssd.dram.data_cache_bytes = 1 << 20;
//! cfg.ssd.dram.write_log_bytes = 1 << 16;
//! let mut ssd = SsdController::new(&cfg);
//!
//! // A write is absorbed by the write log without flash access.
//! let w = ssd.handle_write(Lpa::new(3), 5, Nanos::ZERO);
//! assert_eq!(w.served_by, ServedBy::WriteLog);
//!
//! // Reading the same cacheline hits the log.
//! let r = ssd.handle_read(Lpa::new(3), 5, Nanos::new(500));
//! assert_eq!(r.served_by, ServedBy::WriteLog);
//! assert!(!r.delay_hint);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod controller;
pub mod hotness;
mod stats;

pub use controller::SsdController;
pub use hotness::HotnessTracker;
pub use stats::{AccessBreakdown, ServedBy, SsdStats};

// Re-exported so the simulation core can snapshot every device layer's
// counters into its per-run `LayerCounters` (the conservation audit's input)
// without depending on each device crate directly.
pub use skybyte_cache::WriteLogStats;
pub use skybyte_flash::FlashStats;
pub use skybyte_ftl::FtlStats;

/// A xorshift64* stream for the randomised reference-model tests (the crate
/// has no RNG dependency).
#[cfg(test)]
struct TestRng(u64);

#[cfg(test)]
impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    /// A draw from `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) % n
    }
}
