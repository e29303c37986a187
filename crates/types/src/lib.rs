//! Common foundational types for the SkyByte CXL-SSD simulation stack.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`addr`] — strongly-typed addresses for the address spaces of a
//!   memory-semantic SSD system (host virtual, SSD logical page, flash
//!   physical page, cacheline offsets, …).
//! * [`time`] — nanosecond-resolution simulated time ([`Nanos`]) and frequency
//!   helpers.
//! * [`access`] — the memory-access records exchanged between the host CPU
//!   model, the CXL port and the SSD controller.
//! * [`config`] — the full simulator configuration mirroring Table II of the
//!   SkyByte paper, including every knob exposed by the original artifact
//!   (`cs_threshold`, `ssd_cache_size_byte`, `host_dram_size_byte`,
//!   `t_policy`, …). The artifact's `promotion_enable`, `write_log_enable`
//!   and `device_triggered_ctx_swt` switches are the
//!   [`VariantKind::migration_policy`], [`VariantKind::write_log`] and
//!   [`VariantKind::context_switch`] of the configuration's `variant`.
//! * [`stats`] — the latency histogram behind the paper's latency
//!   distributions and the reported AMAT and percentiles.
//!
//! # Example
//!
//! ```
//! use skybyte_types::{Nanos, SimConfig, VirtAddr, PAGE_SIZE};
//!
//! let cfg = SimConfig::default();
//! assert_eq!(cfg.ssd.flash.read_latency, Nanos::from_micros(3));
//! assert_eq!(cfg.ssd.geometry.total_bytes(), 128 * (1 << 30));
//!
//! let va = VirtAddr::new(0x1234_5678);
//! assert_eq!(va.page().index(), 0x1234_5678 / PAGE_SIZE as u64);
//! assert_eq!(va.cacheline_in_page(), (0x5678 % 4096) / 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod access;
pub mod addr;
pub mod audit;
pub mod config;
pub mod error;
pub mod fasthash;
pub mod policy;
pub mod stats;
pub mod tenant;
pub mod time;

pub use access::{AccessKind, MemAccess};
pub use addr::{
    CachelineIndex, Lpa, PageNumber, Ppa, VirtAddr, CACHELINES_PER_PAGE, CACHELINE_SIZE, PAGE_SIZE,
};
pub use audit::{AuditReport, Violation};
pub use config::{
    CpuConfig, FlashTimingConfig, HostDramConfig, MigrationConfig, MigrationPolicyKind, NandKind,
    SchedPolicy, SimConfig, SsdConfig, SsdDramConfig, SsdGeometry, TelemetryConfig, TlbConfig,
    VariantKind, GIB, KIB, MIB,
};
pub use error::ConfigError;
pub use fasthash::{FastHashMap, FxBuildHasher, FxHasher};
pub use policy::{
    EvictionPolicyKind, HotnessPolicyKind, PlacementPolicyKind, PolicyConfig, PolicyOverride,
    RebalancePolicyKind, TenantSchedKind,
};
pub use stats::LatencyHistogram;
pub use tenant::{TenantId, TenantMap};
pub use time::{Freq, Nanos};
