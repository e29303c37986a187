//! Simulator configuration.
//!
//! [`SimConfig`] mirrors Table II of the SkyByte paper (the default
//! configuration of the CXL-SSD simulator) and exposes the same knobs as the
//! original artifact's configuration files:
//!
//! | artifact knob | field |
//! |---|---|
//! | `promotion_enable` | [`VariantKind::migration_policy`] of [`SimConfig::variant`] (not `disabled`) |
//! | `write_log_enable` | [`VariantKind::write_log`] of [`SimConfig::variant`] |
//! | `device_triggered_ctx_swt` | [`VariantKind::context_switch`] of [`SimConfig::variant`] |
//! | `cs_threshold` | [`SimConfig::cs_threshold`] |
//! | `ssd_cache_size_byte` | [`SsdDramConfig::data_cache_bytes`] |
//! | `ssd_cache_way` | [`SsdDramConfig::data_cache_ways`] |
//! | `host_dram_size_byte` | [`HostDramConfig::promotion_capacity_bytes`] |
//! | `t_policy` | [`SimConfig::sched_policy`] |

use crate::addr::PAGE_SIZE;
use crate::error::ConfigError;
use crate::policy::PolicyConfig;
use crate::time::{Freq, Nanos};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of one kibibyte in bytes.
pub const KIB: u64 = 1 << 10;
/// Size of one mebibyte in bytes.
pub const MIB: u64 = 1 << 20;
/// Size of one gibibyte in bytes.
pub const GIB: u64 = 1 << 30;

// ---------------------------------------------------------------------------
// CPU
// ---------------------------------------------------------------------------

/// Configuration of the data TLB shared by the simulated cores (modelled as
/// fully associative with LRU replacement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Number of translation entries (the paper's configuration models a
    /// 1536-entry second-level dTLB).
    pub entries: u32,
    /// Page-walk penalty charged on every TLB miss.
    pub miss_latency: Nanos,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            entries: 1536,
            miss_latency: Nanos::new(30),
        }
    }
}

/// Host CPU configuration (Table II, "CPU" block).
///
/// The on-chip caches are not simulated: each workload's Table I LLC MPKI
/// sets how many instructions run between two off-chip accesses, so Table
/// II's L1/L2/LLC sizes have no field here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Number of physical cores.
    pub cores: u32,
    /// Core clock frequency.
    pub freq: Freq,
    /// Reorder-buffer entries per core; bounds how much latency the core can
    /// hide with out-of-order execution.
    pub rob_entries: u32,
    /// Data TLB backing the page-table walks of off-chip accesses.
    pub tlb: TlbConfig,
    /// Nominal instructions per cycle for the non-memory portion of the
    /// workload.
    pub base_ipc: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            cores: 8,
            freq: Freq::from_ghz(4.0),
            rob_entries: 256,
            tlb: TlbConfig::default(),
            base_ipc: 2.0,
        }
    }
}

// ---------------------------------------------------------------------------
// Host DRAM
// ---------------------------------------------------------------------------

/// Host DRAM configuration (DDR5-4800, 8 channels, in Table II), including
/// the budget for pages promoted from the CXL-SSD (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostDramConfig {
    /// Average access latency for one cacheline (~70 ns loaded latency).
    pub access_latency: Nanos,
    /// Peak bandwidth summed over all channels, in bytes per second
    /// (8 channels of 32 GiB/s).
    pub bandwidth_bps: u64,
    /// Maximum total size of pages promoted from the SSD to host DRAM
    /// (2 GiB in Table II). Artifact knob `host_dram_size_byte`.
    pub promotion_capacity_bytes: u64,
}

impl Default for HostDramConfig {
    fn default() -> Self {
        HostDramConfig {
            access_latency: Nanos::new(70),
            bandwidth_bps: 8 * 32 * GIB,
            promotion_capacity_bytes: 2 * GIB,
        }
    }
}

// ---------------------------------------------------------------------------
// Flash / SSD
// ---------------------------------------------------------------------------

/// NAND flash device families evaluated in Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NandKind {
    /// Ultra-low-latency flash (Samsung Z-NAND): tR 3 µs, tProg 100 µs, tBERS 1 ms.
    Ull,
    /// Ultra-low-latency flash (Toshiba XL-Flash): tR 4 µs, tProg 75 µs, tBERS 850 µs.
    Ull2,
    /// Single-level-cell flash: tR 25 µs, tProg 200 µs, tBERS 1.5 ms.
    Slc,
    /// Multi-level-cell flash: tR 50 µs, tProg 600 µs, tBERS 3 ms.
    Mlc,
}

impl NandKind {
    /// All flash families in the order of Table IV.
    pub const ALL: [NandKind; 4] = [NandKind::Ull, NandKind::Ull2, NandKind::Slc, NandKind::Mlc];
}

impl fmt::Display for NandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NandKind::Ull => "ULL",
            NandKind::Ull2 => "ULL2",
            NandKind::Slc => "SLC",
            NandKind::Mlc => "MLC",
        };
        f.write_str(s)
    }
}

/// NAND flash timing parameters (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashTimingConfig {
    /// Page read time (tR).
    pub read_latency: Nanos,
    /// Page program time (tProg).
    pub program_latency: Nanos,
    /// Block erase time (tBERS).
    pub erase_latency: Nanos,
}

impl FlashTimingConfig {
    /// Timing for the given NAND family.
    pub fn for_kind(kind: NandKind) -> Self {
        match kind {
            NandKind::Ull => FlashTimingConfig {
                read_latency: Nanos::from_micros(3),
                program_latency: Nanos::from_micros(100),
                erase_latency: Nanos::from_micros(1000),
            },
            NandKind::Ull2 => FlashTimingConfig {
                read_latency: Nanos::from_micros(4),
                program_latency: Nanos::from_micros(75),
                erase_latency: Nanos::from_micros(850),
            },
            NandKind::Slc => FlashTimingConfig {
                read_latency: Nanos::from_micros(25),
                program_latency: Nanos::from_micros(200),
                erase_latency: Nanos::from_micros(1500),
            },
            NandKind::Mlc => FlashTimingConfig {
                read_latency: Nanos::from_micros(50),
                program_latency: Nanos::from_micros(600),
                erase_latency: Nanos::from_micros(3000),
            },
        }
    }
}

impl Default for FlashTimingConfig {
    /// ULL (Z-NAND) timing, the default of Table II.
    fn default() -> Self {
        FlashTimingConfig::for_kind(NandKind::Ull)
    }
}

/// Physical organisation of the flash array (Table II, "Organization").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SsdGeometry {
    /// Number of flash channels.
    pub channels: u32,
    /// Chips per channel.
    pub chips_per_channel: u32,
    /// Dies per chip.
    pub dies_per_chip: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block. Every page holds [`PAGE_SIZE`] bytes.
    pub pages_per_block: u32,
}

impl SsdGeometry {
    /// Total number of physical flash pages.
    pub fn total_pages(&self) -> u64 {
        self.channels as u64
            * self.chips_per_channel as u64
            * self.dies_per_chip as u64
            * self.planes_per_die as u64
            * self.blocks_per_plane as u64
            * self.pages_per_block as u64
    }

    /// Total number of erase blocks.
    pub fn total_blocks(&self) -> u64 {
        self.channels as u64
            * self.chips_per_channel as u64
            * self.dies_per_chip as u64
            * self.planes_per_die as u64
            * self.blocks_per_plane as u64
    }

    /// Total raw capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * PAGE_SIZE as u64
    }
}

impl Default for SsdGeometry {
    /// 16 channels × 8 chips × 8 dies × 1 plane × 128 blocks × 256 pages ×
    /// 4 KiB = 128 GiB (Table II).
    fn default() -> Self {
        SsdGeometry {
            channels: 16,
            chips_per_channel: 8,
            dies_per_chip: 8,
            planes_per_die: 1,
            blocks_per_plane: 128,
            pages_per_block: 256,
        }
    }
}

/// Configuration of the SSD-internal DRAM (write log + data cache).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsdDramConfig {
    /// Latency of one access to the SSD-internal LPDDR4-3200 memory (90 ns).
    pub access_latency: Nanos,
    /// Size of the page-granular read-write data cache, in bytes
    /// (448 MiB by default: 512 MiB SSD DRAM minus the 64 MiB write log).
    pub data_cache_bytes: u64,
    /// Associativity of the data cache. Artifact knob `ssd_cache_way`.
    pub data_cache_ways: u32,
    /// Size of the cacheline-granular write log, in bytes (64 MiB default).
    pub write_log_bytes: u64,
    /// Average lookup latency of the write-log index (72 ns measured on the
    /// paper's FPGA prototype).
    pub write_log_index_latency: Nanos,
    /// Average lookup latency of the data-cache index (49 ns measured on the
    /// paper's FPGA prototype).
    pub data_cache_index_latency: Nanos,
    /// Load factor above which a second-level hash table of the write-log
    /// index doubles in size (0.75 default).
    pub index_resize_load_factor: f64,
}

impl Default for SsdDramConfig {
    fn default() -> Self {
        SsdDramConfig {
            access_latency: Nanos::new(90),
            data_cache_bytes: 448 * MIB,
            data_cache_ways: 16,
            write_log_bytes: 64 * MIB,
            write_log_index_latency: Nanos::new(72),
            data_cache_index_latency: Nanos::new(49),
            index_resize_load_factor: 0.75,
        }
    }
}

/// Full SSD configuration: interface, geometry, timing, DRAM and GC policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Flash array organisation.
    pub geometry: SsdGeometry,
    /// NAND timing parameters.
    pub flash: FlashTimingConfig,
    /// SSD-internal DRAM configuration.
    pub dram: SsdDramConfig,
    /// CXL.mem protocol latency added to every host↔SSD transaction
    /// (40 ns in Table II).
    pub cxl_protocol_latency: Nanos,
    /// Link bandwidth of the CXL/PCIe interface in bytes per second
    /// (PCIe 5.0 ×4 = 16 GB/s).
    pub link_bandwidth_bps: u64,
    /// Fraction of valid (mapped) pages above which garbage collection starts
    /// (0.80 in Table II).
    pub gc_threshold: f64,
    /// Number of blocks reclaimed by one GC campaign (19660 in Table II,
    /// scaled to the simulated geometry by the FTL).
    pub gc_blocks_per_campaign: u32,
    /// Over-provisioning factor: fraction of raw capacity hidden from the
    /// logical space so GC always has spare blocks.
    pub overprovisioning: f64,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            geometry: SsdGeometry::default(),
            flash: FlashTimingConfig::default(),
            dram: SsdDramConfig::default(),
            cxl_protocol_latency: Nanos::new(40),
            link_bandwidth_bps: 16 * GIB,
            gc_threshold: 0.80,
            gc_blocks_per_campaign: 19660,
            overprovisioning: 0.07,
        }
    }
}

impl SsdConfig {
    /// Sets the flash timing to that of a NAND family (Table IV).
    pub fn with_nand(mut self, kind: NandKind) -> Self {
        self.flash = FlashTimingConfig::for_kind(kind);
        self
    }
}

// ---------------------------------------------------------------------------
// OS: scheduling and migration
// ---------------------------------------------------------------------------

/// Thread scheduling policy used by the OS when a context switch is triggered
/// (artifact knob `t_policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Threads take turns in round-robin order.
    RoundRobin,
    /// A runnable thread is chosen uniformly at random.
    Random,
    /// Completely Fair Scheduler: the runnable thread with the smallest
    /// received execution time (vruntime) runs next. SkyByte's default
    /// (§III-A).
    Cfs,
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SchedPolicy::RoundRobin => "RR",
            SchedPolicy::Random => "Random",
            SchedPolicy::Cfs => "CFS",
        };
        f.write_str(s)
    }
}

/// Page-migration (promotion) policy between the SSD and host DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigrationPolicyKind {
    /// SkyByte's adaptive per-page access-count tracking in the SSD controller
    /// (§III-C).
    Adaptive,
    /// TPP-style OS-level periodic sampling of page hotness (§VI-H).
    Tpp,
    /// AstriFlash-style hardware-managed set-associative host-DRAM page cache
    /// with on-demand fills (§VI-H).
    AstriFlash,
    /// No migration at all.
    Disabled,
}

impl fmt::Display for MigrationPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MigrationPolicyKind::Adaptive => "adaptive",
            MigrationPolicyKind::Tpp => "tpp",
            MigrationPolicyKind::AstriFlash => "astriflash",
            MigrationPolicyKind::Disabled => "disabled",
        };
        f.write_str(s)
    }
}

/// Configuration of the adaptive page-migration mechanism (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Which policy selects pages to promote.
    pub policy: MigrationPolicyKind,
    /// Access count above which a page becomes a promotion candidate
    /// (adaptive policy).
    pub hotness_threshold: u32,
    /// Sampling period of the TPP-style policy.
    pub tpp_sample_period: Nanos,
    /// Number of promotions allowed per sampling period for the TPP policy.
    pub tpp_promotions_per_period: u32,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            policy: MigrationPolicyKind::Adaptive,
            hotness_threshold: 32,
            tpp_sample_period: Nanos::from_millis(1),
            tpp_promotions_per_period: 64,
        }
    }
}

// ---------------------------------------------------------------------------
// Design variants
// ---------------------------------------------------------------------------

/// The design points compared in the paper's evaluation (§VI-A and §VI-H).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VariantKind {
    /// State-of-the-art baseline CXL-SSD (page-granular DRAM cache only).
    BaseCssd,
    /// Baseline + coordinated context switch.
    SkyByteC,
    /// Baseline + adaptive page migration.
    SkyByteP,
    /// Baseline + CXL-aware SSD DRAM management (write log + data cache).
    SkyByteW,
    /// Context switch + page migration.
    SkyByteCP,
    /// Write log + page migration.
    SkyByteWP,
    /// Complete SkyByte: write log + page migration + context switch.
    SkyByteFull,
    /// Ideal case: unlimited host DRAM, no SSD accesses.
    DramOnly,
    /// Context switch + TPP software page migration (§VI-H).
    SkyByteCT,
    /// Write log + context switch + TPP software page migration (§VI-H).
    SkyByteWCT,
    /// AstriFlash applied to the baseline CXL-SSD (§VI-H).
    AstriFlashCxl,
}

impl VariantKind {
    /// Every design variant, in declaration order. Keep in sync when adding
    /// a variant — `variant_from_name`-style lookups iterate this list.
    pub const ALL: [VariantKind; 11] = [
        VariantKind::BaseCssd,
        VariantKind::SkyByteC,
        VariantKind::SkyByteP,
        VariantKind::SkyByteW,
        VariantKind::SkyByteCP,
        VariantKind::SkyByteWP,
        VariantKind::SkyByteFull,
        VariantKind::DramOnly,
        VariantKind::SkyByteCT,
        VariantKind::SkyByteWCT,
        VariantKind::AstriFlashCxl,
    ];

    /// The variants of the main ablation (Figure 14), in plot order.
    pub const MAIN_ABLATION: [VariantKind; 8] = [
        VariantKind::BaseCssd,
        VariantKind::SkyByteP,
        VariantKind::SkyByteC,
        VariantKind::SkyByteW,
        VariantKind::SkyByteCP,
        VariantKind::SkyByteWP,
        VariantKind::SkyByteFull,
        VariantKind::DramOnly,
    ];

    /// The variants of the migration-mechanism comparison (Figure 23).
    pub const MIGRATION_COMPARISON: [VariantKind; 6] = [
        VariantKind::SkyByteC,
        VariantKind::AstriFlashCxl,
        VariantKind::SkyByteCT,
        VariantKind::SkyByteCP,
        VariantKind::SkyByteWCT,
        VariantKind::SkyByteFull,
    ];

    /// Whether this variant enables the cacheline-granular write log.
    pub fn write_log(self) -> bool {
        matches!(
            self,
            VariantKind::SkyByteW
                | VariantKind::SkyByteWP
                | VariantKind::SkyByteFull
                | VariantKind::SkyByteWCT
        )
    }

    /// Whether this variant enables device-triggered context switches.
    pub fn context_switch(self) -> bool {
        matches!(
            self,
            VariantKind::SkyByteC
                | VariantKind::SkyByteCP
                | VariantKind::SkyByteFull
                | VariantKind::SkyByteCT
                | VariantKind::SkyByteWCT
                | VariantKind::AstriFlashCxl
        )
    }

    /// The page-migration policy used by this variant.
    pub fn migration_policy(self) -> MigrationPolicyKind {
        match self {
            VariantKind::SkyByteP
            | VariantKind::SkyByteCP
            | VariantKind::SkyByteWP
            | VariantKind::SkyByteFull => MigrationPolicyKind::Adaptive,
            VariantKind::SkyByteCT | VariantKind::SkyByteWCT => MigrationPolicyKind::Tpp,
            VariantKind::AstriFlashCxl => MigrationPolicyKind::AstriFlash,
            VariantKind::BaseCssd
            | VariantKind::SkyByteC
            | VariantKind::SkyByteW
            | VariantKind::DramOnly => MigrationPolicyKind::Disabled,
        }
    }

    /// Whether the workload data lives entirely in host DRAM (ideal case).
    pub fn dram_only(self) -> bool {
        matches!(self, VariantKind::DramOnly)
    }
}

impl fmt::Display for VariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VariantKind::BaseCssd => "Base-CSSD",
            VariantKind::SkyByteC => "SkyByte-C",
            VariantKind::SkyByteP => "SkyByte-P",
            VariantKind::SkyByteW => "SkyByte-W",
            VariantKind::SkyByteCP => "SkyByte-CP",
            VariantKind::SkyByteWP => "SkyByte-WP",
            VariantKind::SkyByteFull => "SkyByte-Full",
            VariantKind::DramOnly => "DRAM-Only",
            VariantKind::SkyByteCT => "SkyByte-CT",
            VariantKind::SkyByteWCT => "SkyByte-WCT",
            VariantKind::AstriFlashCxl => "AstriFlash-CXL",
        };
        f.write_str(s)
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Telemetry capture configuration: a periodic simulated-time metrics
/// sampler plus a span/instant timeline (Chrome trace-event JSON).
///
/// Telemetry is strictly observe-only: enabling it changes no simulated
/// outcome, so a run's fingerprint (`skybyte_sim::runner::RunRequest`)
/// leaves it out and never splits a memoisation table on telemetry settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch. Off by default; when off, the engine allocates no
    /// telemetry state and the hot path pays a single `Option` check.
    pub enabled: bool,
    /// Simulated-time cadence of the periodic metrics sampler (10 µs by
    /// default). Must be nonzero when telemetry is enabled.
    pub sample_interval: Nanos,
    /// Capture span/instant events for the Chrome trace-event timeline in
    /// addition to the periodic metric samples.
    pub timeline: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            sample_interval: Nanos::from_micros(10),
            timeline: true,
        }
    }
}

// ---------------------------------------------------------------------------
// Top-level configuration
// ---------------------------------------------------------------------------

/// Complete simulator configuration (Table II defaults).
///
/// Use [`SimConfig::default`] for the paper's configuration and the artifact
/// knob setters (`with_*`) to customise experiments; call
/// [`SimConfig::validate`] before constructing a simulator.
///
/// # Example
///
/// ```
/// use skybyte_types::{Nanos, SimConfig, VariantKind};
///
/// let mut cfg = SimConfig::default()
///     .with_variant(VariantKind::SkyByteFull)
///     .with_threads(24);
/// cfg.cs_threshold = Nanos::from_micros(2);
/// cfg.validate().unwrap();
/// assert!(cfg.variant.write_log());
/// assert!(cfg.variant.context_switch());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Host CPU configuration.
    pub cpu: CpuConfig,
    /// Host DRAM configuration.
    pub host_dram: HostDramConfig,
    /// CXL-SSD configuration.
    pub ssd: SsdConfig,
    /// Page migration configuration.
    pub migration: MigrationConfig,
    /// Thread scheduling policy (artifact knob `t_policy`).
    pub sched_policy: SchedPolicy,
    /// Number of application threads to run.
    pub threads: u32,
    /// Context-switch trigger threshold (artifact knob `cs_threshold`,
    /// 2 µs in Table II).
    pub cs_threshold: Nanos,
    /// Cost of one context switch on the host CPU (2 µs in Table II).
    pub context_switch_overhead: Nanos,
    /// The named design variant: which of the write log, the coordinated
    /// context switch, page migration and the DRAM-Only placement (artifact
    /// flag `-d`) are on. Set through [`SimConfig::with_variant`].
    pub variant: VariantKind,
    /// Pluggable policy selection (data-cache eviction, hotness tracking,
    /// tenant scheduling), each a kind its owner matches on.
    /// The default reproduces the pre-policy-layer behaviour exactly.
    pub policy: PolicyConfig,
    /// Observe-only telemetry capture (periodic metric sampling and the
    /// Chrome trace-event timeline). Run fingerprints leave it out.
    pub telemetry: TelemetryConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cpu: CpuConfig::default(),
            host_dram: HostDramConfig::default(),
            ssd: SsdConfig::default(),
            migration: MigrationConfig::default(),
            sched_policy: SchedPolicy::Cfs,
            threads: 8,
            cs_threshold: Nanos::from_micros(2),
            context_switch_overhead: Nanos::from_micros(2),
            variant: VariantKind::BaseCssd,
            policy: PolicyConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl SimConfig {
    /// Configures all knobs to match one of the paper's named design variants.
    ///
    /// Sets the variant, its migration policy and its thread count:
    /// context-switch-enabled variants default to 24 threads on 8 cores and
    /// the others to 8 threads, following §VI-A.
    pub fn with_variant(mut self, variant: VariantKind) -> Self {
        self.variant = variant;
        self.migration.policy = variant.migration_policy();
        self.threads = if variant.context_switch() {
            self.cpu.cores * 3
        } else {
            self.cpu.cores
        };
        self
    }

    /// Sets the number of application threads.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the NAND flash family (Table IV) and its timing.
    pub fn with_nand(mut self, kind: NandKind) -> Self {
        self.ssd = self.ssd.with_nand(kind);
        self
    }

    /// Sets the observe-only telemetry capture configuration.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Checks internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated invariant:
    /// zero cores/threads, an empty TLB or SSD data cache, a write log that
    /// does not hold at least one page worth of cachelines, a GC threshold or
    /// write-log index load factor outside `(0, 1]`, zero-latency flash, or
    /// a zero hotness threshold or TPP sampling period.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cpu.cores == 0 {
            return Err(ConfigError::new("cpu.cores must be at least 1"));
        }
        if self.threads == 0 {
            return Err(ConfigError::new("threads must be at least 1"));
        }
        if self.cpu.base_ipc <= 0.0 {
            return Err(ConfigError::new("cpu.base_ipc must be positive"));
        }
        if self.cpu.tlb.entries == 0 {
            return Err(ConfigError::new("cpu.tlb.entries must be at least 1"));
        }
        if self.ssd.geometry.total_pages() == 0 {
            return Err(ConfigError::new("ssd geometry has zero pages"));
        }
        if self.ssd.dram.write_log_bytes < PAGE_SIZE as u64 {
            return Err(ConfigError::new(
                "write log must hold at least one page worth of cachelines",
            ));
        }
        if self.ssd.dram.data_cache_bytes < PAGE_SIZE as u64 {
            return Err(ConfigError::new("data cache must hold at least one page"));
        }
        if !(0.0 < self.ssd.gc_threshold && self.ssd.gc_threshold <= 1.0) {
            return Err(ConfigError::new("gc_threshold must be in (0, 1]"));
        }
        let load_factor = self.ssd.dram.index_resize_load_factor;
        if !(0.0 < load_factor && load_factor <= 1.0) {
            return Err(ConfigError::new(
                "index_resize_load_factor must be in (0, 1]",
            ));
        }
        if !(0.0..0.5).contains(&self.ssd.overprovisioning) {
            return Err(ConfigError::new("overprovisioning must be in [0, 0.5)"));
        }
        if self.ssd.flash.read_latency == Nanos::ZERO
            || self.ssd.flash.program_latency == Nanos::ZERO
        {
            return Err(ConfigError::new("flash latencies must be nonzero"));
        }
        if self.migration.hotness_threshold == 0 {
            return Err(ConfigError::new(
                "migration.hotness_threshold must be at least 1",
            ));
        }
        if self.migration.tpp_sample_period == Nanos::ZERO {
            return Err(ConfigError::new(
                "migration.tpp_sample_period must be nonzero",
            ));
        }
        if self.telemetry.enabled && self.telemetry.sample_interval == Nanos::ZERO {
            return Err(ConfigError::new(
                "telemetry sample interval must be nonzero when telemetry is enabled",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.cpu.cores, 8);
        assert_eq!(cfg.cpu.rob_entries, 256);
        assert_eq!(cfg.ssd.geometry.total_bytes(), 128 * GIB);
        assert_eq!(cfg.ssd.flash.read_latency, Nanos::from_micros(3));
        assert_eq!(cfg.ssd.flash.program_latency, Nanos::from_micros(100));
        assert_eq!(cfg.ssd.flash.erase_latency, Nanos::from_micros(1000));
        assert_eq!(cfg.ssd.cxl_protocol_latency, Nanos::new(40));
        assert_eq!(cfg.ssd.dram.write_log_bytes, 64 * MIB);
        assert_eq!(cfg.ssd.dram.data_cache_bytes, 448 * MIB);
        assert_eq!(cfg.host_dram.promotion_capacity_bytes, 2 * GIB);
        assert_eq!(cfg.cs_threshold, Nanos::from_micros(2));
        assert_eq!(cfg.context_switch_overhead, Nanos::from_micros(2));
        assert_eq!(cfg.sched_policy, SchedPolicy::Cfs);
        assert_eq!(cfg.cpu.tlb.entries, 1536);
        assert_eq!(cfg.cpu.tlb.miss_latency, Nanos::new(30));
        cfg.validate().unwrap();
    }

    #[test]
    fn telemetry_defaults_off() {
        let cfg = SimConfig::default();
        assert!(!cfg.telemetry.enabled);
        assert_eq!(cfg.telemetry.sample_interval, Nanos::from_micros(10));
        let mut on = cfg.with_telemetry(TelemetryConfig {
            enabled: true,
            sample_interval: Nanos::from_micros(1),
            timeline: false,
        });
        on.validate().unwrap();
        // A zero cadence with telemetry enabled is rejected.
        on.telemetry.sample_interval = Nanos::ZERO;
        assert!(on.validate().is_err());
        on.telemetry.enabled = false;
        on.validate().unwrap();
    }

    #[test]
    fn geometry_counts() {
        let g = SsdGeometry::default();
        assert_eq!(g.total_blocks(), 16 * 8 * 8 * 128);
        assert_eq!(g.total_pages(), g.total_blocks() * 256);
        assert_eq!(g.total_bytes(), 128 * GIB);
    }

    #[test]
    fn nand_table4_values() {
        let slc = FlashTimingConfig::for_kind(NandKind::Slc);
        assert_eq!(slc.read_latency, Nanos::from_micros(25));
        assert_eq!(slc.program_latency, Nanos::from_micros(200));
        let mlc = FlashTimingConfig::for_kind(NandKind::Mlc);
        assert_eq!(mlc.read_latency, Nanos::from_micros(50));
        assert_eq!(mlc.erase_latency, Nanos::from_micros(3000));
        let ull2 = FlashTimingConfig::for_kind(NandKind::Ull2);
        assert_eq!(ull2.program_latency, Nanos::from_micros(75));
        assert_eq!(NandKind::ALL.len(), 4);
    }

    #[test]
    fn variant_knobs() {
        assert!(VariantKind::SkyByteFull.write_log());
        assert!(VariantKind::SkyByteFull.context_switch());
        assert_eq!(
            VariantKind::SkyByteFull.migration_policy(),
            MigrationPolicyKind::Adaptive
        );
        assert!(!VariantKind::BaseCssd.write_log());
        assert!(!VariantKind::BaseCssd.context_switch());
        assert_eq!(
            VariantKind::SkyByteCT.migration_policy(),
            MigrationPolicyKind::Tpp
        );
        assert_eq!(
            VariantKind::AstriFlashCxl.migration_policy(),
            MigrationPolicyKind::AstriFlash
        );
        assert!(VariantKind::DramOnly.dram_only());
        assert!(!VariantKind::SkyByteW.context_switch());
        assert!(VariantKind::SkyByteW.write_log());
    }

    #[test]
    fn all_variants_are_listed_once() {
        assert_eq!(VariantKind::ALL.len(), 11);
        for (i, v) in VariantKind::ALL.iter().enumerate() {
            assert!(
                !VariantKind::ALL[i + 1..].contains(v),
                "{v} listed twice in VariantKind::ALL"
            );
        }
        for v in VariantKind::MAIN_ABLATION {
            assert!(VariantKind::ALL.contains(&v));
        }
        for v in VariantKind::MIGRATION_COMPARISON {
            assert!(VariantKind::ALL.contains(&v));
        }
    }

    #[test]
    fn with_variant_sets_thread_count() {
        let full = SimConfig::default().with_variant(VariantKind::SkyByteFull);
        assert_eq!(full.threads, 24);
        assert_eq!(full.variant, VariantKind::SkyByteFull);
        assert_eq!(full.migration.policy, MigrationPolicyKind::Adaptive);
        let wp = SimConfig::default().with_variant(VariantKind::SkyByteWP);
        assert_eq!(wp.threads, 8);
        let dram = SimConfig::default().with_variant(VariantKind::DramOnly);
        assert_eq!(dram.migration.policy, MigrationPolicyKind::Disabled);
    }

    #[test]
    fn builder_setters() {
        let cfg = SimConfig::default()
            .with_threads(16)
            .with_nand(NandKind::Slc);
        assert_eq!(cfg.threads, 16);
        assert_eq!(cfg.ssd.flash.read_latency, Nanos::from_micros(25));
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = SimConfig::default();
        cfg.cpu.cores = 0;
        assert!(cfg.validate().is_err());

        let cfg = SimConfig {
            threads: 0,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::default();
        cfg.ssd.dram.write_log_bytes = 100;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::default();
        cfg.ssd.gc_threshold = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::default();
        cfg.ssd.dram.index_resize_load_factor = 1.125;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::default();
        cfg.cpu.tlb.entries = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::default();
        cfg.migration.hotness_threshold = 0;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("hotness_threshold"), "{err}");

        let mut cfg = SimConfig::default();
        cfg.migration.tpp_sample_period = Nanos::ZERO;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("tpp_sample_period"), "{err}");
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(VariantKind::BaseCssd.to_string(), "Base-CSSD");
        assert_eq!(VariantKind::SkyByteFull.to_string(), "SkyByte-Full");
        assert_eq!(VariantKind::AstriFlashCxl.to_string(), "AstriFlash-CXL");
        assert_eq!(SchedPolicy::Cfs.to_string(), "CFS");
        assert_eq!(NandKind::Ull.to_string(), "ULL");
        assert_eq!(MigrationPolicyKind::Tpp.to_string(), "tpp");
    }

    #[test]
    fn dram_timing_presets() {
        // DDR5-4800 host memory: 8 channels of 32 GiB/s behind ~70 ns.
        let host = HostDramConfig::default();
        assert_eq!(host.access_latency, Nanos::new(70));
        assert_eq!(host.bandwidth_bps, 8 * 32 * GIB);
        // LPDDR4 SSD-internal memory.
        assert_eq!(SsdDramConfig::default().access_latency, Nanos::new(90));
    }

    #[test]
    fn config_serde_round_trip() {
        let cfg = SimConfig::default().with_variant(VariantKind::SkyByteFull);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
