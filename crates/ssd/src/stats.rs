//! Controller-level statistics and per-access timing breakdowns.

use serde::{Deserialize, Serialize};
use skybyte_types::Nanos;

/// Which structure ultimately served (or absorbed) a CXL access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// The cacheline-granular write log (write append or read hit).
    WriteLog,
    /// The page-granular data cache in the SSD DRAM.
    DataCache,
    /// A flash page access was required (SSD DRAM miss).
    Flash,
    /// The page was never written: the controller returns zeroes without
    /// touching flash.
    ZeroFill,
}

/// Per-access latency breakdown inside the SSD, in the components plotted in
/// Figure 17 (the host adds the CXL-protocol and host-DRAM components).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessBreakdown {
    /// Time spent looking up the write-log / data-cache indexes.
    pub indexing: Nanos,
    /// Time spent accessing the SSD-internal DRAM.
    pub ssd_dram: Nanos,
    /// Time spent waiting for flash (queueing + tR/tProg), zero on hits.
    pub flash: Nanos,
}

/// Aggregate counters of the SSD controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SsdStats {
    /// Cacheline reads received over CXL.
    pub reads: u64,
    /// Cacheline writes received over CXL.
    pub writes: u64,
    /// Reads served by the write log.
    pub read_log_hits: u64,
    /// Reads served by the data cache.
    pub read_cache_hits: u64,
    /// Reads that required a flash page fetch.
    pub read_flash_misses: u64,
    /// Reads of never-written pages served as zero-fill.
    pub read_zero_fills: u64,
    /// Writes absorbed by the write log.
    pub write_log_appends: u64,
    /// Writes that hit the data cache (Base-CSSD path, or the parallel W2
    /// update in SkyByte).
    pub write_cache_hits: u64,
    /// Writes that forced a flash page fetch (Base-CSSD read-modify-write).
    pub write_flash_misses: u64,
    /// `SkyByte-Delay` hints sent to the host.
    pub delay_hints: u64,
    /// Log compactions executed.
    pub compactions: u64,
    /// Pages flushed to flash by compaction.
    pub compaction_pages_flushed: u64,
    /// Wall-clock time the device spent compacting: a union-of-windows
    /// measure (overlapping campaigns count their shared span once; a
    /// campaign arriving on a lagging clock entirely inside an
    /// already-covered window contributes nothing), so it is bounded by the
    /// covered wall-clock span and, windowed to the run, by the execution
    /// time — which the conservation audit asserts.
    pub compaction_time: Nanos,
    /// Dirty pages written back on data-cache eviction (Base-CSSD).
    pub eviction_writebacks: u64,
    /// Pages prefetched from flash into the data cache.
    pub prefetches: u64,
    /// Pages removed from the SSD caches because they were promoted to host
    /// DRAM.
    pub pages_promoted: u64,
    /// Gauge: pages the hotness tracker currently holds state for (counters,
    /// pending candidates, promoted marks); 0 before the first access.
    pub tracked_pages: u64,
}
