//! The CXL-SSD controller: request handling, compaction, GC coordination and
//! promotion support.

use crate::hotness::HotnessTracker;
use crate::stats::{AccessBreakdown, ServedBy, SsdStats};
use skybyte_cache::{DataCache, DataCacheStats, WriteLog, WriteLogStats};
use skybyte_flash::{FlashArray, FlashStats};
use skybyte_ftl::{Ftl, FtlStats};
use skybyte_types::{CachelineIndex, Lpa, Nanos, SimConfig};

/// Result of one cacheline access handled by the SSD controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdAccessOutcome {
    /// Time at which the data is ready in the SSD DRAM (reads) or the write
    /// has been durably accepted by the controller.
    pub ready_at: Nanos,
    /// Which structure served the access.
    pub served_by: ServedBy,
    /// Whether the controller answers with the `SkyByte-Delay` NDR opcode
    /// instead of making the host wait. The OS then wakes the thread at
    /// `ready_at`: the controller has already queued the flash fill when it
    /// answers, so that is the fill's scheduled completion.
    pub delay_hint: bool,
    /// Device-side latency breakdown (Figure 17 components). `ready_at` is
    /// the arrival time plus its three components.
    pub breakdown: AccessBreakdown,
}

/// Page fetches in flight: each page's `(page, time it lands in DRAM)`,
/// at most one record per page. Few fills are live at once, so a flat
/// vector beats a hash table whose `retain` walks every bucket it ever
/// grew.
#[derive(Debug, Clone)]
struct InflightFills {
    fills: Vec<(Lpa, Nanos)>,
    /// Lower bound on the earliest completion in `fills` (`Nanos::MAX` when
    /// empty). Lets `retire` skip the pass when no fill can have completed
    /// yet; a stale-low bound only costs a no-op pass, never a missed
    /// retirement.
    earliest: Nanos,
}

impl InflightFills {
    fn new() -> Self {
        InflightFills {
            fills: Vec::new(),
            earliest: Nanos::MAX,
        }
    }

    /// Drops the fills that landed by `now`, recomputing the earliest
    /// completion in the same pass.
    fn retire(&mut self, now: Nanos) {
        if self.earliest > now {
            return;
        }
        let mut earliest = Nanos::MAX;
        self.fills.retain(|&(_, ready)| {
            let live = ready > now;
            if live {
                earliest = earliest.min(ready);
            }
            live
        });
        self.earliest = earliest;
    }

    /// The index of the record of `lpa`: a fill in flight, or one that
    /// landed and is not retired yet.
    fn position(&self, lpa: Lpa) -> Option<usize> {
        self.fills.iter().position(|&(l, _)| l == lpa)
    }

    /// Records a fill of `lpa` landing at `ready`: over the page's record at
    /// `slot` (a re-fetch), or as a new record.
    fn record(&mut self, slot: Option<usize>, lpa: Lpa, ready: Nanos) {
        match slot {
            Some(i) => self.fills[i].1 = ready,
            None => self.fills.push((lpa, ready)),
        }
        self.earliest = self.earliest.min(ready);
    }
}

/// The device-side half of SkyByte.
///
/// See the crate-level documentation for an example and the paper's Figure 11
/// for the read (R1–R3) and write (W1–W3) paths implemented here.
#[derive(Debug, Clone)]
pub struct SsdController {
    flash: FlashArray,
    ftl: Ftl,
    write_log: Option<WriteLog>,
    data_cache: DataCache,
    hotness: HotnessTracker,

    /// Whether the variant answers slow reads with `SkyByte-Delay` hints.
    context_switch: bool,
    /// Algorithm 1's latency threshold: a flash fetch estimated to take
    /// longer is answered with a hint (2 µs in Table II, tunable per
    /// Figure 9).
    cs_threshold: Nanos,
    dram_latency: Nanos,
    log_index_latency: Nanos,
    cache_index_latency: Nanos,
    logical_pages: u64,

    /// Page fetches currently in flight.
    inflight_fills: InflightFills,
    /// Time at which the currently running log compaction finishes.
    compaction_active_until: Nanos,
    /// Monotonic version counter used as the write-log payload token.
    write_token: u64,
    stats: SsdStats,
}

impl SsdController {
    /// Builds a controller from the simulator configuration. The write log is
    /// instantiated only when the variant has one (SkyByte-W and derived
    /// variants); otherwise the controller behaves as the Base-CSSD
    /// page-granular design.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SimConfig::validate`]).
    pub fn new(cfg: &SimConfig) -> Self {
        cfg.validate().expect("invalid simulator configuration");
        let ssd = &cfg.ssd;
        let write_log = if cfg.variant.write_log() {
            Some(WriteLog::new(
                ssd.dram.write_log_bytes,
                ssd.dram.index_resize_load_factor,
            ))
        } else {
            None
        };
        // When the write log is disabled its DRAM budget goes to the data
        // cache so every variant uses the same total SSD DRAM (§VI-A).
        let cache_bytes = if write_log.is_some() {
            ssd.dram.data_cache_bytes
        } else {
            ssd.dram.data_cache_bytes + ssd.dram.write_log_bytes
        };
        let logical_pages =
            (ssd.geometry.total_pages() as f64 * (1.0 - ssd.overprovisioning)) as u64;
        SsdController {
            flash: FlashArray::new(ssd.geometry, ssd.flash),
            ftl: Ftl::new(ssd),
            write_log,
            data_cache: DataCache::with_policies(
                cache_bytes,
                ssd.dram.data_cache_ways,
                cfg.policy.eviction,
            ),
            hotness: HotnessTracker::new(cfg.policy.hotness, cfg.migration.hotness_threshold),
            context_switch: cfg.variant.context_switch(),
            cs_threshold: cfg.cs_threshold,
            dram_latency: ssd.dram.access_latency,
            log_index_latency: ssd.dram.write_log_index_latency,
            cache_index_latency: ssd.dram.data_cache_index_latency,
            logical_pages,
            inflight_fills: InflightFills::new(),
            compaction_active_until: Nanos::ZERO,
            write_token: 0,
            stats: SsdStats::default(),
        }
    }

    /// Number of logical pages the device exposes over CXL (raw capacity
    /// minus over-provisioning).
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Handles a cacheline read arriving at the controller at `now`
    /// (R1/R2/R3 of Figure 11).
    pub fn handle_read(&mut self, lpa: Lpa, cl: CachelineIndex, now: Nanos) -> SsdAccessOutcome {
        self.stats.reads += 1;
        self.hotness.record_access(lpa);
        self.lazy_tick(now);

        let index_latency = self.read_index_latency();
        let t_indexed = now + index_latency;

        // R2: the write log holds the newest copy of a logged cacheline.
        if let Some(log) = &mut self.write_log {
            if log.lookup(lpa, cl).is_some() {
                self.stats.read_log_hits += 1;
                return self.outcome(now, index_latency, Nanos::ZERO, ServedBy::WriteLog);
            }
        }

        // R1: data-cache hit.
        if self.data_cache.access(lpa, cl) {
            self.stats.read_cache_hits += 1;
            return self.outcome(now, index_latency, Nanos::ZERO, ServedBy::DataCache);
        }

        // Never-written pages are served as zeroes straight from DRAM.
        if !self.ftl.is_mapped(lpa) {
            self.stats.read_zero_fills += 1;
            self.insert_page_into_cache(lpa, t_indexed);
            return self.outcome(now, index_latency, Nanos::ZERO, ServedBy::ZeroFill);
        }

        // R3: flash fetch required.
        self.stats.read_flash_misses += 1;
        let (flash_ready, delay_hint) = self.fill_from_flash(lpa, now, t_indexed);
        self.data_cache.access(lpa, cl);
        self.maybe_prefetch(lpa, flash_ready);
        let flash = flash_ready.since(t_indexed);
        SsdAccessOutcome {
            delay_hint,
            ..self.outcome(now, index_latency, flash, ServedBy::Flash)
        }
    }

    /// Handles a cacheline write arriving at the controller at `now`
    /// (W1/W2/W3 of Figure 11 when the write log is enabled; page-granular
    /// read-modify-write otherwise).
    pub fn handle_write(&mut self, lpa: Lpa, cl: CachelineIndex, now: Nanos) -> SsdAccessOutcome {
        self.stats.writes += 1;
        self.hotness.record_access(lpa);
        self.lazy_tick(now);

        if self.write_log.is_some() {
            return self.handle_logged_write(lpa, cl, now);
        }
        self.handle_page_granular_write(lpa, cl, now)
    }

    /// SkyByte write path: append to the log, update the cached copy in
    /// parallel, never touch flash on the critical path.
    fn handle_logged_write(
        &mut self,
        lpa: Lpa,
        cl: CachelineIndex,
        now: Nanos,
    ) -> SsdAccessOutcome {
        self.write_token += 1;
        let token = self.write_token;
        let log = self.write_log.as_mut().expect("write log enabled");
        let outcome = log.append(lpa, cl, token);
        self.stats.write_log_appends += 1;

        // W2: parallel update of the cached copy (keeps reads through the
        // cache coherent without marking the page dirty — the log owns the
        // dirty data, so evictions stay clean).
        if self.data_cache.access(lpa, cl) {
            self.stats.write_cache_hits += 1;
        }

        if outcome.log_full {
            self.execute_compaction(now);
        }
        self.outcome(now, self.log_index_latency, Nanos::ZERO, ServedBy::WriteLog)
    }

    /// Base-CSSD write path: the DRAM cache is page-granular, so a write miss
    /// fetches the page from flash before the cacheline can be merged
    /// (read-modify-write), and dirty pages are written back in full on
    /// eviction.
    fn handle_page_granular_write(
        &mut self,
        lpa: Lpa,
        cl: CachelineIndex,
        now: Nanos,
    ) -> SsdAccessOutcome {
        let index_latency = self.cache_index_latency;
        let t_indexed = now + index_latency;

        if self.data_cache.access(lpa, cl) {
            self.data_cache.mark_dirty(lpa, cl);
            self.stats.write_cache_hits += 1;
            return self.outcome(now, index_latency, Nanos::ZERO, ServedBy::DataCache);
        }

        if !self.ftl.is_mapped(lpa) {
            // First touch of the page: materialise it in the cache.
            self.insert_page_into_cache(lpa, t_indexed);
            self.data_cache.mark_dirty(lpa, cl);
            return self.outcome(now, index_latency, Nanos::ZERO, ServedBy::ZeroFill);
        }

        self.stats.write_flash_misses += 1;
        let (flash_ready, delay_hint) = self.fill_from_flash(lpa, now, t_indexed);
        self.data_cache.mark_dirty(lpa, cl);
        let flash = flash_ready.since(t_indexed);
        SsdAccessOutcome {
            delay_hint,
            ..self.outcome(now, index_latency, flash, ServedBy::Flash)
        }
    }

    /// Removes a page from the SSD caches because it has been promoted to
    /// host DRAM (§III-C): the data-cache entry is dropped and the write-log
    /// index entries are invalidated.
    pub fn promote_page(&mut self, lpa: Lpa) {
        self.data_cache.remove(lpa);
        if let Some(log) = &mut self.write_log {
            log.invalidate_page(lpa);
        }
        self.hotness.mark_promoted(lpa);
        self.stats.pages_promoted += 1;
    }

    /// Accepts a page evicted from host DRAM back into the SSD: the page is
    /// written through the FTL and re-inserted clean into the data cache.
    /// Returns the completion time of the flash program.
    pub fn demote_page(&mut self, lpa: Lpa, now: Nanos) -> Nanos {
        self.hotness.mark_demoted(lpa);
        let outcome = self.ftl.write_page(lpa, now, &mut self.flash);
        self.insert_page_into_cache(lpa, now);
        outcome.completes_at
    }

    /// Next promotion candidate that is still resident in the data cache, if
    /// any (adaptive policy of §III-C).
    pub fn promotion_candidate(&mut self) -> Option<Lpa> {
        let cache = &self.data_cache;
        self.hotness.take_candidate(|lpa| cache.contains(lpa))
    }

    /// Whether a log compaction is running at `now`.
    pub fn compaction_active(&self, now: Nanos) -> bool {
        now < self.compaction_active_until
    }

    /// Time at which the most recently scheduled log compaction finishes.
    pub fn compaction_active_until(&self) -> Nanos {
        self.compaction_active_until
    }

    /// Pre-populates the FTL mapping with the given logical pages (§VI-A
    /// preconditioning).
    pub fn precondition<I: IntoIterator<Item = Lpa>>(&mut self, lpas: I) {
        self.ftl.precondition(lpas);
    }

    /// Controller statistics, with the [`SsdStats::tracked_pages`] gauge
    /// read from the hotness tracker now.
    pub fn stats(&self) -> SsdStats {
        SsdStats {
            tracked_pages: self.hotness.tracked_pages(),
            ..self.stats
        }
    }

    /// Flash traffic statistics (Figure 18 / Figure 20).
    pub fn flash_stats(&self) -> &FlashStats {
        self.flash.stats()
    }

    /// FTL statistics (write amplification, GC).
    pub fn ftl_stats(&self) -> &FtlStats {
        self.ftl.stats()
    }

    /// Write-log statistics, if the log is enabled.
    pub fn write_log_stats(&self) -> Option<&WriteLogStats> {
        self.write_log.as_ref().map(|l| l.stats())
    }

    /// Memory footprint of the write-log index, if the log is enabled.
    pub fn write_log_index_bytes(&self) -> Option<u64> {
        self.write_log.as_ref().map(|l| l.index_memory_bytes())
    }

    /// Data-cache statistics.
    pub fn data_cache_stats(&self) -> &DataCacheStats {
        self.data_cache.stats()
    }

    /// Aggregate flash busy time attributable to the window `[0, horizon]`:
    /// service committed to a still-draining backlog beyond `horizon` is
    /// excluded, so the result is bounded by `horizon × channels` and the
    /// derived bandwidth-utilisation ratio needs no clamp.
    pub fn flash_busy_time_within(&self, horizon: Nanos) -> Nanos {
        self.flash.busy_time_within(horizon)
    }

    /// Compaction busy time attributable to the window `[0, horizon]`. The
    /// union-of-windows measure in [`SsdStats::compaction_time`] can extend
    /// past `horizon` when the last campaign is still running; the final
    /// window is contiguous, so the overhang past the horizon is exactly
    /// `compaction_active_until - horizon`.
    pub fn compaction_time_within(&self, horizon: Nanos) -> Nanos {
        let overhang = self.compaction_active_until.saturating_sub(horizon);
        self.stats.compaction_time.saturating_sub(overhang)
    }

    /// Number of entries resident in the write log's active buffer, if the
    /// log is enabled (input to the audit's entry-conservation invariant).
    pub fn write_log_resident_entries(&self) -> Option<u64> {
        self.write_log.as_ref().map(|l| l.resident_entries())
    }

    /// Write-log occupancy as `(entries, capacity)`, if the log is enabled.
    /// A read-only telemetry probe of the active buffer's fill state.
    pub fn write_log_occupancy(&self) -> Option<(u64, u64)> {
        self.write_log
            .as_ref()
            .map(|l| (l.resident_entries(), l.capacity() as u64))
    }

    /// Number of on-demand cache fills currently in flight (issued to flash
    /// but not yet landed in the data cache). A read-only telemetry probe.
    pub fn inflight_fill_count(&self) -> usize {
        self.inflight_fills.fills.len()
    }

    /// Per-channel flash queue depths, indexed by channel. A read-only
    /// telemetry probe (see [`FlashArray::channel_depths`]).
    pub fn channel_depths(&self) -> Vec<usize> {
        self.flash.channel_depths()
    }

    /// Flushes all dirty state to flash: in page-granular mode every dirty
    /// page in the data cache is written back; in write-log mode the active
    /// log buffer is compacted. Used at the end of a measurement run so the
    /// write traffic of the two designs is compared on equal footing.
    /// Returns the completion time of the last flush.
    pub fn flush_all(&mut self, now: Nanos) -> Nanos {
        self.lazy_tick(now);
        let mut finish = now;
        if self.write_log.is_some() {
            self.execute_compaction(now);
            finish = finish.max(self.compaction_active_until);
        }
        let dirty: Vec<Lpa> = self
            .data_cache
            .cached_pages()
            .into_iter()
            .filter(|lpa| self.data_cache.dirty_bitmap(*lpa).unwrap_or(0) != 0)
            .collect();
        for lpa in dirty {
            self.data_cache.clean(lpa);
            self.stats.eviction_writebacks += 1;
            let outcome = self.ftl.write_page(lpa, now, &mut self.flash);
            finish = finish.max(outcome.completes_at);
        }
        finish
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn read_index_latency(&self) -> Nanos {
        if self.write_log.is_some() {
            // Parallel lookup of both indexes: the slower one dominates.
            self.log_index_latency.max(self.cache_index_latency)
        } else {
            self.cache_index_latency
        }
    }

    /// The outcome of an access that arrives at `now`, spends `indexing`
    /// in the indexes and `flash` waiting for a fill, then makes one SSD-DRAM
    /// access. Every outcome is built here, so `ready_at` always equals
    /// `now` plus the breakdown.
    fn outcome(
        &self,
        now: Nanos,
        indexing: Nanos,
        flash: Nanos,
        served_by: ServedBy,
    ) -> SsdAccessOutcome {
        SsdAccessOutcome {
            ready_at: now + indexing + flash + self.dram_latency,
            served_by,
            delay_hint: false,
            breakdown: AccessBreakdown {
                indexing,
                ssd_dram: self.dram_latency,
                flash,
            },
        }
    }

    /// Algorithm 1 (`shd_ctx_swtc`) for a flash fetch of `lpa` arriving at
    /// `now`: translate the address (line 2), read the queue counters of its
    /// channel (lines 3–4) and estimate the delay as
    /// `read_lat*(nr+1) + write_lat*nw + erase_lat*ne` (lines 5–6). A fetch
    /// estimated above the threshold, or blocked by an ongoing GC campaign
    /// (§III-A), is answered with `SkyByte-Delay` when the variant context
    /// switches. Callers ask only for mapped pages: an unmapped one is a
    /// zero-fill from DRAM.
    fn delay_hint(&self, lpa: Lpa, now: Nanos) -> bool {
        self.context_switch
            && (self.ftl.gc_active(now)
                || self
                    .ftl
                    .translate(lpa)
                    .is_some_and(|ppa| self.flash.estimate_read_latency(ppa) > self.cs_threshold))
    }

    /// The flash half of a read miss (R3) or of a Base-CSSD write miss:
    /// decides the hint on the queues as the request finds them, fetches the
    /// mapped page and inserts it into the data cache. Returns when the page
    /// lands in SSD DRAM, and whether to answer with `SkyByte-Delay`.
    fn fill_from_flash(&mut self, lpa: Lpa, now: Nanos, t_indexed: Nanos) -> (Nanos, bool) {
        let delay_hint = self.delay_hint(lpa, now);
        if delay_hint {
            self.stats.delay_hints += 1;
        }
        let flash_ready = self.fetch_page(lpa, t_indexed);
        self.insert_page_into_cache(lpa, flash_ready);
        (flash_ready, delay_hint)
    }

    /// Housekeeping performed at the start of every request: retire finished
    /// flash commands and recycle finished compactions / page fills.
    fn lazy_tick(&mut self, now: Nanos) {
        self.flash.retire_completed(now);
        self.inflight_fills.retire(now);
        if self.compaction_active_until <= now {
            if let Some(log) = &mut self.write_log {
                if log.compaction_in_progress() {
                    log.finish_compaction();
                }
            }
        }
    }

    /// Fetches a mapped page from flash, merging with an in-flight fill of
    /// the same page (controller MSHR behaviour). Returns the time the page
    /// is in SSD DRAM.
    fn fetch_page(&mut self, lpa: Lpa, now: Nanos) -> Nanos {
        // One scan finds the fill to merge with, or the landed one a
        // re-fetch overwrites.
        let slot = self.inflight_fills.position(lpa);
        if let Some(i) = slot {
            let ready = self.inflight_fills.fills[i].1;
            if ready > now {
                return ready;
            }
        }
        let ready = self.ftl.read_page(lpa, now, &mut self.flash).unwrap_or(now);
        self.inflight_fills.record(slot, lpa, ready);
        ready
    }

    /// Inserts a page into the data cache, handling dirty evictions
    /// (page-granular writeback in Base-CSSD mode) and merging any logged
    /// cachelines so the cached copy is up to date (R3 of Figure 11).
    fn insert_page_into_cache(&mut self, lpa: Lpa, at: Nanos) {
        if let Some(evicted) = self.data_cache.insert(lpa) {
            if evicted.is_dirty() {
                // Page-granular writeback of the whole page.
                self.stats.eviction_writebacks += 1;
                self.ftl.write_page(evicted.lpa, at, &mut self.flash);
            }
        }
        // State-wise merge of logged cachelines into the cached page: the log
        // remains authoritative, so nothing further to track here.
    }

    /// Simple next-page prefetcher (one of the Base-CSSD optimisations the
    /// paper's baseline incorporates).
    fn maybe_prefetch(&mut self, lpa: Lpa, at: Nanos) {
        let next = Lpa::new(lpa.index() + 1);
        if next.index() >= self.logical_pages
            || self.data_cache.contains(next)
            || self.inflight_fills.position(next).is_some()
            || !self.ftl.is_mapped(next)
        {
            return;
        }
        if let Some(ready) = self.ftl.read_page(next, at, &mut self.flash) {
            self.inflight_fills.record(None, next, ready);
            self.insert_page_into_cache(next, ready);
            self.stats.prefetches += 1;
        }
    }

    /// Freezes the active log buffer and flushes the coalesced pages to flash
    /// in the background (Figure 13).
    fn execute_compaction(&mut self, now: Nanos) {
        let plan = match self.write_log.as_mut().and_then(|l| l.start_compaction()) {
            Some(p) => p,
            None => return,
        };
        self.stats.compactions += 1;
        self.stats.compaction_pages_flushed += plan.page_count() as u64;
        let mut finish = now;
        for flush in &plan.pages {
            let lpa = flush.lpa;
            let write_start = if self.data_cache.contains(lpa) {
                // L2: the cached copy already holds the merged data.
                self.data_cache.clean(lpa);
                now
            } else if self.ftl.is_mapped(lpa) {
                // L3/L4: load the page into the coalescing buffer and merge.
                self.ftl.read_page(lpa, now, &mut self.flash).unwrap_or(now)
            } else {
                // First write of this page: nothing to merge.
                now
            };
            // L5: write the merged page back, striped by the FTL allocator.
            let outcome = self.ftl.write_page(lpa, write_start, &mut self.flash);
            finish = finish.max(outcome.completes_at);
            if let Some(gc) = outcome.gc {
                finish = finish.max(gc);
            }
        }
        // Account only the *non-overlapping extension* of the device's
        // compaction-busy window, so overlapping campaigns never count the
        // busy time `compaction_active_until` already covers twice. The
        // result is the measure of the union of all campaign windows when
        // campaigns start in nondecreasing order, and a conservative lower
        // bound otherwise (a campaign whose whole window falls inside a gap
        // *before* `compaction_active_until` — possible because per-core
        // clocks are not globally monotone — contributes nothing rather
        // than double-counting). Either way the total never exceeds the
        // covered wall-clock span, which is what the conservation audit
        // bounds by the execution time.
        let busy_from = now.max(self.compaction_active_until);
        if finish > busy_from {
            self.stats.compaction_time += finish.since(busy_from);
        }
        self.compaction_active_until = self.compaction_active_until.max(finish);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_flash::FlashCommandKind;
    use skybyte_types::{Ppa, SsdGeometry, VariantKind, MIB};

    fn small_cfg(variant: VariantKind) -> SimConfig {
        let mut cfg = SimConfig::default().with_variant(variant);
        cfg.ssd.geometry = SsdGeometry {
            channels: 4,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 32,
            pages_per_block: 32,
        };
        cfg.ssd.dram.data_cache_bytes = MIB;
        cfg.ssd.dram.write_log_bytes = 64 * 1024;
        cfg
    }

    #[test]
    fn skybyte_write_never_touches_flash_on_critical_path() {
        let cfg = small_cfg(VariantKind::SkyByteW);
        let mut ssd = SsdController::new(&cfg);
        let out = ssd.handle_write(Lpa::new(1), 0, Nanos::ZERO);
        assert_eq!(out.served_by, ServedBy::WriteLog);
        assert!(out.ready_at < Nanos::from_micros(1));
        assert_eq!(out.breakdown.flash, Nanos::ZERO);
        assert_eq!(ssd.flash_stats().pages_programmed, 0);
        assert_eq!(ssd.stats().write_log_appends, 1);
    }

    #[test]
    fn base_cssd_write_miss_fetches_page_from_flash() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        // Map the page first so the miss needs a real flash read.
        ssd.precondition([Lpa::new(1)]);
        let out = ssd.handle_write(Lpa::new(1), 0, Nanos::ZERO);
        assert_eq!(out.served_by, ServedBy::Flash);
        assert!(out.ready_at >= Nanos::from_micros(3));
        assert_eq!(ssd.stats().write_flash_misses, 1);
        // The second write to the same page hits the now-cached page.
        let out2 = ssd.handle_write(Lpa::new(1), 1, out.ready_at);
        assert_eq!(out2.served_by, ServedBy::DataCache);
    }

    #[test]
    fn read_after_logged_write_hits_the_log() {
        let cfg = small_cfg(VariantKind::SkyByteW);
        let mut ssd = SsdController::new(&cfg);
        ssd.handle_write(Lpa::new(5), 7, Nanos::ZERO);
        let r = ssd.handle_read(Lpa::new(5), 7, Nanos::new(500));
        assert_eq!(r.served_by, ServedBy::WriteLog);
        assert_eq!(ssd.stats().read_log_hits, 1);
        // A different cacheline of the same (unmapped) page is zero-filled.
        let r2 = ssd.handle_read(Lpa::new(5), 8, Nanos::new(1000));
        assert_eq!(r2.served_by, ServedBy::ZeroFill);
    }

    #[test]
    fn read_miss_of_mapped_page_goes_to_flash_and_caches() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition([Lpa::new(9)]);
        let r = ssd.handle_read(Lpa::new(9), 0, Nanos::ZERO);
        assert_eq!(r.served_by, ServedBy::Flash);
        assert!(r.breakdown.flash >= Nanos::from_micros(3));
        assert!(r.ready_at >= Nanos::from_micros(3));
        // Second read hits the data cache.
        let r2 = ssd.handle_read(Lpa::new(9), 1, r.ready_at);
        assert_eq!(r2.served_by, ServedBy::DataCache);
        assert_eq!(ssd.stats().read_cache_hits, 1);
    }

    #[test]
    fn delay_hint_only_when_enabled_and_slow() {
        // Context switching disabled: no hints even on flash misses.
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition([Lpa::new(1)]);
        let out = ssd.handle_read(Lpa::new(1), 0, Nanos::ZERO);
        assert!(!out.delay_hint);
        assert_eq!(ssd.stats().delay_hints, 0);

        // Context switching enabled: tR (3 µs) > threshold (2 µs) → hint.
        let cfg = small_cfg(VariantKind::SkyByteC);
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition([Lpa::new(1)]);
        let out = ssd.handle_read(Lpa::new(1), 0, Nanos::ZERO);
        assert!(out.delay_hint);
        assert!(out.ready_at >= Nanos::from_micros(3));
        assert_eq!(ssd.stats().delay_hints, 1);

        // SSD-DRAM hits never send hints.
        let out2 = ssd.handle_read(Lpa::new(1), 0, Nanos::from_millis(1));
        assert!(!out2.delay_hint);
    }

    #[test]
    fn compaction_coalesces_and_reduces_flash_writes() {
        let mut cfg = small_cfg(VariantKind::SkyByteW);
        // Tiny log: 8 KiB → 64 entries per buffer.
        cfg.ssd.dram.write_log_bytes = 8 * 1024;
        let mut ssd = SsdController::new(&cfg);
        let mut now = Nanos::ZERO;
        // 256 writes, all to the same 4 pages: heavy coalescing.
        for i in 0..256u64 {
            ssd.handle_write(Lpa::new(i % 4), (i % 64) as u8, now);
            now += Nanos::new(100);
        }
        // Allow background work to be accounted.
        ssd.handle_read(Lpa::new(0), 0, now + Nanos::from_millis(10));
        let flash_writes = ssd.flash_stats().pages_programmed;
        assert!(ssd.stats().compactions >= 1, "log never compacted");
        assert!(
            flash_writes < 256,
            "compaction must coalesce: {flash_writes} programs for 256 writes"
        );
        assert!(ssd.stats().compaction_pages_flushed >= 4);
        assert!(ssd.stats().compaction_time > Nanos::ZERO);
    }

    #[test]
    fn overlapping_compactions_are_not_double_counted() {
        // Requests reach the controller with per-core clocks, so a second
        // compaction can start at a timestamp *inside* the window the first
        // one already occupies. The busy-time accounting must count the
        // overlap once (the union of the windows), not once per campaign.
        let mut cfg = small_cfg(VariantKind::SkyByteW);
        cfg.ssd.dram.write_log_bytes = 8 * 1024; // 64 entries per buffer
        let mut ssd = SsdController::new(&cfg);
        // Campaign 1: fill the buffer with early-clock writes.
        for i in 0..64u64 {
            ssd.handle_write(Lpa::new(i % 16), (i % 64) as u8, Nanos::new(50 * i));
        }
        assert_eq!(ssd.stats().compactions, 1);
        let first_until = ssd.compaction_active_until();
        assert!(first_until > Nanos::from_micros(50));
        // A late-clock access retires campaign 1's frozen buffer.
        ssd.handle_read(Lpa::new(0), 0, first_until + Nanos::from_millis(10));
        // Campaign 2: an early-clock core fills the buffer again, starting a
        // compaction at a time the first window still covers.
        let overlap_start = Nanos::from_micros(5);
        for i in 0..64u64 {
            ssd.handle_write(Lpa::new(32 + i), 0, overlap_start);
        }
        assert_eq!(ssd.stats().compactions, 2, "need an overlapping campaign");
        // The busy-time union can never exceed the union span bound — with
        // the old per-campaign accounting the overlapping windows summed to
        // more than the covered wall-clock span.
        let span = ssd.compaction_active_until();
        assert!(
            ssd.stats().compaction_time <= span,
            "compaction busy time {} exceeds the union span bound {}",
            ssd.stats().compaction_time,
            span
        );
        assert!(ssd.stats().compaction_time > Nanos::ZERO);
    }

    #[test]
    fn windowed_compaction_time_is_bounded_by_the_horizon() {
        let mut cfg = small_cfg(VariantKind::SkyByteW);
        cfg.ssd.dram.write_log_bytes = 8 * 1024;
        let mut ssd = SsdController::new(&cfg);
        let mut now = Nanos::ZERO;
        for i in 0..128u64 {
            ssd.handle_write(Lpa::new(i % 8), (i % 64) as u8, now);
            now += Nanos::new(50);
        }
        assert!(ssd.stats().compactions >= 1);
        // The last campaign extends past `now`; the windowed view excludes
        // the part beyond the horizon.
        assert!(ssd.compaction_time_within(now) <= now);
        let far = Nanos::from_millis(1_000);
        assert_eq!(ssd.compaction_time_within(far), ssd.stats().compaction_time);
    }

    #[test]
    fn windowed_flash_busy_time_is_bounded_by_channel_capacity() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition((0..64).map(Lpa::new));
        let mut now = Nanos::ZERO;
        for i in 0..64u64 {
            let out = ssd.handle_read(Lpa::new(i), 0, now);
            now = now.max(out.ready_at / 2); // keep submissions dense
            now += Nanos::new(200);
        }
        let horizon = now;
        let channels = cfg.ssd.geometry.channels as u64;
        assert!(ssd.flash_busy_time_within(horizon) <= horizon * channels);
    }

    #[test]
    fn base_cssd_dirty_evictions_write_whole_pages() {
        let mut cfg = small_cfg(VariantKind::BaseCssd);
        // Cache of 4 pages so evictions happen quickly.
        cfg.ssd.dram.data_cache_bytes = 4 * 4096;
        cfg.ssd.dram.write_log_bytes = 4096; // unused (log disabled)
        let mut ssd = SsdController::new(&cfg);
        let mut now = Nanos::ZERO;
        for i in 0..64u64 {
            ssd.handle_write(Lpa::new(i), 0, now);
            now += Nanos::from_micros(1);
        }
        assert!(
            ssd.stats().eviction_writebacks > 0,
            "dirty pages must be written back on eviction"
        );
        assert!(ssd.flash_stats().pages_programmed > 0);
    }

    #[test]
    fn promotion_removes_page_and_demotion_restores_it() {
        let mut cfg = small_cfg(VariantKind::SkyByteFull);
        cfg.migration.hotness_threshold = 2;
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition([Lpa::new(3)]);
        let mut now = Nanos::ZERO;
        for _ in 0..3 {
            let out = ssd.handle_read(Lpa::new(3), 0, now);
            now = out.ready_at + Nanos::new(100);
        }
        let candidate = ssd.promotion_candidate();
        assert_eq!(candidate, Some(Lpa::new(3)));
        ssd.promote_page(Lpa::new(3));
        assert_eq!(ssd.stats().pages_promoted, 1);
        // After promotion the SSD no longer nominates the page.
        assert_eq!(ssd.promotion_candidate(), None);
        // Demotion programs the page back to flash.
        let done = ssd.demote_page(Lpa::new(3), now);
        assert!(done > now);
        assert_eq!(ssd.hotness.tracked_pages(), 0);
    }

    #[test]
    fn zero_fill_reads_do_not_touch_flash() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        let out = ssd.handle_read(Lpa::new(1234), 0, Nanos::ZERO);
        assert_eq!(out.served_by, ServedBy::ZeroFill);
        assert_eq!(ssd.flash_stats().pages_read, 0);
        assert_eq!(ssd.stats().read_zero_fills, 1);
    }

    #[test]
    fn inflight_fill_merging_avoids_duplicate_flash_reads() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition([Lpa::new(7), Lpa::new(8)]);
        let a = ssd.handle_read(Lpa::new(7), 0, Nanos::ZERO);
        let reads_after_first = ssd.flash_stats().pages_read;
        // Second access to the same missing page before the fill completes.
        let b = ssd.handle_read(Lpa::new(7), 1, Nanos::new(100));
        // The page fill is shared; no additional *demand* read is issued for
        // the same page (prefetches may add reads for other pages).
        assert!(b.ready_at <= a.ready_at + ssd_dram(&cfg));
        assert!(ssd.flash_stats().pages_read <= reads_after_first + 1);
    }

    fn ssd_dram(cfg: &SimConfig) -> Nanos {
        cfg.ssd.dram.access_latency
    }

    /// A context-switching controller with Algorithm 1's threshold at
    /// `threshold` and page 1 mapped; returns it with page 1's location.
    fn switching(threshold: Nanos) -> (SsdController, Ppa) {
        let mut cfg = small_cfg(VariantKind::SkyByteC);
        cfg.cs_threshold = threshold;
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition([Lpa::new(1)]);
        let ppa = ssd.ftl.translate(Lpa::new(1)).unwrap();
        (ssd, ppa)
    }

    #[test]
    fn idle_channel_triggers_when_read_exceeds_threshold() {
        let (ssd, ppa) = switching(Nanos::from_micros(2));
        // tR = 3 µs > 2 µs threshold: even an idle channel triggers, which is
        // why the paper sets the threshold below the flash read latency.
        assert_eq!(ssd.flash.estimate_read_latency(ppa), Nanos::from_micros(3));
        assert!(!ssd.ftl.gc_active(Nanos::ZERO));
        assert!(ssd.delay_hint(Lpa::new(1), Nanos::ZERO));
    }

    #[test]
    fn high_threshold_suppresses_trigger() {
        let (ssd, _) = switching(Nanos::from_micros(80));
        assert!(!ssd.delay_hint(Lpa::new(1), Nanos::ZERO));
    }

    #[test]
    fn queued_work_raises_estimate() {
        let (mut ssd, ppa) = switching(Nanos::from_micros(80));
        // Queue two programs and an erase on the page's channel.
        for kind in [
            FlashCommandKind::Program,
            FlashCommandKind::Program,
            FlashCommandKind::Erase,
        ] {
            ssd.flash.submit(kind, ppa, Nanos::ZERO);
        }
        // 2 queued programs + 1 erase + the new read.
        assert_eq!(
            ssd.flash.estimate_read_latency(ppa),
            Nanos::from_micros(1203)
        );
        assert!(ssd.delay_hint(Lpa::new(1), Nanos::ZERO));
    }

    #[test]
    fn logical_capacity_respects_overprovisioning() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let ssd = SsdController::new(&cfg);
        let raw = cfg.ssd.geometry.total_pages();
        assert!(ssd.logical_pages() < raw);
        assert!(ssd.logical_pages() > raw * 9 / 10 - 1);
    }

    /// Reference model for [`InflightFills`]: an LPA → ready map, retired
    /// by `retain` and a second pass for the minimum.
    struct ReferenceFills {
        map: skybyte_types::FastHashMap<Lpa, Nanos>,
        earliest: Nanos,
    }

    impl ReferenceFills {
        fn retire(&mut self, now: Nanos) {
            if self.earliest <= now {
                self.map.retain(|_, ready| *ready > now);
                self.earliest = self.map.values().min().copied().unwrap_or(Nanos::MAX);
            }
        }

        fn pending(&self, lpa: Lpa, now: Nanos) -> Option<Nanos> {
            self.map.get(&lpa).copied().filter(|&ready| ready > now)
        }

        fn insert(&mut self, lpa: Lpa, ready: Nanos) {
            self.map.insert(lpa, ready);
            self.earliest = self.earliest.min(ready);
        }
    }

    #[test]
    fn inflight_fills_match_the_reference_model_on_random_sequences() {
        for seed in 1..=64u64 {
            let mut rng = crate::TestRng::new(seed);
            let mut below = |n: u64| rng.below(n);
            let mut fills = InflightFills::new();
            let mut reference = ReferenceFills {
                map: Default::default(),
                earliest: Nanos::MAX,
            };
            let mut now = Nanos::ZERO;
            for step in 0..2000 {
                let what = format!("seed {seed} step {step}");
                let lpa = Lpa::new(below(24));
                match below(4) {
                    // A request: retire, then fetch (merge or re-fetch), as
                    // `lazy_tick` and `fetch_page` do.
                    0 | 1 => {
                        fills.retire(now);
                        reference.retire(now);
                        assert_eq!(fills.earliest, reference.earliest, "{what}");
                        let at = now + Nanos::new(below(3));
                        let slot = fills.position(lpa);
                        let merged = slot.map(|i| fills.fills[i].1).filter(|&r| r > at);
                        assert_eq!(merged, reference.pending(lpa, at), "{what}");
                        if merged.is_none() {
                            let ready = at + Nanos::new(below(40));
                            fills.record(slot, lpa, ready);
                            reference.insert(lpa, ready);
                        }
                    }
                    // A prefetch: skipped when the page has any record.
                    2 => {
                        let skip = fills.position(lpa).is_some();
                        assert_eq!(skip, reference.map.contains_key(&lpa), "{what}");
                        if !skip {
                            let ready = now + Nanos::new(below(40));
                            fills.record(None, lpa, ready);
                            reference.insert(lpa, ready);
                        }
                    }
                    _ => now += Nanos::new(below(8)),
                }
                assert_eq!(fills.fills.len(), reference.map.len(), "{what}");
                assert_eq!(fills.earliest, reference.earliest, "{what}");
            }
        }
    }
}
