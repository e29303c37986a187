//! The cacheline-granular, double-buffered write log (Figures 11–13).
//!
//! All host writes are appended to the active log buffer at cacheline
//! granularity; no flash access happens on the write critical path. When the
//! active buffer fills up it is *frozen*, writes continue in a fresh buffer,
//! and the frozen buffer is compacted in the background: its cachelines are
//! coalesced per page and flushed to flash, dropping stale versions.
//!
//! Cacheline payloads are represented by opaque 64-bit *tokens* supplied by
//! the caller (the simulator uses monotonically increasing version numbers);
//! the log machinery guarantees that lookups and compaction always observe
//! the most recently appended token for each cacheline, which is the property
//! the real hardware must provide for data integrity.

use crate::log_index::LogIndex;
use serde::{Deserialize, Serialize};
use skybyte_types::{CachelineIndex, Lpa, CACHELINE_SIZE};

/// Result of appending a write to the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The active log buffer became full with this append; the caller should
    /// start a compaction ([`WriteLog::start_compaction`]).
    pub log_full: bool,
    /// The append had to overwrite-in-place because both buffers are full and
    /// compaction has not finished (back-pressure). The write is still
    /// recorded correctly; the flag exists for statistics.
    pub back_pressure: bool,
}

/// The coalesced flush work produced by freezing one log buffer.
///
/// Each [`PageFlush`] lists the latest logged cachelines of one page. The SSD
/// controller executes the plan (Figure 13): if the page is in the data cache
/// the dirty lines are merged there and the cached page is flushed; otherwise
/// the page is read from flash into the coalescing buffer, merged, and written
/// back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionPlan {
    /// Per-page flush descriptors, sorted by LPA.
    pub pages: Vec<PageFlush>,
}

impl CompactionPlan {
    /// Total number of pages that must be written to flash.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// The latest dirty cachelines of one logical page, to be merged and flushed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageFlush {
    /// The logical page to flush.
    pub lpa: Lpa,
    /// `(cacheline offset, latest token)` pairs, sorted by offset.
    pub cachelines: Vec<(CachelineIndex, u64)>,
}

/// Counters describing write-log activity.
///
/// The entry counters obey a conservation law that the cross-layer audit
/// checks on every run: every append either creates a log entry or
/// overwrites one in place, and every created entry is eventually retired at
/// buffer-freeze time as either *live* (carried into a compaction flush) or
/// *stale* (superseded or invalidated before the freeze) — so
/// `appends - overwrites_in_place == entries_retired_live +
/// entries_retired_stale + resident entries`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteLogStats {
    /// Cacheline writes appended.
    pub appends: u64,
    /// Lookups that found the requested cacheline in the log.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Compactions started.
    pub compactions: u64,
    /// Appends absorbed while both buffers were full (back-pressure).
    pub back_pressure_appends: u64,
    /// Back-pressure appends that updated an existing entry in place instead
    /// of creating a new one (they do not add to the entry population).
    pub overwrites_in_place: u64,
    /// Entries retired at buffer freeze carrying the latest version of their
    /// cacheline (the compaction flush inflow).
    pub entries_retired_live: u64,
    /// Entries retired at buffer freeze that had been superseded by a newer
    /// append or invalidated by a page promotion (dropped without reaching
    /// flash).
    pub entries_retired_stale: u64,
}

/// One log buffer: a bounded append-only array plus its index.
#[derive(Debug, Clone)]
struct LogBuffer {
    /// The token of every cacheline write logged here, in append order. The
    /// index maps each cacheline to the offset of its latest write, so the
    /// entries need not name their cacheline.
    entries: Vec<u64>,
    index: LogIndex,
    capacity: usize,
}

impl LogBuffer {
    fn new(capacity: usize, load_factor: f64) -> Self {
        LogBuffer {
            entries: Vec::new(),
            index: LogIndex::new(load_factor),
            capacity,
        }
    }

    fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    fn append(&mut self, lpa: Lpa, cl: CachelineIndex, token: u64) {
        let offset = self.entries.len() as u32;
        self.entries.push(token);
        self.index.insert(lpa, cl, offset);
    }

    /// Overwrites the latest entry for (lpa, cl) in place; used only under
    /// back-pressure when the buffer is full. Returns whether an existing
    /// entry was overwritten (false: a new entry was appended).
    fn overwrite_or_append(&mut self, lpa: Lpa, cl: CachelineIndex, token: u64) -> bool {
        if let Some(off) = self.index.lookup(lpa, cl) {
            self.entries[off as usize] = token;
            true
        } else {
            self.append(lpa, cl, token);
            false
        }
    }

    fn lookup(&self, lpa: Lpa, cl: CachelineIndex) -> Option<u64> {
        self.index
            .lookup(lpa, cl)
            .map(|off| self.entries[off as usize])
    }

    fn plan(&self) -> CompactionPlan {
        let mut pages: Vec<PageFlush> = Vec::new();
        for lpa in self.index.pages() {
            let cachelines: Vec<(CachelineIndex, u64)> = self
                .index
                .page_entries(lpa)
                .into_iter()
                .map(|(cl, off)| (cl, self.entries[off as usize]))
                .collect();
            pages.push(PageFlush { lpa, cachelines });
        }
        pages.sort_unstable_by_key(|p| p.lpa);
        CompactionPlan { pages }
    }
}

/// The double-buffered, cacheline-granular write log.
///
/// See the crate-level documentation for an example.
#[derive(Debug, Clone)]
pub struct WriteLog {
    active: LogBuffer,
    /// The frozen buffer currently being compacted, if any.
    frozen: Option<LogBuffer>,
    capacity_entries: usize,
    load_factor: f64,
    stats: WriteLogStats,
}

impl WriteLog {
    /// Creates a write log of `size_bytes` total capacity (each of the two
    /// buffers holds `size_bytes / 2 / 64` cacheline entries, so that the two
    /// buffers together never exceed the configured DRAM budget).
    ///
    /// # Panics
    ///
    /// Panics if the log cannot hold at least one cacheline per buffer.
    pub fn new(size_bytes: u64, load_factor: f64) -> Self {
        let per_buffer = (size_bytes / 2 / CACHELINE_SIZE as u64) as usize;
        assert!(per_buffer >= 1, "write log too small: {size_bytes} bytes");
        WriteLog {
            active: LogBuffer::new(per_buffer, load_factor),
            frozen: None,
            capacity_entries: per_buffer,
            load_factor,
            stats: WriteLogStats::default(),
        }
    }

    /// Appends a cacheline write (W1/W3 of Figure 11). Returns whether the
    /// active buffer just became full.
    pub fn append(&mut self, lpa: Lpa, cl: CachelineIndex, token: u64) -> AppendOutcome {
        self.stats.appends += 1;
        if self.active.is_full() {
            if self.frozen.is_some() {
                // Compaction of the other buffer has not finished: absorb the
                // write in place (models the request stalling briefly).
                self.stats.back_pressure_appends += 1;
                if self.active.overwrite_or_append(lpa, cl, token) {
                    self.stats.overwrites_in_place += 1;
                }
                return AppendOutcome {
                    log_full: true,
                    back_pressure: true,
                };
            }
            // Caller should have started a compaction; be forgiving and
            // freeze now.
            self.freeze_active();
            self.active.append(lpa, cl, token);
            return AppendOutcome {
                log_full: false,
                back_pressure: false,
            };
        }
        self.active.append(lpa, cl, token);
        AppendOutcome {
            log_full: self.active.is_full(),
            back_pressure: false,
        }
    }

    /// Latest logged token for `(lpa, cl)`, searching the active buffer first
    /// and then the frozen buffer (R2 of Figure 11: reads during compaction
    /// must consult both logs).
    pub fn lookup(&mut self, lpa: Lpa, cl: CachelineIndex) -> Option<u64> {
        let result = self
            .active
            .lookup(lpa, cl)
            .or_else(|| self.frozen.as_ref().and_then(|f| f.lookup(lpa, cl)));
        if result.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        result
    }

    /// Whether a frozen buffer is being compacted.
    pub fn compaction_in_progress(&self) -> bool {
        self.frozen.is_some()
    }

    /// Freezes the active buffer and returns the coalesced flush plan
    /// (steps L1/L4 of Figure 13). Incoming writes are directed to a fresh
    /// buffer. Returns `None` if a compaction is already in progress or the
    /// log is empty.
    pub fn start_compaction(&mut self) -> Option<CompactionPlan> {
        if self.frozen.is_some() || self.active.entries.is_empty() {
            return None;
        }
        self.freeze_active();
        self.stats.compactions += 1;
        Some(self.frozen.as_ref().expect("frozen set").plan())
    }

    /// Discards the frozen buffer after its plan has been flushed to flash
    /// (end of Figure 13): its index is dropped and the memory reclaimed.
    pub fn finish_compaction(&mut self) {
        self.frozen = None;
    }

    /// Removes every logged cacheline of `lpa` from both buffers (used when a
    /// page is promoted to host DRAM and the SSD-side index entries are set
    /// to NULL, §III-C).
    pub fn invalidate_page(&mut self, lpa: Lpa) {
        self.active.index.remove_page(lpa);
        if let Some(f) = &mut self.frozen {
            f.index.remove_page(lpa);
        }
    }

    /// Capacity of one buffer, in entries.
    pub fn capacity(&self) -> usize {
        self.capacity_entries
    }

    /// Memory used by the index structures of both buffers (paper §III-B
    /// footprint accounting).
    pub fn index_memory_bytes(&self) -> u64 {
        self.active.index.memory_bytes()
            + self.frozen.as_ref().map_or(0, |f| f.index.memory_bytes())
    }

    /// Activity counters.
    pub fn stats(&self) -> &WriteLogStats {
        &self.stats
    }

    /// Number of log entries currently held in the active buffer (including
    /// superseded versions that have not been frozen away yet). Frozen
    /// entries are excluded: they were already classified live/stale when
    /// their buffer froze.
    pub fn resident_entries(&self) -> u64 {
        self.active.entries.len() as u64
    }

    fn freeze_active(&mut self) {
        // Classify every entry of the freezing buffer for the conservation
        // accounting: entries still indexed carry the latest version of their
        // cacheline (live); the rest were superseded or invalidated (stale).
        let live = self.active.index.cacheline_count() as u64;
        self.stats.entries_retired_live += live;
        self.stats.entries_retired_stale += self.active.entries.len() as u64 - live;
        let fresh = LogBuffer::new(self.capacity_entries, self.load_factor);
        self.frozen = Some(std::mem::replace(&mut self.active, fresh));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_log() -> WriteLog {
        // 2 KiB => 16 entries per buffer.
        WriteLog::new(2048, 0.75)
    }

    /// Latest logged token without recording hit/miss statistics.
    fn peek(log: &WriteLog, lpa: Lpa, cl: CachelineIndex) -> Option<u64> {
        log.active
            .lookup(lpa, cl)
            .or_else(|| log.frozen.as_ref().and_then(|f| f.lookup(lpa, cl)))
    }

    /// Distinct dirty cachelines across all pages of a plan.
    fn plan_cachelines(plan: &CompactionPlan) -> usize {
        plan.pages.iter().map(|p| p.cachelines.len()).sum()
    }

    #[test]
    fn append_then_lookup() {
        let mut log = small_log();
        log.append(Lpa::new(1), 2, 0xAA);
        log.append(Lpa::new(1), 3, 0xBB);
        assert_eq!(log.lookup(Lpa::new(1), 2), Some(0xAA));
        assert_eq!(log.lookup(Lpa::new(1), 3), Some(0xBB));
        assert_eq!(log.lookup(Lpa::new(1), 4), None);
        assert_eq!(log.lookup(Lpa::new(2), 2), None);
        assert_eq!(log.stats().hits, 2);
        assert_eq!(log.stats().misses, 2);
        assert_eq!(log.active.index.page_entries(Lpa::new(1)).len(), 2);
        assert!(log.active.index.page_entries(Lpa::new(2)).is_empty());
    }

    #[test]
    fn newest_write_wins() {
        let mut log = small_log();
        log.append(Lpa::new(5), 0, 1);
        log.append(Lpa::new(5), 0, 2);
        log.append(Lpa::new(5), 0, 3);
        assert_eq!(log.lookup(Lpa::new(5), 0), Some(3));
    }

    #[test]
    fn compaction_coalesces_writes() {
        let mut log = small_log();
        // 3 writes to the same cacheline + 2 to others.
        log.append(Lpa::new(1), 0, 1);
        log.append(Lpa::new(1), 0, 2);
        log.append(Lpa::new(1), 0, 3);
        log.append(Lpa::new(1), 5, 10);
        log.append(Lpa::new(2), 7, 20);
        let plan = log.start_compaction().expect("plan");
        assert_eq!(plan.page_count(), 2);
        assert_eq!(plan_cachelines(&plan), 3);
        assert_eq!(log.stats().entries_retired_stale, 2);
        let p1 = &plan.pages[0];
        assert_eq!(p1.lpa, Lpa::new(1));
        assert_eq!(p1.cachelines, vec![(0, 3), (5, 10)]);
        assert_eq!(plan.pages[1].cachelines, vec![(7, 20)]);
    }

    #[test]
    fn reads_see_frozen_buffer_during_compaction() {
        let mut log = small_log();
        log.append(Lpa::new(9), 1, 111);
        let _plan = log.start_compaction().unwrap();
        assert!(log.compaction_in_progress());
        // The active buffer is now empty but lookups still find the data.
        assert_eq!(log.lookup(Lpa::new(9), 1), Some(111));
        // New writes go to the new active buffer and take precedence.
        log.append(Lpa::new(9), 1, 222);
        assert_eq!(log.lookup(Lpa::new(9), 1), Some(222));
        log.finish_compaction();
        assert!(!log.compaction_in_progress());
        assert_eq!(log.lookup(Lpa::new(9), 1), Some(222));
    }

    #[test]
    fn log_full_signals_and_double_buffering() {
        let mut log = small_log();
        let cap = log.capacity();
        let mut saw_full = false;
        for i in 0..cap as u64 {
            let out = log.append(Lpa::new(i), 0, i);
            saw_full |= out.log_full;
        }
        assert!(saw_full, "append must signal when the buffer fills");
        assert!(log.active.is_full() && !log.compaction_in_progress());
        let plan = log.start_compaction().unwrap();
        assert_eq!(plan.page_count(), cap);
        // While compacting, we can keep appending into the fresh buffer.
        let out = log.append(Lpa::new(999), 0, 7);
        assert!(!out.back_pressure);
        assert_eq!(log.resident_entries(), 1);
    }

    #[test]
    fn back_pressure_when_both_buffers_full() {
        let mut log = small_log();
        let cap = log.capacity() as u64;
        for i in 0..cap {
            log.append(Lpa::new(i), 0, i);
        }
        let _plan = log.start_compaction().unwrap();
        for i in 0..cap {
            log.append(Lpa::new(1000 + i), 0, i);
        }
        // Both buffers are now full and compaction has not finished.
        let out = log.append(Lpa::new(2000), 0, 42);
        assert!(out.back_pressure);
        assert_eq!(peek(&log, Lpa::new(2000), 0), Some(42));
        assert!(log.stats().back_pressure_appends >= 1);
    }

    #[test]
    fn invalidate_page_removes_entries() {
        let mut log = small_log();
        log.append(Lpa::new(3), 1, 1);
        log.append(Lpa::new(4), 1, 2);
        log.invalidate_page(Lpa::new(3));
        assert_eq!(peek(&log, Lpa::new(3), 1), None);
        assert_eq!(peek(&log, Lpa::new(4), 1), Some(2));
    }

    #[test]
    fn utilisation_and_index_memory() {
        let mut log = small_log();
        assert_eq!(log.resident_entries(), 0);
        log.append(Lpa::new(1), 1, 1);
        assert!(log.index_memory_bytes() >= 32);
        assert_eq!(log.resident_entries(), 1);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_tiny_log() {
        let _ = WriteLog::new(64, 0.75);
    }

    /// The conservation law the cross-layer audit checks:
    /// `appends - overwrites_in_place == retired_live + retired_stale +
    /// resident`.
    fn assert_conserved(log: &WriteLog) {
        let s = log.stats();
        assert_eq!(
            s.appends - s.overwrites_in_place,
            s.entries_retired_live + s.entries_retired_stale + log.resident_entries(),
            "write-log entry conservation violated: {s:?}, resident {}",
            log.resident_entries()
        );
    }

    #[test]
    fn entry_conservation_across_compactions_and_invalidations() {
        let mut log = small_log(); // 16 entries per buffer
                                   // Superseded writes become stale at freeze time.
        log.append(Lpa::new(1), 0, 1);
        log.append(Lpa::new(1), 0, 2);
        log.append(Lpa::new(2), 3, 3);
        // Invalidated pages become stale too.
        log.append(Lpa::new(9), 5, 4);
        log.invalidate_page(Lpa::new(9));
        assert_conserved(&log);
        let plan = log.start_compaction().unwrap();
        assert_eq!(log.stats().entries_retired_live, 2);
        assert_eq!(log.stats().entries_retired_stale, 2);
        assert_eq!(
            plan_cachelines(&plan) as u64,
            log.stats().entries_retired_live
        );
        assert_conserved(&log);
        log.finish_compaction();
        // New writes land in the fresh buffer and stay resident.
        log.append(Lpa::new(5), 1, 5);
        assert_eq!(log.resident_entries(), 1);
        assert_conserved(&log);
    }

    #[test]
    fn back_pressure_overwrites_do_not_create_entries() {
        let mut log = small_log();
        let cap = log.capacity() as u64;
        for i in 0..cap {
            log.append(Lpa::new(i), 0, i);
        }
        let _plan = log.start_compaction().unwrap();
        for i in 0..cap {
            log.append(Lpa::new(1000 + i), 0, i);
        }
        // Both buffers full: an overwrite of an existing entry is in-place…
        log.append(Lpa::new(1000), 0, 42);
        assert_eq!(log.stats().overwrites_in_place, 1);
        // …while a back-pressure append of a fresh cacheline creates one.
        log.append(Lpa::new(2000), 0, 43);
        assert_eq!(log.stats().overwrites_in_place, 1);
        assert!(log.stats().back_pressure_appends >= 2);
        assert_conserved(&log);
    }

    proptest! {
        /// Entry conservation holds for arbitrary append/compact/invalidate
        /// interleavings.
        #[test]
        fn prop_entry_conservation(ops in proptest::collection::vec((0u64..12, 0u8..4, 0u8..16), 1..250)) {
            let mut log = WriteLog::new(2048, 0.75); // 16 entries/buffer
            for (i, (page, cl, action)) in ops.iter().enumerate() {
                match action % 8 {
                    6 => { log.invalidate_page(Lpa::new(*page)); }
                    7 => {
                        if log.compaction_in_progress() {
                            log.finish_compaction();
                        } else {
                            let _ = log.start_compaction();
                        }
                    }
                    _ => { let _ = log.append(Lpa::new(*page), *cl, i as u64); }
                }
                assert_conserved(&log);
            }
        }
    }

    proptest! {
        /// The log always returns the token of the most recent append for any
        /// (page, cacheline), across compaction boundaries.
        #[test]
        fn prop_latest_token_wins(ops in proptest::collection::vec((0u64..8, 0u8..8, 0u64..1_000_000), 1..200)) {
            let mut log = WriteLog::new(4096, 0.75); // 32 entries/buffer
            let mut model: std::collections::HashMap<(u64, u8), u64> = Default::default();
            for (i, (page, cl, token)) in ops.iter().enumerate() {
                let out = log.append(Lpa::new(*page), *cl, *token);
                model.insert((*page, *cl), *token);
                if out.log_full && !log.compaction_in_progress() {
                    // Start and immediately finish a compaction occasionally.
                    if i % 2 == 0 {
                        let _ = log.start_compaction();
                        log.finish_compaction();
                        // After finishing, entries of the frozen buffer are gone;
                        // drop them from the model only if they were not re-written —
                        // the semantics is that they are now on flash. For this
                        // property we only check entries still present in the log.
                        model.retain(|(p, c), _| peek(&log, Lpa::new(*p), *c).is_some());
                    }
                }
            }
            for ((page, cl), token) in &model {
                prop_assert_eq!(peek(&log, Lpa::new(*page), *cl), Some(*token));
            }
        }

        /// A compaction plan contains exactly one entry per distinct dirty
        /// cacheline, carrying the latest token.
        #[test]
        fn prop_compaction_plan_is_exact(ops in proptest::collection::vec((0u64..4, 0u8..16, 0u64..1_000), 1..64)) {
            let mut log = WriteLog::new(2 * 64 * 64, 0.75); // 64 entries/buffer >= ops
            let mut model: std::collections::HashMap<(u64, u8), u64> = Default::default();
            for (page, cl, token) in &ops {
                log.append(Lpa::new(*page), *cl, *token);
                model.insert((*page, *cl), *token);
            }
            let plan = log.start_compaction().unwrap();
            let mut from_plan: std::collections::HashMap<(u64, u8), u64> = Default::default();
            for p in &plan.pages {
                for (cl, token) in &p.cachelines {
                    from_plan.insert((p.lpa.index(), *cl), *token);
                }
            }
            prop_assert_eq!(&from_plan, &model);
            prop_assert_eq!(log.stats().entries_retired_stale as usize, ops.len() - model.len());
        }
    }
}
