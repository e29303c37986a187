//! The two-level hash index of the write log (Figure 12 of the paper).
//!
//! The first level is a hash table keyed by logical page address (LPA). Each
//! valid entry points to a second-level hash table that maps the page offset
//! (6 bits, 0..=63) of every logged cacheline of that page to its offset in
//! the log array (26 bits in the paper). Grouping by page makes compaction a
//! single first-level traversal, while lookups stay amortised O(1).
//!
//! To bound memory, second-level tables start with four entries (16 B) and
//! double whenever their load factor exceeds a threshold (0.75 by default),
//! exactly as described in §III-B. [`LogIndex::memory_bytes`] reports the
//! resulting footprint using the paper's entry sizes (16 B per first-level
//! entry, 4 B per second-level slot), which is how we reproduce the "5.6 MB
//! average index footprint" observation.

use skybyte_types::{CachelineIndex, FastHashMap, Lpa, CACHELINES_PER_PAGE};

/// Size of a first-level entry in bytes (8 B LPA + 8 B pointer).
const FIRST_LEVEL_ENTRY_BYTES: u64 = 16;
/// Size of a second-level slot in bytes (6-bit page offset + 26-bit log offset).
const SECOND_LEVEL_SLOT_BYTES: u64 = 4;
/// Initial number of slots in a second-level table.
const SECOND_LEVEL_INITIAL_SLOTS: usize = 4;

/// A second-level table: page offset → log offset, with on-demand doubling.
#[derive(Debug, Clone)]
struct SecondLevelTable {
    /// Allocated slot count (power of two, models the hash-table storage).
    allocated_slots: usize,
    /// Live entries: cacheline offset within the page → offset in the log.
    entries: FastHashMap<CachelineIndex, u32>,
}

impl SecondLevelTable {
    fn new() -> Self {
        SecondLevelTable {
            allocated_slots: SECOND_LEVEL_INITIAL_SLOTS,
            entries: FastHashMap::with_capacity_and_hasher(
                SECOND_LEVEL_INITIAL_SLOTS,
                Default::default(),
            ),
        }
    }

    fn insert(&mut self, cl: CachelineIndex, log_offset: u32, load_factor: f64) {
        self.entries.insert(cl, log_offset);
        while self.entries.len() as f64 > self.allocated_slots as f64 * load_factor
            && self.allocated_slots < CACHELINES_PER_PAGE
        {
            self.allocated_slots = (self.allocated_slots * 2).min(CACHELINES_PER_PAGE);
        }
    }
}

/// The two-level hash index mapping `(LPA, cacheline)` to a log offset.
#[derive(Debug, Clone)]
pub struct LogIndex {
    first_level: FastHashMap<Lpa, SecondLevelTable>,
    load_factor: f64,
}

impl LogIndex {
    /// Creates an empty index with the given second-level resize load factor.
    ///
    /// # Panics
    ///
    /// Panics if `load_factor` is not in `(0, 1]`.
    pub fn new(load_factor: f64) -> Self {
        assert!(
            load_factor > 0.0 && load_factor <= 1.0,
            "load factor must be in (0, 1]"
        );
        LogIndex {
            first_level: FastHashMap::default(),
            load_factor,
        }
    }

    /// Records that the latest copy of `(lpa, cl)` lives at `log_offset`,
    /// replacing any previous record for the same cacheline.
    pub fn insert(&mut self, lpa: Lpa, cl: CachelineIndex, log_offset: u32) {
        debug_assert!((cl as usize) < CACHELINES_PER_PAGE);
        self.first_level
            .entry(lpa)
            .or_insert_with(SecondLevelTable::new)
            .insert(cl, log_offset, self.load_factor);
    }

    /// Log offset of the latest copy of `(lpa, cl)`, if logged.
    pub fn lookup(&self, lpa: Lpa, cl: CachelineIndex) -> Option<u32> {
        self.first_level
            .get(&lpa)
            .and_then(|t| t.entries.get(&cl))
            .copied()
    }

    /// All logged cachelines of `lpa` as `(cacheline, log_offset)` pairs,
    /// sorted by cacheline offset (used when merging the log into a fetched
    /// page and during compaction).
    pub fn page_entries(&self, lpa: Lpa) -> Vec<(CachelineIndex, u32)> {
        let mut v: Vec<(CachelineIndex, u32)> = self
            .first_level
            .get(&lpa)
            .map(|t| t.entries.iter().map(|(&c, &o)| (c, o)).collect())
            .unwrap_or_default();
        v.sort_unstable_by_key(|(c, _)| *c);
        v
    }

    /// Iterates over all tracked pages (first-level traversal, compaction
    /// step L1 of Figure 13).
    pub fn pages(&self) -> impl Iterator<Item = Lpa> + '_ {
        self.first_level.keys().copied()
    }

    /// Removes every entry of `lpa` (used when a page is promoted to host
    /// DRAM and the SSD-side copies must be invalidated).
    pub fn remove_page(&mut self, lpa: Lpa) -> bool {
        self.first_level.remove(&lpa).is_some()
    }

    /// Number of tracked cachelines.
    pub fn cacheline_count(&self) -> usize {
        self.first_level.values().map(|t| t.entries.len()).sum()
    }

    /// Memory footprint of the index structures using the paper's entry
    /// sizes: 16 B per first-level entry plus 4 B per allocated second-level
    /// slot.
    pub fn memory_bytes(&self) -> u64 {
        let first = self.first_level.len() as u64 * FIRST_LEVEL_ENTRY_BYTES;
        let second: u64 = self
            .first_level
            .values()
            .map(|t| t.allocated_slots as u64 * SECOND_LEVEL_SLOT_BYTES)
            .sum();
        first + second
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_replace() {
        let mut idx = LogIndex::new(0.75);
        idx.insert(Lpa::new(1), 3, 100);
        assert_eq!(idx.lookup(Lpa::new(1), 3), Some(100));
        assert_eq!(idx.lookup(Lpa::new(1), 4), None);
        assert_eq!(idx.lookup(Lpa::new(2), 3), None);
        // A newer write to the same cacheline replaces the offset.
        idx.insert(Lpa::new(1), 3, 200);
        assert_eq!(idx.lookup(Lpa::new(1), 3), Some(200));
        assert_eq!(idx.cacheline_count(), 1);
        assert_eq!(idx.first_level.len(), 1);
    }

    #[test]
    fn page_entries_sorted_and_bitmap() {
        let mut idx = LogIndex::new(0.75);
        idx.insert(Lpa::new(7), 9, 1);
        idx.insert(Lpa::new(7), 2, 2);
        idx.insert(Lpa::new(7), 63, 3);
        let entries = idx.page_entries(Lpa::new(7));
        assert_eq!(entries, vec![(2, 2), (9, 1), (63, 3)]);
        assert!(idx.page_entries(Lpa::new(8)).is_empty());
    }

    #[test]
    fn second_level_tables_resize_on_demand() {
        let mut idx = LogIndex::new(0.75);
        // 4 initial slots, load factor 0.75 -> resize after the 4th insert.
        for cl in 0..16u8 {
            idx.insert(Lpa::new(1), cl, cl as u32);
        }
        let table = &idx.first_level[&Lpa::new(1)];
        // At least two doublings from the initial four slots.
        assert!(table.allocated_slots >= 4 * SECOND_LEVEL_INITIAL_SLOTS);
        assert_eq!(idx.cacheline_count(), 16);
    }

    #[test]
    fn memory_accounting_matches_paper_worst_case_reasoning() {
        // One dirty cacheline per page: 16 B first-level + 16 B (4 slots * 4 B)
        // second-level = 32 B per page, the "resized" footprint of §III-B.
        let mut idx = LogIndex::new(0.75);
        for p in 0..1000u64 {
            idx.insert(Lpa::new(p), 0, p as u32);
        }
        assert_eq!(idx.memory_bytes(), 1000 * 32);
        // A fully dirty page allocates all 64 slots: 16 + 256 bytes.
        let mut idx2 = LogIndex::new(0.75);
        for cl in 0..64u8 {
            idx2.insert(Lpa::new(0), cl, cl as u32);
        }
        assert_eq!(idx2.memory_bytes(), 16 + 64 * 4);
    }

    #[test]
    fn remove_page_and_clear() {
        let mut idx = LogIndex::new(0.75);
        idx.insert(Lpa::new(1), 0, 0);
        idx.insert(Lpa::new(2), 0, 1);
        assert!(idx.remove_page(Lpa::new(1)));
        assert!(!idx.remove_page(Lpa::new(1)));
        assert!(!idx.first_level.contains_key(&Lpa::new(1)));
        assert!(idx.first_level.contains_key(&Lpa::new(2)));
        assert!(idx.remove_page(Lpa::new(2)));
        assert!(idx.first_level.is_empty());
        assert_eq!(idx.memory_bytes(), 0);
    }

    #[test]
    fn pages_iterator_covers_all() {
        let mut idx = LogIndex::new(0.75);
        for p in 0..10u64 {
            idx.insert(Lpa::new(p), (p % 64) as u8, p as u32);
        }
        let mut pages: Vec<u64> = idx.pages().map(|l| l.index()).collect();
        pages.sort_unstable();
        assert_eq!(pages, (0..10u64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "load factor")]
    fn rejects_bad_load_factor() {
        let _ = LogIndex::new(0.0);
    }
}
