//! Virtual memory: page table and TLB.
//!
//! The whole CXL-SSD is mapped into the system physical address space as
//! host-managed device memory. The OS page table records, for every virtual
//! page of the workload, whether it currently lives in host DRAM (because it
//! was promoted) or in the CXL-SSD. Page migration updates the PTE and
//! invalidates the TLB entry, triggering a TLB shootdown on every core
//! (modelled as a fixed cost counted by the simulator).

use serde::{Deserialize, Serialize};
use skybyte_types::{FastHashMap, Lpa, Nanos, PageNumber};
use std::collections::VecDeque;

/// Where a virtual page currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PagePlacement {
    /// The page has been promoted to host DRAM at the given host page.
    HostDram(PageNumber),
    /// The page lives in the CXL-SSD at the given logical page address.
    CxlSsd(Lpa),
}

/// The OS page table for the simulated workload address space.
///
/// By default every virtual page is identity-mapped into the CXL-SSD
/// (virtual page *n* → LPA *n*), which models the paper's setup where "all
/// data are initially stored in CXL-SSD". Promotions and demotions update
/// individual entries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PageTable {
    overrides: FastHashMap<PageNumber, PagePlacement>,
}

impl PageTable {
    /// Creates a page table with the default all-in-SSD identity mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Translates a virtual page to its current placement.
    pub fn translate(&self, vpage: PageNumber) -> PagePlacement {
        // Variants that never migrate (Base-CSSD) keep the override map
        // empty for the whole run; skip hashing into it on that path.
        if self.overrides.is_empty() {
            return PagePlacement::CxlSsd(Lpa::new(vpage.index()));
        }
        self.overrides
            .get(&vpage)
            .copied()
            .unwrap_or(PagePlacement::CxlSsd(Lpa::new(vpage.index())))
    }

    /// Points a virtual page at a host DRAM page (promotion). Returns the
    /// previous placement.
    pub fn promote(&mut self, vpage: PageNumber, host_page: PageNumber) -> PagePlacement {
        let old = self.translate(vpage);
        self.overrides
            .insert(vpage, PagePlacement::HostDram(host_page));
        old
    }

    /// Points a virtual page back at the CXL-SSD (demotion/eviction). Returns
    /// the previous placement.
    pub fn demote(&mut self, vpage: PageNumber, lpa: Lpa) -> PagePlacement {
        let old = self.translate(vpage);
        self.overrides.insert(vpage, PagePlacement::CxlSsd(lpa));
        old
    }
}

/// A fully-associative LRU TLB with shootdowns.
///
/// Recency is a strict total order (`tick` increments on every access), so
/// LRU selection does not depend on storage order. Entries map page →
/// last-access tick, and recency is tracked with a lazy-deletion access log:
/// every access appends `(tick, page)` to a deque, and eviction pops from
/// the front, skipping records whose tick no longer matches the page's
/// current tick (the page was re-accessed or shot down since). The log is
/// compacted whenever stale records outnumber live ones, so both access and
/// eviction are amortised O(1) — where the previous flat `Vec` paid an O(n)
/// scan on every access. The observable hit/miss/eviction behaviour is
/// identical.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tlb {
    capacity: usize,
    entries: FastHashMap<PageNumber, u64>,
    access_log: VecDeque<(u64, PageNumber)>,
    tick: u64,
    miss_penalty: Nanos,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries and the given page-walk penalty
    /// charged on each miss.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, miss_penalty: Nanos) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            capacity,
            entries: FastHashMap::with_capacity_and_hasher(capacity, Default::default()),
            access_log: VecDeque::with_capacity(capacity),
            tick: 0,
            miss_penalty,
        }
    }

    /// Looks up a virtual page, filling the TLB on a miss. Returns the
    /// latency contributed by translation (zero on a hit, the walk penalty on
    /// a miss).
    pub fn access(&mut self, vpage: PageNumber) -> Nanos {
        self.tick += 1;
        let tick = self.tick;
        self.maybe_compact_log();
        if let Some(t) = self.entries.get_mut(&vpage) {
            *t = tick;
            self.access_log.push_back((tick, vpage));
            return Nanos::ZERO;
        }
        if self.entries.len() >= self.capacity {
            // Pop log records until one still names a page's most recent
            // access; that page is the true LRU victim.
            loop {
                let (t, victim) = self.access_log.pop_front().expect("log covers all entries");
                if self.entries.get(&victim) == Some(&t) {
                    self.entries.remove(&victim);
                    break;
                }
            }
        }
        self.entries.insert(vpage, tick);
        self.access_log.push_back((tick, vpage));
        self.miss_penalty
    }

    /// Drops stale access-log records once they outnumber live entries, so
    /// the log stays O(capacity) without changing which records survive.
    fn maybe_compact_log(&mut self) {
        if self.access_log.len() >= 2 * self.entries.len().max(self.capacity) {
            let entries = &self.entries;
            self.access_log
                .retain(|&(t, page)| entries.get(&page) == Some(&t));
        }
    }

    /// Invalidates the entry for `vpage` (TLB shootdown after a migration).
    /// Returns `true` if an entry was present.
    pub fn shootdown(&mut self, vpage: PageNumber) -> bool {
        // The page's log records become stale and are skipped (or compacted)
        // lazily.
        self.entries.remove(&vpage).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn promoted_pages(pt: &PageTable) -> usize {
        pt.overrides
            .values()
            .filter(|p| matches!(p, PagePlacement::HostDram(_)))
            .count()
    }

    #[test]
    fn default_mapping_is_identity_into_ssd() {
        let pt = PageTable::new();
        assert_eq!(
            pt.translate(PageNumber(42)),
            PagePlacement::CxlSsd(Lpa::new(42))
        );
        assert!(!matches!(
            pt.translate(PageNumber(42)),
            PagePlacement::HostDram(_)
        ));
        assert_eq!(promoted_pages(&pt), 0);
    }

    #[test]
    fn promote_and_demote_update_counts() {
        let mut pt = PageTable::new();
        let old = pt.promote(PageNumber(1), PageNumber(1000));
        assert_eq!(old, PagePlacement::CxlSsd(Lpa::new(1)));
        assert_eq!(
            pt.translate(PageNumber(1)),
            PagePlacement::HostDram(PageNumber(1000))
        );
        assert_eq!(promoted_pages(&pt), 1);
        // Promoting an already-promoted page does not double count.
        pt.promote(PageNumber(1), PageNumber(1001));
        assert_eq!(promoted_pages(&pt), 1);
        let old = pt.demote(PageNumber(1), Lpa::new(1));
        assert!(matches!(old, PagePlacement::HostDram(_)));
        assert_eq!(promoted_pages(&pt), 0);
    }

    #[test]
    fn tlb_hit_miss_and_lru() {
        let mut tlb = Tlb::new(2, Nanos::new(100));
        assert_eq!(tlb.access(PageNumber(1)), Nanos::new(100));
        assert_eq!(tlb.access(PageNumber(1)), Nanos::ZERO);
        tlb.access(PageNumber(2));
        // Touch 1 so 2 is LRU, then insert 3: 2 evicted.
        tlb.access(PageNumber(1));
        tlb.access(PageNumber(3));
        assert!(tlb.entries.contains_key(&PageNumber(1)));
        assert!(!tlb.entries.contains_key(&PageNumber(2)));
        assert_eq!(tlb.access(PageNumber(2)), Nanos::new(100));
    }

    #[test]
    fn tlb_shootdown_invalidates() {
        let mut tlb = Tlb::new(4, Nanos::new(50));
        tlb.access(PageNumber(9));
        assert!(tlb.shootdown(PageNumber(9)));
        assert!(!tlb.shootdown(PageNumber(9)));
        assert_eq!(tlb.access(PageNumber(9)), Nanos::new(50));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn tlb_rejects_zero_capacity() {
        let _ = Tlb::new(0, Nanos::ZERO);
    }
}
