//! Virtual memory: page table and TLB.
//!
//! The whole CXL-SSD is mapped into the system physical address space as
//! host-managed device memory. The OS page table records, for every virtual
//! page of the workload, whether it currently lives in host DRAM (because it
//! was promoted) or in the CXL-SSD. Page migration updates the PTE and
//! invalidates the TLB entry, triggering a TLB shootdown on every core
//! (modelled as a fixed cost counted by the simulator).

use skybyte_types::{FastHashMap, Lpa, Nanos, PageNumber};

/// Where a virtual page currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Default)]
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

/// Marks an empty link or an unmapped page in the [`Tlb`]'s slot arrays.
const NIL: u32 = u32::MAX;

/// One TLB entry: its page and its neighbours in the recency list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: PageNumber,
    /// The next more recently used slot (`NIL` at the head).
    newer: u32,
    /// The next less recently used slot (`NIL` at the tail).
    older: u32,
}

/// A fully-associative LRU TLB with shootdowns.
///
/// The live entries sit in `capacity` slots threaded on an intrusive
/// recency list, most recent at the head. A page-indexed array, grown to
/// the highest page seen, names each page's slot, so a lookup is one array
/// read and a hit one relink. A miss on a full TLB reuses the tail slot:
/// the victim is the least recently accessed live entry. A shootdown
/// unlinks the page's slot and frees it for the next miss.
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    /// Slot of each page's live entry (`NIL` when the page has none).
    slot_of: Vec<u32>,
    slots: Vec<Slot>,
    /// Slots freed by shootdowns.
    free: Vec<u32>,
    head: u32,
    tail: u32,
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
            slot_of: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            miss_penalty,
        }
    }

    /// Looks up a virtual page, filling the TLB on a miss. Returns the
    /// latency contributed by translation (zero on a hit, the walk penalty on
    /// a miss).
    pub fn access(&mut self, vpage: PageNumber) -> Nanos {
        let page = vpage.index() as usize;
        if let Some(&slot) = self.slot_of.get(page) {
            if slot != NIL {
                if slot != self.head {
                    self.unlink(slot);
                    self.push_head(slot);
                }
                return Nanos::ZERO;
            }
        } else {
            self.slot_of.resize(page + 1, NIL);
        }
        let slot = if self.slots.len() - self.free.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let evicted = self.slots[victim as usize].page;
            self.slot_of[evicted.index() as usize] = NIL;
            victim
        } else if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.slots.push(Slot {
                page: vpage,
                newer: NIL,
                older: NIL,
            });
            (self.slots.len() - 1) as u32
        };
        self.slots[slot as usize].page = vpage;
        self.slot_of[page] = slot;
        self.push_head(slot);
        self.miss_penalty
    }

    /// Invalidates the entry for `vpage` (TLB shootdown after a migration).
    /// Returns `true` if an entry was present.
    pub fn shootdown(&mut self, vpage: PageNumber) -> bool {
        let page = vpage.index() as usize;
        match self.slot_of.get(page) {
            Some(&slot) if slot != NIL => {
                self.unlink(slot);
                self.slot_of[page] = NIL;
                self.free.push(slot);
                true
            }
            _ => false,
        }
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Slot { newer, older, .. } = self.slots[slot as usize];
        match newer {
            NIL => self.head = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    /// Links `slot` in as the most recently used entry.
    fn push_head(&mut self, slot: u32) {
        let old_head = self.head;
        let s = &mut self.slots[slot as usize];
        s.newer = NIL;
        s.older = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.slots[h as usize].newer = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

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
        assert_ne!(tlb.slot_of[1], NIL);
        assert_eq!(tlb.slot_of[2], NIL);
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

    /// Reference model for the slot-indexed [`Tlb`]: a page →
    /// last-access-tick map with a lazy-deletion access log, the victim
    /// being the entry with the oldest tick.
    struct ReferenceTlb {
        capacity: usize,
        entries: FastHashMap<PageNumber, u64>,
        access_log: VecDeque<(u64, PageNumber)>,
        tick: u64,
    }

    impl ReferenceTlb {
        fn new(capacity: usize) -> Self {
            ReferenceTlb {
                capacity,
                entries: FastHashMap::default(),
                access_log: VecDeque::new(),
                tick: 0,
            }
        }

        /// Whether the access hit.
        fn access(&mut self, vpage: PageNumber) -> bool {
            self.tick += 1;
            let tick = self.tick;
            if self.access_log.len() >= 2 * self.entries.len().max(self.capacity) {
                let entries = &self.entries;
                self.access_log
                    .retain(|&(t, page)| entries.get(&page) == Some(&t));
            }
            if let Some(t) = self.entries.get_mut(&vpage) {
                *t = tick;
                self.access_log.push_back((tick, vpage));
                return true;
            }
            if self.entries.len() >= self.capacity {
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
            false
        }

        fn shootdown(&mut self, vpage: PageNumber) -> bool {
            self.entries.remove(&vpage).is_some()
        }
    }

    #[test]
    fn tlb_matches_the_reference_model_on_random_sequences() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        for seed in 0..200u64 {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
            let capacity = rng.gen_range(1..9usize);
            let pages = rng.gen_range(1..3 * capacity as u64 + 2);
            let mut tlb = Tlb::new(capacity, Nanos::new(7));
            let mut reference = ReferenceTlb::new(capacity);
            for step in 0..400 {
                let page = PageNumber(rng.gen_range(0..pages));
                if rng.gen_range(0..5u32) == 0 {
                    assert_eq!(
                        tlb.shootdown(page),
                        reference.shootdown(page),
                        "seed {seed} step {step}: shootdown of {page:?}"
                    );
                } else {
                    let hit = tlb.access(page) == Nanos::ZERO;
                    assert_eq!(
                        hit,
                        reference.access(page),
                        "seed {seed} step {step}: access to {page:?}"
                    );
                }
            }
        }
    }
}
