//! The host-DRAM promotion pool and Linux-style page reclamation.
//!
//! The host reserves a bounded budget of DRAM (2 GiB in Table II) for pages
//! promoted from the CXL-SSD. When the budget is exhausted, SkyByte uses the
//! existing Linux page-reclamation machinery to find a relatively cold page —
//! tracked with active/inactive lists — evict it back to the SSD, and reuse
//! its host frame (§III-C).

use skybyte_types::{FastHashMap, Lpa, PageNumber, PAGE_SIZE};
use std::collections::VecDeque;

/// Result of asking the pool to make room for a new promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolDecision {
    /// A free host frame was available.
    Allocated(PageNumber),
    /// The budget is full: the given cold page must be evicted back to the
    /// SSD first, then the promotion can retry.
    NeedsEviction(Lpa),
}

/// Which reclamation list a resident page sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum List {
    Active,
    Inactive,
}

/// A promoted page: its host frame and its place on the reclamation lists.
#[derive(Debug, Clone, Copy)]
struct Resident {
    frame: PageNumber,
    list: List,
    /// Stamp of the page's live record on `list`. Stamps are unique, so a
    /// record is live exactly when it carries its page's stamp.
    stamp: u64,
}

/// The bounded pool of host-DRAM frames holding promoted SSD pages, with
/// active/inactive LRU lists for reclamation.
///
/// Both lists are lazy-deletion deques of `(stamp, page)` records: moving,
/// refreshing or evicting a page only re-stamps or drops its `Resident`
/// entry, and a record is live while it carries the page's current stamp. Stale records are skipped at the fronts and compacted away
/// once they outnumber the live ones, so every operation is amortised O(1).
/// The live records keep the order of lists that unlink a page in place.
#[derive(Debug, Clone)]
pub struct HostMemoryPool {
    capacity_pages: u64,
    next_frame: u64,
    free_frames: Vec<PageNumber>,
    /// Promoted pages: SSD LPA → frame and list record.
    resident: FastHashMap<Lpa, Resident>,
    /// Recently-used promoted pages (most recent at the back).
    active: VecDeque<(u64, Lpa)>,
    /// Not recently used pages, candidates for eviction (oldest at front).
    inactive: VecDeque<(u64, Lpa)>,
    /// Live records on `active` and on `inactive`.
    active_live: usize,
    inactive_live: usize,
    next_stamp: u64,
}

impl HostMemoryPool {
    /// Creates a pool with a budget of `capacity_bytes` of host DRAM.
    pub fn new(capacity_bytes: u64) -> Self {
        HostMemoryPool {
            capacity_pages: capacity_bytes / PAGE_SIZE as u64,
            next_frame: 0,
            free_frames: Vec::new(),
            resident: FastHashMap::default(),
            active: VecDeque::new(),
            inactive: VecDeque::new(),
            active_live: 0,
            inactive_live: 0,
            next_stamp: 0,
        }
    }

    /// Whether `lpa` is currently promoted.
    pub fn contains(&self, lpa: Lpa) -> bool {
        self.resident.contains_key(&lpa)
    }

    /// Tries to allocate a host frame for promoting `lpa`.
    ///
    /// Returns [`PoolDecision::Allocated`] and records the residency when a
    /// frame is available, or [`PoolDecision::NeedsEviction`] naming the
    /// coldest resident page when the budget is full. Promoting a page that
    /// is already resident returns its existing frame.
    pub fn promote(&mut self, lpa: Lpa) -> PoolDecision {
        if let Some(r) = self.resident.get(&lpa) {
            return PoolDecision::Allocated(r.frame);
        }
        if self.resident.len() as u64 >= self.capacity_pages {
            let victim = self.reclaim_candidate();
            return match victim {
                Some(v) => PoolDecision::NeedsEviction(v),
                // Capacity zero: force the caller to skip promotion.
                None => PoolDecision::NeedsEviction(lpa),
            };
        }
        let frame = self.free_frames.pop().unwrap_or_else(|| {
            let f = PageNumber(self.next_frame);
            self.next_frame += 1;
            f
        });
        let stamp = self.stamp();
        self.resident.insert(
            lpa,
            Resident {
                frame,
                list: List::Inactive,
                stamp,
            },
        );
        self.inactive.push_back((stamp, lpa));
        self.inactive_live += 1;
        PoolDecision::Allocated(frame)
    }

    /// Records an access to a promoted page: second touches move the page
    /// from the inactive to the active list, like the Linux workingset code.
    pub fn record_access(&mut self, lpa: Lpa) {
        let stamp = self.stamp();
        let Some(r) = self.resident.get_mut(&lpa) else {
            return;
        };
        if r.list == List::Inactive {
            r.list = List::Active;
            self.inactive_live -= 1;
            self.active_live += 1;
        }
        // Moved or refreshed, the page goes to the back of the active list;
        // its older record goes stale.
        r.stamp = stamp;
        self.active.push_back((stamp, lpa));
        self.compact();
    }

    /// Evicts a promoted page, freeing its frame. Returns the freed frame, or
    /// `None` if the page was not resident.
    pub fn evict(&mut self, lpa: Lpa) -> Option<PageNumber> {
        let r = self.resident.remove(&lpa)?;
        match r.list {
            List::Active => self.active_live -= 1,
            List::Inactive => self.inactive_live -= 1,
        }
        self.free_frames.push(r.frame);
        self.compact();
        Some(r.frame)
    }

    /// The page the reclamation policy would evict next: the oldest inactive
    /// page, falling back to the oldest active page (with active pages aged
    /// into the inactive list first, as in Linux).
    pub fn reclaim_candidate(&mut self) -> Option<Lpa> {
        if self.inactive_live == 0 {
            // Age the active list: move the oldest half to inactive.
            let moved = self.active_live.div_ceil(2);
            for _ in 0..moved {
                let lpa = self.pop_live_active();
                let stamp = self.stamp();
                let r = self
                    .resident
                    .get_mut(&lpa)
                    .expect("a live record is resident");
                r.list = List::Inactive;
                r.stamp = stamp;
                self.inactive.push_back((stamp, lpa));
            }
            self.active_live -= moved;
            self.inactive_live += moved;
        }
        while let Some(&record) = self.inactive.front() {
            if is_live(&self.resident, record) {
                return Some(record.1);
            }
            self.inactive.pop_front();
        }
        None
    }

    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp - 1
    }

    /// Pops stale records off the active list's front, then its oldest live
    /// page. The caller re-lists the page.
    fn pop_live_active(&mut self) -> Lpa {
        loop {
            let record = self.active.pop_front().expect("live count covers the list");
            if is_live(&self.resident, record) {
                return record.1;
            }
        }
    }

    /// Drops a list's stale records once they outnumber its live ones.
    fn compact(&mut self) {
        let resident = &self.resident;
        for (records, live) in [
            (&mut self.active, self.active_live),
            (&mut self.inactive, self.inactive_live),
        ] {
            if records.len() > 2 * live + 16 {
                records.retain(|&record| is_live(resident, record));
            }
        }
    }
}

/// Whether `(stamp, lpa)` is the page's current record.
fn is_live(resident: &FastHashMap<Lpa, Resident>, (stamp, lpa): (u64, Lpa)) -> bool {
    resident.get(&lpa).is_some_and(|r| r.stamp == stamp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(pages: u64) -> HostMemoryPool {
        HostMemoryPool::new(pages * PAGE_SIZE as u64)
    }

    #[test]
    fn promote_until_full_then_reclaim() {
        let mut p = pool(2);
        assert_eq!(p.capacity_pages, 2);
        let a = p.promote(Lpa::new(1));
        let b = p.promote(Lpa::new(2));
        assert!(matches!(a, PoolDecision::Allocated(_)));
        assert!(matches!(b, PoolDecision::Allocated(_)));
        assert_eq!(p.resident.len(), 2);
        // Third promotion requires evicting the coldest page (LPA 1, never
        // re-touched).
        match p.promote(Lpa::new(3)) {
            PoolDecision::NeedsEviction(victim) => assert_eq!(victim, Lpa::new(1)),
            other => panic!("expected eviction, got {other:?}"),
        }
        let freed = p.evict(Lpa::new(1)).unwrap();
        match p.promote(Lpa::new(3)) {
            PoolDecision::Allocated(frame) => assert_eq!(frame, freed),
            other => panic!("expected allocation, got {other:?}"),
        }
        assert_eq!(p.resident.len(), 2);
        assert!(!p.contains(Lpa::new(1)));
        assert!(p.contains(Lpa::new(2)) && p.contains(Lpa::new(3)));
    }

    #[test]
    fn accessed_pages_are_protected_from_reclaim() {
        let mut p = pool(2);
        p.promote(Lpa::new(1));
        p.promote(Lpa::new(2));
        // Touch page 1: it moves to the active list; page 2 stays inactive.
        p.record_access(Lpa::new(1));
        match p.promote(Lpa::new(3)) {
            PoolDecision::NeedsEviction(victim) => assert_eq!(victim, Lpa::new(2)),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn active_list_ages_when_inactive_empty() {
        let mut p = pool(2);
        p.promote(Lpa::new(1));
        p.promote(Lpa::new(2));
        p.record_access(Lpa::new(1));
        p.record_access(Lpa::new(2));
        // Both active; reclamation must still find a victim by aging.
        let victim = p.reclaim_candidate();
        assert!(victim.is_some());
    }

    #[test]
    fn repromoting_resident_page_returns_same_frame() {
        let mut p = pool(2);
        let first = match p.promote(Lpa::new(5)) {
            PoolDecision::Allocated(f) => f,
            _ => unreachable!(),
        };
        match p.promote(Lpa::new(5)) {
            PoolDecision::Allocated(f) => assert_eq!(f, first),
            _ => panic!("resident page should stay allocated"),
        }
        assert_eq!(p.resident.len(), 1);
        assert_eq!(p.resident.get(&Lpa::new(5)).map(|r| r.frame), Some(first));
        assert!(p.contains(Lpa::new(5)));
    }

    #[test]
    fn evicting_missing_page_is_none() {
        let mut p = pool(1);
        assert!(p.evict(Lpa::new(9)).is_none());
        p.record_access(Lpa::new(9)); // harmless on non-resident pages
    }

    /// Reference model for [`HostMemoryPool`]'s decisions: plain deques
    /// searched with `position`/`remove` and `retain` on every touch and
    /// eviction.
    struct ReferencePool {
        capacity_pages: u64,
        next_frame: u64,
        free_frames: Vec<PageNumber>,
        resident: FastHashMap<Lpa, PageNumber>,
        active: VecDeque<Lpa>,
        inactive: VecDeque<Lpa>,
    }

    impl ReferencePool {
        fn new(capacity_pages: u64) -> Self {
            ReferencePool {
                capacity_pages,
                next_frame: 0,
                free_frames: Vec::new(),
                resident: FastHashMap::default(),
                active: VecDeque::new(),
                inactive: VecDeque::new(),
            }
        }

        fn promote(&mut self, lpa: Lpa) -> PoolDecision {
            if let Some(&frame) = self.resident.get(&lpa) {
                return PoolDecision::Allocated(frame);
            }
            if self.resident.len() as u64 >= self.capacity_pages {
                return PoolDecision::NeedsEviction(self.reclaim_candidate().unwrap_or(lpa));
            }
            let frame = self.free_frames.pop().unwrap_or_else(|| {
                self.next_frame += 1;
                PageNumber(self.next_frame - 1)
            });
            self.resident.insert(lpa, frame);
            self.inactive.push_back(lpa);
            PoolDecision::Allocated(frame)
        }

        fn record_access(&mut self, lpa: Lpa) {
            if !self.resident.contains_key(&lpa) {
                return;
            }
            if let Some(pos) = self.inactive.iter().position(|l| *l == lpa) {
                self.inactive.remove(pos);
                self.active.push_back(lpa);
            } else if let Some(pos) = self.active.iter().position(|l| *l == lpa) {
                self.active.remove(pos);
                self.active.push_back(lpa);
            }
        }

        fn evict(&mut self, lpa: Lpa) -> Option<PageNumber> {
            let frame = self.resident.remove(&lpa)?;
            self.active.retain(|l| *l != lpa);
            self.inactive.retain(|l| *l != lpa);
            self.free_frames.push(frame);
            Some(frame)
        }

        fn reclaim_candidate(&mut self) -> Option<Lpa> {
            if self.inactive.is_empty() {
                for _ in 0..self.active.len().div_ceil(2) {
                    if let Some(l) = self.active.pop_front() {
                        self.inactive.push_back(l);
                    }
                }
            }
            self.inactive.front().copied()
        }
    }

    #[test]
    fn pool_matches_the_reference_model_on_random_sequences() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        for seed in 0..200u64 {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
            let capacity = rng.gen_range(0..10u64);
            let pages = rng.gen_range(1..2 * capacity + 4);
            let mut p = pool(capacity);
            let mut reference = ReferencePool::new(capacity);
            for step in 0..600 {
                let lpa = Lpa::new(rng.gen_range(0..pages));
                let what = format!("seed {seed} step {step} page {lpa:?}");
                match rng.gen_range(0..10u32) {
                    0..=2 => assert_eq!(p.promote(lpa), reference.promote(lpa), "{what}"),
                    3..=6 => {
                        p.record_access(lpa);
                        reference.record_access(lpa);
                    }
                    7 => assert_eq!(p.evict(lpa), reference.evict(lpa), "{what}"),
                    _ => {
                        let victim = p.reclaim_candidate();
                        assert_eq!(victim, reference.reclaim_candidate(), "{what}");
                        // Evicting the victim exercises the aged lists.
                        if let Some(v) = victim.filter(|_| rng.gen_bool(0.5)) {
                            assert_eq!(p.evict(v), reference.evict(v), "{what}");
                        }
                    }
                }
                assert_eq!(p.contains(lpa), reference.resident.contains_key(&lpa));
                assert_eq!(p.active_live, reference.active.len(), "{what}");
                assert_eq!(p.inactive_live, reference.inactive.len(), "{what}");
            }
        }
    }

    #[test]
    fn zero_capacity_pool_never_allocates() {
        let mut p = pool(0);
        assert!(matches!(
            p.promote(Lpa::new(1)),
            PoolDecision::NeedsEviction(_)
        ));
        assert_eq!(p.resident.len(), 0);
    }
}
