//! The host-DRAM promotion pool and Linux-style page reclamation.
//!
//! The host reserves a bounded budget of DRAM (2 GiB in Table II) for pages
//! promoted from the CXL-SSD. When the budget is exhausted, SkyByte uses the
//! existing Linux page-reclamation machinery to find a relatively cold page —
//! tracked with active/inactive lists — evict it back to the SSD, and reuse
//! its host frame (§III-C).

use serde::{Deserialize, Serialize};
use skybyte_types::{FastHashMap, Lpa, PageNumber, PAGE_SIZE};
use std::collections::VecDeque;

/// Result of asking the pool to make room for a new promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolDecision {
    /// A free host frame was available.
    Allocated(PageNumber),
    /// The budget is full: the given cold page must be evicted back to the
    /// SSD first, then the promotion can retry.
    NeedsEviction(Lpa),
}

/// The bounded pool of host-DRAM frames holding promoted SSD pages, with
/// active/inactive LRU lists for reclamation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostMemoryPool {
    capacity_pages: u64,
    next_frame: u64,
    free_frames: Vec<PageNumber>,
    /// Promoted pages: SSD LPA → host frame.
    resident: FastHashMap<Lpa, PageNumber>,
    /// Recently-used promoted pages (most recent at the back).
    active: VecDeque<Lpa>,
    /// Not recently used pages, candidates for eviction (oldest at front).
    inactive: VecDeque<Lpa>,
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
        if let Some(&frame) = self.resident.get(&lpa) {
            return PoolDecision::Allocated(frame);
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
        self.resident.insert(lpa, frame);
        self.inactive.push_back(lpa);
        PoolDecision::Allocated(frame)
    }

    /// Records an access to a promoted page: second touches move the page
    /// from the inactive to the active list, like the Linux workingset code.
    pub fn record_access(&mut self, lpa: Lpa) {
        if !self.resident.contains_key(&lpa) {
            return;
        }
        if let Some(pos) = self.inactive.iter().position(|l| *l == lpa) {
            self.inactive.remove(pos);
            self.active.push_back(lpa);
        } else if let Some(pos) = self.active.iter().position(|l| *l == lpa) {
            // Refresh LRU position within the active list.
            self.active.remove(pos);
            self.active.push_back(lpa);
        }
    }

    /// Evicts a promoted page, freeing its frame. Returns the freed frame, or
    /// `None` if the page was not resident.
    pub fn evict(&mut self, lpa: Lpa) -> Option<PageNumber> {
        let frame = self.resident.remove(&lpa)?;
        self.active.retain(|l| *l != lpa);
        self.inactive.retain(|l| *l != lpa);
        self.free_frames.push(frame);
        Some(frame)
    }

    /// The page the reclamation policy would evict next: the oldest inactive
    /// page, falling back to the oldest active page (with active pages aged
    /// into the inactive list first, as in Linux).
    pub fn reclaim_candidate(&mut self) -> Option<Lpa> {
        if self.inactive.is_empty() {
            // Age the active list: move the oldest half to inactive.
            let n = self.active.len().div_ceil(2);
            for _ in 0..n {
                if let Some(l) = self.active.pop_front() {
                    self.inactive.push_back(l);
                }
            }
        }
        self.inactive.front().copied()
    }
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
        assert_eq!(p.resident.get(&Lpa::new(5)), Some(&first));
        assert!(p.contains(Lpa::new(5)));
    }

    #[test]
    fn evicting_missing_page_is_none() {
        let mut p = pool(1);
        assert!(p.evict(Lpa::new(9)).is_none());
        p.record_access(Lpa::new(9)); // harmless on non-resident pages
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
