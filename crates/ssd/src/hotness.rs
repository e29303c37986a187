//! Per-page access tracking for adaptive page migration (§III-C).
//!
//! The SSD controller counts accesses to each logical page and nominates
//! promotion candidates; SkyByte only promotes pages that are resident in
//! the SSD DRAM data cache (the candidate hot pages are there by
//! construction). *How* hotness is measured is the tracker's
//! [`HotnessPolicyKind`], matched in [`HotnessTracker::record_access`]:
//!
//! * `threshold` — the paper's design and the default: exact per-page
//!   counters with a fixed nomination threshold. Exactness costs memory —
//!   one counter per distinct page ever touched (the
//!   [`tracked_pages`](HotnessTracker::tracked_pages) gauge in `SsdStats`
//!   makes that growth observable). Zero-count entries are compacted away
//!   rather than stored.
//! * `decay` — exponentially decayed frequency: counters are halved every
//!   [`DECAY_PERIOD_ACCESSES`] recorded accesses and entries that decay to
//!   zero are dropped, bounding memory on long traces while still favouring
//!   sustained hotness over one-shot bursts.
//! * `topk` — windowed top-k: pages are counted inside a fixed window of
//!   [`TOPK_WINDOW_ACCESSES`] accesses and only the [`TOPK_CANDIDATES`]
//!   hottest re-referenced pages of each window are nominated; counts reset
//!   between windows, so memory is bounded by the window size.
//!
//! Everything else — candidate hand-out, promotion marks and the footprint
//! gauge — is shared by all three.

use serde::{Deserialize, Serialize};
use skybyte_types::policy::HotnessPolicyKind;
use skybyte_types::{FastHashMap, FastHashSet, Lpa};
use std::cmp::Reverse;

/// Recorded accesses between two count-halving rounds of the `decay`
/// policy.
pub const DECAY_PERIOD_ACCESSES: u32 = 4096;

/// Window length, in recorded accesses, of the `topk` policy.
pub const TOPK_WINDOW_ACCESSES: u32 = 1024;

/// Number of candidates the `topk` policy nominates per window.
pub const TOPK_CANDIDATES: usize = 16;

/// The hotness tracker of the SSD controller: decides which pages are
/// promotion candidates for adaptive migration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotnessTracker {
    kind: HotnessPolicyKind,
    /// Nomination threshold (`threshold`, `decay`; unused by `topk`).
    threshold: u32,
    /// Recorded accesses since the last halving round (`decay`) or in the
    /// current window (`topk`).
    window: u32,
    counts: FastHashMap<Lpa, u32>,
    /// Pages nominated and not taken yet.
    candidates: Vec<Lpa>,
    promoted: FastHashSet<Lpa>,
}

impl HotnessTracker {
    /// A tracker measuring hotness by `kind` with the configured nomination
    /// `threshold` (ignored by the windowed top-k policy, which ranks pages
    /// instead of thresholding them).
    ///
    /// # Panics
    ///
    /// Panics if a thresholded policy is given a zero `threshold`.
    pub fn new(kind: HotnessPolicyKind, threshold: u32) -> Self {
        assert!(
            kind == HotnessPolicyKind::TopK || threshold > 0,
            "hotness threshold must be at least 1"
        );
        HotnessTracker {
            kind,
            threshold,
            window: 0,
            counts: FastHashMap::default(),
            candidates: Vec::new(),
            promoted: FastHashSet::default(),
        }
    }

    /// Records one access to `lpa`. Returns `true` if this access made a
    /// page a promotion candidate.
    pub fn record_access(&mut self, lpa: Lpa) -> bool {
        if self.promoted.contains(&lpa) {
            return false;
        }
        match self.kind {
            HotnessPolicyKind::Threshold => {
                let count = self.counts.entry(lpa).or_insert(0);
                *count += 1;
                if *count == self.threshold {
                    self.candidates.push(lpa);
                    true
                } else {
                    false
                }
            }
            HotnessPolicyKind::Decay => {
                self.window += 1;
                if self.window >= DECAY_PERIOD_ACCESSES {
                    self.window = 0;
                    self.counts.retain(|_, c| {
                        *c /= 2;
                        *c > 0
                    });
                }
                let count = self.counts.entry(lpa).or_insert(0);
                *count += 1;
                // Halving can bring a page back below the threshold, so
                // guard against duplicate nominations explicitly rather than
                // relying on crossing the threshold exactly once.
                if *count >= self.threshold && !self.candidates.contains(&lpa) {
                    self.candidates.push(lpa);
                    true
                } else {
                    false
                }
            }
            HotnessPolicyKind::TopK => {
                *self.counts.entry(lpa).or_insert(0) += 1;
                self.window += 1;
                if self.window >= TOPK_WINDOW_ACCESSES {
                    self.window = 0;
                    self.close_window()
                } else {
                    false
                }
            }
        }
    }

    /// Closes a top-k window: nominates its [`TOPK_CANDIDATES`] hottest
    /// re-referenced pages and resets every count.
    fn close_window(&mut self) -> bool {
        let mut hot: Vec<(Lpa, u32)> = self
            .counts
            .drain()
            .filter(|&(lpa, c)| c >= 2 && !self.candidates.contains(&lpa))
            .collect();
        // Deterministic order: hottest first, page index breaking ties.
        hot.sort_unstable_by_key(|&(lpa, c)| (Reverse(c), lpa.index()));
        let before = self.candidates.len();
        self.candidates
            .extend(hot.into_iter().take(TOPK_CANDIDATES).map(|(lpa, _)| lpa));
        self.candidates.len() > before
    }

    /// Takes the next promotion candidate, filtered by `eligible` (typically
    /// "is the page still resident in the data cache"). Ineligible
    /// candidates are dropped back to cold state so they can re-qualify.
    pub fn take_candidate(&mut self, mut eligible: impl FnMut(Lpa) -> bool) -> Option<Lpa> {
        while let Some(lpa) = self.candidates.pop() {
            if eligible(lpa) {
                return Some(lpa);
            }
            // Reset so the page can become a candidate again if it stays
            // hot. A zero count and an absent entry are indistinguishable,
            // so compact the entry away instead of storing the zero. Top-k
            // reset its counts when the window closed and keeps what the
            // page gathered in the current window.
            if self.kind != HotnessPolicyKind::TopK {
                self.counts.remove(&lpa);
            }
        }
        None
    }

    /// Marks a page as promoted so it is no longer tracked.
    pub fn mark_promoted(&mut self, lpa: Lpa) {
        self.promoted.insert(lpa);
        self.counts.remove(&lpa);
        self.candidates.retain(|c| *c != lpa);
    }

    /// Marks a page as demoted back to the SSD so it is tracked again.
    pub fn mark_demoted(&mut self, lpa: Lpa) {
        self.promoted.remove(&lpa);
        self.counts.remove(&lpa);
    }

    /// Number of pages the tracker currently holds state for (counters,
    /// pending candidates and promoted marks) — the memory-growth gauge
    /// surfaced as `SsdStats::tracked_pages`.
    pub fn tracked_pages(&self) -> u64 {
        (self.counts.len() + self.candidates.len() + self.promoted.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Current hotness count of a page (0 for untracked or promoted pages).
    fn count(t: &HotnessTracker, lpa: Lpa) -> u32 {
        t.counts.get(&lpa).copied().unwrap_or(0)
    }

    #[test]
    fn crosses_threshold_once() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::Threshold, 3);
        assert!(!t.record_access(Lpa::new(1)));
        assert!(!t.record_access(Lpa::new(1)));
        assert!(t.record_access(Lpa::new(1)));
        // Further accesses do not re-nominate.
        assert!(!t.record_access(Lpa::new(1)));
        assert_eq!(count(&t, Lpa::new(1)), 4);
        assert_eq!(t.candidates.len(), 1);
    }

    #[test]
    fn take_candidate_respects_eligibility() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::Threshold, 1);
        t.record_access(Lpa::new(1));
        t.record_access(Lpa::new(2));
        // Page 2 is not eligible (e.g. evicted from the data cache).
        let got = t.take_candidate(&mut |lpa| lpa == Lpa::new(1));
        assert_eq!(got, Some(Lpa::new(1)));
        assert_eq!(t.candidates.len(), 0);
        // Page 2 was reset, not lost: it can re-qualify.
        assert_eq!(count(&t, Lpa::new(2)), 0);
        assert!(t.record_access(Lpa::new(2)));
    }

    #[test]
    fn promoted_pages_are_not_tracked() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::Threshold, 2);
        t.record_access(Lpa::new(5));
        t.mark_promoted(Lpa::new(5));
        assert_eq!(t.promoted.len(), 1);
        assert!(!t.record_access(Lpa::new(5)));
        assert_eq!(count(&t, Lpa::new(5)), 0);
        // After demotion the page is tracked again.
        t.mark_demoted(Lpa::new(5));
        assert_eq!(t.promoted.len(), 0);
        assert!(!t.record_access(Lpa::new(5)));
        assert!(t.record_access(Lpa::new(5)));
    }

    #[test]
    fn mark_promoted_clears_pending_candidacy() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::Threshold, 1);
        t.record_access(Lpa::new(9));
        assert_eq!(t.candidates.len(), 1);
        t.mark_promoted(Lpa::new(9));
        assert_eq!(t.candidates.len(), 0);
        assert_eq!(t.take_candidate(&mut |_| true), None);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_zero_threshold() {
        let _ = HotnessTracker::new(HotnessPolicyKind::Threshold, 0);
    }

    #[test]
    fn ineligible_candidates_are_compacted_away() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::Threshold, 1);
        t.record_access(Lpa::new(7));
        assert_eq!(t.take_candidate(&mut |_| false), None);
        // The reset entry is removed, not stored as an explicit zero …
        assert_eq!(t.tracked_pages(), 0);
        // … which is observationally identical to a zero count.
        assert_eq!(count(&t, Lpa::new(7)), 0);
        assert!(t.record_access(Lpa::new(7)));
    }

    #[test]
    fn decay_halves_counts_and_drops_cold_entries() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::Decay, 1000);
        // One access each to many one-shot pages, then enough traffic to a
        // hot page to trigger a decay round.
        for i in 0..100u64 {
            t.record_access(Lpa::new(i));
        }
        for _ in 0..DECAY_PERIOD_ACCESSES {
            t.record_access(Lpa::new(777));
        }
        // The one-shot pages decayed to zero and were dropped; the hot page
        // survives with a halved count.
        assert_eq!(count(&t, Lpa::new(5)), 0);
        assert!(count(&t, Lpa::new(777)) > 0);
        assert!(t.tracked_pages() < 100);
    }

    #[test]
    fn decay_renominates_without_duplicates() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::Decay, 2);
        assert!(!t.record_access(Lpa::new(1)));
        assert!(t.record_access(Lpa::new(1)));
        // Above-threshold accesses do not duplicate the pending candidacy.
        assert!(!t.record_access(Lpa::new(1)));
        assert_eq!(t.candidates.len(), 1);
    }

    #[test]
    fn topk_nominates_the_hottest_pages_of_a_window() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::TopK, 0);
        let mut nominated = false;
        for i in 0..TOPK_WINDOW_ACCESSES {
            // Concentrate traffic on pages 0..4, spread the rest widely.
            let lpa = if i % 2 == 0 {
                Lpa::new((i % 4) as u64)
            } else {
                Lpa::new(1000 + i as u64)
            };
            nominated |= t.record_access(lpa);
        }
        assert!(nominated, "closing the window nominates candidates");
        assert!(t.candidates.len() <= TOPK_CANDIDATES);
        let got = t.take_candidate(&mut |_| true).expect("candidate");
        assert!(got.index() < 4, "only re-referenced hot pages qualify");
        // Counts reset between windows: memory stays bounded.
        assert_eq!(count(&t, Lpa::new(0)), 0);
    }

    #[test]
    fn topk_memory_is_bounded_by_the_window() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::TopK, 0);
        for i in 0..10 * TOPK_WINDOW_ACCESSES as u64 {
            t.record_access(Lpa::new(i)); // every page distinct
        }
        assert!(t.tracked_pages() <= TOPK_WINDOW_ACCESSES as u64 + TOPK_CANDIDATES as u64);
    }

    #[test]
    fn every_kind_shares_the_promotion_bookkeeping() {
        for kind in HotnessPolicyKind::ALL {
            let mut t = HotnessTracker::new(kind, 2);
            t.record_access(Lpa::new(1));
            t.mark_promoted(Lpa::new(9));
            assert_eq!(t.promoted.len(), 1);
            assert!(t.tracked_pages() >= 1);
            t.mark_demoted(Lpa::new(9));
            assert_eq!(t.promoted.len(), 0);
        }
    }
}
