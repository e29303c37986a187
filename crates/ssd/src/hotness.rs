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
//!   one counter per page up to the highest page touched. The
//!   [`tracked_pages`](HotnessTracker::tracked_pages) gauge in `SsdStats`
//!   counts the pages with a nonzero counter (plus pending candidates and
//!   promoted marks), so its growth stays observable.
//! * `decay` — exponentially decayed frequency: counters are halved every
//!   [`DECAY_PERIOD_ACCESSES`] recorded accesses and pages that decay to
//!   zero stop counting, bounding the gauge on long traces while still
//!   favouring sustained hotness over one-shot bursts.
//! * `topk` — windowed top-k: pages are counted inside a fixed window of
//!   [`TOPK_WINDOW_ACCESSES`] accesses and only the [`TOPK_CANDIDATES`]
//!   hottest re-referenced pages of each window are nominated; counts reset
//!   between windows, so the gauge is bounded by the window size.
//!
//! Everything else — candidate hand-out, promotion marks and the footprint
//! gauge — is shared by all three. Counters and marks are arrays indexed by
//! page, so recording an access is an array update; `decay` and `topk`
//! also list the pages they counted, so a halving round or a window close
//! visits those pages only.

use skybyte_types::policy::HotnessPolicyKind;
use skybyte_types::Lpa;
use std::cmp::Reverse;

/// Recorded accesses between two count-halving rounds of the `decay`
/// policy.
pub const DECAY_PERIOD_ACCESSES: u32 = 4096;

/// Window length, in recorded accesses, of the `topk` policy.
pub const TOPK_WINDOW_ACCESSES: u32 = 1024;

/// Number of candidates the `topk` policy nominates per window.
pub const TOPK_CANDIDATES: usize = 16;

/// `marks` bit: the page is promoted to host DRAM and not tracked.
const PROMOTED: u8 = 1;
/// `marks` bit: the page is on the `touched` list.
const LISTED: u8 = 2;

/// The hotness tracker of the SSD controller: decides which pages are
/// promotion candidates for adaptive migration.
#[derive(Debug, Clone)]
pub struct HotnessTracker {
    kind: HotnessPolicyKind,
    /// Nomination threshold (`threshold`, `decay`; unused by `topk`).
    threshold: u32,
    /// Recorded accesses since the last halving round (`decay`) or in the
    /// current window (`topk`).
    window: u32,
    /// Access count of each page (0 when untracked), indexed by page and
    /// grown to the highest page seen.
    counts: Vec<u32>,
    /// `PROMOTED` and `LISTED` bits of each page, indexed like `counts`.
    marks: Vec<u8>,
    /// Pages with a nonzero count.
    counted: usize,
    /// Pages marked `PROMOTED`.
    promoted: usize,
    /// `decay` and `topk`: the pages counted since their last halving round
    /// or window close, each once (`LISTED`). Every page with a nonzero
    /// count is on it; a page whose count was reset since stays listed
    /// with a zero count until the next round drops it.
    touched: Vec<Lpa>,
    /// Pages nominated and not taken yet.
    candidates: Vec<Lpa>,
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
            counts: Vec::new(),
            marks: Vec::new(),
            counted: 0,
            promoted: 0,
            touched: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Records one access to `lpa`. Returns `true` if this access made a
    /// page a promotion candidate.
    pub fn record_access(&mut self, lpa: Lpa) -> bool {
        let page = self.index(lpa);
        if self.marks[page] & PROMOTED != 0 {
            return false;
        }
        match self.kind {
            HotnessPolicyKind::Threshold => {
                if self.bump(lpa, page) == self.threshold {
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
                    self.halve();
                }
                // Halving can bring a page back below the threshold, so
                // guard against duplicate nominations explicitly rather than
                // relying on crossing the threshold exactly once.
                if self.bump(lpa, page) >= self.threshold && !self.candidates.contains(&lpa) {
                    self.candidates.push(lpa);
                    true
                } else {
                    false
                }
            }
            HotnessPolicyKind::TopK => {
                self.bump(lpa, page);
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

    /// The array index of `lpa`, growing the page arrays to cover it.
    fn index(&mut self, lpa: Lpa) -> usize {
        let page = lpa.index() as usize;
        if page >= self.counts.len() {
            self.counts.resize(page + 1, 0);
            self.marks.resize(page + 1, 0);
        }
        page
    }

    /// Adds one to the count of `lpa` (at `page`) and returns the new count.
    /// `decay` and `topk` list a page when it starts counting.
    fn bump(&mut self, lpa: Lpa, page: usize) -> u32 {
        if self.counts[page] == 0 {
            self.counted += 1;
            if self.kind != HotnessPolicyKind::Threshold && self.marks[page] & LISTED == 0 {
                self.marks[page] |= LISTED;
                self.touched.push(lpa);
            }
        }
        self.counts[page] += 1;
        self.counts[page]
    }

    /// Resets the count of `lpa` to zero (a no-op for an untracked page).
    fn reset(&mut self, lpa: Lpa) {
        if let Some(count) = self.counts.get_mut(lpa.index() as usize) {
            if *count > 0 {
                *count = 0;
                self.counted -= 1;
            }
        }
    }

    /// One `decay` round: halves every count, and unlists the pages whose
    /// count reaches (or already was) zero.
    fn halve(&mut self) {
        let (counts, marks) = (&mut self.counts, &mut self.marks);
        self.touched.retain(|lpa| {
            let page = lpa.index() as usize;
            counts[page] /= 2;
            if counts[page] == 0 {
                marks[page] &= !LISTED;
            }
            counts[page] > 0
        });
        self.counted = self.touched.len();
    }

    /// Closes a top-k window: nominates its [`TOPK_CANDIDATES`] hottest
    /// re-referenced pages and resets every count.
    fn close_window(&mut self) -> bool {
        let mut hot: Vec<(Lpa, u32)> = Vec::new();
        for lpa in self.touched.drain(..) {
            let page = lpa.index() as usize;
            let count = std::mem::take(&mut self.counts[page]);
            self.marks[page] &= !LISTED;
            if count >= 2 && !self.candidates.contains(&lpa) {
                hot.push((lpa, count));
            }
        }
        self.counted = 0;
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
            // hot. Top-k reset its counts when the window closed and keeps
            // what the page gathered in the current window.
            if self.kind != HotnessPolicyKind::TopK {
                self.reset(lpa);
            }
        }
        None
    }

    /// Marks a page as promoted so it is no longer tracked.
    pub fn mark_promoted(&mut self, lpa: Lpa) {
        let page = self.index(lpa);
        if self.marks[page] & PROMOTED == 0 {
            self.marks[page] |= PROMOTED;
            self.promoted += 1;
        }
        self.reset(lpa);
        self.candidates.retain(|c| *c != lpa);
    }

    /// Marks a page as demoted back to the SSD so it is tracked again.
    pub fn mark_demoted(&mut self, lpa: Lpa) {
        if let Some(marks) = self.marks.get_mut(lpa.index() as usize) {
            if *marks & PROMOTED != 0 {
                *marks &= !PROMOTED;
                self.promoted -= 1;
            }
        }
        self.reset(lpa);
    }

    /// Number of pages the tracker currently holds state for (nonzero
    /// counters, pending candidates and promoted marks) — the memory-growth
    /// gauge surfaced as `SsdStats::tracked_pages`.
    pub fn tracked_pages(&self) -> u64 {
        (self.counted + self.candidates.len() + self.promoted) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_types::FastHashMap;
    use std::collections::HashSet;

    /// Current hotness count of a page (0 for untracked or promoted pages).
    fn count(t: &HotnessTracker, lpa: Lpa) -> u32 {
        t.counts.get(lpa.index() as usize).copied().unwrap_or(0)
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
        assert_eq!(t.promoted, 1);
        assert!(!t.record_access(Lpa::new(5)));
        assert_eq!(count(&t, Lpa::new(5)), 0);
        // After demotion the page is tracked again.
        t.mark_demoted(Lpa::new(5));
        assert_eq!(t.promoted, 0);
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

    /// Reference model for [`HotnessTracker`]: a count map and a promoted
    /// set, both keyed by page.
    struct ReferenceTracker {
        kind: HotnessPolicyKind,
        threshold: u32,
        window: u32,
        counts: FastHashMap<Lpa, u32>,
        candidates: Vec<Lpa>,
        promoted: HashSet<Lpa>,
    }

    impl ReferenceTracker {
        fn new(kind: HotnessPolicyKind, threshold: u32) -> Self {
            ReferenceTracker {
                kind,
                threshold,
                window: 0,
                counts: FastHashMap::default(),
                candidates: Vec::new(),
                promoted: HashSet::new(),
            }
        }

        fn record_access(&mut self, lpa: Lpa) -> bool {
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
                    if self.window < TOPK_WINDOW_ACCESSES {
                        return false;
                    }
                    self.window = 0;
                    let mut hot: Vec<(Lpa, u32)> = self
                        .counts
                        .drain()
                        .filter(|&(lpa, c)| c >= 2 && !self.candidates.contains(&lpa))
                        .collect();
                    hot.sort_unstable_by_key(|&(lpa, c)| (Reverse(c), lpa.index()));
                    let before = self.candidates.len();
                    self.candidates
                        .extend(hot.into_iter().take(TOPK_CANDIDATES).map(|(lpa, _)| lpa));
                    self.candidates.len() > before
                }
            }
        }

        fn take_candidate(&mut self, mut eligible: impl FnMut(Lpa) -> bool) -> Option<Lpa> {
            while let Some(lpa) = self.candidates.pop() {
                if eligible(lpa) {
                    return Some(lpa);
                }
                if self.kind != HotnessPolicyKind::TopK {
                    self.counts.remove(&lpa);
                }
            }
            None
        }

        fn mark_promoted(&mut self, lpa: Lpa) {
            self.promoted.insert(lpa);
            self.counts.remove(&lpa);
            self.candidates.retain(|c| *c != lpa);
        }

        fn mark_demoted(&mut self, lpa: Lpa) {
            self.promoted.remove(&lpa);
            self.counts.remove(&lpa);
        }

        fn tracked_pages(&self) -> u64 {
            (self.counts.len() + self.candidates.len() + self.promoted.len()) as u64
        }
    }

    #[test]
    fn tracker_matches_the_reference_model_on_random_sequences() {
        for kind in HotnessPolicyKind::ALL {
            for seed in 1..=16u64 {
                let mut rng = crate::TestRng::new(seed);
                let threshold = 1 + rng.below(12) as u32;
                let hot = 4 + rng.below(60);
                // Percent of steps that take a candidate: where it is low,
                // nominations pile up across top-k windows.
                let take = rng.below(6);
                let mut t = HotnessTracker::new(kind, threshold);
                let mut r = ReferenceTracker::new(kind, threshold);
                // Long enough for four `decay` rounds.
                for step in 0..20_000 {
                    // Mostly a small hot set; now and then a far page.
                    let lpa = match rng.below(50) {
                        0 => Lpa::new(1000 + rng.below(3000)),
                        _ => Lpa::new(rng.below(hot)),
                    };
                    match rng.below(100) {
                        op if op < take => {
                            let salt = rng.below(3);
                            let eligible = |l: Lpa| !(l.index() + salt).is_multiple_of(3);
                            assert_eq!(
                                t.take_candidate(eligible),
                                r.take_candidate(eligible),
                                "{kind:?} seed {seed} step {step}"
                            );
                        }
                        op if op < take + 3 => {
                            t.mark_promoted(lpa);
                            r.mark_promoted(lpa);
                        }
                        op if op < take + 5 => {
                            t.mark_demoted(lpa);
                            r.mark_demoted(lpa);
                        }
                        _ => assert_eq!(
                            t.record_access(lpa),
                            r.record_access(lpa),
                            "{kind:?} seed {seed} step {step}"
                        ),
                    }
                    assert_eq!(
                        t.candidates, r.candidates,
                        "{kind:?} seed {seed} step {step}"
                    );
                    assert_eq!(
                        t.tracked_pages(),
                        r.tracked_pages(),
                        "{kind:?} seed {seed} step {step}"
                    );
                    assert_eq!(count(&t, lpa), r.counts.get(&lpa).copied().unwrap_or(0));
                }
            }
        }
    }

    #[test]
    fn every_kind_shares_the_promotion_bookkeeping() {
        for kind in HotnessPolicyKind::ALL {
            let mut t = HotnessTracker::new(kind, 2);
            t.record_access(Lpa::new(1));
            t.mark_promoted(Lpa::new(9));
            assert_eq!(t.promoted, 1);
            assert!(t.tracked_pages() >= 1);
            t.mark_demoted(Lpa::new(9));
            assert_eq!(t.promoted, 0);
        }
    }
}
