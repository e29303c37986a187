//! TPP-style software page-hotness sampling (§VI-H).
//!
//! TPP (Transparent Page Placement, ASPLOS'23) extends Linux NUMA balancing:
//! it periodically samples page accesses and promotes pages that are touched
//! again within the sampling window. This is less accurate than SkyByte's
//! per-page counters in the SSD controller, which is why the paper's
//! SkyByte-CT variant trails SkyByte-CP slightly. The sampler here reproduces
//! that behaviour: only accesses that fall inside the sampling window are
//! observed, and a bounded number of promotions is allowed per window.

use skybyte_types::{Lpa, MigrationConfig, Nanos};
use std::collections::HashMap;

/// Periodic-sampling hotness estimator.
#[derive(Debug, Clone)]
pub struct TppSampler {
    period: Nanos,
    promotions_per_period: u32,
    window_start: Nanos,
    /// Accesses observed in the current window.
    window_counts: HashMap<Lpa, u32>,
    /// Candidates produced at the end of the previous window.
    candidates: Vec<Lpa>,
    windows: u64,
}

impl TppSampler {
    /// Creates a sampler from the migration configuration.
    pub fn new(cfg: &MigrationConfig) -> Self {
        TppSampler {
            period: cfg.tpp_sample_period,
            promotions_per_period: cfg.tpp_promotions_per_period,
            window_start: Nanos::ZERO,
            window_counts: HashMap::new(),
            candidates: Vec::new(),
            windows: 0,
        }
    }

    /// Records an access to an SSD-resident page at time `now`. TPP's NUMA
    /// hint faults sample only a subset of accesses; sampling 1 in 8 keeps
    /// the bookkeeping cost realistic while still finding hot pages.
    pub fn record_access(&mut self, lpa: Lpa, now: Nanos) {
        self.roll_window(now);
        // Deterministic 1-in-8 sampling keyed by page and window count.
        if (lpa.index().wrapping_add(self.windows)).is_multiple_of(8) {
            *self.window_counts.entry(lpa).or_insert(0) += 1;
        }
    }

    /// Advances the sampling window if `now` has passed its end, turning the
    /// pages sampled at least twice into promotion candidates (second-touch
    /// promotion as in TPP/NUMA balancing).
    pub fn roll_window(&mut self, now: Nanos) {
        while now >= self.window_start + self.period {
            let mut hot: Vec<(Lpa, u32)> = self
                .window_counts
                .drain()
                .filter(|(_, c)| *c >= 2)
                .collect();
            hot.sort_unstable_by_key(|(lpa, c)| (std::cmp::Reverse(*c), lpa.index()));
            self.candidates.extend(
                hot.into_iter()
                    .take(self.promotions_per_period as usize)
                    .map(|(l, _)| l),
            );
            self.window_start += self.period;
            self.windows += 1;
        }
    }

    /// Takes the next promotion candidate, if any.
    pub fn take_candidate(&mut self) -> Option<Lpa> {
        self.candidates.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> TppSampler {
        let cfg = MigrationConfig {
            tpp_sample_period: Nanos::from_micros(100),
            tpp_promotions_per_period: 4,
            ..MigrationConfig::default()
        };
        TppSampler::new(&cfg)
    }

    #[test]
    fn hot_pages_become_candidates_after_a_window() {
        let mut s = sampler();
        // LPA 0 is sampled (0 % 8 == 0 in window 0); touch it many times.
        for i in 0..20u64 {
            s.record_access(Lpa::new(0), Nanos::new(i * 1000));
        }
        assert_eq!(s.candidates.len(), 0, "no candidates mid-window");
        s.roll_window(Nanos::from_micros(200));
        assert!(s.windows >= 1);
        assert_eq!(s.take_candidate(), Some(Lpa::new(0)));
        assert_eq!(s.take_candidate(), None);
    }

    #[test]
    fn single_touch_pages_are_not_promoted() {
        let mut s = sampler();
        s.record_access(Lpa::new(0), Nanos::new(10));
        s.roll_window(Nanos::from_micros(200));
        assert_eq!(s.candidates.len(), 0);
    }

    #[test]
    fn promotions_per_window_are_bounded() {
        let mut s = sampler();
        // Touch many sampled pages (multiples of 8 are sampled in window 0).
        for page in (0..200u64).map(|p| p * 8) {
            for t in 0..3u64 {
                s.record_access(Lpa::new(page), Nanos::new(t * 10));
            }
        }
        s.roll_window(Nanos::from_micros(150));
        assert_eq!(s.candidates.len(), 4, "bounded by promotions_per_period");
    }

    #[test]
    fn sampling_misses_unsampled_pages() {
        let mut s = sampler();
        // LPA 3 is not sampled in window 0 (3 % 8 != 0): never promoted even
        // if very hot — the inaccuracy the paper attributes to TPP.
        for i in 0..50u64 {
            s.record_access(Lpa::new(3), Nanos::new(i * 100));
        }
        s.roll_window(Nanos::from_micros(200));
        assert_eq!(s.candidates.len(), 0);
    }
}
