//! The eviction decision of the data cache.
//!
//! [`DataCache`](crate::DataCache) holds its [`EvictionPolicyKind`] and this
//! module matches on it: `on_hit` and `victim` decide which way of a full
//! set to evict. They work on per-way [`WayMeta`] replacement metadata the
//! cache keeps in lockstep with its entries; the cache itself stamps
//! `last_access`/`inserted_at` ticks, so recency-based policies need no
//! state of their own. CLOCK's per-set hands are a field of the cache.
//!
//! The cache admits every page it fetches (§III-B), so admission is not a
//! policy. [`EvictionPolicyKind::PseudoLru`] is the default and reproduces
//! the original hard-wired cache decision for decision.

use skybyte_types::policy::EvictionPolicyKind;

/// Per-way replacement metadata, maintained by the cache in lockstep with
/// its page entries and interpreted by the eviction policies.
#[derive(Debug, Clone, Copy, Default)]
pub struct WayMeta {
    /// Tick of the last lookup hit or (re)insertion of this way.
    pub last_access: u64,
    /// Tick at which the way was filled (FIFO order).
    pub inserted_at: u64,
    /// CLOCK reference bit, set on hits and cleared by the sweeping hand.
    pub referenced: bool,
    /// SLRU protected-segment membership (2Q).
    pub protected: bool,
}

impl WayMeta {
    /// Fresh metadata for a way filled at `now`.
    pub fn inserted(now: u64) -> Self {
        WayMeta {
            last_access: now,
            inserted_at: now,
            referenced: false,
            protected: false,
        }
    }
}

/// Index of the way with the smallest `key`, first match winning ties —
/// the same selection rule as the original `min_by_key` timestamp scan.
fn min_way_by(meta: &[WayMeta], key: impl Fn(&WayMeta) -> u64) -> usize {
    meta.iter()
        .enumerate()
        .min_by_key(|(_, m)| key(m))
        .map(|(i, _)| i)
        .expect("set not empty")
}

/// A cached page of a set with `ways` ways was hit (or re-inserted) at
/// `way`. The cache stamps `meta[way].last_access` first, so this only
/// maintains what a policy adds on top of recency:
///
/// * CLOCK sets the way's reference bit;
/// * 2Q promotes the way to the protected segment, capped at half the ways,
///   demoting the coldest other protected way on overflow.
pub(crate) fn on_hit(kind: EvictionPolicyKind, meta: &mut [WayMeta], way: usize, ways: usize) {
    match kind {
        EvictionPolicyKind::PseudoLru | EvictionPolicyKind::Fifo => {}
        EvictionPolicyKind::Clock => meta[way].referenced = true,
        EvictionPolicyKind::TwoQ => {
            if meta[way].protected {
                return;
            }
            meta[way].protected = true;
            let protected = meta.iter().filter(|m| m.protected).count();
            if protected > (ways / 2).max(1) {
                // Demote the coldest protected way (other than the one just
                // promoted) back to probationary.
                if let Some(demote) = meta
                    .iter()
                    .enumerate()
                    .filter(|&(i, m)| m.protected && i != way)
                    .min_by_key(|(_, m)| m.last_access)
                    .map(|(i, _)| i)
                {
                    meta[demote].protected = false;
                }
            }
        }
    }
}

/// Picks the victim way of a full set. `meta` is never empty; `hand` is the
/// set's CLOCK hand.
///
/// * pseudo-LRU evicts the smallest `last_access` tick (the default);
/// * CLOCK sweeps from the hand, clearing reference bits, and evicts the
///   first unreferenced way;
/// * 2Q evicts the least recent probationary way, or the least recent way
///   when every way is protected;
/// * FIFO evicts the oldest-inserted way regardless of use.
pub(crate) fn victim(kind: EvictionPolicyKind, meta: &mut [WayMeta], hand: &mut usize) -> usize {
    match kind {
        EvictionPolicyKind::PseudoLru => min_way_by(meta, |m| m.last_access),
        EvictionPolicyKind::Clock => {
            let mut at = *hand % meta.len();
            // At most one full sweep clears every reference bit, so the
            // second sweep is guaranteed to find a victim.
            for _ in 0..2 * meta.len() {
                if meta[at].referenced {
                    meta[at].referenced = false;
                    at = (at + 1) % meta.len();
                } else {
                    *hand = (at + 1) % meta.len();
                    return at;
                }
            }
            unreachable!("CLOCK sweep always finds an unreferenced way");
        }
        EvictionPolicyKind::TwoQ => meta
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.protected)
            .min_by_key(|(_, m)| m.last_access)
            .map(|(i, _)| i)
            .unwrap_or_else(|| min_way_by(meta, |m| m.last_access)),
        EvictionPolicyKind::Fifo => min_way_by(meta, |m| m.inserted_at),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(stamps: &[(u64, bool, bool)]) -> Vec<WayMeta> {
        stamps
            .iter()
            .map(|&(last_access, referenced, protected)| WayMeta {
                last_access,
                inserted_at: last_access,
                referenced,
                protected,
            })
            .collect()
    }

    #[test]
    fn pseudo_lru_picks_the_oldest_tick() {
        let mut m = meta(&[(5, false, false), (2, false, false), (9, false, false)]);
        assert_eq!(victim(EvictionPolicyKind::PseudoLru, &mut m, &mut 0), 1);
    }

    #[test]
    fn clock_gives_referenced_ways_a_second_chance() {
        let mut hand = 0;
        let mut m = meta(&[(1, true, false), (2, false, false), (3, true, false)]);
        // Hand starts at 0: way 0 is referenced (cleared, skipped), way 1 is
        // the victim.
        assert_eq!(victim(EvictionPolicyKind::Clock, &mut m, &mut hand), 1);
        assert!(!m[0].referenced, "sweep clears reference bits");
        // Hand resumes after the victim: way 2 cleared, wraps, evicts way 0.
        m[1] = WayMeta::inserted(4);
        assert_eq!(victim(EvictionPolicyKind::Clock, &mut m, &mut hand), 0);
    }

    #[test]
    fn clock_all_referenced_sweeps_then_evicts_at_hand() {
        let mut m = meta(&[(1, true, false), (2, true, false)]);
        assert_eq!(victim(EvictionPolicyKind::Clock, &mut m, &mut 0), 0);
    }

    #[test]
    fn two_q_protects_rereferenced_ways() {
        let mut m = meta(&[
            (1, false, false),
            (2, false, false),
            (3, false, false),
            (4, false, false),
        ]);
        on_hit(EvictionPolicyKind::TwoQ, &mut m, 0, 4);
        assert!(m[0].protected);
        // Victim comes from the probationary segment, not the protected way
        // 0 even though it has the oldest tick.
        assert_eq!(victim(EvictionPolicyKind::TwoQ, &mut m, &mut 0), 1);
    }

    #[test]
    fn two_q_caps_the_protected_segment() {
        // 4 ways: the protected cap is 2.
        let mut m = meta(&[
            (1, false, false),
            (2, false, false),
            (3, false, false),
            (4, false, false),
        ]);
        on_hit(EvictionPolicyKind::TwoQ, &mut m, 0, 4);
        on_hit(EvictionPolicyKind::TwoQ, &mut m, 1, 4);
        on_hit(EvictionPolicyKind::TwoQ, &mut m, 2, 4);
        // Promoting way 2 overflows the cap; the coldest other protected way
        // (way 0) is demoted.
        assert_eq!(m.iter().filter(|w| w.protected).count(), 2);
        assert!(!m[0].protected);
        assert!(m[1].protected && m[2].protected);
    }

    #[test]
    fn two_q_falls_back_when_everything_is_protected() {
        let mut m = meta(&[(7, false, true), (3, false, true)]);
        assert_eq!(victim(EvictionPolicyKind::TwoQ, &mut m, &mut 0), 1);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut m = meta(&[(1, false, false), (2, false, false)]);
        m[0].last_access = 100; // heavily re-referenced, still first in
        assert_eq!(victim(EvictionPolicyKind::Fifo, &mut m, &mut 0), 0);
    }
}
