//! Per-tenant write-log partition accounting.
//!
//! The write log is a shared device resource: one log-hungry tenant can fill
//! it, forcing compactions whose latency every co-located tenant pays. This
//! module tracks *recent* log appends per tenant over a sliding half-life
//! window so a QoS scheduler can tell who is crowding the log right now:
//!
//! * every append is attributed to the tenant that issued it,
//! * when the window fills, all counters are halved (exponential decay), so
//!   the accounting follows current behaviour instead of run-length totals,
//! * a tenant is **over quota** when its windowed appends exceed its even
//!   share of the window.
//!
//! The bookkeeping is purely observational — it never blocks an append —
//! which keeps the write path bit-identical; consumers (the `qos` tenant
//! scheduler in `skybyte-sim`) act on it only when choosing among runnable
//! threads.

/// Windowed per-tenant append counters over a shared write log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteLogPartitions {
    /// Decay threshold: when the windowed total reaches this many appends,
    /// every counter is halved.
    window: u64,
    /// Windowed appends per tenant, indexed by dense tenant id.
    appends: Vec<u64>,
    /// Sum of `appends` (maintained incrementally, checked by tests).
    total: u64,
}

impl WriteLogPartitions {
    /// Accounting for `tenants` tenants with a decay window of
    /// `window_entries` appends (clamped so every tenant has a quota of at
    /// least one entry).
    pub fn new(tenants: usize, window_entries: u64) -> Self {
        let tenants = tenants.max(1);
        WriteLogPartitions {
            window: window_entries.max(tenants as u64),
            appends: vec![0; tenants],
            total: 0,
        }
    }

    /// Number of tenants tracked.
    pub fn tenant_count(&self) -> usize {
        self.appends.len()
    }

    /// A tenant's even share of the window.
    pub fn quota(&self) -> u64 {
        self.window / self.appends.len() as u64
    }

    /// Records one log append by `tenant`, decaying all counters when the
    /// window fills.
    pub fn note_append(&mut self, tenant: usize) {
        self.appends[tenant] += 1;
        self.total += 1;
        if self.total >= self.window {
            self.total = 0;
            for a in &mut self.appends {
                *a /= 2;
                self.total += *a;
            }
        }
    }

    /// Whether `tenant`'s windowed appends exceed its even share.
    pub fn over_quota(&self, tenant: usize) -> bool {
        self.appends[tenant] > self.quota()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_are_attributed_and_conserved() {
        let mut p = WriteLogPartitions::new(3, 100);
        for _ in 0..10 {
            p.note_append(0);
        }
        for _ in 0..4 {
            p.note_append(2);
        }
        assert_eq!(p.appends, [10, 0, 4]);
        assert_eq!(p.total, 14);
        assert_eq!(p.total, p.appends.iter().sum::<u64>());
    }

    #[test]
    fn over_quota_flags_the_log_hog() {
        let mut p = WriteLogPartitions::new(2, 10);
        // Quota is 5 per tenant; 6 appends tip tenant 0 over.
        for _ in 0..6 {
            p.note_append(0);
        }
        assert!(p.over_quota(0));
        assert!(!p.over_quota(1));
    }

    #[test]
    fn window_fill_halves_all_counters() {
        let mut p = WriteLogPartitions::new(2, 10);
        for _ in 0..8 {
            p.note_append(0);
        }
        p.note_append(1);
        // The 10th append trips the decay: (9, 1) -> (4, 0).
        p.note_append(0);
        assert_eq!(p.appends, [4, 0]);
        assert_eq!(p.total, p.appends.iter().sum::<u64>());
        assert!(p.total < p.window);
    }

    #[test]
    fn window_is_clamped_to_give_everyone_a_quota() {
        let p = WriteLogPartitions::new(8, 0);
        assert_eq!(p.window, 8);
        assert_eq!(p.quota(), 1);
    }
}
