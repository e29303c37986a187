//! Tenant identity for multi-tenant simulations.
//!
//! A memory-semantic CXL-SSD is pooled capacity: several applications share
//! one device and contend for its DRAM cache, write log and flash channels.
//! The simulator expresses that by assigning every application thread to a
//! [`TenantId`]; a [`TenantMap`] records the thread → tenant partition a
//! trace source describes, and the engine attributes every access, squash
//! and latency sample to the issuing thread's tenant.

use serde::{Deserialize, Serialize};

/// The identity of one tenant (co-located application) of the simulated
/// device. Tenant ids are dense and zero-based; a single-tenant run uses
/// [`TenantId::ZERO`] for every thread.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant every thread of a single-tenant run belongs to.
    pub const ZERO: TenantId = TenantId(0);

    /// The dense zero-based index of this tenant.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The thread → tenant partition of a set of per-thread access streams.
///
/// Built by asking a trace source which tenant each of its streams belongs
/// to; the engine reads it once at startup and uses it at every attribution
/// point. Tenant ids need not be contiguous in the map, but
/// [`tenant_count`](TenantMap::tenant_count) reports `max id + 1` so dense
/// per-tenant counter vectors can be indexed directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantMap {
    tenants: Vec<TenantId>,
}

impl TenantMap {
    /// Builds the map by asking `f` for each thread's tenant.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn from_fn(threads: u32, f: impl FnMut(u32) -> TenantId) -> Self {
        assert!(threads > 0, "a tenant map needs at least one thread");
        TenantMap {
            tenants: (0..threads).map(f).collect(),
        }
    }

    /// The tenant of `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn tenant_of(&self, thread: u32) -> TenantId {
        self.tenants[thread as usize]
    }

    /// Number of tenants the map can index (`max tenant id + 1`).
    pub fn tenant_count(&self) -> usize {
        self.tenants
            .iter()
            .map(|t| t.index() + 1)
            .max()
            .unwrap_or(1)
    }

    /// Number of threads assigned to `tenant`.
    pub fn threads_of(&self, tenant: TenantId) -> u32 {
        self.tenants.iter().filter(|&&t| t == tenant).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_id_display_and_index() {
        assert_eq!(TenantId(3).index(), 3);
        assert_eq!(TenantId::ZERO.index(), 0);
        assert_eq!(TenantId::default(), TenantId::ZERO);
    }

    #[test]
    fn single_maps_every_thread_to_tenant_zero() {
        let m = TenantMap::from_fn(4, |_| TenantId::ZERO);
        assert_eq!(m.tenants.len(), 4);
        assert_eq!(m.tenant_count(), 1);
        for t in 0..4 {
            assert_eq!(m.tenant_of(t), TenantId::ZERO);
        }
        assert_eq!(m.threads_of(TenantId::ZERO), 4);
    }

    #[test]
    fn from_fn_partitions_threads() {
        // Threads 0–1 → tenant 0, threads 2–4 → tenant 1.
        let m = TenantMap::from_fn(5, |t| TenantId(u32::from(t >= 2)));
        assert_eq!(m.tenant_count(), 2);
        assert_eq!(m.threads_of(TenantId(0)), 2);
        assert_eq!(m.threads_of(TenantId(1)), 3);
        assert_eq!(m.tenant_of(0), TenantId(0));
        assert_eq!(m.tenant_of(4), TenantId(1));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_is_rejected() {
        let _ = TenantMap::from_fn(0, |_| TenantId::ZERO);
    }

    #[test]
    fn tenant_id_serialises_transparently() {
        let json = serde_json::to_string(&TenantId(7)).unwrap();
        assert_eq!(json, "7");
        let back: TenantId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, TenantId(7));
    }
}
