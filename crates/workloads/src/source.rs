//! The synthetic workload as a [`TraceSource`], so the simulation engine
//! can be driven interchangeably by live generation, a recorded `.sbt`
//! file, or any composition of the two.

use crate::generator::TraceGenerator;
use crate::spec::WorkloadSpec;
use crate::zipf::Zipf;
use skybyte_trace::{TraceError, TraceRecord, TraceSource};
use skybyte_types::TenantId;
use std::sync::Arc;

/// The multi-threaded synthetic source the engine runs by default: one
/// deterministic generator per thread, each emitting one-cacheline records.
///
/// # Determinism
///
/// The same `(spec, threads, seed)` tuple yields an **identical stream per
/// thread** on every construction: each thread's generator is a
/// `ChaCha12Rng` seeded from `seed ^ f(thread)` plus counters derived from
/// the spec, and no global or ambient state is consulted. The threads share
/// one read-only hot-set Zipf table, built once here; it is a pure function
/// of the spec, so sharing it changes no stream. This is the contract that
/// makes trace recording/replay bit-exact and the memoizing parallel
/// runner sound — harness output is identical across `--jobs` values
/// because each thread's stream never depends on who pulls it or when.
///
/// The source is unbounded (generators never end); consumers bound it with
/// their own budget, and [`TraceSource::reset_thread`] rebuilds one thread's
/// generator from scratch over the same table, which makes the source
/// loopable.
#[derive(Debug, Clone)]
pub struct WorkloadSource {
    spec: WorkloadSpec,
    seed: u64,
    tenant: TenantId,
    hot_zipf: Arc<Zipf>,
    generators: Vec<TraceGenerator>,
}

impl WorkloadSource {
    /// Builds the per-thread generators for `threads` threads of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(spec: &WorkloadSpec, threads: u32, seed: u64) -> Self {
        assert!(threads > 0, "at least one thread required");
        let hot_zipf = TraceGenerator::hot_table(spec);
        let generators = (0..threads)
            .map(|t| TraceGenerator::new(spec, t, threads, seed, Arc::clone(&hot_zipf)))
            .collect();
        WorkloadSource {
            spec: *spec,
            seed,
            tenant: TenantId::ZERO,
            hot_zipf,
            generators,
        }
    }

    /// Returns a copy whose streams all report `tenant` (the multi-tenant
    /// constructor tags each co-located application's source this way before
    /// stacking them with [`skybyte_trace::Tenants`]).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// The workload spec driving every thread.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }
}

impl TraceSource for WorkloadSource {
    fn threads(&self) -> u32 {
        self.generators.len() as u32
    }

    fn identity(&self) -> String {
        // The tenant tag is appended only when set, so single-tenant
        // identities (and everything derived from them — recorded trace
        // headers, memo fingerprints) are byte-identical to the pre-tenant
        // format.
        let tenant = if self.tenant == TenantId::ZERO {
            String::new()
        } else {
            format!(":{}", self.tenant)
        };
        format!(
            "synthetic:{}:fp{}:t{}:seed{}{tenant}",
            self.spec.name(),
            self.spec.footprint_bytes,
            self.generators.len(),
            self.seed
        )
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        match self.generators.get_mut(thread as usize) {
            Some(generator) => Ok(Some(generator.next_unit())),
            None => Err(TraceError::ThreadOutOfRange {
                threads: self.threads(),
                requested: thread,
            }),
        }
    }

    fn reset_thread(&mut self, thread: u32) -> Result<bool, TraceError> {
        let threads = self.threads();
        match self.generators.get_mut(thread as usize) {
            Some(generator) => {
                *generator = TraceGenerator::new(
                    &self.spec,
                    thread,
                    threads,
                    self.seed,
                    Arc::clone(&self.hot_zipf),
                );
                Ok(true)
            }
            None => Err(TraceError::ThreadOutOfRange {
                threads,
                requested: thread,
            }),
        }
    }

    fn tenant_of(&self, _thread: u32) -> TenantId {
        self.tenant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadKind;

    fn spec() -> WorkloadSpec {
        WorkloadKind::Ycsb.spec().scaled_to(16 << 20)
    }

    #[test]
    fn workload_source_matches_per_thread_generators() {
        let spec = spec();
        let mut source = WorkloadSource::new(&spec, 4, 11);
        for t in 0..4u32 {
            let own_table = TraceGenerator::hot_table(&spec);
            let mut reference = TraceGenerator::new(&spec, t, 4, 11, own_table);
            for _ in 0..500 {
                let from_source = source.next_record(t).unwrap().expect("unbounded");
                assert_eq!(from_source, reference.next_unit(), "thread {t}");
            }
        }
        assert!(matches!(
            source.next_record(4),
            Err(TraceError::ThreadOutOfRange { .. })
        ));
    }

    #[test]
    fn pull_order_across_threads_does_not_change_streams() {
        let spec = spec();
        // Round-robin pulls vs thread-at-a-time pulls must see the same
        // per-thread streams (the engine interleaves in simulated-time
        // order, which varies with the variant under test).
        let mut a = WorkloadSource::new(&spec, 2, 5);
        let mut b = WorkloadSource::new(&spec, 2, 5);
        let mut a_units: Vec<Vec<TraceRecord>> = vec![Vec::new(), Vec::new()];
        for i in 0..1_000u32 {
            let t = i % 2;
            a_units[t as usize].push(a.next_record(t).unwrap().unwrap());
        }
        for t in 0..2u32 {
            for (i, expected) in a_units[t as usize].iter().enumerate() {
                assert_eq!(
                    b.next_record(t).unwrap().as_ref(),
                    Some(expected),
                    "thread {t} record {i}"
                );
            }
        }
    }

    #[test]
    fn reset_rewinds_one_thread_only() {
        let spec = spec();
        let mut source = WorkloadSource::new(&spec, 2, 9);
        let first_t0 = source.next_record(0).unwrap().unwrap();
        let _ = source.next_record(1).unwrap().unwrap();
        let second_t1 = source.next_record(1).unwrap().unwrap();
        assert!(source.reset_thread(0).unwrap());
        assert_eq!(source.next_record(0).unwrap().unwrap(), first_t0);
        // Thread 1 was not rewound.
        assert_ne!(source.next_record(1).unwrap().unwrap(), second_t1);
    }

    #[test]
    fn threads_share_one_hot_table_across_resets() {
        let spec = spec();
        let mut source = WorkloadSource::new(&spec, 4, 9);
        let shares_one_table = |source: &WorkloadSource| {
            source
                .generators
                .iter()
                .all(|g| Arc::ptr_eq(g.hot_zipf(), &source.hot_zipf))
        };
        assert!(shares_one_table(&source));
        let _ = source.next_record(2).unwrap();
        assert!(source.reset_thread(2).unwrap());
        assert!(shares_one_table(&source));
        // The source and its four generators hold the only references.
        assert_eq!(Arc::strong_count(&source.hot_zipf), 5);
    }

    #[test]
    fn tenant_tag_is_reported_and_scoped_to_the_identity_suffix() {
        use skybyte_types::TenantId;
        let spec = spec();
        let plain = WorkloadSource::new(&spec, 2, 3);
        assert_eq!(plain.tenant_of(0), TenantId::ZERO);
        assert!(!plain.identity().contains(":t1:seed3:"));
        let tagged = WorkloadSource::new(&spec, 2, 3).with_tenant(TenantId(2));
        assert_eq!(tagged.tenant_of(1), TenantId(2));
        assert_eq!(tagged.identity(), format!("{}:t2", plain.identity()));
        assert_eq!(tagged.tenant_map().tenant_count(), 3);
        // The tag never perturbs the generated streams.
        let mut a = WorkloadSource::new(&spec, 2, 3);
        let mut b = WorkloadSource::new(&spec, 2, 3).with_tenant(TenantId(1));
        for _ in 0..100 {
            assert_eq!(a.next_record(0).unwrap(), b.next_record(0).unwrap());
        }
    }
}
