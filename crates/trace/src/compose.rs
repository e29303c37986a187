//! Trace compositors: build multi-tenant and repeated scenarios from
//! existing traces without writing new generator code.
//!
//! * [`Mix`] — deterministic proportional interleave of N sources by weight,
//! * [`Concat`] — one source after another, per thread,
//! * [`LoopN`] — repeat a rewindable source a fixed number of times,
//! * [`Shift`] — re-base a source's footprint by a byte offset,
//! * [`Tenants`] — stack sources side by side on the thread axis, each
//!   input's tenants numbered after the previous inputs'.
//!
//! All compositors are themselves [`TraceSource`]s, so they nest: a two
//! tenant mix of a shifted replay and a live generator is
//! `Mix::new(vec![(Box::new(Shift::new(a, off)), 2), (Box::new(b), 1)])`.
//!
//! Every compositor also reports the thread → tenant partition of its
//! output ([`TraceSource::tenant_of`]): [`Shift`] and [`LoopN`] forward
//! their inner source's tenancy, [`Mix`] and [`Concat`] report the tenant
//! of the first input contributing to a thread (their output threads merge
//! streams, so tenancy is per-thread, not per-record), and [`Tenants`]
//! gives each input its own range of tenant ids, so stacked stacks keep
//! every tenant apart.

use crate::error::TraceError;
use crate::record::TraceRecord;
use crate::source::TraceSource;
use skybyte_types::TenantId;

/// A boxed source, the currency of composition.
pub type BoxedSource = Box<dyn TraceSource>;

/// Deterministic proportional interleave of N sources.
///
/// Per thread, each source carries a credit counter; every pull adds each
/// live source's weight to its credit and emits from the highest-credit
/// source (ties broken by input order), subtracting the total live weight —
/// the classic smooth weighted round-robin. A 2:1 mix of `a` and `b`
/// therefore yields `a b a a b a …` until a source runs dry, after which the
/// remaining sources continue in proportion. Every record of every input is
/// emitted exactly once, so a mix conserves total access count.
#[derive(Debug)]
pub struct Mix {
    inputs: Vec<(BoxedSource, u32)>,
    /// Per thread, per source: (credit, exhausted).
    state: Vec<Vec<(i64, bool)>>,
    threads: u32,
}

impl Mix {
    /// Mixes `inputs` proportionally by the given weights. Weights are
    /// `u32`, so a thread's credits (sums of weights) cannot overflow.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or any weight is zero.
    pub fn new(inputs: Vec<(BoxedSource, u32)>) -> Self {
        assert!(!inputs.is_empty(), "Mix needs at least one input");
        assert!(
            inputs.iter().all(|(_, w)| *w > 0),
            "Mix weights must be positive"
        );
        let threads = inputs.iter().map(|(s, _)| s.threads()).max().unwrap_or(1);
        let state = (0..threads)
            .map(|_| inputs.iter().map(|_| (0i64, false)).collect())
            .collect();
        Mix {
            inputs,
            state,
            threads,
        }
    }
}

impl TraceSource for Mix {
    fn threads(&self) -> u32 {
        self.threads
    }

    fn identity(&self) -> String {
        let parts: Vec<String> = self
            .inputs
            .iter()
            .map(|(s, w)| format!("{}*{w}", s.identity()))
            .collect();
        format!("mix({})", parts.join(","))
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        if thread >= self.threads {
            return Err(TraceError::ThreadOutOfRange {
                threads: self.threads,
                requested: thread,
            });
        }
        let state = &mut self.state[thread as usize];
        loop {
            // A source participates while it still has this thread's stream.
            let mut live_weight = 0i64;
            for (i, (source, weight)) in self.inputs.iter().enumerate() {
                if !state[i].1 && thread < source.threads() {
                    live_weight += i64::from(*weight);
                }
            }
            if live_weight == 0 {
                return Ok(None);
            }
            let mut best: Option<usize> = None;
            for (i, (source, weight)) in self.inputs.iter().enumerate() {
                if state[i].1 || thread >= source.threads() {
                    continue;
                }
                state[i].0 += i64::from(*weight);
                if best.is_none_or(|b| state[i].0 > state[b].0) {
                    best = Some(i);
                }
            }
            let chosen = best.expect("live_weight > 0 implies a live source");
            state[chosen].0 -= live_weight;
            match self.inputs[chosen].0.next_record(thread)? {
                Some(record) => return Ok(Some(record)),
                None => state[chosen].1 = true,
            }
        }
    }

    /// A mixed thread interleaves records of several inputs, so tenancy is
    /// resolved per thread: the first input carrying the thread names it.
    fn tenant_of(&self, thread: u32) -> TenantId {
        self.inputs
            .iter()
            .find(|(s, _)| thread < s.threads())
            .map(|(s, _)| s.tenant_of(thread))
            .unwrap_or(TenantId::ZERO)
    }
}

/// Plays sources back to back: per thread, the whole stream of the first
/// input, then the second, and so on.
#[derive(Debug)]
pub struct Concat {
    inputs: Vec<BoxedSource>,
    /// Per thread: index of the input currently being drained.
    current: Vec<usize>,
    threads: u32,
}

impl Concat {
    /// Concatenates `inputs` in order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn new(inputs: Vec<BoxedSource>) -> Self {
        assert!(!inputs.is_empty(), "Concat needs at least one input");
        let threads = inputs.iter().map(|s| s.threads()).max().unwrap_or(1);
        Concat {
            current: vec![0; threads as usize],
            inputs,
            threads,
        }
    }
}

impl TraceSource for Concat {
    fn threads(&self) -> u32 {
        self.threads
    }

    fn identity(&self) -> String {
        let parts: Vec<String> = self.inputs.iter().map(|s| s.identity()).collect();
        format!("concat({})", parts.join(","))
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        if thread >= self.threads {
            return Err(TraceError::ThreadOutOfRange {
                threads: self.threads,
                requested: thread,
            });
        }
        let current = &mut self.current[thread as usize];
        while *current < self.inputs.len() {
            let source = &mut self.inputs[*current];
            if thread < source.threads() {
                if let Some(record) = source.next_record(thread)? {
                    return Ok(Some(record));
                }
            }
            *current += 1;
        }
        Ok(None)
    }

    /// A concatenated thread plays several inputs back to back, so tenancy
    /// is resolved per thread: the first input carrying the thread names it.
    fn tenant_of(&self, thread: u32) -> TenantId {
        self.inputs
            .iter()
            .find(|s| thread < s.threads())
            .map(|s| s.tenant_of(thread))
            .unwrap_or(TenantId::ZERO)
    }
}

/// Repeats a rewindable source `times` times, per thread.
///
/// The inner source must support [`TraceSource::reset_thread`] (recorded
/// `.sbt` files and synthetic generators do); a non-rewindable inner source
/// yields [`TraceError::Unsupported`] at the first loop boundary.
#[derive(Debug)]
pub struct LoopN {
    inner: BoxedSource,
    times: u32,
    /// Per thread: completed iterations.
    done: Vec<u32>,
}

impl LoopN {
    /// Loops `inner` `times` times (`times == 0` is an empty source).
    pub fn new(inner: BoxedSource, times: u32) -> Self {
        let threads = inner.threads();
        LoopN {
            inner,
            times,
            done: vec![0; threads as usize],
        }
    }
}

impl TraceSource for LoopN {
    fn threads(&self) -> u32 {
        self.inner.threads()
    }

    fn identity(&self) -> String {
        format!("loop({},{})", self.inner.identity(), self.times)
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        if thread >= self.inner.threads() {
            return Err(TraceError::ThreadOutOfRange {
                threads: self.inner.threads(),
                requested: thread,
            });
        }
        loop {
            let done = self.done[thread as usize];
            if done >= self.times {
                return Ok(None);
            }
            if let Some(record) = self.inner.next_record(thread)? {
                return Ok(Some(record));
            }
            self.done[thread as usize] = done + 1;
            if self.done[thread as usize] >= self.times {
                return Ok(None);
            }
            if !self.inner.reset_thread(thread)? {
                return Err(TraceError::Unsupported(
                    "LoopN requires a rewindable inner source",
                ));
            }
        }
    }

    fn tenant_of(&self, thread: u32) -> TenantId {
        self.inner.tenant_of(thread)
    }
}

/// Re-bases a source's footprint by adding a byte offset to every address
/// (wrapping), so multiple tenants can occupy disjoint address ranges.
#[derive(Debug)]
pub struct Shift {
    inner: BoxedSource,
    offset_bytes: u64,
}

impl Shift {
    /// Shifts every address of `inner` up by `offset_bytes`.
    pub fn new(inner: BoxedSource, offset_bytes: u64) -> Self {
        Shift {
            inner,
            offset_bytes,
        }
    }
}

impl TraceSource for Shift {
    fn threads(&self) -> u32 {
        self.inner.threads()
    }

    fn identity(&self) -> String {
        format!("shift({},{})", self.inner.identity(), self.offset_bytes)
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        Ok(self
            .inner
            .next_record(thread)?
            .map(|r| r.shifted(self.offset_bytes)))
    }

    fn reset_thread(&mut self, thread: u32) -> Result<bool, TraceError> {
        self.inner.reset_thread(thread)
    }

    fn tenant_of(&self, thread: u32) -> TenantId {
        self.inner.tenant_of(thread)
    }
}

/// Stacks sources side by side on the thread axis: input 0 provides threads
/// `0..n0`, input 1 provides threads `n0..n0+n1`, and so on. This is the
/// engine-facing construction for co-locating independent applications on
/// one simulated device — each input keeps its own streams and footprint
/// (wrap inputs in [`Shift`] for disjoint address ranges), and the output's
/// [`TraceSource::tenant_map`] records the partition the per-tenant
/// counters are attributed by.
///
/// Tenancy: each input's tenants are numbered after those of the inputs
/// before it. Input `i`'s tenant `t` becomes tenant `base + t`, where `base`
/// is the sum of the earlier inputs' tenant counts
/// ([`TenantMap::tenant_count`](skybyte_types::TenantMap::tenant_count)).
/// Plain sources report the single tenant [`TenantId::ZERO`], so stacking
/// them yields tenants 0, 1, 2, … in input order, and stacking two
/// two-tenant stacks yields four tenants.
#[derive(Debug)]
pub struct Tenants {
    inputs: Vec<BoxedSource>,
    /// Exclusive prefix sums of the inputs' thread counts.
    starts: Vec<u32>,
    /// Exclusive prefix sums of the inputs' tenant counts.
    bases: Vec<u32>,
    threads: u32,
}

impl Tenants {
    /// Stacks `inputs`, numbering each input's tenants after the previous
    /// inputs' (input `i` is tenant `i` when every input is single-tenant).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or the total thread or tenant count
    /// overflows `u32`.
    pub fn new(inputs: Vec<BoxedSource>) -> Self {
        assert!(!inputs.is_empty(), "Tenants needs at least one input");
        let mut starts = Vec::with_capacity(inputs.len());
        let mut bases = Vec::with_capacity(inputs.len());
        let (mut threads, mut tenants) = (0u32, 0u32);
        for s in &inputs {
            starts.push(threads);
            bases.push(tenants);
            threads = threads
                .checked_add(s.threads())
                .expect("total thread count overflows u32");
            tenants = u32::try_from(s.tenant_map().tenant_count())
                .ok()
                .and_then(|n| tenants.checked_add(n))
                .expect("total tenant count overflows u32");
        }
        Tenants {
            inputs,
            starts,
            bases,
            threads,
        }
    }

    /// Maps a global thread index to `(input index, local thread index)`.
    fn locate(&self, thread: u32) -> Result<(usize, u32), TraceError> {
        if thread >= self.threads {
            return Err(TraceError::ThreadOutOfRange {
                threads: self.threads,
                requested: thread,
            });
        }
        let i = self.starts.partition_point(|&s| s <= thread) - 1;
        Ok((i, thread - self.starts[i]))
    }
}

impl TraceSource for Tenants {
    fn threads(&self) -> u32 {
        self.threads
    }

    fn identity(&self) -> String {
        let parts: Vec<String> = self.inputs.iter().map(|s| s.identity()).collect();
        format!("tenants({})", parts.join(","))
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        let (i, local) = self.locate(thread)?;
        self.inputs[i].next_record(local)
    }

    fn reset_thread(&mut self, thread: u32) -> Result<bool, TraceError> {
        let (i, local) = self.locate(thread)?;
        self.inputs[i].reset_thread(local)
    }

    fn tenant_of(&self, thread: u32) -> TenantId {
        match self.locate(thread) {
            Ok((i, local)) => TenantId(self.bases[i] + self.inputs[i].tenant_of(local).0),
            Err(_) => TenantId::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use skybyte_types::AccessKind;

    fn tagged(n: u64, tag: u64) -> Vec<TraceRecord> {
        // Encode the source tag in the instruction count so interleavings
        // are observable.
        (0..n)
            .map(|i| TraceRecord::new(tag, i * 64, AccessKind::Read, 64))
            .collect()
    }

    fn boxed(name: &str, streams: Vec<Vec<TraceRecord>>) -> BoxedSource {
        Box::new(VecSource::new(name, streams))
    }

    fn drain(source: &mut dyn TraceSource, thread: u32) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        while let Some(r) = source.next_record(thread).unwrap() {
            out.push(r);
        }
        out
    }

    #[test]
    fn mix_interleaves_proportionally_and_conserves_counts() {
        let mut mix = Mix::new(vec![
            (boxed("a", vec![tagged(20, 1)]), 2),
            (boxed("b", vec![tagged(10, 2)]), 1),
        ]);
        let out = drain(&mut mix, 0);
        assert_eq!(out.len(), 30, "mix must conserve the total record count");
        // Proportionality: among the first 15 pulls, 10 come from a, 5 from b.
        let head_a = out[..15].iter().filter(|r| r.instructions == 1).count();
        assert_eq!(head_a, 10);
        // Determinism.
        let mut mix2 = Mix::new(vec![
            (boxed("a", vec![tagged(20, 1)]), 2),
            (boxed("b", vec![tagged(10, 2)]), 1),
        ]);
        assert_eq!(drain(&mut mix2, 0), out);
        assert!(mix.identity().starts_with("mix("));
    }

    #[test]
    fn mix_continues_after_one_source_dries_up() {
        let mut mix = Mix::new(vec![
            (boxed("a", vec![tagged(2, 1)]), 1),
            (boxed("b", vec![tagged(8, 2)]), 1),
        ]);
        let out = drain(&mut mix, 0);
        assert_eq!(out.len(), 10);
        assert_eq!(out.iter().filter(|r| r.instructions == 2).count(), 8);
    }

    #[test]
    fn mix_spans_unequal_thread_counts() {
        let mut mix = Mix::new(vec![
            (boxed("a", vec![tagged(4, 1), tagged(4, 1)]), 1),
            (boxed("b", vec![tagged(4, 2)]), 1),
        ]);
        assert_eq!(mix.threads(), 2);
        assert_eq!(drain(&mut mix, 0).len(), 8);
        // Thread 1 only exists in source a.
        let t1 = drain(&mut mix, 1);
        assert_eq!(t1.len(), 4);
        assert!(t1.iter().all(|r| r.instructions == 1));
    }

    #[test]
    fn concat_plays_streams_back_to_back() {
        let mut cat = Concat::new(vec![
            boxed("a", vec![tagged(3, 1)]),
            boxed("b", vec![tagged(2, 2)]),
        ]);
        let out = drain(&mut cat, 0);
        let tags: Vec<u64> = out.iter().map(|r| r.instructions).collect();
        assert_eq!(tags, vec![1, 1, 1, 2, 2]);
        assert!(cat.identity().starts_with("concat("));
    }

    #[test]
    fn loop_repeats_rewindable_sources() {
        let mut looped = LoopN::new(boxed("a", vec![tagged(3, 1)]), 3);
        let out = drain(&mut looped, 0);
        assert_eq!(out.len(), 9);
        assert_eq!(out[0], out[3]);
        assert_eq!(out[0], out[6]);
        assert_eq!(looped.identity(), "loop(vec:a,3)");
        // Zero iterations is empty.
        let mut zero = LoopN::new(boxed("a", vec![tagged(3, 1)]), 0);
        assert!(drain(&mut zero, 0).is_empty());
    }

    #[test]
    fn loop_over_non_rewindable_source_errors() {
        // A Mix never rewinds.
        let inner = Mix::new(vec![(boxed("a", vec![tagged(2, 1)]), 1)]);
        let mut looped = LoopN::new(Box::new(inner), 2);
        assert!(looped.next_record(0).unwrap().is_some());
        assert!(looped.next_record(0).unwrap().is_some());
        assert!(matches!(
            looped.next_record(0),
            Err(TraceError::Unsupported(_))
        ));
    }

    #[test]
    fn shift_rebases_addresses() {
        let mut shifted = Shift::new(boxed("a", vec![tagged(3, 1)]), 1 << 30);
        let out = drain(&mut shifted, 0);
        assert_eq!(out[0].addr(), 1 << 30);
        assert_eq!(out[2].addr(), (1 << 30) + 128);
        assert!(shifted.identity().starts_with("shift(vec:a,"));
        // Shift preserves rewindability.
        assert!(shifted.reset_thread(0).unwrap());
        assert_eq!(shifted.next_record(0).unwrap().unwrap().addr(), 1 << 30);
    }

    #[test]
    fn tenants_stacks_threads_and_assigns_tenant_ids() {
        let mut stacked = Tenants::new(vec![
            boxed("a", vec![tagged(3, 1), tagged(3, 1)]),
            boxed("b", vec![tagged(2, 2)]),
        ]);
        assert_eq!(stacked.threads(), 3);
        assert_eq!(stacked.identity(), "tenants(vec:a,vec:b)");
        // Threads 0–1 replay source a; thread 2 replays source b's thread 0.
        assert!(drain(&mut stacked, 0).iter().all(|r| r.instructions == 1));
        assert!(drain(&mut stacked, 1).iter().all(|r| r.instructions == 1));
        let t2 = drain(&mut stacked, 2);
        assert_eq!(t2.len(), 2);
        assert!(t2.iter().all(|r| r.instructions == 2));
        // The tenant partition follows the stacking.
        assert_eq!(stacked.tenant_of(0), TenantId(0));
        assert_eq!(stacked.tenant_of(1), TenantId(0));
        assert_eq!(stacked.tenant_of(2), TenantId(1));
        let map = stacked.tenant_map();
        assert_eq!(map.tenant_count(), 2);
        assert_eq!(map.threads_of(TenantId(0)), 2);
        assert_eq!(map.threads_of(TenantId(1)), 1);
        // Stacked streams stay rewindable.
        assert!(stacked.reset_thread(2).unwrap());
        assert_eq!(stacked.next_record(2).unwrap(), Some(t2[0]));
        assert!(matches!(
            stacked.next_record(3),
            Err(TraceError::ThreadOutOfRange { .. })
        ));
    }

    #[test]
    fn tenants_honours_explicit_inner_tags() {
        // An inner source's tenant ids are kept, offset by the tenant
        // counts of the inputs before it: the tag-5 input spans tenants
        // 0..=5, so the plain input after it is tenant 6.
        #[derive(Debug)]
        struct Tagged(VecSource, TenantId);
        impl TraceSource for Tagged {
            fn threads(&self) -> u32 {
                self.0.threads()
            }
            fn identity(&self) -> String {
                self.0.identity()
            }
            fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
                self.0.next_record(thread)
            }
            fn tenant_of(&self, _thread: u32) -> TenantId {
                self.1
            }
        }
        let explicit = Tagged(VecSource::new("a", vec![tagged(1, 1)]), TenantId(5));
        let stacked = Tenants::new(vec![
            Box::new(explicit) as BoxedSource,
            boxed("b", vec![tagged(1, 2)]),
        ]);
        assert_eq!(stacked.tenant_of(0), TenantId(5), "explicit tag kept");
        assert_eq!(stacked.tenant_of(1), TenantId(6), "numbered after it");
        assert_eq!(stacked.tenant_map().tenant_count(), 7);
    }

    #[test]
    fn stacked_stacks_keep_every_tenant_apart() {
        let pair = |a: &str, b: &str| {
            Box::new(Tenants::new(vec![
                boxed(a, vec![tagged(1, 1)]),
                boxed(b, vec![tagged(1, 2)]),
            ])) as BoxedSource
        };
        let nested = Tenants::new(vec![pair("a", "b"), pair("c", "d")]);
        assert_eq!(nested.threads(), 4);
        let tenants: Vec<TenantId> = (0..4).map(|t| nested.tenant_of(t)).collect();
        assert_eq!(tenants, [0, 1, 2, 3].map(TenantId));
        assert_eq!(nested.tenant_map().tenant_count(), 4);
    }

    #[test]
    fn compositors_forward_tenancy() {
        // Shift and LoopN forward the inner partition; Mix and Concat report
        // the first contributing input's tenant per thread.
        let stacked = || {
            Box::new(Tenants::new(vec![
                boxed("a", vec![tagged(2, 1)]),
                boxed("b", vec![tagged(2, 2)]),
            ])) as BoxedSource
        };
        let shifted = Shift::new(stacked(), 4096);
        assert_eq!(shifted.tenant_of(1), TenantId(1));
        let looped = LoopN::new(stacked(), 2);
        assert_eq!(looped.tenant_of(0), TenantId(0));
        assert_eq!(looped.tenant_of(1), TenantId(1));
        let mix = Mix::new(vec![(stacked(), 1), (boxed("c", vec![tagged(2, 3)]), 1)]);
        assert_eq!(mix.tenant_of(0), TenantId(0));
        assert_eq!(mix.tenant_of(1), TenantId(1));
        let cat = Concat::new(vec![boxed("c", vec![tagged(2, 3)]), stacked()]);
        // Thread 0 exists in the first (single-tenant) input, thread 1 only
        // in the stacked one.
        assert_eq!(cat.tenant_of(0), TenantId(0));
        assert_eq!(cat.tenant_of(1), TenantId(1));
        // Plain sources default to a single tenant.
        assert_eq!(
            boxed("a", vec![tagged(1, 1)]).tenant_map().tenant_count(),
            1
        );
    }

    #[test]
    fn compositors_reject_out_of_range_threads() {
        let mut mix = Mix::new(vec![(boxed("a", vec![tagged(1, 1)]), 1)]);
        assert!(matches!(
            mix.next_record(5),
            Err(TraceError::ThreadOutOfRange { .. })
        ));
        let mut cat = Concat::new(vec![boxed("a", vec![tagged(1, 1)])]);
        assert!(matches!(
            cat.next_record(5),
            Err(TraceError::ThreadOutOfRange { .. })
        ));
        let mut looped = LoopN::new(boxed("a", vec![tagged(1, 1)]), 1);
        assert!(matches!(
            looped.next_record(5),
            Err(TraceError::ThreadOutOfRange { .. })
        ));
    }
}
