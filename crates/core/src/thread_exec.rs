//! Per-thread trace execution state.
//!
//! Each application thread replays a bounded stream of records pulled from
//! the simulation's [`TraceSource`] — a live synthetic generator, a
//! recorded `.sbt` trace, or a composition. When the coordinated context
//! switch yields a thread in the middle of a memory access (the instruction
//! is squashed, §III-A), the access is *pushed back* so that the thread
//! re-issues it when it is scheduled again, exactly like the replayed
//! instruction of step C4 in Figure 7.
//!
//! The executor prefetches exactly one record ahead of execution. That keeps
//! [`is_finished`](ThreadExecutor::is_finished) exact for *finite* sources
//! too (a replayed trace ends when the stream does, a generator when the
//! budget is spent), so the engine observes the same thread-completion
//! instants — and therefore makes the same scheduling decisions — whether
//! it runs live or from a recording.
//!
//! A source failure (an I/O error or corruption in a replayed trace) is
//! returned as the source's [`TraceError`], for the engine to pass up.

use skybyte_workloads::{TraceError, TraceRecord, TraceSource};

/// The execution state of one thread: its stream position, its remaining
/// work budget, and an optional access pending re-issue.
#[derive(Debug, Clone)]
pub(crate) struct ThreadExecutor {
    thread: u32,
    budget: u64,
    issued: u64,
    /// Access pending re-issue after a context switch.
    pending: Option<TraceRecord>,
    /// The next record of the stream, pulled one step ahead.
    prefetched: Option<TraceRecord>,
}

impl ThreadExecutor {
    /// Creates the executor for stream `thread` of `source`, limited to
    /// `budget` work units, and prefetches the first record.
    pub(crate) fn new(
        thread: u32,
        budget: u64,
        source: &mut dyn TraceSource,
    ) -> Result<Self, TraceError> {
        let mut exec = ThreadExecutor {
            thread,
            budget,
            issued: 0,
            pending: None,
            prefetched: None,
        };
        if budget > 0 {
            exec.prefetch(source)?;
        }
        Ok(exec)
    }

    fn prefetch(&mut self, source: &mut dyn TraceSource) -> Result<(), TraceError> {
        debug_assert!(self.prefetched.is_none());
        self.prefetched = source.next_record(self.thread)?;
        Ok(())
    }

    /// The next record to execute, or `None` when the trace is finished.
    /// A pushed-back access is returned first (with zero compute, since the
    /// compute burst before it already executed). Fails if the source fails
    /// while prefetching the successor.
    pub(crate) fn next_unit(
        &mut self,
        source: &mut dyn TraceSource,
    ) -> Result<Option<TraceRecord>, TraceError> {
        if let Some(p) = self.pending.take() {
            return Ok(Some(p));
        }
        let Some(unit) = self.prefetched.take() else {
            return Ok(None);
        };
        self.issued += 1;
        if self.issued < self.budget {
            self.prefetch(source)?;
        }
        Ok(Some(unit))
    }

    /// Pushes an access back for re-issue after a context switch. The compute
    /// part is zeroed: it has already been accounted.
    pub(crate) fn push_back(&mut self, unit: TraceRecord) {
        debug_assert!(self.pending.is_none(), "only one access can be pending");
        self.pending = Some(TraceRecord {
            instructions: 0,
            ..unit
        });
    }

    /// Whether the trace is exhausted and nothing is pending. Exact even
    /// for finite sources, thanks to the one-record prefetch.
    pub(crate) fn is_finished(&self) -> bool {
        self.pending.is_none() && self.prefetched.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_workloads::{WorkloadKind, WorkloadSource};

    fn source() -> WorkloadSource {
        let spec = WorkloadKind::Ycsb.spec().scaled_to(8 << 20);
        WorkloadSource::new(&spec, 2, 1)
    }

    #[test]
    fn budget_bounds_the_trace() {
        let mut s = source();
        let mut e = ThreadExecutor::new(0, 5, &mut s).unwrap();
        let mut count = 0;
        while e.next_unit(&mut s).unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 5);
        assert!(e.is_finished());
        assert_eq!(e.issued, 5);
    }

    #[test]
    fn finite_sources_end_the_trace_before_the_budget() {
        let spec = WorkloadKind::Ycsb.spec().scaled_to(8 << 20);
        let mut live = WorkloadSource::new(&spec, 1, 3);
        let units: Vec<TraceRecord> = (0..4)
            .map(|_| live.next_record(0).unwrap().unwrap())
            .collect();
        let mut replay = skybyte_trace::VecSource::new("finite", vec![units]);
        let mut e = ThreadExecutor::new(0, u64::MAX, &mut replay).unwrap();
        let mut count = 0;
        while e.next_unit(&mut replay).unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 4);
        assert!(e.is_finished());
    }

    #[test]
    fn push_back_reissues_the_same_access_without_compute() {
        let mut s = source();
        let mut e = ThreadExecutor::new(0, 3, &mut s).unwrap();
        let first = e.next_unit(&mut s).unwrap().unwrap();
        e.push_back(first);
        let reissued = e.next_unit(&mut s).unwrap().unwrap();
        assert_eq!(reissued.access, first.access);
        assert_eq!(reissued.instructions, 0);
        // The re-issue does not consume budget.
        let mut remaining = 0;
        while e.next_unit(&mut s).unwrap().is_some() {
            remaining += 1;
        }
        assert_eq!(remaining, 2);
    }

    #[test]
    fn pending_access_defers_finish() {
        let mut s = source();
        let mut e = ThreadExecutor::new(0, 1, &mut s).unwrap();
        let u = e.next_unit(&mut s).unwrap().unwrap();
        assert!(e.is_finished());
        e.push_back(u);
        assert!(!e.is_finished());
        assert!(e.next_unit(&mut s).unwrap().is_some());
        assert!(e.next_unit(&mut s).unwrap().is_none());
        assert!(e.is_finished());
    }

    #[test]
    fn finish_is_observable_immediately_after_the_last_unit() {
        // The prefetch makes completion visible without an extra pull —
        // the property that keeps live and replayed scheduling identical.
        let mut s = source();
        let mut e = ThreadExecutor::new(1, 2, &mut s).unwrap();
        assert!(!e.is_finished());
        let _ = e.next_unit(&mut s).unwrap().unwrap();
        assert!(!e.is_finished());
        let _ = e.next_unit(&mut s).unwrap().unwrap();
        assert!(e.is_finished());
    }

    #[test]
    fn zero_budget_is_immediately_finished() {
        let mut s = source();
        let mut e = ThreadExecutor::new(0, 0, &mut s).unwrap();
        assert!(e.next_unit(&mut s).unwrap().is_none());
        assert!(e.is_finished());
    }
}
