//! The CXL-aware thread scheduler (§III-A).
//!
//! When the Long Delay Exception handler yields the CPU, the scheduler picks
//! the next runnable thread according to one of three policies evaluated in
//! the paper (Figure 10): Round-Robin, Random, or CFS (smallest received
//! execution time). The yielded thread is re-enqueued (or blocked until the
//! SSD expects its data to be ready) so it can be scheduled again later.

use crate::thread::{BlockReason, ThreadControlBlock, ThreadId, ThreadState};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use skybyte_types::{Nanos, SchedPolicy};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Scheduler activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedStats {
    /// Context switches performed (thread yielded and another picked).
    pub context_switches: u64,
}

/// The run queue plus per-thread bookkeeping.
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: SchedPolicy,
    cs_overhead: Nanos,
    threads: Vec<ThreadControlBlock>,
    // The thread running on each core, indexed by core id and grown on a
    // core's first pick.
    running: Vec<Option<ThreadId>>,
    rng: ChaCha12Rng,
    rr_counter: u64,
    stats: SchedStats,
    // Pending wake-ups of blocked threads, keyed `(until, thread index)`.
    // Exact by construction: a thread enters `Blocked` only through
    // `yield_current` (one heap push) and leaves it only through
    // `unblock_expired` (one pop) or `finish_thread` (which purges its
    // entry), so the heap top IS the next wake-up — no polling scan.
    wakeups: BinaryHeap<Reverse<(Nanos, u32)>>,
    // Reusable drain buffer for `unblock_expired`; kept on the struct so the
    // hot path does not allocate per call.
    expired_scratch: Vec<u32>,
}

impl Scheduler {
    /// Creates a scheduler with the given policy, context-switch overhead
    /// (2 µs in Table II) and RNG seed (used by the Random policy only).
    pub fn new(policy: SchedPolicy, cs_overhead: Nanos, seed: u64) -> Self {
        Scheduler {
            policy,
            cs_overhead,
            threads: Vec::new(),
            running: Vec::new(),
            rng: ChaCha12Rng::seed_from_u64(seed),
            rr_counter: 0,
            stats: SchedStats::default(),
            wakeups: BinaryHeap::new(),
            expired_scratch: Vec::new(),
        }
    }

    /// Creates a new runnable thread and returns its id.
    pub fn spawn(&mut self) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        let mut tcb = ThreadControlBlock::new(id);
        self.rr_counter += 1;
        tcb.rr_seq = self.rr_counter;
        self.threads.push(tcb);
        id
    }

    /// The per-switch overhead charged to the core.
    pub fn context_switch_overhead(&self) -> Nanos {
        self.cs_overhead
    }

    /// Number of threads that have not finished.
    pub fn unfinished_threads(&self) -> usize {
        self.threads.iter().filter(|t| !t.is_finished()).count()
    }

    /// Whether every thread has finished its trace.
    pub fn all_finished(&self) -> bool {
        self.threads.iter().all(ThreadControlBlock::is_finished)
    }

    /// Number of runnable threads waiting for a core.
    pub fn runnable_count(&self) -> usize {
        self.threads.iter().filter(|t| t.is_runnable()).count()
    }

    /// The thread currently running on `core`, if any.
    pub fn running_on(&self, core: u32) -> Option<ThreadId> {
        self.running.get(core as usize).copied().flatten()
    }

    /// Makes blocked threads whose wake-up time has passed runnable again.
    ///
    /// Fires on the wake-up heap rather than scanning every thread: O(1)
    /// when nothing expired. Expired threads are made runnable in thread
    /// index order, preserving the rotation sequence the old full scan
    /// assigned.
    pub fn unblock_expired(&mut self, now: Nanos) {
        if !matches!(self.wakeups.peek(), Some(&Reverse((until, _))) if until <= now) {
            return;
        }
        let mut expired = std::mem::take(&mut self.expired_scratch);
        expired.clear();
        while let Some(&Reverse((until, idx))) = self.wakeups.peek() {
            if until > now {
                break;
            }
            self.wakeups.pop();
            expired.push(idx);
        }
        expired.sort_unstable();
        for idx in expired.iter().copied() {
            let t = &mut self.threads[idx as usize];
            debug_assert!(matches!(t.state, ThreadState::Blocked { .. }));
            t.state = ThreadState::Runnable;
            self.rr_counter += 1;
            t.rr_seq = self.rr_counter;
        }
        self.expired_scratch = expired;
    }

    /// Earliest wake-up time among blocked threads, if any (used by idle
    /// cores to decide how long to sleep). O(1): the wake-up heap's top.
    pub fn next_wakeup(&self) -> Option<Nanos> {
        self.wakeups.peek().map(|&Reverse((until, _))| until)
    }

    /// Picks the next thread to run on `core` according to the policy and
    /// marks it running. Returns `None` if no thread is runnable.
    pub fn schedule_on(&mut self, core: u32, now: Nanos) -> Option<ThreadId> {
        self.unblock_expired(now);
        let candidate = self.pick_next(&mut |_| true);
        self.commit_pick(core, candidate)
    }

    /// Like [`Scheduler::schedule_on`], but restricts the pick to runnable
    /// threads for which `allow` returns `true`, falling back to any
    /// runnable thread when no allowed one exists (work conserving). Used by
    /// tenant-aware scheduling hooks that bias cores toward particular
    /// tenants without ever idling a core that has work.
    pub fn schedule_on_filtered(
        &mut self,
        core: u32,
        now: Nanos,
        allow: &mut dyn FnMut(ThreadId) -> bool,
    ) -> Option<ThreadId> {
        self.unblock_expired(now);
        let candidate = self
            .pick_next(allow)
            .or_else(|| self.pick_next(&mut |_| true));
        self.commit_pick(core, candidate)
    }

    fn commit_pick(&mut self, core: u32, candidate: Option<ThreadId>) -> Option<ThreadId> {
        let id = candidate?;
        self.threads[id.0 as usize].state = ThreadState::Running { core };
        let slot = core as usize;
        if slot >= self.running.len() {
            self.running.resize(slot + 1, None);
        }
        self.running[slot] = Some(id);
        Some(id)
    }

    /// Handles the Long Delay Exception (or a voluntary yield) of the thread
    /// running on `core`: the thread stops running, is blocked until
    /// `wake_at` (or immediately runnable if `wake_at <= now`), and the
    /// context-switch overhead is recorded. The caller then calls
    /// [`Scheduler::schedule_on`] to pick the next thread.
    ///
    /// Returns the yielded thread, or `None` if the core was idle.
    pub fn yield_current(
        &mut self,
        core: u32,
        now: Nanos,
        wake_at: Nanos,
        reason: BlockReason,
    ) -> Option<ThreadId> {
        let id = self.running.get_mut(core as usize)?.take()?;
        let t = &mut self.threads[id.0 as usize];
        t.switches += 1;
        if wake_at > now {
            t.state = ThreadState::Blocked {
                reason,
                until: wake_at,
            };
            self.wakeups.push(Reverse((wake_at, id.0)));
        } else {
            t.state = ThreadState::Runnable;
            self.rr_counter += 1;
            t.rr_seq = self.rr_counter;
        }
        self.stats.context_switches += 1;
        Some(id)
    }

    /// Charges `delta` of received execution time to a thread (its CFS
    /// vruntime; all threads have equal weight).
    pub fn account_runtime(&mut self, id: ThreadId, delta: Nanos) {
        self.threads[id.0 as usize].vruntime += delta;
    }

    /// Marks a thread as finished and frees its core if it was running.
    pub fn finish_thread(&mut self, id: ThreadId) {
        match self.threads[id.0 as usize].state {
            ThreadState::Running { core } => {
                self.running[core as usize] = None;
            }
            // Finishing a blocked thread (not something the engine does, but
            // the API allows it) must not leave a stale wake-up behind:
            // cold path, so an O(n) heap rebuild is fine.
            ThreadState::Blocked { .. } => {
                let keep: Vec<_> = self
                    .wakeups
                    .drain()
                    .filter(|&Reverse((_, idx))| idx != id.0)
                    .collect();
                self.wakeups = BinaryHeap::from(keep);
            }
            _ => {}
        }
        self.threads[id.0 as usize].state = ThreadState::Finished;
    }

    /// Scheduler statistics.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    // Picks among runnable threads satisfying `allow` without materialising
    // the candidate set: one (for Random, two) iterator pass(es) over the
    // thread table, no per-call allocation. `allow` must be pure — the
    // Random policy evaluates it once per thread per pass.
    fn pick_next(&mut self, allow: &mut dyn FnMut(ThreadId) -> bool) -> Option<ThreadId> {
        match self.policy {
            // `min_by_key` keeps the first minimum, i.e. the lowest thread
            // index on equal keys — same tie-break as the old indexed scan.
            SchedPolicy::RoundRobin => self
                .threads
                .iter()
                .filter(|t| t.is_runnable() && allow(t.id))
                .min_by_key(|t| t.rr_seq)
                .map(|t| t.id),
            SchedPolicy::Random => {
                let count = self
                    .threads
                    .iter()
                    .filter(|t| t.is_runnable() && allow(t.id))
                    .count();
                if count == 0 {
                    // The RNG must stay untouched on an empty pick so the
                    // random stream matches the collected-Vec original.
                    return None;
                }
                let idx = self.rng.gen_range(0..count);
                self.threads
                    .iter()
                    .filter(|t| t.is_runnable() && allow(t.id))
                    .nth(idx)
                    .map(|t| t.id)
            }
            SchedPolicy::Cfs => self
                .threads
                .iter()
                .filter(|t| t.is_runnable() && allow(t.id))
                .min_by_key(|t| (t.vruntime, t.id.0))
                .map(|t| t.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(policy: SchedPolicy) -> Scheduler {
        Scheduler::new(policy, Nanos::from_micros(2), 7)
    }

    #[test]
    fn spawn_and_schedule() {
        let mut s = sched(SchedPolicy::Cfs);
        let a = s.spawn();
        let b = s.spawn();
        assert_eq!(s.runnable_count(), 2);
        let first = s.schedule_on(0, Nanos::ZERO).unwrap();
        assert!(first == a || first == b);
        assert_eq!(s.running_on(0), Some(first));
        assert_eq!(s.runnable_count(), 1);
        let second = s.schedule_on(1, Nanos::ZERO).unwrap();
        assert_ne!(first, second);
        assert!(s.schedule_on(2, Nanos::ZERO).is_none());
    }

    #[test]
    fn cfs_prefers_least_vruntime() {
        let mut s = sched(SchedPolicy::Cfs);
        let a = s.spawn();
        let b = s.spawn();
        s.account_runtime(a, Nanos::from_micros(100));
        s.account_runtime(b, Nanos::from_micros(1));
        let picked = s.schedule_on(0, Nanos::ZERO).unwrap();
        assert_eq!(picked, b);
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = sched(SchedPolicy::RoundRobin);
        let a = s.spawn();
        let b = s.spawn();
        let c = s.spawn();
        // Spawn order determines the first rotation.
        let first = s.schedule_on(0, Nanos::ZERO).unwrap();
        assert_eq!(first, a);
        // Yield a (immediately runnable again): it goes to the back.
        s.yield_current(0, Nanos::ZERO, Nanos::ZERO, BlockReason::LongSsdAccess);
        assert_eq!(s.schedule_on(0, Nanos::ZERO).unwrap(), b);
        s.yield_current(0, Nanos::ZERO, Nanos::ZERO, BlockReason::LongSsdAccess);
        assert_eq!(s.schedule_on(0, Nanos::ZERO).unwrap(), c);
        s.yield_current(0, Nanos::ZERO, Nanos::ZERO, BlockReason::LongSsdAccess);
        assert_eq!(s.schedule_on(0, Nanos::ZERO).unwrap(), a);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = Scheduler::new(SchedPolicy::Random, Nanos::ZERO, seed);
            for _ in 0..8 {
                s.spawn();
            }
            let mut order = Vec::new();
            for _ in 0..8 {
                let t = s.schedule_on(0, Nanos::ZERO).unwrap();
                order.push(t);
                s.yield_current(0, Nanos::ZERO, Nanos::from_secs(1), BlockReason::Other);
            }
            order
        };
        assert_eq!(run(1), run(1));
        // With eight threads two different seeds almost surely differ.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn yield_blocks_until_wakeup() {
        let mut s = sched(SchedPolicy::Cfs);
        let a = s.spawn();
        s.schedule_on(0, Nanos::ZERO);
        let wake = Nanos::from_micros(10);
        let yielded = s
            .yield_current(0, Nanos::ZERO, wake, BlockReason::LongSsdAccess)
            .unwrap();
        assert_eq!(yielded, a);
        assert_eq!(s.runnable_count(), 0);
        assert_eq!(s.next_wakeup(), Some(wake));
        // Before the wakeup time nothing is runnable.
        assert!(s.schedule_on(0, Nanos::from_micros(5)).is_none());
        // After it, the thread runs again.
        assert_eq!(s.schedule_on(0, wake), Some(a));
        assert_eq!(s.stats().context_switches, 1);
        assert_eq!(s.threads[a.0 as usize].switches, 1);
    }

    #[test]
    fn yield_on_idle_core_is_none() {
        let mut s = sched(SchedPolicy::Cfs);
        s.spawn();
        assert!(s
            .yield_current(3, Nanos::ZERO, Nanos::ZERO, BlockReason::Other)
            .is_none());
    }

    #[test]
    fn filtered_schedule_prefers_allowed_threads_but_is_work_conserving() {
        let mut s = sched(SchedPolicy::Cfs);
        let a = s.spawn();
        let b = s.spawn();
        // CFS would pick `a` (equal vruntime, lowest id); the filter steers
        // the pick to `b`.
        let picked = s
            .schedule_on_filtered(0, Nanos::ZERO, &mut |id| id == b)
            .unwrap();
        assert_eq!(picked, b);
        // With no allowed thread runnable, the pick falls back to any
        // runnable thread rather than idling the core.
        let fallback = s
            .schedule_on_filtered(1, Nanos::ZERO, &mut |id| id == b)
            .unwrap();
        assert_eq!(fallback, a);
        // A filtered pick is not a context switch.
        assert_eq!(s.stats().context_switches, 0);
        // Nothing runnable at all leaves the core idle.
        assert!(s
            .schedule_on_filtered(2, Nanos::ZERO, &mut |_| true)
            .is_none());
    }

    #[test]
    fn finish_thread_frees_core() {
        let mut s = sched(SchedPolicy::Cfs);
        let a = s.spawn();
        s.schedule_on(0, Nanos::ZERO);
        s.finish_thread(a);
        assert!(s.all_finished());
        assert_eq!(s.unfinished_threads(), 0);
        assert_eq!(s.running_on(0), None);
        assert!(s.schedule_on(0, Nanos::ZERO).is_none());
    }
}
