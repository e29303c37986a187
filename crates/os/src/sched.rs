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
use skybyte_types::{Nanos, SchedPolicy};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// Scheduler activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    // Threads not finished, and threads runnable, kept as counts so the
    // engine's per-event `all_finished` check reads one integer.
    unfinished: usize,
    runnable: usize,
    // CFS only: the runnable threads keyed `(vruntime, id)`, the policy's
    // pick order. Exact: a thread is in it exactly while it is runnable.
    cfs_queue: BTreeSet<(Nanos, u32)>,
    // Round-robin only: `(rr_seq, id)` of each thread as it became
    // runnable. `rr_seq` only grows, so the FIFO is sorted; an entry is
    // stale once its thread left the runnable state (a later entry carries
    // its new `rr_seq`) and is skipped, then dropped at the front or by a
    // compaction once stale entries outnumber live ones.
    rr_queue: VecDeque<(u64, u32)>,
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
            unfinished: 0,
            runnable: 0,
            cfs_queue: BTreeSet::new(),
            rr_queue: VecDeque::new(),
        }
    }

    /// Creates a new runnable thread and returns its id.
    pub fn spawn(&mut self) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadControlBlock::new(id));
        self.unfinished += 1;
        self.make_runnable(id.0);
        id
    }

    /// The per-switch overhead charged to the core.
    pub fn context_switch_overhead(&self) -> Nanos {
        self.cs_overhead
    }

    /// Number of threads that have not finished.
    pub fn unfinished_threads(&self) -> usize {
        self.unfinished
    }

    /// Whether every thread has finished its trace.
    pub fn all_finished(&self) -> bool {
        self.unfinished == 0
    }

    /// Number of runnable threads waiting for a core.
    pub fn runnable_count(&self) -> usize {
        self.runnable
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
            debug_assert!(matches!(
                self.threads[idx as usize].state,
                ThreadState::Blocked { .. }
            ));
            self.make_runnable(idx);
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
        self.leave_runnable(id.0);
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
        if wake_at > now {
            self.threads[id.0 as usize].state = ThreadState::Blocked {
                reason,
                until: wake_at,
            };
            self.wakeups.push(Reverse((wake_at, id.0)));
        } else {
            self.make_runnable(id.0);
        }
        self.stats.context_switches += 1;
        Some(id)
    }

    /// Charges `delta` of received execution time to a thread (its CFS
    /// vruntime; all threads have equal weight).
    pub fn account_runtime(&mut self, id: ThreadId, delta: Nanos) {
        let t = &mut self.threads[id.0 as usize];
        if self.policy == SchedPolicy::Cfs && t.is_runnable() {
            // Re-key the runnable thread's place in the CFS order.
            self.cfs_queue.remove(&(t.vruntime, id.0));
            t.vruntime += delta;
            self.cfs_queue.insert((t.vruntime, id.0));
        } else {
            t.vruntime += delta;
        }
    }

    /// Marks a thread as finished and frees its core if it was running.
    pub fn finish_thread(&mut self, id: ThreadId) {
        match self.threads[id.0 as usize].state {
            ThreadState::Finished => return,
            ThreadState::Runnable => self.leave_runnable(id.0),
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
        }
        self.threads[id.0 as usize].state = ThreadState::Finished;
        self.unfinished -= 1;
    }

    /// Scheduler statistics.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Makes thread `idx` runnable with a fresh round-robin sequence
    /// number and queues it for the policy's pick.
    fn make_runnable(&mut self, idx: u32) {
        self.rr_counter += 1;
        let t = &mut self.threads[idx as usize];
        t.state = ThreadState::Runnable;
        t.rr_seq = self.rr_counter;
        self.runnable += 1;
        match self.policy {
            SchedPolicy::RoundRobin => {
                self.rr_queue.push_back((t.rr_seq, idx));
                if self.rr_queue.len() > 2 * self.runnable + 16 {
                    let threads = &self.threads;
                    self.rr_queue.retain(|&entry| rr_live(threads, entry));
                }
            }
            SchedPolicy::Cfs => {
                self.cfs_queue.insert((t.vruntime, idx));
            }
            SchedPolicy::Random => {}
        }
    }

    /// Takes runnable thread `idx` out of the policy's queue (a round-robin
    /// entry goes stale once the caller changes the thread's state).
    fn leave_runnable(&mut self, idx: u32) {
        self.runnable -= 1;
        if self.policy == SchedPolicy::Cfs {
            let removed = self
                .cfs_queue
                .remove(&(self.threads[idx as usize].vruntime, idx));
            debug_assert!(removed, "a runnable thread is queued");
        }
    }

    // Picks among runnable threads satisfying `allow` without materialising
    // the candidate set. Round-robin and CFS walk their queue in pick order
    // to the first allowed thread; Random makes two passes over the thread
    // table. `allow` must be pure — the Random policy evaluates it once per
    // thread per pass.
    fn pick_next(&mut self, allow: &mut dyn FnMut(ThreadId) -> bool) -> Option<ThreadId> {
        match self.policy {
            // The lowest live `rr_seq` first: the FIFO is sorted by it.
            SchedPolicy::RoundRobin => {
                let threads = &self.threads;
                while let Some(&entry) = self.rr_queue.front() {
                    if rr_live(threads, entry) {
                        break;
                    }
                    self.rr_queue.pop_front();
                }
                self.rr_queue
                    .iter()
                    .filter(|&&entry| rr_live(threads, entry))
                    .map(|&(_, idx)| ThreadId(idx))
                    .find(|&id| allow(id))
            }
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
            // The lowest `(vruntime, id)` first: the set's order.
            SchedPolicy::Cfs => self
                .cfs_queue
                .iter()
                .map(|&(_, idx)| ThreadId(idx))
                .find(|&id| allow(id)),
        }
    }
}

/// Whether a round-robin queue entry still names its thread's current
/// runnable spell.
fn rr_live(threads: &[ThreadControlBlock], (seq, idx): (u64, u32)) -> bool {
    let t = &threads[idx as usize];
    t.is_runnable() && t.rr_seq == seq
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
                s.yield_current(
                    0,
                    Nanos::ZERO,
                    Nanos::from_millis(1_000),
                    BlockReason::Other,
                );
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

    /// Reference model for [`Scheduler`]'s picks: every pick,
    /// `all_finished` and `runnable_count` scan the thread table.
    struct ReferenceScheduler {
        policy: SchedPolicy,
        threads: Vec<ThreadControlBlock>,
        running: Vec<Option<ThreadId>>,
        rng: ChaCha12Rng,
        rr_counter: u64,
        wakeups: BinaryHeap<Reverse<(Nanos, u32)>>,
    }

    impl ReferenceScheduler {
        fn new(policy: SchedPolicy, seed: u64) -> Self {
            ReferenceScheduler {
                policy,
                threads: Vec::new(),
                running: Vec::new(),
                rng: ChaCha12Rng::seed_from_u64(seed),
                rr_counter: 0,
                wakeups: BinaryHeap::new(),
            }
        }

        fn spawn(&mut self) -> ThreadId {
            let id = ThreadId(self.threads.len() as u32);
            let mut tcb = ThreadControlBlock::new(id);
            self.rr_counter += 1;
            tcb.rr_seq = self.rr_counter;
            self.threads.push(tcb);
            id
        }

        fn unblock_expired(&mut self, now: Nanos) {
            let mut expired = Vec::new();
            while let Some(&Reverse((until, idx))) = self.wakeups.peek() {
                if until > now {
                    break;
                }
                self.wakeups.pop();
                expired.push(idx);
            }
            expired.sort_unstable();
            for idx in expired {
                let t = &mut self.threads[idx as usize];
                t.state = ThreadState::Runnable;
                self.rr_counter += 1;
                t.rr_seq = self.rr_counter;
            }
        }

        fn schedule_on_filtered(
            &mut self,
            core: u32,
            now: Nanos,
            allow: &mut dyn FnMut(ThreadId) -> bool,
        ) -> Option<ThreadId> {
            self.unblock_expired(now);
            let id = self
                .pick_next(allow)
                .or_else(|| self.pick_next(&mut |_| true))?;
            self.threads[id.0 as usize].state = ThreadState::Running { core };
            if core as usize >= self.running.len() {
                self.running.resize(core as usize + 1, None);
            }
            self.running[core as usize] = Some(id);
            Some(id)
        }

        fn yield_current(&mut self, core: u32, now: Nanos, wake_at: Nanos) -> Option<ThreadId> {
            let id = self.running.get_mut(core as usize)?.take()?;
            let t = &mut self.threads[id.0 as usize];
            if wake_at > now {
                t.state = ThreadState::Blocked {
                    reason: BlockReason::Other,
                    until: wake_at,
                };
                self.wakeups.push(Reverse((wake_at, id.0)));
            } else {
                t.state = ThreadState::Runnable;
                self.rr_counter += 1;
                t.rr_seq = self.rr_counter;
            }
            Some(id)
        }

        fn finish_thread(&mut self, id: ThreadId) {
            match self.threads[id.0 as usize].state {
                ThreadState::Running { core } => self.running[core as usize] = None,
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

        fn pick_next(&mut self, allow: &mut dyn FnMut(ThreadId) -> bool) -> Option<ThreadId> {
            match self.policy {
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

    #[test]
    fn scheduler_matches_the_reference_scan_on_random_sequences() {
        const CORES: u32 = 3;
        for policy in [
            SchedPolicy::RoundRobin,
            SchedPolicy::Random,
            SchedPolicy::Cfs,
        ] {
            for seed in 0..150u64 {
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                let mut s = Scheduler::new(policy, Nanos::ZERO, seed);
                let mut r = ReferenceScheduler::new(policy, seed);
                let mut now = Nanos::ZERO;
                for step in 0..300 {
                    let what = format!("{policy:?} seed {seed} step {step}");
                    let threads = s.threads.len() as u32;
                    let core = rng.gen_range(0..CORES);
                    match rng.gen_range(0..10u32) {
                        0 if threads < 12 => assert_eq!(s.spawn(), r.spawn(), "{what}"),
                        1 | 2 => {
                            let picked = r.schedule_on_filtered(core, now, &mut |_| true);
                            assert_eq!(s.schedule_on(core, now), picked, "{what}");
                        }
                        3 | 4 => {
                            // A pure filter: thread ids in one residue class.
                            let (m, k) = (rng.gen_range(2..4u32), rng.gen_range(0..2u32));
                            let mut allow = |id: ThreadId| id.0 % m == k;
                            assert_eq!(
                                s.schedule_on_filtered(core, now, &mut allow),
                                r.schedule_on_filtered(core, now, &mut allow),
                                "{what}"
                            );
                        }
                        5 | 6 => {
                            let wake = now + Nanos::new(rng.gen_range(0..6u64));
                            assert_eq!(
                                s.yield_current(core, now, wake, BlockReason::Other),
                                r.yield_current(core, now, wake),
                                "{what}"
                            );
                        }
                        7 if threads > 0 => {
                            let id = ThreadId(rng.gen_range(0..threads));
                            let delta = Nanos::new(rng.gen_range(0..8u64));
                            s.account_runtime(id, delta);
                            r.threads[id.0 as usize].vruntime += delta;
                        }
                        8 if threads > 0 && rng.gen_range(0..4u32) == 0 => {
                            let id = ThreadId(rng.gen_range(0..threads));
                            s.finish_thread(id);
                            r.finish_thread(id);
                        }
                        _ => now += Nanos::new(rng.gen_range(0..4u64)),
                    }
                    assert_eq!(s.threads, r.threads, "{what}");
                    let runnable = r.threads.iter().filter(|t| t.is_runnable()).count();
                    assert_eq!(s.runnable_count(), runnable, "{what}");
                    let unfinished = r
                        .threads
                        .iter()
                        .filter(|t| t.state != ThreadState::Finished)
                        .count();
                    assert_eq!(s.unfinished_threads(), unfinished, "{what}");
                    assert_eq!(s.all_finished(), unfinished == 0, "{what}");
                    let next = r.wakeups.peek().map(|&Reverse((until, _))| until);
                    assert_eq!(s.next_wakeup(), next, "{what}");
                }
            }
        }
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
