//! Per-channel command queue with read priority.
//!
//! The paper's latency-estimation policy (Algorithm 1) inspects the number of
//! queued reads, programs and erases on the channel a request maps to, and
//! estimates the request's delay as the sum of the service times of everything
//! ahead of it. [`ChannelQueue`] maintains exactly that state: the completion
//! times of the in-flight commands, the time the channel becomes idle, and
//! per-kind counters of queued commands.
//!
//! Service order is **read-prioritised**: a read waits only for earlier
//! reads, while programs and erases queue behind all previously accepted
//! work. This models the program/erase suspension that ultra-low-latency
//! NAND (e.g. Z-NAND, Table II's default flash) provides, so a 100 µs
//! program from compaction or GC never sits in front of a read. Reads still
//! queue behind each other: at default scale SkyByte-WP's average flash read
//! is 9.5–122 µs against tR = 3 µs, and ROADMAP direction 1 asks which reads
//! queue. Algorithm 1's estimate deliberately still counts queued
//! programs/erases, making it a conservative upper bound — exactly the role
//! it plays as the context-switch trigger heuristic.

use crate::command::FlashCommandKind;
use skybyte_types::{FlashTimingConfig, Nanos};
use std::collections::VecDeque;

/// Counts of commands currently queued or in service on one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Queued/in-service page reads.
    pub reads: u32,
    /// Queued/in-service page programs.
    pub writes: u32,
    /// Queued/in-service block erases.
    pub erases: u32,
}

impl QueueCounters {
    /// Implements line 5–6 of Algorithm 1: the estimated latency of a *new*
    /// read arriving behind the queued work.
    ///
    /// `est = read_lat * (num_read + 1) + write_lat * num_write + erase_lat * num_erase`
    pub fn estimate_read_latency(&self, timing: &FlashTimingConfig) -> Nanos {
        timing.read_latency.scaled(self.reads as u64 + 1)
            + timing.program_latency.scaled(self.writes as u64)
            + timing.erase_latency.scaled(self.erases as u64)
    }

    /// The counter of commands of `kind`.
    fn of(&mut self, kind: FlashCommandKind) -> &mut u32 {
        match kind {
            FlashCommandKind::Read => &mut self.reads,
            FlashCommandKind::Program => &mut self.writes,
            FlashCommandKind::Erase => &mut self.erases,
        }
    }
}

/// A read-prioritised command queue for a single flash channel.
///
/// Reads serialise behind previously accepted reads only (suspending any
/// program/erase in service); programs and erases serialise behind all
/// previously accepted work.
#[derive(Debug, Clone, Default)]
pub struct ChannelQueue {
    /// Completion times of the in-flight reads in submission order. Each read
    /// waits for every earlier read (`read_busy_until` only grows), so they
    /// are monotone and retirement is a pop-front loop.
    inflight_reads: VecDeque<Nanos>,
    /// `(completion time, kind)` of the in-flight programs/erases in
    /// submission order. They serialise behind all previously accepted work
    /// (`busy_until` is non-decreasing), so this queue is completion-monotone
    /// too.
    inflight_writes: VecDeque<(Nanos, FlashCommandKind)>,
    /// Time at which the channel finishes its last accepted command.
    busy_until: Nanos,
    /// Time at which the last accepted *read* completes (the priority lane).
    read_busy_until: Nanos,
    /// Earliest completion time among in-flight commands (`Nanos::MAX` when
    /// idle); lets [`ChannelQueue::retire_completed`] exit in O(1) when
    /// nothing is done.
    earliest_completion: Nanos,
    /// Cumulative busy time of the channel (for bandwidth-utilisation stats).
    busy_time: Nanos,
    counters: QueueCounters,
}

impl ChannelQueue {
    /// Creates an idle channel queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits a command at time `now` and returns its completion time.
    pub fn submit(
        &mut self,
        kind: FlashCommandKind,
        now: Nanos,
        timing: &FlashTimingConfig,
    ) -> Nanos {
        let service = kind.latency(timing);
        let completes_at = match kind {
            // Reads pre-empt programs/erases (suspension) and wait only for
            // earlier reads.
            FlashCommandKind::Read => {
                let starts_at = now.max(self.read_busy_until);
                let completes_at = starts_at + service;
                self.read_busy_until = completes_at;
                // A read landing inside pending program/erase work suspends
                // it: the channel loses the read's service time, so the
                // suspended work (and anything accepted after it) resumes
                // that much later. This keeps total service per wall-clock
                // within the channel's physical capacity.
                self.busy_until = if self.busy_until > starts_at {
                    self.busy_until + service
                } else {
                    completes_at
                };
                self.inflight_reads.push_back(completes_at);
                completes_at
            }
            FlashCommandKind::Program | FlashCommandKind::Erase => {
                let completes_at = now.max(self.busy_until) + service;
                self.busy_until = completes_at;
                self.inflight_writes.push_back((completes_at, kind));
                completes_at
            }
        };
        *self.counters.of(kind) += 1;
        self.busy_time += service;
        self.earliest_completion = self.earliest_completion.min(completes_at);
        completes_at
    }

    /// Earliest completion among in-flight commands (`Nanos::MAX` when
    /// idle).
    pub(crate) fn earliest_completion(&self) -> Nanos {
        self.earliest_completion
    }

    /// Retires every command that has completed by `now`, updating the queue
    /// counters, and returns how many it retired.
    ///
    /// Reads overtake programs/erases, so the completed commands are not a
    /// prefix of the submission order; each of the two completion-monotone
    /// queues holds them as its prefix, which is what gets popped.
    pub fn retire_completed(&mut self, now: Nanos) -> usize {
        // Fast path: this runs on every SSD access; skip the pops when the
        // earliest outstanding completion is still in the future.
        if now < self.earliest_completion {
            return 0;
        }
        let before = self.depth();
        while self
            .inflight_reads
            .pop_front_if(|done| *done <= now)
            .is_some()
        {
            self.counters.reads -= 1;
        }
        while let Some((_, kind)) = self.inflight_writes.pop_front_if(|(done, _)| *done <= now) {
            *self.counters.of(kind) -= 1;
        }
        let reads = self.inflight_reads.front().copied();
        let writes = self.inflight_writes.front().map(|&(done, _)| done);
        self.earliest_completion = reads
            .unwrap_or(Nanos::MAX)
            .min(writes.unwrap_or(Nanos::MAX));
        before - self.depth()
    }

    /// Current per-kind counters of queued/in-service commands.
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Number of commands still queued or in service.
    pub fn depth(&self) -> usize {
        self.inflight_reads.len() + self.inflight_writes.len()
    }

    /// Busy time attributable to the window `[0, horizon]`.
    ///
    /// The running `busy_time` total charges the full service time of every
    /// accepted command, including work committed beyond `horizon` (a backlog
    /// still draining when the measured run ends). Because the channel works
    /// without gaps while backlogged, the service committed past `horizon` is
    /// exactly `busy_until - horizon`, so subtracting it yields the busy time
    /// that actually falls inside the window — guaranteed `<= horizon`, which
    /// is what makes bandwidth-utilisation ratios genuinely `<= 1` instead of
    /// needing a clamp.
    pub fn busy_time_within(&self, horizon: Nanos) -> Nanos {
        let overhang = self.busy_until.saturating_sub(horizon);
        self.busy_time.saturating_sub(overhang)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_types::NandKind;

    fn timing() -> FlashTimingConfig {
        FlashTimingConfig::for_kind(NandKind::Ull)
    }

    #[test]
    fn back_to_back_reads_serialise() {
        let mut q = ChannelQueue::new();
        let t = timing();
        let a = q.submit(FlashCommandKind::Read, Nanos::ZERO, &t);
        let b = q.submit(FlashCommandKind::Read, Nanos::ZERO, &t);
        assert_eq!(a, Nanos::from_micros(3));
        // The second read starts when the first completes.
        assert_eq!(b, Nanos::from_micros(6));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.counters().reads, 2);
    }

    #[test]
    fn idle_gap_resets_start_time() {
        let mut q = ChannelQueue::new();
        let t = timing();
        let a = q.submit(FlashCommandKind::Read, Nanos::ZERO, &t);
        // Submit long after the first finished: starts immediately.
        let late = Nanos::from_micros(50);
        let b = q.submit(FlashCommandKind::Read, late, &t);
        assert!(a < late);
        assert_eq!(b, late + Nanos::from_micros(3));
    }

    #[test]
    fn retire_updates_counters() {
        let mut q = ChannelQueue::new();
        let t = timing();
        q.submit(FlashCommandKind::Read, Nanos::ZERO, &t);
        q.submit(FlashCommandKind::Program, Nanos::ZERO, &t);
        q.submit(FlashCommandKind::Erase, Nanos::ZERO, &t);
        assert_eq!(
            q.counters(),
            QueueCounters {
                reads: 1,
                writes: 1,
                erases: 1
            }
        );

        // After tR the read is done.
        assert_eq!(q.retire_completed(Nanos::from_micros(3)), 1);
        assert_eq!(q.counters().reads, 0);
        assert_eq!(q.counters().writes + q.counters().erases, 2);

        // Far in the future everything drains.
        assert_eq!(q.retire_completed(Nanos::from_millis(1_000)), 2);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.counters(), QueueCounters::default());
    }

    #[test]
    fn estimate_matches_algorithm1() {
        let t = timing();
        let c = QueueCounters {
            reads: 2,
            writes: 1,
            erases: 1,
        };
        // 3us * (2+1) + 100us * 1 + 1000us * 1 = 1109us
        assert_eq!(c.estimate_read_latency(&t), Nanos::from_micros(1109));
        let empty = QueueCounters::default();
        assert_eq!(empty.estimate_read_latency(&t), Nanos::from_micros(3));
    }

    #[test]
    fn busy_time_accumulates_service_only() {
        let mut q = ChannelQueue::new();
        let t = timing();
        q.submit(FlashCommandKind::Read, Nanos::ZERO, &t);
        q.submit(FlashCommandKind::Program, Nanos::from_micros(500), &t);
        assert_eq!(q.busy_time, Nanos::from_micros(103));
        assert_eq!(q.busy_until, Nanos::from_micros(600));
    }

    #[test]
    fn windowed_busy_time_excludes_the_draining_backlog() {
        let mut q = ChannelQueue::new();
        let t = timing();
        // A program committed at t=0 runs 0..100us.
        q.submit(FlashCommandKind::Program, Nanos::ZERO, &t);
        // Another queues behind it: 100..200us.
        q.submit(FlashCommandKind::Program, Nanos::ZERO, &t);
        assert_eq!(q.busy_time, Nanos::from_micros(200));
        // A horizon mid-way through the second program only counts the part
        // of the committed service that falls inside the window.
        assert_eq!(
            q.busy_time_within(Nanos::from_micros(150)),
            Nanos::from_micros(150)
        );
        // A horizon past the drain sees the full busy time.
        assert_eq!(
            q.busy_time_within(Nanos::from_micros(500)),
            Nanos::from_micros(200)
        );
        // Windowed busy time never exceeds the horizon.
        for h in [0u64, 1, 50, 99, 100, 199] {
            assert!(q.busy_time_within(Nanos::from_micros(h)) <= Nanos::from_micros(h));
        }
    }

    #[test]
    fn reads_preempt_erases_but_the_estimate_still_counts_them() {
        // A read arriving behind a GC erase suspends it and is serviced at
        // tR, while Algorithm 1's estimate still charges the queued erase —
        // the interference signal the trigger policy keys on.
        let mut q = ChannelQueue::new();
        let t = timing();
        q.submit(FlashCommandKind::Erase, Nanos::ZERO, &t);
        let r = q.submit(FlashCommandKind::Read, Nanos::ZERO, &t);
        assert_eq!(r, Nanos::from_micros(3));
        // tR * (1 queued read + 1) + tBERS * 1 erase.
        assert_eq!(
            q.counters().estimate_read_latency(&t),
            Nanos::from_micros(6) + Nanos::from_micros(1000)
        );
    }

    #[test]
    fn reads_serialise_behind_reads_and_delay_later_programs() {
        let mut q = ChannelQueue::new();
        let t = timing();
        let a = q.submit(FlashCommandKind::Read, Nanos::ZERO, &t);
        let b = q.submit(FlashCommandKind::Read, Nanos::ZERO, &t);
        assert_eq!(a, Nanos::from_micros(3));
        assert_eq!(b, Nanos::from_micros(6));
        // A program accepted afterwards waits for the channel, reads included.
        let p = q.submit(FlashCommandKind::Program, Nanos::ZERO, &t);
        assert_eq!(p, b + Nanos::from_micros(100));
    }
}
