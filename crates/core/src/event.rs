//! The discrete-event queue at the heart of the engine.
//!
//! Each unparked core has exactly one outstanding *next-activity* event,
//! and the run loop pops the earliest one instead of scanning every core's
//! clock; a parked core has none until a pass's scheduler activity re-arms
//! it. Because a core never holds two events, the queue is one slot per
//! core plus one for the telemetry sampler, and a pop scans the slots for
//! the lowest `(time, core)`: first by timestamp, then by core index
//! (matching the reference scan's "first minimal clock wins" rule bit for
//! bit), with the sampler after every core at an equal timestamp.

use crate::telemetry::SAMPLER_CORE;
use skybyte_types::Nanos;

/// One scheduled engine activity: core `core` becomes actionable at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// Simulated instant at which the event fires.
    pub(crate) time: Nanos,
    /// The core the event belongs to ([`SAMPLER_CORE`] for the sampler).
    pub(crate) core: u32,
}

/// At most one pending event per core and one for the sampler, popped in
/// `(time, core)` order.
///
/// Events are only ever pushed at or after the time of the most recent pop
/// (the engine's use is monotone); the queue itself does not rely on it.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// The pending event time of each core, then of the sampler; `EMPTY`
    /// when it has none.
    slots: Vec<Nanos>,
}

/// An empty slot. No event fires at the end of time.
const EMPTY: Nanos = Nanos::MAX;

impl EventQueue {
    /// Creates an empty queue for `cores` cores and the sampler.
    pub(crate) fn new(cores: usize) -> Self {
        EventQueue {
            slots: vec![EMPTY; cores + 1],
        }
    }

    /// The slot of `core`: its index, or the last slot for the sampler.
    fn slot(&self, core: u32) -> usize {
        if core == SAMPLER_CORE {
            self.slots.len() - 1
        } else {
            core as usize
        }
    }

    /// Schedules `core` to act at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is past the queue's cores. In debug builds, also if
    /// `core` already has a pending event or `time` is `Nanos::MAX`.
    pub(crate) fn push(&mut self, time: Nanos, core: u32) {
        let slot = self.slot(core);
        assert!(
            core == SAMPLER_CORE || slot + 1 < self.slots.len(),
            "core {core} is past the event queue's cores"
        );
        debug_assert!(time != EMPTY, "an event at the end of time never fires");
        debug_assert!(
            self.slots[slot] == EMPTY,
            "core {core} already holds a pending event"
        );
        self.slots[slot] = time;
    }

    /// Pops the earliest event in `(time, core)` order, the sampler last
    /// among equal timestamps.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        // Strictly earlier only: the lowest slot wins a tie. Which slot is
        // earliest is data-dependent, so select without branching.
        let (mut slot, mut time) = (0, EMPTY);
        for (s, &t) in self.slots.iter().enumerate() {
            let earlier = t < time;
            slot = std::hint::select_unpredictable(earlier, s, slot);
            time = std::hint::select_unpredictable(earlier, t, time);
        }
        if time == EMPTY {
            return None;
        }
        self.slots[slot] = EMPTY;
        let core = if slot + 1 == self.slots.len() {
            SAMPLER_CORE
        } else {
            slot as u32
        };
        Some(Event { time, core })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new(3);
        q.push(Nanos::new(30), 0);
        q.push(Nanos::new(10), 1);
        q.push(Nanos::new(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.core).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn equal_timestamps_retire_in_core_order_with_the_sampler_last_for_any_insertion_order() {
        // Every insertion order of four events that tie on the timestamp:
        // three cores and the sampler.
        let t = Nanos::new(500);
        let cores: [u32; 4] = [2, SAMPLER_CORE, 0, 1];
        let mut perms = Vec::new();
        let mut idx = [0usize, 1, 2, 3];
        heap_permutations(&mut idx, 4, &mut perms);
        assert_eq!(perms.len(), 24);
        for perm in perms {
            let mut q = EventQueue::new(3);
            for &i in &perm {
                q.push(t, cores[i]);
            }
            let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.core).collect();
            assert_eq!(
                popped,
                vec![0, 1, 2, SAMPLER_CORE],
                "insertion order {perm:?} broke the tie-break"
            );
        }
    }

    #[test]
    fn a_core_rearms_its_slot_after_each_pop() {
        let mut q = EventQueue::new(2);
        q.push(Nanos::new(1), 0);
        q.push(Nanos::new(4), SAMPLER_CORE);
        assert_eq!(
            q.pop(),
            Some(Event {
                time: Nanos::new(1),
                core: 0
            })
        );
        // The popped core may push again, to any time at or after the pop.
        q.push(Nanos::new(4), 0);
        q.push(Nanos::new(2), 1);
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.as_nanos(), e.core))
            .collect();
        assert_eq!(order, vec![(2, 1), (4, 0), (4, SAMPLER_CORE)]);
        assert!(q.slots.iter().all(|&slot| slot == EMPTY));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already holds a pending event")]
    fn a_core_never_holds_two_events() {
        let mut q = EventQueue::new(2);
        q.push(Nanos::new(1), 1);
        q.push(Nanos::new(2), 1);
    }

    /// Heap's algorithm, collecting every permutation of `idx[..k]`.
    fn heap_permutations(idx: &mut [usize; 4], k: usize, out: &mut Vec<Vec<usize>>) {
        if k == 1 {
            out.push(idx.to_vec());
            return;
        }
        for i in 0..k {
            heap_permutations(idx, k - 1, out);
            if k.is_multiple_of(2) {
                idx.swap(i, k - 1);
            } else {
                idx.swap(0, k - 1);
            }
        }
    }
}
