//! The discrete-event queue at the heart of the engine.
//!
//! Each unparked core has exactly one outstanding *next-activity* event,
//! and the run loop pops the earliest one instead of scanning every core's
//! clock; a parked core has none until a pass's scheduler activity re-arms
//! it. Ties are broken deterministically on `(time, core, seq)` — first by
//! timestamp, then by core index (matching the reference scan's "first
//! minimal clock wins" rule bit for bit), and finally by a monotonically
//! increasing sequence number so re-armed events of the same core retire in
//! insertion order.

use skybyte_types::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled engine activity: core `core` becomes actionable at `time`.
///
/// The `seq` number is assigned by the queue at push time and makes the pop
/// order a total order even for events that agree on `(time, core)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated instant at which the event fires.
    pub time: Nanos,
    /// The core the event belongs to.
    pub core: u32,
    /// Queue-assigned insertion sequence number (monotone across pushes).
    pub seq: u64,
}

/// A monotone min-heap of [`Event`]s keyed on `(time, core, seq)`.
///
/// "Monotone" is a property of how the engine uses it — events are only ever
/// pushed at or after the time of the most recent pop — not something the
/// queue enforces; the queue itself is a plain deterministic priority queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Nanos, u32, u64)>>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `core` to act at `time` and returns the sequence number the
    /// event was tagged with.
    pub fn push(&mut self, time: Nanos, core: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, core, seq)));
        seq
    }

    /// Pops the earliest event in `(time, core, seq)` order.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap
            .pop()
            .map(|Reverse((time, core, seq))| Event { time, core, seq })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Nanos::new(30), 0);
        q.push(Nanos::new(10), 1);
        q.push(Nanos::new(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.core).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn equal_timestamps_retire_in_core_then_seq_order_for_any_insertion_order() {
        // Build every insertion order of four events that tie on the
        // timestamp: two cores, and for core 1 two pushes whose relative
        // insertion order (their seq) must be preserved.
        let t = Nanos::new(500);
        // (core, payload) — payload distinguishes the two core-1 pushes.
        let events: [(u32, char); 4] = [(2, 'a'), (1, 'b'), (1, 'c'), (0, 'd')];
        let permutations: Vec<Vec<usize>> = {
            let mut perms = Vec::new();
            let mut idx = [0usize, 1, 2, 3];
            heap_permutations(&mut idx, 4, &mut perms);
            perms
        };
        for perm in permutations {
            let mut q = EventQueue::new();
            // seq is assigned at push time, so track which payload got which
            // seq in this insertion order.
            let mut seq_of = std::collections::HashMap::new();
            for &i in &perm {
                let (core, payload) = events[i];
                let seq = q.push(t, core);
                seq_of.insert(seq, (core, payload));
            }
            let popped: Vec<(u32, u64)> = std::iter::from_fn(|| q.pop())
                .map(|e| (e.core, e.seq))
                .collect();
            // Cores ascend; within a core, seq ascends.
            let mut sorted = popped.clone();
            sorted.sort();
            assert_eq!(
                popped, sorted,
                "insertion order {perm:?} broke the tie-break"
            );
            // The two core-1 events retire in the order they were pushed
            // (i.e. payload order follows seq order within the core).
            let core1: Vec<u64> = popped
                .iter()
                .filter(|(c, _)| *c == 1)
                .map(|&(_, s)| s)
                .collect();
            assert!(core1[0] < core1[1]);
        }
    }

    #[test]
    fn seq_is_monotone_across_pushes() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos::new(1), 0);
        let b = q.push(Nanos::new(1), 0);
        assert!(b > a);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().seq, a);
        assert_eq!(q.pop().unwrap().seq, b);
        assert!(q.is_empty());
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
