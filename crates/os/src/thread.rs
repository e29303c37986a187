//! Thread control blocks.

use serde::{Deserialize, Serialize};
use skybyte_types::Nanos;

/// Identifier of an application thread.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct ThreadId(pub u32);

/// Why a thread is not currently runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for a long CXL-SSD access; the thread was context-switched
    /// away by the Long Delay Exception and becomes runnable when the SSD
    /// data is expected to be ready.
    LongSsdAccess,
    /// Waiting for a page migration involving one of its pages to finish.
    PageMigration,
    /// Any other reason (I/O, synchronisation) — not used by the core
    /// experiments but kept for completeness.
    Other,
}

/// Lifecycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Ready to run, sitting in the run queue.
    Runnable,
    /// Currently executing on a core.
    Running {
        /// The core the thread occupies.
        core: u32,
    },
    /// Blocked until (at least) the given time.
    Blocked {
        /// Reason for blocking.
        reason: BlockReason,
        /// Earliest time the thread becomes runnable again.
        until: Nanos,
    },
    /// The thread has exhausted its trace.
    Finished,
}

/// Book-keeping for one thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadControlBlock {
    /// The thread identifier.
    pub id: ThreadId,
    /// Current state.
    pub state: ThreadState,
    /// Total CPU time received (the CFS vruntime; all threads share the same
    /// weight, so vruntime equals received execution time).
    pub vruntime: Nanos,
    /// Round-robin enqueue sequence number (used by the RR policy).
    pub(crate) rr_seq: u64,
}

impl ThreadControlBlock {
    /// Creates a runnable thread.
    pub fn new(id: ThreadId) -> Self {
        ThreadControlBlock {
            id,
            state: ThreadState::Runnable,
            vruntime: Nanos::ZERO,
            rr_seq: 0,
        }
    }

    /// Whether the thread can be picked by the scheduler.
    pub fn is_runnable(&self) -> bool {
        matches!(self.state, ThreadState::Runnable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_thread_is_runnable() {
        let t = ThreadControlBlock::new(ThreadId(3));
        assert!(t.is_runnable());
        assert_ne!(t.state, ThreadState::Finished);
        assert_eq!(t.vruntime, Nanos::ZERO);
        assert_eq!(t.id, ThreadId(3));
    }

    #[test]
    fn state_transitions_reflect_predicates() {
        let mut t = ThreadControlBlock::new(ThreadId(0));
        t.state = ThreadState::Running { core: 1 };
        assert!(!t.is_runnable());
        t.state = ThreadState::Blocked {
            reason: BlockReason::LongSsdAccess,
            until: Nanos::from_micros(5),
        };
        assert!(!t.is_runnable());
        t.state = ThreadState::Finished;
        assert_eq!(t.state, ThreadState::Finished);
    }
}
