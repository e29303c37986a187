//! The ROB-overlap core timing model and boundedness accounting.
//!
//! Following the paper's methodology (§II-C), a cycle is *bounded by memory*
//! if nothing but memory operations is in flight during it, and *bounded by
//! compute* otherwise. In the work-unit model of this simulator every thread
//! alternates between a compute burst and an off-chip memory access, so the
//! accounting reduces to: compute bursts are compute-bounded; the part of a
//! memory access the out-of-order window cannot hide is memory-bounded.

use serde::{Deserialize, Serialize};
use skybyte_types::{CpuConfig, Freq, Nanos};

/// Converts instruction counts to time and bounds how much off-chip latency
/// the out-of-order engine can overlap with useful work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreTimingModel {
    freq: Freq,
    base_ipc: f64,
    /// The amount of latency the out-of-order window can hide behind one
    /// off-chip access: the time to drain a full ROB at the base IPC
    /// (256 entries / IPC 2 at 4 GHz ≈ 32 ns, far below flash latency, which
    /// is exactly the motivation for coordinated context switches).
    /// Computed once: every off-chip access reads it.
    overlap: Nanos,
}

impl CoreTimingModel {
    /// Creates the model from the CPU configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has a non-positive IPC.
    pub fn new(cfg: &CpuConfig) -> Self {
        assert!(cfg.base_ipc > 0.0, "base IPC must be positive");
        let rob_cycles = (cfg.rob_entries as f64 / cfg.base_ipc).ceil() as u64;
        CoreTimingModel {
            freq: cfg.freq,
            base_ipc: cfg.base_ipc,
            overlap: cfg.freq.cycles_to_nanos(rob_cycles),
        }
    }

    /// Time needed to execute `instructions` non-stalled instructions.
    pub fn compute_time(&self, instructions: u64) -> Nanos {
        if instructions == 0 {
            return Nanos::ZERO;
        }
        let cycles = (instructions as f64 / self.base_ipc).ceil() as u64;
        self.freq.cycles_to_nanos(cycles)
    }

    /// The stall time actually exposed to the pipeline for an off-chip access
    /// of the given latency.
    pub fn effective_stall(&self, latency: Nanos) -> Nanos {
        latency.saturating_sub(self.overlap)
    }
}

/// Accumulates the memory/compute/context-switch time breakdown of one core
/// or one whole run (Figures 4 and 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Boundedness {
    /// Time bounded by compute.
    pub compute: Nanos,
    /// Time bounded by memory (exposed stalls).
    pub memory: Nanos,
    /// Time spent performing context switches.
    pub context_switch: Nanos,
    /// Time the core sat idle with no runnable thread.
    pub idle: Nanos,
}

impl Boundedness {
    /// Total accounted time.
    pub fn total(&self) -> Nanos {
        self.compute + self.memory + self.context_switch + self.idle
    }

    /// Fraction of non-idle time bounded by memory.
    pub fn memory_fraction(&self) -> f64 {
        let busy = self.compute + self.memory + self.context_switch;
        if busy == Nanos::ZERO {
            return 0.0;
        }
        self.memory.as_nanos() as f64 / busy.as_nanos() as f64
    }

    /// Fraction of non-idle time spent context switching.
    pub fn context_switch_fraction(&self) -> f64 {
        let busy = self.compute + self.memory + self.context_switch;
        if busy == Nanos::ZERO {
            return 0.0;
        }
        self.context_switch.as_nanos() as f64 / busy.as_nanos() as f64
    }

    /// Merges the accounting of another core into this one.
    pub fn merge(&mut self, other: &Boundedness) {
        self.compute += other.compute;
        self.memory += other.memory;
        self.context_switch += other.context_switch;
        self.idle += other.idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CoreTimingModel {
        CoreTimingModel::new(&CpuConfig::default())
    }

    #[test]
    fn compute_time_scales_with_instructions() {
        let m = model();
        assert_eq!(m.compute_time(0), Nanos::ZERO);
        // 8000 instructions / IPC 2 = 4000 cycles = 1 µs at 4 GHz.
        assert_eq!(m.compute_time(8000), Nanos::from_micros(1));
        assert!(m.compute_time(100) > Nanos::ZERO);
    }

    #[test]
    fn overlap_window_matches_rob() {
        let m = model();
        // 256 / 2 = 128 cycles = 32 ns.
        assert_eq!(m.overlap, Nanos::new(32));
        // Host DRAM (~70 ns) is partially hidden; flash (3 µs) is not.
        assert_eq!(m.effective_stall(Nanos::new(70)), Nanos::new(38));
        assert_eq!(
            m.effective_stall(Nanos::from_micros(3)),
            Nanos::new(3000 - 32)
        );
        assert_eq!(m.effective_stall(Nanos::new(10)), Nanos::ZERO);
    }

    #[test]
    fn boundedness_fractions_sum_to_one() {
        let b = Boundedness {
            compute: Nanos::new(250),
            memory: Nanos::new(700),
            context_switch: Nanos::new(50),
            idle: Nanos::new(123),
        };
        // Compute takes the rest of the busy time: 250 of 1000 ns.
        let non_compute = b.memory_fraction() + b.context_switch_fraction();
        assert!((non_compute - 0.75).abs() < 1e-9);
        assert_eq!(b.total(), Nanos::new(1123));
        assert!((b.memory_fraction() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn boundedness_empty_is_zero() {
        let b = Boundedness::default();
        assert_eq!(b.memory_fraction(), 0.0);
        assert_eq!(b.context_switch_fraction(), 0.0);
    }

    #[test]
    fn boundedness_merge_adds_components() {
        let mut a = Boundedness {
            compute: Nanos::new(10),
            memory: Nanos::new(20),
            context_switch: Nanos::new(1),
            idle: Nanos::new(2),
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.compute, Nanos::new(20));
        assert_eq!(a.memory, Nanos::new(40));
        assert_eq!(a.idle, Nanos::new(4));
    }
}
