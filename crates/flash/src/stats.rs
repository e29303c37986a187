//! Aggregate flash-array statistics.

use serde::{Deserialize, Serialize};
use skybyte_types::Nanos;

/// Counters describing all traffic that has reached the flash chips.
///
/// `pages_programmed` is the quantity plotted in Figure 18 / Figure 20 of the
/// paper ("flash write traffic"); the read/erase counters feed the AMAT and
/// GC analyses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashStats {
    /// Number of page reads issued to flash chips.
    pub pages_read: u64,
    /// Number of page programs issued to flash chips.
    pub pages_programmed: u64,
    /// Number of block erases issued to flash chips.
    pub blocks_erased: u64,
    /// Sum of end-to-end latencies (queueing + service) of all page reads.
    pub total_read_latency: Nanos,
    /// Sum of end-to-end latencies of all page programs.
    pub total_program_latency: Nanos,
}

impl FlashStats {
    /// Average end-to-end flash read latency (Table III of the paper).
    pub fn avg_read_latency(&self) -> Nanos {
        if self.pages_read == 0 {
            Nanos::ZERO
        } else {
            self.total_read_latency / self.pages_read
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_zero() {
        let s = FlashStats::default();
        assert_eq!(s.avg_read_latency(), Nanos::ZERO);
    }

    #[test]
    fn averages_divide_totals() {
        let s = FlashStats {
            pages_read: 4,
            total_read_latency: Nanos::from_micros(20),
            pages_programmed: 2,
            total_program_latency: Nanos::from_micros(300),
            ..Default::default()
        };
        assert_eq!(s.avg_read_latency(), Nanos::from_micros(5));
    }
}
