//! Host DRAM timing model (DDR5 in Table II).

use skybyte_types::{HostDramConfig, Nanos, CACHELINE_SIZE};

/// A bandwidth- and latency-constrained host DRAM model.
///
/// Each access pays the configured access latency; sustained throughput is
/// capped by the bandwidth summed over all channels, modelled with a single
/// busy-until horizon (requests arriving faster than the channels can drain
/// queue up).
#[derive(Debug, Clone)]
pub struct HostDram {
    access_latency: Nanos,
    bandwidth_bps: u64,
    busy_until: Nanos,
}

impl HostDram {
    /// Creates the model from the host DRAM configuration.
    pub fn new(cfg: &HostDramConfig) -> Self {
        HostDram {
            access_latency: cfg.access_latency,
            bandwidth_bps: cfg.bandwidth_bps,
            busy_until: Nanos::ZERO,
        }
    }

    /// Serves one cacheline access issued at `now`; returns its completion
    /// time.
    pub fn access(&mut self, now: Nanos) -> Nanos {
        self.transfer(now, CACHELINE_SIZE as u64)
    }

    /// Serves a bulk transfer of `bytes` (page-migration copies).
    pub fn transfer(&mut self, now: Nanos, bytes: u64) -> Nanos {
        let serialisation_ns = ((bytes as f64) * 1e9 / self.bandwidth_bps as f64)
            .ceil()
            .max(1.0) as u64;
        let serialisation = Nanos::new(serialisation_ns);
        let start = now.max(self.busy_until.saturating_sub(self.access_latency));
        self.busy_until = start + serialisation + self.access_latency;
        start + self.access_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_access_pays_latency() {
        let mut dram = HostDram::new(&HostDramConfig::default());
        assert_eq!(dram.access(Nanos::ZERO), Nanos::new(70));
        assert_eq!(dram.access_latency, Nanos::new(70));
    }

    #[test]
    fn idle_accesses_do_not_queue() {
        let mut dram = HostDram::new(&HostDramConfig::default());
        let a = dram.access(Nanos::ZERO);
        let b = dram.access(Nanos::from_micros(10));
        assert_eq!(b - Nanos::from_micros(10), a - Nanos::ZERO);
    }

    #[test]
    fn saturating_bandwidth_queues_requests() {
        let cfg = HostDramConfig {
            bandwidth_bps: 1 << 20, // 1 MiB/s: trivially saturated
            ..HostDramConfig::default()
        };
        let mut dram = HostDram::new(&cfg);
        let a = dram.transfer(Nanos::ZERO, 4096);
        let b = dram.transfer(Nanos::ZERO, 4096);
        assert!(b > a);
    }

    #[test]
    fn utilisation_zero_at_start() {
        // A fresh model has no busy horizon: even a page-sized transfer at
        // time zero pays only the access latency.
        let mut dram = HostDram::new(&HostDramConfig::default());
        assert_eq!(dram.transfer(Nanos::ZERO, 4096), Nanos::new(70));
    }
}
