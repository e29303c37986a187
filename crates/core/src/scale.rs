//! Experiment scaling.
//!
//! The paper simulates a 128 GiB SSD with a 512 MiB DRAM cache and workloads
//! of 8–16 GiB; replaying hundreds of millions of trace instructions takes
//! days on a large server (the artifact quotes ~3 days on 32 cores). To keep
//! this reproduction runnable on a laptop, every experiment is executed at a
//! reduced scale that preserves the *ratios* that drive the paper's results:
//!
//! * workload footprint : SSD DRAM cache size (≈16–32 : 1),
//! * SSD DRAM : write log (7 : 1 by default),
//! * host promotion budget : SSD DRAM (4 : 1),
//! * flash geometry scaled so the footprint occupies a comparable fraction
//!   of the device (at most half of it, so garbage collection does not
//!   trigger at any shipped scale).
//!
//! The absolute numbers therefore differ from the paper, but the relative
//! behaviour (speed-ups, crossovers, traffic reductions) is preserved, which
//! is what the `figures` binary's tables compare; `ROADMAP.md` tabulates the
//! default-scale values next to the paper's headline numbers.

use skybyte_types::{SimConfig, SsdGeometry, KIB, MIB};
use skybyte_workloads::{WorkloadKind, WorkloadSpec};

/// Scaled-down sizes used by an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Scaled workload footprint in bytes.
    pub footprint_bytes: u64,
    /// Scaled SSD DRAM data-cache size in bytes.
    pub ssd_data_cache_bytes: u64,
    /// Scaled write-log size in bytes.
    pub write_log_bytes: u64,
    /// Scaled host-DRAM promotion budget in bytes.
    pub host_dram_bytes: u64,
    /// Work units (off-chip accesses) executed per thread.
    pub accesses_per_thread: u64,
    /// Scaled flash geometry.
    pub geometry: SsdGeometry,
    /// Fraction of the footprint preconditioned into the FTL before the run
    /// (§VI-A), so reads of those pages go to flash instead of being
    /// zero-filled.
    pub precondition_fraction: f64,
    /// RNG seed for workload generation and the Random scheduler.
    pub seed: u64,
}

impl ExperimentScale {
    /// The default scale used by the figure harness: a 1 GiB flash device
    /// with a 16 MiB SSD DRAM (14 MiB cache + 2 MiB log), a 64 MiB host
    /// promotion budget and a 256 MiB workload footprint (footprint : SSD
    /// DRAM = 16 : 1 as in the paper's 1:16 locality bucket).
    pub fn default_scale() -> Self {
        ExperimentScale {
            footprint_bytes: 256 * MIB,
            ssd_data_cache_bytes: 14 * MIB,
            write_log_bytes: 2 * MIB,
            host_dram_bytes: 64 * MIB,
            accesses_per_thread: 20_000,
            geometry: SsdGeometry {
                channels: 16,
                chips_per_channel: 2,
                dies_per_chip: 1,
                planes_per_die: 1,
                blocks_per_plane: 128,
                pages_per_block: 64,
            },
            precondition_fraction: 0.9,
            seed: 0x5B5B_2025,
        }
    }

    /// A smaller scale for quick sweeps (`--scale bench`, the `figures`
    /// default) and the examples: seconds per data point.
    pub fn bench() -> Self {
        ExperimentScale {
            footprint_bytes: 64 * MIB,
            ssd_data_cache_bytes: 3 * MIB + 512 * KIB,
            write_log_bytes: 512 * KIB,
            host_dram_bytes: 16 * MIB,
            accesses_per_thread: 4_000,
            geometry: SsdGeometry {
                channels: 8,
                chips_per_channel: 2,
                dies_per_chip: 1,
                planes_per_die: 1,
                blocks_per_plane: 64,
                pages_per_block: 64,
            },
            precondition_fraction: 0.9,
            seed: 0x5B5B_2025,
        }
    }

    /// A deliberately tiny scale for unit tests and doctests (milliseconds).
    pub fn tiny() -> Self {
        ExperimentScale {
            footprint_bytes: 8 * MIB,
            ssd_data_cache_bytes: 448 * KIB,
            write_log_bytes: 64 * KIB,
            host_dram_bytes: 2 * MIB,
            accesses_per_thread: 800,
            geometry: SsdGeometry {
                channels: 4,
                chips_per_channel: 1,
                dies_per_chip: 1,
                planes_per_die: 1,
                blocks_per_plane: 32,
                pages_per_block: 32,
            },
            precondition_fraction: 0.8,
            seed: 7,
        }
    }

    /// Total bytes of the scaled flash device.
    pub fn flash_bytes(&self) -> u64 {
        self.geometry.total_bytes()
    }

    /// Applies the scaled sizes to a simulator configuration.
    pub fn apply(&self, mut cfg: SimConfig) -> SimConfig {
        cfg.ssd.geometry = self.geometry;
        cfg.ssd.dram.data_cache_bytes = self.ssd_data_cache_bytes;
        cfg.ssd.dram.write_log_bytes = self.write_log_bytes;
        cfg.host_dram.promotion_capacity_bytes = self.host_dram_bytes;
        cfg
    }

    /// The scaled workload specification for `kind`.
    pub fn workload_spec(&self, kind: WorkloadKind) -> WorkloadSpec {
        kind.spec().scaled_to(self.footprint_bytes)
    }

    /// Returns a copy with a different per-thread access budget.
    pub fn with_accesses_per_thread(mut self, accesses: u64) -> Self {
        self.accesses_per_thread = accesses;
        self
    }

    /// Returns a copy with a different footprint.
    pub fn with_footprint(mut self, bytes: u64) -> Self {
        self.footprint_bytes = bytes;
        self
    }

    /// Returns a copy with different SSD DRAM sizes (data cache + write log).
    pub fn with_ssd_dram(mut self, data_cache_bytes: u64, write_log_bytes: u64) -> Self {
        self.ssd_data_cache_bytes = data_cache_bytes;
        self.write_log_bytes = write_log_bytes;
        self
    }

    /// Returns a copy with a different host promotion budget.
    pub fn with_host_dram(mut self, bytes: u64) -> Self {
        self.host_dram_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_types::VariantKind;

    #[test]
    fn default_scale_preserves_paper_ratios() {
        let s = ExperimentScale::default_scale();
        // footprint : SSD DRAM = 16 : 1 — inside the paper's 1:16–1:32 band.
        let dram = s.ssd_data_cache_bytes + s.write_log_bytes;
        assert!((s.footprint_bytes as f64 / dram as f64 - 16.0).abs() < 0.5);
        // Write log is 1/8 of the SSD DRAM, as in Table II (64 MB of 512 MB).
        assert!((s.ssd_data_cache_bytes / s.write_log_bytes) == 7);
        // Host promotion budget is 4x the SSD DRAM, as in §VI-A.
        assert_eq!(
            s.host_dram_bytes,
            4 * (s.ssd_data_cache_bytes + s.write_log_bytes)
        );
        // The footprint fits in the flash device with room for GC.
        assert!(s.footprint_bytes * 2 < s.flash_bytes());
    }

    #[test]
    fn apply_overrides_config_sizes() {
        let s = ExperimentScale::tiny();
        let cfg =
            s.apply(skybyte_types::SimConfig::default().with_variant(VariantKind::SkyByteFull));
        assert_eq!(cfg.ssd.geometry.channels, 4);
        assert_eq!(cfg.ssd.dram.write_log_bytes, 64 * KIB);
        assert_eq!(cfg.host_dram.promotion_capacity_bytes, 2 * MIB);
        cfg.validate().unwrap();
    }

    #[test]
    fn workload_spec_is_scaled() {
        let s = ExperimentScale::tiny();
        let spec = s.workload_spec(WorkloadKind::Tpcc);
        assert_eq!(spec.footprint_bytes, s.footprint_bytes);
        assert!((spec.write_ratio - 0.36).abs() < 1e-9);
    }

    #[test]
    fn builders_modify_fields() {
        let s = ExperimentScale::tiny()
            .with_accesses_per_thread(123)
            .with_footprint(9 * MIB)
            .with_ssd_dram(MIB, 128 * KIB)
            .with_host_dram(3 * MIB);
        assert_eq!(s.accesses_per_thread, 123);
        assert_eq!(s.footprint_bytes, 9 * MIB);
        assert_eq!(s.ssd_data_cache_bytes, MIB);
        assert_eq!(s.write_log_bytes, 128 * KIB);
        assert_eq!(s.host_dram_bytes, 3 * MIB);
    }
}
