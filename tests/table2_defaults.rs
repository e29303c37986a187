//! Smoke test pinning `SimConfig::default()` to the paper's Table II
//! parameters, so an accidental change to the published configuration fails
//! fast instead of silently skewing every experiment.

use skybyte_types::{Freq, Nanos, SchedPolicy, SimConfig, GIB, MIB, PAGE_SIZE};

#[test]
fn default_config_matches_table_2() {
    let cfg = SimConfig::default();

    // Host CPU: 8 out-of-order cores at 4 GHz with a 256-entry ROB.
    assert_eq!(cfg.cpu.cores, 8);
    assert_eq!(cfg.cpu.freq, Freq::from_ghz(4.0));
    assert_eq!(cfg.cpu.rob_entries, 256);

    // Host memory: DDR5-4800 at ~70 ns loaded latency over 8 channels of
    // 32 GiB/s, 2 GiB promotion budget.
    assert_eq!(cfg.host_dram.access_latency, Nanos::new(70));
    assert_eq!(cfg.host_dram.bandwidth_bps, 8 * 32 * GIB);
    assert_eq!(cfg.host_dram.promotion_capacity_bytes, 2 * GIB);

    // Data TLB: 1536 entries, 30 ns page-walk penalty per miss.
    assert_eq!(cfg.cpu.tlb.entries, 1536);
    assert_eq!(cfg.cpu.tlb.miss_latency, Nanos::new(30));

    // CXL-SSD interface: 40 ns protocol latency per crossing.
    assert_eq!(cfg.ssd.cxl_protocol_latency, Nanos::new(40));

    // Flash: ULL (Z-NAND) timing — tR 3 µs, tProg 100 µs, tBERS 1 ms.
    assert_eq!(cfg.ssd.flash.read_latency, Nanos::from_micros(3));
    assert_eq!(cfg.ssd.flash.program_latency, Nanos::from_micros(100));
    assert_eq!(cfg.ssd.flash.erase_latency, Nanos::from_micros(1000));

    // Geometry: 16 channels × 8 chips × 8 dies × 128 blocks × 256 pages
    // × 4 KiB = 128 GiB raw capacity.
    assert_eq!(cfg.ssd.geometry.channels, 16);
    assert_eq!(PAGE_SIZE, 4096);
    assert_eq!(cfg.ssd.geometry.total_bytes(), 128 * GIB);

    // SSD-internal DRAM: 512 MiB of LPDDR4 at 90 ns, split 448 MiB data
    // cache + 64 MiB write log; index latencies from the FPGA prototype
    // measurements (§V).
    assert_eq!(cfg.ssd.dram.access_latency, Nanos::new(90));
    assert_eq!(cfg.ssd.dram.data_cache_bytes, 448 * MIB);
    assert_eq!(cfg.ssd.dram.write_log_bytes, 64 * MIB);
    assert_eq!(
        cfg.ssd.dram.data_cache_bytes + cfg.ssd.dram.write_log_bytes,
        512 * MIB
    );
    assert_eq!(cfg.ssd.dram.write_log_index_latency, Nanos::new(72));
    assert_eq!(cfg.ssd.dram.data_cache_index_latency, Nanos::new(49));

    // OS: CFS scheduling, 2 µs context-switch trigger threshold and 2 µs
    // switch overhead; GC starts at 80 % valid pages.
    assert_eq!(cfg.sched_policy, SchedPolicy::Cfs);
    assert_eq!(cfg.cs_threshold, Nanos::from_micros(2));
    assert_eq!(cfg.context_switch_overhead, Nanos::from_micros(2));
    assert_eq!(cfg.ssd.gc_threshold, 0.80);

    // The default must always be a valid configuration.
    cfg.validate().expect("Table II defaults must validate");
}
