//! Integration tests of the OS-side policies through the full simulator:
//! scheduling policies (Figure 10), the context-switch trigger threshold
//! (Figure 9) and the flash-technology sensitivity (Figure 22).

use skybyte_sim::{ExperimentScale, Simulation};
use skybyte_types::{NandKind, Nanos, SchedPolicy, SimConfig, VariantKind};
use skybyte_workloads::WorkloadKind;

fn scale() -> ExperimentScale {
    ExperimentScale::tiny().with_accesses_per_thread(500)
}

fn run_with(cfg: SimConfig, workload: WorkloadKind) -> skybyte_sim::SimResult {
    Simulation::with_config(cfg, workload, &scale()).run()
}

#[test]
fn figure10_shape_scheduling_policies_perform_similarly() {
    // The paper finds RR, Random and CFS deliver similar performance because
    // the threads are all memory-bound and get similar chances to issue I/O.
    let workload = WorkloadKind::Srad;
    let mut times = Vec::new();
    for policy in [
        SchedPolicy::RoundRobin,
        SchedPolicy::Random,
        SchedPolicy::Cfs,
    ] {
        let mut cfg = scale().apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
        cfg.sched_policy = policy;
        let r = run_with(cfg, workload);
        assert!(r.context_switches > 0, "{policy}: no context switches");
        times.push(r.exec_time.as_nanos() as f64);
    }
    let min = times.iter().cloned().fold(f64::MAX, f64::min);
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max / min < 1.5,
        "policies should be within 50% of each other: {times:?}"
    );
}

#[test]
fn figure9_shape_raising_the_threshold_reduces_context_switches() {
    let workload = WorkloadKind::Bc;
    let mut previous_switches = u64::MAX;
    for threshold_us in [2u64, 20, 80] {
        let mut cfg = scale().apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
        cfg.cs_threshold = Nanos::from_micros(threshold_us);
        let r = run_with(cfg, workload);
        assert!(
            r.context_switches <= previous_switches,
            "context switches must not increase with the threshold \
             ({threshold_us}us: {} vs previous {previous_switches})",
            r.context_switches
        );
        previous_switches = r.context_switches;
    }
}

#[test]
fn figure9_shape_default_threshold_is_competitive() {
    // A 2 µs threshold (below tR) should never be much worse than a very
    // conservative 80 µs threshold, and usually better.
    let workload = WorkloadKind::Srad;
    let run_threshold = |us: u64| {
        let mut cfg = scale().apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
        cfg.cs_threshold = Nanos::from_micros(us);
        run_with(cfg, workload).exec_time
    };
    let fast = run_threshold(2);
    let slow = run_threshold(80);
    assert!(
        fast.as_nanos() as f64 <= slow.as_nanos() as f64 * 1.25,
        "the paper's 2us threshold should be competitive: {fast} vs {slow}"
    );
}

#[test]
fn figure22_shape_slower_flash_hurts_but_context_switching_compensates() {
    let workload = WorkloadKind::Ycsb;
    // SkyByte-WP (no context switches) degrades sharply from ULL to MLC.
    let wp = |nand: NandKind| {
        let cfg = scale().apply(
            SimConfig::default()
                .with_variant(VariantKind::SkyByteWP)
                .with_nand(nand),
        );
        run_with(cfg, workload).exec_time
    };
    let full = |nand: NandKind| {
        let cfg = scale()
            .apply(
                SimConfig::default()
                    .with_variant(VariantKind::SkyByteFull)
                    .with_nand(nand),
            )
            .with_threads(24);
        run_with(cfg, workload).exec_time
    };
    let wp_ull = wp(NandKind::Ull);
    let wp_mlc = wp(NandKind::Mlc);
    assert!(wp_mlc > wp_ull, "slower flash must slow SkyByte-WP down");

    // The relative benefit of context switching is larger on slow flash.
    let gain_ull = wp_ull.as_nanos() as f64 / full(NandKind::Ull).as_nanos() as f64;
    let gain_mlc = wp_mlc.as_nanos() as f64 / full(NandKind::Mlc).as_nanos() as f64;
    assert!(
        gain_mlc >= gain_ull * 0.9,
        "context switching should help at least as much on MLC \
         (gain ULL {gain_ull:.2}x vs MLC {gain_mlc:.2}x)"
    );
}

#[test]
fn table3_shape_flash_read_latency_includes_queueing() {
    // The average flash read latency observed by SkyByte-WP is at least tR
    // and grows with queueing (Table III reports 3.3–25.7 µs).
    let cfg = scale().apply(SimConfig::default().with_variant(VariantKind::SkyByteWP));
    let r = run_with(cfg, WorkloadKind::BfsDense);
    let avg = r.layers.flash.avg_read_latency();
    assert!(avg >= Nanos::from_micros(3));
    assert!(avg < Nanos::from_millis(5));
}

#[test]
fn dram_only_ignores_ssd_knobs() {
    // The ideal case must be insensitive to SSD-side configuration.
    let a = {
        let cfg = scale().apply(SimConfig::default().with_variant(VariantKind::DramOnly));
        run_with(cfg, WorkloadKind::Radix)
    };
    let b = {
        let cfg = scale().apply(
            SimConfig::default()
                .with_variant(VariantKind::DramOnly)
                .with_nand(NandKind::Mlc),
        );
        run_with(cfg, WorkloadKind::Radix)
    };
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.layers.flash.pages_programmed, 0);
    assert_eq!(b.layers.flash.pages_programmed, 0);
}
