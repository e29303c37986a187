//! End-to-end integration tests spanning every crate in the workspace.
//!
//! These check the *shape* of the paper's headline results at a tiny scale:
//! who wins, in which direction the traffic moves, and that the bookkeeping
//! of the different layers (host model, CXL port, SSD controller, FTL, flash
//! array) stays mutually consistent.

use skybyte_sim::metrics::geometric_mean;
use skybyte_sim::{ExperimentScale, Simulation};
use skybyte_types::{Nanos, VariantKind};
use skybyte_workloads::WorkloadKind;

fn scale() -> ExperimentScale {
    ExperimentScale::tiny().with_accesses_per_thread(600)
}

fn run(variant: VariantKind, workload: WorkloadKind) -> skybyte_sim::SimResult {
    Simulation::build(variant, workload, &scale()).run()
}

#[test]
fn all_variants_process_the_same_amount_of_work() {
    // The ablation compares designs on identical work: every variant must
    // classify exactly `accesses_per_thread * cores` memory accesses, no
    // matter how many threads the work is divided among.
    let expected = scale().accesses_per_thread * 8;
    for variant in [
        VariantKind::BaseCssd,
        VariantKind::SkyByteW,
        VariantKind::SkyByteCP,
        VariantKind::SkyByteFull,
        VariantKind::DramOnly,
        VariantKind::AstriFlashCxl,
    ] {
        let r = run(variant, WorkloadKind::Srad);
        assert_eq!(
            r.total_accesses(),
            expected,
            "{variant}: classified {} accesses, expected {expected}",
            r.total_accesses()
        );
    }
}

#[test]
fn figure2_shape_cxl_ssd_is_much_slower_than_dram() {
    for workload in [WorkloadKind::Bc, WorkloadKind::Tpcc] {
        let dram = run(VariantKind::DramOnly, workload);
        let cssd = run(VariantKind::BaseCssd, workload);
        let slowdown = cssd.exec_time.as_nanos() as f64 / dram.exec_time.as_nanos() as f64;
        assert!(
            slowdown > 1.5,
            "{workload}: expected a >1.5x slowdown on the baseline CXL-SSD, got {slowdown:.2}"
        );
    }
}

#[test]
fn figure14_shape_full_design_recovers_most_of_the_gap() {
    let workloads = [WorkloadKind::Bc, WorkloadKind::Ycsb, WorkloadKind::Srad];
    let mut speedups = Vec::new();
    for w in workloads {
        let base = run(VariantKind::BaseCssd, w);
        let full = run(VariantKind::SkyByteFull, w);
        let dram = run(VariantKind::DramOnly, w);
        assert!(
            full.exec_time < base.exec_time,
            "{w}: SkyByte-Full must outperform Base-CSSD"
        );
        assert!(
            dram.exec_time <= full.exec_time,
            "{w}: DRAM-Only is a lower bound"
        );
        speedups.push(base.exec_time.as_nanos() as f64 / full.exec_time.as_nanos() as f64);
    }
    let geo = geometric_mean(speedups.iter().copied());
    assert!(
        geo > 1.3,
        "geometric-mean speedup of SkyByte-Full over Base-CSSD too small: {geo:.2}"
    );
}

#[test]
fn figure18_shape_write_log_cuts_flash_write_traffic() {
    for workload in [WorkloadKind::Tpcc, WorkloadKind::Dlrm] {
        let base = run(VariantKind::BaseCssd, workload).layers.flash;
        let full = run(VariantKind::SkyByteFull, workload).layers.flash;
        assert!(
            (full.pages_programmed as f64) < 0.9 * base.pages_programmed.max(1) as f64,
            "{workload}: expected a clear write-traffic reduction ({} vs {})",
            full.pages_programmed,
            base.pages_programmed
        );
    }
}

#[test]
fn figure17_shape_amat_improves_with_each_mechanism() {
    let workload = WorkloadKind::Ycsb;
    let base = run(VariantKind::BaseCssd, workload);
    let wp = run(VariantKind::SkyByteWP, workload);
    let dram = run(VariantKind::DramOnly, workload);
    assert!(wp.amat.amat() < base.amat.amat());
    assert!(dram.amat.amat() < wp.amat.amat());
    // The flash component dominates the baseline AMAT (Figure 17b).
    assert!(base.amat.flash * 2 > base.amat.total());
}

#[test]
fn accounting_is_consistent_across_layers() {
    let r = run(VariantKind::SkyByteFull, WorkloadKind::Radix);
    // Request classification covers every access exactly once.
    assert_eq!(
        r.requests.host + r.requests.ssd_read_hit + r.requests.ssd_read_miss + r.requests.ssd_write,
        r.total_accesses()
    );
    // AMAT only counts retired accesses: never more than the classified ones.
    assert!(r.amat.accesses <= r.total_accesses());
    // Latency histogram matches the AMAT population.
    assert_eq!(r.latency_hist.count(), r.amat.accesses);
    // Write amplification can never be below 1.
    assert!(r.layers.ftl.write_amplification() >= 1.0);
    // Boundedness accounts some busy time on every run.
    assert!(r.boundedness.total() > Nanos::ZERO);
    // Bandwidth utilisation is a fraction.
    let util = r.ssd_bandwidth_utilisation();
    assert!((0.0..=1.0).contains(&util));
}

#[test]
fn promotion_budget_is_respected_end_to_end() {
    let tight = ExperimentScale::tiny()
        .with_accesses_per_thread(500)
        .with_host_dram(8 * 4096); // only 8 promoted pages allowed
    let r = Simulation::build(VariantKind::SkyByteCP, WorkloadKind::Ycsb, &tight).run();
    let m = r.layers.migration;
    assert!(m.promotions > 0, "promotion should still happen");
    // Promotions beyond the budget force demotions.
    assert!(
        m.promotions <= m.demotions + 8,
        "resident promoted pages exceed the budget: promoted {} demoted {}",
        m.promotions,
        m.demotions
    );
}

#[test]
fn context_switching_improves_ssd_bandwidth_utilisation() {
    // §VI-C: more threads + coordinated context switches keep more flash
    // requests in flight than a blocked 8-thread baseline.
    let workload = WorkloadKind::BfsDense;
    let wp = run(VariantKind::SkyByteWP, workload);
    let full = run(VariantKind::SkyByteFull, workload);
    assert!(full.context_switches > 0);
    assert!(
        full.ssd_bandwidth_utilisation() >= wp.ssd_bandwidth_utilisation() * 0.9,
        "context switching should not reduce SSD bandwidth utilisation ({:.3} vs {:.3})",
        full.ssd_bandwidth_utilisation(),
        wp.ssd_bandwidth_utilisation()
    );
}

#[test]
fn results_serialise_for_the_experiment_log() {
    let r = run(VariantKind::SkyByteW, WorkloadKind::Bc);
    let json = serde_json::to_string_pretty(&r).expect("serialise");
    assert!(json.contains("\"workload\": \"bc\""));
    let back: skybyte_sim::SimResult = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back.exec_time, r.exec_time);
}
