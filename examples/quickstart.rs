//! Quickstart: simulate one workload on the full SkyByte design and print the
//! headline metrics.
//!
//! ```text
//! cargo run --release -p skybyte-sim --example quickstart
//! ```

use skybyte_sim::{ExperimentScale, Simulation};
use skybyte_types::VariantKind;
use skybyte_workloads::WorkloadKind;

fn main() {
    // A reduced scale so the example finishes in a few seconds; use
    // `ExperimentScale::default_scale()` for larger runs.
    let scale = ExperimentScale::bench();
    let workload = WorkloadKind::Ycsb;

    println!("SkyByte quickstart — workload: {workload}");
    println!(
        "scale: footprint {} MiB, SSD DRAM {} MiB (log {} KiB), host budget {} MiB",
        scale.footprint_bytes >> 20,
        (scale.ssd_data_cache_bytes + scale.write_log_bytes) >> 20,
        scale.write_log_bytes >> 10,
        scale.host_dram_bytes >> 20,
    );
    println!();

    let baseline = Simulation::build(VariantKind::BaseCssd, workload, &scale).run();
    let skybyte = Simulation::build(VariantKind::SkyByteFull, workload, &scale).run();
    let ideal = Simulation::build(VariantKind::DramOnly, workload, &scale).run();

    for r in [&baseline, &skybyte, &ideal] {
        println!(
            "{:<14} exec {:>12}  AMAT {:>9}  flash writes {:>7}  ctx-switches {:>6}  promoted {:>5}",
            r.variant.to_string(),
            r.exec_time.to_string(),
            r.amat.amat().to_string(),
            r.layers.flash.pages_programmed,
            r.context_switches,
            r.layers.migration.promotions,
        );
    }
    println!();
    println!(
        "SkyByte-Full speed-up over Base-CSSD : {:.2}x",
        skybyte.speedup_over(&baseline)
    );
    println!(
        "Fraction of the DRAM-Only ideal      : {:.0}%",
        100.0 * ideal.exec_time.as_nanos() as f64 / skybyte.exec_time.as_nanos() as f64
    );
    println!(
        "Flash write-traffic reduction        : {:.2}x",
        baseline.layers.flash.pages_programmed.max(1) as f64
            / skybyte.layers.flash.pages_programmed.max(1) as f64
    );
}
