//! Database tiering: in-memory OLTP/KV stores backed by a CXL-SSD.
//!
//! `tpcc` and `ycsb` have strongly skewed row popularity, so they benefit most
//! from SkyByte's adaptive page migration (§III-C): hot pages move into host
//! DRAM while the cold majority stays on cheap flash. This example compares
//! the migration policies of §VI-H — SkyByte's controller-tracked adaptive
//! promotion, TPP-style sampling, and an AstriFlash-style on-demand host page
//! cache — and prints where requests end up being served (the Figure 16
//! breakdown).
//!
//! ```text
//! cargo run --release -p skybyte-sim --example database_tiering
//! ```

use skybyte_sim::{ExperimentScale, Simulation};
use skybyte_types::VariantKind;
use skybyte_workloads::WorkloadKind;

fn main() {
    let scale = ExperimentScale::bench();
    let policies = [
        ("no migration (SkyByte-C)", VariantKind::SkyByteC),
        ("adaptive (SkyByte-CP)", VariantKind::SkyByteCP),
        ("TPP sampling (SkyByte-CT)", VariantKind::SkyByteCT),
        ("AstriFlash-CXL", VariantKind::AstriFlashCxl),
        ("full SkyByte", VariantKind::SkyByteFull),
    ];

    for workload in [WorkloadKind::Tpcc, WorkloadKind::Ycsb] {
        println!("=== {workload} ===");
        let reference = Simulation::build(VariantKind::SkyByteC, workload, &scale).run();
        for (label, variant) in policies {
            let r = Simulation::build(variant, workload, &scale).run();
            println!(
                "  {label:<26} time {:>6.3}x  served by: host {:>4.1}% | SSD-DRAM hit {:>4.1}% | flash {:>4.1}% | write {:>4.1}%  (promoted {:>5}, demoted {:>5})",
                r.normalized_exec_time(&reference),
                100.0 * r.requests.host_fraction(),
                100.0 * r.requests.ssd_read_hit_fraction(),
                100.0 * r.requests.ssd_read_miss_fraction(),
                100.0 * r.requests.ssd_write_fraction(),
                r.layers.migration.promotions,
                r.layers.migration.demotions,
            );
        }
        println!();
    }

    println!("Cost note (paper §VI-B): DDR5 DRAM ≈ $4.28/GB vs ULL flash ≈ $0.27/GB,");
    println!("so serving the cold majority from flash at a fraction of DRAM performance");
    println!("is what makes the CXL-SSD configuration cost-effective.");
}
