//! Device-design ablation: how big should the write log be, and does SkyByte
//! still help with slower (cheaper) flash?
//!
//! Reproduces, for a single write-heavy workload, the two sensitivity studies
//! of §VI-E and §VI-G: the write-log size sweep (Figures 19–20) and the flash
//! technology sweep (Figure 22, Table IV).
//!
//! ```text
//! cargo run --release -p skybyte-sim --example device_design_ablation
//! ```

use skybyte_sim::{ExperimentScale, Simulation};
use skybyte_types::{NandKind, SimConfig, VariantKind, KIB};
use skybyte_workloads::WorkloadKind;

fn main() {
    let scale = ExperimentScale::bench();
    let workload = WorkloadKind::Tpcc;
    println!("Workload: {workload} (36% writes, skewed row updates)\n");

    // --- Write-log size sweep (Figures 19–20) -----------------------------
    println!("Write-log size sweep (total SSD DRAM held constant):");
    let total = scale.ssd_data_cache_bytes + scale.write_log_bytes;
    let mut reference_writes = None;
    let mut reference_time = None;
    for log_kib in [32u64, 64, 128, 256, 512, 1024] {
        let log = log_kib * KIB;
        if log >= total {
            continue;
        }
        let sweep = scale.with_ssd_dram(total - log, log);
        let r = Simulation::build(VariantKind::SkyByteFull, workload, &sweep).run();
        let writes = r.layers.flash.pages_programmed;
        let ref_w = *reference_writes.get_or_insert(writes.max(1));
        let ref_t = *reference_time.get_or_insert(r.exec_time);
        println!(
            "  log {:>5} KiB: exec time {:>6.3}x, flash writes {:>6.3}x, compactions {:>4}",
            log_kib,
            r.exec_time.as_nanos() as f64 / ref_t.as_nanos() as f64,
            writes as f64 / ref_w as f64,
            r.layers.ssd.compactions,
        );
    }
    println!("  (the paper finds ~1/8 of the SSD DRAM is already enough — larger logs");
    println!("   give diminishing returns once the coalescing window covers the hot set)\n");

    // --- Flash technology sweep (Figure 22 / Table IV) --------------------
    println!("Flash technology sweep (normalised to SkyByte-WP on the same flash):");
    for nand in NandKind::ALL {
        let wp_cfg = scale.apply(
            SimConfig::default()
                .with_variant(VariantKind::SkyByteWP)
                .with_nand(nand),
        );
        let wp = Simulation::with_config(wp_cfg, workload, &scale).run();
        let full_cfg = scale
            .apply(
                SimConfig::default()
                    .with_variant(VariantKind::SkyByteFull)
                    .with_nand(nand),
            )
            .with_threads(24);
        let full = Simulation::with_config(full_cfg, workload, &scale).run();
        println!(
            "  {:<5} (tR {:>3.0}us): SkyByte-Full runs in {:>5.2}x the time of SkyByte-WP \
             ({} context switches hide the extra latency)",
            nand.to_string(),
            skybyte_types::FlashTimingConfig::for_kind(nand)
                .read_latency
                .as_micros_f64(),
            full.normalized_exec_time(&wp),
            full.context_switches,
        );
    }
    println!("\nWith slower SLC/MLC flash the context-switch benefit grows, which is the");
    println!("paper's argument that SkyByte makes cheap commodity flash usable as memory.");
}
