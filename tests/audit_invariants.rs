//! The cross-layer conservation audit, exercised three ways:
//!
//! 1. every design variant × workload pair at tiny scale must produce a
//!    clean report — any future accounting bug fails here with the violated
//!    invariant's name;
//! 2. deliberately corrupting each audited counter must fire **exactly** the
//!    matching invariant (the audit localises bugs, it does not just detect
//!    them);
//! 3. a proptest sweep over random tiny workload/config points keeps the
//!    invariant set honest off the beaten path of the named experiments.

use skybyte::sim::audit::audit;
use skybyte::sim::{ExperimentScale, SimResult, Simulation};
use skybyte::types::{Nanos, VariantKind};
use skybyte::workloads::WorkloadKind;

fn tiny() -> ExperimentScale {
    ExperimentScale::tiny().with_accesses_per_thread(200)
}

#[test]
fn every_variant_and_workload_conserves_at_tiny_scale() {
    let scale = tiny();
    for variant in VariantKind::ALL {
        for workload in WorkloadKind::ALL {
            let result = Simulation::build(variant, workload, &scale).run();
            let report = audit(&result);
            report.assert_clean(&format!("{variant} on {workload:?}"));
            assert!(!result.truncated);
            // Every run is checked against the full invariant set: 15
            // device/engine laws, the two write-log laws when the log is
            // enabled, and the three tenant laws (the pipelined engine
            // attributes every run, so there is always one tenant).
            assert_eq!(result.per_tenant.len(), 1);
            let write_log_laws = 2 * usize::from(result.layers.write_log.is_some());
            assert_eq!(report.checked(), 15 + write_log_laws + 3, "{report}");
        }
    }
}

#[test]
fn multi_tenant_colocation_conserves_for_every_variant() {
    // A ycsb + tpcc co-location (the interference experiment's shape) must
    // conserve across every design variant: the tenants partition the
    // threads and SSD accesses, and the port agrees with the access stream
    // even under contention.
    let scale = tiny();
    for variant in VariantKind::ALL {
        let sim = Simulation::build_multi(
            variant,
            &[(WorkloadKind::Ycsb, 4), (WorkloadKind::Tpcc, 4)],
            &scale,
        );
        let result = sim.run();
        let report = audit(&result);
        report.assert_clean(&format!("{variant} on ycsb+tpcc"));
        assert!(!result.truncated);
        assert_eq!(result.per_tenant.len(), 2);
        assert_eq!(result.threads, 8);
        assert_eq!(result.workload, "ycsb+tpcc");
        for t in &result.per_tenant {
            assert_eq!(t.threads, 4);
            assert!(
                t.requests.total() > 0,
                "{variant}: tenant {} starved",
                t.tenant.0
            );
        }
    }
}

#[test]
fn audit_is_clean_for_replayed_traces_too() {
    use skybyte::sim::TraceDrive;
    let dir = std::env::temp_dir().join(format!("skybyte-audit-replay-{}", std::process::id()));
    let scale = tiny();
    let sim = Simulation::build(VariantKind::SkyByteFull, WorkloadKind::Tpcc, &scale);
    let live = sim
        .clone()
        .with_drive(TraceDrive::Record { dir: dir.clone() })
        .run();
    audit(&live).assert_clean("recorded run");
    let replayed = sim
        .clone()
        .with_drive(TraceDrive::Replay { dir: dir.clone() })
        .run();
    audit(&replayed).assert_clean("replayed run");
    assert_eq!(live, replayed);
    std::fs::remove_dir_all(&dir).ok();
}

/// A base result with every subsystem active: write log (compactions),
/// promotions, context switches, GC.
fn base_result() -> SimResult {
    let r = Simulation::build(VariantKind::SkyByteFull, WorkloadKind::Tpcc, &tiny()).run();
    // The corruption tests below rely on these populations being nonempty.
    assert!(r.ssd_accesses > 0 && r.context_switches > 0);
    assert!(r.layers.write_log.is_some() && r.layers.ssd.compactions > 0);
    assert!(r.layers.migration.promotions > 0);
    audit(&r).assert_clean("corruption-test baseline");
    r
}

/// Corrupts `r` with `break_it` and asserts that **exactly** `expected`
/// fires, with its name in the rendered report.
fn assert_fires_exactly(r: &SimResult, expected: &str, break_it: impl FnOnce(&mut SimResult)) {
    let mut bad = r.clone();
    break_it(&mut bad);
    let report = audit(&bad);
    let rendered = report.to_string();
    let one_violation = format!("audit violated 1 of {} invariants:", report.checked());
    assert!(
        rendered.starts_with(&one_violation) && rendered.contains(&format!("  [{expected}] ")),
        "corrupting for '{expected}' fired:\n{rendered}"
    );
}

#[test]
fn corrupting_each_counter_fires_exactly_the_matching_invariant() {
    let r = base_result();

    // The classified-request total also feeds the link-level law; shift the
    // link's response count in lock-step so only the requests-vs-squash
    // conservation can fire.
    assert_fires_exactly(&r, "requests-conservation", |b| {
        b.requests.ssd_write += 1;
        b.layers.cxl.responses += 1;
    });
    assert_fires_exactly(&r, "amat-histogram-agreement", |b| {
        b.amat.accesses += 1;
    });
    assert_fires_exactly(&r, "flash-busy-bounded", |b| {
        b.flash_busy_time = b.exec_time * (b.flash_channels as u64) + Nanos::new(1);
    });
    assert_fires_exactly(&r, "compaction-time-bounded", |b| {
        b.compaction_time = b.exec_time + Nanos::new(1);
    });
    // gc_pages_relocated appears in the FTL conservation law only.
    assert_fires_exactly(&r, "ftl-page-conservation", |b| {
        b.layers.ftl.gc_pages_relocated += 1;
    });
    // The flash-side count alone: the FTL's own conservation law stays
    // intact.
    assert_fires_exactly(&r, "flash-ftl-program-agreement", |b| {
        b.layers.flash.pages_programmed += 1;
    });
    assert_fires_exactly(&r, "write-log-conservation", |b| {
        b.layers.write_log.as_mut().unwrap().entries_retired_live += 1;
    });
    assert_fires_exactly(&r, "write-log-append-agreement", |b| {
        b.layers.ssd.write_log_appends += 1;
    });
    // Bump reads and a hit bucket together: isolates the cross-layer access
    // agreement from the controller-internal read partition.
    assert_fires_exactly(&r, "ssd-access-agreement", |b| {
        b.layers.ssd.reads += 1;
        b.layers.ssd.read_zero_fills += 1;
    });
    assert_fires_exactly(&r, "read-path-partition", |b| {
        b.layers.ssd.read_zero_fills += 1;
    });
    assert_fires_exactly(&r, "squash-context-switch-agreement", |b| {
        b.context_switches += 1;
    });
    // The controller's side of a promotion: the migration engine's count
    // also feeds the link law, the controller's feeds nothing else.
    assert_fires_exactly(&r, "migration-agreement", |b| {
        b.layers.ssd.pages_promoted += 1;
    });
    assert_fires_exactly(&r, "migration-cadence", |b| {
        b.layers.migration.runs = b.ssd_accesses; // far beyond one per window
    });
    assert_fires_exactly(&r, "boundedness-exec-window", |b| {
        b.boundedness.idle += b.exec_time * (b.cores as u64);
    });
    // Classified requests in zero time: every time bound collapses to zero
    // with it, so only the progress law can fire.
    assert_fires_exactly(&r, "progress", |b| {
        b.exec_time = Nanos::ZERO;
        b.flash_busy_time = Nanos::ZERO;
        b.compaction_time = Nanos::ZERO;
        b.boundedness = Default::default();
        for t in &mut b.per_tenant {
            t.finish_time = Nanos::ZERO;
        }
    });
    assert_fires_exactly(&r, "cxl-port-agreement", |b| b.layers.cxl.requests += 1);
    assert_fires_exactly(&r, "cxl-port-agreement", |b| b.layers.cxl.responses += 1);
}

#[test]
fn corrupting_tenant_counters_fires_exactly_the_matching_invariant() {
    let r = base_result();
    assert_eq!(r.per_tenant.len(), 1, "single-tenant run, one attribution");

    assert_fires_exactly(&r, "tenant-thread-partition", |b| {
        b.per_tenant[0].threads += 1;
    });
    // Both halves of the squash law: a leaked SSD access, and a context
    // switch without its squash.
    assert_fires_exactly(&r, "tenant-squash-conservation", |b| {
        b.per_tenant[0].ssd_accesses += 1;
    });
    assert_fires_exactly(&r, "tenant-squash-conservation", |b| {
        b.per_tenant[0].context_switches += 1;
    });
    assert_fires_exactly(&r, "tenant-finish-bounded", |b| {
        b.per_tenant[0].finish_time = b.exec_time + Nanos::new(1);
    });
    // An untruncated run ends when its last thread finishes: a run that
    // reports a later exec_time overstates it.
    assert_fires_exactly(&r, "tenant-finish-bounded", |b| {
        b.per_tenant[0].finish_time = b.exec_time - Nanos::new(1);
    });
}

#[test]
fn corruption_reports_carry_the_concrete_numbers() {
    let r = base_result();
    let mut bad = r.clone();
    bad.requests.ssd_write += 7;
    let report = audit(&bad);
    let rendered = report.to_string();
    assert!(
        rendered.contains("ssd_accesses"),
        "detail must name the counters: {rendered}"
    );
}

mod proptest_sweep {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The full invariant set holds across random tiny workload points:
        /// any variant, any workload, varying thread counts, budgets and
        /// seeds (including single-thread and oversubscribed shapes).
        #[test]
        fn random_tiny_workloads_conserve(
            variant_idx in 0usize..VariantKind::ALL.len(),
            workload_idx in 0usize..WorkloadKind::ALL.len(),
            threads in 1u32..20,
            accesses in 40u64..220,
            seed in 0u64..1_000,
        ) {
            let variant = VariantKind::ALL[variant_idx];
            let workload = WorkloadKind::ALL[workload_idx];
            let mut scale = ExperimentScale::tiny().with_accesses_per_thread(accesses);
            scale.seed = seed;
            let cfg = scale
                .apply(skybyte::types::SimConfig::default().with_variant(variant))
                .with_threads(threads);
            let sim = Simulation::with_config(cfg, workload, &scale);
            let report = audit(&sim.run());
            prop_assert!(
                report.is_clean(),
                "{variant} on {workload:?} (threads {threads}, accesses {accesses}, seed {seed}):\n{report}"
            );
        }
    }
}
