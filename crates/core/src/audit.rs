//! The cross-layer conservation audit.
//!
//! Every [`SimResult`] carries the engine's own counters and a raw
//! [`LayerCounters`](crate::metrics::LayerCounters) snapshot of each device
//! layer. Each reported figure has one owner: the run-wide request, AMAT,
//! latency, instruction and squash counters are sums over `per_tenant`, and
//! the device figures live in `layers` only. This module ties independently
//! counted figures together with **named invariants**: conservation laws
//! that must hold for *every* run of *every* variant on *every* workload. A
//! violated invariant means an accounting bug somewhere in the stack, and
//! the report names it, so a refactor that silently drifts a counter fails
//! loudly instead of quietly changing a figure. Two invariants do compare
//! two counts of one event: `write-log-append-agreement` compares the
//! controller's and the write log's count of each append, and
//! `migration-agreement` the controller's and the migration engine's count
//! of each promotion.
//!
//! The invariants (stable names, what tests and CI grep for):
//!
//! | name | law |
//! |------|-----|
//! | `requests-conservation` | classified SSD requests + squashed == `ssd_accesses` |
//! | `amat-histogram-agreement` | `amat.accesses` == latency-histogram sample count |
//! | `latency-ordering` | histogram min ≤ mean ≤ max |
//! | `flash-busy-bounded` | `flash_busy_time` ≤ `exec_time × flash_channels` |
//! | `compaction-time-bounded` | `compaction_time` ≤ `exec_time` |
//! | `ftl-page-conservation` | host pages written + GC relocations == pages programmed (so WAF ≥ 1) |
//! | `flash-ftl-program-agreement` | flash-side program count == FTL-side program count |
//! | `write-log-conservation` | log appends == in-place overwrites + retired live + stale + resident |
//! | `write-log-append-agreement` | controller appends == write-log appends |
//! | `ssd-access-agreement` | controller reads + writes == engine `ssd_accesses` |
//! | `read-path-partition` | reads == log hits + cache hits + zero fills + flash misses |
//! | `squash-context-switch-agreement` | squashed accesses == scheduler context switches |
//! | `migration-agreement` | the controller's promotion count == the migration engine's |
//! | `migration-cadence` | policy runs ≤ one per access window |
//! | `boundedness-exec-window` | `exec_time` ≤ Σ per-core accounted time ≤ `exec_time × cores` |
//! | `progress` | a run that classified requests took nonzero time |
//! | `cxl-port-agreement` | link requests == `ssd_accesses`; link responses == classified SSD requests + migrations |
//! | `telemetry-final-agreement` | the final cumulative telemetry sample matches the `layers` snapshot (only emitted when telemetry ran — see [`audit_with_telemetry`]) |
//!
//! The per-tenant attribution adds the laws its sums do not make true by
//! construction:
//!
//! | name | law |
//! |------|-----|
//! | `tenant-thread-partition` | Σ per-tenant threads == `threads` |
//! | `tenant-squash-conservation` | Σ per-tenant SSD accesses == `ssd_accesses`, and each tenant's squashes == its context switches |
//! | `tenant-finish-bounded` | every tenant finish time ≤ `exec_time`, and in an untruncated run the latest finish == `exec_time` |
//!
//! # Example
//!
//! ```
//! use skybyte_sim::{audit::audit, ExperimentScale, Simulation};
//! use skybyte_types::VariantKind;
//! use skybyte_workloads::WorkloadKind;
//!
//! let scale = ExperimentScale::tiny().with_accesses_per_thread(50);
//! let sim = Simulation::build(VariantKind::SkyByteFull, WorkloadKind::Ycsb, &scale);
//! let result = sim.run();
//! audit(&result).assert_clean(&format!("{} on {}", result.variant, result.workload));
//! ```

use crate::engine::MIGRATION_PERIOD_ACCESSES;
use crate::metrics::SimResult;
use crate::telemetry::MetricsSample;
use skybyte_types::{AuditReport, Nanos};

/// Evaluates every conservation invariant against one run's result.
///
/// The returned report is clean iff every law holds; see the module
/// documentation for the invariant list.
pub fn audit(r: &SimResult) -> AuditReport {
    let mut a = AuditReport::new();

    let classified_ssd = r.requests.ssd_read_hit + r.requests.ssd_read_miss + r.requests.ssd_write;
    a.check(
        "requests-conservation",
        classified_ssd + r.squashed_accesses == r.ssd_accesses,
        || {
            format!(
                "classified SSD requests ({classified_ssd}) + squashed \
                 ({}) != ssd_accesses ({})",
                r.squashed_accesses, r.ssd_accesses
            )
        },
    );

    a.check(
        "amat-histogram-agreement",
        r.amat.accesses == r.latency_hist.count(),
        || {
            format!(
                "amat.accesses ({}) != latency_hist.count() ({})",
                r.amat.accesses,
                r.latency_hist.count()
            )
        },
    );

    a.check(
        "latency-ordering",
        r.latency_hist.min() <= r.latency_hist.mean()
            && r.latency_hist.mean() <= r.latency_hist.max(),
        || {
            format!(
                "histogram min ({}) / mean ({}) / max ({}) out of order",
                r.latency_hist.min(),
                r.latency_hist.mean(),
                r.latency_hist.max()
            )
        },
    );

    let capacity = r.exec_time * r.flash_channels as u64;
    a.check("flash-busy-bounded", r.flash_busy_time <= capacity, || {
        format!(
            "flash_busy_time ({}) exceeds exec_time ({}) x {} channels \
                 ({capacity}) — over-unity bandwidth utilisation",
            r.flash_busy_time, r.exec_time, r.flash_channels
        )
    });

    a.check(
        "compaction-time-bounded",
        r.compaction_time <= r.exec_time,
        || {
            format!(
                "compaction_time ({}) exceeds exec_time ({})",
                r.compaction_time, r.exec_time
            )
        },
    );

    let ftl = &r.layers.ftl;
    a.check(
        "ftl-page-conservation",
        ftl.host_pages_written + ftl.gc_pages_relocated == ftl.flash_pages_programmed,
        || {
            format!(
                "host pages written ({}) + GC relocations ({}) != pages \
                 programmed ({})",
                ftl.host_pages_written, ftl.gc_pages_relocated, ftl.flash_pages_programmed
            )
        },
    );

    a.check(
        "flash-ftl-program-agreement",
        r.layers.flash.pages_programmed == ftl.flash_pages_programmed,
        || {
            format!(
                "flash-side programs ({}) != FTL-side programs ({})",
                r.layers.flash.pages_programmed, ftl.flash_pages_programmed
            )
        },
    );

    if let Some(wl) = &r.layers.write_log {
        // Addition form (never `appends - overwrites`): the audit must report
        // a corrupted counter as a named violation, not panic on underflow.
        let retired = wl.entries_retired_live + wl.entries_retired_stale;
        let resident = r.layers.write_log_resident_entries;
        a.check(
            "write-log-conservation",
            wl.appends == wl.overwrites_in_place + retired + resident,
            || {
                format!(
                    "log appends ({}) != overwrites in place ({}) + retired \
                     live ({}) + retired stale ({}) + resident ({resident})",
                    wl.appends,
                    wl.overwrites_in_place,
                    wl.entries_retired_live,
                    wl.entries_retired_stale
                )
            },
        );
        a.check(
            "write-log-append-agreement",
            r.layers.ssd.write_log_appends == wl.appends,
            || {
                format!(
                    "controller append count ({}) != write-log append count ({})",
                    r.layers.ssd.write_log_appends, wl.appends
                )
            },
        );
    }

    let ssd = &r.layers.ssd;
    a.check(
        "ssd-access-agreement",
        ssd.reads + ssd.writes == r.ssd_accesses,
        || {
            format!(
                "controller reads ({}) + writes ({}) != engine ssd_accesses ({})",
                ssd.reads, ssd.writes, r.ssd_accesses
            )
        },
    );

    a.check(
        "read-path-partition",
        ssd.reads
            == ssd.read_log_hits
                + ssd.read_cache_hits
                + ssd.read_zero_fills
                + ssd.read_flash_misses,
        || {
            format!(
                "reads ({}) != log hits ({}) + cache hits ({}) + zero fills \
                 ({}) + flash misses ({})",
                ssd.reads,
                ssd.read_log_hits,
                ssd.read_cache_hits,
                ssd.read_zero_fills,
                ssd.read_flash_misses
            )
        },
    );

    a.check(
        "squash-context-switch-agreement",
        r.squashed_accesses == r.context_switches,
        || {
            format!(
                "squashed accesses ({}) != scheduler context switches ({})",
                r.squashed_accesses, r.context_switches
            )
        },
    );

    let mig = &r.layers.migration;
    a.check(
        "migration-agreement",
        ssd.pages_promoted == mig.promotions,
        || {
            format!(
                "controller promoted {} page(s), migration engine {}",
                ssd.pages_promoted, mig.promotions
            )
        },
    );

    let windows = r.ssd_accesses / MIGRATION_PERIOD_ACCESSES + 1;
    a.check("migration-cadence", mig.runs <= windows, || {
        format!(
            "migration ran {} times over {} SSD accesses (max one per \
             {MIGRATION_PERIOD_ACCESSES}-access window => {windows})",
            mig.runs, r.ssd_accesses
        )
    });

    // Each core's clock advances by exactly what its boundedness buckets
    // account, so the totals bracket the execution time.
    let accounted = r.boundedness.total();
    let upper = r.exec_time * r.cores as u64;
    a.check(
        "boundedness-exec-window",
        accounted <= upper && (r.exec_time == Nanos::ZERO || accounted >= r.exec_time),
        || {
            format!(
                "boundedness total ({accounted}) outside [exec_time ({}), \
                 exec_time x {} cores ({upper})]",
                r.exec_time, r.cores
            )
        },
    );

    a.check(
        "progress",
        r.requests.total() == 0 || r.exec_time > Nanos::ZERO,
        || {
            format!(
                "{} classified requests but zero execution time",
                r.requests.total()
            )
        },
    );

    // Link-level conservation: every SSD access crosses the port exactly
    // once as a request; every *classified* (non-squashed) access gets one
    // response (write ack or cacheline), and each page migration moves one
    // payload (counted as a response) in either direction.
    let cxl = &r.layers.cxl;
    let expected_responses = classified_ssd + mig.promotions + mig.demotions;
    a.check(
        "cxl-port-agreement",
        cxl.requests == r.ssd_accesses && cxl.responses == expected_responses,
        || {
            format!(
                "link requests ({}) != ssd_accesses ({}), or link responses \
                 ({}) != classified SSD requests ({classified_ssd}) + \
                 promotions ({}) + demotions ({}) = {expected_responses}",
                cxl.requests, r.ssd_accesses, cxl.responses, mig.promotions, mig.demotions
            )
        },
    );

    audit_tenants(r, &mut a);
    a
}

/// [`audit`], additionally checking the `telemetry-final-agreement`
/// invariant when a final cumulative telemetry sample is provided: the
/// sampler's last row — taken at `exec_time` after the end-of-run flush —
/// must agree with the result's own `layers` snapshot on every counter both
/// sides carry. Pass `None` (or use plain [`audit`]) when telemetry was
/// off; the invariant is then skipped, not vacuously satisfied.
pub fn audit_with_telemetry(r: &SimResult, final_sample: Option<&MetricsSample>) -> AuditReport {
    let mut a = audit(r);
    let Some(s) = final_sample else {
        return a;
    };
    let agrees = s.flash_pages_programmed == r.layers.flash.pages_programmed
        && s.flash_pages_read == r.layers.flash.pages_read
        && s.ssd_reads == r.layers.ssd.reads
        && s.ssd_writes == r.layers.ssd.writes
        && s.write_log_appends == r.layers.ssd.write_log_appends
        && s.compactions == r.layers.ssd.compactions
        && s.gc_campaigns == r.layers.ftl.gc_campaigns
        && s.cxl_requests == r.layers.cxl.requests
        && s.pages_promoted == r.layers.migration.promotions
        && s.pages_demoted == r.layers.migration.demotions
        && s.migration_runs == r.layers.migration.runs
        && s.ssd_accesses == r.ssd_accesses
        && s.squashed_accesses == r.squashed_accesses
        && s.context_switches == r.context_switches
        && s.time == r.exec_time;
    a.check("telemetry-final-agreement", agrees, || {
        format!(
            "final telemetry sample at {} disagrees with the layers snapshot: \
             flash prog {}/{} read {}/{}, ssd r {}/{} w {}/{}, log appends {}/{}, \
             compactions {}/{}, gc {}/{}, cxl req {}/{}, promoted {}/{}, \
             demoted {}/{}, migration runs {}/{}, accesses {}/{}, squashed {}/{}, \
             ctx switches {}/{}, exec_time {}",
            s.time,
            s.flash_pages_programmed,
            r.layers.flash.pages_programmed,
            s.flash_pages_read,
            r.layers.flash.pages_read,
            s.ssd_reads,
            r.layers.ssd.reads,
            s.ssd_writes,
            r.layers.ssd.writes,
            s.write_log_appends,
            r.layers.ssd.write_log_appends,
            s.compactions,
            r.layers.ssd.compactions,
            s.gc_campaigns,
            r.layers.ftl.gc_campaigns,
            s.cxl_requests,
            r.layers.cxl.requests,
            s.pages_promoted,
            r.layers.migration.promotions,
            s.pages_demoted,
            r.layers.migration.demotions,
            s.migration_runs,
            r.layers.migration.runs,
            s.ssd_accesses,
            r.ssd_accesses,
            s.squashed_accesses,
            r.squashed_accesses,
            s.context_switches,
            r.context_switches,
            r.exec_time,
        )
    });
    a
}

/// The `tenant-*` invariant set: the laws of the per-tenant attribution
/// that its sums do not make true by construction — the thread partition,
/// the SSD accesses (which the engine also counts run-wide, for the
/// migration cadence), each tenant's squash/switch pairing and the finish
/// times, the latest of which ends an untruncated run.
fn audit_tenants(r: &SimResult, a: &mut AuditReport) {
    let tenants = &r.per_tenant;

    let thread_sum: u32 = tenants.iter().map(|t| t.threads).sum();
    a.check("tenant-thread-partition", thread_sum == r.threads, || {
        format!(
            "per-tenant thread counts sum to {thread_sum}, run has {}",
            r.threads
        )
    });

    let ssd: u64 = tenants.iter().map(|t| t.ssd_accesses).sum();
    let per_tenant_cs_agree = tenants
        .iter()
        .all(|t| t.squashed_accesses == t.context_switches);
    a.check(
        "tenant-squash-conservation",
        ssd == r.ssd_accesses && per_tenant_cs_agree,
        || {
            format!(
                "per-tenant SSD accesses sum to {ssd}, run has {}, or a \
                 tenant's squashes disagree with its context switches",
                r.ssd_accesses
            )
        },
    );

    // Every tenant finishes by exec_time, and an untruncated run ends when
    // its last thread finishes.
    let latest = tenants
        .iter()
        .map(|t| t.finish_time)
        .fold(Nanos::ZERO, Nanos::max);
    let bounded = latest <= r.exec_time && (r.truncated || latest == r.exec_time);
    a.check("tenant-finish-bounded", bounded, || {
        // Raw nanoseconds: `Nanos`'s `Display` renders both sides of a
        // sub-microsecond gap alike (e.g. `4.140ms`).
        format!(
            "the latest tenant finish is {} ns, the run's exec_time {} ns",
            latest.as_nanos(),
            r.exec_time.as_nanos()
        )
    });
}
