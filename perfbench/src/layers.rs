//! Per-layer measurements for the traced run: host-time layer benches that replay a
//! workload's own pre-generated stream through each layer's public API, and
//! the simulated counters folded over a pass's results.

use crate::stats::{median, ratio};
use crate::trace::{timer_overhead_ns, Tracer};
use skybyte_cache::{DataCache, WriteLog};
use skybyte_cxl::CxlPort;
use skybyte_flash::{FlashArray, FlashCommandKind};
use skybyte_ftl::Ftl;
use skybyte_os::{BlockReason, Scheduler, Tlb};
use skybyte_sim::{ExperimentScale, SimResult, Simulation};
use skybyte_ssd::SsdController;
use skybyte_trace::TraceRecord;
use skybyte_types::{Lpa, Nanos, SimConfig, VariantKind};
use skybyte_workloads::{TraceSource, WorkloadKind, WorkloadSource};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A named metric value with its unit.
pub type Metric = (&'static str, &'static str, f64);

/// Records pulled from each application stream for the layer benches.
pub const RECORDS_PER_KIND: usize = 100_000;

/// A workload's pre-generated access stream, plus the host time generating
/// it took.
pub struct Stream {
    pub records: Vec<TraceRecord>,
    pub gen_ns: u64,
}

/// Pulls `per_kind` records round-robin over the threads of each kind's
/// live source, exactly as the engine would see them under Base-CSSD.
pub fn pregenerate(kinds: &[WorkloadKind], scale: &ExperimentScale, per_kind: usize) -> Stream {
    let mut records = Vec::with_capacity(kinds.len() * per_kind);
    let mut gen_ns = 0;
    for &kind in kinds {
        let threads = Simulation::build(VariantKind::BaseCssd, kind, scale)
            .config()
            .threads;
        let mut source = WorkloadSource::new(&scale.workload_spec(kind), threads, scale.seed);
        let start = Instant::now();
        for i in 0..per_kind {
            let record = source
                .next_record(i as u32 % threads)
                .expect("live sources never fail")
                .expect("live sources are unbounded");
            records.push(record);
        }
        gen_ns += start.elapsed().as_nanos() as u64;
    }
    Stream { records, gen_ns }
}

fn lpa_cl(r: &TraceRecord) -> (Lpa, u8) {
    (
        Lpa::new(r.access.addr.page().index()),
        r.access.addr.cacheline_in_page() as u8,
    )
}

fn config(scale: &ExperimentScale, variant: VariantKind) -> SimConfig {
    scale.apply(SimConfig::default().with_variant(variant))
}

/// Pages the engine preconditions before a run at `scale`.
fn precondition_pages(scale: &ExperimentScale, ssd: &SsdController) -> u64 {
    let pages = scale.footprint_bytes / skybyte_types::PAGE_SIZE as u64;
    ((pages as f64 * scale.precondition_fraction) as u64).min(ssd.logical_pages())
}

fn per(total_ns: u128, count: usize) -> f64 {
    ratio(total_ns as f64, count as f64)
}

/// Replays `stream` through each layer in isolation and returns host
/// nanoseconds per operation. The SSD, write-log, data-cache, FTL and flash
/// benches run the Base-CSSD and SkyByte-W configurations. Timed devices run
/// a closed loop with one request outstanding: the next request arrives when
/// the previous one completes, so queues stay as short as the engine keeps
/// them rather than growing without bound.
pub fn drive_layers(
    stream: &Stream,
    scale: &ExperimentScale,
    tracer: &mut Tracer,
    parent: u64,
) -> Vec<Metric> {
    let records = &stream.records;
    let writes: Vec<(Lpa, u8)> = records
        .iter()
        .filter(|r| r.access.kind.is_write())
        .map(lpa_cl)
        .collect();
    let reads: Vec<(Lpa, u8)> = records
        .iter()
        .filter(|r| r.access.kind.is_read())
        .map(lpa_cl)
        .collect();
    let variants = [VariantKind::BaseCssd, VariantKind::SkyByteW];
    let overhead = timer_overhead_ns();
    let mut out = Vec::new();

    // SSD controller: per-call timing, since reads and writes interleave.
    let ((read_ns, read_n, write_ns, write_n), _) = tracer.span("ssd.bench", Some(parent), || {
        let (mut rn, mut rc, mut wn, mut wc) = (0f64, 0usize, 0f64, 0usize);
        for v in variants {
            let mut ssd = SsdController::new(&config(scale, v));
            let pages = precondition_pages(scale, &ssd);
            ssd.precondition((0..pages).map(Lpa::new));
            let mut now = Nanos::ZERO;
            for r in records {
                let (lpa, cl) = lpa_cl(r);
                let start = Instant::now();
                let outcome = if r.access.kind.is_write() {
                    ssd.handle_write(lpa, cl, now)
                } else {
                    ssd.handle_read(lpa, cl, now)
                };
                let ns = (start.elapsed().as_nanos() as f64 - overhead).max(0.0);
                if r.access.kind.is_write() {
                    (wn, wc) = (wn + ns, wc + 1);
                } else {
                    (rn, rc) = (rn + ns, rc + 1);
                }
                now = (now + Nanos::new(300)).max(outcome.ready_at);
            }
        }
        (rn, rc, wn, wc)
    });
    out.push(("ssd.ns_per_read", "ns", ratio(read_ns, read_n as f64)));
    out.push(("ssd.ns_per_write", "ns", ratio(write_ns, write_n as f64)));

    let cfg = config(scale, VariantKind::SkyByteW);
    let ((append, lookup), _) = tracer.span("cache.write_log.bench", Some(parent), || {
        let mut log = WriteLog::new(
            cfg.ssd.dram.write_log_bytes,
            cfg.ssd.dram.index_resize_load_factor,
        );
        let start = Instant::now();
        for (i, &(lpa, cl)) in writes.iter().enumerate() {
            if log.append(lpa, cl, i as u64).log_full {
                // Amortised into the append cost, as the controller pays it.
                if let Some(plan) = log.start_compaction() {
                    black_box(plan.page_count());
                    log.finish_compaction();
                }
            }
        }
        let append = per(start.elapsed().as_nanos(), writes.len());
        let start = Instant::now();
        for &(lpa, cl) in &reads {
            black_box(log.lookup(lpa, cl));
        }
        (append, per(start.elapsed().as_nanos(), reads.len()))
    });
    out.push(("cache.write_log.ns_per_append", "ns", append));
    out.push(("cache.write_log.ns_per_lookup", "ns", lookup));

    let (access, _) = tracer.span("cache.data_cache.bench", Some(parent), || {
        let mut total = 0u128;
        for v in variants {
            let cfg = config(scale, v);
            let mut cache =
                DataCache::new(cfg.ssd.dram.data_cache_bytes, cfg.ssd.dram.data_cache_ways);
            let start = Instant::now();
            for r in records {
                let (lpa, cl) = lpa_cl(r);
                if !cache.access(lpa, cl) {
                    black_box(cache.insert(lpa));
                }
            }
            total += start.elapsed().as_nanos();
        }
        per(total, records.len() * variants.len())
    });
    out.push(("cache.data_cache.ns_per_access", "ns", access));

    let ((ftl_write, submit), _) = tracer.span("ftl_flash.bench", Some(parent), || {
        let ssd = SsdController::new(&cfg);
        let pages = precondition_pages(scale, &ssd);
        let mut flash = FlashArray::new(cfg.ssd.geometry, cfg.ssd.flash);
        let mut ftl = Ftl::new(&cfg.ssd);
        ftl.precondition((0..pages).map(Lpa::new));
        let mut now = Nanos::ZERO;
        let start = Instant::now();
        for &(lpa, _) in &writes {
            let outcome = ftl.write_page(lpa, now, &mut flash);
            now = (now + Nanos::new(500)).max(outcome.completes_at);
        }
        let ftl_write = per(start.elapsed().as_nanos(), writes.len());
        let commands: Vec<_> = records
            .iter()
            .filter_map(|r| {
                let kind = if r.access.kind.is_write() {
                    FlashCommandKind::Program
                } else {
                    FlashCommandKind::Read
                };
                ftl.translate(lpa_cl(r).0).map(|ppa| (kind, ppa))
            })
            .collect();
        let mut flash = FlashArray::new(cfg.ssd.geometry, cfg.ssd.flash);
        let mut now = Nanos::ZERO;
        let start = Instant::now();
        for &(kind, ppa) in &commands {
            let done = flash.submit(kind, ppa, now);
            now = (now + Nanos::new(300)).max(done);
        }
        (ftl_write, per(start.elapsed().as_nanos(), commands.len()))
    });
    out.push(("ftl.ns_per_write", "ns", ftl_write));
    out.push(("flash.ns_per_submit", "ns", submit));

    let (switch, _) = tracer.span("os.sched.bench", Some(parent), || {
        let cfg = config(scale, VariantKind::SkyByteFull);
        let mut sched = Scheduler::new(cfg.sched_policy, cfg.context_switch_overhead, scale.seed);
        for _ in 0..cfg.threads {
            sched.spawn();
        }
        let cores = cfg.cpu.cores;
        for core in 0..cores {
            sched.schedule_on(core, Nanos::ZERO);
        }
        let mut now = Nanos::ZERO;
        let start = Instant::now();
        for (i, r) in records.iter().enumerate() {
            let core = i as u32 % cores;
            now += Nanos::new(250);
            let wake = now + Nanos::from_micros(2 + r.instructions % 8);
            sched.yield_current(core, now, wake, BlockReason::LongSsdAccess);
            black_box(sched.schedule_on(core, now));
        }
        per(
            start.elapsed().as_nanos(),
            sched.stats().context_switches as usize,
        )
    });
    out.push(("os.sched.ns_per_switch", "ns", switch));

    let (tlb_ns, _) = tracer.span("os.tlb.bench", Some(parent), || {
        let cfg = config(scale, VariantKind::BaseCssd);
        let mut tlb = Tlb::new(cfg.cpu.tlb.entries as usize, cfg.cpu.tlb.miss_latency);
        let start = Instant::now();
        for r in records {
            black_box(tlb.access(r.access.addr.page()));
        }
        per(start.elapsed().as_nanos(), records.len())
    });
    out.push(("os.tlb.ns_per_lookup", "ns", tlb_ns));

    let (cxl_ns, _) = tracer.span("cxl.bench", Some(parent), || {
        let cfg = config(scale, VariantKind::BaseCssd);
        let mut port = CxlPort::new(cfg.ssd.cxl_protocol_latency, cfg.ssd.link_bandwidth_bps);
        let mut now = Nanos::ZERO;
        let start = Instant::now();
        for _ in records {
            now += Nanos::new(300);
            let arrival = port.deliver_request(now);
            black_box(port.deliver_cacheline(arrival));
        }
        per(start.elapsed().as_nanos(), 2 * records.len())
    });
    out.push(("cxl.ns_per_transfer", "ns", cxl_ns));
    out
}

/// Median host time of an isolated `SsdController::new` + `precondition`
/// for each variant the workload runs (DRAM-Only preconditions nothing).
pub fn precondition_ms(variants: &[VariantKind], scale: &ExperimentScale) -> f64 {
    let times: Vec<f64> = variants
        .iter()
        .filter(|v| !v.dram_only())
        .map(|&v| {
            let start = Instant::now();
            let mut ssd = SsdController::new(&config(scale, v));
            let pages = precondition_pages(scale, &ssd);
            ssd.precondition((0..pages).map(Lpa::new));
            black_box(&ssd);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The simulated counters of `results`, summed (ratios are taken over the
/// sums). Deterministic for a given seed.
pub fn simulated_counters(results: &[Arc<SimResult>]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&SimResult) -> f64| -> f64 { results.iter().map(|r| f(r)).sum() };
    let ssd = |f: fn(&skybyte_ssd::SsdStats) -> u64| sum(&|r| f(&r.layers.ssd) as f64);
    let reads = ssd(|s| s.reads);
    let read_hits = ssd(|s| s.read_log_hits + s.read_cache_hits + s.read_zero_fills);
    let host_pages = sum(&|r| r.layers.ftl.host_pages_written as f64);
    let flash_reads = sum(&|r| r.layers.flash.pages_read as f64);
    vec![
        (
            "core.units",
            "count",
            sum(&|r| crate::workloads::work_units(r) as f64),
        ),
        (
            "core.sim_exec_ms",
            "ms",
            sum(&|r| r.exec_time.as_nanos() as f64) / 1e6,
        ),
        (
            "core.amat_ns",
            "ns",
            ratio(
                sum(&|r| r.amat.total().as_nanos() as f64),
                sum(&|r| r.amat.accesses as f64),
            ),
        ),
        (
            "core.squash_frac",
            "ratio",
            ratio(
                sum(&|r| r.squashed_accesses as f64),
                sum(&|r| r.ssd_accesses as f64),
            ),
        ),
        (
            "core.idle_frac",
            "ratio",
            ratio(
                sum(&|r| r.boundedness.idle.as_nanos() as f64),
                sum(&|r| r.boundedness.total().as_nanos() as f64),
            ),
        ),
        (
            "os.context_switches",
            "count",
            sum(&|r| r.context_switches as f64),
        ),
        (
            "cxl.requests",
            "count",
            sum(&|r| r.layers.cxl.requests as f64),
        ),
        (
            "cxl.payload_mb",
            "MB",
            sum(&|r| r.layers.cxl.payload_bytes as f64) / 1e6,
        ),
        ("ssd.reads", "count", reads),
        ("ssd.writes", "count", ssd(|s| s.writes)),
        ("ssd.read_hit_rate", "ratio", ratio(read_hits, reads)),
        ("ssd.delay_hints", "count", ssd(|s| s.delay_hints)),
        (
            "ssd.eviction_writebacks",
            "count",
            ssd(|s| s.eviction_writebacks),
        ),
        ("ssd.prefetches", "count", ssd(|s| s.prefetches)),
        ("cache.log_appends", "count", ssd(|s| s.write_log_appends)),
        ("cache.compactions", "count", ssd(|s| s.compactions)),
        (
            "cache.compaction_pages",
            "count",
            ssd(|s| s.compaction_pages_flushed),
        ),
        ("cache.log_read_hits", "count", ssd(|s| s.read_log_hits)),
        ("cache.cache_read_hits", "count", ssd(|s| s.read_cache_hits)),
        ("ftl.host_pages_written", "count", host_pages),
        (
            "ftl.gc_campaigns",
            "count",
            sum(&|r| r.layers.ftl.gc_campaigns as f64),
        ),
        (
            "ftl.waf",
            "ratio",
            ratio(
                sum(&|r| r.layers.ftl.flash_pages_programmed as f64),
                host_pages,
            ),
        ),
        ("flash.pages_read", "count", flash_reads),
        (
            "flash.pages_programmed",
            "count",
            sum(&|r| r.layers.flash.pages_programmed as f64),
        ),
        (
            "flash.avg_read_ns",
            "ns",
            ratio(
                sum(&|r| r.layers.flash.total_read_latency.as_nanos() as f64),
                flash_reads,
            ),
        ),
        (
            "flash.busy_util",
            "ratio",
            ratio(
                sum(&|r| r.flash_busy_time.as_nanos() as f64),
                sum(&|r| r.exec_time.as_nanos() as f64 * f64::from(r.flash_channels)),
            ),
        ),
        (
            "core.migration.promotions",
            "count",
            sum(&|r| r.layers.migration.promotions as f64),
        ),
        (
            "core.migration.runs",
            "count",
            sum(&|r| r.layers.migration.runs as f64),
        ),
    ]
}
