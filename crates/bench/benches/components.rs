//! Microbenchmarks of the SkyByte building blocks.
//!
//! These measure the data structures on the critical path of the SSD
//! controller (write-log append/lookup/compaction, data-cache access, FTL
//! writes under GC pressure, scheduler picks, flash-queue estimation).
//! They correspond to the FPGA prototype measurements of §V (index lookup
//! latencies) and to the ablation knobs called out in DESIGN.md.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use skybyte_cache::{DataCache, WriteLog};
use skybyte_flash::{FlashArray, FlashCommandKind};
use skybyte_ftl::Ftl;
use skybyte_os::{BlockReason, Scheduler};
use skybyte_ssd::SsdController;
use skybyte_types::prelude::*;
use skybyte_types::SsdGeometry;
use std::time::Duration;

fn group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name.to_string());
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(1500));
    g
}

fn bench_write_log(c: &mut Criterion) {
    let mut g = group(c, "write_log");
    g.bench_function("append_lookup_1k", |b| {
        b.iter(|| {
            let mut log = WriteLog::new(1 << 20, 0.75);
            for i in 0..1_000u64 {
                log.append(Lpa::new(i % 64), (i % 64) as u8, i);
            }
            for i in 0..1_000u64 {
                black_box(log.lookup(Lpa::new(i % 64), (i % 64) as u8));
            }
        })
    });
    g.bench_function("compaction_plan_4k_entries", |b| {
        b.iter(|| {
            let mut log = WriteLog::new(1 << 20, 0.75);
            for i in 0..4_000u64 {
                log.append(Lpa::new(i % 128), (i % 64) as u8, i);
            }
            let plan = log.start_compaction().expect("plan");
            log.finish_compaction();
            black_box(plan.page_count())
        })
    });
    g.finish();
}

fn bench_data_cache(c: &mut Criterion) {
    let mut g = group(c, "data_cache");
    g.bench_function("insert_access_evict_4k", |b| {
        b.iter(|| {
            let mut cache = DataCache::new(256 * 4096, 16);
            for i in 0..4_000u64 {
                cache.insert(Lpa::new(i % 1024));
                cache.access(Lpa::new(i % 1024), (i % 64) as u8);
            }
            black_box(cache.stats().evictions)
        })
    });
    g.finish();
}

fn bench_ftl_and_flash(c: &mut Criterion) {
    let mut g = group(c, "ftl_flash");
    let geometry = SsdGeometry {
        channels: 8,
        chips_per_channel: 2,
        dies_per_chip: 1,
        planes_per_die: 1,
        blocks_per_plane: 64,
        pages_per_block: 64,
        page_size_bytes: 4096,
    };
    g.bench_function("ftl_writes_with_gc_8k", |b| {
        b.iter(|| {
            let cfg = SsdConfig {
                geometry,
                ..SsdConfig::default()
            };
            let mut flash = FlashArray::new(cfg.geometry, cfg.flash);
            let mut ftl = Ftl::new(&cfg);
            let mut now = Nanos::ZERO;
            for i in 0..8_000u64 {
                ftl.write_page(Lpa::new(i % 4_096), now, &mut flash);
                now += Nanos::new(500);
            }
            black_box(ftl.stats().gc_campaigns)
        })
    });
    g.bench_function("flash_queue_estimation_10k", |b| {
        let cfg = SsdConfig::default();
        let mut flash = FlashArray::new(geometry, cfg.flash);
        for i in 0..64u32 {
            flash.submit(
                FlashCommandKind::Program,
                Ppa::new((i % 8) as u16, 0, 0, 0, 0, i),
                Nanos::ZERO,
            );
        }
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u32 {
                acc += flash
                    .estimate_read_latency(Ppa::new((i % 8) as u16, 0, 0, 0, 0, 0))
                    .as_nanos();
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = group(c, "host_side");
    g.bench_function("cfs_schedule_yield_4k", |b| {
        b.iter(|| {
            let mut sched = Scheduler::new(SchedPolicy::Cfs, Nanos::from_micros(2), 1);
            for _ in 0..24 {
                sched.spawn();
            }
            let mut now = Nanos::ZERO;
            for core in 0..8u32 {
                sched.schedule_on(core, now);
            }
            for i in 0..4_000u64 {
                let core = (i % 8) as u32;
                if let Some(t) = sched.running_on(core) {
                    sched.account_runtime(t, Nanos::new(200));
                }
                sched.yield_current(
                    core,
                    now,
                    now + Nanos::from_micros(3),
                    BlockReason::LongSsdAccess,
                );
                sched.schedule_on(core, now);
                now += Nanos::new(500);
            }
            black_box(sched.stats().context_switches)
        })
    });
    g.finish();
}

fn bench_ssd_controller(c: &mut Criterion) {
    let mut g = group(c, "ssd_controller");
    let mut cfg = SimConfig::default().with_variant(VariantKind::SkyByteFull);
    cfg.ssd.geometry = SsdGeometry {
        channels: 8,
        chips_per_channel: 2,
        dies_per_chip: 1,
        planes_per_die: 1,
        blocks_per_plane: 64,
        pages_per_block: 64,
        page_size_bytes: 4096,
    };
    cfg.ssd.dram.data_cache_bytes = 2 << 20;
    cfg.ssd.dram.write_log_bytes = 256 << 10;
    g.bench_function("mixed_requests_10k", |b| {
        b.iter(|| {
            let mut ssd = SsdController::new(&cfg);
            ssd.precondition((0..2_048).map(Lpa::new));
            let mut now = Nanos::ZERO;
            for i in 0..10_000u64 {
                let lpa = Lpa::new((i * 7) % 2_048);
                let cl = (i % 64) as u8;
                if i % 4 == 0 {
                    black_box(ssd.handle_write(lpa, cl, now));
                } else {
                    black_box(ssd.handle_read(lpa, cl, now));
                }
                now += Nanos::new(300);
            }
            black_box(ssd.stats().total_accesses())
        })
    });
    g.finish();
}

criterion_group!(
    components,
    bench_write_log,
    bench_data_cache,
    bench_ftl_and_flash,
    bench_scheduler,
    bench_ssd_controller
);
criterion_main!(components);
