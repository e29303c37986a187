//! Integration tests of the trace record/replay/compose subsystem.
//!
//! The keystone property: a recorded-then-replayed trace produces
//! **bit-identical** [`SimResult`]s to the live generator run that recorded
//! it — which is what makes traces a trustworthy currency for every future
//! workload (real PIN imports, multi-tenant mixes, fuzzed streams).

use skybyte::sim::{ExperimentScale, Simulation, TraceDrive};
use skybyte::trace::{Mix, TraceFileSource, TraceReader, TraceSource, TraceStats};
use skybyte::types::VariantKind;
use skybyte::workloads::WorkloadKind;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("skybyte-trace-replay-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny() -> ExperimentScale {
    ExperimentScale::tiny().with_accesses_per_thread(200)
}

#[test]
fn record_then_replay_is_bit_identical_across_workloads_and_variants() {
    let dir = scratch_dir("identity");
    let standalone = scratch_dir("standalone");
    let scale = tiny();
    // Two workloads with very different stream shapes, and both a squash
    // happy variant (context switches re-issue accesses) and the plain
    // baseline — replay must survive push-back and oversubscription.
    for (workload, variant) in [
        (WorkloadKind::Ycsb, VariantKind::SkyByteFull),
        (WorkloadKind::Srad, VariantKind::BaseCssd),
    ] {
        let sim = Simulation::build(variant, workload, &scale);
        let live = sim
            .clone()
            .with_drive(TraceDrive::Record { dir: dir.clone() })
            .run();
        let replayed = sim
            .clone()
            .with_drive(TraceDrive::Replay { dir: dir.clone() })
            .run();
        assert_eq!(
            live, replayed,
            "{workload:?}/{variant:?}: replay must be bit-identical to the live run"
        );
        // The tee is transparent: recording did not change the result.
        assert_eq!(
            sim.run(),
            live,
            "{workload:?}/{variant:?}: tee perturbed the run"
        );
        // A standalone recording (what `trace record` writes) replays to
        // the same result as the tee's.
        let replay = TraceDrive::Replay {
            dir: standalone.clone(),
        };
        sim.record_trace_file(&standalone.join(sim.trace_file_name()))
            .unwrap();
        let from_standalone = sim.clone().with_drive(replay).run();
        assert_eq!(
            from_standalone, live,
            "{workload:?}/{variant:?}: standalone"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&standalone).ok();
}

#[test]
fn recorded_traces_describe_what_the_engine_consumed() {
    let dir = scratch_dir("stats");
    let scale = tiny();
    let sim = Simulation::build(VariantKind::BaseCssd, WorkloadKind::Tpcc, &scale);
    let _ = sim
        .clone()
        .with_drive(TraceDrive::Record { dir: dir.clone() })
        .run();
    let path = dir.join(sim.trace_file_name());
    let (header, stats) = TraceStats::scan_file(&path).unwrap();
    assert_eq!(header.threads, sim.config().threads);
    assert_eq!(
        stats.records,
        sim.per_thread_budget() * sim.config().threads as u64,
        "the trace must hold exactly the consumed work units"
    );
    // Table I shape survives recording: tpcc is write-heavy (0.36).
    assert!((stats.write_ratio() - 0.36).abs() < 0.05);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stat_reads_a_live_recording_as_it_reads_a_standalone_one() {
    // A live recording switches thread almost every record, so most of its
    // chunks hold one record; `record_trace_file` writes each thread's
    // stream in turn, in chunks of up to 512 records. The one decoder must
    // frame both layouts of the same stream alike.
    let (live_dir, standalone_dir) = (scratch_dir("live-layout"), scratch_dir("thread-major"));
    let scale = ExperimentScale::tiny();
    let sim = Simulation::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale);
    let _ = sim
        .clone()
        .with_drive(TraceDrive::Record {
            dir: live_dir.clone(),
        })
        .run();
    let live = live_dir.join(sim.trace_file_name());
    let standalone = standalone_dir.join(sim.trace_file_name());
    sim.record_trace_file(&standalone).unwrap();
    // The records encode to the same bytes in both layouts, so the live
    // file is larger by its extra chunk headers (59,542 bytes against
    // 40,422 when this was written).
    let size = |path: &PathBuf| std::fs::metadata(path).unwrap().len();
    assert!(size(&live) > size(&standalone) * 5 / 4);
    let (live_header, live_stats) = TraceStats::scan_file(&live).unwrap();
    let (header, stats) = TraceStats::scan_file(&standalone).unwrap();
    assert_eq!(live_header, header);
    assert_eq!(
        (live_stats.per_thread.clone(), live_stats.total_instructions),
        (stats.per_thread.clone(), stats.total_instructions)
    );
    assert_eq!(live_stats.render(&live_header), stats.render(&header));
    std::fs::remove_dir_all(&live_dir).ok();
    std::fs::remove_dir_all(&standalone_dir).ok();
}

#[test]
fn mix_of_two_traces_conserves_total_access_count() {
    let dir = scratch_dir("mix");
    let scale = tiny();
    let mut totals = 0u64;
    let mut paths = Vec::new();
    for workload in [WorkloadKind::Ycsb, WorkloadKind::Bc] {
        let sim = Simulation::build(VariantKind::BaseCssd, workload, &scale);
        let _ = sim
            .clone()
            .with_drive(TraceDrive::Record { dir: dir.clone() })
            .run();
        let path = dir.join(sim.trace_file_name());
        let (_, stats) = TraceStats::scan_file(&path).unwrap();
        totals += stats.records;
        paths.push(path);
    }
    let a = TraceFileSource::open(&paths[0]).unwrap();
    let b = TraceFileSource::open(&paths[1]).unwrap();
    let threads = a.threads().max(b.threads());
    let mut mix = Mix::new(vec![(Box::new(a) as _, 3), (Box::new(b) as _, 1)]);
    let mut stats = TraceStats::default();
    for t in 0..threads {
        while let Some(record) = mix.next_record(t).unwrap() {
            stats.add(t, &record);
        }
    }
    assert_eq!(
        stats.records, totals,
        "a mix must emit every record of every input exactly once"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_headers_carry_provenance() {
    let dir = scratch_dir("provenance");
    let scale = tiny();
    let sim = Simulation::build(VariantKind::DramOnly, WorkloadKind::Dlrm, &scale);
    let _ = sim
        .clone()
        .with_drive(TraceDrive::Record { dir: dir.clone() })
        .run();
    let reader = TraceReader::open(&dir.join(sim.trace_file_name())).unwrap();
    let header = reader.header();
    assert!(header.source.contains("dlrm"));
    assert_eq!(header.seed, scale.seed);
    assert_eq!(
        header.footprint_bytes,
        scale.workload_spec(WorkloadKind::Dlrm).footprint_bytes
    );
    std::fs::remove_dir_all(&dir).ok();
}
