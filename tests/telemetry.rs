//! Integration tests of the simulated-time telemetry subsystem.
//!
//! The keystone property is that telemetry is **observe-only**: enabling the
//! periodic sampler and the timeline recorder must leave every simulation
//! result bit-identical to the plain run, and the exported artifacts must be
//! byte-identical regardless of worker-thread count or whether the run was
//! live or replayed from a trace. On top of that, the final cumulative
//! sample must tie exactly to the result's layer counters — the
//! `telemetry-final-agreement` audit invariant.

use skybyte::sim::audit::{audit, audit_with_telemetry};
use skybyte::sim::runner::{RunRequest, Runner};
use skybyte::sim::{chrome_trace_json, metrics_csv, ExperimentScale, Simulation, TraceDrive};
use skybyte::types::{Nanos, TelemetryConfig, VariantKind};
use skybyte::workloads::WorkloadKind;

fn tiny() -> ExperimentScale {
    ExperimentScale::tiny().with_accesses_per_thread(200)
}

fn telemetry_on() -> TelemetryConfig {
    TelemetryConfig {
        enabled: true,
        sample_interval: Nanos::from_micros(10),
        timeline: true,
    }
}

#[test]
fn telemetry_is_observe_only() {
    let scale = tiny();
    for (workload, variant) in [
        (WorkloadKind::Ycsb, VariantKind::SkyByteFull),
        (WorkloadKind::Srad, VariantKind::BaseCssd),
        (WorkloadKind::Tpcc, VariantKind::SkyByteC),
    ] {
        let plain = Simulation::build(variant, workload, &scale).run();
        let mut sim = Simulation::build(variant, workload, &scale);
        sim.config_mut().telemetry = telemetry_on();
        let (observed, output) = sim.try_run_with_telemetry().expect("synthetic run");
        assert_eq!(
            plain, observed,
            "{variant} on {workload:?}: telemetry perturbed the simulation"
        );
        let output = output.expect("telemetry was enabled");
        assert!(
            !output.metrics.samples.is_empty(),
            "the sampler must have fired at least the final cumulative sample"
        );
        // Every periodic row lands exactly on the sampling grid; the final
        // cumulative row is taken at `exec_time` and closes the series.
        let interval = Nanos::from_micros(10).as_nanos();
        let (final_row, periodic) = output.metrics.samples.split_last().unwrap();
        for s in periodic {
            assert_eq!(
                s.time.as_nanos() % interval,
                0,
                "periodic samples must land on the cadence grid"
            );
            assert!(s.time <= plain.exec_time);
        }
        assert_eq!(final_row.time, plain.exec_time);
        assert_eq!(*final_row, output.final_sample);
        assert!(
            !output.timeline.events().is_empty(),
            "a run with context switches and flash traffic must leave spans"
        );
    }
}

#[test]
fn exports_are_byte_identical_across_job_counts() {
    let scale = tiny();
    let reqs: Vec<RunRequest> = [
        (VariantKind::BaseCssd, WorkloadKind::Ycsb),
        (VariantKind::SkyByteFull, WorkloadKind::Ycsb),
        (VariantKind::BaseCssd, WorkloadKind::Bc),
        (VariantKind::SkyByteFull, WorkloadKind::Bc),
    ]
    .into_iter()
    .map(|(v, w)| RunRequest::build(v, w, &scale))
    .collect();
    let render = |jobs: usize| {
        let runner = Runner::new(jobs).with_telemetry(telemetry_on());
        let results = runner.run_all(&reqs);
        let outputs = runner.telemetry_outputs();
        assert_eq!(outputs.len(), reqs.len());
        let csv = metrics_csv(outputs.iter().map(|(l, o)| (l.as_str(), &o.metrics)));
        let json = chrome_trace_json(outputs.iter().map(|(l, o)| (l.as_str(), &o.timeline)));
        (results, csv, json)
    };
    let (seq_results, seq_csv, seq_json) = render(1);
    let (par_results, par_csv, par_json) = render(4);
    for (s, p) in seq_results.iter().zip(&par_results) {
        assert_eq!(**s, **p);
    }
    assert_eq!(seq_csv, par_csv, "metrics CSV must not depend on --jobs");
    assert_eq!(
        seq_json, par_json,
        "timeline JSON must not depend on --jobs"
    );
    // And the telemetry runner's results match a plain runner's bit-exactly.
    let plain = Runner::new(2).run_all(&reqs);
    for (t, p) in seq_results.iter().zip(&plain) {
        assert_eq!(**t, **p, "telemetry perturbed a runner execution");
    }
}

#[test]
fn record_then_replay_reproduces_telemetry_exactly() {
    let dir = std::env::temp_dir().join(format!("skybyte-telemetry-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scale = tiny();
    let mut sim = Simulation::build(VariantKind::SkyByteFull, WorkloadKind::Ycsb, &scale);
    sim.config_mut().telemetry = telemetry_on();
    let (live, live_tel) = sim
        .clone()
        .with_drive(TraceDrive::Record { dir: dir.clone() })
        .try_run_with_telemetry()
        .expect("recording run");
    let (replayed, replay_tel) = sim
        .clone()
        .with_drive(TraceDrive::Replay { dir: dir.clone() })
        .try_run_with_telemetry()
        .expect("replay run");
    assert_eq!(live, replayed);
    assert_eq!(
        live_tel, replay_tel,
        "replay must reproduce the recorded run's telemetry bit-exactly"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn final_sample_ties_to_the_layer_counters() {
    let scale = tiny();
    let mut sim = Simulation::build(VariantKind::SkyByteFull, WorkloadKind::Ycsb, &scale);
    sim.config_mut().telemetry = telemetry_on();
    let (result, output) = sim.try_run_with_telemetry().expect("synthetic run");
    let output = output.expect("telemetry was enabled");

    // The invariant is only emitted when telemetry actually ran…
    let plain = audit(&result);
    let absent = audit_with_telemetry(&result, None);
    assert_eq!(plain.checked(), absent.checked());

    // …and a real run's final sample agrees with the layers snapshot.
    let report = audit_with_telemetry(&result, Some(&output.final_sample));
    assert_eq!(report.checked(), plain.checked() + 1);
    report.assert_clean("SkyByte-Full on ycsb with telemetry");

    // Corrupting the sample fires exactly the new invariant.
    let mut bad = output.final_sample.clone();
    bad.flash_pages_programmed += 1;
    let report = audit_with_telemetry(&result, Some(&bad));
    let rendered = report.to_string();
    assert!(rendered.starts_with("audit violated 1 of"), "{rendered}");
    assert!(
        rendered.contains("  [telemetry-final-agreement] "),
        "{rendered}"
    );
}

#[test]
fn memoization_counts_telemetry_free_hits() {
    let scale = tiny();
    let runner = Runner::new(1).with_telemetry(telemetry_on());
    let req = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale);
    runner.run_all(std::slice::from_ref(&req));
    runner.run_all(&[req]);
    assert_eq!(runner.runs_executed(), 1);
    assert_eq!(runner.memo_hits(), 1);
    // Memo hits recall the cached result without re-executing, so only the
    // executed run left telemetry behind.
    assert_eq!(runner.telemetry_outputs().len(), 1);
}
