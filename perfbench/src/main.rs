//! Host-time benchmark of the SkyByte simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-read|sweep-write|fleet|replay-observed \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root (the golden corpus under `corpus/` is the
//! preflight check). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. End-to-end
//! times are in reference seconds: host seconds rescaled by a host-speed
//! probe (`calib`). Spans of a traced run are written to `.bench_out/`. See
//! `perfbench/README.md`.

mod calib;
mod layers;
mod stats;
mod trace;
mod workloads;

use calib::{HostProbe, Stopwatch};
use layers::Metric;
use skybyte_sim::audit::audit;
use skybyte_sim::{ExperimentScale, RunRequest, Simulation};
use stats::{median, quartiles, ratio};
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{json_string, Tracer};
use workloads::{Pass, Prepared, Workload};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Where spans and recorded traces go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SweepRead,
        seed: ExperimentScale::default_scale().seed,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (have: {})", names.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args, origin) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// The commit of the working directory when it is the top of a git
/// checkout, else `unknown`.
fn commit() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    let cwd = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    match out {
        Ok(o) if o.status.success() => {
            let text = String::from_utf8_lossy(&o.stdout).to_string();
            let mut lines = text.lines();
            let top = lines.next().map(|t| Path::new(t).canonicalize().ok());
            match (top, lines.next()) {
                (Some(top), Some(head)) if top == cwd => head.to_string(),
                _ => "unknown".to_string(),
            }
        }
        _ => "unknown".to_string(),
    }
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"commit\": {}, \"nproc\": {nproc}, \"workload\": {}, \"seed\": {}, \"scale\": \"default\", \"jobs\": 1, \"seconds\": {}, \"trace\": {}, \"method\": {}}}",
        json_string(&commit()),
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        json_string(&format!(
            "closed loop on one thread, each simulation run to completion before the next; \
             units = completed requests + squashed re-issues; times in reference seconds \
             (host seconds x {} ms / mean duration of the warm host-speed probes run before \
             and after each simulation or fleet point); units_per_s = units of a pass / sum \
             over simulations of their median reference time across untraced passes; wall_s \
             = sum over stretches between probes of their median reference time; setup_s = \
             median of 5 set-ups; peak_rss_mb = VmHWM minus the probe's footprint",
            calib::REFERENCE_NS / 1e6
        )),
    )
}

/// Peak resident set size of this process, in MiB (`VmHWM`), less the
/// host-speed probe's own working set.
fn peak_rss_mb(probe: &HostProbe) -> f64 {
    calib::proc_status_kb("VmHWM:") / 1024.0 - probe.footprint_mb
}

/// Units per reference second over `passes`: a pass's work units divided by
/// the sum, over its simulations, of each simulation's median reference time
/// across the passes. Falls back to the median per-pass rate if passes
/// disagree on their simulations (a failed run).
fn units_per_s(passes: &[&Pass]) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    let times = |p: &Pass| p.sims.iter().map(|s| s.ref_ns).collect();
    match sum_of_medians(passes, times) {
        Some(time) if passes.iter().all(|p| p.units() == first.units()) => {
            ratio(first.units() as f64, time / 1e9)
        }
        _ => median(&passes.iter().map(|p| ref_rate(p)).collect::<Vec<_>>()),
    }
}

/// Reference seconds of a pass over `passes`: the sum, over its stretches,
/// of each stretch's median across the passes. Falls back to the median pass
/// if passes disagree on their stretches (a failed run).
fn wall_s(passes: &[&Pass]) -> f64 {
    let total = sum_of_medians(passes, |p| p.stretches.clone()).unwrap_or_else(|| {
        median(
            &passes
                .iter()
                .map(|p| p.stretches.iter().sum())
                .collect::<Vec<_>>(),
        )
    });
    total / 1e9
}

/// The sum over positions `i` of the median across passes of
/// `items(pass)[i]`; `None` when the passes differ in their item count.
fn sum_of_medians(passes: &[&Pass], items: impl Fn(&Pass) -> Vec<f64>) -> Option<f64> {
    let lists: Vec<Vec<f64>> = passes.iter().map(|p| items(p)).collect();
    let n = lists.first()?.len();
    if lists.iter().any(|l| l.len() != n) {
        return None;
    }
    let column = |i: usize| lists.iter().map(|l| l[i]).collect::<Vec<_>>();
    Some((0..n).map(|i| median(&column(i))).sum())
}

/// Units of one pass per reference second.
fn ref_rate(pass: &Pass) -> f64 {
    let time: f64 = pass.sims.iter().map(|s| s.ref_ns).sum();
    ratio(pass.units() as f64, time / 1e9)
}

/// Median host time of building a `RunRequest` (its memo fingerprint) for
/// each simulation the workload runs.
fn fingerprint_us(prepared: &Prepared) -> f64 {
    let sims: Vec<Simulation> = match prepared {
        Prepared::Sweep(sims) => sims.clone(),
        Prepared::Replay(pairs) => pairs.iter().map(|p| p.sim.clone()).collect(),
        Prepared::Fleet(points) => points
            .iter()
            .map(|(_, cfg)| {
                let per_device = (cfg.tenants.len() / cfg.devices).max(1);
                let composition: Vec<_> = cfg
                    .tenants
                    .iter()
                    .take(per_device)
                    .map(|t| (t.workload, t.threads))
                    .collect();
                Simulation::build_multi(cfg.variant, &composition, &cfg.scale)
            })
            .collect(),
    };
    let times: Vec<f64> = sims
        .into_iter()
        .map(|sim| {
            let start = Instant::now();
            let req = RunRequest::from_simulation(sim);
            let us = start.elapsed().as_secs_f64() * 1e6;
            black_box(req);
            us
        })
        .collect();
    median(&times)
}

/// The correctness gate: every failed check, against every simulation
/// attempted (golden-corpus pairs included).
#[derive(Default)]
struct Gate {
    failures: Vec<String>,
    attempted: u64,
}

/// The untraced and traced passes of the timed phase.
struct Measured {
    plain: Vec<Pass>,
    traced: Vec<Pass>,
    seconds: f64,
}

/// Repeats passes until the next one would overrun `args.seconds`; a traced
/// run alternates untraced and traced passes. Every pass's digests must match
/// the first pass's.
fn measure(
    args: &Args,
    prepared: &Prepared,
    scale: &ExperimentScale,
    tracer: &mut Tracer,
    gate: &mut Gate,
    probe: &mut HostProbe,
) -> Measured {
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<u64>> = None;
    let mut sim_ids = 0u64;
    // Host seconds of each pass, probes included.
    let mut durations = Vec::new();
    loop {
        let traced_turn = args.trace && plain.len() > traced.len();
        let pass_start = Instant::now();
        let mut pass =
            workloads::run_pass(prepared, scale, traced_turn, tracer, &mut sim_ids, probe);
        durations.push(pass_start.elapsed().as_secs_f64());
        let index = plain.len() + traced.len() + 1;
        match &reference {
            None => reference = Some(pass.digests.clone()),
            Some(d) if *d != pass.digests => gate.failures.push(format!(
                "pass {index}: simulated results differ from pass 1"
            )),
            Some(_) => {}
        }
        gate.attempted += pass.attempted;
        gate.failures.extend(
            pass.failures
                .drain(..)
                .map(|f| format!("pass {index}: {f}")),
        );
        if traced_turn {
            traced.push(pass)
        } else {
            plain.push(pass)
        }
        let enough = !plain.is_empty() && (!args.trace || !traced.is_empty());
        if enough && start.elapsed().as_secs_f64() + median(&durations) > args.seconds {
            break;
        }
    }
    Measured {
        plain,
        traced,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its value and unit.
fn result_line(gate: &Gate, metrics: &[Metric]) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.failures.is_empty(),
        gate.attempted,
        gate.failures.len()
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}{}: {{\"value\": {value}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_string(name),
            json_string(unit)
        );
    }
    json.push_str("}}");
    json
}

fn run(args: &Args, origin: Instant) -> Result<(), String> {
    let mut scale = ExperimentScale::default_scale();
    scale.seed = args.seed;
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let mut probe = HostProbe::new();
    let mut tracer = Tracer::new(origin);
    let mut gate = Gate::default();

    // Preflight: the golden corpus must reproduce before anything is timed.
    let (corpus, _) = tracer.span("preflight.corpus", None, || {
        skybyte_bench::corpus::verify(Path::new("corpus"), 1)
    });
    let corpus = corpus.map_err(|e| format!("golden-corpus preflight: {e}"))?;
    gate.attempted += corpus.pairs as u64;
    gate.failures
        .extend(corpus.failures.iter().map(|f| format!("corpus: {f}")));
    if let Err(e) = workloads::check_seed_reaches_generation(args.workload, &scale) {
        gate.failures.push(e);
    }

    // Set-up times, in reference and in host seconds.
    let (mut setup_times, mut setup_host) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let mut watch = Stopwatch::start(&mut probe);
        let start = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(|| {
            workloads::setup(args.workload, &scale, &out_dir)
        }))
        .map_err(|_| "set-up panicked".to_string())??;
        let end = Instant::now();
        let lap = watch.lap();
        tracer.record("setup", None, None, (start, end), Vec::new());
        setup_times.push(lap.ref_ns() / 1e9);
        setup_host.push(lap.host_ns / 1e9);
        prepared = Some(built);
    }
    let prepared = prepared.expect("at least one set-up ran");

    let m = measure(args, &prepared, &scale, &mut tracer, &mut gate, &mut probe);
    let plain: Vec<&Pass> = m.plain.iter().collect();
    let last = plain.last().expect("at least one untraced pass");
    let rates: Vec<f64> = plain.iter().map(|p| ref_rate(p)).collect();
    let host_rates: Vec<f64> = plain
        .iter()
        .map(|p| ratio(p.units() as f64, p.sim_wall_ns() as f64 / 1e9))
        .collect();
    let ups = units_per_s(&plain);
    let slowdowns: Vec<f64> = probe
        .samples
        .iter()
        .map(|ns| ns / calib::REFERENCE_NS)
        .collect();

    let provenance = provenance(args);
    println!("provenance: {provenance}");
    println!(
        "workload {}: {} simulation(s) per pass, {} untraced + {} traced pass(es) in {:.2} s, {} units per pass",
        args.workload.name(),
        last.sims.len(),
        m.plain.len(),
        m.traced.len(),
        m.seconds,
        last.units()
    );
    let (q1, q3) = quartiles(&rates);
    println!(
        "  per-pass units per reference s: median {:.1}, q1 {q1:.1}, q3 {q3:.1}, spread {:.4}, n {}",
        median(&rates),
        stats::relative_spread(&rates),
        rates.len()
    );
    let listed: Vec<String> = host_rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("  per-pass units per host s in order: {}", listed.join(" "));
    let (q1, q3) = quartiles(&slowdowns);
    println!(
        "  host slowdown (probe / {} ms): median {:.3}, q1 {q1:.3}, q3 {q3:.3}, n {}",
        calib::REFERENCE_NS / 1e6,
        median(&slowdowns),
        slowdowns.len()
    );
    println!(
        "  host-speed probe: {:.1} MiB resident, left out of peak_rss_mb",
        probe.footprint_mb
    );
    let (q1, q3) = quartiles(&setup_times);
    println!(
        "  set-up reference s: median {:.4}, q1 {q1:.4}, q3 {q3:.4}, n {}; host s: median {:.4}",
        median(&setup_times),
        setup_times.len(),
        median(&setup_host)
    );
    println!(
        "digest {} seed={} fnv1a64={:016x} results={}",
        args.workload.name(),
        args.seed,
        last.digest(),
        last.digests.len()
    );
    let counters = layers::simulated_counters(&last.results);
    for (name, unit, value) in &counters {
        println!("  simulated {name} = {value} {unit}");
    }

    let mut metrics: Vec<Metric> = Vec::new();
    if !args.trace {
        metrics.push(("units_per_s", "1/s", ups));
        metrics.push(("wall_s", "s", wall_s(&plain)));
        metrics.push(("setup_s", "s", median(&setup_times)));
        metrics.push(("peak_rss_mb", "MiB", peak_rss_mb(&probe)));
    } else {
        metrics.extend(per_layer_metrics(
            args.workload,
            &scale,
            &prepared,
            &plain,
            &m.traced,
            &mut tracer,
        ));
        metrics.extend(counters);
        metrics.push(("core.runner.sims", "count", last.sims.len() as f64));
        metrics.push(("core.runner.memo_hits", "count", last.memo_hits as f64));
        metrics.push((
            "core.telemetry.samples",
            "count",
            last.telemetry_samples as f64,
        ));
        metrics.push((
            "core.telemetry.timeline_events",
            "count",
            last.timeline_events as f64,
        ));
        let traced_ups = units_per_s(&m.traced.iter().collect::<Vec<_>>());
        metrics.push(("bench.units_per_s_untraced", "1/s", ups));
        metrics.push(("bench.units_per_s_traced", "1/s", traced_ups));
        metrics.push((
            "bench.trace_overhead_pct",
            "%",
            (ratio(ups, traced_ups) - 1.0) * 100.0,
        ));
        metrics.push(("bench.host_slowdown", "ratio", median(&slowdowns)));
        let path = out_dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&path, tracer.to_json(&provenance))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    for (name, unit, value) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    for f in gate.failures.iter().take(20) {
        eprintln!("failure: {f}");
    }
    let failed = gate.failures.len() as u64;
    println!(
        "fail_ratio = {} ({failed} failed of {} attempted)",
        stats::fail_ratio(failed, gate.attempted),
        gate.attempted
    );
    println!("{}", result_line(&gate, &metrics));
    Ok(())
}

/// The host-time per-layer metrics of a traced run (the simulated counters
/// are added by the caller).
fn per_layer_metrics(
    workload: Workload,
    scale: &ExperimentScale,
    prepared: &Prepared,
    plain: &[&Pass],
    traced: &[Pass],
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let (stream, layers_span) = {
        let start = Instant::now();
        let stream = layers::pregenerate(workload.kinds(), scale, layers::RECORDS_PER_KIND);
        let id = tracer.record(
            "workloads.pregenerate",
            None,
            None,
            (start, Instant::now()),
            vec![("records", stream.records.len() as u64)],
        );
        (stream, id)
    };
    let sum = |f: fn(&workloads::SimRun) -> u64| -> u64 {
        traced.iter().flat_map(|p| &p.sims).map(f).sum()
    };
    let (calls, source_ns, units, wall) = (
        sum(|s| s.source_calls),
        sum(|s| s.source_ns),
        sum(|s| s.units),
        sum(|s| s.wall_ns),
    );
    let per_call = ratio(source_ns as f64, calls as f64);
    // The fleet composes its sources inside the engine, out of reach of the
    // timing adapter: its generation cost is the pre-generation rate, and
    // each retired unit is charged one generated record.
    let (gen, decode, source_total) = match workload {
        Workload::ReplayObserved => (0.0, per_call, source_ns as f64),
        Workload::Fleet => {
            let g = ratio(stream.gen_ns as f64, stream.records.len() as f64);
            (g, 0.0, g * units as f64)
        }
        _ => (per_call, 0.0, source_ns as f64),
    };
    let mut out: Vec<Metric> = vec![
        ("workloads.gen_ns_per_rec", "ns", gen),
        ("trace.decode_ns_per_rec", "ns", decode),
        (
            "core.engine_ns_per_unit",
            "ns",
            ratio(wall as f64 - source_total, units as f64),
        ),
    ];
    out.extend(layers::drive_layers(&stream, scale, tracer, layers_span));
    drop(stream);

    let (pre, _) = tracer.span("core.precondition", None, || {
        layers::precondition_ms(workload.variants(), scale)
    });
    out.push(("core.precondition_ms", "ms", pre));
    let overheads: Vec<f64> = plain
        .iter()
        .map(|p| (p.wall_ns as f64 - p.sim_wall_ns() as f64) / 1e6)
        .collect();
    out.push(("core.runner.overhead_ms", "ms", median(&overheads)));
    let (fp, _) = tracer.span("core.runner.fingerprint", None, || fingerprint_us(prepared));
    out.push(("core.runner.fingerprint_us", "us", fp));

    let (overhead_pct, export_ms) = match prepared {
        Prepared::Replay(pairs) => {
            let exports: Vec<f64> = plain.iter().map(|p| p.export_ns as f64 / 1e6).collect();
            (telemetry_overhead_pct(pairs, tracer), median(&exports))
        }
        _ => (0.0, 0.0),
    };
    out.push(("core.telemetry.overhead_pct", "%", overhead_pct));
    out.push(("core.telemetry.export_ms", "ms", export_ms));

    let last = plain.last().expect("at least one untraced pass");
    let audits: Vec<f64> = last
        .results
        .iter()
        .map(|r| {
            let start = Instant::now();
            black_box(audit(r));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(("core.audit_us_per_run", "us", median(&audits)));
    out
}

/// Host-time cost of telemetry: the SkyByte-Full replay with telemetry
/// against the same replay without, alternated twice, medians compared.
fn telemetry_overhead_pct(pairs: &[workloads::ReplayPair], tracer: &mut Tracer) -> f64 {
    let pair = pairs
        .iter()
        .find(|p| p.sim.config().variant == skybyte_types::VariantKind::SkyByteFull)
        .unwrap_or(&pairs[0]);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let (_, id) = tracer.span("core.telemetry.off", None, || {
            black_box(workloads::plain_replay(pair))
        });
        off.push(tracer.duration_ms(id));
        let (_, id) = tracer.span("core.telemetry.on", None, || {
            black_box(pair.sim.run_trace_file_with_telemetry(&pair.path))
        });
        on.push(tracer.duration_ms(id));
    }
    (ratio(median(&on), median(&off)) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys_and_every_metric() {
        let gate = Gate {
            failures: vec!["x".to_string()],
            attempted: 24,
        };
        let line = result_line(
            &gate,
            &[("units_per_s", "1/s", 1.5), ("wall_s", "s", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 24, \"failed\": 1, \"metrics\": {\
             \"units_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}, \
             \"wall_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn units_per_s_takes_each_simulations_median_reference_time() {
        let pass = |refs: &[f64]| Pass {
            sims: refs
                .iter()
                .map(|&r| workloads::SimRun {
                    units: 1_000,
                    wall_ns: 1,
                    ref_ns: r,
                    source_calls: 0,
                    source_ns: 0,
                })
                .collect(),
            ..Pass::default()
        };
        // Medians over the three passes: 1 µs and 2 µs, so 2 000 units
        // over 3 µs.
        let (a, b, c) = (
            pass(&[1_000.0, 9_000.0]),
            pass(&[5_000.0, 2_000.0]),
            pass(&[500.0, 1_000.0]),
        );
        assert!((units_per_s(&[&a, &b, &c]) - 2e9 / 3.0).abs() < 1e-3);
        assert_eq!(ref_rate(&a), 2_000.0 / 10e-6);
        // Stretches work the same way; a pass that lost a stretch falls
        // back to the median pass total.
        let walls = |v: &[f64]| Pass {
            stretches: v.to_vec(),
            ..Pass::default()
        };
        let (d, e, f) = (walls(&[1.0, 9.0]), walls(&[5.0, 2.0]), walls(&[0.5, 1.0]));
        assert_eq!(wall_s(&[&d, &e, &f]), 3e-9);
        let g = walls(&[4.0]);
        assert_eq!(wall_s(&[&d, &e, &g]), 7e-9);
    }
}
