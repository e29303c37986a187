//! The standalone trace toolbox over `.sbt` files.
//!
//! ```text
//! trace record --workload ycsb --out ycsb.sbt [--scale tiny] [--threads N]
//!              [--accesses N] [--seed N]
//! trace replay --trace ycsb.sbt [--variant SkyByte-Full] [--workload ycsb]
//!              [--scale tiny]
//! trace stat   --trace ycsb.sbt
//! trace mix    --out mixed.sbt A.sbt[:WEIGHT] B.sbt[:WEIGHT] ...
//!              [--mode mix|concat|stack] [--shift-stride BYTES] [--loop N]
//! ```
//!
//! `record` writes the synthetic workload stream the simulator would
//! consume (without simulating), `replay` drives a full simulation from a
//! trace (the trace defines footprint, thread count and the amount of
//! work), `stat` streams the Table I / Figures 5–6 characteristics of a
//! trace, and `mix` composes new traces out of existing ones — proportional
//! interleave, concatenation, or tenant stacking, with optional per-tenant
//! address shifting and looping. A multi-tenant composition records its
//! thread → tenant table in the output header (`.sbt` format version 2), so
//! replay reproduces the partition; single-tenant outputs stay at format
//! version 1, byte-identical to earlier releases.

use skybyte_bench::{figures_scale, parse_count, variant_from_name, MAX_SAMPLE_US};
use skybyte_sim::{
    chrome_trace_json, metrics_csv, ExperimentScale, PerfReport, RunTiming, SimResult, Simulation,
};
use skybyte_trace::{
    record_to_file, BoxedSource, Concat, LoopN, Mix, Shift, Tenants, TraceFileSource, TraceHeader,
    TraceReader, TraceSource, TraceStats, TraceWriter,
};
use skybyte_types::{Nanos, PolicyOverride, SimConfig, TelemetryConfig, VariantKind};
use skybyte_workloads::{WorkloadKind, WorkloadSource};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: trace <record|replay|stat|mix|verify-corpus> [options]

  record --workload NAME --out FILE [--scale tiny|bench|default]
         [--threads N] [--accesses N] [--seed N]
      Write the synthetic .sbt trace the simulator would consume.

  replay --trace FILE [--variant NAME] [--workload NAME] [--scale ...]
         [--policy NAME]... [--perf [PATH]]
         [--metrics PATH] [--timeline PATH] [--sample-us N]
      Run a full simulation driven by FILE and print its metrics. The
      trace defines footprint, thread count and the amount of work; the
      scale defines the device. The workload label defaults to the one
      named in the trace's provenance header. --policy applies an
      off-default policy (repeatable; e.g. clock, 2q, bypass-scan, decay,
      topk, fair-share, tpp, rr — same name registry as `figures`).
      --perf additionally writes a machine-readable engine-throughput
      report (wall clock + accesses/sec; default PATH: perf.json).
      --metrics samples telemetry every --sample-us microseconds of
      simulated time (default 10) into a CSV time series; --timeline
      writes a Chrome trace-event JSON timeline (load it in Perfetto).
      Telemetry is observe-only: the simulation result is bit-identical
      with or without it.

  stat --trace FILE
      Stream the trace once and print footprint / write ratio / per-page
      cacheline coverage (comparable to Table I and Figures 5-6).

  mix --out FILE INPUT[:WEIGHT]... [--mode mix|concat|stack]
      [--shift-stride BYTES] [--loop N]
      Compose INPUTs into a new trace: proportional interleave (mix),
      back-to-back (concat), or side-by-side on the thread axis with one
      tenant per input (stack); --shift-stride re-bases input i by
      i*BYTES; --loop repeats each input N times. Multi-tenant outputs
      carry their thread->tenant table in the header (format version 2)
      so replay keeps the partition.

  verify-corpus [--dir DIR] [--jobs N] [--pin [--entry NAME]...]
                [--diff-out FILE]
      Replay the golden-trace regression corpus (default DIR: corpus/) and
      verify every trace x variant pair field-by-field against its pinned
      golden result, plus the cross-layer conservation audit. --pin
      re-records the traces and re-pins the goldens instead (byte-identical
      for any --jobs value); --entry restricts the pin to the named entries
      (how new entries are added without rewriting existing goldens);
      --diff-out additionally writes the field-level diff to FILE on
      mismatch (what CI uploads as an artifact).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "record" => cmd_record(rest),
        "replay" => cmd_replay(rest),
        "stat" => cmd_stat(rest),
        "mix" => cmd_mix(rest),
        "verify-corpus" => cmd_verify_corpus(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls the value following a flag.
fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|e| format!("invalid {what}: {e}"))
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let mut workload: Option<WorkloadKind> = None;
    let mut out: Option<PathBuf> = None;
    let mut scale = ExperimentScale::tiny();
    let mut threads: Option<u32> = None;
    let mut accesses: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(args, &mut i, "--workload")?;
                workload = Some(
                    WorkloadKind::from_name(name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--out" => out = Some(PathBuf::from(value(args, &mut i, "--out")?)),
            "--scale" => {
                let name = value(args, &mut i, "--scale")?;
                scale = figures_scale(name)
                    .ok_or_else(|| format!("unknown scale '{name}' (tiny|bench|default)"))?;
            }
            "--threads" => {
                let t = value(args, &mut i, "--threads")?;
                threads = Some(parse_count("--threads", t, u32::MAX.into())? as u32);
            }
            "--accesses" => {
                accesses = Some(parse_u64(
                    value(args, &mut i, "--accesses")?,
                    "access count",
                )?)
            }
            "--seed" => seed = Some(parse_u64(value(args, &mut i, "--seed")?, "seed")?),
            other => return Err(format!("unknown record argument '{other}'")),
        }
        i += 1;
    }
    let workload = workload.ok_or("record needs --workload")?;
    let out = out.ok_or("record needs --out")?;
    if let Some(a) = accesses {
        scale = scale.with_accesses_per_thread(a);
    }
    if let Some(s) = seed {
        scale.seed = s;
    }
    // Mirror the engine's budget arithmetic exactly, so a standalone
    // recording is interchangeable with a `figures --record-dir` one.
    let mut cfg = scale.apply(SimConfig::default());
    if let Some(t) = threads {
        cfg = cfg.with_threads(t);
    }
    let sim = Simulation::with_config(cfg.clone(), workload, &scale);
    let budget = sim.per_thread_budget();
    let spec = scale.workload_spec(workload);
    let mut source = WorkloadSource::new(&spec, cfg.threads, scale.seed);
    let header = TraceHeader {
        threads: cfg.threads,
        footprint_bytes: spec.footprint_bytes,
        seed: scale.seed,
        source: source.identity(),
        tenant_of_thread: None,
    };
    let written = record_to_file(&mut source, &out, &header, budget)
        .map_err(|e| format!("recording failed: {e}"))?;
    println!(
        "recorded {written} records ({} thread(s) x {budget}) of {workload} to {}",
        cfg.threads,
        out.display()
    );
    Ok(())
}

/// Picks the workload label for a replayed trace: an explicit `--workload`,
/// else the workload named in the trace's provenance header.
fn workload_for_replay(
    explicit: Option<WorkloadKind>,
    header: &TraceHeader,
) -> Result<WorkloadKind, String> {
    if let Some(w) = explicit {
        return Ok(w);
    }
    // Source identities delimit the workload name with colons
    // ("synthetic:ycsb:fp..."); matching the delimited form keeps file-path
    // fragments (e.g. "/home/abc/" containing "bc") from mislabelling.
    WorkloadKind::ALL
        .into_iter()
        .find(|k| header.source.contains(&format!(":{}:", k.name())))
        .ok_or_else(|| {
            format!(
                "cannot infer the workload from the trace's source identity \
                 ('{}'); pass --workload",
                header.source
            )
        })
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let mut trace: Option<PathBuf> = None;
    let mut variant = VariantKind::SkyByteFull;
    let mut workload: Option<WorkloadKind> = None;
    let mut scale = ExperimentScale::tiny();
    let mut policies: Vec<PolicyOverride> = Vec::new();
    let mut perf: Option<PathBuf> = None;
    let mut metrics: Option<PathBuf> = None;
    let mut timeline: Option<PathBuf> = None;
    let mut sample_us: u64 = 10;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => trace = Some(PathBuf::from(value(args, &mut i, "--trace")?)),
            "--metrics" => metrics = Some(PathBuf::from(value(args, &mut i, "--metrics")?)),
            "--timeline" => timeline = Some(PathBuf::from(value(args, &mut i, "--timeline")?)),
            "--sample-us" => {
                let us = value(args, &mut i, "--sample-us")?;
                sample_us = parse_count("--sample-us", us, MAX_SAMPLE_US)?;
            }
            "--perf" => {
                // An optional path may follow; anything starting with `--`
                // is the next flag, not a path.
                perf = Some(match args.get(i + 1) {
                    Some(next) if !next.starts_with("--") => {
                        i += 1;
                        PathBuf::from(next)
                    }
                    _ => PathBuf::from("perf.json"),
                });
            }
            "--policy" => policies.push(value(args, &mut i, "--policy")?.parse()?),
            "--variant" => {
                let name = value(args, &mut i, "--variant")?;
                variant =
                    variant_from_name(name).ok_or_else(|| format!("unknown variant '{name}'"))?;
            }
            "--workload" => {
                let name = value(args, &mut i, "--workload")?;
                workload = Some(
                    WorkloadKind::from_name(name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--scale" => {
                let name = value(args, &mut i, "--scale")?;
                scale = figures_scale(name)
                    .ok_or_else(|| format!("unknown scale '{name}' (tiny|bench|default)"))?;
            }
            other => return Err(format!("unknown replay argument '{other}'")),
        }
        i += 1;
    }
    let trace = trace.ok_or("replay needs --trace")?;
    let header = TraceReader::open(&trace)
        .map_err(|e| format!("cannot open {}: {e}", trace.display()))?
        .header()
        .clone();
    let workload = workload_for_replay(workload, &header)?;
    // The trace defines the footprint and thread count; the scale defines
    // the simulated device around it (shared with the golden corpus via
    // `replay_trace_file`, capacity guard included).
    let telemetry = TelemetryConfig {
        enabled: metrics.is_some() || timeline.is_some(),
        sample_interval: Nanos::from_micros(sample_us),
        timeline: timeline.is_some(),
    };
    let started = std::time::Instant::now();
    let (result, telemetry_out) = skybyte_bench::replay_trace_file_with_telemetry(
        &trace, &header, variant, workload, scale, &policies, telemetry,
    )?;
    let wall = started.elapsed();
    println!("replayed {} as {variant} ({workload})", trace.display());
    print_summary(&result);
    if let Some(output) = &telemetry_out {
        let label = format!("{variant}/{workload}");
        if let Some(path) = &metrics {
            let csv = metrics_csv([(label.as_str(), &output.metrics)]);
            std::fs::write(path, csv)
                .map_err(|e| format!("cannot write --metrics CSV {}: {e}", path.display()))?;
            println!(
                "metrics: {} samples written to {}",
                output.metrics.samples.len(),
                path.display()
            );
        }
        if let Some(path) = &timeline {
            let tl = &output.timeline;
            let json = chrome_trace_json([(label.as_str(), tl)]);
            std::fs::write(path, json)
                .map_err(|e| format!("cannot write --timeline JSON {}: {e}", path.display()))?;
            println!(
                "timeline: {} events written to {} (open in Perfetto / chrome://tracing)",
                tl.events().len(),
                path.display()
            );
        }
    }
    if let Some(path) = perf {
        let work_units = result.work_units();
        let wall_nanos = wall.as_nanos() as u64;
        let units_per_sec = if wall_nanos == 0 {
            0.0
        } else {
            work_units as f64 / (wall_nanos as f64 / 1e9)
        };
        let report = PerfReport {
            jobs: 1,
            runs: vec![RunTiming {
                variant: variant.to_string(),
                workload: workload.to_string(),
                wall_nanos,
                work_units,
                simulated_nanos: result.exec_time.as_nanos(),
                units_per_sec,
                p50_ns: result.latency_hist.p50().as_nanos(),
                p99_ns: result.latency_hist.p99().as_nanos(),
                p999_ns: result.latency_hist.p999().as_nanos(),
            }],
            total_work_units: work_units,
            total_wall_nanos: wall_nanos,
            aggregate_units_per_sec: units_per_sec,
        };
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("cannot serialise --perf report: {e}"))?;
        std::fs::write(&path, json)
            .map_err(|e| format!("cannot write --perf report {}: {e}", path.display()))?;
        println!(
            "perf: {work_units} work units in {:.3}s wall ({units_per_sec:.0} accesses/sec); \
             report written to {}",
            wall_nanos as f64 / 1e9,
            path.display()
        );
    }
    Ok(())
}

fn print_summary(r: &SimResult) {
    println!("exec time             {}", r.exec_time);
    println!("instructions          {}", r.instructions);
    println!(
        "accesses              {} classified ({} host, {} ssd-hit, {} ssd-miss, {} ssd-write)",
        r.total_accesses(),
        r.requests.host,
        r.requests.ssd_read_hit,
        r.requests.ssd_read_miss,
        r.requests.ssd_write
    );
    println!("amat                  {}", r.amat.amat());
    println!(
        "latency p50/p99/p999  {} / {} / {}",
        r.latency_hist.p50(),
        r.latency_hist.p99(),
        r.latency_hist.p999()
    );
    println!("context switches      {}", r.context_switches);
    println!("pages promoted        {}", r.layers.migration.promotions);
    println!("flash pages programmed {}", r.layers.flash.pages_programmed);
    if r.truncated {
        println!("WARNING: the run hit the engine step limit (truncated)");
    }
}

fn cmd_stat(args: &[String]) -> Result<(), String> {
    let mut trace: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => trace = Some(PathBuf::from(value(args, &mut i, "--trace")?)),
            other => return Err(format!("unknown stat argument '{other}'")),
        }
        i += 1;
    }
    let trace = trace.ok_or("stat needs --trace")?;
    let (header, stats) = TraceStats::scan_file(&trace)
        .map_err(|e| format!("cannot stat {}: {e}", trace.display()))?;
    print!("{}", stats.render(&header));
    Ok(())
}

fn cmd_verify_corpus(args: &[String]) -> Result<(), String> {
    let mut dir = PathBuf::from("corpus");
    // Output is byte-identical for any job count (locked by
    // crates/bench/tests/corpus.rs), so default to full parallelism.
    let mut jobs: usize = skybyte_sim::runner::default_parallelism();
    let mut pin = false;
    let mut entries_filter: Vec<String> = Vec::new();
    let mut diff_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => dir = PathBuf::from(value(args, &mut i, "--dir")?),
            "--jobs" | "-j" => {
                let n = parse_u64(value(args, &mut i, "--jobs")?, "job count")? as usize;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                jobs = n;
            }
            "--pin" => pin = true,
            "--entry" => entries_filter.push(value(args, &mut i, "--entry")?.to_string()),
            "--diff-out" => diff_out = Some(PathBuf::from(value(args, &mut i, "--diff-out")?)),
            other => return Err(format!("unknown verify-corpus argument '{other}'")),
        }
        i += 1;
    }
    if !entries_filter.is_empty() && !pin {
        return Err("--entry only applies to --pin (verification always covers \
                    the whole corpus)"
            .into());
    }
    if pin {
        let only = (!entries_filter.is_empty()).then_some(entries_filter.as_slice());
        let pairs = skybyte_bench::corpus::pin_entries(&dir, jobs, only)?;
        println!(
            "pinned {pairs} golden results ({} of {} traces x {} variants) under {}",
            pairs / skybyte_bench::corpus::CORPUS_VARIANTS.len(),
            skybyte_bench::corpus::entries().len(),
            skybyte_bench::corpus::CORPUS_VARIANTS.len(),
            dir.display()
        );
        return Ok(());
    }
    let report = skybyte_bench::corpus::verify(&dir, jobs)?;
    if report.is_clean() {
        println!(
            "verified {} trace x variant pairs against {}: all golden results \
             reproduced, conservation audit clean",
            report.pairs,
            dir.display()
        );
        return Ok(());
    }
    let rendered = report.render_failures();
    if let Some(path) = &diff_out {
        std::fs::write(path, rendered.clone() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote field-level diff to {}", path.display());
    }
    Err(format!(
        "{} of {} corpus pairs diverged:\n{rendered}",
        report.failures.len(),
        report.pairs
    ))
}

/// Parses `FILE[:WEIGHT]` (the weight defaults to 1).
fn parse_input(spec: &str) -> Result<(PathBuf, u64), String> {
    match spec.rsplit_once(':') {
        Some((path, weight))
            if weight.chars().all(|c| c.is_ascii_digit()) && !weight.is_empty() =>
        {
            let w = parse_u64(weight, "mix weight")?;
            if w == 0 {
                return Err(format!("weight of '{path}' must be positive"));
            }
            Ok((PathBuf::from(path), w))
        }
        _ => Ok((PathBuf::from(spec), 1)),
    }
}

fn open_input(path: &Path) -> Result<TraceFileSource, String> {
    TraceFileSource::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))
}

fn cmd_mix(args: &[String]) -> Result<(), String> {
    let mut out: Option<PathBuf> = None;
    let mut mode = "mix".to_string();
    let mut shift_stride: u64 = 0;
    let mut loop_times: u32 = 1;
    let mut inputs: Vec<(PathBuf, u64)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out = Some(PathBuf::from(value(args, &mut i, "--out")?)),
            "--mode" => mode = value(args, &mut i, "--mode")?.to_string(),
            "--shift-stride" => {
                shift_stride = parse_u64(value(args, &mut i, "--shift-stride")?, "shift stride")?
            }
            "--loop" => {
                let n = value(args, &mut i, "--loop")?;
                loop_times = parse_count("--loop", n, u32::MAX.into())? as u32;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown mix argument '{flag}'")),
            input => inputs.push(parse_input(input)?),
        }
        i += 1;
    }
    let out = out.ok_or("mix needs --out")?;
    if inputs.is_empty() {
        return Err("mix needs at least one input trace".into());
    }
    if mode != "mix" && mode != "concat" && mode != "stack" {
        return Err(format!("unknown --mode '{mode}' (mix|concat|stack)"));
    }

    let mut sources: Vec<(BoxedSource, u64)> = Vec::new();
    let mut footprint = 0u64;
    let mut seed = 0u64;
    for (idx, (path, weight)) in inputs.iter().enumerate() {
        let file = open_input(path)?;
        let header = file.header().clone();
        let shift = shift_stride * idx as u64;
        footprint = footprint.max(header.footprint_bytes.saturating_add(shift));
        seed ^= header.seed.rotate_left(idx as u32);
        let mut source: BoxedSource = Box::new(file);
        if shift > 0 {
            source = Box::new(Shift::new(source, shift));
        }
        if loop_times != 1 {
            source = Box::new(LoopN::new(source, loop_times));
        }
        sources.push((source, *weight));
    }
    let mut composite: BoxedSource = match mode.as_str() {
        "concat" => Box::new(Concat::new(sources.into_iter().map(|(s, _)| s).collect())),
        "stack" => Box::new(Tenants::new(sources.into_iter().map(|(s, _)| s).collect())),
        _ => Box::new(Mix::new(sources)),
    };
    let threads = composite.threads();
    // A genuinely multi-tenant composition (tenant stacking, or inputs that
    // already carry tenant tables) records its partition in the header;
    // single-tenant outputs stay at format version 1.
    let tenant_of_thread = (composite.tenant_map().tenant_count() > 1)
        .then(|| (0..threads).map(|t| composite.tenant_of(t).0).collect());
    let header = TraceHeader {
        threads,
        footprint_bytes: footprint,
        seed,
        source: composite.identity(),
        tenant_of_thread,
    };
    let mut writer =
        TraceWriter::create(&out, &header).map_err(|e| format!("cannot create output: {e}"))?;
    let mut total = 0u64;
    for t in 0..threads {
        while let Some(record) = composite
            .next_record(t)
            .map_err(|e| format!("compose failed on thread {t}: {e}"))?
        {
            writer
                .push(t, &record)
                .map_err(|e| format!("write failed: {e}"))?;
            total += 1;
        }
    }
    writer.finish().map_err(|e| format!("write failed: {e}"))?;
    println!(
        "composed {total} records ({threads} thread(s), mode {mode}) into {}",
        out.display()
    );
    Ok(())
}
