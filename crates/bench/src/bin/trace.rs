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
//! work), `stat` prints the Table I / Figures 5–6 characteristics of a
//! trace, and `mix` composes new traces out of existing ones — proportional
//! interleave, concatenation, or tenant stacking, with optional per-tenant
//! address shifting and looping. A multi-tenant composition records its
//! thread → tenant table in the output header (`.sbt` format version 2), so
//! replay reproduces the partition; single-tenant outputs stay at format
//! version 1, byte-identical to earlier releases.

use skybyte_bench::{
    flag_value, parse_count, parse_scale, parse_workload, perf_path, replay_trace_file,
    variant_from_name, write_perf_report, TelemetryFlags,
};
use skybyte_sim::{ExperimentScale, PerfReport, RunTiming, SimResult, Simulation};
use skybyte_trace::{
    record_to_file, BoxedSource, Concat, LoopN, Mix, Shift, Tenants, TraceFileSource, TraceHeader,
    TraceSource, TraceStats, MAX_THREADS,
};
use skybyte_types::{PolicyOverride, SimConfig, VariantKind};
use skybyte_workloads::WorkloadKind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

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
      off-default policy (repeatable; e.g. clock, 2q, decay, topk,
      fair-share, tpp, rr — same name registry as `figures`).
      --perf additionally writes a machine-readable engine-throughput
      report (wall clock + work units/s; default PATH: perf.json).
      --metrics samples telemetry every --sample-us microseconds of
      simulated time (default 10) into a CSV time series; --timeline
      writes a Chrome trace-event JSON timeline (load it in Perfetto).
      Telemetry is observe-only: the simulation result is bit-identical
      with or without it.

  stat --trace FILE
      Read the trace once and print footprint / write ratio / per-page
      cacheline coverage (comparable to Table I and Figures 5-6).

  mix --out FILE INPUT[:WEIGHT]... [--mode mix|concat|stack]
      [--shift-stride BYTES] [--loop N]
      Compose INPUTs into a new trace: proportional interleave (mix, by
      each input's WEIGHT, default 1), back-to-back (concat), or
      side-by-side on the thread axis, each input's tenants numbered after
      the previous inputs' (stack; a plain input is one tenant; concat and
      stack take no WEIGHT); --shift-stride re-bases input i by
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
      (how new entries are added without rewriting existing goldens).
      On mismatch it prints the field-level diff, then one summary line
      per diverged path (indices collapsed to []): the number of pairs,
      and `removed`, `added` or the largest relative change. --diff-out
      additionally writes both to FILE (what CI uploads as an artifact).";

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
                workload = Some(parse_workload(flag_value(args, &mut i, "--workload")?)?)
            }
            "--out" => out = Some(PathBuf::from(flag_value(args, &mut i, "--out")?)),
            "--scale" => scale = parse_scale(flag_value(args, &mut i, "--scale")?)?,
            "--threads" => {
                let t = flag_value(args, &mut i, "--threads")?;
                threads = Some(parse_count("--threads", t, MAX_THREADS.into())? as u32);
            }
            "--accesses" => {
                let n = flag_value(args, &mut i, "--accesses")?;
                accesses = Some(parse_count("--accesses", n, u32::MAX.into())?);
            }
            "--seed" => seed = Some(parse_u64(flag_value(args, &mut i, "--seed")?, "seed")?),
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
    let mut cfg = scale.apply(SimConfig::default());
    if let Some(t) = threads {
        cfg = cfg.with_threads(t);
    }
    // The engine's own recorder, so a standalone recording is
    // interchangeable with a `figures --record-dir` one.
    let sim = Simulation::with_config(cfg, workload, &scale);
    let written = sim
        .record_trace_file(&out)
        .map_err(|e| format!("recording failed: {e}"))?;
    println!(
        "recorded {written} records ({} thread(s) x {}) of {workload} to {}",
        sim.config().threads,
        sim.per_thread_budget(),
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
    let mut telemetry = TelemetryFlags::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => trace = Some(PathBuf::from(flag_value(args, &mut i, "--trace")?)),
            "--perf" => perf = Some(perf_path(args, &mut i)),
            "--policy" => policies.push(flag_value(args, &mut i, "--policy")?.parse()?),
            "--variant" => {
                let name = flag_value(args, &mut i, "--variant")?;
                variant =
                    variant_from_name(name).ok_or_else(|| format!("unknown variant '{name}'"))?;
            }
            "--workload" => {
                workload = Some(parse_workload(flag_value(args, &mut i, "--workload")?)?)
            }
            "--scale" => scale = parse_scale(flag_value(args, &mut i, "--scale")?)?,
            _ if telemetry.parse(args, &mut i)? => {}
            other => return Err(format!("unknown replay argument '{other}'")),
        }
        i += 1;
    }
    let trace = trace.ok_or("replay needs --trace")?;
    let source = open_input(&trace)?;
    let workload = workload_for_replay(workload, source.header())?;
    // The trace defines the footprint and thread count; the scale defines
    // the simulated device around it (shared with the golden corpus via
    // `replay_trace_file`, capacity guard included).
    let started = Instant::now();
    let (result, output) = replay_trace_file(
        source,
        variant,
        workload,
        scale,
        &policies,
        telemetry.config(),
    )?;
    let wall = started.elapsed();
    println!("replayed {} as {variant} ({workload})", trace.display());
    print_summary(&result);
    if let Some(output) = output {
        let samples = output.metrics.samples.len();
        let events = output.timeline.events().len();
        telemetry.write(&[(format!("{variant}/{workload}"), output)])?;
        if let Some(path) = &telemetry.metrics {
            println!("metrics: {samples} samples written to {}", path.display());
        }
        if let Some(path) = &telemetry.timeline {
            println!(
                "timeline: {events} events written to {} (open in Perfetto / chrome://tracing)",
                path.display()
            );
        }
    }
    if let Some(path) = perf {
        let report = PerfReport::new(1, vec![RunTiming::new(variant, workload, wall, &result)]);
        write_perf_report(&path, &report)?;
        println!(
            "perf: {} work units in {:.3}s wall ({:.0} units/s); report written to {}",
            report.total_work_units,
            report.total_wall_nanos as f64 / 1e9,
            report.aggregate_units_per_sec,
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
            "--trace" => trace = Some(PathBuf::from(flag_value(args, &mut i, "--trace")?)),
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
            "--dir" => dir = PathBuf::from(flag_value(args, &mut i, "--dir")?),
            "--jobs" | "-j" => {
                let n = flag_value(args, &mut i, "--jobs")?;
                jobs = parse_count("--jobs", n, u32::MAX.into())? as usize;
            }
            "--pin" => pin = true,
            "--entry" => entries_filter.push(flag_value(args, &mut i, "--entry")?.to_string()),
            "--diff-out" => diff_out = Some(PathBuf::from(flag_value(args, &mut i, "--diff-out")?)),
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
    let mut rendered = report.render_failures();
    if !report.summary.is_empty() {
        rendered = format!("{rendered}\n{}", report.render_summary());
    }
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

/// Parses `FILE[:WEIGHT]`; `None` when no weight is given.
fn parse_input(spec: &str) -> Result<(PathBuf, Option<u32>), String> {
    match spec.rsplit_once(':') {
        Some((path, weight))
            if weight.chars().all(|c| c.is_ascii_digit()) && !weight.is_empty() =>
        {
            let what = format!("the weight of '{path}'");
            let w = parse_count(&what, weight, u32::MAX.into())?;
            Ok((PathBuf::from(path), Some(w as u32)))
        }
        _ => Ok((PathBuf::from(spec), None)),
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
    let mut inputs: Vec<(PathBuf, Option<u32>)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out = Some(PathBuf::from(flag_value(args, &mut i, "--out")?)),
            "--mode" => mode = flag_value(args, &mut i, "--mode")?.to_string(),
            "--shift-stride" => {
                shift_stride =
                    parse_u64(flag_value(args, &mut i, "--shift-stride")?, "shift stride")?
            }
            "--loop" => {
                let n = flag_value(args, &mut i, "--loop")?;
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
    if mode != "mix" {
        if let Some((path, Some(weight))) = inputs.iter().find(|(_, w)| w.is_some()) {
            return Err(format!(
                "input '{}:{weight}' has a weight, which only --mode mix reads, not --mode {mode}",
                path.display()
            ));
        }
    }

    let mut sources: Vec<(BoxedSource, u32)> = Vec::new();
    let mut footprint = 0u64;
    let mut seed = 0u64;
    for (idx, (path, weight)) in inputs.iter().enumerate() {
        let file = open_input(path)?;
        let header = file.header().clone();
        // Input `idx` moves up by `idx` strides; past the 64-bit address
        // space it would wrap onto another input's pages.
        let shift = shift_stride.checked_mul(idx as u64);
        let end = shift.and_then(|s| header.footprint_bytes.checked_add(s));
        let (Some(shift), Some(end)) = (shift, end) else {
            return Err(format!(
                "--shift-stride {shift_stride} moves input {} past the 64-bit address space",
                idx + 1
            ));
        };
        footprint = footprint.max(end);
        seed ^= header.seed.rotate_left(idx as u32);
        let mut source: BoxedSource = Box::new(file);
        if shift > 0 {
            source = Box::new(Shift::new(source, shift));
        }
        if loop_times != 1 {
            source = Box::new(LoopN::new(source, loop_times));
        }
        sources.push((source, weight.unwrap_or(1)));
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
    let total = record_to_file(&mut composite, &out, &header, u64::MAX)
        .map_err(|e| format!("cannot compose {}: {e}", out.display()))?;
    println!(
        "composed {total} records ({threads} thread(s), mode {mode}) into {}",
        out.display()
    );
    Ok(())
}
