//! Regenerates the data series of every table and figure of the SkyByte
//! paper's evaluation section.
//!
//! ```text
//! cargo run --release -p skybyte-bench --bin figures -- --all
//! cargo run --release -p skybyte-bench --bin figures -- --fig 14 --scale bench
//! cargo run --release -p skybyte-bench --bin figures -- --fig mt --audit
//! cargo run --release -p skybyte-bench --bin figures -- --all --jobs 8
//! cargo run --release -p skybyte-bench --bin figures -- --all --out results/
//! cargo run --release -p skybyte-bench --bin figures -- --fig 14 --record-dir traces/
//! cargo run --release -p skybyte-bench --bin figures -- --fig 14 --replay-dir traces/
//! ```
//!
//! All simulations of one invocation run on a shared parallel, memoizing
//! runner (`--jobs N` workers, defaulting to the host's available
//! parallelism), so baselines needed by several figures are simulated once.
//! `--out DIR` additionally writes each regenerated table as `DIR/<id>.csv`
//! for plotting. `--record-dir DIR` records every simulation's workload
//! stream to an `.sbt` trace in `DIR` (the file `trace record` writes for
//! that stream) and simulates it live; `--replay-dir DIR` drives
//! the simulations from those traces instead of the live generators —
//! replayed output is bit-identical to the recorded run.
//!
//! `--fig` and `--table` take the names of `skybyte_sim::report::EXPERIMENTS`
//! (figures 1, 7, 8, 11, 12 and 13 are architecture diagrams without data
//! series and are therefore not listed); an unknown name is an error that
//! lists the valid ones.

use skybyte_bench::{
    flag_value, harness_runner, parse_count, parse_scale, perf_path, write_perf_report,
    TelemetryFlags,
};
use skybyte_sim::report::{find, render, Kind, EXPERIMENTS};
use skybyte_sim::{ExperimentScale, PerfReport, TraceDrive};
use skybyte_types::PolicyOverride;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    /// Requested figures and tables, as positions in [`EXPERIMENTS`].
    figures: Vec<usize>,
    tables: Vec<usize>,
    scale: ExperimentScale,
    all: bool,
    jobs: Option<usize>,
    out: Option<PathBuf>,
    drive: TraceDrive,
    audit: bool,
    /// Write a machine-readable engine-throughput report (`--perf`,
    /// optionally `--perf PATH`; defaults to `perf.json`).
    perf: Option<PathBuf>,
    /// Policy names applied to every simulation (`--policy <name>`,
    /// repeatable), resolved through the unified registry.
    policies: Vec<PolicyOverride>,
    /// The merged telemetry exports of every executed run (`--metrics`,
    /// `--timeline`, `--sample-us`).
    telemetry: TelemetryFlags,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        figures: Vec::new(),
        tables: Vec::new(),
        scale: ExperimentScale::bench(),
        all: false,
        jobs: None,
        out: None,
        drive: TraceDrive::Synthetic,
        audit: false,
        perf: None,
        policies: Vec::new(),
        telemetry: TelemetryFlags::default(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => opts.all = true,
            "--fig" | "--figure" => opts
                .figures
                .push(find(Kind::Figure, flag_value(&args, &mut i, "--fig")?)?),
            "--policy" => opts
                .policies
                .push(flag_value(&args, &mut i, "--policy")?.parse()?),
            "--table" => opts
                .tables
                .push(find(Kind::Table, flag_value(&args, &mut i, "--table")?)?),
            "--scale" => opts.scale = parse_scale(flag_value(&args, &mut i, "--scale")?)?,
            "--jobs" | "-j" => {
                let n = flag_value(&args, &mut i, "--jobs")?;
                opts.jobs = Some(parse_count("--jobs", n, u32::MAX.into())? as usize);
            }
            "--out" => opts.out = Some(PathBuf::from(flag_value(&args, &mut i, "--out")?)),
            flag @ ("--record-dir" | "--replay-dir") => {
                let dir = PathBuf::from(flag_value(&args, &mut i, flag)?);
                if opts.drive != TraceDrive::Synthetic {
                    return Err("--record-dir and --replay-dir are mutually exclusive".into());
                }
                opts.drive = if flag == "--record-dir" {
                    TraceDrive::Record { dir }
                } else {
                    TraceDrive::Replay { dir }
                };
            }
            "--audit" => opts.audit = true,
            "--perf" => opts.perf = Some(perf_path(&args, &mut i)),
            "--help" | "-h" => {
                println!(
                    "usage: figures [--all] [--fig N|mt|policy|fleet]... [--table N]... \
                     [--scale tiny|bench|default] [--jobs N] [--out DIR] \
                     [--record-dir DIR | --replay-dir DIR] [--audit] [--policy NAME]...\n\n\
                     --fig mt           the multi-tenant interference experiment\n\
                     \u{20}                  (ycsb + tpcc co-located, per-tenant slowdown vs solo)\n\
                     --fig policy       the pluggable-policy ablation (eviction x hotness,\n\
                     \u{20}                  plus a fair-share tenant-scheduling row)\n\
                     --fig fleet        the multi-device fleet sweep (placement policy x\n\
                     \u{20}                  fleet size, per-tenant tail slowdown + fairness)\n\
                     --policy NAME      apply a policy to every simulation (repeatable;\n\
                     \u{20}                  e.g. clock, 2q, decay, topk, fair-share,\n\
                     \u{20}                  tpp, rr — unified name registry)\n\
                     --out DIR          also write each regenerated table as DIR/<id>.csv\n\
                     --record-dir DIR   record every simulation's workload stream to .sbt traces\n\
                     --replay-dir DIR   drive the simulations from recorded .sbt traces\n\
                     --audit            run the cross-layer conservation audit on every\n\
                     \u{20}                  simulation and fail on any violated invariant\n\
                     --perf [PATH]      write a machine-readable engine-throughput report\n\
                     \u{20}                  (per-run wall clock + work units/s; default perf.json)\n\
                     --metrics PATH     write the telemetry time series of every executed\n\
                     \u{20}                  simulation as one merged CSV (observe-only)\n\
                     --timeline PATH    write a merged Chrome trace-event timeline of every\n\
                     \u{20}                  executed simulation (open in Perfetto)\n\
                     --sample-us N      telemetry sampling cadence in simulated microseconds\n\
                     \u{20}                  (default 10)\n\
                     (see the `trace` binary for standalone record/replay/stat/mix)"
                );
                std::process::exit(0);
            }
            _ if opts.telemetry.parse(&args, &mut i)? => {}
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if !opts.all && opts.figures.is_empty() && opts.tables.is_empty() {
        // Default: the headline results.
        opts.figures = vec![find(Kind::Figure, "14")?, find(Kind::Figure, "18")?];
        opts.tables = vec![find(Kind::Table, "1")?, find(Kind::Table, "3")?];
    }
    Ok(opts)
}

/// Regenerates, prints and (optionally) CSV-exports each listed
/// [`EXPERIMENTS`] entry once, in order; returns the number of CSV files
/// written.
fn regenerate(
    runner: &skybyte_sim::Runner,
    opts: &Options,
    selected: &[usize],
) -> Result<usize, String> {
    let mut exported = 0usize;
    let mut done = vec![false; EXPERIMENTS.len()];
    for &i in selected {
        // Figures 19 and 20 are one entry, and a name may be given twice.
        if std::mem::replace(&mut done[i], true) {
            continue;
        }
        let table = (EXPERIMENTS[i].build)(runner, &opts.scale);
        println!("{}", render(&table));
        if let Some(dir) = &opts.out {
            let path = dir.join(format!("{}.csv", table.id));
            std::fs::write(&path, table.to_csv())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            exported += 1;
        }
    }
    Ok(exported)
}

/// Extracts a readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("simulation panicked")
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one invocation. `Err` is a one-line CLI error; a failed audit is
/// reported here and returns [`ExitCode::FAILURE`].
fn run(opts: Options) -> Result<ExitCode, String> {
    let selected: Vec<usize> = if opts.all {
        // `--all` regenerates every entry. Trace drives are single-tenant
        // (multi-tenant runs compose their sources live), so recording or
        // replaying `--all` skips the multi-tenant experiments.
        let synthetic = opts.drive == TraceDrive::Synthetic;
        if !synthetic {
            eprintln!(
                "[figures] note: skipping figures mt/policy/fleet under --record-dir/--replay-dir"
            );
        }
        (0..EXPERIMENTS.len())
            .filter(|&i| synthetic || !EXPERIMENTS[i].multi_tenant)
            .collect()
    } else {
        opts.tables.iter().chain(&opts.figures).copied().collect()
    };
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create --out directory {}: {e}", dir.display()))?;
    }
    let telemetry = opts.telemetry.config();
    let runner = harness_runner(opts.jobs)
        .with_drive(opts.drive.clone())
        .with_policy_overrides(opts.policies.clone())
        .with_audit(opts.audit)
        .with_telemetry(telemetry);
    // Harness panics (a missing trace under --replay-dir, an invalid
    // configuration) should read as CLI errors, not backtraces: silence the hook,
    // catch the unwind, and report the payload on the binary's error path.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        regenerate(&runner, &opts, &selected)
    }));
    std::panic::set_hook(default_hook);
    let exported = match outcome {
        Ok(exported) => exported?,
        Err(payload) => return Err(panic_message(payload.as_ref()).to_string()),
    };
    eprintln!(
        "[figures] {} unique simulations on {} worker thread(s)",
        runner.runs_executed(),
        runner.jobs()
    );
    match runner.drive() {
        TraceDrive::Record { dir } => {
            eprintln!("[figures] recorded workload traces to {}", dir.display());
        }
        TraceDrive::Replay { dir } => {
            eprintln!("[figures] replayed workload traces from {}", dir.display());
        }
        TraceDrive::Synthetic => {}
    }
    if let Some(dir) = &opts.out {
        eprintln!(
            "[figures] wrote {exported} CSV file(s) to {}",
            dir.display()
        );
    }
    if telemetry.enabled {
        let outputs = runner.telemetry_outputs();
        opts.telemetry.write(&outputs)?;
        let runs = outputs.len();
        if let Some(path) = &opts.telemetry.metrics {
            eprintln!(
                "[figures] metrics: {runs} run(s) sampled into {}",
                path.display()
            );
        }
        if let Some(path) = &opts.telemetry.timeline {
            let path = path.display();
            eprintln!("[figures] timeline: {runs} run(s) written to {path} (open in Perfetto)");
        }
    }
    if let Some(path) = &opts.perf {
        let report = PerfReport::from_runner(&runner);
        write_perf_report(path, &report)?;
        for run in &report.runs {
            eprintln!(
                "[figures] perf: {}/{} — {:.3}s wall, {} work units \
                 ({:.0} units/s), p50/p99/p999 {}/{}/{} ns",
                run.variant,
                run.workload,
                run.wall_nanos as f64 / 1e9,
                run.work_units,
                run.units_per_sec,
                run.p50_ns,
                run.p99_ns,
                run.p999_ns
            );
        }
        eprintln!(
            "[figures] perf: {} work units in {:.3}s wall ({:.0} units/s \
             aggregate) across {} run(s), {} memo hit(s); report written to {}",
            report.total_work_units,
            report.total_wall_nanos as f64 / 1e9,
            report.aggregate_units_per_sec,
            report.runs.len(),
            runner.memo_hits(),
            path.display()
        );
    }
    if runner.truncated_runs() > 0 {
        eprintln!(
            "[figures] warning: {} simulation(s) hit the engine step limit; \
             the corresponding series describe truncated executions",
            runner.truncated_runs()
        );
    }
    if opts.audit {
        let failures = runner.audit_failures();
        if failures.is_empty() {
            eprintln!(
                "[figures] conservation audit clean across {} simulation(s)",
                runner.runs_executed()
            );
        } else {
            for f in &failures {
                eprintln!("[figures] audit violation: {f}");
            }
            eprintln!(
                "[figures] conservation audit FAILED for {} simulation(s)",
                failures.len()
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}
