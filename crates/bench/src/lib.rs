//! Shared helpers for the SkyByte benchmark harness.
//!
//! The actual deliverables of this crate are:
//!
//! * `cargo run -p skybyte-bench --bin figures [-- --fig N | --table N |
//!   --all] [--jobs N] [--out DIR] [--record-dir DIR | --replay-dir DIR]` —
//!   regenerates the data series of every table and figure of the paper's
//!   evaluation section on a parallel, memoizing [`Runner`], prints them as
//!   plain-text tables, optionally exports them as CSV, and can record or
//!   replay the underlying workload traces;
//! * `cargo run -p skybyte-bench --bin trace -- <record|replay|stat|mix>` —
//!   the standalone trace toolbox over `.sbt` files (see `skybyte-trace`);
//! * [`corpus`] — the golden-trace regression corpus behind
//!   `trace verify-corpus`.
//!
//! The flags both binaries take are parsed and written here, once. The
//! benchmark is the separate `perfbench/` workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod corpus;

use skybyte_sim::runner::default_parallelism;
use skybyte_sim::{
    chrome_trace_json, metrics_csv, ExperimentScale, PerfReport, Runner, SimResult, Simulation,
    TelemetryOutput,
};
use skybyte_trace::TraceFileSource;
use skybyte_types::{Nanos, PolicyOverride, SimConfig, TelemetryConfig, VariantKind};
use skybyte_workloads::WorkloadKind;
use std::path::{Path, PathBuf};

/// Parses a `--scale` value: `tiny`, `bench` or `default` (alias `paper`).
pub fn parse_scale(name: &str) -> Result<ExperimentScale, String> {
    match name {
        "tiny" => Ok(ExperimentScale::tiny()),
        "bench" => Ok(ExperimentScale::bench()),
        "default" | "paper" => Ok(ExperimentScale::default_scale()),
        _ => Err(format!("unknown scale '{name}' (tiny|bench|default)")),
    }
}

/// Builds the memoizing simulation runner shared by everything one harness
/// invocation regenerates: `jobs == None` sizes the worker pool to the
/// host's available parallelism (the `--jobs` default).
pub fn harness_runner(jobs: Option<usize>) -> Runner {
    Runner::new(jobs.unwrap_or_else(default_parallelism))
}

/// The largest `--sample-us` value whose cadence in nanoseconds fits a
/// `u64`.
pub const MAX_SAMPLE_US: u64 = u64::MAX / 1_000;

/// Takes the value following the flag at `args[*i]`, advancing `i` to it.
pub fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Parses the value of a numeric CLI flag that must lie in `1..=max`.
///
/// Anything else (not a number, 0, or above `max`) is a one-line error
/// naming the flag, so a value the caller would overflow or truncate is
/// refused instead of silently wrapped.
pub fn parse_count(flag: &str, value: &str, max: u64) -> Result<u64, String> {
    match value.parse::<u64>() {
        Ok(n) if (1..=max).contains(&n) => Ok(n),
        _ => Err(format!("{flag} must be between 1 and {max}, got '{value}'")),
    }
}

/// Parses a `--workload` value: a Table I workload name.
pub fn parse_workload(name: &str) -> Result<WorkloadKind, String> {
    WorkloadKind::from_name(name).ok_or_else(|| format!("unknown workload '{name}'"))
}

/// Parses `--perf [PATH]` at `args[*i]`: the report path is the next
/// argument unless that is the next flag (it starts with `-`), and
/// `perf.json` otherwise.
pub fn perf_path(args: &[String], i: &mut usize) -> PathBuf {
    match args.get(*i + 1) {
        Some(next) if !next.starts_with('-') => {
            *i += 1;
            PathBuf::from(next)
        }
        _ => PathBuf::from("perf.json"),
    }
}

/// Writes `report` to `path` as pretty-printed JSON (the `--perf` report).
pub fn write_perf_report(path: &Path, report: &PerfReport) -> Result<(), String> {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| format!("cannot serialise --perf report: {e}"))?;
    std::fs::write(path, json)
        .map_err(|e| format!("cannot write --perf report {}: {e}", path.display()))
}

/// The telemetry flags `figures` and `trace replay` share.
#[derive(Debug, Clone, Default)]
pub struct TelemetryFlags {
    /// `--metrics PATH`: write the sampled time series as CSV.
    pub metrics: Option<PathBuf>,
    /// `--timeline PATH`: write the Chrome trace-event timeline.
    pub timeline: Option<PathBuf>,
    /// `--sample-us N`: the sampling cadence in simulated microseconds
    /// (10 when absent).
    pub sample_us: Option<u64>,
}

impl TelemetryFlags {
    /// Parses `args[*i]` (and its value) if it is one of the three telemetry
    /// flags; returns whether it was.
    pub fn parse(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        let flag = args[*i].as_str();
        match flag {
            "--metrics" => self.metrics = Some(flag_value(args, i, flag)?.into()),
            "--timeline" => self.timeline = Some(flag_value(args, i, flag)?.into()),
            "--sample-us" => {
                let us = flag_value(args, i, flag)?;
                self.sample_us = Some(parse_count(flag, us, MAX_SAMPLE_US)?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The telemetry configuration the flags select: capture is on when
    /// either export was asked for.
    pub fn config(&self) -> TelemetryConfig {
        TelemetryConfig {
            enabled: self.metrics.is_some() || self.timeline.is_some(),
            sample_interval: Nanos::from_micros(self.sample_us.unwrap_or(10)),
            timeline: self.timeline.is_some(),
        }
    }

    /// Writes each requested export, merging `outputs` — one `(label,
    /// output)` pair per run — into one CSV and one timeline.
    pub fn write(&self, outputs: &[(String, TelemetryOutput)]) -> Result<(), String> {
        if let Some(path) = &self.metrics {
            let runs = outputs
                .iter()
                .map(|(label, o)| (label.as_str(), &o.metrics));
            std::fs::write(path, metrics_csv(runs))
                .map_err(|e| format!("cannot write --metrics CSV {}: {e}", path.display()))?;
        }
        if let Some(path) = &self.timeline {
            let runs = outputs
                .iter()
                .map(|(label, o)| (label.as_str(), &o.timeline));
            std::fs::write(path, chrome_trace_json(runs))
                .map_err(|e| format!("cannot write --timeline JSON {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// Parses a design-variant name as printed by the paper (case-insensitive),
/// e.g. `"SkyByte-Full"` or `"base-cssd"`.
pub fn variant_from_name(name: &str) -> Option<VariantKind> {
    VariantKind::ALL
        .into_iter()
        .find(|v| v.to_string().eq_ignore_ascii_case(name))
}

/// Replays an opened `.sbt` trace file as one full simulation: the trace
/// (via its header) defines the footprint, thread count and amount of work,
/// `scale` defines the simulated device around it, `policies` selects
/// off-default policies (empty for the pinned defaults — what the golden
/// corpus passes), and `workload` is the label the result carries. Taking
/// the opened file lets a caller read its header without a second read. When
/// `telemetry.enabled`, the returned [`TelemetryOutput`] carries the sampled
/// metrics and (optionally) the timeline of the replay; telemetry is
/// observe-only, so the [`SimResult`] is bit-identical either way.
///
/// This is the single replay-configuration path shared by `trace replay` and
/// the golden corpus ([`corpus`]), so the two can never drift apart. It
/// enforces the capacity guard: composed/shifted traces can outgrow the
/// chosen device, and every built-in scale keeps footprint ≤ flash/2 for GC
/// headroom — failing with a hint beats an FTL panic mid-simulation.
pub fn replay_trace_file(
    mut source: TraceFileSource,
    variant: VariantKind,
    workload: WorkloadKind,
    scale: ExperimentScale,
    policies: &[PolicyOverride],
    telemetry: TelemetryConfig,
) -> Result<(SimResult, Option<TelemetryOutput>), String> {
    let header = source.header();
    let scale = scale.with_footprint(header.footprint_bytes);
    if header.footprint_bytes.saturating_mul(2) > scale.flash_bytes() {
        return Err(format!(
            "trace footprint ({} bytes) needs a flash device of at least 2x \
             that size, but this scale provides {} bytes; pick a larger \
             --scale (tiny|bench|default)",
            header.footprint_bytes,
            scale.flash_bytes()
        ));
    }
    let mut cfg = scale
        .apply(SimConfig::default().with_variant(variant))
        .with_threads(header.threads);
    for p in policies {
        p.apply(&mut cfg);
    }
    // The trace defines the work; no budget caps it.
    Simulation::with_config(cfg.with_telemetry(telemetry), workload, &scale)
        .run_source(&mut source, u64::MAX)
        .map_err(|e| format!("replay failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve_by_name() {
        assert!(parse_scale("tiny").is_ok());
        assert!(parse_scale("bench").is_ok());
        assert!(parse_scale("default").is_ok());
        assert!(parse_scale("paper").is_ok());
        assert!(parse_scale("bogus").is_err());
    }

    #[test]
    fn harness_runner_resolves_jobs() {
        assert_eq!(harness_runner(Some(3)).jobs(), 3);
        assert!(harness_runner(None).jobs() >= 1);
    }

    #[test]
    fn counts_reject_zero_overflow_and_garbage() {
        let loops = u64::from(u32::MAX);
        assert_eq!(parse_count("--loop", "3", loops), Ok(3));
        assert_eq!(parse_count("--loop", "4294967295", loops), Ok(loops));
        assert_eq!(
            parse_count("--sample-us", "18446744073709551", MAX_SAMPLE_US),
            Ok(MAX_SAMPLE_US)
        );
        for (flag, value, max) in [
            ("--loop", "0", loops),
            ("--loop", "4294967299", loops),
            ("--sample-us", "18446744073709552", MAX_SAMPLE_US),
            ("--sample-us", "18446744073709551616", MAX_SAMPLE_US),
            ("--sample-us", "-1", MAX_SAMPLE_US),
            ("--sample-us", "ten", MAX_SAMPLE_US),
            ("--sample-us", "", MAX_SAMPLE_US),
        ] {
            let err = parse_count(flag, value, max).unwrap_err();
            assert!(err.starts_with(flag), "{err}");
            assert!(err.contains(&format!("'{value}'")), "{err}");
            assert!(!err.contains('\n'), "{err}");
        }
    }

    #[test]
    fn variants_resolve_by_paper_name() {
        for v in VariantKind::ALL {
            assert_eq!(variant_from_name(&v.to_string()), Some(v));
            assert_eq!(variant_from_name(&v.to_string().to_lowercase()), Some(v));
        }
        assert_eq!(variant_from_name("SkyByte-Turbo"), None);
    }
}
