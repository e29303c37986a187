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
//! * `cargo bench -p skybyte-bench` — Criterion benchmarks: one group per
//!   headline evaluation figure (at a reduced scale so the suite finishes on
//!   a laptop) plus microbenchmarks of the core data structures (write-log
//!   append/lookup/compaction, FTL writes with GC, data-cache operations,
//!   scheduler picks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;

use skybyte_sim::runner::default_parallelism;
use skybyte_sim::{ExperimentScale, Runner, SimResult, Simulation, TelemetryOutput};
use skybyte_trace::TraceHeader;
use skybyte_types::{PolicyOverride, SimConfig, TelemetryConfig, VariantKind};
use skybyte_workloads::WorkloadKind;
use std::path::Path;

/// The scale used by the Criterion figure benchmarks: small enough that one
/// simulation takes well under a second.
pub fn bench_scale() -> ExperimentScale {
    ExperimentScale::bench().with_accesses_per_thread(1_500)
}

/// The scale used by the `figures` binary by default (can be overridden with
/// `--scale tiny|bench|default`).
pub fn figures_scale(name: &str) -> Option<ExperimentScale> {
    match name {
        "tiny" => Some(ExperimentScale::tiny()),
        "bench" => Some(ExperimentScale::bench()),
        "default" | "paper" => Some(ExperimentScale::default_scale()),
        _ => None,
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

/// Parses a design-variant name as printed by the paper (case-insensitive),
/// e.g. `"SkyByte-Full"` or `"base-cssd"`.
pub fn variant_from_name(name: &str) -> Option<VariantKind> {
    VariantKind::ALL
        .into_iter()
        .find(|v| v.to_string().eq_ignore_ascii_case(name))
}

/// Replays an `.sbt` trace file as one full simulation: the trace (via its
/// `header`) defines the footprint, thread count and amount of work, `scale`
/// defines the simulated device around it, `policies` selects off-default
/// policies (empty for the pinned defaults — what the golden corpus passes),
/// and `workload` is the label the result carries.
///
/// This is the single replay-configuration path shared by `trace replay` and
/// the golden corpus ([`corpus`]), so the two can never drift apart. It
/// enforces the capacity guard: composed/shifted traces can outgrow the
/// chosen device, and every built-in scale keeps footprint ≤ flash/2 for GC
/// headroom — failing with a hint beats an FTL panic mid-simulation.
pub fn replay_trace_file(
    path: &Path,
    header: &TraceHeader,
    variant: VariantKind,
    workload: WorkloadKind,
    scale: ExperimentScale,
    policies: &[PolicyOverride],
) -> Result<SimResult, String> {
    replay_trace_file_with_telemetry(
        path,
        header,
        variant,
        workload,
        scale,
        policies,
        TelemetryConfig::default(),
    )
    .map(|(result, _)| result)
}

/// [`replay_trace_file`] with telemetry riding along: when
/// `telemetry.enabled` the returned [`TelemetryOutput`] carries the sampled
/// metrics and (optionally) the Chrome-trace timeline of the replay.
/// Telemetry is observe-only, so the [`SimResult`] is bit-identical to the
/// plain path — the golden corpus verifies against either.
pub fn replay_trace_file_with_telemetry(
    path: &Path,
    header: &TraceHeader,
    variant: VariantKind,
    workload: WorkloadKind,
    scale: ExperimentScale,
    policies: &[PolicyOverride],
    telemetry: TelemetryConfig,
) -> Result<(SimResult, Option<TelemetryOutput>), String> {
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
    cfg = cfg.with_telemetry(telemetry);
    Simulation::with_config(cfg, workload, &scale)
        .run_trace_file_with_telemetry(path)
        .map_err(|e| format!("replay failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve_by_name() {
        assert!(figures_scale("tiny").is_some());
        assert!(figures_scale("bench").is_some());
        assert!(figures_scale("default").is_some());
        assert!(figures_scale("paper").is_some());
        assert!(figures_scale("bogus").is_none());
        assert!(bench_scale().accesses_per_thread <= 2_000);
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
