//! Parallel, memoizing execution of simulation runs.
//!
//! The experiment harness ([`crate::experiments`]) regenerates ~20 tables and
//! figures, each of which needs tens to hundreds of independent
//! [`Simulation`] runs, and several figures share the same baselines (every
//! normalised figure re-needs the Base-CSSD run of each workload).
//! [`Simulation::run`] takes `&self`, so the runs are embarrassingly
//! parallel. The [`Runner`] executes batches of [`RunRequest`]s on a scoped
//! worker pool ([`parallel_map`], which the golden corpus shares) and
//! memoizes each unique (config, workload, scale) triple, so a given
//! simulation is executed exactly once per harness invocation no matter how
//! many figures ask for it.
//!
//! Because every simulation is deterministic, the runner's output is
//! bit-identical to the sequential path regardless of the number of worker
//! threads — `tests/experiment_runner.rs` locks this equivalence.

use crate::engine::{Simulation, TraceDrive};
use crate::metrics::SimResult;
use crate::scale::ExperimentScale;
use crate::telemetry::TelemetryOutput;
use serde::Serialize;
use skybyte_types::{PolicyOverride, SimConfig, TelemetryConfig, VariantKind};
use skybyte_workloads::WorkloadKind;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One fully specified simulation run, identified by a deterministic
/// fingerprint of its configuration, workload and scale.
///
/// Two requests with equal fingerprints describe byte-for-byte identical
/// simulations, so the [`Runner`] serves the second one from its memo table.
#[derive(Debug, Clone)]
pub struct RunRequest {
    sim: Simulation,
    fingerprint: String,
}

impl RunRequest {
    /// A request for `variant` on `workload` at `scale`, mirroring
    /// [`Simulation::build`].
    pub fn build(variant: VariantKind, workload: WorkloadKind, scale: &ExperimentScale) -> Self {
        Self::from_simulation(Simulation::build(variant, workload, scale))
    }

    /// A request with an explicit configuration (for sensitivity sweeps),
    /// mirroring [`Simulation::with_config`].
    pub fn with_config(cfg: SimConfig, workload: WorkloadKind, scale: &ExperimentScale) -> Self {
        Self::from_simulation(Simulation::with_config(cfg, workload, scale))
    }

    /// Wraps an already-built simulation.
    pub fn from_simulation(mut sim: Simulation) -> Self {
        // The debug representation covers every field of the configuration,
        // workload and scale, and is deterministic — exactly what a memo key
        // needs within one harness invocation. Telemetry is observe-only and
        // `Runner::execute` applies the runner's own, so the key renders it
        // at its default: requests that differ only in telemetry share one.
        let telemetry = std::mem::take(&mut sim.config_mut().telemetry);
        let fingerprint = format!("{sim:?}");
        sim.config_mut().telemetry = telemetry;
        RunRequest { sim, fingerprint }
    }

    /// The deterministic memoization key of this request.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The simulation this request will run.
    pub fn simulation(&self) -> &Simulation {
        &self.sim
    }
}

/// Wall-clock measurement of one *executed* simulation (memo hits recall the
/// cached result and are deliberately not re-timed).
///
/// `work_units` is [`SimResult::work_units`](crate::SimResult::work_units):
/// retired accesses — completed requests plus squashed re-issues — the same
/// unit the engine's `max_units` truncation guard meters, so `units_per_sec` is
/// comparable across variants and scales.
#[derive(Debug, Clone, Serialize)]
pub struct RunTiming {
    /// Design variant of the run (e.g. `Base-CSSD`).
    pub variant: String,
    /// Workload driving the run (e.g. `tpcc`).
    pub workload: String,
    /// Host wall-clock time spent inside [`Simulation::run`], in nanoseconds.
    pub wall_nanos: u64,
    /// Retired work units: completed requests + squashed re-issues.
    pub work_units: u64,
    /// Simulated time covered by the run, in nanoseconds.
    pub simulated_nanos: u64,
    /// `work_units` per host wall-clock second — the engine's throughput.
    pub units_per_sec: f64,
    /// Median simulated access latency of the run, in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile simulated access latency, in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile simulated access latency, in nanoseconds.
    pub p999_ns: u64,
}

/// Machine-readable simulation-throughput report (the `--perf` flag of the
/// `figures` and `trace` binaries).
#[derive(Debug, Clone, Serialize)]
pub struct PerfReport {
    /// Worker threads the runner used.
    pub jobs: usize,
    /// Per-run timings in execution order.
    pub runs: Vec<RunTiming>,
    /// Sum of `work_units` across runs.
    pub total_work_units: u64,
    /// Sum of per-run wall time (CPU-side; concurrent runs overlap).
    pub total_wall_nanos: u64,
    /// `total_work_units / total_wall_nanos`, scaled to seconds: aggregate
    /// single-thread-equivalent engine throughput.
    pub aggregate_units_per_sec: f64,
}

impl RunTiming {
    /// The timing of one run of `variant` on `workload` that took `wall` of
    /// host time and produced `result`.
    pub fn new(
        variant: VariantKind,
        workload: WorkloadKind,
        wall: Duration,
        result: &SimResult,
    ) -> Self {
        let work_units = result.work_units();
        let wall_nanos = wall.as_nanos() as u64;
        RunTiming {
            variant: variant.to_string(),
            workload: workload.to_string(),
            wall_nanos,
            work_units,
            simulated_nanos: result.exec_time.as_nanos(),
            units_per_sec: per_second(work_units, wall_nanos),
            p50_ns: result.latency_hist.p50().as_nanos(),
            p99_ns: result.latency_hist.p99().as_nanos(),
            p999_ns: result.latency_hist.p999().as_nanos(),
        }
    }
}

impl PerfReport {
    /// Summarises `runs`, executed on `jobs` worker threads.
    pub fn new(jobs: usize, runs: Vec<RunTiming>) -> Self {
        let total_work_units: u64 = runs.iter().map(|t| t.work_units).sum();
        let total_wall_nanos: u64 = runs.iter().map(|t| t.wall_nanos).sum();
        PerfReport {
            jobs,
            runs,
            total_work_units,
            total_wall_nanos,
            aggregate_units_per_sec: per_second(total_work_units, total_wall_nanos),
        }
    }

    /// Summarises every run `runner` executed so far.
    pub fn from_runner(runner: &Runner) -> Self {
        Self::new(runner.jobs(), runner.run_timings())
    }
}

/// `units` per second of `wall_nanos` (0 when no time passed).
fn per_second(units: u64, wall_nanos: u64) -> f64 {
    if wall_nanos == 0 {
        0.0
    } else {
        units as f64 / (wall_nanos as f64 / 1e9)
    }
}

/// Number of worker threads the host offers the harness.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A memoizing simulation runner with a fixed-size scoped worker pool.
///
/// With `jobs == 1` the runner executes every pending request inline on the
/// calling thread (the sequential path); with `jobs > 1` pending requests are
/// drained from a shared queue by scoped worker threads ([`parallel_map`]).
/// Either way each unique fingerprint is simulated at most once and the
/// cached [`SimResult`]s are shared via [`Arc`]. Batches are meant to come
/// from one thread: two concurrent `run_all` calls may both execute a run
/// neither has memoized yet.
///
/// # Example
///
/// ```
/// use skybyte_sim::runner::{RunRequest, Runner};
/// use skybyte_sim::ExperimentScale;
/// use skybyte_types::VariantKind;
/// use skybyte_workloads::WorkloadKind;
///
/// let scale = ExperimentScale::tiny().with_accesses_per_thread(50);
/// let runner = Runner::new(2);
/// let req = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale);
/// let a = runner.run_all(&[req.clone()]);
/// let b = runner.run_all(&[req]); // memo hit: no second simulation
/// assert_eq!(runner.runs_executed(), 1);
/// assert_eq!(a[0].exec_time, b[0].exec_time);
/// ```
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    /// Trace drive applied to every request this runner executes (record
    /// to / replay from a trace directory); [`TraceDrive::Synthetic`] leaves
    /// requests untouched. The drive becomes part of each decorated
    /// request's fingerprint, so memoization stays sound when one process
    /// mixes drives.
    drive: TraceDrive,
    /// Policy overrides applied to every request this runner executes (the
    /// `figures --policy <name>` hook). Like the drive, the overrides land
    /// in each decorated request's configuration and therefore in its
    /// fingerprint, keeping memoization sound.
    policies: Vec<PolicyOverride>,
    /// When set, every executed run is checked against the cross-layer
    /// conservation audit ([`crate::audit`]) and violations are collected
    /// for [`Runner::audit_failures`] (the `figures --audit` hook).
    audit: bool,
    /// Telemetry settings applied to every request this runner executes (the
    /// `figures --metrics` / `--timeline` hook). Telemetry is observe-only
    /// and [`RunRequest::from_simulation`] leaves it out of fingerprints, so
    /// enabling it never splits the memo table — but memo hits recall a
    /// cached [`SimResult`] without re-executing, so they contribute no
    /// telemetry output.
    telemetry: TelemetryConfig,
    /// Result of every executed run, keyed by fingerprint.
    memo: Mutex<HashMap<String, Arc<SimResult>>>,
    runs_executed: AtomicU64,
    truncated_runs: AtomicU64,
    /// Requests served across every `run_all` call (executions + memo
    /// hits), so front ends can report how much work memoization saved.
    requests_served: AtomicU64,
    audit_failures: Mutex<Vec<String>>,
    /// Wall-clock timing of every executed run, in execution order.
    timings: Mutex<Vec<RunTiming>>,
    /// Telemetry captured from executed runs, keyed by fingerprint (the
    /// deterministic sort key) with a human-readable `variant/workload`
    /// label for export headers.
    telemetry_outputs: Mutex<Vec<(String, String, TelemetryOutput)>>,
}

impl Runner {
    /// Creates a runner with `jobs` worker threads (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            drive: TraceDrive::Synthetic,
            policies: Vec::new(),
            audit: false,
            telemetry: TelemetryConfig::default(),
            memo: Mutex::new(HashMap::new()),
            runs_executed: AtomicU64::new(0),
            truncated_runs: AtomicU64::new(0),
            requests_served: AtomicU64::new(0),
            audit_failures: Mutex::new(Vec::new()),
            timings: Mutex::new(Vec::new()),
            telemetry_outputs: Mutex::new(Vec::new()),
        }
    }

    /// Returns this runner with `drive` applied to every request it
    /// executes — the `figures --record-dir` / `--replay-dir` hook.
    pub fn with_drive(mut self, drive: TraceDrive) -> Self {
        self.drive = drive;
        self
    }

    /// The trace drive applied to this runner's requests.
    pub fn drive(&self) -> &TraceDrive {
        &self.drive
    }

    /// Returns this runner with `policies` applied (in order) to the
    /// configuration of every request it executes — the `figures --policy`
    /// hook. An empty list leaves requests untouched.
    pub fn with_policy_overrides(mut self, policies: Vec<PolicyOverride>) -> Self {
        self.policies = policies;
        self
    }

    /// Returns this runner with the conservation audit enabled (or not):
    /// every *executed* simulation (memo hits are already-audited results)
    /// is checked against [`crate::audit`], and any violation is recorded
    /// for [`audit_failures`](Self::audit_failures).
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Whether the conservation audit runs on every executed simulation.
    pub fn audits(&self) -> bool {
        self.audit
    }

    /// Returns this runner with `telemetry` applied to every request it
    /// executes — the `figures --metrics` / `--timeline` hook. Telemetry is
    /// observe-only (results stay bit-identical) and excluded from
    /// fingerprints, so it never perturbs or splits the memo table; captured
    /// outputs are available from
    /// [`telemetry_outputs`](Self::telemetry_outputs).
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Telemetry captured from every *executed* run so far, as
    /// `(label, output)` pairs sorted by the runs' fingerprints. The sort
    /// makes the collection independent of worker-pool scheduling, so
    /// exports rendered from it are byte-identical across `--jobs` values.
    /// Memo hits recall cached results without re-executing and therefore
    /// contribute no entries.
    pub fn telemetry_outputs(&self) -> Vec<(String, TelemetryOutput)> {
        let mut outputs = self
            .telemetry_outputs
            .lock()
            .expect("telemetry log poisoned")
            .clone();
        outputs.sort_by(|a, b| a.0.cmp(&b.0));
        outputs
            .into_iter()
            .map(|(_, label, output)| (label, output))
            .collect()
    }

    /// The audit violations collected so far: one rendered report per failed
    /// run, prefixed with the run's fingerprint. Empty when auditing is
    /// disabled or every run conserved.
    pub fn audit_failures(&self) -> Vec<String> {
        self.audit_failures
            .lock()
            .expect("audit log poisoned")
            .clone()
    }

    /// The worker-pool size.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// How many simulations have actually been executed (memo hits excluded).
    /// This is the probe the equivalence tests use to assert that shared
    /// baselines are simulated exactly once.
    pub fn runs_executed(&self) -> u64 {
        self.runs_executed.load(Ordering::Relaxed)
    }

    /// How many requests were answered from the memo table instead of being
    /// simulated: requests served so far minus simulations executed.
    /// Duplicate fingerprints within one batch count as hits too.
    pub fn memo_hits(&self) -> u64 {
        self.requests_served
            .load(Ordering::Relaxed)
            .saturating_sub(self.runs_executed())
    }

    /// How many executed simulations hit the engine's step limit (their
    /// [`SimResult::truncated`] flag is set). Harness front ends should warn
    /// when this is nonzero: truncated metrics describe an unfinished run.
    pub fn truncated_runs(&self) -> u64 {
        self.truncated_runs.load(Ordering::Relaxed)
    }

    /// Wall-clock timings of every simulation this runner has executed, in
    /// execution order. Memo hits recall cached results and do not add
    /// entries.
    pub fn run_timings(&self) -> Vec<RunTiming> {
        self.timings.lock().expect("timing log poisoned").clone()
    }

    /// Runs a batch of requests, returning one result per request in order.
    ///
    /// Duplicate fingerprints within the batch and fingerprints already
    /// memoized by earlier batches are simulated only once; the rest run
    /// on the worker pool ([`parallel_map`]), in request order when
    /// `jobs == 1`.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a simulation this call executes (e.g. an
    /// invalid configuration) with its own message. Runs that finished
    /// stay memoized; the failed one is not, so a later call runs it again.
    pub fn run_all(&self, reqs: &[RunRequest]) -> Vec<Arc<SimResult>> {
        // Decorate requests with this runner's policy overrides and trace
        // drive; both land in each decorated fingerprint, keeping the memo
        // table sound.
        let plain = self.policies.is_empty() && self.drive == TraceDrive::Synthetic;
        let decorated: Vec<RunRequest>;
        let reqs: &[RunRequest] = if plain {
            reqs
        } else {
            decorated = reqs
                .iter()
                .map(|r| {
                    let mut sim = r.simulation().clone();
                    for p in &self.policies {
                        p.apply(sim.config_mut());
                    }
                    if self.drive != TraceDrive::Synthetic {
                        sim = sim.with_drive(self.drive.clone());
                    }
                    RunRequest::from_simulation(sim)
                })
                .collect();
            &decorated
        };
        // The first request of each fingerprint the memo table lacks.
        let pending: Vec<&RunRequest> = {
            let memo = self.memo.lock().expect("memo table poisoned");
            let mut seen = HashSet::new();
            reqs.iter()
                .filter(|r| !memo.contains_key(r.fingerprint()) && seen.insert(r.fingerprint()))
                .collect()
        };
        parallel_map(self.jobs, &pending, |req| self.execute(req));
        self.requests_served
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let memo = self.memo.lock().expect("memo table poisoned");
        reqs.iter()
            .map(|r| Arc::clone(&memo[r.fingerprint()]))
            .collect()
    }

    /// Simulates one request and memoizes its result.
    fn execute(&self, req: &RunRequest) {
        // Telemetry is observe-only and excluded from fingerprints, so the
        // result published under this fingerprint is bit-identical whether
        // or not telemetry rode along with the execution.
        let mut sim = req.simulation().clone();
        sim.config_mut().telemetry = self.telemetry;
        let started = Instant::now();
        let (result, telemetry) = sim
            .try_run_with_telemetry()
            .unwrap_or_else(|e| panic!("trace drive failed: {e}"));
        let wall = started.elapsed();
        let timing = RunTiming::new(sim.config().variant, sim.workload(), wall, &result);
        let result = Arc::new(result);
        self.runs_executed.fetch_add(1, Ordering::Relaxed);
        self.timings
            .lock()
            .expect("timing log poisoned")
            .push(timing);
        if result.truncated {
            self.truncated_runs.fetch_add(1, Ordering::Relaxed);
        }
        if self.audit {
            let final_sample = telemetry.as_ref().map(|t| &t.final_sample);
            let report = crate::audit::audit_with_telemetry(&result, final_sample);
            if !report.is_clean() {
                self.audit_failures
                    .lock()
                    .expect("audit log poisoned")
                    .push(format!("{}: {report}", req.fingerprint()));
            }
        }
        if let Some(output) = telemetry {
            self.telemetry_outputs
                .lock()
                .expect("telemetry log poisoned")
                .push((req.fingerprint().to_string(), label(req), output));
        }
        self.memo
            .lock()
            .expect("memo table poisoned")
            .insert(req.fingerprint().to_string(), result);
    }
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads and returns
/// the outputs in item order, so the result is the same for any `jobs`.
/// Runs inline, in item order, when one worker is enough.
///
/// # Panics
///
/// If `f` panics, no worker starts another item, and once all have stopped
/// the panic is re-raised with its own payload (a bare
/// [`std::thread::scope`] would replace it with its own message).
pub fn parallel_map<T: Sync, U: Send>(
    jobs: usize,
    items: &[T],
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    // A worker returns its (index, output) pairs, or the payload of the
    // item that panicked.
    let worker = || {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return Ok(out);
            };
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(output) => out.push((i, output)),
                Err(payload) => {
                    next.store(items.len(), Ordering::Relaxed);
                    return Err(payload);
                }
            }
        }
    };
    let per_worker: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .map(|r| r.expect("worker panics are caught"))
            .collect()
    });
    let mut outputs = Vec::with_capacity(items.len());
    for out in per_worker {
        outputs.extend(out.unwrap_or_else(|payload| resume_unwind(payload)));
    }
    outputs.sort_unstable_by_key(|&(i, _)| i);
    outputs.into_iter().map(|(_, out)| out).collect()
}

/// The human-readable `variant/workload` name of a request.
fn label(req: &RunRequest) -> String {
    let sim = req.simulation();
    format!("{}/{}", sim.config().variant, sim.workload())
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_types::Nanos;

    impl Runner {
        /// Runs (or recalls) a single request.
        fn run(&self, req: &RunRequest) -> Arc<SimResult> {
            self.run_all(std::slice::from_ref(req)).remove(0)
        }

        /// Number of distinct results currently memoized.
        fn memoized_results(&self) -> usize {
            self.memo.lock().expect("memo table poisoned").len()
        }
    }

    fn tiny() -> ExperimentScale {
        ExperimentScale::tiny().with_accesses_per_thread(100)
    }

    #[test]
    fn fingerprints_distinguish_every_knob() {
        let scale = tiny();
        let a = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale);
        let b = RunRequest::build(VariantKind::SkyByteFull, WorkloadKind::Ycsb, &scale);
        let c = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Bc, &scale);
        let d = RunRequest::build(
            VariantKind::BaseCssd,
            WorkloadKind::Ycsb,
            &scale.with_accesses_per_thread(101),
        );
        let mut cfg = scale.apply(SimConfig::default().with_variant(VariantKind::BaseCssd));
        cfg.cs_threshold = Nanos::from_micros(99);
        let e = RunRequest::with_config(cfg, WorkloadKind::Ycsb, &scale);
        let prints = [&a, &b, &c, &d, &e].map(|r| r.fingerprint().to_string());
        for (i, x) in prints.iter().enumerate() {
            for y in &prints[i + 1..] {
                assert_ne!(x, y);
            }
        }
        // Identical requests share a fingerprint.
        let a2 = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale);
        assert_eq!(a.fingerprint(), a2.fingerprint());
    }

    #[test]
    fn requests_differing_only_in_telemetry_share_a_fingerprint() {
        let scale = tiny();
        let plain = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale);
        let mut sim = plain.simulation().clone();
        sim.config_mut().telemetry = TelemetryConfig {
            enabled: true,
            sample_interval: Nanos::from_micros(1),
            timeline: false,
        };
        let observed = RunRequest::from_simulation(sim);
        assert_eq!(plain.fingerprint(), observed.fingerprint());
        assert!(observed.simulation().config().telemetry.enabled);
        let runner = Runner::new(1);
        let first = runner.run(&plain);
        let second = runner.run(&observed);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second run must be a memo hit"
        );
        assert_eq!(runner.runs_executed(), 1);
        assert_eq!(runner.memo_hits(), 1);
    }

    #[test]
    fn run_memoizes_identical_requests() {
        let scale = tiny();
        let runner = Runner::new(1);
        let req = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale);
        let first = runner.run(&req);
        let second = runner.run(&req);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second run must be a memo hit"
        );
        assert_eq!(runner.runs_executed(), 1);
        assert_eq!(runner.memoized_results(), 1);
    }

    #[test]
    fn run_all_deduplicates_within_a_batch() {
        let scale = tiny();
        let runner = Runner::new(4);
        let reqs = vec![
            RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale),
            RunRequest::build(VariantKind::DramOnly, WorkloadKind::Ycsb, &scale),
            RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale),
        ];
        let results = runner.run_all(&reqs);
        assert_eq!(results.len(), 3);
        assert_eq!(runner.runs_executed(), 2, "duplicate must not re-run");
        assert!(Arc::ptr_eq(&results[0], &results[2]));
        // A follow-up batch reuses the memo across calls.
        let again = runner.run_all(&reqs);
        assert_eq!(runner.runs_executed(), 2);
        assert!(Arc::ptr_eq(&again[0], &results[0]));
    }

    #[test]
    fn parallel_results_match_sequential_results() {
        let scale = tiny();
        let workloads = [WorkloadKind::Ycsb, WorkloadKind::Bc, WorkloadKind::Srad];
        let reqs: Vec<RunRequest> = workloads
            .iter()
            .flat_map(|&w| {
                [
                    RunRequest::build(VariantKind::BaseCssd, w, &scale),
                    RunRequest::build(VariantKind::SkyByteFull, w, &scale),
                ]
            })
            .collect();
        let seq = Runner::new(1).run_all(&reqs);
        let par = Runner::new(4).run_all(&reqs);
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.exec_time, p.exec_time);
            assert_eq!(s.requests, p.requests);
            assert_eq!(s.layers.flash, p.layers.flash);
            assert_eq!(s.context_switches, p.context_switches);
        }
    }

    #[test]
    fn drives_partition_the_memo_table_and_replay_matches_recording() {
        let dir = std::env::temp_dir().join(format!("skybyte-runner-drive-{}", std::process::id()));
        let scale = tiny();
        let req = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale);
        // The drive is part of the decorated fingerprint, so recorded,
        // replayed and plain runs memoize separately…
        let decorated = RunRequest::from_simulation(
            req.simulation()
                .clone()
                .with_drive(crate::engine::TraceDrive::Record { dir: dir.clone() }),
        );
        assert_ne!(req.fingerprint(), decorated.fingerprint());
        // …and a replay-driven runner reproduces the recording bit-exactly.
        let recorder =
            Runner::new(2).with_drive(crate::engine::TraceDrive::Record { dir: dir.clone() });
        let live = recorder.run(&req);
        let replayer =
            Runner::new(2).with_drive(crate::engine::TraceDrive::Replay { dir: dir.clone() });
        let replayed = replayer.run(&req);
        assert_eq!(*live, *replayed);
        assert_eq!(recorder.runs_executed(), 1);
        assert_eq!(replayer.runs_executed(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_overrides_decorate_requests_and_partition_the_memo_table() {
        use skybyte_types::EvictionPolicyKind;
        let scale = tiny();
        let req = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale);
        let plain = Runner::new(1);
        let clocked = Runner::new(1)
            .with_policy_overrides(vec![PolicyOverride::Eviction(EvictionPolicyKind::Clock)]);
        assert_eq!(clocked.policies.len(), 1);
        let a = plain.run(&req);
        let b = clocked.run(&req);
        // The override lands in the executed configuration and the result.
        assert_eq!(a.policy.eviction, EvictionPolicyKind::PseudoLru);
        assert_eq!(b.policy.eviction, EvictionPolicyKind::Clock);
        // Decoration changes the fingerprint, so a shared runner would keep
        // the two runs distinct in its memo table.
        let decorated = {
            let mut sim = req.simulation().clone();
            PolicyOverride::Eviction(EvictionPolicyKind::Clock).apply(sim.config_mut());
            RunRequest::from_simulation(sim)
        };
        assert_ne!(req.fingerprint(), decorated.fingerprint());
    }

    #[test]
    fn jobs_are_clamped_to_at_least_one() {
        assert_eq!(Runner::new(0).jobs(), 1);
        assert_eq!(Runner::new(7).jobs(), 7);
        assert!(Runner::new(default_parallelism()).jobs() >= 1);
        assert!(default_parallelism() >= 1);
    }

    /// A request that fails configuration validation, so its run panics.
    fn invalid_request() -> RunRequest {
        let mut cfg = tiny().apply(SimConfig::default());
        cfg.cpu.cores = 0;
        RunRequest::with_config(cfg, WorkloadKind::Ycsb, &tiny())
    }

    #[test]
    fn a_panicking_run_releases_its_claim() {
        let runner = Runner::new(1);
        let bad = invalid_request();
        // The failed run leaves nothing memoized: each call runs it again
        // and re-raises.
        for call in 1..=2 {
            let outcome = catch_unwind(AssertUnwindSafe(|| runner.run(&bad)));
            assert!(outcome.is_err(), "call {call} must re-raise");
        }
        let ok = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &tiny());
        assert!(runner.run(&ok).total_accesses() > 0);
        assert_eq!(runner.runs_executed(), 1);
        assert_eq!(runner.memoized_results(), 1);
    }

    #[test]
    fn a_failing_run_on_the_pool_names_its_cause() {
        let runner = Runner::new(2);
        let ok = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &tiny());
        let payload = catch_unwind(AssertUnwindSafe(|| {
            runner.run_all(&[ok, invalid_request()])
        }))
        .expect_err("the invalid run must panic");
        let message = payload.downcast::<String>().expect("a formatted message");
        assert!(message.contains("cpu.cores"), "{message}");
    }

    #[test]
    fn parallel_map_preserves_order_for_any_job_count() {
        for jobs in [1, 3, 8] {
            let out = parallel_map(jobs, &(0..10).collect::<Vec<_>>(), |i| i * i);
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(parallel_map(4, &[] as &[u32], |i| *i).is_empty());
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let runner = Runner::new(2);
        assert!(runner.run_all(&[]).is_empty());
        assert_eq!(runner.runs_executed(), 0);
    }
}
