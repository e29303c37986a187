//! Parallel, memoizing execution of simulation runs.
//!
//! The experiment harness ([`crate::experiments`]) regenerates ~20 tables and
//! figures, each of which needs tens to hundreds of independent
//! [`Simulation`] runs, and several figures share the same baselines (every
//! normalised figure re-needs the Base-CSSD run of each workload).
//! [`Simulation::run`] takes `&self`, so the runs are embarrassingly
//! parallel. The [`Runner`] executes batches of [`RunRequest`]s on a scoped
//! worker pool ([`std::thread::scope`]) and memoizes each unique
//! (config, workload, scale) triple, so a given simulation is executed
//! exactly once per harness invocation no matter how many figures ask for it.
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
use std::sync::{Arc, Condvar, Mutex};
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
    pub fn from_simulation(sim: Simulation) -> Self {
        // The debug representation covers every field of the configuration,
        // workload and scale, and is deterministic — exactly what a memo key
        // needs within one harness invocation.
        let fingerprint = format!("{sim:?}");
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
/// drained from a shared queue by scoped worker threads. Either way each
/// unique fingerprint is simulated at most once and the cached
/// [`SimResult`]s are shared via [`Arc`].
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
    /// and its configuration is deliberately excluded from fingerprints, so
    /// enabling it never splits the memo table — but memo hits recall a
    /// cached [`SimResult`] without re-executing, so they contribute no
    /// telemetry output.
    telemetry: TelemetryConfig,
    state: Mutex<MemoState>,
    /// Signalled whenever a run completes, waking callers blocked on a
    /// fingerprint claimed by a concurrent `run_all`.
    finished: Condvar,
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

/// Memoized results plus the fingerprints currently being simulated, so that
/// concurrent callers never execute the same run twice.
#[derive(Debug, Default)]
struct MemoState {
    done: HashMap<String, Arc<SimResult>>,
    in_flight: HashSet<String>,
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
            state: Mutex::new(MemoState::default()),
            finished: Condvar::new(),
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
    /// Duplicate fingerprints within the batch, fingerprints already
    /// memoized by earlier batches, and fingerprints claimed by a
    /// concurrently running batch are simulated only once; the runs this
    /// call claims are spread across the worker pool, and results claimed
    /// elsewhere are awaited.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any simulation this call executes (e.g. an
    /// invalid configuration), after releasing every fingerprint the call
    /// claimed but did not finish: a concurrent caller waiting on one of
    /// them panics too, naming the run, and a later call re-runs it.
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
        // Claim every fingerprint that is neither memoized nor already being
        // simulated by a concurrent caller.
        let claimed: Vec<&RunRequest> = {
            let mut state = self.state.lock().expect("memo table poisoned");
            reqs.iter()
                .filter(|r| {
                    !state.done.contains_key(r.fingerprint())
                        && state.in_flight.insert(r.fingerprint().to_string())
                })
                .collect()
        };
        let executed = catch_unwind(AssertUnwindSafe(|| {
            if self.jobs == 1 || claimed.len() == 1 {
                // Sequential path: run inline, in enumeration order.
                for req in &claimed {
                    self.execute(req);
                }
            } else if !claimed.is_empty() {
                let next = AtomicUsize::new(0);
                let workers = self.jobs.min(claimed.len());
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(req) = claimed.get(i) else { break };
                            self.execute(req);
                        });
                    }
                });
            }
        }));
        if let Err(panic) = executed {
            // Release the claims no run finished (finished ones already left
            // `in_flight`), so waiters stop waiting and later calls re-run.
            let mut state = self.state.lock().expect("memo table poisoned");
            for req in &claimed {
                state.in_flight.remove(req.fingerprint());
            }
            drop(state);
            self.finished.notify_all();
            resume_unwind(panic);
        }
        // Collect in request order, waiting out any fingerprints a
        // concurrent caller claimed before we could.
        self.requests_served
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let mut results = Vec::with_capacity(reqs.len());
        let mut state = self.state.lock().expect("memo table poisoned");
        for r in reqs {
            loop {
                if let Some(hit) = state.done.get(r.fingerprint()) {
                    results.push(Arc::clone(hit));
                    break;
                }
                if !state.in_flight.contains(r.fingerprint()) {
                    // Neither finished nor claimed: its run panicked.
                    drop(state);
                    panic!("simulation {} panicked in a concurrent call", label(r));
                }
                state = self
                    .finished
                    .wait(state)
                    .expect("memo table poisoned while waiting");
            }
        }
        results
    }

    /// Simulates one claimed request and publishes its result.
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
        let mut state = self.state.lock().expect("memo table poisoned");
        state.in_flight.remove(req.fingerprint());
        state.done.insert(req.fingerprint().to_string(), result);
        drop(state);
        self.finished.notify_all();
    }
}

/// The human-readable `variant/workload` name of a request.
fn label(req: &RunRequest) -> String {
    let sim = req.simulation();
    format!("{}/{}", sim.config().variant, sim.workload())
}

impl Default for Runner {
    /// A runner sized to the host's available parallelism.
    fn default() -> Self {
        Self::new(default_parallelism())
    }
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
            self.state.lock().expect("memo table poisoned").done.len()
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
    fn concurrent_callers_share_exactly_one_execution() {
        let scale = tiny();
        let runner = Runner::new(2);
        let reqs: Vec<RunRequest> = [WorkloadKind::Ycsb, WorkloadKind::Bc, WorkloadKind::Srad]
            .iter()
            .map(|&w| RunRequest::build(VariantKind::BaseCssd, w, &scale))
            .collect();
        // Four threads race the same batch through one shared runner: the
        // in-flight claims must keep each unique run at exactly one
        // execution, and every caller must still get all three results.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    assert_eq!(runner.run_all(&reqs).len(), 3);
                });
            }
        });
        assert_eq!(runner.runs_executed(), 3);
        assert_eq!(runner.memoized_results(), 3);
        assert_eq!(runner.truncated_runs(), 0);
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
        assert!(Runner::default().jobs() >= 1);
        assert!(default_parallelism() >= 1);
    }

    #[test]
    fn a_panicking_run_releases_its_claim() {
        let runner = Arc::new(Runner::new(1));
        let mut cfg = tiny().apply(SimConfig::default());
        cfg.cpu.cores = 0; // fails validation, so the run panics
        let bad = RunRequest::with_config(cfg, WorkloadKind::Ycsb, &tiny());
        // Before the claim was released, the second call waited forever for
        // the first's result.
        let (tx, rx) = std::sync::mpsc::channel();
        let shared = Arc::clone(&runner);
        let helper = std::thread::spawn(move || {
            for _ in 0..2 {
                let outcome = catch_unwind(AssertUnwindSafe(|| shared.run(&bad)));
                tx.send(outcome.is_err()).unwrap();
            }
        });
        for call in 1..=2 {
            let panicked = rx.recv_timeout(Duration::from_secs(60));
            assert_eq!(panicked, Ok(true), "call {call} must re-raise, not block");
        }
        helper.join().unwrap();
        let ok = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &tiny());
        assert!(runner.run(&ok).total_accesses() > 0);
        assert_eq!(runner.runs_executed(), 1);
    }

    #[test]
    fn a_waiter_on_a_released_claim_re_raises_naming_the_run() {
        let runner = Arc::new(Runner::new(1));
        let req = RunRequest::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &tiny());
        // Stand in for a concurrent call that claims the run, then releases
        // it unfinished as a panicking run does.
        let claim = req.fingerprint().to_string();
        runner.state.lock().unwrap().in_flight.insert(claim.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        let shared = Arc::clone(&runner);
        let waiter = std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| shared.run(&req)));
            tx.send(outcome.err().and_then(|p| p.downcast::<String>().ok()))
                .unwrap();
        });
        // Once its request counts as served, the waiter is past claiming.
        while runner.requests_served.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        runner.state.lock().unwrap().in_flight.remove(&claim);
        runner.finished.notify_all();
        let message = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        waiter.join().unwrap();
        assert!(message.unwrap().contains("Base-CSSD/ycsb"));
        assert_eq!(runner.runs_executed(), 0);
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let runner = Runner::new(2);
        assert!(runner.run_all(&[]).is_empty());
        assert_eq!(runner.runs_executed(), 0);
    }
}
