//! The four benchmark workloads: what each sets up, and one timed pass over
//! it with every simulation checked afterwards.
//!
//! A pass is a closed loop on one thread: each simulation runs to
//! completion before the next starts (`jobs = 1`). Every simulation is timed
//! on its own; the audit, the digest and the replay/determinism checks run
//! outside that window but inside the pass, so the pass wall time covers the
//! harness and the per-simulation times cover the engine alone. A host-speed
//! probe runs after each simulation (each fleet point) and its checks, and on
//! a replay also between the two; it rescales the host time since the
//! previous probe to reference time.

use crate::calib::{HostProbe, Stopwatch, Stretch};
use crate::stats::Digest;
use crate::trace::{TimedSource, Tracer};
use skybyte_sim::audit::{audit, audit_with_telemetry};
use skybyte_sim::fleet::{fleet_population, FLEET_GRID, FLEET_PLACEMENTS};
use skybyte_sim::TelemetryOutput;
use skybyte_sim::{
    audit_fleet, chrome_trace_json, metrics_csv, run_fleet, ExperimentScale, FleetConfig, Runner,
    SimResult, Simulation, TraceDrive,
};
use skybyte_trace::TraceFileSource;
use skybyte_types::{AuditReport, RebalancePolicyKind, TelemetryConfig, VariantKind};
use skybyte_workloads::{TraceSource, WorkloadKind, WorkloadSource};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A benchmark workload (one `--workload` name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The figure-14 variants over the read-mostly workloads.
    SweepRead,
    /// The figure-14 variants over the write-heavy workloads.
    SweepWrite,
    /// The `--fig fleet` sweep through one memoizing runner.
    Fleet,
    /// Recorded ycsb/tpcc traces replayed with telemetry and exports.
    ReplayObserved,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepRead,
        Workload::SweepWrite,
        Workload::Fleet,
        Workload::ReplayObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepRead => "sweep-read",
            Workload::SweepWrite => "sweep-write",
            Workload::Fleet => "fleet",
            Workload::ReplayObserved => "replay-observed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The application streams the workload drives; the per-layer benches
    /// replay these same streams.
    pub fn kinds(self) -> &'static [WorkloadKind] {
        use WorkloadKind::*;
        match self {
            Workload::SweepRead => &[Ycsb, Bc, BfsDense],
            Workload::SweepWrite => &[Tpcc, Dlrm, Radix, Srad],
            Workload::Fleet => &[Ycsb, Tpcc, Bc, Srad],
            Workload::ReplayObserved => &[Ycsb, Tpcc],
        }
    }

    /// The design variants the workload simulates.
    pub fn variants(self) -> &'static [VariantKind] {
        match self {
            Workload::SweepRead | Workload::SweepWrite => &VariantKind::MAIN_ABLATION,
            Workload::Fleet => &[VariantKind::SkyByteFull],
            Workload::ReplayObserved => &REPLAY_VARIANTS,
        }
    }
}

const REPLAY_VARIANTS: [VariantKind; 2] = [VariantKind::BaseCssd, VariantKind::SkyByteFull];

/// One replayed trace: the observed simulation (telemetry on), the `.sbt`
/// file it replays, and the live result that recorded the file.
pub struct ReplayPair {
    pub label: String,
    pub sim: Simulation,
    pub path: PathBuf,
    pub live: SimResult,
}

/// Everything a workload builds before its first timed simulation.
pub enum Prepared {
    Sweep(Vec<Simulation>),
    Fleet(Vec<(String, FleetConfig)>),
    Replay(Vec<ReplayPair>),
}

/// One timed simulation of a pass.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Work units: completed requests plus squashed re-issues (the
    /// `RunTiming` definition).
    pub units: u64,
    pub wall_ns: u64,
    /// `wall_ns` in reference nanoseconds (see `calib`).
    pub ref_ns: f64,
    /// Records pulled through a timing adapter, and their estimated host
    /// time (traced passes only; 0 otherwise).
    pub source_calls: u64,
    pub source_ns: u64,
}

/// The outcome of one pass over a workload.
#[derive(Default)]
pub struct Pass {
    /// Host time of the pass, probes excluded.
    pub wall_ns: u64,
    /// Reference nanoseconds of each stretch between probes: one per
    /// simulation (fleet point), its checks included, or on a replay one for
    /// the simulation and one for its exports and checks. They sum to the
    /// pass.
    pub stretches: Vec<f64>,
    pub sims: Vec<SimRun>,
    /// One digest per simulation (sweeps, replay) or per fleet point.
    pub digests: Vec<u64>,
    pub failures: Vec<String>,
    /// Simulations attempted (executed, not memo hits).
    pub attempted: u64,
    /// Results the simulated counters are folded over.
    pub results: Vec<Arc<SimResult>>,
    pub memo_hits: u64,
    pub export_ns: u64,
    pub telemetry_samples: u64,
    pub timeline_events: u64,
}

impl Pass {
    pub fn units(&self) -> u64 {
        self.sims.iter().map(|s| s.units).sum()
    }

    pub fn sim_wall_ns(&self) -> u64 {
        self.sims.iter().map(|s| s.wall_ns).sum()
    }

    /// Closes the stretch since the previous probe: the simulations it
    /// timed from index `first` on, and the pass's wall, are rescaled.
    fn book(&mut self, first: usize, lap: Stretch) {
        for s in &mut self.sims[first..] {
            s.ref_ns = s.wall_ns as f64 * lap.scale;
        }
        self.wall_ns += lap.host_ns as u64;
        self.stretches.push(lap.ref_ns());
    }

    /// The digest over the whole pass.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for x in &self.digests {
            d.update(&x.to_le_bytes());
        }
        d.value()
    }
}

/// Work units of a result, as `RunTiming` counts them.
pub fn work_units(r: &SimResult) -> u64 {
    r.requests.total() + r.squashed_accesses
}

/// Checks that `seed` reaches workload generation: the source identity
/// names it, and a neighbouring seed generates a different stream.
pub fn check_seed_reaches_generation(
    workload: Workload,
    scale: &ExperimentScale,
) -> Result<(), String> {
    let kind = workload.kinds()[0];
    let spec = scale.workload_spec(kind);
    let mut a = WorkloadSource::new(&spec, 1, scale.seed);
    let mut b = WorkloadSource::new(&spec, 1, scale.seed ^ 1);
    if !a.identity().ends_with(&format!("seed{}", scale.seed)) {
        return Err(format!(
            "source identity {} does not name seed {}",
            a.identity(),
            scale.seed
        ));
    }
    let pull = |s: &mut WorkloadSource| -> Vec<_> {
        (0..64).map(|_| s.next_record(0).ok().flatten()).collect()
    };
    if pull(&mut a) == pull(&mut b) {
        return Err(format!(
            "seeds {} and {} generate the same {kind} stream",
            scale.seed,
            scale.seed ^ 1
        ));
    }
    Ok(())
}

/// Builds the workload's requests (recording its traces for
/// `replay-observed`) and runs one warm-up simulation. A warm-up that
/// panics is not fatal: the same simulation fails again, and is counted,
/// in the timed passes.
pub fn setup(
    workload: Workload,
    scale: &ExperimentScale,
    out_dir: &Path,
) -> Result<Prepared, String> {
    match workload {
        Workload::SweepRead | Workload::SweepWrite => {
            let sims: Vec<Simulation> = workload
                .kinds()
                .iter()
                .flat_map(|&k| workload.variants().iter().map(move |&v| (v, k)))
                .map(|(v, k)| Simulation::build(v, k, scale))
                .collect();
            warm_up(|| run_sweep_sim(&sims[0], scale, false));
            Ok(Prepared::Sweep(sims))
        }
        Workload::Fleet => {
            let points = fleet_points(scale);
            warm_up(|| run_fleet(&Runner::new(1), &points[0].1));
            Ok(Prepared::Fleet(points))
        }
        Workload::ReplayObserved => {
            let dir = out_dir.join(format!("traces-seed{}", scale.seed));
            let mut pairs = Vec::new();
            for &kind in workload.kinds() {
                for &variant in workload.variants() {
                    let sim = Simulation::build(variant, kind, scale);
                    let live = sim
                        .clone()
                        .with_drive(TraceDrive::Record { dir: dir.clone() })
                        .try_run()
                        .map_err(|e| format!("recording {variant}/{kind}: {e}"))?;
                    let mut observed = sim.clone();
                    observed.config_mut().telemetry = TelemetryConfig {
                        enabled: true,
                        ..TelemetryConfig::default()
                    };
                    pairs.push(ReplayPair {
                        label: format!("{variant}/{kind}"),
                        path: dir.join(sim.trace_file_name()),
                        sim: observed,
                        live,
                    });
                }
            }
            warm_up(|| plain_replay(&pairs[0]));
            Ok(Prepared::Replay(pairs))
        }
    }
}

fn warm_up<T>(f: impl FnOnce() -> T) {
    let _ = std::hint::black_box(catch_unwind(AssertUnwindSafe(f)));
}

/// The points of `figures --fig fleet`: every placement policy on every
/// grid size, plus the first-fit + swap-worst rebalance row.
pub fn fleet_points(scale: &ExperimentScale) -> Vec<(String, FleetConfig)> {
    let mut points = Vec::new();
    for &placement in &FLEET_PLACEMENTS {
        for &(devices, tenants) in &FLEET_GRID {
            let mut cfg = FleetConfig::new(devices, VariantKind::SkyByteFull, *scale);
            cfg.tenants = fleet_population(scale, devices, tenants);
            cfg.placement = placement;
            points.push((format!("{placement}/{devices}d-{tenants}t"), cfg));
        }
    }
    let mut cfg = FleetConfig::new(4, VariantKind::SkyByteFull, *scale);
    cfg.tenants = fleet_population(scale, 3, 48);
    cfg.rebalance = RebalancePolicyKind::SwapWorst;
    cfg.rounds = 2;
    points.push(("first-fit+swap-worst/4d-48t".to_string(), cfg));
    points
}

/// The replay of `pair` with telemetry off (the telemetry-overhead baseline
/// and the warm-up run).
pub fn plain_replay(pair: &ReplayPair) -> Result<SimResult, String> {
    let mut sim = pair.sim.clone();
    sim.config_mut().telemetry = TelemetryConfig::default();
    sim.run_trace_file(&pair.path)
        .map_err(|e| format!("{}: {e}", pair.label))
}

/// Runs one sweep simulation on its live source, through the timing adapter
/// when `traced`. Returns the result and the adapter's call count and time.
fn run_sweep_sim(sim: &Simulation, scale: &ExperimentScale, traced: bool) -> (SimResult, u64, u64) {
    let spec = scale.workload_spec(sim.workload());
    let source = WorkloadSource::new(&spec, sim.config().threads, scale.seed);
    let budget = sim.per_thread_budget();
    if traced {
        let mut timed = TimedSource::new(source);
        let result = sim.run_with_source(&mut timed, budget);
        (result, timed.calls, timed.estimated_ns())
    } else {
        let mut source = source;
        (sim.run_with_source(&mut source, budget), 0, 0)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

fn digest_of(result: &SimResult) -> u64 {
    Digest::of(
        serde_json::to_string(result)
            .expect("a SimResult always serialises")
            .as_bytes(),
    )
}

/// A simulation's outcome as caught by `catch_unwind`: the result, a
/// by-product (telemetry), and the timing adapter's pull count and time.
type Caught<T> = std::thread::Result<Result<(SimResult, T, u64, u64), String>>;

/// Where one simulation sits in the trace: its id and its pass's span.
#[derive(Clone, Copy)]
struct SimSpan {
    sim: u64,
    pass: u64,
}

impl Pass {
    /// Books the simulation timed from `t0` to now: its span and run on
    /// success, a failure otherwise.
    fn timed<T>(
        &mut self,
        tracer: &mut Tracer,
        at: SimSpan,
        label: &str,
        t0: Instant,
        out: Caught<T>,
    ) -> Option<(SimResult, T)> {
        let t1 = Instant::now();
        self.attempted += 1;
        let (result, extra, calls, ns) = match out {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                self.failures.push(format!("{label}: {e}"));
                return None;
            }
            Err(p) => {
                self.failures
                    .push(format!("{label}: panicked: {}", panic_message(p.as_ref())));
                return None;
            }
        };
        let units = work_units(&result);
        let counts = vec![
            ("units", units),
            ("source_records", calls),
            ("source_ns", ns),
        ];
        tracer.record(
            &format!("sim {label}"),
            Some(at.pass),
            Some(at.sim),
            (t0, t1),
            counts,
        );
        self.sims.push(SimRun {
            units,
            wall_ns: (t1 - t0).as_nanos() as u64,
            ref_ns: 0.0,
            source_calls: calls,
            source_ns: ns,
        });
        Some((result, extra))
    }

    /// Renders both telemetry exports of one replay and checks their shape.
    fn export(&mut self, tracer: &mut Tracer, at: SimSpan, label: &str, t: &TelemetryOutput) {
        let e0 = Instant::now();
        let csv = metrics_csv(std::iter::once((label, &t.metrics)));
        let json = chrome_trace_json(std::iter::once((label, &t.timeline)));
        let e1 = Instant::now();
        let counts = vec![
            ("csv_bytes", csv.len() as u64),
            ("json_bytes", json.len() as u64),
        ];
        tracer.record(
            "telemetry.export",
            Some(at.pass),
            Some(at.sim),
            (e0, e1),
            counts,
        );
        self.export_ns += (e1 - e0).as_nanos() as u64;
        self.telemetry_samples += t.metrics.samples.len() as u64;
        self.timeline_events += t.timeline.events().len() as u64;
        // The CSV carries a header plus one row per sample.
        if csv.lines().count() != t.metrics.samples.len() + 1 || !json.starts_with('[') {
            self.failures
                .push(format!("{label}: telemetry exports are malformed"));
        }
    }

    /// The checks outside the timing window: truncation, the audit `report`,
    /// equality with the `live` run that recorded a replayed trace, and the
    /// digest the determinism check compares across passes.
    fn check(
        &mut self,
        tracer: &mut Tracer,
        at: SimSpan,
        label: &str,
        result: SimResult,
        report: AuditReport,
        live: Option<&SimResult>,
    ) {
        let c0 = Instant::now();
        if result.truncated {
            self.failures
                .push(format!("{label}: truncated at the engine's step limit"));
        }
        if !report.is_clean() {
            self.failures
                .push(format!("{label}: audit failed: {report}"));
        }
        if live.is_some_and(|live| *live != result) {
            self.failures.push(format!(
                "{label}: replay differs from the live run that recorded it"
            ));
        }
        self.digests.push(digest_of(&result));
        tracer.record(
            "check",
            Some(at.pass),
            Some(at.sim),
            (c0, Instant::now()),
            Vec::new(),
        );
        self.results.push(Arc::new(result));
    }
}

/// Runs one pass over the prepared workload, with spans under a `pass` span;
/// `traced` wraps each live or file source in the timing adapter.
pub fn run_pass(
    prepared: &Prepared,
    scale: &ExperimentScale,
    traced: bool,
    tracer: &mut Tracer,
    sim_ids: &mut u64,
    probe: &mut HostProbe,
) -> Pass {
    let start = Instant::now();
    let pass_span = tracer.open("pass", None, start);
    let mut pass = Pass::default();
    let mut watch = Stopwatch::start(probe);
    let next = |sim_ids: &mut u64| {
        *sim_ids += 1;
        SimSpan {
            sim: *sim_ids,
            pass: pass_span,
        }
    };
    match prepared {
        Prepared::Sweep(sims) => {
            for sim in sims {
                let first = pass.sims.len();
                let at = next(sim_ids);
                let label = format!("{}/{}", sim.config().variant, sim.workload());
                let t0 = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let (result, calls, ns) = run_sweep_sim(sim, scale, traced);
                    Ok((result, (), calls, ns))
                }));
                if let Some((result, ())) = pass.timed(tracer, at, &label, t0, out) {
                    let report = audit(&result);
                    pass.check(tracer, at, &label, result, report, None);
                }
                pass.book(first, watch.lap());
            }
        }
        Prepared::Fleet(points) => {
            fleet_pass(points, &mut pass, tracer, pass_span, sim_ids, &mut watch)
        }
        Prepared::Replay(pairs) => {
            for pair in pairs {
                let first = pass.sims.len();
                let at = next(sim_ids);
                let t0 = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| {
                    if traced {
                        let source = TraceFileSource::open(&pair.path)
                            .map_err(|e| format!("replay failed: {e}"))?;
                        let mut timed = TimedSource::new(source);
                        let result = pair.sim.run_with_source(&mut timed, u64::MAX);
                        Ok((result, None, timed.calls, timed.estimated_ns()))
                    } else {
                        let (result, telemetry) = pair
                            .sim
                            .run_trace_file_with_telemetry(&pair.path)
                            .map_err(|e| format!("replay failed: {e}"))?;
                        Ok((result, telemetry, 0, 0))
                    }
                }));
                let outcome = pass.timed(tracer, at, &pair.label, t0, out);
                // The exports and checks take about as long as the replay:
                // a probe between the two gives each its own scale.
                pass.book(first, watch.lap());
                if let Some((result, telemetry)) = outcome {
                    if let Some(t) = &telemetry {
                        pass.export(tracer, at, &pair.label, t);
                    }
                    let report =
                        audit_with_telemetry(&result, telemetry.as_ref().map(|t| &t.final_sample));
                    pass.check(tracer, at, &pair.label, result, report, Some(&pair.live));
                }
                pass.book(pass.sims.len(), watch.lap());
            }
        }
    }
    let end = Instant::now();
    tracer.close(pass_span, end, vec![("traced", traced as u64)]);
    pass
}

/// One fleet sweep through a fresh memoizing runner (audit on). A panicking
/// point discards the runner, since a panicked run leaves its memo claim
/// behind, and the remaining points continue on a new one. The probe runs
/// after each point.
fn fleet_pass(
    points: &[(String, FleetConfig)],
    pass: &mut Pass,
    tracer: &mut Tracer,
    pass_span: u64,
    sim_ids: &mut u64,
    watch: &mut Stopwatch,
) {
    let new_runner = || Runner::new(1).with_audit(true);
    let mut runner = new_runner();
    // Simulations of the current runner already booked.
    let mut seen = 0;
    let timings = |runner: &Runner, seen: &mut usize, pass: &mut Pass| {
        let all = runner.run_timings();
        for t in &all[*seen..] {
            pass.sims.push(SimRun {
                units: t.work_units,
                wall_ns: t.wall_nanos,
                ref_ns: 0.0,
                source_calls: 0,
                source_ns: 0,
            });
        }
        *seen = all.len();
    };
    let harvest = |runner: &Runner, pass: &mut Pass| {
        pass.attempted += runner.runs_executed();
        pass.memo_hits += runner.memo_hits();
        pass.failures.extend(runner.audit_failures());
        if runner.truncated_runs() > 0 {
            pass.failures.push(format!(
                "{} fleet simulation(s) truncated",
                runner.truncated_runs()
            ));
        }
    };
    for (label, cfg) in points {
        let first = pass.sims.len();
        *sim_ids += 1;
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| run_fleet(&runner, cfg)));
        let t1 = Instant::now();
        tracer.record(
            "fleet.point",
            Some(pass_span),
            Some(*sim_ids),
            (t0, t1),
            vec![("executed_so_far", runner.runs_executed())],
        );
        timings(&runner, &mut seen, pass);
        match out {
            Ok(fr) => {
                let report = audit_fleet(&fr);
                if !report.is_clean() {
                    pass.failures.push(format!("fleet {label}: {report}"));
                }
                let mut d = Digest::default();
                d.update(label.as_bytes());
                for (i, dev) in fr.devices.iter().enumerate() {
                    d.update(&(i as u64).to_le_bytes());
                    if let Some(r) = &dev.result {
                        d.update(&digest_of(r).to_le_bytes());
                        pass.results.push(Arc::clone(r));
                    }
                }
                for (a, s) in fr.assignment.iter().zip(&fr.slowdowns) {
                    d.update(&(*a as u64).to_le_bytes());
                    d.update(&s.to_bits().to_le_bytes());
                }
                pass.digests.push(d.value());
            }
            Err(p) => {
                pass.attempted += 1;
                pass.failures.push(format!(
                    "fleet {label}: panicked: {}",
                    panic_message(p.as_ref())
                ));
                harvest(&runner, pass);
                runner = new_runner();
                seen = 0;
            }
        }
        pass.book(first, watch.lap());
    }
    harvest(&runner, pass);
}
