//! The full-system simulation engine.
//!
//! The engine advances a set of cores in global time order (always stepping
//! the core with the smallest local clock). Each step executes one work unit
//! of the thread running on that core: a compute burst followed by one
//! off-chip memory access resolved through the OS page table — either to
//! host DRAM or, over the CXL port, to the SSD controller. When the SSD
//! answers with a `SkyByte-Delay` hint and the coordinated context switch is
//! enabled, the access is squashed, the thread blocks until the data is
//! expected in SSD DRAM, and the scheduler picks another thread for the core
//! (Figure 7). Page migrations run in the background between accesses.

use crate::metrics::SimResult;
use crate::scale::ExperimentScale;
use crate::system::SystemState;
use crate::telemetry::TelemetryOutput;
use skybyte_trace::{
    record_to_file, BoxedSource, Record, Shift, Tenants, TraceError, TraceFileSource, TraceHeader,
    TraceWriter,
};
use skybyte_types::{SimConfig, TenantId, VariantKind, PAGE_SIZE};
use skybyte_workloads::{TraceSource, WorkloadKind, WorkloadSource};
use std::path::{Path, PathBuf};

pub use crate::system::MIGRATION_PERIOD_ACCESSES;

/// A process-unique token for record temp-file names, so concurrent runner
/// workers recording the same stream never collide.
fn next_record_token() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Where a simulation's access streams come from.
///
/// The drive is part of the simulation's identity: [`crate::runner`]
/// fingerprints include it, so a replayed run and its live twin memoize
/// separately (they produce identical results, but only the replay depends
/// on the trace directory's contents).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceDrive {
    /// Generate the synthetic trace live (the default).
    #[default]
    Synthetic,
    /// Generate live **and** tee the consumed stream to
    /// `dir/<trace file name>` (see [`Simulation::trace_file_name`]).
    Record {
        /// Directory the `.sbt` file is written into (created if missing).
        dir: PathBuf,
    },
    /// Replay `dir/<trace file name>` instead of generating.
    Replay {
        /// Directory the `.sbt` file is read from.
        dir: PathBuf,
    },
}

/// A fully configured simulation, ready to [`run`](Simulation::run).
#[derive(Debug, Clone)]
pub struct Simulation {
    cfg: SimConfig,
    workload: WorkloadKind,
    /// The co-located applications of a multi-tenant run, in tenant-id
    /// order; empty for a single-tenant simulation (the classic
    /// constructors). Built by [`Simulation::build_multi`].
    tenants: Vec<(WorkloadKind, u32)>,
    scale: ExperimentScale,
    drive: TraceDrive,
}

impl Simulation {
    /// Builds a simulation of `variant` running `workload` at the given
    /// scale, using the paper's Table II configuration for everything the
    /// scale does not override.
    pub fn build(variant: VariantKind, workload: WorkloadKind, scale: &ExperimentScale) -> Self {
        let cfg = scale.apply(SimConfig::default().with_variant(variant));
        Simulation {
            cfg,
            workload,
            tenants: Vec::new(),
            scale: *scale,
            drive: TraceDrive::Synthetic,
        }
    }

    /// Builds a simulation from an explicit configuration (for sensitivity
    /// sweeps that tweak individual knobs).
    pub fn with_config(cfg: SimConfig, workload: WorkloadKind, scale: &ExperimentScale) -> Self {
        Simulation {
            cfg,
            workload,
            tenants: Vec::new(),
            scale: *scale,
            drive: TraceDrive::Synthetic,
        }
    }

    /// Builds a **multi-tenant** simulation: each `(workload, threads)` pair
    /// is one co-located application sharing the device, running on its own
    /// slice of the scaled footprint (`scale.footprint_bytes / tenants`,
    /// page-aligned, address-shifted so tenants occupy disjoint ranges).
    /// The total thread count is the sum over tenants; everything else —
    /// cores, device sizes, per-thread budget — follows the scale exactly as
    /// in [`build`](Self::build), so tenants contend for the same device a
    /// single-tenant run would own outright.
    ///
    /// The result's [`SimResult::per_tenant`] carries one entry per pair,
    /// in order; the run-wide request, AMAT, latency, instruction and squash
    /// counters are sums over those entries.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty or any tenant has zero threads.
    pub fn build_multi(
        variant: VariantKind,
        tenants: &[(WorkloadKind, u32)],
        scale: &ExperimentScale,
    ) -> Self {
        assert!(!tenants.is_empty(), "at least one tenant required");
        assert!(
            tenants.iter().all(|(_, t)| *t > 0),
            "every tenant needs at least one thread"
        );
        let total: u32 = tenants.iter().map(|(_, t)| *t).sum();
        let cfg = scale
            .apply(SimConfig::default().with_variant(variant))
            .with_threads(total);
        Simulation {
            cfg,
            workload: tenants[0].0,
            tenants: tenants.to_vec(),
            scale: *scale,
            drive: TraceDrive::Synthetic,
        }
    }

    /// The co-located `(workload, threads)` tenants of a multi-tenant
    /// simulation (empty for single-tenant runs).
    pub fn tenants(&self) -> &[(WorkloadKind, u32)] {
        &self.tenants
    }

    /// Bytes of footprint each tenant of a multi-tenant run owns: the
    /// scaled footprint divided evenly, page-aligned, at least one page.
    pub fn tenant_slice_bytes(&self) -> u64 {
        let n = self.tenants.len().max(1) as u64;
        let page = PAGE_SIZE as u64;
        ((self.scale.footprint_bytes / n) / page * page).max(page)
    }

    /// The composed trace source of a multi-tenant run: one tenant-tagged
    /// [`WorkloadSource`] per tenant (distinct seeds so identical workloads
    /// do not phase-lock), address-shifted onto its footprint slice and
    /// stacked on the thread axis.
    fn multi_source(&self) -> Tenants {
        let slice = self.tenant_slice_bytes();
        let inputs: Vec<BoxedSource> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, (workload, threads))| {
                let spec = workload.spec().scaled_to(slice);
                let source = WorkloadSource::new(&spec, *threads, self.scale.seed + i as u64)
                    .with_tenant(TenantId(i as u32));
                if i == 0 {
                    Box::new(source) as BoxedSource
                } else {
                    Box::new(Shift::new(Box::new(source), i as u64 * slice)) as BoxedSource
                }
            })
            .collect();
        Tenants::new(inputs)
    }

    /// Returns a copy driven as `drive` (record to / replay from a trace
    /// directory instead of plain live generation).
    pub fn with_drive(mut self, drive: TraceDrive) -> Self {
        self.drive = drive;
        self
    }

    /// The trace drive of this simulation.
    pub fn drive(&self) -> &TraceDrive {
        &self.drive
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Mutable access to the configuration (tweak knobs before running).
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.cfg
    }

    /// The workload being simulated.
    pub fn workload(&self) -> WorkloadKind {
        self.workload
    }

    /// Work units each thread executes: the total amount of work is fixed
    /// per workload and scale (`accesses_per_thread` × cores), independent
    /// of how many threads it is divided among — the paper's traces
    /// "represent the same section of the program" regardless of the thread
    /// count (§VI-A).
    pub fn per_thread_budget(&self) -> u64 {
        let total_units = self.scale.accesses_per_thread * self.cfg.cpu.cores as u64;
        (total_units / self.cfg.threads as u64).max(1)
    }

    /// The canonical `.sbt` file name of this simulation's workload stream.
    ///
    /// The name covers everything the stream depends on — workload, scaled
    /// footprint, thread count, per-thread budget and seed — and nothing it
    /// does not (the design variant never influences generation), so every
    /// variant of one ablation shares a single recorded trace.
    pub fn trace_file_name(&self) -> String {
        let spec = self.scale.workload_spec(self.workload);
        format!(
            "{}-fp{}-t{}-n{}-seed{}.sbt",
            self.workload.name(),
            spec.footprint_bytes,
            self.cfg.threads,
            self.per_thread_budget(),
            self.scale.seed
        )
    }

    /// Runs the simulation to completion and returns its metrics.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the trace drive fails
    /// (missing/corrupt trace file, unwritable record directory); use
    /// [`try_run`](Self::try_run) to handle trace errors.
    pub fn run(&self) -> SimResult {
        self.try_run()
            .unwrap_or_else(|e| panic!("trace drive failed: {e}"))
    }

    /// Runs the simulation and evaluates the cross-layer conservation audit
    /// ([`crate::audit`]) against its result. A dirty report means a counter
    /// stopped conserving somewhere in the stack — the report names the
    /// violated invariants.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`run`](Self::run); the audit
    /// itself never panics (callers decide whether a violation is fatal via
    /// [`skybyte_types::AuditReport::assert_clean`]).
    pub fn audit(&self) -> (SimResult, skybyte_types::AuditReport) {
        let result = self.run();
        let report = crate::audit::audit(&result);
        (result, report)
    }

    /// Runs the simulation, materialising the trace source described by the
    /// drive: live generation, generation teed to disk, or file replay.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn try_run(&self) -> Result<SimResult, TraceError> {
        self.try_run_with_telemetry().map(|(result, _)| result)
    }

    /// [`try_run`](Self::try_run), additionally returning the telemetry
    /// captured over the run — `Some` exactly when
    /// `config().telemetry.enabled` is set. Telemetry is observe-only, so
    /// the [`SimResult`] is bit-identical either way.
    pub fn try_run_with_telemetry(
        &self,
    ) -> Result<(SimResult, Option<TelemetryOutput>), TraceError> {
        let budget = self.per_thread_budget();
        match &self.drive {
            TraceDrive::Synthetic => Ok(self.run_loop(self.live_source().as_mut(), budget)),
            TraceDrive::Record { dir } => {
                let (source, header) = self.recorded_stream()?;
                std::fs::create_dir_all(dir)?;
                let name = self.trace_file_name();
                // Concurrent runner workers may record the same (workload,
                // scale) stream for different variants; each writes a unique
                // temp file whose deterministic content is renamed over the
                // final name, so the last rename wins harmlessly.
                let tmp = dir.join(format!(".{name}.{}.tmp", next_record_token()));
                let writer = TraceWriter::create(&tmp, &header)?;
                let mut tee = Record::new(source, writer);
                let result = self.run_loop(&mut tee, budget);
                tee.finish()?;
                std::fs::rename(&tmp, dir.join(&name))?;
                Ok(result)
            }
            TraceDrive::Replay { dir } => {
                self.require_single_tenant()?;
                self.run_trace_file_with_telemetry(&dir.join(self.trace_file_name()))
            }
        }
    }

    /// Trace drives and recordings are per-stream concepts: a multi-tenant
    /// run composes its source live, so its tenants are recorded separately
    /// and stacked with `Tenants` / `trace mix` instead.
    fn require_single_tenant(&self) -> Result<(), TraceError> {
        if self.tenants.is_empty() {
            Ok(())
        } else {
            Err(TraceError::Unsupported(
                "trace drives are single-tenant; record each tenant's \
                 stream separately and compose them with `Tenants`",
            ))
        }
    }

    /// The live stream a synthetic run consumes: the workload generator, or
    /// a multi-tenant run's stacked tenants.
    fn live_source(&self) -> BoxedSource {
        if self.tenants.is_empty() {
            Box::new(self.workload_source())
        } else {
            Box::new(self.multi_source())
        }
    }

    /// The live synthetic stream of a single-tenant simulation.
    fn workload_source(&self) -> WorkloadSource {
        let spec = self.scale.workload_spec(self.workload);
        WorkloadSource::new(&spec, self.cfg.threads, self.scale.seed)
    }

    /// The stream a recording captures and the `.sbt` header describing
    /// it, shared by the [`TraceDrive::Record`] tee and
    /// [`record_trace_file`](Self::record_trace_file).
    fn recorded_stream(&self) -> Result<(WorkloadSource, TraceHeader), TraceError> {
        self.require_single_tenant()?;
        let source = self.workload_source();
        let header = TraceHeader {
            threads: self.cfg.threads,
            footprint_bytes: self.scale.workload_spec(self.workload).footprint_bytes,
            seed: self.scale.seed,
            source: source.identity(),
            // Synthetic workload recordings are single-tenant; omitting the
            // table keeps the golden corpus at format version 1,
            // byte-identical to earlier releases.
            tenant_of_thread: None,
        };
        Ok((source, header))
    }

    /// Writes the stream this simulation would consume to the `.sbt` file at
    /// `path`, without simulating: each thread's
    /// [`per_thread_budget`](Self::per_thread_budget) records of the
    /// synthetic workload, under the header a [`TraceDrive::Record`] run
    /// writes, so replaying either recording reproduces the live run.
    /// Returns the number of records written.
    pub fn record_trace_file(&self, path: &Path) -> Result<u64, TraceError> {
        let (mut source, header) = self.recorded_stream()?;
        record_to_file(&mut source, path, &header, self.per_thread_budget())
    }

    /// Replays an explicit `.sbt` file (ignoring the drive), with the trace
    /// defining the amount of work. The configuration's thread count must
    /// match the trace's stream count.
    pub fn run_trace_file(&self, path: &Path) -> Result<SimResult, TraceError> {
        self.run_trace_file_with_telemetry(path)
            .map(|(result, _)| result)
    }

    /// [`run_trace_file`](Self::run_trace_file), additionally returning the
    /// telemetry captured over the replay — `Some` exactly when
    /// `config().telemetry.enabled` is set. Every file replay, the
    /// [`TraceDrive::Replay`] drive included, goes through here.
    pub fn run_trace_file_with_telemetry(
        &self,
        path: &Path,
    ) -> Result<(SimResult, Option<TelemetryOutput>), TraceError> {
        let mut source = TraceFileSource::open(path)?;
        if source.threads() != self.cfg.threads {
            return Err(TraceError::ThreadMismatch {
                expected: self.cfg.threads,
                got: source.threads(),
            });
        }
        // The trace defines the work; no budget caps it.
        Ok(self.run_loop(&mut source, u64::MAX))
    }

    /// Runs the simulation driven by an arbitrary [`TraceSource`] whose
    /// stream count matches the configured thread count. Each thread
    /// executes at most `per_thread_budget` units (pass `u64::MAX` to let
    /// finite sources define the work).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the stream count differs
    /// from `config().threads`, or the source fails mid-run.
    pub fn run_with_source(
        &self,
        source: &mut dyn TraceSource,
        per_thread_budget: u64,
    ) -> SimResult {
        self.run_loop(source, per_thread_budget).0
    }

    /// The result's workload label and the total footprint (in pages) the
    /// SSD is preconditioned with: the single workload's spec, or the
    /// joined tenant labels and the sum of the tenant footprint slices.
    fn label_and_footprint_pages(&self) -> (String, u64) {
        if self.tenants.is_empty() {
            let spec = self.scale.workload_spec(self.workload);
            (spec.name().to_string(), spec.footprint_pages())
        } else {
            let label = self
                .tenants
                .iter()
                .map(|(w, _)| w.name())
                .collect::<Vec<_>>()
                .join("+");
            let slice_pages = (self.tenant_slice_bytes() / PAGE_SIZE as u64).max(1);
            (label, slice_pages * self.tenants.len() as u64)
        }
    }

    /// Drives the [`SystemState`] access pipeline (`crate::system`) over
    /// `source` to completion and assembles the result, beside the telemetry
    /// output when capture is enabled on the configuration.
    fn run_loop(
        &self,
        source: &mut dyn TraceSource,
        per_thread_budget: u64,
    ) -> (SimResult, Option<TelemetryOutput>) {
        let (label, footprint_pages) = self.label_and_footprint_pages();
        let mut system = self.build_system(source, per_thread_budget, footprint_pages);
        system.run(source);
        system.into_result(&label)
    }

    /// Runs the synthetic workload through the min-clock reference scan
    /// instead of the event queue: each step runs a pass on the unparked
    /// core with the lowest clock, under the same park and wake rules. The
    /// two are property-tested to produce identical results; this exists so
    /// those tests (and anyone auditing the event engine) can drive the
    /// executable specification.
    #[doc(hidden)]
    pub fn run_reference(&self) -> SimResult {
        let budget = self.per_thread_budget();
        let (label, footprint_pages) = self.label_and_footprint_pages();
        let mut source = self.live_source();
        let mut system = self.build_system(source.as_mut(), budget, footprint_pages);
        system.run_reference(source.as_mut());
        system.into_result(&label).0
    }

    fn build_system(
        &self,
        source: &mut dyn TraceSource,
        per_thread_budget: u64,
        footprint_pages: u64,
    ) -> SystemState {
        // The truncation guard counts retired work units (idle iterations
        // are free in the event engine and deliberately don't count): the
        // budgeted accesses of every thread, a 64x allowance for squashed
        // re-issues, plus slack for tiny scales.
        let max_units = self.cfg.threads as u64 * self.scale.accesses_per_thread * 64 + 1_000_000;
        SystemState::new(
            &self.cfg,
            self.scale.seed,
            source,
            per_thread_budget,
            footprint_pages,
            self.scale.precondition_fraction,
            max_units,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_types::Nanos;

    fn run(variant: VariantKind, workload: WorkloadKind) -> SimResult {
        Simulation::build(variant, workload, &ExperimentScale::tiny()).run()
    }

    #[test]
    fn every_variant_completes_on_a_sample_workload() {
        for variant in VariantKind::ALL {
            let r = run(variant, WorkloadKind::Ycsb);
            assert!(r.exec_time > Nanos::ZERO, "{variant}: zero exec time");
            assert!(r.total_accesses() > 0, "{variant}: no accesses");
            assert_eq!(r.variant, variant);
        }
    }

    #[test]
    fn dram_only_is_the_fastest_and_base_cssd_the_slowest() {
        // The Figure 2 / Figure 14 shape: DRAM-Only ≪ SkyByte-Full < Base.
        let base = run(VariantKind::BaseCssd, WorkloadKind::Bc);
        let full = run(VariantKind::SkyByteFull, WorkloadKind::Bc);
        let dram = run(VariantKind::DramOnly, WorkloadKind::Bc);
        assert!(
            dram.exec_time < full.exec_time,
            "DRAM-Only ({}) should beat SkyByte-Full ({})",
            dram.exec_time,
            full.exec_time
        );
        assert!(
            full.exec_time < base.exec_time,
            "SkyByte-Full ({}) should beat Base-CSSD ({})",
            full.exec_time,
            base.exec_time
        );
        // DRAM-only never touches the SSD.
        assert_eq!(dram.requests.ssd_read_miss, 0);
        assert_eq!(dram.requests.host, dram.total_accesses());
    }

    #[test]
    fn write_log_reduces_flash_write_traffic() {
        // The Figure 18 shape for a write-heavy workload.
        let base = run(VariantKind::BaseCssd, WorkloadKind::Tpcc);
        let w = run(VariantKind::SkyByteW, WorkloadKind::Tpcc);
        let (w_flash, base_flash) = (&w.layers.flash, &base.layers.flash);
        assert!(
            w_flash.pages_programmed < base_flash.pages_programmed,
            "write log must reduce flash programs: {} vs {}",
            w_flash.pages_programmed,
            base_flash.pages_programmed
        );
        assert!(w.layers.ssd.compactions > 0 || w_flash.pages_programmed == 0);
        assert!(w.log_index_bytes > 0);
    }

    #[test]
    fn context_switches_only_happen_with_the_mechanism_enabled() {
        let base = run(VariantKind::BaseCssd, WorkloadKind::Srad);
        let c = run(VariantKind::SkyByteC, WorkloadKind::Srad);
        assert_eq!(base.context_switches, 0);
        assert!(c.context_switches > 0, "SkyByte-C must context switch");
        assert!(c.boundedness.context_switch > Nanos::ZERO);
    }

    #[test]
    fn promotion_only_happens_with_migration_enabled() {
        let base = run(VariantKind::BaseCssd, WorkloadKind::Ycsb);
        let p = run(VariantKind::SkyByteP, WorkloadKind::Ycsb);
        assert_eq!(base.layers.migration.promotions, 0);
        assert!(
            p.layers.migration.promotions > 0,
            "SkyByte-P must promote hot pages"
        );
        assert!(p.requests.host > 0, "promoted pages must serve host hits");
    }

    #[test]
    fn migration_cadence_is_bounded_under_context_switching() {
        // SkyByte-CP squashes long accesses without classifying them; the
        // cadence counter must still advance on those, so the policy fires at
        // most once per MIGRATION_PERIOD_ACCESSES-access window.
        for workload in [WorkloadKind::Srad, WorkloadKind::Tpcc] {
            let r = run(VariantKind::SkyByteCP, workload);
            assert!(r.context_switches > 0, "{workload:?}: expected squashes");
            assert!(r.ssd_accesses > 0);
            let windows = r.ssd_accesses / MIGRATION_PERIOD_ACCESSES + 1;
            assert!(
                r.layers.migration.runs <= windows,
                "{workload:?}: migration ran {} times over {} SSD accesses \
                 (max one per {MIGRATION_PERIOD_ACCESSES}-access window)",
                r.layers.migration.runs,
                r.ssd_accesses
            );
        }
    }

    #[test]
    fn squashed_accesses_are_counted_by_the_ssd_access_counter() {
        let r = run(VariantKind::SkyByteC, WorkloadKind::Srad);
        // The classified SSD requests exclude squashed accesses, so the raw
        // counter must be at least as large.
        let classified = r.requests.ssd_read_hit + r.requests.ssd_read_miss + r.requests.ssd_write;
        assert!(r.ssd_accesses >= classified);
        assert!(
            r.context_switches == 0 || r.ssd_accesses > classified,
            "squashed accesses must show up in ssd_accesses"
        );
    }

    #[test]
    fn tiny_scale_runs_never_truncate() {
        for variant in [
            VariantKind::BaseCssd,
            VariantKind::SkyByteFull,
            VariantKind::DramOnly,
            VariantKind::AstriFlashCxl,
        ] {
            let r = run(variant, WorkloadKind::Ycsb);
            assert!(!r.truncated, "{variant}: tiny-scale run truncated");
        }
    }

    #[test]
    fn tlb_configuration_is_respected() {
        let scale = ExperimentScale::tiny();
        // A 1-entry TLB with a huge walk penalty must slow execution down
        // versus the Table II default.
        let default_cfg = scale.apply(SimConfig::default().with_variant(VariantKind::BaseCssd));
        let tiny_tlb_cfg = default_cfg.clone().with_tlb(1, Nanos::from_micros(5));
        let fast = Simulation::with_config(default_cfg, WorkloadKind::Ycsb, &scale).run();
        let slow = Simulation::with_config(tiny_tlb_cfg, WorkloadKind::Ycsb, &scale).run();
        assert!(
            slow.exec_time > fast.exec_time,
            "1-entry TLB ({}) must be slower than the default ({})",
            slow.exec_time,
            fast.exec_time
        );
    }

    #[test]
    fn record_then_replay_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!(
            "skybyte-engine-record-{}-{}",
            std::process::id(),
            line!()
        ));
        let scale = ExperimentScale::tiny().with_accesses_per_thread(120);
        let sim = Simulation::build(VariantKind::SkyByteFull, WorkloadKind::Tpcc, &scale);
        let live = sim
            .clone()
            .with_drive(TraceDrive::Record { dir: dir.clone() })
            .run();
        assert!(dir.join(sim.trace_file_name()).exists());
        let replayed = sim
            .clone()
            .with_drive(TraceDrive::Replay { dir: dir.clone() })
            .run();
        assert_eq!(live, replayed, "replay must be bit-identical to live");
        // Recording is a pure tee: it does not perturb the simulation.
        assert_eq!(sim.run(), live);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replaying_a_missing_trace_is_a_typed_error() {
        let scale = ExperimentScale::tiny();
        let sim = Simulation::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale).with_drive(
            TraceDrive::Replay {
                dir: std::path::PathBuf::from("/nonexistent/skybyte-traces"),
            },
        );
        assert!(matches!(
            sim.try_run(),
            Err(skybyte_trace::TraceError::Io(_))
        ));
    }

    #[test]
    fn trace_file_names_cover_the_stream_inputs_only() {
        let scale = ExperimentScale::tiny();
        let a = Simulation::build(VariantKind::BaseCssd, WorkloadKind::Ycsb, &scale);
        // The variant never influences generation, so variants with the
        // same thread count share a recorded trace… (SkyByte variants
        // oversubscribe threads, so they get their own stream per §VI-A)
        let cfg_b = scale
            .apply(SimConfig::default().with_variant(VariantKind::SkyByteW))
            .with_threads(a.config().threads);
        let b = Simulation::with_config(cfg_b, WorkloadKind::Ycsb, &scale);
        assert_eq!(a.trace_file_name(), b.trace_file_name());
        // …while anything the stream depends on gets its own file.
        let c = Simulation::build(VariantKind::BaseCssd, WorkloadKind::Bc, &scale);
        assert_ne!(a.trace_file_name(), c.trace_file_name());
        let d = Simulation::build(
            VariantKind::BaseCssd,
            WorkloadKind::Ycsb,
            &scale.with_accesses_per_thread(scale.accesses_per_thread + 1),
        );
        assert_ne!(a.trace_file_name(), d.trace_file_name());
    }

    #[test]
    fn build_multi_colocates_tenants_on_one_device() {
        let scale = ExperimentScale::tiny().with_accesses_per_thread(200);
        let sim = Simulation::build_multi(
            VariantKind::SkyByteFull,
            &[(WorkloadKind::Ycsb, 4), (WorkloadKind::Tpcc, 4)],
            &scale,
        );
        assert_eq!(sim.config().threads, 8);
        assert_eq!(sim.tenants().len(), 2);
        // Each tenant owns a page-aligned slice of the scaled footprint.
        let slice = sim.tenant_slice_bytes();
        assert_eq!(slice % skybyte_types::PAGE_SIZE as u64, 0);
        assert_eq!(slice, scale.footprint_bytes / 2);
        let r = sim.run();
        assert_eq!(r.workload, "ycsb+tpcc");
        assert_eq!(r.per_tenant.len(), 2);
        assert_eq!(r.per_tenant[0].tenant, TenantId(0));
        assert_eq!(r.per_tenant[1].tenant, TenantId(1));
        for t in &r.per_tenant {
            assert_eq!(t.threads, 4);
            assert!(t.accesses() > 0);
            assert!(t.finish_time > skybyte_types::Nanos::ZERO);
            assert!(t.finish_time <= r.exec_time);
        }
        // Attribution partitions the global counters.
        assert_eq!(
            r.per_tenant.iter().map(|t| t.accesses()).sum::<u64>(),
            r.requests.total()
        );
        assert_eq!(
            r.per_tenant.iter().map(|t| t.instructions).sum::<u64>(),
            r.instructions
        );
    }

    #[test]
    fn multi_tenant_runs_are_deterministic() {
        let scale = ExperimentScale::tiny().with_accesses_per_thread(150);
        let tenants = [(WorkloadKind::Ycsb, 2), (WorkloadKind::Tpcc, 2)];
        let a = Simulation::build_multi(VariantKind::SkyByteFull, &tenants, &scale).run();
        let b = Simulation::build_multi(VariantKind::SkyByteFull, &tenants, &scale).run();
        assert_eq!(a, b, "multi-tenant runs must be bit-identical");
    }

    #[test]
    fn multi_tenant_trace_drives_are_a_typed_error() {
        let scale = ExperimentScale::tiny();
        let tenants = [(WorkloadKind::Ycsb, 2), (WorkloadKind::Tpcc, 2)];
        for drive in [
            TraceDrive::Record {
                dir: std::path::PathBuf::from("/tmp/never-created"),
            },
            TraceDrive::Replay {
                dir: std::path::PathBuf::from("/tmp/never-created"),
            },
        ] {
            let sim =
                Simulation::build_multi(VariantKind::BaseCssd, &tenants, &scale).with_drive(drive);
            assert!(matches!(sim.try_run(), Err(TraceError::Unsupported(_))));
        }
        // The standalone recorder refuses too, before creating the file.
        let path = std::env::temp_dir().join("skybyte-never-created.sbt");
        let sim = Simulation::build_multi(VariantKind::BaseCssd, &tenants, &scale);
        let refused = sim.record_trace_file(&path);
        assert!(matches!(refused, Err(TraceError::Unsupported(_))) && !path.exists());
    }

    #[test]
    fn single_tenant_runs_carry_exactly_one_attribution() {
        let r = run(VariantKind::SkyByteFull, WorkloadKind::Ycsb);
        assert_eq!(r.per_tenant.len(), 1);
        let t = &r.per_tenant[0];
        assert_eq!(t.tenant, TenantId::ZERO);
        assert_eq!(t.threads, r.threads);
        assert_eq!(t.requests, r.requests);
        assert_eq!(t.amat, r.amat);
        assert_eq!(t.latency_hist, r.latency_hist);
        assert_eq!(t.ssd_accesses, r.ssd_accesses);
        assert_eq!(t.squashed_accesses, r.squashed_accesses);
        assert_eq!(t.instructions, r.instructions);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(VariantKind::SkyByteFull, WorkloadKind::Dlrm);
        let b = run(VariantKind::SkyByteFull, WorkloadKind::Dlrm);
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.layers.flash, b.layers.flash);
        assert_eq!(a.context_switches, b.context_switches);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn boundedness_is_dominated_by_memory_on_the_baseline() {
        // Figure 4: with a CXL-SSD the workloads are 77–99.8 % memory bound.
        let base = run(VariantKind::BaseCssd, WorkloadKind::BfsDense);
        assert!(
            base.boundedness.memory_fraction() > 0.6,
            "expected memory-bound execution, got {:.2}",
            base.boundedness.memory_fraction()
        );
    }

    #[test]
    fn amat_improves_with_skybyte() {
        let base = run(VariantKind::BaseCssd, WorkloadKind::Srad);
        let full = run(VariantKind::SkyByteFull, WorkloadKind::Srad);
        assert!(full.amat.amat() < base.amat.amat());
        assert!(base.amat.accesses > 0 && full.amat.accesses > 0);
    }

    #[test]
    fn custom_config_knobs_are_respected() {
        let scale = ExperimentScale::tiny();
        let mut cfg = scale.apply(
            SimConfig::default()
                .with_variant(VariantKind::SkyByteFull)
                .with_threads(4)
                .with_cores(2),
        );
        cfg.cs_threshold = Nanos::from_micros(80);
        let sim = Simulation::with_config(cfg, WorkloadKind::Radix, &scale);
        let r = sim.run();
        assert_eq!(r.threads, 4);
        assert_eq!(r.cores, 2);
        // A very high threshold suppresses almost every context switch for
        // ULL flash (only GC-blocked accesses still trigger).
        let low = Simulation::build(VariantKind::SkyByteFull, WorkloadKind::Radix, &scale).run();
        assert!(r.context_switches <= low.context_switches);
    }
}
