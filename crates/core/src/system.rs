//! The system state and access pipeline of the simulation engine.
//!
//! A run is a [`SystemState`] — every simulated component (SSD, CXL port,
//! host DRAM, scheduler, page table, TLB, migration engine, per-core clocks
//! and boundedness) plus all run counters — and a pipeline of composable
//! steps executed once per work unit:
//!
//! 1. `schedule` — ensure a thread runs on the core whose event fired, or
//!    idle the core to the next wake-up, or park it; which runnable thread
//!    an empty core picks is the run's tenant-scheduling policy
//!    (`TenantSchedKind`, matched in the `tenant_sched` module),
//! 2. `translate` — compute burst, TLB walk and page-table lookup,
//! 3. `host_access` / `ssd_access` — resolve the access in host DRAM or
//!    across the CXL port (squashing it on a `SkyByte-Delay` exception),
//!    with background migration between accesses,
//! 4. `retire` — commit the core clock and detect thread completion.
//!
//! Every instruction, access, squash and latency sample is counted against
//! the issuing thread's tenant ([`TenantMap`]), so multi-tenancy is native
//! to the pipeline rather than a post-processing pass. The run-wide figures
//! of the [`SimResult`] are folds over the per-tenant counters, taken when
//! the run closes; only the SSD access count the migration cadence reads
//! is also kept run-wide.
//!
//! Passes are sequenced by a discrete-event core (the `event` module): each
//! unparked core keeps one pending event in a slot of its own, and a core
//! with nothing runnable jumps straight to the next blocked thread's
//! wake-up. A core with nothing runnable and nothing blocked parks at its
//! clock; the next pass whose yield or thread finish changes scheduler
//! state moves it to that pass's start time and charges the gap to idle.
//! A test-only min-clock scan over the unparked cores, `run_reference`,
//! applies the same rules and is the executable specification the event
//! engine is property-tested against.

use crate::event::EventQueue;
use crate::metrics::{AmatBreakdown, LayerCounters, RequestBreakdown, SimResult, TenantCounters};
use crate::migration::{MigrationContext, MigrationEngine};
use crate::telemetry::{MetricsSample, Telemetry, TelemetryOutput, SAMPLER_CORE};
use crate::thread_exec::ThreadExecutor;
use skybyte_cache::WriteLogPartitions;
use skybyte_cpu::{Boundedness, CoreTimingModel, HostDram};
use skybyte_cxl::CxlPort;
use skybyte_os::{BlockReason, PagePlacement, PageTable, Scheduler, ThreadId, Tlb};
use skybyte_ssd::{ServedBy, SsdController};
use skybyte_types::{LatencyHistogram, Lpa, Nanos, PageNumber, SimConfig, TenantMap};
use skybyte_workloads::{TraceError, TraceRecord, TraceSource};

/// How often (in SSD accesses, squashed or not) the background migration
/// policy gets a chance to promote a page. Public so the conservation audit
/// can bound `migration_runs` per access window.
pub const MIGRATION_PERIOD_ACCESSES: u64 = 64;

/// The outcome of the scheduling step for one core.
enum Scheduled {
    /// A thread runs on the core.
    Run(ThreadId),
    /// No thread was runnable; the core idled forward to the next pending
    /// wake-up (its new clock value).
    Idle,
    /// No thread was runnable and none is blocked: every unfinished thread
    /// runs on another core, so only another core's scheduler activity can
    /// make this one useful again. The core parked at its clock.
    Park,
}

/// What one pipeline pass did, telling the event loop how to re-arm the
/// core's next event.
enum Pass {
    /// The core ran, finished a thread or idled to a known wake-up; its
    /// clock is now this value.
    Advance(Nanos),
    /// The core parked at its clock (no re-arm).
    Parked,
    /// The work-unit budget is exhausted: stop the run as truncated.
    Truncated,
    /// The trace source failed: stop the run with its error.
    Failed(TraceError),
}

/// Everything one simulation run owns: the simulated devices, the OS-side
/// models, per-core execution state and every counter the run accumulates
/// (per tenant, apart from the migration cadence's access count).
pub(crate) struct SystemState {
    cfg: SimConfig,
    // Devices and OS models.
    core_model: CoreTimingModel,
    ssd: SsdController,
    port: CxlPort,
    host_dram: HostDram,
    sched: Scheduler,
    // Windowed per-tenant write-log append accounting, maintained only for
    // the `qos` tenant scheduler (None otherwise, so the default pipeline
    // carries no extra state).
    log_partitions: Option<WriteLogPartitions>,
    page_table: PageTable,
    tlb: Tlb,
    migration: MigrationEngine,
    // Per-core and per-thread execution state.
    core_clock: Vec<Nanos>,
    boundedness: Vec<Boundedness>,
    execs: Vec<ThreadExecutor>,
    tenant_map: TenantMap,
    // Counts every SSD access, including squashed (context-switched) ones
    // that never reach the classified `requests` breakdown; the migration
    // cadence must advance on those too, otherwise a request total parked on
    // a multiple of the period would re-fire the policy on every access.
    // Kept run-wide because the cadence reads it on every access.
    ssd_accesses: u64,
    // Per-tenant attribution, indexed by dense tenant id: the only copy of
    // the instruction, request, AMAT, latency and squash counters.
    per_tenant: Vec<TenantCounters>,
    // Work accounting: `units` counts retired work units (every unit pulled
    // from an executor and pushed through the access pipeline, squashed
    // re-issues included). The truncation guard compares it against
    // `max_units` — idle iterations deliberately do not count, so the guard
    // keeps its meaning now that blocked/idle time costs O(events) instead
    // of O(ticks).
    units: u64,
    max_units: u64,
    truncated: bool,
    // Pages a record may name: the device's logical capacity, or the
    // workload footprint where a config sizes the device below it. Every
    // page-indexed structure on the access path (TLB, hotness counts, FTL
    // map) grows to the highest page it sees, so a record past this is
    // corrupt input, not a huge allocation.
    page_limit: u64,
    // Event-engine state: which cores are parked (removed from the event
    // queue because nothing can wake them until another core's scheduler
    // activity), and whether the current pass changed scheduler state
    // (a yield or a thread finish) — the signal that unparks them.
    parked: Vec<bool>,
    parked_count: usize,
    sched_dirty: bool,
    // Observe-only telemetry recorder, allocated only when enabled. Every
    // hook below is gated on this `Option`, so a disabled run pays one
    // branch per pass and nothing else.
    telemetry: Option<Telemetry>,
}

impl SystemState {
    /// Builds the full system for one run: devices from `cfg`, one executor
    /// per thread of `source` (bounded by `per_thread_budget`), the thread →
    /// tenant partition read from the source, and the SSD preconditioned
    /// with `precondition_fraction` of `footprint_pages` (§VI-A), so reads
    /// of those pages go to flash. At every shipped scale the mapped pages
    /// stay below `gc_threshold`, so garbage collection does not trigger;
    /// the golden coverage check in `crates/bench/tests/corpus.rs` lists
    /// the GC counters as zero in every golden.
    ///
    /// The caller validates `cfg` and checks the source's stream count
    /// against it (`Simulation::run_source`). A source that fails while the
    /// executors prefetch their first units returns its error.
    pub(crate) fn new(
        cfg: &SimConfig,
        seed: u64,
        source: &mut dyn TraceSource,
        per_thread_budget: u64,
        footprint_pages: u64,
        precondition_fraction: f64,
        max_units: u64,
    ) -> Result<Self, TraceError> {
        let cores = cfg.cpu.cores as usize;
        let threads = cfg.threads;

        let core_model = CoreTimingModel::new(&cfg.cpu);
        let mut ssd = SsdController::new(cfg);
        let port = CxlPort::new(cfg.ssd.cxl_protocol_latency, cfg.ssd.link_bandwidth_bps);
        let host_dram = HostDram::new(&cfg.host_dram);
        let mut sched = Scheduler::new(cfg.sched_policy, cfg.context_switch_overhead, seed);
        let page_table = PageTable::new();
        let tlb = Tlb::new(cfg.cpu.tlb.entries as usize, cfg.cpu.tlb.miss_latency);
        let migration = MigrationEngine::new(cfg);
        let tenant_map = source.tenant_map();
        let execs = (0..threads)
            .map(|t| ThreadExecutor::new(t, per_thread_budget, source))
            .collect::<Result<Vec<_>, _>>()?;
        for _ in 0..threads {
            sched.spawn();
        }

        // Precondition the SSD (§VI-A).
        if !cfg.variant.dram_only() {
            let precondition_pages =
                ((footprint_pages as f64 * precondition_fraction) as u64).min(ssd.logical_pages());
            ssd.precondition((0..precondition_pages).map(Lpa::new));
        }

        let page_limit = ssd.logical_pages().max(footprint_pages);
        let per_tenant: Vec<TenantCounters> = (0..tenant_map.tenant_count())
            .map(|i| TenantCounters {
                tenant: skybyte_types::TenantId(i as u32),
                threads: tenant_map.threads_of(skybyte_types::TenantId(i as u32)),
                ..TenantCounters::default()
            })
            .collect();

        let telemetry = cfg.telemetry.enabled.then(|| {
            Telemetry::new(
                cfg.telemetry,
                cfg.cpu.cores,
                ssd.channel_depths().len(),
                per_tenant.len(),
            )
        });

        Ok(SystemState {
            cfg: cfg.clone(),
            core_model,
            ssd,
            port,
            host_dram,
            sched,
            log_partitions: (cfg.policy.tenant_sched == skybyte_types::TenantSchedKind::Qos).then(
                || {
                    // One window per log fill: the log holds one 64-byte
                    // cacheline entry per 64 bytes of capacity.
                    WriteLogPartitions::new(
                        tenant_map.tenant_count(),
                        cfg.ssd.dram.write_log_bytes / 64,
                    )
                },
            ),
            page_table,
            tlb,
            migration,
            core_clock: vec![Nanos::ZERO; cores],
            boundedness: vec![Boundedness::default(); cores],
            execs,
            tenant_map,
            ssd_accesses: 0,
            per_tenant,
            units: 0,
            max_units,
            truncated: false,
            page_limit,
            parked: vec![false; cores],
            parked_count: 0,
            sched_dirty: false,
            telemetry,
        })
    }

    /// Runs the pipeline until every thread finished (or the work-unit
    /// budget trips, which sets the `truncated` flag on the eventual
    /// result).
    ///
    /// This is the discrete-event loop: each unparked core has exactly one
    /// pending event — the instant it next becomes actionable — in its slot
    /// of the `EventQueue`, popped in `(time, core)` order. Popping the
    /// earliest event is the pick `SystemState::run_reference`'s
    /// min-clock scan makes (lowest clock, lowest core index on ties), so
    /// the two loops run the same passes in the same order. A core with
    /// nothing runnable and nothing blocked *parks* at its clock (no event);
    /// when a pass's yield or thread finish changes scheduler state, every
    /// parked core's clock jumps to that pass's start time, the gap is
    /// charged to idle, and the core is re-armed there — see
    /// [`SystemState::unpark`]. A parked core therefore never runs past the
    /// last thread's finish; the `tenant-finish-bounded` audit invariant
    /// checks that `exec_time` is that finish. A truncated run leaves
    /// parked cores where they parked.
    pub(crate) fn run(&mut self, source: &mut dyn TraceSource) -> Result<(), TraceError> {
        let mut queue = EventQueue::new(self.core_clock.len());
        for c in 0..self.core_clock.len() {
            queue.push(self.core_clock[c], c as u32);
        }
        // The telemetry sampler rides the same queue in a slot of its own,
        // re-armed at its cadence. It cannot reorder real events: it pops
        // after every real core at an equal timestamp, so the sampler
        // observes the state *after* all passes at that instant.
        let sample_interval = self
            .telemetry
            .as_ref()
            .map(|tel| tel.config().sample_interval);
        if let Some(interval) = sample_interval {
            queue.push(interval, SAMPLER_CORE);
        }
        while !self.sched.all_finished() {
            let ev = queue
                .pop()
                .expect("event queue starved with unfinished threads");
            if ev.core == SAMPLER_CORE {
                // Keep the starvation failure loud: with every real core
                // parked the sampler would otherwise spin the loop forever.
                assert!(
                    self.parked_count < self.core_clock.len(),
                    "event queue starved with unfinished threads"
                );
                let sample = self.collect_sample(ev.time);
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.record_sample(sample);
                }
                let interval = sample_interval.expect("sampler events imply a cadence");
                queue.push(ev.time + interval, SAMPLER_CORE);
                continue;
            }
            let core = ev.core as usize;
            debug_assert_eq!(ev.time, self.core_clock[core]);
            match self.pass(core, ev.time, source) {
                Pass::Advance(next) => {
                    queue.push(next, ev.core);
                }
                Pass::Parked => {}
                Pass::Truncated => {
                    self.truncated = true;
                    break;
                }
                Pass::Failed(e) => return Err(e),
            }
            if std::mem::take(&mut self.sched_dirty) {
                self.unpark(ev.time, Some(&mut queue));
            }
        }
        Ok(())
    }

    /// The executable specification the event-driven [`SystemState::run`]
    /// is property-tested against: each step scans the unparked cores'
    /// clocks and runs a pass on the lowest (lowest index on ties), with
    /// the same park and wake rules. Both loops share
    /// [`SystemState::pass`] and [`SystemState::unpark`], so what this pins
    /// is exactly the event queue's ordering.
    #[cfg(test)]
    pub(crate) fn run_reference(&mut self, source: &mut dyn TraceSource) -> Result<(), TraceError> {
        while !self.sched.all_finished() {
            let core = (0..self.core_clock.len())
                .filter(|&c| !self.parked[c])
                .min_by_key(|&c| self.core_clock[c])
                .expect("every core parked with unfinished threads");
            let now = self.core_clock[core];
            match self.pass(core, now, source) {
                Pass::Truncated => {
                    self.truncated = true;
                    break;
                }
                Pass::Failed(e) => return Err(e),
                Pass::Advance(_) | Pass::Parked => {}
            }
            if std::mem::take(&mut self.sched_dirty) {
                self.unpark(now, None);
            }
        }
        Ok(())
    }

    /// One pipeline pass over `core` at time `now`: schedule, pull a unit,
    /// translate, access (host or SSD), retire.
    fn pass(&mut self, core: usize, now: Nanos, source: &mut dyn TraceSource) -> Pass {
        let tid = match self.schedule(core, now) {
            Scheduled::Run(tid) => tid,
            Scheduled::Idle => return Pass::Advance(self.core_clock[core]),
            Scheduled::Park => return Pass::Parked,
        };

        let unit = match self.execs[tid.0 as usize].next_unit(source) {
            Ok(Some(u)) => u,
            Ok(None) => {
                self.finish_thread(tid, now);
                return Pass::Advance(now);
            }
            Err(e) => return Pass::Failed(e),
        };
        if unit.access.addr.page().index() >= self.page_limit {
            return Pass::Failed(TraceError::Corrupt(
                "record address lies past the device's logical capacity",
            ));
        }

        if self.units >= self.max_units {
            return Pass::Truncated;
        }
        self.units += 1;

        let (t, placement) = self.translate(core, tid, &unit, now);
        let t = match placement {
            PagePlacement::HostDram(_) => self.host_access(core, tid, &unit, t),
            PagePlacement::CxlSsd(lpa) => self.ssd_access(core, tid, unit, lpa, t),
        };
        if let Some(tel) = self.telemetry.as_mut() {
            tel.thread_pass(core, tid.0, now, t);
        }
        self.retire(core, tid, t);
        Pass::Advance(t)
    }

    /// Wakes every parked core after a pass that started at `pass_time`
    /// changed scheduler state (a yield or a thread finish): each parked
    /// core's clock jumps to `pass_time`, the gap is charged to its idle
    /// boundedness, and the event loop re-arms it at `pass_time`.
    fn unpark(&mut self, pass_time: Nanos, mut queue: Option<&mut EventQueue>) {
        for core in 0..self.parked.len() {
            if !self.parked[core] {
                continue;
            }
            self.parked[core] = false;
            self.parked_count -= 1;
            self.boundedness[core].idle += pass_time.since(self.core_clock[core]);
            self.core_clock[core] = pass_time;
            if let Some(q) = queue.as_deref_mut() {
                q.push(pass_time, core as u32);
            }
        }
    }

    /// Scheduling step: make sure a thread runs on `core`, idle the core
    /// forward to the next wake-up, or park it at its clock when nothing is
    /// blocked either.
    fn schedule(&mut self, core: usize, now: Nanos) -> Scheduled {
        match self.sched.running_on(core as u32) {
            Some(t) => Scheduled::Run(t),
            None => match crate::tenant_sched::schedule_on(
                self.cfg.policy.tenant_sched,
                &mut self.sched,
                core as u32,
                now,
                &self.tenant_map,
                &self.per_tenant,
                self.log_partitions.as_ref(),
            ) {
                Some(t) => Scheduled::Run(t),
                None => match self.sched.next_wakeup() {
                    // Nothing runnable: idle until the next wake-up, which
                    // is always later than `now` (scheduling unblocked every
                    // expired one), but by at least the modelled 100 ns
                    // minimum idle step. Results depend on that floor.
                    Some(w) => {
                        let wake = w.max(now + Nanos::new(100));
                        self.boundedness[core].idle += wake - now;
                        self.core_clock[core] = wake;
                        Scheduled::Idle
                    }
                    // Nothing runnable and nothing blocked either — every
                    // unfinished thread runs on another core. Park here
                    // until another core's scheduler activity wakes this
                    // one (see `unpark`).
                    None => {
                        self.parked[core] = true;
                        self.parked_count += 1;
                        Scheduled::Park
                    }
                },
            },
        }
    }

    /// Translation step: account the compute burst, walk the TLB and
    /// resolve the page's placement through the OS page table. Returns the
    /// time the access issues and where it goes.
    fn translate(
        &mut self,
        core: usize,
        tid: ThreadId,
        unit: &TraceRecord,
        now: Nanos,
    ) -> (Nanos, PagePlacement) {
        let tenant = self.tenant_map.tenant_of(tid.0).index();

        // Compute burst.
        let compute = self.core_model.compute_time(unit.instructions);
        self.per_tenant[tenant].instructions += unit.instructions;
        self.boundedness[core].compute += compute;
        self.sched.account_runtime(tid, compute);
        let mut t = now + compute;

        // Address translation.
        let vpage = unit.access.addr.page();
        let walk = self.tlb.access(vpage);
        self.boundedness[core].memory += walk;
        t += walk;
        let placement = if self.cfg.variant.dram_only() {
            PagePlacement::HostDram(PageNumber(vpage.index()))
        } else {
            self.page_table.translate(vpage)
        };
        (t, placement)
    }

    /// Host-DRAM access step: the page is host-resident (or the run models
    /// infinite host DRAM); the access resolves locally and feeds the
    /// migration engine's recency state.
    fn host_access(&mut self, core: usize, tid: ThreadId, unit: &TraceRecord, t: Nanos) -> Nanos {
        let tenant = self.tenant_map.tenant_of(tid.0).index();
        let vpage = unit.access.addr.page();
        let done = self.host_dram.access(t);
        let latency = done - t;
        let stall = self.core_model.effective_stall(latency);
        self.boundedness[core].memory += stall;
        self.sched.account_runtime(tid, stall);
        let t = t + stall;
        let counters = &mut self.per_tenant[tenant];
        counters.amat.host_dram += latency;
        counters.amat.accesses += 1;
        counters.requests.host += 1;
        counters.latency_hist.record(latency);
        if !self.cfg.variant.dram_only() {
            self.migration.record_host_access(Lpa::new(vpage.index()));
        }
        t
    }

    /// SSD access step: the access crosses the CXL port to the controller.
    /// A `SkyByte-Delay` hint (with the coordinated context switch enabled)
    /// squashes the access and yields the core; otherwise the access
    /// retires with its full latency classified and attributed. Background
    /// migration runs on its access-count cadence either way.
    fn ssd_access(
        &mut self,
        core: usize,
        tid: ThreadId,
        unit: TraceRecord,
        lpa: Lpa,
        t: Nanos,
    ) -> Nanos {
        let tenant = self.tenant_map.tenant_of(tid.0).index();
        let mut t = t;
        self.ssd_accesses += 1;
        self.per_tenant[tenant].ssd_accesses += 1;
        let cl = unit.access.addr.cacheline_in_page() as u8;
        let arrival = self.port.deliver_request(t);
        // Snapshot the device-activity counters the timeline derives its
        // compaction/GC windows from (deltas across the handle call).
        let device_before = self.telemetry.as_ref().map(|_| {
            (
                self.ssd.stats().compactions,
                self.ssd.ftl_stats().gc_campaigns,
            )
        });
        let appends_before = (self.log_partitions.is_some() && unit.access.kind.is_write())
            .then(|| self.ssd.stats().write_log_appends);
        let outcome = if unit.access.kind.is_write() {
            self.ssd.handle_write(lpa, cl, arrival)
        } else {
            self.ssd.handle_read(lpa, cl, arrival)
        };
        if let Some(before) = appends_before {
            let delta = self.ssd.stats().write_log_appends - before;
            if let Some(parts) = self.log_partitions.as_mut() {
                for _ in 0..delta {
                    parts.note_append(tenant);
                }
            }
        }
        self.migration.record_ssd_access(lpa, t);
        if let Some((compactions_before, gc_before)) = device_before {
            let compactions = self.ssd.stats().compactions;
            let gc = self.ssd.ftl_stats().gc_campaigns;
            let until = self.ssd.compaction_active_until();
            if let Some(tel) = self.telemetry.as_mut() {
                if compactions > compactions_before {
                    tel.compaction_window(arrival, until, compactions - compactions_before);
                }
                if gc > gc_before {
                    tel.gc_campaign(arrival, gc - gc_before);
                }
            }
        }
        // The controller only hints when the variant context-switches.
        if !outcome.delay_hint {
            // Squashed accesses are excluded; their replays are classified
            // when they retire (§VI-D).
            let requests = &mut self.per_tenant[tenant].requests;
            if unit.access.kind.is_write() {
                requests.ssd_write += 1;
            } else if outcome.served_by == ServedBy::Flash {
                requests.ssd_read_miss += 1;
            } else {
                requests.ssd_read_hit += 1;
            }
        }

        if outcome.delay_hint {
            // Long Delay Exception: squash, block, switch.
            let counters = &mut self.per_tenant[tenant];
            counters.squashed_accesses += 1;
            counters.context_switches += 1;
            let cs = self.cfg.context_switch_overhead;
            self.boundedness[core].context_switch += cs;
            self.execs[tid.0 as usize].push_back(unit);
            // The hint carries the fill's scheduled completion: the thread
            // wakes when the data is in SSD DRAM.
            let wake = outcome.ready_at;
            if let Some(tel) = self.telemetry.as_mut() {
                tel.context_switch(core, t, tid.0, wake);
            }
            self.sched
                .yield_current(core as u32, t, wake, BlockReason::LongSsdAccess);
            // The yield changed scheduler state (a thread became blocked or
            // runnable): parked cores may have something to react to.
            self.sched_dirty = true;
            t += cs;
            // The squashed access is excluded from AMAT (§VI-D).
        } else {
            let response = if unit.access.kind.is_write() {
                // A write completion carries no payload back to the host;
                // it is a response, not a new request.
                self.port.deliver_response(outcome.ready_at)
            } else {
                self.port.deliver_cacheline(outcome.ready_at)
            };
            // Monotone by construction (the port never answers before the
            // request); `since` fails loudly if an accounting bug ever
            // breaks that, instead of the old `saturating_sub` masking it
            // as a zero latency.
            let latency = response.since(t);
            let stall = self.core_model.effective_stall(latency);
            self.boundedness[core].memory += stall;
            self.sched.account_runtime(tid, stall);
            t += stall;
            let cxl = self.cfg.ssd.cxl_protocol_latency * 2;
            let counters = &mut self.per_tenant[tenant];
            counters.amat.cxl_protocol += cxl;
            counters.amat.indexing += outcome.breakdown.indexing;
            counters.amat.ssd_dram += outcome.breakdown.ssd_dram;
            counters.amat.flash += outcome.breakdown.flash;
            counters.amat.accesses += 1;
            counters.latency_hist.record(latency);

            if outcome.served_by == ServedBy::Flash {
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.flash_window(
                        unit.access.kind.is_write(),
                        arrival,
                        outcome.ready_at,
                        outcome.breakdown.indexing,
                        outcome.breakdown.ssd_dram,
                        outcome.breakdown.flash,
                    );
                }
                let mut ctx = MigrationContext {
                    ssd: &mut self.ssd,
                    page_table: &mut self.page_table,
                    tlb: &mut self.tlb,
                    port: &mut self.port,
                    host_dram: &mut self.host_dram,
                };
                self.migration.on_demand_fill(lpa, t, &mut ctx);
            }
        }

        if self.migration.enabled() && self.ssd_accesses.is_multiple_of(MIGRATION_PERIOD_ACCESSES) {
            let migration_before = self.telemetry.as_ref().map(|_| {
                let s = self.migration.stats();
                (s.promotions, s.demotions)
            });
            let mut ctx = MigrationContext {
                ssd: &mut self.ssd,
                page_table: &mut self.page_table,
                tlb: &mut self.tlb,
                port: &mut self.port,
                host_dram: &mut self.host_dram,
            };
            self.migration.run(t, &mut ctx);
            if let Some((promoted_before, demoted_before)) = migration_before {
                let s = self.migration.stats();
                let (promoted, demoted) =
                    (s.promotions - promoted_before, s.demotions - demoted_before);
                if promoted > 0 || demoted > 0 {
                    if let Some(tel) = self.telemetry.as_mut() {
                        tel.migration_event(t, promoted, demoted);
                    }
                }
            }
        }
        t
    }

    /// Retire step: commit the core's clock and finish the thread if its
    /// stream is exhausted.
    fn retire(&mut self, core: usize, tid: ThreadId, t: Nanos) {
        self.core_clock[core] = t;
        if self.execs[tid.0 as usize].is_finished()
            && self.sched.running_on(core as u32) == Some(tid)
        {
            self.finish_thread(tid, t);
        }
    }

    /// Marks `tid` finished and records the instant against its tenant's
    /// completion time (the per-tenant slowdown metric of the interference
    /// experiments).
    fn finish_thread(&mut self, tid: ThreadId, at: Nanos) {
        self.sched.finish_thread(tid);
        // Scheduler state changed: a finish can end the run, so parked
        // cores wake at this pass's start time and account idle up to it.
        self.sched_dirty = true;
        let counters = &mut self.per_tenant[self.tenant_map.tenant_of(tid.0).index()];
        counters.finish_time = counters.finish_time.max(at);
    }

    /// Snapshots the observable state into one telemetry metrics sample.
    /// Strictly read-only: this is the periodic sampler's handler body and
    /// must never perturb the simulation.
    fn collect_sample(&self, now: Nanos) -> MetricsSample {
        let cores_running = (0..self.core_clock.len())
            .filter(|&c| self.sched.running_on(c as u32).is_some())
            .count() as u64;
        let runnable_threads = self.sched.runnable_count() as u64;
        let unfinished = self.sched.unfinished_threads() as u64;
        let (write_log_entries, write_log_capacity) =
            self.ssd.write_log_occupancy().unwrap_or((0, 0));
        let cache = self.ssd.data_cache_stats();
        let migration = self.migration.stats();
        MetricsSample {
            time: now,
            cores_running: cores_running as u32,
            cores_parked: self.parked_count as u32,
            runnable_threads,
            blocked_threads: unfinished.saturating_sub(runnable_threads + cores_running),
            channel_depths: self
                .ssd
                .channel_depths()
                .into_iter()
                .map(|d| d as u64)
                .collect(),
            inflight_fills: self.ssd.inflight_fill_count() as u64,
            write_log_entries,
            write_log_capacity,
            write_log_draining: self.ssd.compaction_active(now),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            window_hit_rate: 0.0, // derived by the recorder per window
            pages_promoted: migration.promotions,
            pages_demoted: migration.demotions,
            migration_runs: migration.runs,
            compactions: self.ssd.stats().compactions,
            gc_campaigns: self.ssd.ftl_stats().gc_campaigns,
            flash_pages_programmed: self.ssd.flash_stats().pages_programmed,
            flash_pages_read: self.ssd.flash_stats().pages_read,
            ssd_reads: self.ssd.stats().reads,
            ssd_writes: self.ssd.stats().writes,
            write_log_appends: self.ssd.stats().write_log_appends,
            cxl_requests: self.port.stats().requests,
            ssd_accesses: self.ssd_accesses,
            squashed_accesses: self.per_tenant.iter().map(|t| t.squashed_accesses).sum(),
            context_switches: self.sched.stats().context_switches,
            per_tenant_accesses: self
                .per_tenant
                .iter()
                .map(|t| t.ssd_accesses + t.requests.host)
                .collect(),
        }
    }

    /// Closes the run: samples the busy-time windows, flushes all dirty
    /// device state, snapshots every layer's counters (including the CXL
    /// port) and assembles the [`SimResult`] labelled `workload_label`,
    /// beside the telemetry captured over the run (when enabled).
    ///
    /// The final cumulative telemetry sample is taken at `exec_time`
    /// *after* the end-of-run flush, beside the `layers` snapshot, so the
    /// `telemetry-final-agreement` audit invariant can tie the two exactly.
    /// Telemetry never lives on the [`SimResult`] itself — results stay
    /// bit-identical (and goldens unchanged) whether or not capture was on.
    pub(crate) fn into_result(
        mut self,
        workload_label: &str,
    ) -> (SimResult, Option<TelemetryOutput>) {
        let exec_time = self
            .core_clock
            .iter()
            .copied()
            .fold(Nanos::ZERO, Nanos::max);
        // Busy-time figures describe the measured window [0, exec_time], so
        // they are sampled *before* the end-of-run flush: service committed
        // to a still-draining backlog (and the flush traffic itself) must
        // not inflate utilisation past the window's physical capacity.
        let flash_busy_time = self.ssd.flash_busy_time_within(exec_time);
        let compaction_time = self.ssd.compaction_time_within(exec_time);
        // Flush all dirty state (cached dirty pages / the write log) so the
        // flash write traffic of page-granular and log-structured designs
        // is compared on equal footing.
        self.ssd.flush_all(exec_time);
        let mut total_boundedness = Boundedness::default();
        for b in &self.boundedness {
            total_boundedness.merge(b);
        }

        // Raw per-layer counters, snapshot after the flush so they describe
        // the complete run (the conservation laws only close once every
        // dirty page and log entry has reached flash).
        let layers = LayerCounters {
            cxl: *self.port.stats(),
            ssd: self.ssd.stats(),
            flash: *self.ssd.flash_stats(),
            ftl: *self.ssd.ftl_stats(),
            write_log: self.ssd.write_log_stats().copied(),
            write_log_resident_entries: self.ssd.write_log_resident_entries().unwrap_or(0),
            migration: *self.migration.stats(),
        };

        let telemetry = self.telemetry.take().map(|tel| {
            let final_sample = self.collect_sample(exec_time);
            tel.finish(final_sample)
        });

        // The run-wide figures are folds over the per-tenant counters (the
        // histogram merge is exact, so the result matches recording every
        // sample into one histogram).
        let mut amat = AmatBreakdown::default();
        let mut requests = RequestBreakdown::default();
        let mut latency_hist = LatencyHistogram::new();
        for t in &self.per_tenant {
            amat.merge(&t.amat);
            requests.merge(&t.requests);
            latency_hist.merge(&t.latency_hist);
        }
        let result = SimResult {
            variant: self.cfg.variant,
            policy: self.cfg.policy,
            workload: workload_label.to_string(),
            threads: self.cfg.threads,
            cores: self.cfg.cpu.cores,
            exec_time,
            instructions: self.per_tenant.iter().map(|t| t.instructions).sum(),
            boundedness: total_boundedness,
            amat,
            requests,
            latency_hist,
            context_switches: self.sched.stats().context_switches,
            compaction_time,
            log_index_bytes: self.ssd.write_log_index_bytes().unwrap_or(0),
            flash_busy_time,
            flash_channels: self.cfg.ssd.geometry.channels,
            ssd_accesses: self.ssd_accesses,
            squashed_accesses: self.per_tenant.iter().map(|t| t.squashed_accesses).sum(),
            truncated: self.truncated,
            layers,
            per_tenant: self.per_tenant,
        };
        (result, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_trace::VecSource;
    use skybyte_types::{TenantId, VariantKind};
    use skybyte_workloads::TraceRecord;

    fn tiny_cfg(threads: u32, cores: u32) -> SimConfig {
        let scale = crate::scale::ExperimentScale::tiny();
        let mut cfg = scale
            .apply(SimConfig::default().with_variant(VariantKind::SkyByteC))
            .with_threads(threads);
        cfg.cpu.cores = cores;
        cfg
    }

    fn build(cfg: &SimConfig, source: &mut dyn TraceSource, budget: u64) -> SystemState {
        SystemState::new(cfg, 7, source, budget, 1024, 0.8, 1_000_000).unwrap()
    }

    #[test]
    fn idle_core_advances_to_the_next_wakeup_and_accounts_idle_time() {
        let mut source = VecSource::new("idle", vec![vec![TraceRecord::read(5, 0)]]);
        let cfg = tiny_cfg(1, 1);
        let mut sys = build(&cfg, &mut source, u64::MAX);
        // Block the only thread far in the future, then ask the core for
        // work: the scheduler has nothing runnable, so the core must idle
        // exactly to the wake-up instant — not spin at `now`.
        let tid = sys.sched.schedule_on(0, Nanos::ZERO).expect("runnable");
        let wake = Nanos::from_micros(50);
        sys.sched
            .yield_current(0, Nanos::ZERO, wake, BlockReason::LongSsdAccess);
        assert!(matches!(sys.schedule(0, Nanos::ZERO), Scheduled::Idle));
        assert_eq!(sys.core_clock[0], wake);
        assert_eq!(sys.boundedness[0].idle, wake);
        // At the wake-up the thread is runnable again.
        match sys.schedule(0, wake) {
            Scheduled::Run(t) => assert_eq!(t, tid),
            Scheduled::Idle | Scheduled::Park => panic!("thread must wake at its wake-up time"),
        }
    }

    #[test]
    fn idle_core_with_nothing_blocked_parks_at_its_clock_until_woken() {
        // One thread, two cores: while the thread runs on core 0, core 1 has
        // nothing runnable and nothing blocked, so it parks where it is.
        let mut source = VecSource::new("park", vec![vec![TraceRecord::read(5, 0)]]);
        let cfg = tiny_cfg(1, 2);
        let mut sys = build(&cfg, &mut source, u64::MAX);
        assert!(matches!(sys.schedule(0, Nanos::ZERO), Scheduled::Run(_)));
        let clock = Nanos::new(300);
        sys.core_clock[1] = clock;
        assert!(matches!(sys.schedule(1, clock), Scheduled::Park));
        assert_eq!(sys.core_clock[1], clock);
        assert_eq!(sys.boundedness[1].idle, Nanos::ZERO);
        assert_eq!(sys.parked_count, 1);
        // A later pass's scheduler activity wakes it at that pass's time,
        // charging exactly the gap to idle.
        let t = Nanos::from_micros(2);
        sys.unpark(t, None);
        assert_eq!(sys.core_clock[1], t);
        assert_eq!(sys.boundedness[1].idle, t - clock);
        assert_eq!(sys.parked_count, 0);
    }

    #[test]
    fn idle_advance_is_never_smaller_than_the_minimum_step() {
        // A wake-up in the immediate past must not produce an idle advance
        // below the modelled 100 ns minimum idle step.
        let mut source = VecSource::new("spin", vec![vec![TraceRecord::read(5, 0)]]);
        let cfg = tiny_cfg(1, 1);
        let mut sys = build(&cfg, &mut source, u64::MAX);
        let _ = sys.sched.schedule_on(0, Nanos::ZERO).expect("runnable");
        sys.sched
            .yield_current(0, Nanos::ZERO, Nanos::new(1), BlockReason::LongSsdAccess);
        // Pretend the core clock already passed the wake-up: schedule_on
        // unblocks the thread, so force the idle path by blocking again
        // after consuming the wake-up.
        sys.core_clock[0] = Nanos::new(1_000);
        let tid = sys.sched.schedule_on(0, Nanos::new(1_000)).expect("woken");
        sys.sched.yield_current(
            0,
            Nanos::new(1_000),
            Nanos::new(900), // wake-up already in the past relative to now
            BlockReason::LongSsdAccess,
        );
        // The thread is immediately runnable again (wake <= now), so the
        // core keeps running it rather than idling — no spin either way.
        match sys.schedule(0, Nanos::new(1_000)) {
            Scheduled::Run(t) => assert_eq!(t, tid),
            Scheduled::Idle | Scheduled::Park => {
                assert!(sys.core_clock[0] >= Nanos::new(1_100));
            }
        }
    }

    #[test]
    fn fully_blocked_single_core_run_lands_idle_time_in_boundedness() {
        // End to end: SkyByte-C on one core with one thread squashes long
        // accesses; while the thread is blocked the core has nothing to run
        // and must account genuine idle time (not spin the step counter).
        let scale = crate::scale::ExperimentScale::tiny().with_accesses_per_thread(100);
        let mut cfg = scale
            .apply(SimConfig::default().with_variant(VariantKind::SkyByteC))
            .with_threads(1);
        cfg.cpu.cores = 1;
        let sim = crate::engine::Simulation::with_config(
            cfg,
            skybyte_workloads::WorkloadKind::Srad,
            &scale,
        );
        let r = sim.run();
        assert!(!r.truncated, "a blocked core must advance, not spin");
        assert!(r.context_switches > 0, "squashes expected under SkyByte-C");
        assert!(
            r.boundedness.idle > Nanos::ZERO,
            "blocked-core time must land in Boundedness::idle"
        );
    }

    #[test]
    fn tenant_counters_are_attributed_by_thread() {
        // Two threads of two different tenants via a stacked source: every
        // counter must land on the issuing thread's tenant.
        use skybyte_trace::{BoxedSource, Tenants};
        let a: BoxedSource = Box::new(VecSource::new(
            "a",
            vec![(0..40).map(|i| TraceRecord::read(5, i * 64)).collect()],
        ));
        let b: BoxedSource = Box::new(VecSource::new(
            "b",
            vec![(0..10)
                .map(|i| TraceRecord::write(5, 4096 + i * 64))
                .collect()],
        ));
        let mut stacked = Tenants::new(vec![a, b]);
        let scale = crate::scale::ExperimentScale::tiny();
        let mut cfg = scale
            .apply(SimConfig::default().with_variant(VariantKind::BaseCssd))
            .with_threads(2);
        cfg.cpu.cores = 2;
        let mut sys =
            SystemState::new(&cfg, 7, &mut stacked, u64::MAX, 1024, 0.8, 1_000_000).unwrap();
        sys.run(&mut stacked).unwrap();
        let (r, _) = sys.into_result("stacked");
        assert_eq!(r.per_tenant.len(), 2);
        assert_eq!(r.per_tenant[0].tenant, TenantId(0));
        assert_eq!(r.per_tenant[1].tenant, TenantId(1));
        assert_eq!(r.per_tenant[0].threads, 1);
        assert_eq!(r.per_tenant[0].requests.total(), 40);
        assert_eq!(r.per_tenant[1].requests.total(), 10);
        // Tenant 0 only reads, tenant 1 only writes.
        assert_eq!(r.per_tenant[0].requests.ssd_write, 0);
        assert_eq!(
            r.per_tenant[1].requests.ssd_write + r.per_tenant[1].requests.host,
            10
        );
        // Sums close against the global counters.
        assert_eq!(
            r.per_tenant.iter().map(|t| t.requests.total()).sum::<u64>(),
            r.requests.total()
        );
        assert_eq!(
            r.per_tenant.iter().map(|t| t.ssd_accesses).sum::<u64>(),
            r.ssd_accesses
        );
        assert!(r.per_tenant.iter().all(|t| t.finish_time <= r.exec_time));
        assert!(r.per_tenant.iter().all(|t| t.finish_time > Nanos::ZERO));
    }

    #[test]
    fn parked_cores_match_the_reference_engine_bit_for_bit() {
        // More cores than threads: whenever the sole thread is running,
        // every other core has nothing runnable and no wake-up to sleep to,
        // so both loops park it. The reference scan skips parked cores; the
        // event engine drops their events. Each wakes them at the pass that
        // yields or finishes the thread. The results — including idle
        // boundedness and exec time, which see every park and wake — must
        // agree exactly.
        let scale = crate::scale::ExperimentScale::tiny().with_accesses_per_thread(300);
        for variant in [VariantKind::BaseCssd, VariantKind::SkyByteFull] {
            let mut cfg = scale
                .apply(SimConfig::default().with_variant(variant))
                .with_threads(1);
            cfg.cpu.cores = 4;
            let workload = skybyte_workloads::WorkloadKind::Ycsb;
            let event = crate::engine::Simulation::with_config(cfg.clone(), workload, &scale).run();
            let reference =
                crate::engine::Simulation::with_config(cfg, workload, &scale).run_reference();
            assert!(
                event.boundedness.idle > Nanos::ZERO,
                "a 4-core/1-thread run must accumulate idle time"
            );
            assert_eq!(event, reference);
        }
    }

    mod event_vs_reference {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            // The event-driven engine and the min-clock reference scan
            // must agree on the complete result — every counter, clock and
            // histogram bucket — across random design points: this is what
            // pins that the queue + parking machinery reorders nothing
            // observable.
            #[test]
            fn event_engine_is_result_identical_to_the_reference(
                variant_idx in 0usize..5,
                workload_idx in 0usize..3,
                threads in 1u32..6,
                cores in 1u32..5,
                seed in 0u64..1_000_000,
            ) {
                let variant = [
                    VariantKind::BaseCssd,
                    VariantKind::SkyByteC,
                    VariantKind::SkyByteFull,
                    VariantKind::DramOnly,
                    VariantKind::SkyByteCT,
                ][variant_idx];
                let workload = [
                    skybyte_workloads::WorkloadKind::Tpcc,
                    skybyte_workloads::WorkloadKind::Ycsb,
                    skybyte_workloads::WorkloadKind::Srad,
                ][workload_idx];
                let mut scale =
                    crate::scale::ExperimentScale::tiny().with_accesses_per_thread(120);
                scale.seed = seed;
                let mut cfg = scale
                    .apply(SimConfig::default().with_variant(variant))
                    .with_threads(threads);
                cfg.cpu.cores = cores;
                let event = crate::engine::Simulation::with_config(cfg.clone(), workload, &scale)
                    .run();
                let reference = crate::engine::Simulation::with_config(cfg, workload, &scale)
                    .run_reference();
                prop_assert_eq!(event, reference);
            }
        }
    }
}
