//! Observe-only simulated-time telemetry: periodic metric sampling and a
//! Chrome trace-event timeline.
//!
//! Every number the simulator otherwise emits is an end-of-run aggregate
//! ([`crate::metrics::SimResult`]); this module adds the time axis. Two
//! capture mechanisms share one recorder (the crate-private `Telemetry`),
//! armed by [`skybyte_types::TelemetryConfig`] on the simulation config:
//!
//! * a **periodic sampler** — a self-re-enqueuing sentinel event in the
//!   discrete-event queue (core id [`u32::MAX`], so it retires *after* every
//!   real core at an equal timestamp) snapshots queue depths, occupancy and
//!   cumulative counters into a [`MetricsLog`] at a configurable
//!   simulated-time cadence;
//! * a **span/instant layer** — pipeline hooks record per-core
//!   thread-execution slices, flash command service windows, compaction/GC
//!   windows, migrations and context switches as fixed-size
//!   [`TimelineEvent`]s into a [`Timeline`] that renders as Chrome
//!   trace-event JSON (loadable in Perfetto or `chrome://tracing`).
//!
//! Telemetry is strictly **observe-only**: the sampler handler reads state
//! but never mutates it, every hook fires on values the pipeline already
//! computed, and the extra queue events cannot reorder real events (each
//! core has at most one pending event, so `(time, core)` already totally
//! orders them and the sentinel core sorts last). The golden-trace corpus
//! verifies bit-identical with telemetry enabled, and the run fingerprint
//! renders every request's telemetry at its default
//! ([`RunRequest::from_simulation`](crate::runner::RunRequest::from_simulation)),
//! so memoised runners never split on it. The flip side:
//! a memoised run that was *served from* the memo table executed without
//! telemetry injected and therefore produces no telemetry output.

use skybyte_types::{Nanos, TelemetryConfig};
use std::fmt::{self, Write as _};

/// The sentinel "core" id carried by the periodic sampler's event. The
/// event queue pops it after every real core's event at an equal
/// timestamp, so the sampler observes the state *after* every real core's
/// pass at that instant.
pub const SAMPLER_CORE: u32 = u32::MAX;

/// One row of the periodic metrics time series: instantaneous gauges
/// (queue depths, occupancy, core states) plus the cumulative counters the
/// final-sample agreement invariant ties against `SimResult.layers`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSample {
    /// Simulated instant the sample was taken.
    pub time: Nanos,
    /// Cores currently executing a thread.
    pub cores_running: u32,
    /// Cores parked by the event engine (nothing runnable, no wake-up).
    pub cores_parked: u32,
    /// Threads runnable but not running.
    pub runnable_threads: u64,
    /// Threads blocked on a wake-up (unfinished − runnable − running).
    pub blocked_threads: u64,
    /// Per-channel flash queue depths (commands accepted, not yet retired).
    pub channel_depths: Vec<u64>,
    /// On-demand cache fills in flight at the controller.
    pub inflight_fills: u64,
    /// Entries resident in the write log's active buffer (0 if disabled).
    pub write_log_entries: u64,
    /// Entry capacity of the write log (0 if disabled).
    pub write_log_capacity: u64,
    /// Whether a log compaction (drain) is running at `time`.
    pub write_log_draining: bool,
    /// Cumulative data-cache hits.
    pub cache_hits: u64,
    /// Cumulative data-cache misses.
    pub cache_misses: u64,
    /// Data-cache hit rate over the window since the previous sample
    /// (falls back to the cumulative rate on the first sample).
    pub window_hit_rate: f64,
    /// Cumulative pages promoted to host DRAM.
    pub pages_promoted: u64,
    /// Cumulative pages demoted back to the SSD.
    pub pages_demoted: u64,
    /// Cumulative migration policy invocations.
    pub migration_runs: u64,
    /// Cumulative write-log compactions.
    pub compactions: u64,
    /// Cumulative garbage-collection campaigns.
    pub gc_campaigns: u64,
    /// Cumulative flash pages programmed.
    pub flash_pages_programmed: u64,
    /// Cumulative flash pages read.
    pub flash_pages_read: u64,
    /// Cumulative SSD controller reads.
    pub ssd_reads: u64,
    /// Cumulative SSD controller writes.
    pub ssd_writes: u64,
    /// Cumulative write-log appends.
    pub write_log_appends: u64,
    /// Cumulative CXL port requests.
    pub cxl_requests: u64,
    /// Cumulative SSD accesses (squashed included).
    pub ssd_accesses: u64,
    /// Cumulative squashed (context-switched) accesses.
    pub squashed_accesses: u64,
    /// Cumulative context switches.
    pub context_switches: u64,
    /// Cumulative accesses attributed to each tenant (host + SSD).
    pub per_tenant_accesses: Vec<u64>,
}

/// The periodic-sampler time series of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsLog {
    /// Number of flash channels (fixes the CSV column count).
    pub channels: usize,
    /// Number of tenants (fixes the CSV column count).
    pub tenants: usize,
    /// Samples in increasing time order; the last row is always the final
    /// cumulative sample taken at `exec_time` after the end-of-run flush.
    pub samples: Vec<MetricsSample>,
}

impl MetricsLog {
    fn new(channels: usize, tenants: usize) -> Self {
        MetricsLog {
            channels,
            tenants,
            samples: Vec::new(),
        }
    }
}

/// Writes the header row of the metrics CSV for the given column dimensions.
fn csv_header(out: &mut String, channels: usize, tenants: usize) {
    out.push_str(
        "run,time_ns,cores_running,cores_parked,runnable_threads,blocked_threads,inflight_fills,\
         write_log_entries,write_log_capacity,write_log_draining,cache_hits,cache_misses,\
         window_hit_rate,pages_promoted,pages_demoted,migration_runs,compactions,gc_campaigns,\
         flash_pages_programmed,flash_pages_read,ssd_reads,ssd_writes,write_log_appends,\
         cxl_requests,ssd_accesses,squashed_accesses,context_switches",
    );
    for c in 0..channels {
        let _ = write!(out, ",chan{c}_depth");
    }
    for t in 0..tenants {
        let _ = write!(out, ",tenant{t}_accesses");
    }
    out.push('\n');
}

fn csv_row(out: &mut String, run: &str, s: &MetricsSample, channels: usize, tenants: usize) {
    let _ = write!(
        out,
        "{run},{},{},{},{},{},{},{},{},{},{},{},{:.6},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        s.time.as_nanos(),
        s.cores_running,
        s.cores_parked,
        s.runnable_threads,
        s.blocked_threads,
        s.inflight_fills,
        s.write_log_entries,
        s.write_log_capacity,
        u8::from(s.write_log_draining),
        s.cache_hits,
        s.cache_misses,
        s.window_hit_rate,
        s.pages_promoted,
        s.pages_demoted,
        s.migration_runs,
        s.compactions,
        s.gc_campaigns,
        s.flash_pages_programmed,
        s.flash_pages_read,
        s.ssd_reads,
        s.ssd_writes,
        s.write_log_appends,
        s.cxl_requests,
        s.ssd_accesses,
        s.squashed_accesses,
        s.context_switches,
    );
    for c in 0..channels {
        let _ = write!(out, ",{}", s.channel_depths.get(c).copied().unwrap_or(0));
    }
    for t in 0..tenants {
        let _ = write!(
            out,
            ",{}",
            s.per_tenant_accesses.get(t).copied().unwrap_or(0)
        );
    }
    out.push('\n');
}

/// Renders one or more labelled metrics logs as a single CSV with a leading
/// `run` label column. Column dimensions (channels/tenants) take the
/// maximum across runs; shorter rows pad with zeros. Callers must present
/// runs in a deterministic order — the output is byte-stable given one.
pub fn metrics_csv<'a, I>(runs: I) -> String
where
    I: IntoIterator<Item = (&'a str, &'a MetricsLog)> + Clone,
{
    let channels = runs
        .clone()
        .into_iter()
        .map(|(_, l)| l.channels)
        .max()
        .unwrap_or(0);
    let tenants = runs
        .clone()
        .into_iter()
        .map(|(_, l)| l.tenants)
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    csv_header(&mut out, channels, tenants);
    for (label, log) in runs {
        for s in &log.samples {
            csv_row(&mut out, label, s, channels, tenants);
        }
    }
    out
}

/// What one timeline event records: one arm per pipeline hook. The
/// renderer derives each arm's name, category, phase and argument keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A thread-execution slice on a core track (`T<tid>`).
    Thread {
        /// The thread that ran.
        tid: u32,
    },
    /// A device-triggered context switch on a core track (an instant).
    ContextSwitch {
        /// The thread switched out.
        tid: u32,
        /// When the thread is due to wake.
        wake: Nanos,
    },
    /// A flash command service window with its latency breakdown.
    Flash {
        /// A program (`flash-write`) rather than a read (`flash-read`).
        write: bool,
        /// Indexing component of the latency.
        indexing: Nanos,
        /// SSD-DRAM component of the latency.
        ssd_dram: Nanos,
        /// Flash-array component of the latency.
        flash: Nanos,
    },
    /// A write-log compaction window.
    Compaction {
        /// Compactions the triggering access started.
        compactions: u64,
    },
    /// Garbage-collection campaigns triggered at one access (an instant).
    GcCampaign {
        /// Campaigns the triggering access started.
        campaigns: u64,
    },
    /// A migration-policy invocation that moved pages (an instant).
    Migration {
        /// Pages promoted to host DRAM.
        promoted: u64,
        /// Pages demoted back to the SSD.
        demoted: u64,
    },
}

/// One event on the span/instant timeline: a fixed-size record with no
/// heap data. Times are simulated nanoseconds; the Chrome renderer
/// converts to the trace-event format's microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// What happened.
    pub kind: EventKind,
    /// Track (chrome `tid`) the event belongs to.
    pub track: u32,
    /// Start of the span, or the instant.
    pub start: Nanos,
    /// End of the span (`>= start`); equal to `start` for an instant.
    pub end: Nanos,
}

/// The span/instant event timeline of one run.
///
/// Tracks `0..cores` carry per-core thread-execution slices and
/// context-switch instants; three device tracks follow: flash command
/// service windows, compaction/GC windows, and migration events.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    cores: u32,
    events: Vec<TimelineEvent>,
}

impl Timeline {
    fn new(cores: u32) -> Self {
        Timeline {
            cores,
            events: Vec::new(),
        }
    }

    /// Number of per-core tracks preceding the device tracks.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    fn track_flash(&self) -> u32 {
        self.cores
    }

    fn track_compaction(&self) -> u32 {
        self.cores + 1
    }

    fn track_migration(&self) -> u32 {
        self.cores + 2
    }

    fn push(&mut self, kind: EventKind, track: u32, start: Nanos, end: Nanos) {
        self.events.push(TimelineEvent {
            kind,
            track,
            start,
            end,
        });
    }

    /// Closes a core's thread-execution slice onto its track.
    fn push_slice(&mut self, core: usize, slice: OpenSlice) {
        let kind = EventKind::Thread { tid: slice.tid };
        self.push(kind, core as u32, slice.start, slice.end);
    }
}

fn micros(t: Nanos) -> f64 {
    t.as_nanos() as f64 / 1000.0
}

/// Writes one event object and its trailing comma: a complete slice
/// (`"ph":"X"`) or a thread-scoped instant (`"ph":"i"`). Times use `{:?}`,
/// the shortest round-trip form, which is how `serde_json` writes a float.
fn write_event(out: &mut impl fmt::Write, pid: usize, ev: &TimelineEvent) {
    let (tid, ts) = (ev.track, micros(ev.start));
    let dur = micros(ev.end.since(ev.start));
    let _ = match ev.kind {
        EventKind::Thread { tid: thread } => write!(
            out,
            r#"{{"name":"T{thread}","cat":"thread","ph":"X","pid":{pid},"tid":{tid},"ts":{ts:?},"dur":{dur:?},"args":{{"thread":{thread}}}}},"#
        ),
        EventKind::ContextSwitch { tid: thread, wake } => write!(
            out,
            r#"{{"name":"context-switch","cat":"sched","ph":"i","s":"t","pid":{pid},"tid":{tid},"ts":{ts:?},"args":{{"thread":{thread},"wake_ns":{}}}}},"#,
            wake.as_nanos()
        ),
        EventKind::Flash {
            write,
            indexing,
            ssd_dram,
            flash,
        } => write!(
            out,
            r#"{{"name":"flash-{}","cat":"flash","ph":"X","pid":{pid},"tid":{tid},"ts":{ts:?},"dur":{dur:?},"args":{{"indexing_ns":{},"ssd_dram_ns":{},"flash_ns":{}}}}},"#,
            if write { "write" } else { "read" },
            indexing.as_nanos(),
            ssd_dram.as_nanos(),
            flash.as_nanos()
        ),
        EventKind::Compaction { compactions } => write!(
            out,
            r#"{{"name":"compaction","cat":"device","ph":"X","pid":{pid},"tid":{tid},"ts":{ts:?},"dur":{dur:?},"args":{{"compactions":{compactions}}}}},"#
        ),
        EventKind::GcCampaign { campaigns } => write!(
            out,
            r#"{{"name":"gc-campaign","cat":"device","ph":"i","s":"t","pid":{pid},"tid":{tid},"ts":{ts:?},"args":{{"campaigns":{campaigns}}}}},"#
        ),
        EventKind::Migration { promoted, demoted } => write!(
            out,
            r#"{{"name":"migration","cat":"migration","ph":"i","s":"t","pid":{pid},"tid":{tid},"ts":{ts:?},"args":{{"promoted":{promoted},"demoted":{demoted}}}}},"#
        ),
    };
}

/// Writes one `M` metadata event naming a process or track, and its
/// trailing comma. `value` must render as a JSON string literal.
fn write_metadata(
    out: &mut impl fmt::Write,
    name: &str,
    pid: usize,
    tid: u32,
    value: impl fmt::Display,
) {
    let _ = write!(
        out,
        r#"{{"name":"{name}","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":{value}}}}},"#
    );
}

/// Counts the bytes written to it, so a document can be measured before
/// the string that holds it is allocated.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Renders one or more labelled timelines as a Chrome trace-event JSON
/// document (an array of event objects, loadable in Perfetto or
/// `chrome://tracing`). Each run becomes one process (`pid`), named by its
/// label via `process_name` metadata; tracks get `thread_name` metadata.
///
/// The document is rendered twice: once into a byte counter, then into a
/// string allocated at exactly that length, so the string (tens of MiB for
/// a default-scale replay) is never copied by doubling and never larger
/// than its contents.
pub fn chrome_trace_json<'a, I>(runs: I) -> String
where
    I: IntoIterator<Item = (&'a str, &'a Timeline)>,
{
    let runs: Vec<(&str, &Timeline)> = runs.into_iter().collect();
    let mut count = ByteCount(0);
    write_runs(&mut count, &runs);
    // Every object ends in a comma; the last one gives way to the bracket.
    let mut out = String::with_capacity(count.0.max(1) + 1);
    out.push('[');
    write_runs(&mut out, &runs);
    if out.len() > 1 {
        out.pop();
    }
    out.push(']');
    out
}

/// Writes every object of `runs`, each followed by a comma.
fn write_runs(out: &mut impl fmt::Write, runs: &[(&str, &Timeline)]) {
    for (pid, (label, timeline)) in runs.iter().enumerate() {
        let label = serde_json::to_string(label).expect("a label serialises");
        write_metadata(out, "process_name", pid, 0, label);
        for core in 0..timeline.cores() {
            write_metadata(
                out,
                "thread_name",
                pid,
                core,
                format_args!(r#""core {core}""#),
            );
        }
        for (track, name) in [
            (timeline.track_flash(), r#""flash""#),
            (timeline.track_compaction(), r#""compaction/gc""#),
            (timeline.track_migration(), r#""migration""#),
        ] {
            write_metadata(out, "thread_name", pid, track, name);
        }
        for ev in timeline.events() {
            write_event(out, pid, ev);
        }
    }
}

/// Everything telemetry captured over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryOutput {
    /// The periodic-sampler time series (final cumulative row included).
    pub metrics: MetricsLog,
    /// The span/instant event timeline.
    pub timeline: Timeline,
    /// The final cumulative sample, taken at `exec_time` after the
    /// end-of-run flush — the row the `telemetry-final-agreement` audit
    /// invariant ties against `SimResult.layers`.
    pub final_sample: MetricsSample,
}

/// One core's currently open thread-execution slice.
#[derive(Debug, Clone, Copy)]
struct OpenSlice {
    tid: u32,
    start: Nanos,
    end: Nanos,
}

/// The per-run telemetry recorder owned by the system state. All methods
/// only append to internal buffers — the recorder can observe the
/// simulation but never influence it.
#[derive(Debug)]
pub(crate) struct Telemetry {
    cfg: TelemetryConfig,
    metrics: MetricsLog,
    timeline: Timeline,
    // Window state for the per-sample hit rate.
    window_hits: u64,
    window_misses: u64,
    // Per-core open thread-execution slices (merged across contiguous
    // passes of the same thread so the timeline stays compact).
    open: Vec<Option<OpenSlice>>,
}

impl Telemetry {
    /// Creates a recorder for a run with the given dimensions.
    pub(crate) fn new(cfg: TelemetryConfig, cores: u32, channels: usize, tenants: usize) -> Self {
        Telemetry {
            cfg,
            metrics: MetricsLog::new(channels, tenants),
            timeline: Timeline::new(cores),
            window_hits: 0,
            window_misses: 0,
            open: vec![None; cores as usize],
        }
    }

    /// The capture configuration this recorder was armed with.
    pub(crate) fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Records one metrics sample, deriving its windowed hit rate from the
    /// cumulative hit/miss counters of the previous sample.
    pub(crate) fn record_sample(&mut self, mut sample: MetricsSample) {
        let dh = sample.cache_hits - self.window_hits;
        let dm = sample.cache_misses - self.window_misses;
        sample.window_hit_rate = if dh + dm > 0 {
            dh as f64 / (dh + dm) as f64
        } else {
            0.0
        };
        self.window_hits = sample.cache_hits;
        self.window_misses = sample.cache_misses;
        self.metrics.samples.push(sample);
    }

    /// Accounts one pipeline pass of `tid` on `core` over `[start, end]`,
    /// merging it into the core's open slice when contiguous.
    pub(crate) fn thread_pass(&mut self, core: usize, tid: u32, start: Nanos, end: Nanos) {
        if !self.cfg.timeline {
            return;
        }
        match self.open[core] {
            Some(ref mut slice) if slice.tid == tid && slice.end == start => {
                slice.end = end;
            }
            ref mut open => {
                if let Some(slice) = open.replace(OpenSlice { tid, start, end }) {
                    self.timeline.push_slice(core, slice);
                }
            }
        }
    }

    /// Marks a device-triggered context switch away from `tid` on `core`.
    pub(crate) fn context_switch(&mut self, core: usize, time: Nanos, tid: u32, wake: Nanos) {
        if !self.cfg.timeline {
            return;
        }
        // The switch also ends the thread's execution slice.
        if let Some(slice) = self.open[core].take() {
            self.timeline.push_slice(core, slice);
        }
        let kind = EventKind::ContextSwitch { tid, wake };
        self.timeline.push(kind, core as u32, time, time);
    }

    /// Records a flash command service window `[arrival, done]` with its
    /// latency breakdown components.
    pub(crate) fn flash_window(
        &mut self,
        write: bool,
        arrival: Nanos,
        done: Nanos,
        indexing: Nanos,
        ssd_dram: Nanos,
        flash: Nanos,
    ) {
        if !self.cfg.timeline || done < arrival {
            return;
        }
        let kind = EventKind::Flash {
            write,
            indexing,
            ssd_dram,
            flash,
        };
        let track = self.timeline.track_flash();
        self.timeline.push(kind, track, arrival, done);
    }

    /// Records a write-log compaction window `[start, until]`.
    pub(crate) fn compaction_window(&mut self, start: Nanos, until: Nanos, compactions: u64) {
        if !self.cfg.timeline || until < start {
            return;
        }
        let track = self.timeline.track_compaction();
        self.timeline
            .push(EventKind::Compaction { compactions }, track, start, until);
    }

    /// Marks one or more garbage-collection campaigns triggered at `time`.
    pub(crate) fn gc_campaign(&mut self, time: Nanos, campaigns: u64) {
        if !self.cfg.timeline {
            return;
        }
        let track = self.timeline.track_compaction();
        self.timeline
            .push(EventKind::GcCampaign { campaigns }, track, time, time);
    }

    /// Marks a migration-policy invocation at `time` that moved pages.
    pub(crate) fn migration_event(&mut self, time: Nanos, promoted: u64, demoted: u64) {
        if !self.cfg.timeline {
            return;
        }
        let kind = EventKind::Migration { promoted, demoted };
        let track = self.timeline.track_migration();
        self.timeline.push(kind, track, time, time);
    }

    /// Closes the run: flushes open slices, records the final cumulative
    /// sample (taken at `exec_time` after the end-of-run device flush) and
    /// hands the captured data back.
    pub(crate) fn finish(mut self, final_sample: MetricsSample) -> TelemetryOutput {
        for core in 0..self.open.len() {
            if let Some(slice) = self.open[core].take() {
                self.timeline.push_slice(core, slice);
            }
        }
        self.record_sample(final_sample);
        let final_sample = self
            .metrics
            .samples
            .last()
            .expect("finish just recorded the final sample")
            .clone();
        TelemetryOutput {
            metrics: self.metrics,
            timeline: self.timeline,
            final_sample,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn sample(time: u64, hits: u64, misses: u64) -> MetricsSample {
        MetricsSample {
            time: Nanos::new(time),
            cores_running: 1,
            cores_parked: 0,
            runnable_threads: 0,
            blocked_threads: 0,
            channel_depths: vec![2, 0],
            inflight_fills: 0,
            write_log_entries: 3,
            write_log_capacity: 16,
            write_log_draining: false,
            cache_hits: hits,
            cache_misses: misses,
            window_hit_rate: 0.0,
            pages_promoted: 0,
            pages_demoted: 0,
            migration_runs: 0,
            compactions: 0,
            gc_campaigns: 0,
            flash_pages_programmed: 1,
            flash_pages_read: 2,
            ssd_reads: 3,
            ssd_writes: 4,
            write_log_appends: 5,
            cxl_requests: 6,
            ssd_accesses: 7,
            squashed_accesses: 0,
            context_switches: 0,
            per_tenant_accesses: vec![7],
        }
    }

    fn recorder() -> Telemetry {
        let cfg = TelemetryConfig {
            enabled: true,
            sample_interval: Nanos::from_micros(10),
            timeline: true,
        };
        Telemetry::new(cfg, 2, 2, 1)
    }

    #[test]
    fn window_hit_rate_is_per_window_not_cumulative() {
        let mut tel = recorder();
        tel.record_sample(sample(10, 8, 2)); // 80% cumulative and windowed
        tel.record_sample(sample(20, 8, 12)); // window: 0 hits, 10 misses
        let out = tel.finish(sample(30, 18, 12)); // window: 10 hits, 0 misses
        let rates: Vec<f64> = out
            .metrics
            .samples
            .iter()
            .map(|s| s.window_hit_rate)
            .collect();
        assert_eq!(rates, vec![0.8, 0.0, 1.0]);
        assert_eq!(out.final_sample.time, Nanos::new(30));
        assert_eq!(out.metrics.samples.last(), Some(&out.final_sample));
    }

    #[test]
    fn contiguous_thread_passes_merge_into_one_slice() {
        let mut tel = recorder();
        tel.thread_pass(0, 7, Nanos::new(0), Nanos::new(100));
        tel.thread_pass(0, 7, Nanos::new(100), Nanos::new(250));
        // A gap splits the slice even for the same thread.
        tel.thread_pass(0, 7, Nanos::new(400), Nanos::new(500));
        let out = tel.finish(sample(500, 0, 0));
        let spans: Vec<(Nanos, Nanos)> = out
            .timeline
            .events()
            .iter()
            .map(|e| (e.start, e.end))
            .collect();
        assert_eq!(
            spans,
            vec![
                (Nanos::new(0), Nanos::new(250)),
                (Nanos::new(400), Nanos::new(500)),
            ]
        );
    }

    #[test]
    fn chrome_json_is_a_wellformed_event_array() {
        // One event of every kind, times that exercise the float format
        // (fractions of a microsecond, and past 1e16 µs the exponent form).
        let mut tel = recorder();
        tel.thread_pass(0, 1, Nanos::new(0), Nanos::new(1_000));
        tel.context_switch(0, Nanos::new(1_000), 1, Nanos::new(9_000));
        tel.flash_window(
            false,
            Nanos::new(100),
            Nanos::new(3_100),
            Nanos::new(50),
            Nanos::new(50),
            Nanos::new(3_000),
        );
        tel.flash_window(
            true,
            Nanos::new(1_234),
            Nanos::new(1_235_801),
            Nanos::new(20),
            Nanos::new(30),
            Nanos::new(1_234_517),
        );
        tel.compaction_window(Nanos::new(2_000), Nanos::new(4_567), 3);
        tel.gc_campaign(Nanos::new(4_567), 2);
        tel.migration_event(Nanos::new(5_001), 4, 1);
        tel.thread_pass(
            1,
            2,
            Nanos::new(500),
            Nanos::new(12_345_678_901_234_567_890),
        );
        let a = tel.finish(sample(2_000, 0, 0));
        let mut tel = Telemetry::new(recorder().cfg, 1, 1, 1);
        tel.thread_pass(0, 3, Nanos::new(7), Nanos::new(8));
        let b = tel.finish(sample(8, 0, 0));
        let quoted = r#"say "hi" \ bye"#;
        let json = chrome_trace_json([("run-a", &a.timeline), (quoted, &b.timeline)]);
        // The bytes the `serde_json::Value` renderer wrote before events
        // were rendered directly.
        let expected = concat!(
            r#"["#,
            r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"run-a"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"core 0"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"core 1"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"flash"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":3,"args":{"name":"compaction/gc"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":4,"args":{"name":"migration"}},"#,
            r#"{"name":"T1","cat":"thread","ph":"X","pid":0,"tid":0,"ts":0.0,"dur":1.0,"args":{"thread":1}},"#,
            r#"{"name":"context-switch","cat":"sched","ph":"i","s":"t","pid":0,"tid":0,"ts":1.0,"args":{"thread":1,"wake_ns":9000}},"#,
            r#"{"name":"flash-read","cat":"flash","ph":"X","pid":0,"tid":2,"ts":0.1,"dur":3.0,"args":{"indexing_ns":50,"ssd_dram_ns":50,"flash_ns":3000}},"#,
            r#"{"name":"flash-write","cat":"flash","ph":"X","pid":0,"tid":2,"ts":1.234,"dur":1234.567,"args":{"indexing_ns":20,"ssd_dram_ns":30,"flash_ns":1234517}},"#,
            r#"{"name":"compaction","cat":"device","ph":"X","pid":0,"tid":3,"ts":2.0,"dur":2.567,"args":{"compactions":3}},"#,
            r#"{"name":"gc-campaign","cat":"device","ph":"i","s":"t","pid":0,"tid":3,"ts":4.567,"args":{"campaigns":2}},"#,
            r#"{"name":"migration","cat":"migration","ph":"i","s":"t","pid":0,"tid":4,"ts":5.001,"args":{"promoted":4,"demoted":1}},"#,
            r#"{"name":"T2","cat":"thread","ph":"X","pid":0,"tid":1,"ts":0.5,"dur":1.2345678901234568e16,"args":{"thread":2}},"#,
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"say \"hi\" \\ bye"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"core 0"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"flash"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"compaction/gc"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"migration"}},"#,
            r#"{"name":"T3","cat":"thread","ph":"X","pid":1,"tid":0,"ts":0.007,"dur":0.001,"args":{"thread":3}}"#,
            r#"]"#,
        );
        assert_eq!(json, expected);
        // Allocated once, at the document's exact length.
        assert_eq!(json.capacity(), json.len());
        let empty = chrome_trace_json([]);
        assert_eq!(empty, "[]");
        assert_eq!(empty.capacity(), empty.len());
        let parsed: Value = serde_json::from_str(&json).unwrap();
        let events = match &parsed {
            Value::Seq(events) => events,
            other => panic!("expected a top-level event array, got {other:?}"),
        };
        assert!(!events.is_empty());
        let get = |ev: &Value, key: &str| -> Option<Value> {
            match ev {
                Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
                _ => None,
            }
        };
        let mut process_names = Vec::new();
        for ev in events {
            let ph = match get(ev, "ph") {
                Some(Value::Str(s)) => s,
                other => panic!("event without ph: {other:?}"),
            };
            assert!(matches!(ph.as_str(), "M" | "X" | "i"));
            assert!(matches!(get(ev, "pid"), Some(Value::UInt(_))));
            assert!(matches!(get(ev, "tid"), Some(Value::UInt(_))));
            if ph != "M" {
                assert!(matches!(get(ev, "ts"), Some(Value::Float(_))));
            }
            if ph == "X" {
                assert!(matches!(get(ev, "dur"), Some(Value::Float(_))));
            }
            // Each process is named after its run label.
            if get(ev, "name") == Some(Value::Str("process_name".to_string())) {
                let args = get(ev, "args").expect("metadata args");
                process_names.push(get(&args, "name"));
            }
        }
        let label = |s: &str| Some(Value::Str(s.to_string()));
        assert_eq!(process_names, [label("run-a"), label(quoted)]);
    }

    #[test]
    fn merged_csv_pads_to_the_widest_run_and_labels_rows() {
        let mut a = recorder();
        a.record_sample(sample(10, 1, 1));
        let a = a.finish(sample(20, 2, 2));
        let cfg = TelemetryConfig {
            enabled: true,
            sample_interval: Nanos::from_micros(10),
            timeline: false,
        };
        let mut b = Telemetry::new(cfg, 1, 4, 2);
        let mut s = sample(10, 0, 0);
        s.channel_depths = vec![1, 2, 3, 4];
        s.per_tenant_accesses = vec![5, 6];
        b.record_sample(s.clone());
        let b = b.finish(s);
        let csv = metrics_csv([("a", &a.metrics), ("b", &b.metrics)]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("run,time_ns,"));
        assert!(header.contains("chan3_depth") && header.contains("tenant1_accesses"));
        let width = header.split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), width, "ragged row: {line}");
        }
        assert_eq!(csv.lines().filter(|l| l.starts_with("a,")).count(), 2);
        assert_eq!(csv.lines().filter(|l| l.starts_with("b,")).count(), 2);
    }
}
