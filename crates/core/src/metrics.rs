//! End-to-end metrics produced by a simulation run.

use crate::migration::MigrationStats;
use serde::{Deserialize, Serialize, Value};
use skybyte_cpu::Boundedness;
use skybyte_cxl::CxlPortStats;
use skybyte_ssd::{FlashStats, FtlStats, SsdStats, WriteLogStats};
use skybyte_types::{LatencyHistogram, Nanos, PolicyConfig, TenantId, VariantKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Average-memory-access-time accounting in the five components of
/// Figure 17: host DRAM, CXL protocol, SSD index lookup, SSD DRAM and flash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmatBreakdown {
    /// Total latency spent in host DRAM accesses.
    pub host_dram: Nanos,
    /// Total CXL protocol latency (both directions).
    pub cxl_protocol: Nanos,
    /// Total SSD index-lookup latency.
    pub indexing: Nanos,
    /// Total SSD DRAM access latency.
    pub ssd_dram: Nanos,
    /// Total flash access latency (queueing + tR/tProg).
    pub flash: Nanos,
    /// Number of memory accesses included (context-switched accesses are
    /// excluded, their replays are included, following §VI-D).
    pub accesses: u64,
}

impl AmatBreakdown {
    /// Total latency across all components.
    pub fn total(&self) -> Nanos {
        self.host_dram + self.cxl_protocol + self.indexing + self.ssd_dram + self.flash
    }

    /// Adds `other`'s components and access count into `self`.
    pub fn merge(&mut self, other: &AmatBreakdown) {
        self.host_dram += other.host_dram;
        self.cxl_protocol += other.cxl_protocol;
        self.indexing += other.indexing;
        self.ssd_dram += other.ssd_dram;
        self.flash += other.flash;
        self.accesses += other.accesses;
    }

    /// The average memory access time.
    pub fn amat(&self) -> Nanos {
        if self.accesses == 0 {
            Nanos::ZERO
        } else {
            self.total() / self.accesses
        }
    }
}

/// The Figure 16 request classification: host DRAM read/write (H-R/W),
/// CXL-SSD DRAM read hit (S-R-H), CXL-SSD DRAM read miss (S-R-M) and
/// CXL-SSD write (S-W).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestBreakdown {
    /// Accesses served by host DRAM (including promoted pages).
    pub host: u64,
    /// CXL-SSD reads that hit in SSD DRAM (write log, data cache or
    /// zero-fill).
    pub ssd_read_hit: u64,
    /// CXL-SSD reads that required a flash access.
    pub ssd_read_miss: u64,
    /// CXL-SSD writes (all absorbed by the write log in SkyByte).
    pub ssd_write: u64,
}

impl RequestBreakdown {
    /// Total classified accesses.
    pub fn total(&self) -> u64 {
        self.host + self.ssd_read_hit + self.ssd_read_miss + self.ssd_write
    }

    /// Adds `other`'s per-class counts into `self`.
    pub fn merge(&mut self, other: &RequestBreakdown) {
        self.host += other.host;
        self.ssd_read_hit += other.ssd_read_hit;
        self.ssd_read_miss += other.ssd_read_miss;
        self.ssd_write += other.ssd_write;
    }

    /// Fraction helper.
    fn frac(&self, x: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            x as f64 / t as f64
        }
    }

    /// Fraction of accesses served by host DRAM.
    pub fn host_fraction(&self) -> f64 {
        self.frac(self.host)
    }

    /// Fraction of accesses that are SSD reads missing in SSD DRAM.
    pub fn ssd_read_miss_fraction(&self) -> f64 {
        self.frac(self.ssd_read_miss)
    }

    /// Fraction of accesses that are SSD writes.
    pub fn ssd_write_fraction(&self) -> f64 {
        self.frac(self.ssd_write)
    }

    /// Fraction of accesses that are SSD reads hitting in SSD DRAM.
    pub fn ssd_read_hit_fraction(&self) -> f64 {
        self.frac(self.ssd_read_hit)
    }
}

/// Per-tenant slice of a run's metrics, accumulated by the engine at its
/// attribution points (every access retires against the issuing thread's
/// tenant in the engine's access pipeline).
///
/// These are the only copy the engine keeps: the run-wide `instructions`,
/// `requests`, `amat`, `latency_hist` and `squashed_accesses` of
/// [`SimResult`] are sums over the tenants, so attribution cannot leak an
/// access. A single-tenant run carries exactly one entry covering the whole
/// run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantCounters {
    /// The tenant these counters describe.
    pub tenant: TenantId,
    /// Number of threads the tenant ran.
    pub threads: u32,
    /// Instructions executed by the tenant's threads (compute bursts).
    pub instructions: u64,
    /// The tenant's classified memory requests (Figure 16 classes).
    pub requests: RequestBreakdown,
    /// AMAT component accounting over the tenant's accesses.
    pub amat: AmatBreakdown,
    /// Distribution of the tenant's end-to-end memory latencies.
    pub latency_hist: LatencyHistogram,
    /// SSD accesses the tenant issued over the CXL port (incl. squashed).
    pub ssd_accesses: u64,
    /// The tenant's accesses squashed by a `SkyByte-Delay` exception.
    pub squashed_accesses: u64,
    /// Context switches the tenant's threads suffered (== squashes, the
    /// device-triggered switch being the only yield source).
    pub context_switches: u64,
    /// Simulated instant the tenant's last thread finished its stream —
    /// the per-tenant completion time interference is measured against.
    pub finish_time: Nanos,
}

impl TenantCounters {
    /// The tenant's completion time relative to a solo (uncontended) run of
    /// the same tenant — the per-tenant slowdown an interference experiment
    /// reports. Values above 1 mean co-location cost the tenant time.
    pub fn slowdown_over(&self, solo: &TenantCounters) -> f64 {
        if solo.finish_time == Nanos::ZERO {
            return 0.0;
        }
        self.finish_time.as_nanos() as f64 / solo.finish_time.as_nanos() as f64
    }
}

/// A post-run snapshot of every device layer's raw counters.
///
/// This is the single home of the device-side figures the paper plots —
/// flash traffic (Figure 18), average flash read latency
/// ([`FlashStats::avg_read_latency`], Table III), write amplification
/// ([`FtlStats::write_amplification`]), compactions, GC campaigns and page
/// migrations — so the conservation audit (`skybyte_sim::audit`) can
/// reconcile the layers against each other: e.g. FTL page conservation
/// against the flash array's program count, or the write log's entry
/// population against the controller's append count. Taken *after* the
/// end-of-run flush, so it describes the complete run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerCounters {
    /// CXL link traffic counters (requests, responses, payload bytes).
    pub cxl: CxlPortStats,
    /// SSD-controller counters (request routing, compaction, prefetch).
    pub ssd: SsdStats,
    /// Flash-array traffic counters (reads/programs/erases and latencies).
    pub flash: FlashStats,
    /// FTL counters (host writes, GC relocations, erases).
    pub ftl: FtlStats,
    /// Write-log counters, when the log is enabled.
    pub write_log: Option<WriteLogStats>,
    /// Entries resident in the write log's active buffer after the final
    /// flush (0 when the log is disabled or fully drained).
    pub write_log_resident_entries: u64,
    /// Page-migration counters (promotions, demotions, shootdowns).
    pub migration: MigrationStats,
}

/// Everything measured by one simulation run.
///
/// `PartialEq` compares every field, which is how the trace subsystem's
/// keystone tests assert that a recorded-then-replayed run is bit-identical
/// to the live run that recorded it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// The design variant simulated.
    pub variant: VariantKind,
    /// The policy selection the run executed under (eviction, hotness,
    /// tenant scheduling) — surfaced so an ablation row is
    /// self-describing and the audit can hold per policy.
    pub policy: PolicyConfig,
    /// Workload name (Table I).
    pub workload: String,
    /// Number of application threads.
    pub threads: u32,
    /// Number of cores.
    pub cores: u32,
    /// End-to-end execution time (max over cores).
    pub exec_time: Nanos,
    /// Total instructions executed (compute bursts); the sum over
    /// [`Self::per_tenant`].
    pub instructions: u64,
    /// Memory/compute/context-switch boundedness (Figures 4 and 10).
    pub boundedness: Boundedness,
    /// AMAT component accounting (Figure 17); the sum over
    /// [`Self::per_tenant`].
    pub amat: AmatBreakdown,
    /// Request classification (Figure 16); the sum over [`Self::per_tenant`].
    pub requests: RequestBreakdown,
    /// Distribution of end-to-end memory latencies (Figure 3); the merge of
    /// the per-tenant histograms.
    pub latency_hist: LatencyHistogram,
    /// Context switches performed by the CXL-aware scheduler.
    pub context_switches: u64,
    /// Compaction busy time inside the measured window `[0, exec_time]`:
    /// a union measure of the campaign windows (overlapping campaigns are
    /// counted once; a campaign arriving on a lagging core clock entirely
    /// inside an already-covered gap is conservatively dropped rather than
    /// double-counted), clamped to the execution horizon. The audit asserts
    /// it never exceeds `exec_time`.
    pub compaction_time: Nanos,
    /// Peak memory footprint of the write-log index (0 when disabled).
    pub log_index_bytes: u64,
    /// Aggregate busy time of all flash channels inside the measured window
    /// `[0, exec_time]`. Service committed to a backlog still draining when
    /// the run ends (and the end-of-run flush) is excluded, so this is
    /// bounded by `exec_time × flash_channels` — which makes
    /// [`Self::ssd_bandwidth_utilisation`] a true fraction with no clamp.
    pub flash_busy_time: Nanos,
    /// Number of flash channels (for bandwidth-utilisation normalisation).
    pub flash_channels: u32,
    /// SSD accesses issued over the CXL port, including squashed
    /// (context-switched) accesses that are excluded from [`Self::requests`].
    pub ssd_accesses: u64,
    /// SSD accesses squashed by a `SkyByte-Delay` long-delay exception (the
    /// thread blocked and re-issued the access later); the sum over
    /// [`Self::per_tenant`]. Together with the classified SSD requests these
    /// must add up to [`Self::ssd_accesses`].
    pub squashed_accesses: u64,
    /// True when the run hit the engine's step limit before every thread
    /// finished — the metrics then describe a truncated execution.
    pub truncated: bool,
    /// Raw per-layer counter snapshot: flash, FTL, write-log, controller,
    /// CXL-port and migration counters.
    pub layers: LayerCounters,
    /// Per-tenant attribution, one entry per tenant in tenant-id order (a
    /// single-tenant run has exactly one).
    pub per_tenant: Vec<TenantCounters>,
}

impl SimResult {
    /// Total memory accesses classified.
    pub fn total_accesses(&self) -> u64 {
        self.requests.total()
    }

    /// Work units the engine retired: completed requests plus squashed
    /// re-issues. The unit host-side throughput (`RunTiming`) is measured in.
    pub fn work_units(&self) -> u64 {
        self.requests.total() + self.squashed_accesses
    }

    /// Work throughput in accesses per second (the Figure 15 bar metric).
    pub fn throughput_accesses_per_sec(&self) -> f64 {
        if self.exec_time == Nanos::ZERO {
            return 0.0;
        }
        self.total_accesses() as f64 * 1e9 / self.exec_time.as_nanos() as f64
    }

    /// Average flash-channel utilisation over the run (the Figure 15 line
    /// metric, "SSD bandwidth utilisation").
    ///
    /// Reports the raw ratio: over-unity utilisation is an accounting bug,
    /// not a display issue, so there is deliberately no `.min(1.0)` clamp —
    /// the `flash-busy-bounded` audit invariant flags any violation instead
    /// of silently hiding it.
    pub fn ssd_bandwidth_utilisation(&self) -> f64 {
        if self.exec_time == Nanos::ZERO || self.flash_channels == 0 {
            return 0.0;
        }
        self.flash_busy_time.as_nanos() as f64
            / (self.exec_time.as_nanos() as f64 * self.flash_channels as f64)
    }

    /// Speed-up of this run over a baseline run of the same workload
    /// (baseline execution time divided by this execution time).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        if self.exec_time == Nanos::ZERO {
            return 0.0;
        }
        baseline.exec_time.as_nanos() as f64 / self.exec_time.as_nanos() as f64
    }

    /// Execution time normalised to a baseline (lower is better, as plotted
    /// in Figures 14, 21, 22 and 23).
    pub fn normalized_exec_time(&self, baseline: &SimResult) -> f64 {
        if baseline.exec_time == Nanos::ZERO {
            return 0.0;
        }
        self.exec_time.as_nanos() as f64 / baseline.exec_time.as_nanos() as f64
    }

    /// Path-by-path comparison against a golden result kept as JSON text,
    /// returning one [`LeafDiff`] per differing leaf, which renders as
    /// `"path: expected X, got Y"`, e.g. `layers.flash.pages_read` or
    /// `per_tenant[1].latency_hist.buckets[7]` (see [`diff_values`]).
    ///
    /// This is the diff the golden-corpus verifier prints when a replayed
    /// trace no longer reproduces its pinned result: a plain `PartialEq`
    /// failure says *that* the numbers drifted, the path list says *where*.
    /// It walks this result's serialised form, so every field is covered by
    /// construction. The golden is compared as parsed JSON, not as a
    /// `SimResult`, so a key the schema no longer has is reported
    /// (`layers.migration.stale_counter: expected 7, got absent`) instead of
    /// being dropped by the parse.
    ///
    /// # Errors
    ///
    /// Returns the parse error if `golden_json` is not valid JSON.
    pub fn diff_against_json(&self, golden_json: &str) -> Result<Vec<LeafDiff>, serde_json::Error> {
        let golden: Value = serde_json::from_str(golden_json)?;
        Ok(diff_values(&golden, &self.serialize()))
    }
}

/// One leaf at which two serialised values differ. `Display` renders it as
/// `"path: expected X, got Y"`, with `X` and `Y` as JSON or `absent`.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafDiff {
    /// Where the values differ, e.g. `per_tenant[1].latency_hist.buckets[7]`.
    pub path: String,
    /// The expected leaf; `None` when only the other side has the path.
    pub expected: Option<Value>,
    /// The leaf found; `None` when only the expected side has the path.
    pub got: Option<Value>,
}

impl fmt::Display for LeafDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let render = |v: &Option<Value>| {
            v.as_ref().map_or("absent".into(), |v| {
                serde_json::to_string(v).unwrap_or_default()
            })
        };
        let (expected, got) = (render(&self.expected), render(&self.got));
        write!(f, "{}: expected {expected}, got {got}", self.path)
    }
}

/// Compares two serialised values leaf by leaf and returns one
/// [`LeafDiff`] per difference. A map key or sequence element present on
/// one side only is reported once, at its own path, as absent on the other.
pub fn diff_values(expected: &Value, got: &Value) -> Vec<LeafDiff> {
    let mut out = Vec::new();
    diff_at("", Some(expected), Some(got), &mut out);
    out
}

fn diff_at(path: &str, expected: Option<&Value>, got: Option<&Value>, out: &mut Vec<LeafDiff>) {
    fn lookup<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    let field = |key: &str| match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    };
    match (expected, got) {
        (Some(Value::Map(a)), Some(Value::Map(b))) => {
            for (key, value) in a {
                diff_at(&field(key), Some(value), lookup(b, key), out);
            }
            for (key, value) in b.iter().filter(|(k, _)| lookup(a, k).is_none()) {
                diff_at(&field(key), None, Some(value), out);
            }
        }
        (Some(Value::Seq(a)), Some(Value::Seq(b))) => {
            for i in 0..a.len().max(b.len()) {
                diff_at(&format!("{path}[{i}]"), a.get(i), b.get(i), out);
            }
        }
        _ if expected != got => out.push(LeafDiff {
            path: path.to_string(),
            expected: expected.cloned(),
            got: got.cloned(),
        }),
        _ => {}
    }
}

/// `path` with every array index collapsed to `[]`.
fn collapse_indices(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    let mut in_index = false;
    for c in path.chars() {
        match c {
            '[' => in_index = true,
            ']' => {
                in_index = false;
                out.push_str("[]");
            }
            _ if !in_index => out.push(c),
            _ => {}
        }
    }
    out
}

/// What the diffs of many result pairs moved, path by path, with array
/// indices collapsed to `[]`: the roll-up `trace verify-corpus` prints
/// after its per-pair diffs, which shows at a glance whether a re-pin only
/// adds and removes keys or moves values too.
#[derive(Debug, Default)]
pub struct DiffSummary {
    paths: BTreeMap<String, PathMoves>,
}

/// How one collapsed path moved across the pairs added to a [`DiffSummary`].
#[derive(Debug, Default)]
struct PathMoves {
    pairs: usize,
    removed: bool,
    added: bool,
    /// Largest `|got - expected| / |expected|` over numeric leaves whose
    /// expected value is nonzero.
    max_relative: Option<f64>,
    from_zero: bool,
    /// A leaf changed other than from one number to another.
    non_numeric: bool,
}

impl DiffSummary {
    /// Adds one pair's diff: each collapsed path it touches counts the pair
    /// once, however many of its indices moved.
    pub fn add_pair(&mut self, diff: &[LeafDiff]) {
        fn number(v: &Value) -> Option<f64> {
            match *v {
                Value::Int(n) => Some(n as f64),
                Value::UInt(n) => Some(n as f64),
                Value::Float(x) => Some(x),
                // `u128` leaves (`latency_hist.total_ns`) serialise as
                // integer strings.
                Value::Str(ref s) => s.parse::<i128>().ok().map(|n| n as f64),
                _ => None,
            }
        }
        let mut touched = BTreeSet::new();
        for d in diff {
            let path = collapse_indices(&d.path);
            let moves = self.paths.entry(path.clone()).or_default();
            if touched.insert(path) {
                moves.pairs += 1;
            }
            match (&d.expected, &d.got) {
                (Some(_), None) => moves.removed = true,
                (None, Some(_)) => moves.added = true,
                (Some(e), Some(g)) => match (number(e), number(g)) {
                    (Some(0.0), Some(_)) => moves.from_zero = true,
                    (Some(e), Some(g)) => {
                        let relative = ((g - e) / e).abs();
                        moves.max_relative = Some(moves.max_relative.unwrap_or(0.0).max(relative));
                    }
                    _ => moves.non_numeric = true,
                },
                (None, None) => {}
            }
        }
    }

    /// One line per diverged path, in path order:
    /// `PATH: N pair(s), WHAT`, where `WHAT` is `removed`, `added`, the
    /// largest relative change, `from 0` or `changed`, comma-separated when
    /// a path moved in more than one way.
    pub fn lines(&self) -> Vec<String> {
        self.paths
            .iter()
            .map(|(path, m)| {
                let mut what = Vec::new();
                if m.removed {
                    what.push("removed".to_string());
                }
                if m.added {
                    what.push("added".to_string());
                }
                if let Some(r) = m.max_relative {
                    what.push(format!("largest relative change {r:.3e}"));
                }
                if m.from_zero {
                    what.push("from 0".to_string());
                }
                if m.non_numeric {
                    what.push("changed".to_string());
                }
                format!("{path}: {} pair(s), {}", m.pairs, what.join(", "))
            })
            .collect()
    }
}

/// Geometric mean of a sequence of positive ratios (used for "geo. mean"
/// columns of Figures 14 and 23).
pub fn geometric_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diffs `run` against `golden` the way the corpus verifier does: through
    /// the golden's JSON text.
    fn diff(run: &SimResult, golden: &SimResult) -> Vec<String> {
        let json = serde_json::to_string(golden).unwrap();
        lines(run.diff_against_json(&json).unwrap())
    }

    fn lines(diff: Vec<LeafDiff>) -> Vec<String> {
        diff.iter().map(ToString::to_string).collect()
    }

    fn dummy(exec_ns: u64) -> SimResult {
        SimResult {
            variant: VariantKind::BaseCssd,
            policy: PolicyConfig::default(),
            workload: "bc".to_string(),
            threads: 8,
            cores: 8,
            exec_time: Nanos::new(exec_ns),
            instructions: 1_000_000,
            boundedness: Boundedness::default(),
            amat: AmatBreakdown::default(),
            requests: RequestBreakdown {
                host: 10,
                ssd_read_hit: 60,
                ssd_read_miss: 10,
                ssd_write: 20,
            },
            latency_hist: LatencyHistogram::new(),
            context_switches: 0,
            compaction_time: Nanos::ZERO,
            log_index_bytes: 0,
            flash_busy_time: Nanos::new(exec_ns / 2),
            flash_channels: 4,
            ssd_accesses: 90,
            squashed_accesses: 0,
            truncated: false,
            layers: LayerCounters::default(),
            per_tenant: vec![TenantCounters {
                tenant: TenantId::ZERO,
                threads: 8,
                instructions: 1_000_000,
                requests: RequestBreakdown {
                    host: 10,
                    ssd_read_hit: 60,
                    ssd_read_miss: 10,
                    ssd_write: 20,
                },
                amat: AmatBreakdown::default(),
                latency_hist: LatencyHistogram::new(),
                ssd_accesses: 90,
                squashed_accesses: 0,
                context_switches: 0,
                finish_time: Nanos::new(exec_ns),
            }],
        }
    }

    #[test]
    fn amat_breakdown_math() {
        let a = AmatBreakdown {
            host_dram: Nanos::new(100),
            cxl_protocol: Nanos::new(80),
            indexing: Nanos::new(20),
            ssd_dram: Nanos::new(200),
            flash: Nanos::new(600),
            accesses: 10,
        };
        assert_eq!(a.total(), Nanos::new(1000));
        assert_eq!(a.amat(), Nanos::new(100));
        assert_eq!(a.flash * 10, a.total() * 6);
        assert_eq!(AmatBreakdown::default().amat(), Nanos::ZERO);
    }

    #[test]
    fn request_breakdown_fractions() {
        let r = RequestBreakdown {
            host: 25,
            ssd_read_hit: 50,
            ssd_read_miss: 5,
            ssd_write: 20,
        };
        assert_eq!(r.total(), 100);
        assert!((r.host_fraction() - 0.25).abs() < 1e-12);
        assert!((r.ssd_read_hit_fraction() - 0.5).abs() < 1e-12);
        assert!((r.ssd_read_miss_fraction() - 0.05).abs() < 1e-12);
        assert!((r.ssd_write_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(RequestBreakdown::default().host_fraction(), 0.0);
    }

    #[test]
    fn sim_result_derived_metrics() {
        let fast = dummy(1_000_000);
        let slow = dummy(4_000_000);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-9);
        assert!((slow.normalized_exec_time(&fast) - 4.0).abs() < 1e-9);
        assert!(fast.throughput_accesses_per_sec() > slow.throughput_accesses_per_sec());
        let util = fast.ssd_bandwidth_utilisation();
        assert!(util > 0.1 && util <= 0.2, "util {util}");
        assert_eq!(fast.total_accesses(), 100);
        let mut squashed = fast.clone();
        squashed.squashed_accesses = 7;
        assert_eq!(squashed.work_units(), 107);
    }

    #[test]
    fn breakdowns_merge_componentwise() {
        let t = dummy(1_000).per_tenant[0].clone();
        let mut requests = t.requests;
        requests.merge(&t.requests);
        assert_eq!(requests.total(), 2 * t.requests.total());
        assert_eq!(requests.ssd_write, 2 * t.requests.ssd_write);
        let one = AmatBreakdown {
            host_dram: Nanos::new(1),
            cxl_protocol: Nanos::new(2),
            indexing: Nanos::new(3),
            ssd_dram: Nanos::new(4),
            flash: Nanos::new(5),
            accesses: 6,
        };
        let mut amat = one;
        amat.merge(&one);
        assert_eq!(amat.total(), Nanos::new(30));
        assert_eq!(amat.accesses, 12);
        assert_eq!(amat.amat(), one.amat());
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean([2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geometric_mean([5.0]) - 5.0).abs() < 1e-9);
        assert_eq!(geometric_mean(std::iter::empty()), 0.0);
        // Non-positive values are ignored rather than poisoning the mean.
        assert!((geometric_mean([2.0, 0.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sim_result_serialises() {
        let r = dummy(1000);
        let json = serde_json::to_string(&r).unwrap();
        let back: SimResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.exec_time, r.exec_time);
        assert_eq!(back.workload, "bc");
        // The full round trip is lossless (what the golden corpus relies on).
        assert_eq!(back, r);
    }

    #[test]
    fn utilisation_reports_raw_over_unity_ratios() {
        // Over-unity utilisation must be *visible* (the audit flags it), not
        // clamped away.
        let mut r = dummy(1_000_000);
        r.flash_busy_time = r.exec_time * (r.flash_channels as u64) * 2;
        assert!((r.ssd_bandwidth_utilisation() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn identical_results_diff_empty() {
        let golden = dummy(1_000_000);
        assert!(diff(&golden, &golden).is_empty());
        assert!(diff(&golden, &golden.clone()).is_empty());
    }

    #[test]
    fn diff_names_nested_struct_paths() {
        let golden = dummy(1_000_000);
        let mut run = golden.clone();
        run.requests.ssd_write += 1;
        run.exec_time += Nanos::new(5);
        run.layers.flash.pages_read = 77;
        run.layers.cxl.requests = 42;
        assert_eq!(
            diff(&run, &golden),
            vec![
                "exec_time: expected 1000000, got 1000005",
                "requests.ssd_write: expected 20, got 21",
                "layers.cxl.requests: expected 0, got 42",
                "layers.flash.pages_read: expected 0, got 77",
            ]
        );
    }

    #[test]
    fn diff_names_array_index_paths() {
        let golden = dummy(1_000_000);
        let mut run = golden.clone();
        // 200 ns lands in bucket 7, [128, 256) ns.
        run.per_tenant[0].latency_hist.record(Nanos::new(200));
        let diff = diff(&run, &golden);
        assert!(
            diff.contains(&"per_tenant[0].latency_hist.buckets[7]: expected 0, got 1".to_string()),
            "{diff:?}"
        );
        assert!(diff
            .iter()
            .all(|d| d.starts_with("per_tenant[0].latency_hist.")));
    }

    #[test]
    fn diff_reports_keys_and_elements_present_on_one_side() {
        let expected = Value::Map(vec![
            ("kept".to_string(), Value::UInt(1)),
            ("dropped".to_string(), Value::UInt(2)),
        ]);
        let got = Value::Map(vec![
            ("kept".to_string(), Value::UInt(1)),
            ("added".to_string(), Value::Seq(vec![Value::UInt(3)])),
        ]);
        assert_eq!(
            lines(diff_values(&expected, &got)),
            vec![
                "dropped: expected 2, got absent",
                "added: expected absent, got [3]"
            ]
        );
        // An extra tenant is one line at its index, not one per field.
        let golden = dummy(1_000_000);
        let mut extra = golden.clone();
        extra.per_tenant.push(extra.per_tenant[0].clone());
        let diff = diff(&extra, &golden);
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(diff[0].starts_with("per_tenant[1]: expected absent, got {"));
    }

    #[test]
    fn diff_compares_float_leaves() {
        let at = |waf: f64| Value::Map(vec![("waf".to_string(), Value::Float(waf))]);
        assert!(diff_values(&at(1.25), &at(1.25)).is_empty());
        assert_eq!(
            lines(diff_values(&at(1.25), &at(2.0))),
            vec!["waf: expected 1.25, got 2.0"]
        );
        // A float never equals an integer of the same magnitude.
        let int = Value::Map(vec![("waf".to_string(), Value::UInt(2))]);
        assert_eq!(
            lines(diff_values(&at(2.0), &int)),
            vec!["waf: expected 2.0, got 2"]
        );
    }

    #[test]
    fn diff_summary_collapses_indices_and_counts_pairs() {
        let map = |fields: &[(&str, Value)]| {
            Value::Map(
                fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            )
        };
        let seq = |xs: &[u64]| Value::Seq(xs.iter().map(|&x| Value::UInt(x)).collect());
        let int_str = |n: &str| Value::Str(n.to_string());
        let mut summary = DiffSummary::default();
        // Pair 1: two buckets move from 0 and one grows by half; exec_time
        // grows by a quarter; a `u128` leaf, serialised as an integer
        // string, grows by half.
        summary.add_pair(&diff_values(
            &map(&[
                ("exec_time", Value::UInt(4)),
                ("buckets", seq(&[0, 0, 2])),
                ("total_ns", int_str("100")),
            ]),
            &map(&[
                ("exec_time", Value::UInt(5)),
                ("buckets", seq(&[1, 1, 3])),
                ("total_ns", int_str("150")),
            ]),
        ));
        // Pair 2: exec_time halves, one key goes and another appears.
        summary.add_pair(&diff_values(
            &map(&[("exec_time", Value::UInt(4)), ("stale", Value::UInt(3))]),
            &map(&[("exec_time", Value::UInt(2)), ("fresh", Value::Bool(true))]),
        ));
        assert_eq!(
            summary.lines(),
            vec![
                "buckets[]: 1 pair(s), largest relative change 5.000e-1, from 0",
                "exec_time: 2 pair(s), largest relative change 5.000e-1",
                "fresh: 1 pair(s), added",
                "stale: 1 pair(s), removed",
                "total_ns: 1 pair(s), largest relative change 5.000e-1",
            ]
        );
    }

    #[test]
    fn tenant_counters_report_slowdowns() {
        let solo = TenantCounters {
            finish_time: Nanos::new(1_000),
            ..TenantCounters::default()
        };
        let contended = TenantCounters {
            finish_time: Nanos::new(2_500),
            ..TenantCounters::default()
        };
        assert!((contended.slowdown_over(&solo) - 2.5).abs() < 1e-12);
        assert_eq!(solo.slowdown_over(&TenantCounters::default()), 0.0);
        assert_eq!(solo.requests.total(), 0);
    }
}
