//! The golden-trace regression corpus.
//!
//! A small set of canonical `.sbt` traces is checked into the repository
//! under `corpus/`, together with a pinned golden [`SimResult`] (as JSON)
//! for each trace × design-variant pair. `trace verify-corpus` replays every
//! pair, diffs the result **path by path** against its golden, and runs
//! the cross-layer conservation audit on it — so an engine change that
//! shifts any number at all fails CI with the exact fields (or invariants)
//! that moved, including changes the shape-asserting unit tests cannot see.
//!
//! The corpus mixes two kinds of trace:
//!
//! * **recorded** — tiny-scale synthetic workload streams captured through
//!   the standard recording path (a 1-thread stream and a heavily
//!   oversubscribed max-thread stream);
//! * **crafted** — hand-written pathological streams generated by pure
//!   functions (single hot page, pure sequential writes, a footprint at the
//!   device's capacity edge), which no synthetic generator produces.
//!
//! Both kinds regenerate deterministically, so `trace verify-corpus --pin`
//! re-records the whole corpus byte-identically (for any `--jobs` value);
//! after an *intentional* behaviour change, `--pin` is how the goldens are
//! re-pinned, and the diff of the JSON files documents the change's impact.

use skybyte_sim::audit::audit;
use skybyte_sim::metrics::DiffSummary;
use skybyte_sim::runner::parallel_map;
use skybyte_sim::{ExperimentScale, SimResult, Simulation, TelemetryOutput};
use skybyte_trace::{
    record_to_file, BoxedSource, Mix, Shift, TraceFileSource, TraceHeader, TraceRecord,
    TraceSource, VecSource,
};
use skybyte_types::{SimConfig, TelemetryConfig, VariantKind, KIB, MIB, PAGE_SIZE};
use skybyte_workloads::{WorkloadKind, WorkloadSource};
use std::path::{Path, PathBuf};

/// The design variants every corpus trace is replayed under: the baseline,
/// the full design, and the write-log-only ablation (page-granular vs
/// log-structured write paths exercise disjoint accounting).
pub const CORPUS_VARIANTS: [VariantKind; 3] = [
    VariantKind::BaseCssd,
    VariantKind::SkyByteFull,
    VariantKind::SkyByteW,
];

/// How a corpus trace's record streams are produced.
enum EntrySource {
    /// Captured from the standard synthetic-workload recording path.
    Recorded {
        workload: WorkloadKind,
        threads: u32,
        accesses_per_thread: u64,
    },
    /// Generated by a pure function: record `i` of thread `t`.
    Crafted {
        threads: u32,
        footprint_bytes: u64,
        records_per_thread: u64,
        gen: fn(t: u32, i: u64) -> TraceRecord,
    },
    /// Built by draining a deterministic compositor stack ([`Mix`],
    /// [`Shift`], …) over synthetic sources, so the compositors' stream
    /// behaviour — not just the formats round-tripping — is golden-pinned.
    Composed {
        threads: u32,
        footprint_bytes: u64,
        records_per_thread: u64,
        build: fn() -> BoxedSource,
    },
}

/// One corpus trace plus the metadata needed to replay it.
pub struct CorpusEntry {
    /// File stem of the trace (`corpus/traces/<name>.sbt`).
    pub name: &'static str,
    /// Workload label the replayed results carry (crafted streams use a
    /// carrier label; the golden pins it either way).
    pub label: WorkloadKind,
    source: EntrySource,
}

impl CorpusEntry {
    /// Path of this entry's trace file under the corpus root.
    pub fn trace_path(&self, corpus: &Path) -> PathBuf {
        corpus.join("traces").join(format!("{}.sbt", self.name))
    }

    /// Path of this entry's golden result for `variant`.
    pub fn golden_path(&self, corpus: &Path, variant: VariantKind) -> PathBuf {
        corpus
            .join("golden")
            .join(format!("{}--{variant}.json", self.name))
    }

    /// (Re)generates this entry's `.sbt` file. Deterministic: the bytes are
    /// identical on every invocation.
    pub fn record(&self, corpus: &Path) -> Result<(), String> {
        let path = self.trace_path(corpus);
        match &self.source {
            EntrySource::Recorded {
                workload,
                threads,
                accesses_per_thread,
            } => {
                let scale = ExperimentScale::tiny().with_accesses_per_thread(*accesses_per_thread);
                let cfg = scale.apply(SimConfig::default()).with_threads(*threads);
                Simulation::with_config(cfg, *workload, &scale)
                    .record_trace_file(&path)
                    .map_err(|e| format!("recording {}: {e}", self.name))?;
            }
            EntrySource::Crafted {
                threads,
                footprint_bytes,
                records_per_thread,
                gen,
            } => {
                let header = TraceHeader {
                    threads: *threads,
                    footprint_bytes: *footprint_bytes,
                    seed: 0,
                    source: format!("corpus:{}:crafted", self.name),
                    tenant_of_thread: None,
                };
                let streams = (0..*threads)
                    .map(|t| (0..*records_per_thread).map(|i| gen(t, i)).collect())
                    .collect();
                record_to_file(
                    &mut VecSource::new(self.name, streams),
                    &path,
                    &header,
                    u64::MAX,
                )
                .map_err(|e| format!("writing {}: {e}", self.name))?;
            }
            EntrySource::Composed {
                threads,
                footprint_bytes,
                records_per_thread,
                build,
            } => {
                let mut source = build();
                if source.threads() != *threads {
                    return Err(format!(
                        "{}: composed source has {} thread(s), entry declares {threads}",
                        self.name,
                        source.threads()
                    ));
                }
                // Corpus traces stay tenant-agnostic (version 1) even for
                // composed entries: their golden bytes are pinned and must
                // keep verifying without re-recording.
                let header = TraceHeader {
                    threads: *threads,
                    footprint_bytes: *footprint_bytes,
                    seed: 0,
                    source: source.identity(),
                    tenant_of_thread: None,
                };
                record_to_file(&mut source, &path, &header, *records_per_thread)
                    .map_err(|e| format!("composing {}: {e}", self.name))?;
            }
        }
        Ok(())
    }

    /// Replays this entry's trace under `variant` through the same
    /// replay-configuration path as `trace replay`
    /// ([`crate::replay_trace_file`]): tiny-scale device sized around the
    /// trace's footprint, thread count from the header, with `telemetry`
    /// riding along. Telemetry is observe-only, so the [`SimResult`] must
    /// equal the pinned golden either way — `crates/bench/tests/corpus.rs`
    /// locks this for every corpus pair.
    pub fn replay(
        &self,
        corpus: &Path,
        variant: VariantKind,
        telemetry: TelemetryConfig,
    ) -> Result<(SimResult, Option<TelemetryOutput>), String> {
        let source = TraceFileSource::open(&self.trace_path(corpus))
            .map_err(|e| format!("{}: cannot open trace: {e}", self.name))?;
        crate::replay_trace_file(
            source,
            variant,
            self.label,
            ExperimentScale::tiny(),
            &[], // the corpus pins default-policy behaviour
            telemetry,
        )
        .map_err(|e| format!("{} under {variant}: {e}", self.name))
    }
}

/// The canonical corpus: recorded tiny-scale workloads plus hand-crafted
/// pathological streams.
pub fn entries() -> Vec<CorpusEntry> {
    vec![
        // A single-thread recorded stream: scheduling is trivial, so any
        // drift is pure engine/device accounting.
        CorpusEntry {
            name: "ycsb-one-thread",
            label: WorkloadKind::Ycsb,
            source: EntrySource::Recorded {
                workload: WorkloadKind::Ycsb,
                threads: 1,
                accesses_per_thread: 100,
            },
        },
        // A heavily oversubscribed recorded stream (16 threads on 8 cores):
        // maximum scheduler pressure, write-heavy (tpcc).
        CorpusEntry {
            name: "tpcc-max-thread",
            label: WorkloadKind::Tpcc,
            source: EntrySource::Recorded {
                workload: WorkloadKind::Tpcc,
                threads: 16,
                accesses_per_thread: 100,
            },
        },
        // Every access hits one page: the degenerate locality extreme (pure
        // SSD-DRAM hits after the first touch, promotion bait).
        CorpusEntry {
            name: "hot-page",
            label: WorkloadKind::Ycsb,
            source: EntrySource::Crafted {
                threads: 1,
                footprint_bytes: PAGE_SIZE as u64,
                records_per_thread: 512,
                gen: |_t, i| {
                    let addr = (i * 7 % 64) * 64;
                    if i % 3 == 0 {
                        TraceRecord::write(20, addr)
                    } else {
                        TraceRecord::read(20, addr)
                    }
                },
            },
        },
        // Pure sequential writes from two threads: the write log's best case
        // and the page-granular read-modify-write path's worst case.
        CorpusEntry {
            name: "pure-write",
            label: WorkloadKind::Tpcc,
            source: EntrySource::Crafted {
                threads: 2,
                footprint_bytes: 512 * KIB,
                records_per_thread: 256,
                gen: |t, i| {
                    let addr = ((t as u64 * 4096 + i) * 64) % (512 * KIB);
                    TraceRecord::write(10, addr)
                },
            },
        },
        // A Mix-composed two-tenant stream (read-mostly ycsb 2:1 against
        // write-heavy tpcc): pins the smooth-weighted-RR interleave's
        // engine-facing behaviour, not just its record counts.
        CorpusEntry {
            name: "mix-ycsb-tpcc",
            label: WorkloadKind::Ycsb,
            source: EntrySource::Composed {
                threads: 2,
                footprint_bytes: 4 * MIB,
                records_per_thread: 300,
                build: || {
                    let ycsb =
                        WorkloadSource::new(&WorkloadKind::Ycsb.spec().scaled_to(4 * MIB), 2, 11);
                    let tpcc =
                        WorkloadSource::new(&WorkloadKind::Tpcc.spec().scaled_to(4 * MIB), 2, 12);
                    Box::new(Mix::new(vec![
                        (Box::new(ycsb) as BoxedSource, 2),
                        (Box::new(tpcc) as BoxedSource, 1),
                    ]))
                },
            },
        },
        // A Shift-rebased stream: the same generator output displaced by a
        // page-aligned offset, pinning the compositor's address arithmetic
        // through the whole engine (page table, cache indexing, FTL).
        CorpusEntry {
            name: "shift-ycsb",
            label: WorkloadKind::Ycsb,
            source: EntrySource::Composed {
                threads: 2,
                // Header covers base footprint (2 MiB) + 1 MiB shift.
                footprint_bytes: 3 * MIB,
                records_per_thread: 256,
                build: || {
                    let inner =
                        WorkloadSource::new(&WorkloadKind::Ycsb.spec().scaled_to(2 * MIB), 2, 13);
                    Box::new(Shift::new(Box::new(inner) as BoxedSource, MIB))
                },
            },
        },
        // A footprint at exactly half the tiny-scale flash capacity — the
        // largest footprint `trace replay` accepts — with strided page
        // touches and a write share. Even here the preconditioned pages stay
        // below the GC threshold, so GC does not run.
        CorpusEntry {
            name: "capacity-edge",
            label: WorkloadKind::Bc,
            source: EntrySource::Crafted {
                threads: 4,
                footprint_bytes: 8 * MIB,
                records_per_thread: 256,
                gen: |t, i| {
                    let pages = 8 * MIB / PAGE_SIZE as u64;
                    let page = (i * 131 + t as u64 * 37) % pages;
                    let addr = page * PAGE_SIZE as u64 + (i % 64) * 64;
                    if i % 3 == 0 {
                        TraceRecord::write(30, addr)
                    } else {
                        TraceRecord::read(30, addr)
                    }
                },
            },
        },
        // Four threads each write 512 cachelines (cacheline `t` of 512
        // consecutive pages) twice over. The 4,096 writes outrun the
        // tiny-scale log's two 512-entry buffers while the first compaction
        // is still flushing, so the write log appends under back-pressure
        // and overwrites entries in place, and the run ends with entries
        // still resident in the active buffer.
        CorpusEntry {
            name: "log-back-pressure",
            label: WorkloadKind::Tpcc,
            source: EntrySource::Crafted {
                threads: 4,
                footprint_bytes: 4 * MIB,
                records_per_thread: 1024,
                gen: |t, i| {
                    let pages = 4 * MIB / PAGE_SIZE as u64;
                    let page = (t as u64 * 256 + i % 512) % pages;
                    TraceRecord::write(10, page * PAGE_SIZE as u64 + t as u64 * 64)
                },
            },
        },
    ]
}

/// Outcome of a corpus verification pass.
pub struct CorpusReport {
    /// Number of (trace, variant) pairs replayed.
    pub pairs: usize,
    /// One failure record per mismatching pair: the pair's name followed by
    /// its field-level diff and/or audit violations, one line each.
    pub failures: Vec<String>,
    /// One line per path that diverged from its golden, with array indices
    /// collapsed to `[]`: how many pairs it moved in, and whether it was
    /// removed, added or changed by how much ([`DiffSummary::lines`]).
    pub summary: Vec<String>,
}

impl CorpusReport {
    /// Whether every pair reproduced its golden and conserved.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the failure list (empty string when clean).
    pub fn render_failures(&self) -> String {
        self.failures.join("\n")
    }

    /// Renders the per-path summary under a heading.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "{} path(s) diverged from the goldens (indices collapsed to []):",
            self.summary.len()
        );
        for line in &self.summary {
            out.push_str("\n  ");
            out.push_str(line);
        }
        out
    }
}

/// Re-records the corpus traces and re-pins the golden results under
/// `corpus` for the entries named in `only` (every entry when `None`).
/// Deterministic: the produced bytes are identical for any `jobs` value, so
/// running this twice (or on two machines) yields a clean `git diff`.
///
/// A filtered pin is how *new* entries are added without rewriting the
/// existing goldens. A change to the `SimResult` schema is not such a case:
/// the verifier reads every golden under the current schema, so a schema
/// change means a full pin (`only` = `None`).
pub fn pin_entries(corpus: &Path, jobs: usize, only: Option<&[String]>) -> Result<usize, String> {
    // Record, replay and validate everything in a scratch root first: a
    // generator change that fails replay or violates an audit invariant must
    // leave the pinned corpus — traces *and* goldens — untouched, not half
    // old, half new.
    let staging = corpus.join(format!(".pin-staging-{}", std::process::id()));
    let outcome = pin_into_staging(&staging, corpus, jobs, only);
    std::fs::remove_dir_all(&staging).ok();
    outcome
}

/// The body of [`pin_entries`]: stages under `staging`, and only on full
/// success moves the staged files over the real corpus.
fn pin_into_staging(
    staging: &Path,
    corpus: &Path,
    jobs: usize,
    only: Option<&[String]>,
) -> Result<usize, String> {
    std::fs::create_dir_all(staging.join("traces")).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(staging.join("golden")).map_err(|e| e.to_string())?;
    let mut entries = entries();
    if let Some(names) = only {
        for name in names {
            if !entries.iter().any(|e| e.name == name) {
                return Err(format!(
                    "no corpus entry named '{name}' (have: {})",
                    entries
                        .iter()
                        .map(|e| e.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        entries.retain(|e| names.iter().any(|n| n == e.name));
    }
    for e in &entries {
        e.record(staging)?;
    }
    let pairs: Vec<(usize, VariantKind)> = entries
        .iter()
        .enumerate()
        .flat_map(|(i, _)| CORPUS_VARIANTS.map(|v| (i, v)))
        .collect();
    let results = parallel_map(jobs, &pairs, |&(ei, variant)| {
        entries[ei].replay(staging, variant, TelemetryConfig::default())
    });
    for ((ei, variant), result) in pairs.iter().zip(results) {
        let (result, _) = result?;
        let entry = &entries[*ei];
        let report = audit(&result);
        if !report.is_clean() {
            return Err(format!(
                "refusing to pin: {} under {variant} violates the \
                 conservation audit — fix the engine first:\n{report}",
                entry.name
            ));
        }
        let json = serde_json::to_string_pretty(&result)
            .map_err(|e| format!("{}: serialise golden: {e}", entry.name))?;
        std::fs::write(entry.golden_path(staging, *variant), json + "\n")
            .map_err(|e| format!("{}: write staged golden: {e}", entry.name))?;
    }
    // Everything validated: move the staged corpus into place.
    std::fs::create_dir_all(corpus.join("traces")).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(corpus.join("golden")).map_err(|e| e.to_string())?;
    for entry in &entries {
        std::fs::rename(entry.trace_path(staging), entry.trace_path(corpus))
            .map_err(|e| format!("{}: install trace: {e}", entry.name))?;
        for variant in CORPUS_VARIANTS {
            std::fs::rename(
                entry.golden_path(staging, variant),
                entry.golden_path(corpus, variant),
            )
            .map_err(|e| format!("{}: install golden: {e}", entry.name))?;
        }
    }
    // Sweep files a renamed/removed entry left behind: verify() ignores
    // them, so without this they would linger as dead, never-re-verified
    // golden data. A filtered pin skips the sweep — the unfiltered entries'
    // files are intentionally untouched, not stale.
    if only.is_some() {
        return Ok(pairs.len());
    }
    let expected: std::collections::HashSet<PathBuf> = entries
        .iter()
        .flat_map(|e| {
            std::iter::once(e.trace_path(corpus))
                .chain(CORPUS_VARIANTS.iter().map(|v| e.golden_path(corpus, *v)))
        })
        .collect();
    for (sub, ext) in [("traces", "sbt"), ("golden", "json")] {
        let dir = std::fs::read_dir(corpus.join(sub)).map_err(|e| e.to_string())?;
        for f in dir {
            let path = f.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|x| x == ext) && !expected.contains(&path) {
                std::fs::remove_file(&path)
                    .map_err(|e| format!("cannot sweep stale {}: {e}", path.display()))?;
                eprintln!("swept stale corpus file {}", path.display());
            }
        }
    }
    Ok(pairs.len())
}

/// Replays every corpus pair and verifies it against its pinned golden,
/// path by path ([`SimResult::diff_against_json`], so a golden key the
/// result no longer has fails too), plus the conservation audit, and sums
/// the diffs up per path. Output is identical for any `jobs` value.
pub fn verify(corpus: &Path, jobs: usize) -> Result<CorpusReport, String> {
    let entries = entries();
    let pairs: Vec<(usize, VariantKind)> = entries
        .iter()
        .enumerate()
        .flat_map(|(i, _)| CORPUS_VARIANTS.map(|v| (i, v)))
        .collect();
    let results = parallel_map(jobs, &pairs, |&(ei, variant)| {
        entries[ei].replay(corpus, variant, TelemetryConfig::default())
    });
    let mut failures = Vec::new();
    let mut summary = DiffSummary::default();
    for ((ei, variant), result) in pairs.iter().zip(results) {
        let entry = &entries[*ei];
        let pair = format!("{} under {variant}", entry.name);
        let result = match result {
            Ok((r, _)) => r,
            Err(e) => {
                failures.push(format!("{pair}: {e}"));
                continue;
            }
        };
        let golden_path = entry.golden_path(corpus, *variant);
        let golden_json = match std::fs::read_to_string(&golden_path) {
            Ok(j) => j,
            Err(e) => {
                failures.push(format!(
                    "{pair}: missing golden {} ({e}); run `trace verify-corpus --pin` \
                     to (re-)pin the corpus",
                    golden_path.display()
                ));
                continue;
            }
        };
        let diff = match result.diff_against_json(&golden_json) {
            Ok(d) => d,
            Err(e) => {
                failures.push(format!("{pair}: unparsable golden: {e}"));
                continue;
            }
        };
        // One failure record per pair: a pair that both diverges from its
        // golden and violates the audit yields a single combined record, so
        // the "N of M pairs diverged" headline counts pairs, not symptoms.
        let mut problems = Vec::new();
        if !diff.is_empty() {
            let mut lines = format!("{} field(s) diverged from the golden:", diff.len());
            for d in &diff {
                lines.push_str(&format!("\n  {d}"));
            }
            problems.push(lines);
            summary.add_pair(&diff);
        }
        let report = audit(&result);
        if !report.is_clean() {
            problems.push(report.to_string());
        }
        if !problems.is_empty() {
            failures.push(format!("{pair}: {}", problems.join("\n")));
        }
    }
    Ok(CorpusReport {
        pairs: pairs.len(),
        failures,
        summary: summary.lines(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_entries_are_well_formed() {
        let es = entries();
        assert!(es.len() >= 5);
        let mut names: Vec<_> = es.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), es.len(), "entry names must be unique");
        // The capacity-edge entry sits exactly at the replay guard's limit.
        let edge = es.iter().find(|e| e.name == "capacity-edge").unwrap();
        match edge.source {
            EntrySource::Crafted {
                footprint_bytes, ..
            } => {
                assert_eq!(
                    footprint_bytes * 2,
                    ExperimentScale::tiny().flash_bytes(),
                    "capacity-edge must sit at the footprint guard"
                );
            }
            _ => panic!("capacity-edge must be crafted"),
        }
    }

    #[test]
    fn composed_entries_cover_mix_and_shift() {
        let es = entries();
        for name in ["mix-ycsb-tpcc", "shift-ycsb"] {
            let entry = es.iter().find(|e| e.name == name).unwrap();
            match &entry.source {
                EntrySource::Composed {
                    build,
                    threads,
                    footprint_bytes,
                    ..
                } => {
                    let source = build();
                    assert_eq!(source.threads(), *threads);
                    // The composed footprint must respect the tiny-scale
                    // replay guard (footprint * 2 <= flash).
                    assert!(footprint_bytes * 2 <= ExperimentScale::tiny().flash_bytes());
                }
                _ => panic!("{name} must be composed"),
            }
        }
        // Building twice yields identical identities (determinism).
        let mix = es.iter().find(|e| e.name == "mix-ycsb-tpcc").unwrap();
        if let EntrySource::Composed { build, .. } = &mix.source {
            assert_eq!(build().identity(), build().identity());
            assert!(build().identity().starts_with("mix("));
        }
    }

    #[test]
    fn filtered_pin_rejects_unknown_entries() {
        let dir = std::env::temp_dir().join(format!("skybyte-pin-bogus-{}", std::process::id()));
        let err = pin_entries(&dir, 1, Some(&["bogus".to_string()])).unwrap_err();
        assert!(err.contains("no corpus entry named 'bogus'"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
