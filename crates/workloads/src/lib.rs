//! Synthetic workload generators for the SkyByte evaluation.
//!
//! The paper evaluates seven multi-threaded, data-intensive benchmarks
//! (Table I): `bc` (GAP), `bfs-dense` and `srad` (Rodinia), `radix`
//! (Splash-3), `ycsb` and `tpcc` (WHISPER / N-Store) and `dlrm`. The original
//! artifact replays PIN instruction traces of these programs; those traces
//! are not redistributable here, so this crate generates **synthetic traces
//! with the same published characteristics**:
//!
//! * memory footprint, write ratio and LLC MPKI exactly as listed in Table I
//!   (scaled down together with the simulated SSD so the
//!   footprint-to-SSD-DRAM ratio is preserved),
//! * intra-page cacheline coverage matching the observation of Figures 5–6
//!   that most workloads touch fewer than 40 % of the cachelines in more than
//!   75 % of pages,
//! * per-domain access patterns (power-law graph neighbourhoods, streaming
//!   sorts, strided stencils, Zipfian key-value lookups, skewed transactional
//!   updates, embedding gathers) that determine how much each workload
//!   benefits from page promotion vs the write log, reproducing the relative
//!   ordering of the paper's per-workload results.
//!
//! # Example
//!
//! ```
//! use skybyte_workloads::{TraceSource, WorkloadKind, WorkloadSource};
//!
//! let spec = WorkloadKind::Bc.spec().scaled_to(64 << 20); // 64 MiB footprint
//! let mut source = WorkloadSource::new(&spec, /*threads*/ 4, /*seed*/ 42);
//! let record = source.next_record(/*thread*/ 0).unwrap().expect("unbounded");
//! assert!(record.addr() < spec.footprint_bytes);
//! assert_eq!(record.size_bytes, 64); // one cacheline
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod generator;
mod locality;
mod source;
mod spec;
mod zipf;

pub use locality::{page_locality_cdf, LocalityCdf};
pub use source::WorkloadSource;
pub use spec::{table1_characteristics, AccessPattern, WorkloadKind, WorkloadSpec};
pub use zipf::Zipf;

// Re-export the trace abstraction so downstream crates can drive the
// simulator from recorded or composed traces without naming skybyte-trace.
pub use skybyte_trace::{TraceError, TraceRecord, TraceSource};
