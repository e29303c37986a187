//! `skybyte-trace`: record, replay and compose access traces.
//!
//! The SkyByte artifact replays PIN instruction traces of real applications;
//! this crate is the reproduction's equivalent ingestion layer. It defines
//!
//! * the **`.sbt` binary trace format** ([`format`](mod@format)): a compact,
//!   versioned, self-describing container — a provenance header followed by
//!   per-thread streams of varint + zigzag delta-encoded `(timestamp-delta,
//!   address-delta, op, size)` records,
//! * **I/O**: [`record_to_file`], the one writer, which drains a source's
//!   streams one thread at a time into a file it puts in place only once
//!   whole; [`TraceFileSource`], the one reader, which reads a file into
//!   memory once and replays its streams through a per-stream chunk index;
//!   and a [`TraceStats`] pass over a [`TraceFileSource`] whose footprint /
//!   write-ratio / page-coverage read-outs are directly comparable to the
//!   paper's Table I and Figures 5–6,
//! * the [`TraceSource`] trait, which unifies live generators and replayed
//!   files, and
//! * **compositors** ([`Mix`], [`Concat`], [`LoopN`], [`Shift`], and the
//!   thread-stacking [`Tenants`]) that build multi-tenant scenarios out of
//!   existing traces; every source reports its thread → tenant partition
//!   through [`TraceSource::tenant_map`].
//!
//! Everything is deterministic, so a recorded trace replayed through the
//! simulator produces bit-identical results to the live run that recorded
//! it (`tests/trace_replay.rs` at the workspace root locks this).
//!
//! # Example
//!
//! ```
//! use skybyte_trace::{
//!     record_to_file, TraceFileSource, TraceHeader, TraceRecord, TraceSource, VecSource,
//! };
//!
//! let header = TraceHeader {
//!     threads: 1,
//!     footprint_bytes: 1 << 20,
//!     seed: 7,
//!     source: "doc-example".into(),
//!     tenant_of_thread: None,
//! };
//! let stream = vec![TraceRecord::read(12, 0x4000), TraceRecord::write(3, 0x4040)];
//! let mut source = VecSource::new("doc-example", vec![stream]);
//! let path = std::env::temp_dir().join(format!("doc-example-{}.sbt", std::process::id()));
//! assert_eq!(record_to_file(&mut source, &path, &header, u64::MAX).unwrap(), 2);
//!
//! let mut replay = TraceFileSource::open(&path).unwrap();
//! assert_eq!(replay.header().source, "doc-example");
//! let first = replay.next_record(0).unwrap().unwrap();
//! assert_eq!(first.addr(), 0x4000);
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod compose;
pub mod error;
pub mod format;
pub mod record;
pub mod source;
pub mod stats;
mod varint;

pub use compose::{BoxedSource, Concat, LoopN, Mix, Shift, Tenants};
pub use error::TraceError;
pub use format::{
    TraceHeader, FORMAT_VERSION, MAGIC, MAX_SOURCE_IDENTITY_BYTES, MAX_THREADS,
    TENANT_FORMAT_VERSION,
};
pub use record::TraceRecord;
pub use source::{record_to_file, TraceFileSource, TraceSource, VecSource};
pub use stats::TraceStats;
