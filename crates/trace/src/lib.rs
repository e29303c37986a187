//! `skybyte-trace`: record, replay and compose access traces.
//!
//! The SkyByte artifact replays PIN instruction traces of real applications;
//! this crate is the reproduction's equivalent ingestion layer. It defines
//!
//! * the **`.sbt` binary trace format** ([`format`](mod@format)): a compact,
//!   versioned, self-describing container — a provenance header followed by
//!   per-thread streams of varint + zigzag delta-encoded `(timestamp-delta,
//!   address-delta, op, size)` records,
//! * **I/O**: [`TraceWriter`], which streams with at most one buffered
//!   chunk, and [`TraceReader`], which walks a file's in-memory bytes in
//!   file order with the same header, chunk and record decoders replay
//!   uses, and a [`TraceStats`] pass whose footprint / write-ratio /
//!   page-coverage read-outs are directly comparable to the paper's
//!   Table I and Figures 5–6,
//! * the [`TraceSource`] trait unifying live generators and replayed files,
//!   with [`TraceFileSource`] replaying a file's streams from one in-memory
//!   copy through a per-stream chunk index, and a [`Record`] adapter that
//!   tees any source to disk, and
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
//! use skybyte_trace::{TraceHeader, TraceReader, TraceRecord, TraceWriter};
//!
//! let header = TraceHeader {
//!     threads: 1,
//!     footprint_bytes: 1 << 20,
//!     seed: 7,
//!     source: "doc-example".into(),
//!     tenant_of_thread: None,
//! };
//! let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
//! writer.push(0, &TraceRecord::read(12, 0x4000)).unwrap();
//! writer.push(0, &TraceRecord::write(3, 0x4040)).unwrap();
//! let bytes = writer.finish().unwrap();
//!
//! let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
//! assert_eq!(reader.header().source, "doc-example");
//! let (thread, first) = reader.next().unwrap().unwrap();
//! assert_eq!((thread, first.addr()), (0, 0x4000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
    TraceHeader, TraceReader, TraceWriter, FORMAT_VERSION, MAGIC, MAX_SOURCE_IDENTITY_BYTES,
    MAX_THREADS, TENANT_FORMAT_VERSION,
};
pub use record::TraceRecord;
pub use source::{record_to_file, Record, TraceFileSource, TraceSource, VecSource};
pub use stats::TraceStats;
