//! The `.sbt` (SkyByte trace) binary format.
//!
//! An `.sbt` file is a self-describing, versioned container for the
//! per-thread access streams of one workload execution:
//!
//! ```text
//! magic   8 bytes   b"SBTRACE\0"
//! version varint    format version (1, or 2 when a tenant table follows)
//! threads varint    number of thread streams
//! footprint varint  workload footprint in bytes (provenance)
//! seed    varint    generator seed (provenance)
//! source  varint n + n bytes   UTF-8 identity of the producing source
//! tenants varint n + n varints   thread→tenant table (version 2 only;
//!                   n == threads, each id < threads)
//! chunk*            until EOF
//! ```
//!
//! Version 2 differs from version 1 **only** by the tenant table: a header
//! without one serialises byte-identically to version 1, so tenant-agnostic
//! producers keep emitting files older readers accept, and the golden
//! corpus stays bit-stable.
//!
//! Each chunk interleaves one thread's records:
//!
//! ```text
//! thread  varint    stream index (< threads)
//! count   varint    number of records in this chunk (>= 1)
//! bytes   varint    encoded payload length (allows O(1) skipping)
//! payload           count records:
//!     instructions  varint          (timestamp delta)
//!     addr-delta    zigzag varint   vs the previous record of the SAME thread
//!     op            1 byte          0 = read, 1 = write
//!     size          varint          access size in bytes
//! ```
//!
//! Address deltas chain per thread across chunks (wrapping `u64`
//! arithmetic), so hot/cold pointer-chasing streams stay compact while a
//! reader that filters a single thread can skip foreign chunks without
//! decoding them. A chunk's `count` records must fill its declared
//! `bytes` exactly, and its payload must lie inside the file; anything
//! else is a [`TraceError`].
//!
//! [`TraceWriter`] streams with at most one buffered chunk. Every reader
//! decodes a file's in-memory bytes with one header decoder, one chunk
//! walk and one record decoder, so all of them frame a file alike:
//! [`TraceReader`] walks the chunks in file order, and replay
//! (`TraceFileSource`) indexes chunk offsets per stream as its streams
//! first need them.

use crate::error::TraceError;
use crate::record::TraceRecord;
use crate::varint;
use skybyte_types::AccessKind;
use std::io::{BufWriter, Write};
use std::path::Path;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"SBTRACE\0";

/// The base format version (no tenant table). Headers without a
/// [`TraceHeader::tenant_of_thread`] table are always written at this
/// version so tenant-agnostic files stay byte-identical to older releases.
pub const FORMAT_VERSION: u32 = 1;

/// The tenant-aware format version: identical to [`FORMAT_VERSION`] plus a
/// thread→tenant table at the end of the header. Written only when the
/// header carries a table.
pub const TENANT_FORMAT_VERSION: u32 = 2;

/// Records buffered per chunk by the writer before flushing.
const CHUNK_RECORDS: u64 = 512;

/// Maximum stored length of the header's source-identity string, in bytes.
/// The writer truncates longer identities (compositor identities compound
/// recursively and can grow without bound); the reader rejects anything
/// larger as corrupt.
pub const MAX_SOURCE_IDENTITY_BYTES: usize = 4096;

/// Maximum number of thread streams a header may declare. Readers allocate
/// per-thread state from the declared count before any record is read, so
/// the reader rejects larger counts as corrupt instead of allocating for
/// them, and the writer refuses to produce such a file.
pub const MAX_THREADS: u32 = 65_536;

/// Truncates `s` to at most [`MAX_SOURCE_IDENTITY_BYTES`] on a UTF-8
/// boundary.
fn clip_identity(s: &str) -> &str {
    if s.len() <= MAX_SOURCE_IDENTITY_BYTES {
        return s;
    }
    let mut end = MAX_SOURCE_IDENTITY_BYTES;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// The self-describing provenance header of an `.sbt` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Number of per-thread streams in the file, 1 to [`MAX_THREADS`].
    pub threads: u32,
    /// Footprint of the traced workload in bytes (provenance; compositors
    /// propagate the maximum of their inputs).
    pub footprint_bytes: u64,
    /// Seed of the generator that produced the trace (provenance).
    pub seed: u64,
    /// Free-form identity of the producing source.
    pub source: String,
    /// Optional thread→tenant table (`table[thread] == tenant id`). `None`
    /// serialises as version 1, byte-identical to tenant-unaware files;
    /// `Some` bumps the file to [`TENANT_FORMAT_VERSION`]. When present the
    /// table must have exactly [`threads`](Self::threads) entries, each
    /// `< threads` (tenant ids are dense, at most one per thread).
    pub tenant_of_thread: Option<Vec<u32>>,
}

impl TraceHeader {
    /// Serialises the header, or refuses one the reader would reject.
    /// Source identities longer than [`MAX_SOURCE_IDENTITY_BYTES`] are
    /// truncated so the file stays readable.
    fn encode(&self) -> Result<Vec<u8>, TraceError> {
        if self.threads == 0 || self.threads > MAX_THREADS {
            return Err(TraceError::Corrupt("thread count out of range"));
        }
        let source = clip_identity(&self.source);
        let version = if self.tenant_of_thread.is_some() {
            TENANT_FORMAT_VERSION
        } else {
            FORMAT_VERSION
        };
        let mut out = MAGIC.to_vec();
        varint::write_u64(&mut out, version as u64)?;
        varint::write_u64(&mut out, self.threads as u64)?;
        varint::write_u64(&mut out, self.footprint_bytes)?;
        varint::write_u64(&mut out, self.seed)?;
        varint::write_u64(&mut out, source.len() as u64)?;
        out.extend_from_slice(source.as_bytes());
        if let Some(table) = &self.tenant_of_thread {
            if table.len() != self.threads as usize {
                return Err(TraceError::Corrupt(
                    "tenant table length does not match thread count",
                ));
            }
            varint::write_u64(&mut out, table.len() as u64)?;
            for &tenant in table {
                if tenant >= self.threads {
                    return Err(TraceError::Corrupt("tenant id out of range"));
                }
                varint::write_u64(&mut out, tenant as u64)?;
            }
        }
        Ok(out)
    }

    /// Decodes the header from the front of a file's bytes and advances
    /// `input` to the first chunk.
    pub(crate) fn decode(input: &mut &[u8]) -> Result<Self, TraceError> {
        let (magic, rest) = input
            .split_first_chunk::<8>()
            .ok_or(TraceError::Truncated {
                context: "file shorter than the magic",
            })?;
        if *magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        *input = rest;
        let version = varint::take_u64(input)?;
        if version != FORMAT_VERSION.into() && version != TENANT_FORMAT_VERSION.into() {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let threads = varint::take_u64(input)?;
        if threads == 0 || threads > MAX_THREADS as u64 {
            return Err(TraceError::Corrupt("thread count out of range"));
        }
        let footprint_bytes = varint::take_u64(input)?;
        let seed = varint::take_u64(input)?;
        let name_len = varint::take_u64(input)?;
        if name_len > MAX_SOURCE_IDENTITY_BYTES as u64 {
            return Err(TraceError::Corrupt("source identity too long"));
        }
        let (name, rest) =
            input
                .split_at_checked(name_len as usize)
                .ok_or(TraceError::Truncated {
                    context: "header ended mid source identity",
                })?;
        *input = rest;
        let source = std::str::from_utf8(name)
            .map_err(|_| TraceError::Corrupt("source identity is not UTF-8"))?
            .to_string();
        let tenant_of_thread = if version == TENANT_FORMAT_VERSION.into() {
            let len = varint::take_u64(input)?;
            if len != threads {
                return Err(TraceError::Corrupt(
                    "tenant table length does not match thread count",
                ));
            }
            let mut table = Vec::with_capacity(len as usize);
            for _ in 0..len {
                let tenant = varint::take_u64(input)?;
                if tenant >= threads {
                    return Err(TraceError::Corrupt("tenant id out of range"));
                }
                table.push(tenant as u32);
            }
            Some(table)
        } else {
            None
        };
        Ok(TraceHeader {
            threads: threads as u32,
            footprint_bytes,
            seed,
            source,
            tenant_of_thread,
        })
    }
}

/// Streaming `.sbt` writer with O(1) memory (at most one buffered chunk).
///
/// Records are appended with [`push`](Self::push) in any thread interleaving;
/// [`finish`](Self::finish) flushes the trailing chunk. Dropping the writer
/// without finishing loses the buffered tail.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    threads: u32,
    /// Previous absolute address per thread (delta-chain state).
    last_addr: Vec<u64>,
    /// Thread the buffered chunk belongs to.
    chunk_thread: u32,
    /// Encoded records of the buffered chunk.
    chunk: Vec<u8>,
    chunk_count: u64,
    records: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace on `out`, writing the header immediately.
    pub fn new(out: W, header: &TraceHeader) -> Result<Self, TraceError> {
        Self::start(out, header, &header.encode()?)
    }

    /// Starts a trace on `out` by writing `encoded`, the header's bytes.
    fn start(mut out: W, header: &TraceHeader, encoded: &[u8]) -> Result<Self, TraceError> {
        out.write_all(encoded)?;
        Ok(TraceWriter {
            out,
            threads: header.threads,
            last_addr: vec![0; header.threads as usize],
            chunk_thread: 0,
            chunk: Vec::new(),
            chunk_count: 0,
            records: 0,
        })
    }

    /// Appends one record to `thread`'s stream.
    pub fn push(&mut self, thread: u32, record: &TraceRecord) -> Result<(), TraceError> {
        if thread >= self.threads {
            return Err(TraceError::ThreadOutOfRange {
                threads: self.threads,
                requested: thread,
            });
        }
        if self.chunk_count > 0
            && (thread != self.chunk_thread || self.chunk_count >= CHUNK_RECORDS)
        {
            self.flush_chunk()?;
        }
        self.chunk_thread = thread;
        let prev = &mut self.last_addr[thread as usize];
        varint::write_u64(&mut self.chunk, record.instructions)?;
        let delta = varint::address_delta(*prev, record.addr());
        varint::write_u64(&mut self.chunk, varint::zigzag(delta))?;
        *prev = record.addr();
        self.chunk.push(record.access.kind.is_write() as u8);
        varint::write_u64(&mut self.chunk, record.size_bytes as u64)?;
        self.chunk_count += 1;
        self.records += 1;
        Ok(())
    }

    /// Total records pushed so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        if self.chunk_count == 0 {
            return Ok(());
        }
        varint::write_u64(&mut self.out, self.chunk_thread as u64)?;
        varint::write_u64(&mut self.out, self.chunk_count)?;
        varint::write_u64(&mut self.out, self.chunk.len() as u64)?;
        self.out.write_all(&self.chunk)?;
        self.chunk.clear();
        self.chunk_count = 0;
        Ok(())
    }

    /// Flushes the trailing chunk and the underlying writer, returning it.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.flush_chunk()?;
        self.out.flush()?;
        Ok(self.out)
    }
}

impl TraceWriter<BufWriter<std::fs::File>> {
    /// Creates (truncating) an `.sbt` file at `path`. The header is encoded
    /// first, so one the format cannot hold is an error that leaves no
    /// file behind.
    pub fn create(path: &Path, header: &TraceHeader) -> Result<Self, TraceError> {
        let encoded = header.encode()?;
        let file = std::fs::File::create(path)?;
        Self::start(BufWriter::new(file), header, &encoded)
    }
}

/// A chunk's payload runs past the end of the file.
const PAYLOAD_TRUNCATED: TraceError = TraceError::Truncated {
    context: "chunk payload shorter than its declared length",
};

/// A chunk's records overrun or fall short of its declared payload.
const LENGTH_MISMATCH: &str = "chunk records do not fill its declared length";

/// The undecoded rest of one chunk: `remaining` records in
/// `bytes[pos..end]` of the file, where `end` is the end of the chunk's
/// declared payload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Chunk {
    pos: usize,
    end: usize,
    remaining: u64,
}

impl Chunk {
    /// Decodes the chunk header at `offset` of `bytes`, a file of `threads`
    /// streams, and returns the chunk's thread and records. The payload
    /// must lie inside `bytes`.
    pub(crate) fn at(bytes: &[u8], offset: usize, threads: u32) -> Result<(u32, Self), TraceError> {
        let mut rest = &bytes[offset..];
        let thread = varint::take_u64(&mut rest)?;
        if thread >= threads as u64 {
            return Err(TraceError::Corrupt("chunk thread index out of range"));
        }
        let remaining = varint::take_u64(&mut rest)?;
        if remaining == 0 {
            return Err(TraceError::Corrupt("empty chunk"));
        }
        // A corrupt length can be anything, so it is checked against the
        // bytes that are there before it is added to an offset.
        let len = usize::try_from(varint::take_u64(&mut rest)?)
            .ok()
            .filter(|&len| len <= rest.len())
            .ok_or(PAYLOAD_TRUNCATED)?;
        let pos = bytes.len() - rest.len();
        let end = pos + len;
        Ok((
            thread as u32,
            Chunk {
                pos,
                end,
                remaining,
            },
        ))
    }

    /// Whether every record of the chunk is decoded.
    pub(crate) fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// Decodes the next record from the file's `bytes`, given `last_addr`,
    /// the previous address of the chunk's thread; on an error the chunk
    /// stays where it was. A record that runs past the declared payload, or
    /// a last record that ends before it, is [`LENGTH_MISMATCH`].
    #[inline]
    pub(crate) fn next(&mut self, bytes: &[u8], last_addr: u64) -> Result<TraceRecord, TraceError> {
        // Inside a payload the bytes are all there, so running out is a
        // framing error, not a truncated file.
        let within = |e| match e {
            TraceError::Truncated { .. } => TraceError::Corrupt(LENGTH_MISMATCH),
            e => e,
        };
        let mut rest = &bytes[self.pos..self.end];
        let instructions = varint::take_u64(&mut rest).map_err(within)?;
        let delta = varint::unzigzag(varint::take_u64(&mut rest).map_err(within)?);
        let (tail, kind) = match rest.split_first() {
            Some((0, tail)) => (tail, AccessKind::Read),
            Some((1, tail)) => (tail, AccessKind::Write),
            Some(_) => return Err(TraceError::Corrupt("unknown op byte")),
            None => return Err(TraceError::Corrupt(LENGTH_MISMATCH)),
        };
        rest = tail;
        let size = varint::take_u64(&mut rest).map_err(within)?;
        if size > u32::MAX as u64 {
            return Err(TraceError::Corrupt("access size overflows u32"));
        }
        if self.remaining == 1 && !rest.is_empty() {
            return Err(TraceError::Corrupt(LENGTH_MISMATCH));
        }
        self.pos = self.end - rest.len();
        self.remaining -= 1;
        let addr = varint::apply_delta(last_addr, delta);
        Ok(TraceRecord::new(instructions, addr, kind, size as u32))
    }
}

/// The walk every reader makes over a file's chunks in file order: the
/// chunk whose header starts at `*next`, with its thread, moving `*next`
/// past its payload; `None` at the end of `bytes`.
pub(crate) fn next_chunk(
    bytes: &[u8],
    next: &mut usize,
    threads: u32,
) -> Result<Option<(u32, Chunk)>, TraceError> {
    if *next == bytes.len() {
        return Ok(None);
    }
    let (thread, chunk) = Chunk::at(bytes, *next, threads)?;
    *next = chunk.end;
    Ok(Some((thread, chunk)))
}

/// Reader over **all** thread streams of an `.sbt` file's bytes, yielding
/// `(thread, record)` pairs in file order. Used by the `stat` pass and to
/// read headers.
#[derive(Debug)]
pub struct TraceReader<B> {
    bytes: B,
    header: TraceHeader,
    /// Offset of the next chunk's header.
    next_chunk: usize,
    /// Thread of the current chunk, and its records not yet decoded.
    thread: u32,
    chunk: Chunk,
    /// Previous absolute address per thread (delta-chain state).
    last_addr: Vec<u64>,
}

impl<B: AsRef<[u8]>> TraceReader<B> {
    /// Parses the header of the file whose contents are `bytes`.
    pub fn new(bytes: B) -> Result<Self, TraceError> {
        let mut rest = bytes.as_ref();
        let header = TraceHeader::decode(&mut rest)?;
        Ok(TraceReader {
            next_chunk: bytes.as_ref().len() - rest.len(),
            bytes,
            last_addr: vec![0; header.threads as usize],
            header,
            thread: 0,
            chunk: Chunk::default(),
        })
    }

    /// The file's provenance header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Enters the next chunk in file order; `false` at the end of the file.
    fn enter_next_chunk(&mut self) -> Result<bool, TraceError> {
        let bytes = self.bytes.as_ref();
        let Some((thread, chunk)) = next_chunk(bytes, &mut self.next_chunk, self.header.threads)?
        else {
            return Ok(false);
        };
        (self.thread, self.chunk) = (thread, chunk);
        Ok(true)
    }

    /// The next `(thread, record)` pair, or `None` at the end of the file.
    #[allow(clippy::should_implement_trait)] // fallible streaming next
    pub fn next(&mut self) -> Result<Option<(u32, TraceRecord)>, TraceError> {
        while self.chunk.is_empty() {
            if !self.enter_next_chunk()? {
                return Ok(None);
            }
        }
        let last_addr = &mut self.last_addr[self.thread as usize];
        let record = self.chunk.next(self.bytes.as_ref(), *last_addr)?;
        *last_addr = record.addr();
        Ok(Some((self.thread, record)))
    }
}

impl TraceReader<Vec<u8>> {
    /// Reads the `.sbt` file at `path` into memory.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::new(std::fs::read(path)?)
    }
}

/// The reference model of one replayed stream: a sequential scan of the
/// whole file that decodes `thread`'s chunks and skips every other chunk by
/// its declared length. `TraceFileSource` must give the same record or
/// error on every pull, whatever order its streams are pulled in.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct ThreadReader<B> {
    reader: TraceReader<B>,
    thread: u32,
}

#[cfg(test)]
impl<B: AsRef<[u8]>> ThreadReader<B> {
    /// Reads `thread`'s stream of the file whose contents are `bytes`.
    pub(crate) fn new(bytes: B, thread: u32) -> Result<Self, TraceError> {
        let reader = TraceReader::new(bytes)?;
        let threads = reader.header.threads;
        if thread >= threads {
            return Err(TraceError::ThreadOutOfRange {
                threads,
                requested: thread,
            });
        }
        Ok(ThreadReader { reader, thread })
    }

    /// The next record of this thread's stream, or `None` at the end of the
    /// file.
    pub(crate) fn next(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        while self.reader.chunk.is_empty() || self.reader.thread != self.thread {
            if !self.reader.enter_next_chunk()? {
                return Ok(None);
            }
        }
        Ok(self.reader.next()?.map(|(_, record)| record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{TraceFileSource, TraceSource};
    use proptest::prelude::*;

    fn header(threads: u32) -> TraceHeader {
        TraceHeader {
            threads,
            footprint_bytes: 8 << 20,
            seed: 42,
            source: "unit-test".to_string(),
            tenant_of_thread: None,
        }
    }

    fn encode(threads: u32, records: &[(u32, TraceRecord)]) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), &header(threads)).unwrap();
        for (t, r) in records {
            w.push(*t, r).unwrap();
        }
        w.finish().unwrap()
    }

    fn decode_all(bytes: &[u8]) -> Vec<(u32, TraceRecord)> {
        let mut r = TraceReader::new(bytes).unwrap();
        let mut out = Vec::new();
        while let Some(pair) = r.next().unwrap() {
            out.push(pair);
        }
        out
    }

    #[test]
    fn header_round_trips() {
        let bytes = encode(3, &[]);
        let r = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.header(), &header(3));
    }

    #[test]
    fn records_round_trip_across_threads_and_chunks() {
        let mut records = Vec::new();
        // Interleave threads so chunk switching is exercised, with more
        // records than one chunk holds.
        for i in 0..2_000u64 {
            let t = (i % 3) as u32;
            let r = if i % 4 == 0 {
                TraceRecord::write(i, i * 4096 + t as u64 * 64)
            } else {
                TraceRecord::read(i, (2_000 - i) * 64)
            };
            records.push((t, r));
        }
        let bytes = encode(3, &records);
        assert_eq!(decode_all(&bytes), records);
    }

    #[test]
    fn thread_reader_filters_and_skips() {
        let records: Vec<(u32, TraceRecord)> = (0..600u64)
            .map(|i| ((i % 2) as u32, TraceRecord::read(i, i * 64)))
            .collect();
        let bytes = encode(2, &records);
        for t in 0..2 {
            let mut r = ThreadReader::new(bytes.as_slice(), t).unwrap();
            let mut got = Vec::new();
            while let Some(rec) = r.next().unwrap() {
                got.push(rec);
            }
            let want: Vec<TraceRecord> = records
                .iter()
                .filter(|(rt, _)| *rt == t)
                .map(|(_, r)| *r)
                .collect();
            assert_eq!(got, want, "thread {t}");
        }
        assert!(matches!(
            ThreadReader::new(bytes.as_slice(), 2),
            Err(TraceError::ThreadOutOfRange { .. })
        ));
    }

    #[test]
    fn overlong_source_identities_are_clipped_to_stay_readable() {
        // Compositor identities compound recursively; the writer must clip
        // them so its own output never trips the reader's corruption cap.
        let huge = TraceHeader {
            threads: 1,
            footprint_bytes: 1,
            seed: 0,
            source: "é".repeat(3 * MAX_SOURCE_IDENTITY_BYTES),
            tenant_of_thread: None,
        };
        let mut w = TraceWriter::new(Vec::new(), &huge).unwrap();
        w.push(0, &TraceRecord::read(1, 64)).unwrap();
        let bytes = w.finish().unwrap();
        let r = TraceReader::new(bytes.as_slice()).unwrap();
        assert!(r.header().source.len() <= MAX_SOURCE_IDENTITY_BYTES);
        assert!(r.header().source.starts_with('é'));
    }

    #[test]
    fn tenantless_headers_stay_version_1() {
        // The whole compatibility story: a header without a tenant table
        // must serialise exactly as the previous release did, so the golden
        // corpus verifies without re-pinning.
        let bytes = encode(2, &[]);
        assert_eq!(bytes[MAGIC.len()], FORMAT_VERSION as u8);
        let r = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.header().tenant_of_thread, None);
    }

    #[test]
    fn tenant_tables_bump_the_version_and_round_trip() {
        let mut h = header(4);
        h.tenant_of_thread = Some(vec![0, 0, 1, 1]);
        let mut w = TraceWriter::new(Vec::new(), &h).unwrap();
        w.push(3, &TraceRecord::read(5, 640)).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes[MAGIC.len()], TENANT_FORMAT_VERSION as u8);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.header(), &h);
        assert_eq!(r.next().unwrap(), Some((3, TraceRecord::read(5, 640))));
        // The filtered reader parses the extended header too.
        let mut t = ThreadReader::new(bytes.as_slice(), 3).unwrap();
        assert_eq!(t.next().unwrap(), Some(TraceRecord::read(5, 640)));
    }

    #[test]
    fn malformed_tenant_tables_are_typed_errors() {
        // Writer side: a table that disagrees with the thread count or
        // names an out-of-range tenant never reaches disk.
        let mut short = header(3);
        short.tenant_of_thread = Some(vec![0]);
        assert!(matches!(
            TraceWriter::new(Vec::new(), &short),
            Err(TraceError::Corrupt(_))
        ));
        let mut wild = header(2);
        wild.tenant_of_thread = Some(vec![0, 7]);
        assert!(matches!(
            TraceWriter::new(Vec::new(), &wild),
            Err(TraceError::Corrupt(_))
        ));
        // Reader side: a version-2 header whose table lies about its length
        // or tenant ids is corrupt, not a panic.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        varint::write_u64(&mut bytes, TENANT_FORMAT_VERSION as u64).unwrap();
        varint::write_u64(&mut bytes, 2).unwrap(); // threads
        varint::write_u64(&mut bytes, 1).unwrap(); // footprint
        varint::write_u64(&mut bytes, 0).unwrap(); // seed
        varint::write_u64(&mut bytes, 0).unwrap(); // empty source
        let mut bad_len = bytes.clone();
        varint::write_u64(&mut bad_len, 1).unwrap();
        varint::write_u64(&mut bad_len, 0).unwrap();
        assert!(matches!(
            TraceReader::new(bad_len.as_slice()),
            Err(TraceError::Corrupt(
                "tenant table length does not match thread count"
            ))
        ));
        let mut bad_id = bytes.clone();
        varint::write_u64(&mut bad_id, 2).unwrap();
        varint::write_u64(&mut bad_id, 0).unwrap();
        varint::write_u64(&mut bad_id, 9).unwrap();
        assert!(matches!(
            TraceReader::new(bad_id.as_slice()),
            Err(TraceError::Corrupt("tenant id out of range"))
        ));
        // And a table cut mid-varint is a truncation, never a panic.
        varint::write_u64(&mut bytes, 2).unwrap();
        varint::write_u64(&mut bytes, 0).unwrap();
        assert!(matches!(
            TraceReader::new(bytes.as_slice()),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn writer_rejects_out_of_range_threads() {
        let mut w = TraceWriter::new(Vec::new(), &header(2)).unwrap();
        assert!(matches!(
            w.push(2, &TraceRecord::read(0, 0)),
            Err(TraceError::ThreadOutOfRange { .. })
        ));
    }

    #[test]
    fn header_thread_counts_above_the_bound_are_corrupt() {
        let declaring = |threads: u64| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            varint::write_u64(&mut bytes, FORMAT_VERSION as u64).unwrap();
            varint::write_u64(&mut bytes, threads).unwrap();
            varint::write_u64(&mut bytes, 1).unwrap(); // footprint
            varint::write_u64(&mut bytes, 0).unwrap(); // seed
            varint::write_u64(&mut bytes, 0).unwrap(); // empty source
            bytes
        };
        // A reader allocates per-thread state from the declared count, so
        // an oversized count must fail before that allocation.
        for threads in [MAX_THREADS as u64 + 1, 4_000_000_000, u32::MAX as u64] {
            assert!(matches!(
                TraceReader::new(declaring(threads).as_slice()),
                Err(TraceError::Corrupt("thread count out of range"))
            ));
        }
        let at_bound = declaring(MAX_THREADS as u64);
        let reader = TraceReader::new(at_bound.as_slice()).unwrap();
        assert_eq!(reader.header().threads, MAX_THREADS);
        // The writer refuses to produce a file the reader would reject.
        for threads in [0, MAX_THREADS + 1] {
            assert!(matches!(
                TraceWriter::new(Vec::new(), &header(threads)),
                Err(TraceError::Corrupt("thread count out of range"))
            ));
        }
    }

    #[test]
    fn create_refuses_a_header_before_creating_the_file() {
        let path = std::env::temp_dir().join(format!("skybyte-refused-{}.sbt", std::process::id()));
        let mut wild = header(2);
        wild.tenant_of_thread = Some(vec![0, 7]);
        for refused in [header(0), header(MAX_THREADS + 1), wild] {
            assert!(matches!(
                TraceWriter::create(&path, &refused),
                Err(TraceError::Corrupt(_))
            ));
            assert!(!path.exists(), "{refused:?}");
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        assert!(matches!(
            TraceReader::new(&b"NOTATRACE-------"[..]),
            Err(TraceError::BadMagic)
        ));
        // A version past u32 once read as its low 32 bits: 2^32 + 1 as 1.
        for version in [99, (1 << 32) + 1] {
            let mut bytes = MAGIC.to_vec();
            varint::write_u64(&mut bytes, version).unwrap();
            bytes.extend_from_slice(&[1, 1, 0, 0]); // threads, footprint, seed, source
            assert!(matches!(
                TraceReader::new(bytes.as_slice()),
                Err(TraceError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    /// Replays `bytes` as if read from a file.
    fn replay(bytes: &[u8]) -> Result<TraceFileSource, TraceError> {
        TraceFileSource::from_bytes("test.sbt".into(), bytes.to_vec())
    }

    /// Every stream of `bytes` as `TraceReader` reads it, the footprint
    /// bound applied as replay applies it, or the first error.
    fn scan_streams(bytes: &[u8]) -> Result<Vec<Vec<TraceRecord>>, TraceError> {
        let mut reader = TraceReader::new(bytes)?;
        let footprint = reader.header().footprint_bytes;
        let mut streams = vec![Vec::new(); reader.header().threads as usize];
        while let Some((thread, record)) = reader.next()? {
            if record.addr() >= footprint {
                return Err(TraceError::Corrupt("record past the footprint"));
            }
            streams[thread as usize].push(record);
        }
        Ok(streams)
    }

    /// Every stream of `bytes` as `TraceFileSource` replays it, each pulled
    /// to its end in turn, or the first error any stream met.
    fn replay_streams(bytes: &[u8]) -> Result<Vec<Vec<TraceRecord>>, TraceError> {
        let mut source = replay(bytes)?;
        let mut streams = Vec::new();
        let mut first_error = None;
        for thread in 0..source.threads() {
            let mut records = Vec::new();
            loop {
                match source.next_record(thread) {
                    Ok(Some(record)) => records.push(record),
                    Ok(None) => break,
                    Err(e) => {
                        first_error.get_or_insert(e);
                        break;
                    }
                }
            }
            streams.push(records);
        }
        first_error.map_or(Ok(streams), Err)
    }

    /// Reads `bytes` through both readers. Each must end in `Ok(None)` or
    /// one of the typed input errors, never a panic or an allocation sized
    /// by a corrupt field (a 2^60-byte one aborts the test binary), and
    /// `TraceReader` accepts the whole file exactly when every replayed
    /// stream does, with the same records per thread.
    fn assert_readers_agree(bytes: &[u8], case: &str) {
        let input_error = |e: &TraceError| {
            matches!(
                e,
                TraceError::Truncated { .. }
                    | TraceError::Corrupt(_)
                    | TraceError::BadMagic
                    | TraceError::UnsupportedVersion(_)
            )
        };
        match (scan_streams(bytes), replay_streams(bytes)) {
            (Ok(scanned), Ok(replayed)) => assert_eq!(scanned, replayed, "{case}"),
            (Err(a), Err(b)) => assert!(input_error(&a) && input_error(&b), "{case}: {a}; {b}"),
            (scanned, replayed) => {
                panic!("{case}: the readers disagree: {scanned:?} against {replayed:?}")
            }
        }
    }

    #[test]
    fn every_truncation_point_is_a_typed_error_never_a_panic() {
        // Truncate at every offset and flip one bit of every byte, in the
        // corpus traces of up to 4 KiB (the larger ones would add 11 s in a
        // debug build), a writer-made trace of 20-record chunks and one of
        // mostly 1-record chunks, the shape a live recording writes.
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/traces");
        let mut inputs = Vec::new();
        for name in ["hot-page", "pure-write", "shift-ycsb", "mix-ycsb-tpcc"] {
            let bytes = std::fs::read(corpus.join(format!("{name}.sbt"))).unwrap();
            inputs.push((name.to_string(), bytes));
        }
        let chunked: Vec<(u32, TraceRecord)> = (0..40u64)
            .map(|i| {
                (
                    (i / 20) as u32,
                    TraceRecord::write(i, (8 << 20) - 64 - i * 4099),
                )
            })
            .collect();
        inputs.push(("20-record chunks".into(), encode(2, &chunked)));
        let interleaved: Vec<(u32, TraceRecord)> = (0..150u64)
            .map(|i| {
                let thread = ((i * 7 + i / 3) % 5) as u32;
                (thread, TraceRecord::read(i % 5, (i * 4160) % (8 << 20)))
            })
            .collect();
        inputs.push(("1-record chunks".into(), encode(5, &interleaved)));
        for (name, bytes) in &inputs {
            assert!(
                scan_streams(bytes).is_ok() && replay_streams(bytes).is_ok(),
                "{name}"
            );
            for cut in 0..bytes.len() {
                assert_readers_agree(&bytes[..cut], &format!("{name} cut at {cut}"));
            }
            let mut flipped = bytes.clone();
            for at in 0..bytes.len() {
                flipped[at] ^= 1 << (at % 8);
                assert_readers_agree(&flipped, &format!("{name} with byte {at} flipped"));
                flipped[at] = bytes[at];
            }
        }
    }

    /// A file of `threads` streams followed by raw chunks, each
    /// `(thread, count, declared payload length, payload)`.
    fn raw_file(threads: u32, chunks: &[(u64, u64, u64, Vec<u8>)]) -> Vec<u8> {
        let mut bytes = encode(threads, &[]);
        for (thread, count, len, payload) in chunks {
            for value in [*thread, *count, *len] {
                varint::write_u64(&mut bytes, value).unwrap();
            }
            bytes.extend_from_slice(payload);
        }
        bytes
    }

    /// One encoded record: instructions, zigzagged address delta, op byte
    /// and size.
    fn raw_record(instructions: u64, delta: u64, op: u8, size: u64) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, instructions).unwrap();
        varint::write_u64(&mut out, delta).unwrap();
        out.push(op);
        varint::write_u64(&mut out, size).unwrap();
        out
    }

    /// The error the first record of `bytes` gives in `TraceReader` and in
    /// stream 0 of a replay, which must agree.
    fn first_error(bytes: &[u8]) -> String {
        let scanned = TraceReader::new(bytes).unwrap().next().unwrap_err();
        let replayed = replay(bytes).unwrap().next_record(0).unwrap_err();
        assert_eq!(format!("{scanned:?}"), format!("{replayed:?}"));
        scanned.to_string()
    }

    #[test]
    fn every_framing_check_holds_in_both_readers() {
        let ok = raw_record(1, 2, 0, 64);
        let cases: [(&str, Vec<u8>); 10] = [
            (
                "thread index",
                raw_file(2, &[(2, 1, ok.len() as u64, ok.clone())]),
            ),
            ("empty chunk", raw_file(2, &[(0, 0, 0, Vec::new())])),
            ("unknown op", {
                let bad = raw_record(1, 2, 2, 64);
                raw_file(2, &[(0, 1, bad.len() as u64, bad)])
            }),
            ("access size", {
                let bad = raw_record(1, 2, 1, 1 << 32);
                raw_file(2, &[(0, 1, bad.len() as u64, bad)])
            }),
            ("varint overflow", {
                let mut bad = vec![0xFF; 9];
                bad.push(0x7F);
                bad.extend_from_slice(&ok);
                raw_file(2, &[(0, 1, bad.len() as u64, bad)])
            }),
            ("varint length", {
                let mut bad = vec![0x80; 9];
                bad.extend_from_slice(&[0x81, 0x01]);
                bad.extend_from_slice(&ok);
                raw_file(2, &[(0, 1, bad.len() as u64, bad)])
            }),
            (
                "records overrun",
                raw_file(2, &[(0, 1, ok.len() as u64 - 1, ok.clone())]),
            ),
            // Two threads, one record a chunk; the first chunk declares one
            // byte more than its record holds, so its payload swallows the
            // next chunk's thread byte. Reading past the declared length
            // once gave 4 valid records, while skipping by it gave thread 1
            // `unknown op byte`.
            ("records underfill", {
                let records = [
                    (0, TraceRecord::read(3, 64)),
                    (1, TraceRecord::read(4, 128)),
                    (0, TraceRecord::write(5, 192)),
                    (1, TraceRecord::write(6, 256)),
                ];
                let mut bytes = encode(2, &records);
                let first_chunk = encode(2, &[]).len();
                assert_eq!(bytes[first_chunk..first_chunk + 2], [0, 1]); // thread 0, 1 record
                bytes[first_chunk + 2] += 1;
                bytes
            }),
            // A corrupt length far past the file is a truncation, and is
            // never added to an offset.
            (
                "declared length",
                raw_file(2, &[(0, 1, 1 << 60, ok.clone())]),
            ),
            ("cut chunk header", {
                let mut cut = encode(2, &[]);
                cut.push(0x80);
                cut
            }),
        ];
        let expected = [
            "corrupt trace: chunk thread index out of range",
            "corrupt trace: empty chunk",
            "corrupt trace: unknown op byte",
            "corrupt trace: access size overflows u32",
            "corrupt trace: varint overflows u64",
            "corrupt trace: varint longer than 10 bytes",
            "corrupt trace: chunk records do not fill its declared length",
            "corrupt trace: chunk records do not fill its declared length",
            "truncated trace: chunk payload shorter than its declared length",
            "truncated trace: varint ended mid-value",
        ];
        for ((name, bytes), want) in cases.iter().zip(expected) {
            assert_eq!(first_error(bytes), want, "{name}");
            assert_readers_agree(bytes, name);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn arbitrary_streams_round_trip(
            raw in proptest::collection::vec(
                (0u32..4, any::<u64>(), any::<u64>(), any::<bool>(), 0u32..(1 << 20)),
                0..300,
            )
        ) {
            // Arbitrary record streams — including u64-extreme addresses
            // (wrapping deltas) and zero-size ops — encode and decode
            // identically.
            let records: Vec<(u32, TraceRecord)> = raw
                .into_iter()
                .map(|(t, instructions, addr, write, size)| {
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    (t, TraceRecord::new(instructions, addr, kind, size))
                })
                .collect();
            let bytes = encode(4, &records);
            prop_assert_eq!(decode_all(&bytes), records);
        }

        #[test]
        fn tenant_tables_round_trip_for_arbitrary_partitions(
            has_table in any::<bool>(),
            partition in proptest::collection::vec(0u32..6, 6..7),
            raw in proptest::collection::vec((0u32..6, any::<u64>(), any::<bool>()), 0..80),
        ) {
            // Any thread→tenant partition (or its absence) survives the
            // header round trip, and absence keeps the file at version 1.
            let table = has_table.then_some(partition);
            let mut h = header(6);
            h.tenant_of_thread = table.clone();
            let mut w = TraceWriter::new(Vec::new(), &h).unwrap();
            for (t, addr, write) in raw {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                w.push(t, &TraceRecord::new(0, addr, kind, 64)).unwrap();
            }
            let bytes = w.finish().unwrap();
            let expected_version = if table.is_some() {
                TENANT_FORMAT_VERSION
            } else {
                FORMAT_VERSION
            };
            prop_assert_eq!(bytes[MAGIC.len()] as u32, expected_version);
            let r = TraceReader::new(bytes.as_slice()).unwrap();
            prop_assert_eq!(&r.header().tenant_of_thread, &table);
        }

        #[test]
        fn truncated_arbitrary_streams_never_panic(
            raw in proptest::collection::vec((0u32..3, any::<u64>(), any::<bool>()), 1..60),
            cut_permille in 0u32..1000,
        ) {
            let records: Vec<(u32, TraceRecord)> = raw
                .into_iter()
                .map(|(t, addr, write)| {
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    (t, TraceRecord::new(0, addr, kind, 0))
                })
                .collect();
            let bytes = encode(3, &records);
            let cut = (bytes.len() as u64 * cut_permille as u64 / 1000) as usize;
            if let Ok(mut r) = TraceReader::new(&bytes[..cut]) {
                while let Ok(Some(_)) = r.next() {}
            }
        }
    }
}
