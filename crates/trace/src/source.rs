//! The [`TraceSource`] abstraction: anything that can feed per-thread access
//! streams to the simulator — live synthetic generators, recorded `.sbt`
//! files, and compositions thereof ([`crate::compose`]).

use crate::error::TraceError;
use crate::format::{next_chunk, Chunk, TraceHeader, TraceWriter};
use crate::record::TraceRecord;
use skybyte_types::{TenantId, TenantMap};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A set of independent per-thread access streams.
///
/// The simulation engine pulls each thread's stream strictly in order but
/// interleaves pulls *across* threads in simulated-time order; a source must
/// therefore keep the streams independent — the records of thread `t` may
/// not depend on when (or whether) other threads are polled. All sources in
/// this workspace are deterministic, which is what makes record → replay
/// bit-identical and memoized parallel runs sound.
pub trait TraceSource: std::fmt::Debug {
    /// Number of per-thread streams.
    fn threads(&self) -> u32;

    /// A stable, human-readable identity used for provenance headers and as
    /// the trace component of run-request fingerprints.
    fn identity(&self) -> String;

    /// The next record of `thread`'s stream; `Ok(None)` when exhausted.
    /// Generators are typically unbounded and never return `None`.
    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError>;

    /// Rewinds one thread's stream to its beginning, if the source supports
    /// it. Returns `Ok(false)` (the default) when it cannot rewind.
    fn reset_thread(&mut self, _thread: u32) -> Result<bool, TraceError> {
        Ok(false)
    }

    /// The tenant that `thread`'s stream belongs to. Single-tenant sources
    /// (the default) report [`TenantId::ZERO`] for every thread; compositors
    /// forward their inputs' tenancy, and [`crate::compose::Tenants`] stacks
    /// inputs into distinct tenants.
    fn tenant_of(&self, _thread: u32) -> TenantId {
        TenantId::ZERO
    }

    /// The full thread → tenant partition of this source, built from
    /// [`tenant_of`](Self::tenant_of). This is what the simulation engine
    /// reads once at startup to attribute every access to a tenant.
    fn tenant_map(&self) -> TenantMap {
        TenantMap::from_fn(self.threads(), |t| self.tenant_of(t))
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn threads(&self) -> u32 {
        (**self).threads()
    }

    fn identity(&self) -> String {
        (**self).identity()
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        (**self).next_record(thread)
    }

    fn reset_thread(&mut self, thread: u32) -> Result<bool, TraceError> {
        (**self).reset_thread(thread)
    }

    fn tenant_of(&self, thread: u32) -> TenantId {
        (**self).tenant_of(thread)
    }
}

/// Tees any source to an `.sbt` writer: every record pulled through the
/// adapter is also appended to the trace file, so a live simulation records
/// exactly the stream it consumed.
#[derive(Debug)]
pub struct Record<S: TraceSource, W: Write> {
    inner: S,
    writer: TraceWriter<W>,
}

impl<S: TraceSource, W: Write> Record<S, W> {
    /// Wraps `inner`, teeing to `writer` (whose header is already written).
    pub fn new(inner: S, writer: TraceWriter<W>) -> Self {
        Record { inner, writer }
    }

    /// Flushes the writer and returns the inner source.
    pub fn finish(self) -> Result<S, TraceError> {
        self.writer.finish()?;
        Ok(self.inner)
    }
}

impl<S: TraceSource, W: Write + std::fmt::Debug> TraceSource for Record<S, W> {
    fn threads(&self) -> u32 {
        self.inner.threads()
    }

    fn identity(&self) -> String {
        self.inner.identity()
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        let record = self.inner.next_record(thread)?;
        if let Some(r) = &record {
            self.writer.push(thread, r)?;
        }
        Ok(record)
    }

    // reset_thread deliberately keeps the default: rewinding a tee would
    // re-record the rewound prefix.

    fn tenant_of(&self, thread: u32) -> TenantId {
        self.inner.tenant_of(thread)
    }
}

/// Replays an `.sbt` file as a [`TraceSource`].
///
/// The file is read once into memory. A shared frontier walks its chunk
/// headers in file order, but only as far as some stream needs: it appends
/// each chunk's offset to the list of the stream that owns it (8 bytes a
/// chunk). Each stream then walks its own list and decodes its records
/// straight from the file's bytes, so a stream never decodes another's
/// chunks, the engine can interleave streams in any order, one file handle
/// serves however many streams the header declares, and
/// [`reset_thread`](TraceSource::reset_thread) rewinds a stream without
/// rescanning the file. A framing error surfaces on the first pull that
/// needs to pass it, and on every such pull after it.
///
/// A version-1 `.sbt` file is tenant-agnostic (tenancy is a
/// composition-time concept), so every replayed stream reports
/// [`TenantId::ZERO`]. A tenant-aware (version-2) file carries its
/// thread→tenant table in the header, and replay reports each stream's
/// recorded tenant — so a mix recorded from [`crate::compose::Tenants`]
/// replays with the same tenant partition it was simulated with.
///
/// Replay rejects a record whose address lies at or past the header's
/// `footprint_bytes` as [`TraceError::Corrupt`]: the simulated device is
/// sized from the footprint, and its FTL map grows to the highest page
/// written, so one stray address could otherwise ask for more memory than
/// the host has.
#[derive(Debug)]
pub struct TraceFileSource {
    path: PathBuf,
    header: TraceHeader,
    /// The whole file.
    bytes: Vec<u8>,
    /// Offset of the first chunk not yet indexed; every chunk before it is.
    frontier: usize,
    /// Per stream, the offsets of its chunks before the frontier, in file
    /// order.
    chunks: Vec<Vec<usize>>,
    /// Per stream, how far it has been replayed.
    streams: Vec<StreamCursor>,
}

/// Where one replayed stream stands.
#[derive(Debug, Clone, Copy, Default)]
struct StreamCursor {
    /// Chunks of the stream entered so far.
    entered: usize,
    /// The undecoded rest of the current chunk.
    chunk: Chunk,
    /// Address of the stream's previous record (delta-chain state).
    last_addr: u64,
}

impl TraceFileSource {
    /// Opens `path` for replay.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::from_bytes(path.to_path_buf(), std::fs::read(path)?)
    }

    /// Replays `bytes`, the contents of the file at `path`.
    pub(crate) fn from_bytes(path: PathBuf, bytes: Vec<u8>) -> Result<Self, TraceError> {
        let mut rest = bytes.as_slice();
        let header = TraceHeader::decode(&mut rest)?;
        let frontier = bytes.len() - rest.len();
        let threads = header.threads as usize;
        Ok(TraceFileSource {
            path,
            header,
            bytes,
            frontier,
            chunks: vec![Vec::new(); threads],
            streams: vec![StreamCursor::default(); threads],
        })
    }

    /// The file's provenance header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Indexes the chunk at the frontier and moves the frontier past it;
    /// `false` at the end of the file.
    fn index_next_chunk(&mut self) -> Result<bool, TraceError> {
        let offset = self.frontier;
        let Some((thread, _)) = next_chunk(&self.bytes, &mut self.frontier, self.header.threads)?
        else {
            return Ok(false);
        };
        self.chunks[thread as usize].push(offset);
        Ok(true)
    }
}

impl TraceSource for TraceFileSource {
    fn threads(&self) -> u32 {
        self.header.threads
    }

    fn identity(&self) -> String {
        format!(
            "sbt:{}:threads={}:fp={}:seed={}:src={}",
            self.path.display(),
            self.header.threads,
            self.header.footprint_bytes,
            self.header.seed,
            self.header.source
        )
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        let t = thread as usize;
        let Some(&stream) = self.streams.get(t) else {
            return Err(TraceError::ThreadOutOfRange {
                threads: self.header.threads,
                requested: thread,
            });
        };
        // Work on a copy, stored back only once a record decodes, so a pull
        // that fails leaves the stream where it was.
        let mut s = stream;
        if s.chunk.is_empty() {
            let offset = loop {
                if let Some(&offset) = self.chunks[t].get(s.entered) {
                    break offset;
                }
                if !self.index_next_chunk()? {
                    return Ok(None);
                }
            };
            (_, s.chunk) = Chunk::at(&self.bytes, offset, self.header.threads)?;
            s.entered += 1;
        }
        let record = s.chunk.next(&self.bytes, s.last_addr)?;
        s.last_addr = record.addr();
        self.streams[t] = s;
        if record.addr() >= self.header.footprint_bytes {
            return Err(TraceError::Corrupt(
                "record address lies past the header's footprint",
            ));
        }
        Ok(Some(record))
    }

    fn reset_thread(&mut self, thread: u32) -> Result<bool, TraceError> {
        match self.streams.get_mut(thread as usize) {
            Some(stream) => {
                *stream = StreamCursor::default();
                Ok(true)
            }
            None => Err(TraceError::ThreadOutOfRange {
                threads: self.header.threads,
                requested: thread,
            }),
        }
    }

    fn tenant_of(&self, thread: u32) -> TenantId {
        match &self.header.tenant_of_thread {
            Some(table) => table
                .get(thread as usize)
                .copied()
                .map_or(TenantId::ZERO, TenantId),
            None => TenantId::ZERO,
        }
    }
}

/// An in-memory source over explicit per-thread record vectors — the unit of
/// account for compositor tests and a convenient way to hand-craft streams.
#[derive(Debug, Clone)]
pub struct VecSource {
    name: String,
    streams: Vec<Vec<TraceRecord>>,
    positions: Vec<usize>,
}

impl VecSource {
    /// A source named `name` over one record vector per thread.
    pub fn new(name: &str, streams: Vec<Vec<TraceRecord>>) -> Self {
        assert!(!streams.is_empty(), "at least one thread stream required");
        let positions = vec![0; streams.len()];
        VecSource {
            name: name.to_string(),
            streams,
            positions,
        }
    }
}

impl TraceSource for VecSource {
    fn threads(&self) -> u32 {
        self.streams.len() as u32
    }

    fn identity(&self) -> String {
        format!("vec:{}", self.name)
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        let t = thread as usize;
        match self.streams.get(t) {
            Some(stream) => {
                let pos = self.positions[t];
                if pos < stream.len() {
                    self.positions[t] += 1;
                    Ok(Some(stream[pos]))
                } else {
                    Ok(None)
                }
            }
            None => Err(TraceError::ThreadOutOfRange {
                threads: self.threads(),
                requested: thread,
            }),
        }
    }

    fn reset_thread(&mut self, thread: u32) -> Result<bool, TraceError> {
        if (thread as usize) < self.positions.len() {
            self.positions[thread as usize] = 0;
            Ok(true)
        } else {
            Err(TraceError::ThreadOutOfRange {
                threads: self.threads(),
                requested: thread,
            })
        }
    }
}

/// Drains every stream of `source` into an `.sbt` file at `path`.
///
/// This is the offline "record without simulating" path: it pulls each
/// thread's stream to exhaustion, or up to `limit_per_thread` records for
/// unbounded generator sources.
pub fn record_to_file<S: TraceSource>(
    source: &mut S,
    path: &Path,
    header: &TraceHeader,
    limit_per_thread: u64,
) -> Result<u64, TraceError> {
    let mut writer = TraceWriter::create(path, header)?;
    for thread in 0..source.threads() {
        let mut taken = 0u64;
        while taken < limit_per_thread {
            match source.next_record(thread)? {
                Some(record) => writer.push(thread, &record)?,
                None => break,
            }
            taken += 1;
        }
    }
    let total = writer.records_written();
    writer.finish()?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ThreadReader;
    use skybyte_types::AccessKind;

    fn records(n: u64, base: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord::read(i, base + i * 64))
            .collect()
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("skybyte-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.sbt", std::process::id()))
    }

    #[test]
    fn vec_source_streams_and_resets() {
        let mut s = VecSource::new("a", vec![records(3, 0), records(2, 4096)]);
        assert_eq!(s.threads(), 2);
        assert_eq!(s.next_record(0).unwrap(), Some(TraceRecord::read(0, 0)));
        assert_eq!(s.next_record(1).unwrap(), Some(TraceRecord::read(0, 4096)));
        assert_eq!(s.next_record(0).unwrap(), Some(TraceRecord::read(1, 64)));
        assert!(s.reset_thread(0).unwrap());
        assert_eq!(s.next_record(0).unwrap(), Some(TraceRecord::read(0, 0)));
        assert!(matches!(
            s.next_record(7),
            Err(TraceError::ThreadOutOfRange { .. })
        ));
    }

    #[test]
    fn replay_rejects_records_past_the_footprint() {
        let path = tmp_path("past-footprint");
        let header = TraceHeader {
            threads: 1,
            footprint_bytes: 1 << 20,
            seed: 0,
            source: "vec:far".into(),
            tenant_of_thread: None,
        };
        let last_inside = TraceRecord::read(1, (1 << 20) - 64);
        let stream = vec![last_inside, TraceRecord::write(1, 1 << 20)];
        let mut source = VecSource::new("far", vec![stream]);
        record_to_file(&mut source, &path, &header, u64::MAX).unwrap();
        let mut replay = TraceFileSource::open(&path).unwrap();
        assert_eq!(replay.next_record(0).unwrap(), Some(last_inside));
        assert!(matches!(
            replay.next_record(0),
            Err(TraceError::Corrupt(
                "record address lies past the header's footprint"
            ))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_tee_then_file_replay_is_identical() {
        let path = tmp_path("tee");
        let streams = vec![records(700, 0), records(650, 1 << 20)];
        let header = TraceHeader {
            threads: 2,
            footprint_bytes: 2 << 20,
            seed: 1,
            source: "vec:a".into(),
            tenant_of_thread: None,
        };
        let writer = TraceWriter::create(&path, &header).unwrap();
        let mut tee = Record::new(VecSource::new("a", streams.clone()), writer);
        // Interleave pulls the way an engine would.
        let mut pulled: Vec<Vec<TraceRecord>> = vec![Vec::new(), Vec::new()];
        loop {
            let mut progressed = false;
            for t in 0..2u32 {
                if let Some(r) = tee.next_record(t).unwrap() {
                    pulled[t as usize].push(r);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        assert_eq!(tee.writer.records_written(), 1350);
        tee.finish().unwrap();
        assert_eq!(pulled, streams);

        let mut replay = TraceFileSource::open(&path).unwrap();
        assert_eq!(replay.header().source, "vec:a");
        for (t, stream) in streams.iter().enumerate() {
            let mut got = Vec::new();
            while let Some(r) = replay.next_record(t as u32).unwrap() {
                got.push(r);
            }
            assert_eq!(&got, stream, "thread {t}");
        }
        // Rewind one thread and replay it again.
        assert!(replay.reset_thread(1).unwrap());
        assert_eq!(replay.next_record(1).unwrap(), Some(streams[1][0]));
        assert!(replay.identity().contains("vec:a"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_to_file_respects_limits() {
        let path = tmp_path("limit");
        let header = TraceHeader {
            threads: 1,
            footprint_bytes: 1 << 20,
            seed: 0,
            source: "vec:b".into(),
            tenant_of_thread: None,
        };
        let mut src = VecSource::new("b", vec![records(100, 0)]);
        let n = record_to_file(&mut src, &path, &header, 40).unwrap();
        assert_eq!(n, 40);
        let mut replay = TraceFileSource::open(&path).unwrap();
        let mut count = 0;
        while replay.next_record(0).unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 40);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tenant_aware_files_replay_their_recorded_partition() {
        let path = tmp_path("tenants");
        let header = TraceHeader {
            threads: 4,
            footprint_bytes: 1 << 20,
            seed: 3,
            source: "vec:t".into(),
            tenant_of_thread: Some(vec![0, 0, 1, 1]),
        };
        let mut src = VecSource::new(
            "t",
            (0..4).map(|t| records(5, t * 4096)).collect::<Vec<_>>(),
        );
        record_to_file(&mut src, &path, &header, u64::MAX).unwrap();
        let replay = TraceFileSource::open(&path).unwrap();
        for (thread, want) in [(0u32, 0u32), (1, 0), (2, 1), (3, 1)] {
            assert_eq!(replay.tenant_of(thread), TenantId(want));
        }
        let map = replay.tenant_map();
        assert_eq!(map.tenant_count(), 2);
        // A version-1 file (no table) stays single-tenant.
        let mut agnostic = header.clone();
        agnostic.tenant_of_thread = None;
        let path1 = tmp_path("tenantless");
        let mut src = VecSource::new(
            "t",
            (0..4).map(|t| records(5, t * 4096)).collect::<Vec<_>>(),
        );
        record_to_file(&mut src, &path1, &agnostic, u64::MAX).unwrap();
        let replay1 = TraceFileSource::open(&path1).unwrap();
        assert_eq!(replay1.tenant_map().tenant_count(), 1);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path1).ok();
    }

    #[test]
    fn a_header_declaring_max_threads_replays_through_one_buffer() {
        // One file handle per stream ran out of descriptors on hosts whose
        // limit is below the declared thread count.
        let path = tmp_path("max-threads");
        let header = TraceHeader {
            threads: crate::format::MAX_THREADS,
            footprint_bytes: 1 << 20,
            seed: 0,
            source: "vec:wide".into(),
            tenant_of_thread: None,
        };
        TraceWriter::create(&path, &header)
            .unwrap()
            .finish()
            .unwrap();
        let mut replay = TraceFileSource::open(&path).unwrap();
        assert_eq!(replay.threads(), crate::format::MAX_THREADS);
        let last = crate::format::MAX_THREADS - 1;
        assert_eq!(replay.next_record(last).unwrap(), None);
        assert!(replay.reset_thread(last).unwrap());
        assert!(matches!(
            replay.reset_thread(last + 1),
            Err(TraceError::ThreadOutOfRange { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// A xorshift64 stream for the randomised tests.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    #[test]
    fn replay_matches_one_thread_reader_per_stream_in_any_pull_order() {
        const FOOTPRINT: u64 = 1 << 20;
        for seed in 1..=36u64 {
            let mut draws = Draws(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let threads = 1 + draws.below(6) as u32;
            // A thread switch after every record (1-record chunks, as a
            // live recording writes), runs past a full 512-record chunk, or
            // short random runs; a few records lie past the footprint.
            let total = 300 + draws.below(1_500) as usize;
            let mut records = Vec::with_capacity(total);
            let mut thread = 0;
            while records.len() < total {
                let run = match seed % 3 {
                    0 => 1,
                    1 => 500 + draws.below(100),
                    _ => 1 + draws.below(40),
                };
                for _ in 0..run {
                    let addr = match draws.below(400) {
                        0 => FOOTPRINT + draws.below(1 << 40),
                        _ => draws.below(FOOTPRINT),
                    };
                    let kind = match draws.below(4) {
                        0 => AccessKind::Write,
                        _ => AccessKind::Read,
                    };
                    let size = draws.below(1 << 13) as u32;
                    records.push((thread, TraceRecord::new(draws.below(300), addr, kind, size)));
                }
                thread = draws.below(threads as u64) as u32;
            }
            let header = TraceHeader {
                threads,
                footprint_bytes: FOOTPRINT,
                seed,
                source: "vec:reference".into(),
                tenant_of_thread: None,
            };
            let mut writer = TraceWriter::new(Vec::new(), &header).unwrap();
            for (thread, record) in &records {
                writer.push(*thread, record).unwrap();
            }
            let bytes = writer.finish().unwrap();

            let mut replay =
                TraceFileSource::from_bytes("reference.sbt".into(), bytes.clone()).unwrap();
            let model = |thread| ThreadReader::new(bytes.as_slice(), thread).unwrap();
            let mut models: Vec<_> = (0..threads).map(model).collect();
            let pull = |replay: &mut TraceFileSource,
                        models: &mut Vec<ThreadReader<&[u8]>>,
                        thread: u32,
                        step: usize| {
                let got = replay.next_record(thread);
                let want = models[thread as usize]
                    .next()
                    .and_then(|record| match record {
                        Some(r) if r.addr() >= FOOTPRINT => Err(TraceError::Corrupt(
                            "record address lies past the header's footprint",
                        )),
                        record => Ok(record),
                    });
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "seed {seed}, step {step}, thread {thread}"
                );
                matches!(got, Ok(None))
            };
            // Pull uniformly, or mostly one stream so the frontier runs far
            // ahead of the others; now and then rewind a stream.
            let favourite = draws.below(threads as u64) as u32;
            for step in 0..3 * total {
                let thread = match (seed % 2, draws.below(4)) {
                    (0, 1..) => favourite,
                    _ => draws.below(threads as u64) as u32,
                };
                if draws.below(150) == 0 {
                    assert!(replay.reset_thread(thread).unwrap());
                    models[thread as usize] = model(thread);
                } else {
                    pull(&mut replay, &mut models, thread, step);
                }
            }
            for thread in 0..threads {
                while !pull(&mut replay, &mut models, thread, usize::MAX) {}
            }
            for out_of_range in [threads, u32::MAX] {
                assert!(matches!(
                    replay.next_record(out_of_range),
                    Err(TraceError::ThreadOutOfRange { .. })
                ));
                assert!(matches!(
                    replay.reset_thread(out_of_range),
                    Err(TraceError::ThreadOutOfRange { .. })
                ));
                assert!(matches!(
                    ThreadReader::new(bytes.as_slice(), out_of_range),
                    Err(TraceError::ThreadOutOfRange { .. })
                ));
            }
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(matches!(
            TraceFileSource::open(Path::new("/nonexistent/definitely-not-here.sbt")),
            Err(TraceError::Io(_))
        ));
    }
}
