//! Host-time tracing from outside the simulator: in-memory spans around the
//! calls the benchmark makes into each layer, and a timing adapter that
//! aggregates the per-record cost of a [`TraceSource`] per simulation.

use skybyte_trace::{TraceError, TraceRecord, TraceSource};
use skybyte_types::TenantId;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// One traced interval. Spans of one simulation share its `sim` id; the
/// `counts` carry aggregated per-record measurements (calls, nanoseconds)
/// that are too fine-grained to record as spans of their own.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub sim: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

/// An append-only span store. Spans stay in memory and are written out once,
/// when the benchmark ends ([`Tracer::to_json`]).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a finished span `[start, end)` and returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<u64>,
        sim: Option<u64>,
        (start, end): (Instant, Instant),
        counts: Vec<(&'static str, u64)>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            sim,
            start_ns: at(start),
            end_ns: at(end),
            counts,
        });
        id
    }

    /// Runs `f` inside a span named `name` and returns its result and the
    /// span id.
    pub fn span<T>(&mut self, name: &str, parent: Option<u64>, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, None, (start, Instant::now()), Vec::new());
        (out, id)
    }

    /// Opens a span at `start`; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &str, parent: Option<u64>, start: Instant) -> u64 {
        self.record(name, parent, None, (start, start), Vec::new())
    }

    /// Ends span `id` at `end`, adding `counts`.
    pub fn close(&mut self, id: u64, end: Instant, counts: Vec<(&'static str, u64)>) {
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.counts.extend(counts);
    }

    /// Length of span `id`, in milliseconds.
    pub fn duration_ms(&self, id: u64) -> f64 {
        let s = &self.spans[id as usize - 1];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders every span as one JSON document with the run's provenance.
    pub fn to_json(&self, provenance: &str) -> String {
        let mut out = format!("{{\"provenance\": {provenance},\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"sim\": {}, \"start_ns\": {}, \"end_ns\": {}, \"counts\": {{",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_string(&s.name),
                s.sim.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
            );
            for (j, (k, v)) in s.counts.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{}: {v}",
                    if j == 0 { "" } else { ", " },
                    json_string(k)
                );
            }
            let _ = writeln!(out, "}}}}{sep}");
        }
        out.push_str("]}\n");
        out
    }
}

/// Timing every pull would add two clock reads to each record and slow the
/// traced run by a sixth; every `SAMPLE_EVERY`-th pull is timed instead.
pub const SAMPLE_EVERY: u64 = 8;

/// Wraps a [`TraceSource`] and samples the host time of its `next_record`
/// pulls — the per-record cost of generation or decoding, aggregated per
/// simulation instead of spanned per call.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    pub calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl<S: TraceSource> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            calls: 0,
            sampled: 0,
            sampled_ns: 0,
        }
    }

    /// Estimated host time of all pulls: the mean sampled pull, less the
    /// clock's own cost, times the number of pulls.
    pub fn estimated_ns(&self) -> u64 {
        if self.sampled == 0 {
            return 0;
        }
        let per = self.sampled_ns as f64 / self.sampled as f64 - timer_overhead_ns();
        (per.max(0.0) * self.calls as f64) as u64
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn threads(&self) -> u32 {
        self.inner.threads()
    }

    fn identity(&self) -> String {
        self.inner.identity()
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.next_record(thread);
        }
        let start = Instant::now();
        let record = self.inner.next_record(thread);
        self.sampled_ns += start.elapsed().as_nanos() as u64;
        self.sampled += 1;
        record
    }

    fn reset_thread(&mut self, thread: u32) -> Result<bool, TraceError> {
        self.inner.reset_thread(thread)
    }

    fn tenant_of(&self, thread: u32) -> TenantId {
        self.inner.tenant_of(thread)
    }
}

/// Host cost of one `Instant::now()` + `elapsed()` pair, measured once per
/// process; subtracted from sampled and per-call timings.
pub fn timer_overhead_ns() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        const N: u32 = 100_000;
        let start = Instant::now();
        for _ in 0..N {
            std::hint::black_box(Instant::now().elapsed());
        }
        start.elapsed().as_nanos() as f64 / f64::from(N)
    })
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_trace::VecSource;

    #[test]
    fn timed_source_forwards_records_and_counts_calls() {
        let records = vec![TraceRecord::read(1, 0), TraceRecord::write(2, 64)];
        let mut plain = VecSource::new("t", vec![records.clone()]);
        let mut timed = TimedSource::new(VecSource::new("t", vec![records]));
        for _ in 0..3 {
            assert_eq!(timed.next_record(0).unwrap(), plain.next_record(0).unwrap());
        }
        assert_eq!(timed.calls, 3);
        assert_eq!(timed.estimated_ns(), 0, "no pull sampled yet");
        assert_eq!(timed.identity(), plain.identity());
    }

    #[test]
    fn spans_render_as_json_with_parents_and_counts() {
        let mut t = Tracer::new(Instant::now());
        let (_, parent) = t.span("pass", None, || ());
        let now = Instant::now();
        t.record(
            "sim",
            Some(parent),
            Some(7),
            (now, now),
            vec![("records", 3)],
        );
        let json = t.to_json("{\"seed\": 1}");
        assert!(json.contains("\"parent\": 1, \"name\": \"sim\", \"sim\": 7"));
        assert!(json.contains("\"counts\": {\"records\": 3}"));
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
