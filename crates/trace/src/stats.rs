//! A statistics pass over a trace's records.
//!
//! [`TraceStats`] accumulates the characteristics the paper tabulates for
//! its workloads: footprint and write ratio (Table I) and the per-page
//! cacheline-coverage distribution (Figures 5–6). Pages hold 64 cachelines,
//! so coverage is tracked as one `u64` bitmap per touched page.

use crate::error::TraceError;
use crate::format::{TraceHeader, TraceReader};
use crate::record::TraceRecord;
use skybyte_types::{CACHELINES_PER_PAGE, CACHELINE_SIZE, PAGE_SIZE};
use std::collections::HashMap;
use std::path::Path;

/// Aggregate characteristics of a trace.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Total records.
    pub records: u64,
    /// Read records.
    pub reads: u64,
    /// Write records.
    pub writes: u64,
    /// Sum of the compute gaps (instructions).
    pub total_instructions: u64,
    /// Records per thread stream.
    pub per_thread: Vec<u64>,
    /// Smallest address touched.
    pub min_addr: u64,
    /// Largest address touched (inclusive of the access size).
    pub max_addr_end: u64,
    /// Per touched page: bitmap of touched cachelines.
    coverage: HashMap<u64, u64>,
}

impl TraceStats {
    /// Folds one record of `thread` into the statistics.
    pub fn add(&mut self, thread: u32, record: &TraceRecord) {
        if self.per_thread.len() <= thread as usize {
            self.per_thread.resize(thread as usize + 1, 0);
        }
        self.per_thread[thread as usize] += 1;
        self.records += 1;
        if record.access.kind.is_write() {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.total_instructions += record.instructions;
        let addr = record.addr();
        if self.records == 1 || addr < self.min_addr {
            self.min_addr = addr;
        }
        let end = addr.saturating_add(record.size_bytes.max(1) as u64);
        if end > self.max_addr_end {
            self.max_addr_end = end;
        }
        // Mark every cacheline the access spans (zero-size ops count as one).
        let first_cl = addr / CACHELINE_SIZE as u64;
        let last_cl = end.saturating_sub(1) / CACHELINE_SIZE as u64;
        for cl in first_cl..=last_cl {
            let page = cl / CACHELINES_PER_PAGE as u64;
            let bit = cl % CACHELINES_PER_PAGE as u64;
            *self.coverage.entry(page).or_insert(0) |= 1u64 << bit;
        }
    }

    /// Runs the pass over every record of `reader`, returning the header and
    /// the accumulated statistics.
    pub fn scan<B: AsRef<[u8]>>(
        mut reader: TraceReader<B>,
    ) -> Result<(TraceHeader, TraceStats), TraceError> {
        let mut stats = TraceStats::default();
        while let Some((thread, record)) = reader.next()? {
            stats.add(thread, &record);
        }
        Ok((reader.header().clone(), stats))
    }

    /// [`scan`](Self::scan) over the `.sbt` file at `path`, read into
    /// memory.
    pub fn scan_file(path: &Path) -> Result<(TraceHeader, TraceStats), TraceError> {
        Self::scan(TraceReader::open(path)?)
    }

    /// Fraction of records that are writes (Table I's write ratio).
    pub fn write_ratio(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.writes as f64 / self.records as f64
        }
    }

    /// Number of distinct 4 KiB pages touched.
    pub fn footprint_pages(&self) -> u64 {
        self.coverage.len() as u64
    }

    /// Touched footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_pages() * PAGE_SIZE as u64
    }

    /// Mean instructions between consecutive accesses (1000 / MPKI).
    pub fn mean_instructions_per_access(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.total_instructions as f64 / self.records as f64
        }
    }

    /// Mean fraction of each touched page's 64 cachelines that were touched.
    pub fn mean_page_coverage(&self) -> f64 {
        if self.coverage.is_empty() {
            return 0.0;
        }
        let touched: u64 = self.coverage.values().map(|b| b.count_ones() as u64).sum();
        touched as f64 / (self.coverage.len() as u64 * CACHELINES_PER_PAGE as u64) as f64
    }

    /// Fraction of touched pages whose cacheline coverage is below
    /// `fraction` (the Figures 5–6 CDF read-out; the paper's observation is
    /// that most workloads keep > 75 % of pages under 0.4).
    pub fn pages_with_coverage_below(&self, fraction: f64) -> f64 {
        if self.coverage.is_empty() {
            return 0.0;
        }
        let threshold = fraction * CACHELINES_PER_PAGE as f64;
        let under = self
            .coverage
            .values()
            .filter(|b| (b.count_ones() as f64) < threshold)
            .count();
        under as f64 / self.coverage.len() as f64
    }

    /// Renders the statistics as an aligned plain-text report.
    pub fn render(&self, header: &TraceHeader) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== trace statistics ==");
        let _ = writeln!(out, "source                {}", header.source);
        let _ = writeln!(out, "format threads        {}", header.threads);
        let _ = writeln!(
            out,
            "declared footprint    {} bytes",
            header.footprint_bytes
        );
        let _ = writeln!(out, "declared seed         {}", header.seed);
        let _ = writeln!(out, "records               {}", self.records);
        let _ = writeln!(
            out,
            "reads / writes        {} / {} (write ratio {:.3})",
            self.reads,
            self.writes,
            self.write_ratio()
        );
        let _ = writeln!(
            out,
            "touched footprint     {} pages ({} bytes)",
            self.footprint_pages(),
            self.footprint_bytes()
        );
        let _ = writeln!(
            out,
            "address range         [{:#x}, {:#x})",
            self.min_addr, self.max_addr_end
        );
        let _ = writeln!(
            out,
            "mean instr / access   {:.2}",
            self.mean_instructions_per_access()
        );
        let _ = writeln!(
            out,
            "mean page coverage    {:.3} of 64 cachelines",
            self.mean_page_coverage()
        );
        let _ = writeln!(
            out,
            "pages under 40% cov.  {:.1}%",
            self.pages_with_coverage_below(0.4) * 100.0
        );
        for (t, n) in self.per_thread.iter().enumerate() {
            let _ = writeln!(out, "thread {t:<3} records    {n}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceWriter;

    #[test]
    fn stats_accumulate_reads_writes_and_coverage() {
        let mut s = TraceStats::default();
        // Two records on page 0 (cachelines 0 and 1), one write on page 2.
        s.add(0, &TraceRecord::read(10, 0));
        s.add(0, &TraceRecord::read(20, 64));
        s.add(1, &TraceRecord::write(30, 2 * 4096));
        assert_eq!(s.records, 3);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert!((s.write_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.footprint_pages(), 2);
        assert_eq!(s.footprint_bytes(), 2 * 4096);
        assert_eq!(s.per_thread, vec![2, 1]);
        assert_eq!(s.min_addr, 0);
        assert_eq!(s.max_addr_end, 2 * 4096 + 64);
        assert!((s.mean_instructions_per_access() - 20.0).abs() < 1e-12);
        // Page 0 has 2/64 coverage, page 2 has 1/64.
        assert!((s.mean_page_coverage() - (3.0 / 128.0)).abs() < 1e-12);
        assert_eq!(s.pages_with_coverage_below(0.4), 1.0);
        assert_eq!(s.pages_with_coverage_below(0.01), 0.0);
    }

    #[test]
    fn multi_cacheline_accesses_span_pages() {
        let mut s = TraceStats::default();
        // A 256-byte access starting 64 bytes before a page boundary.
        s.add(
            0,
            &TraceRecord::new(0, 4096 - 64, skybyte_types::AccessKind::Read, 256),
        );
        assert_eq!(s.footprint_pages(), 2);
        // One cacheline on page 0, three on page 1.
        assert!((s.mean_page_coverage() - (4.0 / 128.0)).abs() < 1e-12);
        // Zero-size ops still count one cacheline.
        let mut z = TraceStats::default();
        z.add(
            0,
            &TraceRecord::new(0, 0, skybyte_types::AccessKind::Read, 0),
        );
        assert_eq!(z.footprint_pages(), 1);
    }

    #[test]
    fn scan_streams_a_whole_file() {
        let header = TraceHeader {
            threads: 2,
            footprint_bytes: 1 << 20,
            seed: 3,
            source: "stat-test".into(),
            tenant_of_thread: None,
        };
        let mut w = TraceWriter::new(Vec::new(), &header).unwrap();
        for i in 0..100u64 {
            let r = if i % 5 == 0 {
                TraceRecord::write(i, i * 4096)
            } else {
                TraceRecord::read(i, i * 64)
            };
            w.push((i % 2) as u32, &r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let (h, s) = TraceStats::scan(TraceReader::new(bytes.as_slice()).unwrap()).unwrap();
        assert_eq!(h, header);
        assert_eq!(s.records, 100);
        assert_eq!(s.writes, 20);
        assert_eq!(s.per_thread, vec![50, 50]);
        let rendered = s.render(&h);
        assert!(rendered.contains("records               100"));
        assert!(rendered.contains("stat-test"));
        assert!(rendered.contains("write ratio 0.200"));
    }

    #[test]
    fn empty_stats_are_well_defined() {
        let s = TraceStats::default();
        assert_eq!(s.write_ratio(), 0.0);
        assert_eq!(s.mean_page_coverage(), 0.0);
        assert_eq!(s.pages_with_coverage_below(0.4), 0.0);
        assert_eq!(s.mean_instructions_per_access(), 0.0);
    }
}
