//! The flash translation layer proper: mapping table, out-of-place writes and
//! garbage collection.

use crate::blocks::{BlockId, BlockManager};
use crate::stats::FtlStats;
use skybyte_flash::{FlashArray, FlashCommandKind};
use skybyte_types::{Lpa, Nanos, Ppa, SsdConfig};

/// Result of a host page write issued through the FTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Time at which the program completes on the flash channel.
    pub completes_at: Nanos,
    /// Completion time of the garbage-collection campaign (including its
    /// erases) this write triggered, if any.
    pub gc: Option<Nanos>,
}

/// A page-level flash translation layer with greedy garbage collection.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Ftl {
    /// Logical → physical map indexed by `Lpa::index()`, grown on demand to
    /// the highest LPA mapped; `None` for a page never written.
    mapping: Vec<Option<Ppa>>,
    blocks: BlockManager,
    channels: u64,
    gc_threshold: f64,
    gc_blocks_per_campaign: u32,
    stats: FtlStats,
    gc_active_until: Nanos,
}

impl Ftl {
    /// Creates an FTL for the given SSD configuration with an empty mapping.
    pub fn new(cfg: &SsdConfig) -> Self {
        Ftl {
            mapping: Vec::new(),
            blocks: BlockManager::new(cfg.geometry),
            channels: cfg.geometry.channels as u64,
            gc_threshold: cfg.gc_threshold,
            gc_blocks_per_campaign: cfg.gc_blocks_per_campaign,
            stats: FtlStats::default(),
            gc_active_until: Nanos::ZERO,
        }
    }

    /// Translates a logical page to its current physical location, or `None`
    /// if the page has never been written.
    pub fn translate(&self, lpa: Lpa) -> Option<Ppa> {
        self.mapping.get(lpa.index() as usize).copied().flatten()
    }

    /// Whether the logical page has a physical mapping.
    pub fn is_mapped(&self, lpa: Lpa) -> bool {
        self.translate(lpa).is_some()
    }

    /// Points `lpa` at `ppa`, growing the map to cover it.
    fn map(&mut self, lpa: Lpa, ppa: Ppa) {
        let i = lpa.index() as usize;
        if i >= self.mapping.len() {
            self.mapping.resize(i + 1, None);
        }
        self.mapping[i] = Some(ppa);
    }

    /// Reads a logical page from flash.
    ///
    /// Returns the completion time of the flash read, or `None` if the page
    /// is unmapped (the SSD controller then serves zeroes without touching
    /// flash).
    pub fn read_page(&mut self, lpa: Lpa, now: Nanos, flash: &mut FlashArray) -> Option<Nanos> {
        let ppa = self.translate(lpa)?;
        Some(flash.submit(FlashCommandKind::Read, ppa, now))
    }

    /// Writes a logical page out-of-place.
    ///
    /// Invalidates the previous physical copy, programs a fresh page (striped
    /// across channels) and triggers garbage collection if the device has
    /// filled beyond the configured threshold.
    ///
    /// # Panics
    ///
    /// Panics if the physical device is completely full even after a forced
    /// GC campaign — with the paper's 7 % over-provisioning and an 80 % GC
    /// threshold this cannot happen unless the logical footprint exceeds the
    /// usable capacity.
    pub fn write_page(&mut self, lpa: Lpa, now: Nanos, flash: &mut FlashArray) -> WriteOutcome {
        // The stale entry is replaced below; GC cannot read it meanwhile,
        // since the invalidated page is no block's live content.
        if let Some(old) = self.translate(lpa) {
            self.blocks.invalidate(old);
        }

        let (ppa, _blk) = match self.blocks.allocate_page(lpa) {
            Some(x) => x,
            None => {
                // Forced GC to make room, then retry once.
                let _ = self.run_gc_campaign(now, flash, true);
                self.blocks
                    .allocate_page(lpa)
                    .expect("flash device is full: logical footprint exceeds usable capacity")
            }
        };
        let completes_at = flash.submit(FlashCommandKind::Program, ppa, now);
        self.map(lpa, ppa);
        self.stats.host_pages_written += 1;
        self.stats.flash_pages_programmed += 1;

        let gc = self.maybe_gc(now, flash);
        WriteOutcome { completes_at, gc }
    }

    /// Pre-populates the mapping table with `lpas` without issuing flash
    /// commands or accounting statistics. Used to precondition the SSD
    /// (§VI-A), so reads of these pages go to flash instead of being served
    /// as zero-filled never-written pages.
    pub fn precondition<I: IntoIterator<Item = Lpa>>(&mut self, lpas: I) {
        for lpa in lpas {
            if self.is_mapped(lpa) {
                continue;
            }
            if let Some((ppa, _)) = self.blocks.allocate_page(lpa) {
                self.map(lpa, ppa);
            } else {
                break;
            }
        }
    }

    /// Whether a GC campaign is still occupying flash channels at `now`.
    pub fn gc_active(&self, now: Nanos) -> bool {
        now < self.gc_active_until
    }

    /// FTL statistics (write amplification, GC activity).
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    fn maybe_gc(&mut self, now: Nanos, flash: &mut FlashArray) -> Option<Nanos> {
        // GC starts when the device utilisation exceeds the threshold
        // (80 % in Table II) or the free-block reserve (one block per channel,
        // needed so relocation always has somewhere to write) runs low.
        let reserve = self.blocks.total_blocks().min(self.channels + 1);
        let needs_gc =
            self.blocks.utilisation() > self.gc_threshold || self.blocks.free_blocks() < reserve;
        if !needs_gc {
            return None;
        }
        self.run_gc_campaign(now, flash, false)
    }

    /// Runs one GC campaign: pick victims, relocate live pages, erase blocks.
    /// Returns the campaign's completion time, or `None` if no block was
    /// eligible.
    fn run_gc_campaign(
        &mut self,
        now: Nanos,
        flash: &mut FlashArray,
        forced: bool,
    ) -> Option<Nanos> {
        // Reclaim a bounded number of blocks per campaign. The paper's 19660
        // blocks correspond to 15 % of its 131072-block device; scale the same
        // ratio to the simulated geometry, with a lower bound of one block.
        let ratio = self.gc_blocks_per_campaign as f64 / 131_072.0;
        let scaled = ((self.blocks.total_blocks() as f64 * ratio).ceil() as usize).max(1);
        let target = if forced { scaled.max(1) } else { scaled };
        let victims = self.blocks.select_gc_victims(target);
        if victims.is_empty() {
            return None;
        }

        let mut finish = now;
        for &victim in &victims {
            finish = finish.max(self.relocate_and_erase(victim, now, flash));
        }
        self.stats.gc_campaigns += 1;
        self.stats.blocks_erased += victims.len() as u64;
        self.gc_active_until = self.gc_active_until.max(finish);
        Some(finish)
    }

    /// Relocates all live pages out of `victim` and erases it; returns the
    /// completion time of the erase.
    fn relocate_and_erase(&mut self, victim: BlockId, now: Nanos, flash: &mut FlashArray) -> Nanos {
        let live = self.blocks.live_contents(victim);
        let victim_channel = self.blocks.channel_of(victim) as usize;
        let mut latest = now;
        for (page_off, lpa) in live {
            let src = self.blocks.ppa_of(victim, page_off);
            let read_done = flash.submit(FlashCommandKind::Read, src, now);
            // Prefer relocating within the same channel; fall back to striping.
            let dest = self
                .blocks
                .allocate_on_channel(victim_channel, lpa)
                .or_else(|| self.blocks.allocate_page(lpa));
            let (dest_ppa, _) = match dest {
                Some(d) => d,
                None => break, // no room anywhere; stop relocating
            };
            let prog_done = flash.submit(FlashCommandKind::Program, dest_ppa, read_done);
            self.blocks.invalidate(src);
            self.map(lpa, dest_ppa);
            self.stats.gc_pages_read += 1;
            self.stats.gc_pages_relocated += 1;
            self.stats.flash_pages_programmed += 1;
            latest = latest.max(prog_done);
        }
        // Erase only if everything was relocated.
        if self.blocks.valid_pages(victim) == 0 {
            let erase_ppa = self.blocks.ppa_of(victim, 0);
            let erase_done = flash.submit(FlashCommandKind::Erase, erase_ppa, latest);
            self.blocks.erase_block(victim);
            latest = latest.max(erase_done);
        }
        latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_types::{FlashTimingConfig, NandKind, SsdGeometry};

    /// A tiny SSD (2 channels × 8 blocks × 8 pages = 128 pages, 512 KiB) so
    /// GC triggers quickly in tests.
    fn tiny_cfg() -> SsdConfig {
        SsdConfig {
            geometry: SsdGeometry {
                channels: 2,
                chips_per_channel: 1,
                dies_per_chip: 1,
                planes_per_die: 1,
                blocks_per_plane: 8,
                pages_per_block: 8,
            },
            gc_blocks_per_campaign: 19660,
            ..SsdConfig::default()
        }
    }

    fn mapped_pages(ftl: &Ftl) -> usize {
        ftl.mapping.iter().filter(|ppa| ppa.is_some()).count()
    }

    fn setup() -> (Ftl, FlashArray) {
        let cfg = tiny_cfg();
        let flash = FlashArray::new(cfg.geometry, FlashTimingConfig::for_kind(NandKind::Ull));
        (Ftl::new(&cfg), flash)
    }

    #[test]
    fn write_then_read_round_trip() {
        let (mut ftl, mut flash) = setup();
        assert!(ftl
            .read_page(Lpa::new(3), Nanos::ZERO, &mut flash)
            .is_none());
        let out = ftl.write_page(Lpa::new(3), Nanos::ZERO, &mut flash);
        assert!(out.completes_at >= Nanos::from_micros(100));
        assert!(ftl.is_mapped(Lpa::new(3)));
        let done = ftl.read_page(Lpa::new(3), out.completes_at, &mut flash);
        assert!(done.is_some());
        assert_eq!(mapped_pages(&ftl), 1);
    }

    #[test]
    fn overwrite_is_out_of_place() {
        let (mut ftl, mut flash) = setup();
        ftl.write_page(Lpa::new(1), Nanos::ZERO, &mut flash);
        let first = ftl.translate(Lpa::new(1));
        ftl.write_page(Lpa::new(1), Nanos::from_micros(200), &mut flash);
        let second = ftl.translate(Lpa::new(1));
        assert!(first.is_some() && second.is_some());
        assert_ne!(first, second, "updates must go to a new page");
        assert_eq!(mapped_pages(&ftl), 1);
        assert_eq!(ftl.stats().host_pages_written, 2);
    }

    #[test]
    fn gc_triggers_under_overwrite_pressure_and_preserves_mappings() {
        let (mut ftl, mut flash) = setup();
        // 128 physical pages; keep 32 logical pages and overwrite them
        // repeatedly so utilisation stays modest but free blocks run out.
        let mut now = Nanos::ZERO;
        for round in 0..20u64 {
            for i in 0..32u64 {
                ftl.write_page(Lpa::new(i), now, &mut flash);
                now += Nanos::from_micros(10);
            }
            let _ = round;
        }
        assert!(ftl.stats().gc_campaigns > 0, "GC never triggered");
        assert!(ftl.stats().blocks_erased > 0);
        assert!(
            ftl.stats().write_amplification() >= 1.0,
            "WAF must be at least 1"
        );
        // Every logical page must still be mapped to a valid physical page and
        // all mappings must be distinct.
        let mut seen = std::collections::HashSet::new();
        for i in 0..32u64 {
            let ppa = ftl.translate(Lpa::new(i)).expect("page lost by GC");
            assert!(seen.insert(ppa), "two LPAs map to the same PPA");
        }
        assert_eq!(mapped_pages(&ftl), 32);
    }

    #[test]
    fn gc_report_and_active_window() {
        let (mut ftl, mut flash) = setup();
        let mut now = Nanos::ZERO;
        let mut saw_gc = false;
        for _ in 0..30u64 {
            for i in 0..16u64 {
                let out = ftl.write_page(Lpa::new(i), now, &mut flash);
                if let Some(gc) = out.gc {
                    saw_gc = true;
                    assert!(gc >= now);
                    assert!(ftl.gc_active_until >= gc);
                }
                now += Nanos::from_micros(5);
            }
        }
        assert!(saw_gc);
        assert!(ftl.stats().blocks_erased > 0);
        assert!(ftl.gc_active(Nanos::ZERO) || ftl.gc_active_until > Nanos::ZERO);
    }

    #[test]
    fn precondition_maps_without_stats() {
        let (mut ftl, _flash) = setup();
        ftl.precondition((0..64).map(Lpa::new));
        assert_eq!(mapped_pages(&ftl), 64);
        assert_eq!(ftl.stats().host_pages_written, 0);
        assert!(ftl.blocks.utilisation() > 0.49);
    }

    #[test]
    fn utilisation_tracks_writes_not_overwrites() {
        let (mut ftl, mut flash) = setup();
        assert_eq!(ftl.blocks.utilisation(), 0.0);
        for i in 0..16u64 {
            ftl.write_page(Lpa::new(i), Nanos::ZERO, &mut flash);
        }
        assert_eq!(ftl.blocks.utilisation(), 16.0 / 128.0);
        // An overwrite moves the page; the live-page count stays the same.
        ftl.write_page(Lpa::new(3), Nanos::ZERO, &mut flash);
        assert_eq!(ftl.blocks.utilisation(), 16.0 / 128.0);
    }

    #[test]
    fn mapped_pages_counts_distinct_lpas() {
        let (mut ftl, mut flash) = setup();
        ftl.precondition((0..8).map(Lpa::new));
        assert_eq!(mapped_pages(&ftl), 8);
        // Preconditioning mapped pages again maps nothing new.
        ftl.precondition((4..12).map(Lpa::new));
        assert_eq!(mapped_pages(&ftl), 12);
        ftl.write_page(Lpa::new(5), Nanos::ZERO, &mut flash);
        ftl.write_page(Lpa::new(5), Nanos::ZERO, &mut flash);
        assert_eq!(mapped_pages(&ftl), 12);
        ftl.write_page(Lpa::new(40), Nanos::ZERO, &mut flash);
        assert_eq!(mapped_pages(&ftl), 13);
    }

    #[test]
    fn the_map_grows_to_a_far_lpa_on_first_write() {
        let (mut ftl, mut flash) = setup();
        ftl.write_page(Lpa::new(2), Nanos::ZERO, &mut flash);
        assert_eq!(ftl.translate(Lpa::new(10_000)), None);
        assert!(!ftl.is_mapped(Lpa::new(u64::MAX)));
        ftl.write_page(Lpa::new(10_000), Nanos::ZERO, &mut flash);
        assert!(ftl.is_mapped(Lpa::new(10_000)));
        assert!(ftl.is_mapped(Lpa::new(2)));
        let below: Vec<u64> = (0..10_000u64)
            .filter(|&i| ftl.is_mapped(Lpa::new(i)))
            .collect();
        assert_eq!(below, vec![2]);
        assert_eq!(ftl.translate(Lpa::new(10_001)), None);
        assert_eq!(mapped_pages(&ftl), 2);
    }

    #[test]
    fn waf_grows_with_gc() {
        let (mut ftl, mut flash) = setup();
        let mut now = Nanos::ZERO;
        // Fill 96 of the 128 physical pages with live data, then repeatedly
        // overwrite a hot subset that is interleaved with cold pages inside
        // the same blocks, so every GC victim has live pages to relocate.
        for i in 0..96u64 {
            ftl.write_page(Lpa::new(i), now, &mut flash);
            now += Nanos::from_micros(3);
        }
        for _ in 0..10u64 {
            for i in (0..96u64).step_by(3) {
                ftl.write_page(Lpa::new(i), now, &mut flash);
                now += Nanos::from_micros(3);
            }
        }
        assert!(ftl.stats().gc_campaigns > 0);
        assert!(ftl.stats().gc_pages_relocated > 0);
        assert!(
            ftl.stats().write_amplification() > 1.0,
            "GC relocations must raise WAF above 1, got {}",
            ftl.stats().write_amplification()
        );
        // Flash-side accounting agrees with FTL-side accounting.
        assert_eq!(
            flash.stats().pages_programmed,
            ftl.stats().flash_pages_programmed
        );
    }
}
