//! Page migration between the CXL-SSD and host DRAM (§III-C and §VI-H).
//!
//! The [`MigrationEngine`] owns the mechanism (CXL page copies, the host
//! DRAM transfer, PTE/TLB updates, budget-driven demotion) and matches on
//! its [`MigrationPolicyKind`] for the decision of when and what to
//! promote. A migration completes within the call that starts it, so no
//! access can meet a page in flight and the paper's Promotion Look-aside
//! Buffer is not modelled. The paper's promotion policies:
//!
//! * `adaptive` (SkyByte): the SSD controller tracks per-page access
//!   counts and nominates hot, cache-resident pages; the OS copies them into
//!   its promotion pool, updates the PTE and shoots down the TLB entry.
//! * `tpp` (SkyByte-CT / -WCT): the OS samples accesses periodically and
//!   promotes pages touched at least twice in a window — less accurate than
//!   the controller's exact counters. The sampler, with its per-period
//!   promotion budget, is a field of the engine.
//! * `astriflash`: the host DRAM acts as an on-demand page cache of the SSD;
//!   every SSD read miss fills the page into host DRAM, evicting on
//!   conflict. The background pass never promotes.
//! * `disabled`: no migration at all.
//!
//! When the promotion budget is exhausted, a cold page (Linux-style
//! active/inactive reclamation) is evicted back to the SSD first.

use serde::{Deserialize, Serialize};
use skybyte_cpu::HostDram;
use skybyte_cxl::CxlPort;
use skybyte_os::{HostMemoryPool, PageTable, PoolDecision, Tlb, TppSampler};
use skybyte_ssd::SsdController;
use skybyte_types::{Lpa, MigrationPolicyKind, Nanos, PageNumber, SimConfig, PAGE_SIZE};

/// Counters of migration activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationStats {
    /// Invocations of the background promotion policy (`MigrationEngine::run`).
    pub runs: u64,
    /// Pages promoted from the SSD to host DRAM.
    pub promotions: u64,
    /// Pages evicted from host DRAM back to the SSD.
    pub demotions: u64,
    /// TLB shootdowns issued for PTE updates.
    pub tlb_shootdowns: u64,
}

/// Everything the migration engine needs to touch when moving a page.
pub(crate) struct MigrationContext<'a> {
    /// The SSD controller (source/sink of migrated pages).
    pub ssd: &'a mut SsdController,
    /// The OS page table.
    pub page_table: &'a mut PageTable,
    /// The (shared) TLB model.
    pub tlb: &'a mut Tlb,
    /// The CXL link carrying the page copies.
    pub port: &'a mut CxlPort,
    /// Host DRAM receiving promoted pages.
    pub host_dram: &'a mut HostDram,
}

/// The page-migration engine.
#[derive(Debug)]
pub(crate) struct MigrationEngine {
    policy: MigrationPolicyKind,
    /// TPP's access sampler, configured with the sampling period and the
    /// per-period promotion budget (`tpp_promotions_per_period`). Only the
    /// `tpp` policy feeds or reads it.
    tpp: TppSampler,
    pool: HostMemoryPool,
    stats: MigrationStats,
}

impl MigrationEngine {
    /// Creates the engine for the configuration's migration policy and host
    /// DRAM promotion budget. A variant that does not migrate keeps the
    /// engine disabled whatever `cfg.migration.policy` says.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        let policy = if cfg.variant.migration_policy() == MigrationPolicyKind::Disabled {
            MigrationPolicyKind::Disabled
        } else {
            cfg.migration.policy
        };
        MigrationEngine {
            policy,
            tpp: TppSampler::new(&cfg.migration),
            pool: HostMemoryPool::new(cfg.host_dram.promotion_capacity_bytes),
            stats: MigrationStats::default(),
        }
    }

    /// Whether any migration happens at all.
    pub(crate) fn enabled(&self) -> bool {
        self.policy != MigrationPolicyKind::Disabled
    }

    /// Records an access to a promoted page (maintains the active/inactive
    /// reclamation lists).
    pub(crate) fn record_host_access(&mut self, lpa: Lpa) {
        self.pool.record_access(lpa);
    }

    /// Records an access to an SSD-resident page (feeds the TPP sampler).
    pub(crate) fn record_ssd_access(&mut self, lpa: Lpa, now: Nanos) {
        if self.policy == MigrationPolicyKind::Tpp {
            self.tpp.record_access(lpa, now);
        }
    }

    /// Runs the background promotion policy once: nominates at most one
    /// candidate and migrates it. Returns the promoted page, if any.
    pub(crate) fn run(&mut self, now: Nanos, ctx: &mut MigrationContext<'_>) -> Option<Lpa> {
        self.stats.runs += 1;
        let lpa = match self.policy {
            MigrationPolicyKind::Adaptive => ctx.ssd.promotion_candidate(),
            MigrationPolicyKind::Tpp => {
                self.tpp.roll_window(now);
                self.tpp.take_candidate()
            }
            MigrationPolicyKind::AstriFlash | MigrationPolicyKind::Disabled => None,
        }?;
        self.promote_one(lpa, now, ctx)
    }

    /// On-demand fill: promote the page that just missed in SSD DRAM. Called
    /// by the engine on every SSD read miss; a no-op unless the policy
    /// promotes on demand (AstriFlash's page-cache semantics).
    pub(crate) fn on_demand_fill(
        &mut self,
        lpa: Lpa,
        now: Nanos,
        ctx: &mut MigrationContext<'_>,
    ) -> Option<Lpa> {
        if self.policy != MigrationPolicyKind::AstriFlash {
            return None;
        }
        self.promote_one(lpa, now, ctx)
    }

    /// Migration statistics.
    pub(crate) fn stats(&self) -> &MigrationStats {
        &self.stats
    }

    fn promote_one(&mut self, lpa: Lpa, now: Nanos, ctx: &mut MigrationContext<'_>) -> Option<Lpa> {
        if self.pool.contains(lpa) {
            return None;
        }
        // Make room, evicting cold pages back to the SSD as needed.
        let frame = loop {
            match self.pool.promote(lpa) {
                PoolDecision::Allocated(frame) => break frame,
                PoolDecision::NeedsEviction(victim) => {
                    if victim == lpa {
                        // Zero-capacity pool: promotion impossible.
                        return None;
                    }
                    self.demote_one(victim, now, ctx);
                }
            }
        };

        // Copy the page over the CXL link into host DRAM, then finalise
        // PTE/TLB state. The copies occupy the link and the DRAM channels,
        // but no thread waits for them: the promotion completes here.
        let source = PageNumber(lpa.index());
        let copy_arrival = ctx.port.deliver_payload(now, PAGE_SIZE as u64);
        ctx.host_dram.transfer(copy_arrival, PAGE_SIZE as u64);
        ctx.ssd.promote_page(lpa);
        ctx.page_table.promote(source, frame);
        ctx.tlb.shootdown(source);
        self.stats.tlb_shootdowns += 1;
        self.stats.promotions += 1;
        Some(lpa)
    }

    fn demote_one(&mut self, victim: Lpa, now: Nanos, ctx: &mut MigrationContext<'_>) {
        let vpage = PageNumber(victim.index());
        // Copy the page back over the link and program it through the FTL.
        let copy_arrival = ctx.port.deliver_payload(now, PAGE_SIZE as u64);
        ctx.ssd.demote_page(victim, copy_arrival);
        ctx.page_table.demote(vpage, victim);
        ctx.tlb.shootdown(vpage);
        self.pool.evict(victim);
        self.stats.demotions += 1;
        self.stats.tlb_shootdowns += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_types::{SsdGeometry, VariantKind, KIB, MIB};

    /// Whether the page table places virtual page `page` in host DRAM.
    fn is_host(pt: &PageTable, page: u64) -> bool {
        matches!(
            pt.translate(PageNumber(page)),
            skybyte_os::PagePlacement::HostDram(_)
        )
    }

    fn test_setup(variant: VariantKind, host_pages: u64) -> (SimConfig, SsdController) {
        let mut cfg = SimConfig::default().with_variant(variant);
        cfg.ssd.geometry = SsdGeometry {
            channels: 4,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 32,
            pages_per_block: 32,
        };
        cfg.ssd.dram.data_cache_bytes = MIB;
        cfg.ssd.dram.write_log_bytes = 64 * KIB;
        cfg.host_dram.promotion_capacity_bytes = host_pages * PAGE_SIZE as u64;
        cfg.migration.hotness_threshold = 2;
        let ssd = SsdController::new(&cfg);
        (cfg, ssd)
    }

    fn full_ctx<'a>(
        ssd: &'a mut SsdController,
        pt: &'a mut PageTable,
        tlb: &'a mut Tlb,
        port: &'a mut CxlPort,
        dram: &'a mut HostDram,
    ) -> MigrationContext<'a> {
        MigrationContext {
            ssd,
            page_table: pt,
            tlb,
            port,
            host_dram: dram,
        }
    }

    #[test]
    fn adaptive_policy_promotes_hot_pages() {
        let (cfg, mut ssd) = test_setup(VariantKind::SkyByteFull, 16);
        let mut engine = MigrationEngine::new(&cfg);
        assert!(engine.enabled());
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(64, Nanos::new(100));
        let mut port = CxlPort::new(Nanos::new(40), 16 << 30);
        let mut dram = HostDram::new(&cfg.host_dram);

        // Make page 5 hot in the SSD.
        ssd.precondition([Lpa::new(5)]);
        let mut now = Nanos::ZERO;
        for _ in 0..4 {
            let out = ssd.handle_read(Lpa::new(5), 0, now);
            now = out.ready_at + Nanos::new(50);
        }
        let mut ctx = full_ctx(&mut ssd, &mut pt, &mut tlb, &mut port, &mut dram);
        let promoted = engine.run(now, &mut ctx);
        assert_eq!(promoted, Some(Lpa::new(5)));
        assert!(engine.pool.contains(Lpa::new(5)));
        assert_eq!(engine.stats().promotions, 1);
        assert!(is_host(&pt, 5));
        // Running again finds no new candidate.
        let mut ctx = full_ctx(&mut ssd, &mut pt, &mut tlb, &mut port, &mut dram);
        assert_eq!(engine.run(now, &mut ctx), None);
    }

    #[test]
    fn budget_exhaustion_demotes_cold_pages() {
        let (cfg, mut ssd) = test_setup(VariantKind::SkyByteFull, 2);
        let mut engine = MigrationEngine::new(&cfg);
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(64, Nanos::new(100));
        let mut port = CxlPort::new(Nanos::new(40), 16 << 30);
        let mut dram = HostDram::new(&cfg.host_dram);

        ssd.precondition((0..4).map(Lpa::new));
        let mut now = Nanos::ZERO;
        // Heat pages 0..3 one after another; budget is only 2 pages.
        for p in 0..4u64 {
            for _ in 0..3 {
                let out = ssd.handle_read(Lpa::new(p), 0, now);
                now = out.ready_at + Nanos::new(50);
            }
            let mut ctx = full_ctx(&mut ssd, &mut pt, &mut tlb, &mut port, &mut dram);
            engine.run(now, &mut ctx);
        }
        assert!(engine.stats().promotions >= 3);
        assert!(engine.stats().demotions >= 1, "budget must force demotions");
        let resident = (0..4).filter(|&p| engine.pool.contains(Lpa::new(p)));
        assert!(resident.count() <= 2);
        assert!(engine.stats().tlb_shootdowns >= 4);
    }

    #[test]
    fn astriflash_fills_on_demand_only() {
        let (mut cfg, _) = test_setup(VariantKind::AstriFlashCxl, 8);
        cfg.migration.policy = MigrationPolicyKind::AstriFlash;
        let mut ssd = SsdController::new(&cfg);
        let mut engine = MigrationEngine::new(&cfg);
        assert_eq!(engine.policy, MigrationPolicyKind::AstriFlash);
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(64, Nanos::new(100));
        let mut port = CxlPort::new(Nanos::new(40), 16 << 30);
        let mut dram = HostDram::new(&cfg.host_dram);

        ssd.precondition([Lpa::new(9)]);
        // Background run does nothing for AstriFlash.
        let mut ctx = full_ctx(&mut ssd, &mut pt, &mut tlb, &mut port, &mut dram);
        assert_eq!(engine.run(Nanos::ZERO, &mut ctx), None);
        // An on-demand fill promotes the missed page.
        let mut ctx = full_ctx(&mut ssd, &mut pt, &mut tlb, &mut port, &mut dram);
        let got = engine.on_demand_fill(Lpa::new(9), Nanos::ZERO, &mut ctx);
        assert_eq!(got, Some(Lpa::new(9)));
        assert!(engine.pool.contains(Lpa::new(9)));
    }

    #[test]
    fn each_page_copy_is_one_page_payload_and_one_shootdown() {
        let (mut cfg, _) = test_setup(VariantKind::AstriFlashCxl, 1);
        cfg.migration.policy = MigrationPolicyKind::AstriFlash;
        let mut ssd = SsdController::new(&cfg);
        let mut engine = MigrationEngine::new(&cfg);
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(64, Nanos::new(100));
        let mut port = CxlPort::new(Nanos::new(40), 16 << 30);
        let mut dram = HostDram::new(&cfg.host_dram);
        ssd.precondition([Lpa::new(1), Lpa::new(2)]);
        let page = PAGE_SIZE as u64;

        // A promotion: one port response carrying the page, one shootdown.
        let mut ctx = full_ctx(&mut ssd, &mut pt, &mut tlb, &mut port, &mut dram);
        assert_eq!(
            engine.on_demand_fill(Lpa::new(1), Nanos::ZERO, &mut ctx),
            Some(Lpa::new(1))
        );
        assert_eq!(port.stats().responses, 1);
        assert_eq!(port.stats().payload_bytes, page);
        assert_eq!(engine.stats().tlb_shootdowns, 1);

        // The one-page budget is full, so the next promotion first demotes
        // page 1: each copy adds the same again.
        let mut ctx = full_ctx(&mut ssd, &mut pt, &mut tlb, &mut port, &mut dram);
        assert_eq!(
            engine.on_demand_fill(Lpa::new(2), Nanos::from_micros(1), &mut ctx),
            Some(Lpa::new(2))
        );
        assert_eq!(engine.stats().demotions, 1);
        assert_eq!(engine.stats().promotions, 2);
        assert_eq!(port.stats().responses, 3);
        assert_eq!(port.stats().payload_bytes, 3 * page);
        assert_eq!(engine.stats().tlb_shootdowns, 3);
        // Page copies are responses, never host requests.
        assert_eq!(port.stats().requests, 0);
        assert!(is_host(&pt, 2));
        assert!(!is_host(&pt, 1));
    }

    #[test]
    fn disabled_policy_never_promotes() {
        let (cfg, mut ssd) = test_setup(VariantKind::BaseCssd, 8);
        let mut engine = MigrationEngine::new(&cfg);
        assert!(!engine.enabled());
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(64, Nanos::new(100));
        let mut port = CxlPort::new(Nanos::new(40), 16 << 30);
        let mut dram = HostDram::new(&cfg.host_dram);
        let mut ctx = full_ctx(&mut ssd, &mut pt, &mut tlb, &mut port, &mut dram);
        assert_eq!(engine.run(Nanos::ZERO, &mut ctx), None);
        assert_eq!(
            engine.on_demand_fill(Lpa::new(1), Nanos::ZERO, &mut ctx),
            None
        );
        assert_eq!(engine.stats().promotions, 0);
    }

    #[test]
    fn tpp_policy_uses_sampler_candidates() {
        let (mut cfg, _) = test_setup(VariantKind::SkyByteCT, 8);
        cfg.migration.tpp_sample_period = Nanos::from_micros(10);
        let mut ssd = SsdController::new(&cfg);
        let mut engine = MigrationEngine::new(&cfg);
        assert_eq!(engine.policy, MigrationPolicyKind::Tpp);
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(64, Nanos::new(100));
        let mut port = CxlPort::new(Nanos::new(40), 16 << 30);
        let mut dram = HostDram::new(&cfg.host_dram);

        ssd.precondition([Lpa::new(0)]);
        // Page 0 is sampled by TPP (index 0 % 8 == 0); touch it repeatedly.
        for i in 0..50u64 {
            engine.record_ssd_access(Lpa::new(0), Nanos::new(i * 100));
        }
        let mut ctx = full_ctx(&mut ssd, &mut pt, &mut tlb, &mut port, &mut dram);
        let promoted = engine.run(Nanos::from_micros(50), &mut ctx);
        assert_eq!(promoted, Some(Lpa::new(0)));
    }
}
