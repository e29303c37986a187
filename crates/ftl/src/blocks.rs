//! Physical block bookkeeping: free pools, open blocks, valid-page counts.

use serde::{Deserialize, Serialize};
use skybyte_types::{Lpa, Ppa, SsdGeometry};
use std::collections::VecDeque;

/// A linear index identifying one erase block in the flash array.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct BlockId(pub u64);

impl BlockId {
    /// The raw linear block index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

/// Lifecycle state of an erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockState {
    /// Erased and available for allocation.
    Free,
    /// Currently receiving programs (the active block of some channel).
    Open,
    /// Fully programmed.
    Full,
}

/// Per-block metadata tracked by the FTL.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BlockInfo {
    state: BlockState,
    /// Next page offset to program in this block (valid while `Open`).
    write_ptr: u32,
    /// Number of pages in this block that hold live (mapped) data.
    valid_pages: u32,
    /// Reverse map: page offset within the block -> logical page stored
    /// there, `None` once the logical page is overwritten elsewhere. Pages
    /// are programmed sequentially, so the vector's length always equals
    /// `write_ptr` and lookups are direct indexing instead of hashing.
    contents: Vec<Option<Lpa>>,
    /// Number of times this block has been erased (wear).
    erase_count: u32,
}

impl BlockInfo {
    fn new_free() -> Self {
        BlockInfo {
            state: BlockState::Free,
            write_ptr: 0,
            valid_pages: 0,
            contents: Vec::new(),
            erase_count: 0,
        }
    }
}

/// Manages the physical blocks of the flash array: free pools, the open block
/// of each channel, valid-page accounting and victim selection for GC.
///
/// Writes are striped round-robin across channels so that log compaction and
/// GC can exploit channel parallelism.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockManager {
    geometry: SsdGeometry,
    blocks: Vec<BlockInfo>,
    /// Free blocks per channel.
    free_lists: Vec<VecDeque<BlockId>>,
    /// The block currently being programmed on each channel, if any.
    open_blocks: Vec<Option<BlockId>>,
    /// Round-robin pointer used to pick the next channel for a host write.
    next_channel: u32,
    free_count: u64,
    /// Sum of `valid_pages` over all blocks, kept so `utilisation` is O(1).
    valid_count: u64,
}

impl BlockManager {
    /// Creates a block manager with every block free.
    pub fn new(geometry: SsdGeometry) -> Self {
        let total_blocks = geometry.total_blocks();
        let blocks = (0..total_blocks).map(|_| BlockInfo::new_free()).collect();
        let blocks_per_channel = total_blocks / geometry.channels as u64;
        let mut free_lists: Vec<VecDeque<BlockId>> =
            (0..geometry.channels).map(|_| VecDeque::new()).collect();
        for b in 0..total_blocks {
            let channel = (b / blocks_per_channel).min(geometry.channels as u64 - 1);
            free_lists[channel as usize].push_back(BlockId(b));
        }
        BlockManager {
            geometry,
            blocks,
            free_lists,
            open_blocks: vec![None; geometry.channels as usize],
            next_channel: 0,
            free_count: total_blocks,
            valid_count: 0,
        }
    }

    /// Total number of blocks.
    pub fn total_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Number of blocks currently free (erased and unallocated).
    pub fn free_blocks(&self) -> u64 {
        self.free_count
    }

    /// The channel that owns a block.
    pub fn channel_of(&self, block: BlockId) -> u16 {
        let blocks_per_channel = self.geometry.total_blocks() / self.geometry.channels as u64;
        (block.0 / blocks_per_channel).min(self.geometry.channels as u64 - 1) as u16
    }

    /// Converts a block + in-block page offset into a full physical address.
    pub fn ppa_of(&self, block: BlockId, page: u32) -> Ppa {
        let g = &self.geometry;
        let blocks_per_plane = g.blocks_per_plane as u64;
        let planes_per_die = g.planes_per_die as u64;
        let dies_per_chip = g.dies_per_chip as u64;
        let chips_per_channel = g.chips_per_channel as u64;

        let mut rest = block.0;
        let blk = rest % blocks_per_plane;
        rest /= blocks_per_plane;
        let plane = rest % planes_per_die;
        rest /= planes_per_die;
        let die = rest % dies_per_chip;
        rest /= dies_per_chip;
        let chip = rest % chips_per_channel;
        rest /= chips_per_channel;
        let channel = rest;
        Ppa {
            channel: channel as u16,
            chip: chip as u16,
            die: die as u16,
            plane: plane as u16,
            block: blk as u32,
            page,
        }
    }

    /// Converts a physical page address back to the linear block id.
    pub fn block_of_ppa(&self, ppa: Ppa) -> BlockId {
        let g = &self.geometry;
        let id = (((ppa.channel as u64 * g.chips_per_channel as u64 + ppa.chip as u64)
            * g.dies_per_chip as u64
            + ppa.die as u64)
            * g.planes_per_die as u64
            + ppa.plane as u64)
            * g.blocks_per_plane as u64
            + ppa.block as u64;
        BlockId(id)
    }

    /// Allocates the next physical page for a host/GC write, striping across
    /// channels round-robin. Returns `(ppa, block)` or `None` if the device
    /// is completely full.
    pub fn allocate_page(&mut self, lpa: Lpa) -> Option<(Ppa, BlockId)> {
        let channels = self.geometry.channels;
        for attempt in 0..channels {
            let ch = ((self.next_channel + attempt) % channels) as usize;
            if let Some((ppa, blk)) = self.allocate_on_channel(ch, lpa) {
                self.next_channel = (ch as u32 + 1) % channels;
                return Some((ppa, blk));
            }
        }
        None
    }

    /// Allocates the next physical page on a specific channel (used by GC to
    /// relocate pages within their original channel). Returns `None` if that
    /// channel has no free space.
    pub fn allocate_on_channel(&mut self, channel: usize, lpa: Lpa) -> Option<(Ppa, BlockId)> {
        // Ensure there is an open block.
        if self.open_blocks[channel].is_none() {
            let blk = self.free_lists[channel].pop_front()?;
            self.free_count -= 1;
            let info = &mut self.blocks[blk.0 as usize];
            info.state = BlockState::Open;
            info.write_ptr = 0;
            self.open_blocks[channel] = Some(blk);
        }
        let blk = self.open_blocks[channel].expect("open block exists");
        let pages_per_block = self.geometry.pages_per_block;
        let info = &mut self.blocks[blk.0 as usize];
        let page = info.write_ptr;
        info.write_ptr += 1;
        info.valid_pages += 1;
        self.valid_count += 1;
        debug_assert_eq!(info.contents.len() as u32, page);
        info.contents.push(Some(lpa));
        if info.write_ptr >= pages_per_block {
            info.state = BlockState::Full;
            self.open_blocks[channel] = None;
        }
        Some((self.ppa_of(blk, page), blk))
    }

    /// Marks the physical page previously holding `lpa` as invalid (called on
    /// an out-of-place update or when the logical page is discarded).
    pub fn invalidate(&mut self, ppa: Ppa) {
        let blk = self.block_of_ppa(ppa);
        let info = &mut self.blocks[blk.0 as usize];
        if let Some(slot) = info.contents.get_mut(ppa.page as usize) {
            if slot.take().is_some() {
                info.valid_pages -= 1;
                self.valid_count -= 1;
            }
        }
    }

    /// Number of live pages in a block.
    pub fn valid_pages(&self, block: BlockId) -> u32 {
        self.blocks[block.0 as usize].valid_pages
    }

    /// State of a block.
    pub fn state(&self, block: BlockId) -> BlockState {
        self.blocks[block.0 as usize].state
    }

    /// Erase count (wear) of a block.
    pub fn erase_count(&self, block: BlockId) -> u32 {
        self.blocks[block.0 as usize].erase_count
    }

    /// The live logical pages stored in a block, as `(page_offset, lpa)`
    /// pairs, sorted by page offset. Used by GC to relocate victims.
    pub fn live_contents(&self, block: BlockId) -> Vec<(u32, Lpa)> {
        self.blocks[block.0 as usize]
            .contents
            .iter()
            .enumerate()
            .filter_map(|(p, l)| l.map(|l| (p as u32, l)))
            .collect()
    }

    /// Chooses up to `count` GC victims: full blocks with the fewest valid
    /// pages (greedy policy), never selecting open or free blocks.
    pub fn select_gc_victims(&self, count: usize) -> Vec<BlockId> {
        let mut candidates: Vec<(u32, BlockId)> = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.state == BlockState::Full)
            .map(|(i, b)| (b.valid_pages, BlockId(i as u64)))
            .collect();
        candidates.sort_unstable_by_key(|(valid, id)| (*valid, id.0));
        candidates
            .into_iter()
            .take(count)
            .map(|(_, id)| id)
            .collect()
    }

    /// Erases a block: all residual contents are dropped, the erase counter
    /// is incremented and the block returns to the free pool of its channel.
    ///
    /// # Panics
    ///
    /// Panics if the block still contains valid pages (GC must relocate them
    /// first) or if the block is currently open.
    pub fn erase_block(&mut self, block: BlockId) {
        let channel = self.channel_of(block) as usize;
        let info = &mut self.blocks[block.0 as usize];
        assert_eq!(
            info.valid_pages, 0,
            "erasing block {block:?} with {} valid pages",
            info.valid_pages
        );
        assert_ne!(info.state, BlockState::Open, "cannot erase an open block");
        if info.state == BlockState::Free {
            return;
        }
        info.state = BlockState::Free;
        info.write_ptr = 0;
        info.contents.clear();
        info.erase_count += 1;
        self.free_lists[channel].push_back(block);
        self.free_count += 1;
    }

    /// Fraction of all pages (across full and open blocks) that hold valid
    /// data; this is the device utilisation compared against the GC
    /// threshold.
    pub fn utilisation(&self) -> f64 {
        self.valid_count as f64 / self.geometry.total_pages() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_geometry() -> SsdGeometry {
        SsdGeometry {
            channels: 2,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 4,
            pages_per_block: 4,
            page_size_bytes: 4096,
        }
    }

    #[test]
    fn ppa_block_round_trip() {
        let mgr = BlockManager::new(SsdGeometry::default());
        for raw in [0u64, 1, 127, 128, 1000, 131071] {
            let blk = BlockId(raw);
            let ppa = mgr.ppa_of(blk, 3);
            assert_eq!(mgr.block_of_ppa(ppa), blk, "round trip failed for {raw}");
            assert_eq!(ppa.page, 3);
            assert_eq!(mgr.channel_of(blk), ppa.channel);
        }
    }

    #[test]
    fn allocation_stripes_across_channels() {
        let mut mgr = BlockManager::new(small_geometry());
        let (a, _) = mgr.allocate_page(Lpa::new(0)).unwrap();
        let (b, _) = mgr.allocate_page(Lpa::new(1)).unwrap();
        assert_ne!(a.channel, b.channel, "consecutive writes should stripe");
    }

    #[test]
    fn block_fills_and_closes() {
        let mut mgr = BlockManager::new(small_geometry());
        let mut blocks_used = std::collections::HashSet::new();
        // 2 channels * 4 blocks * 4 pages = 32 pages total.
        for i in 0..32 {
            let (_, blk) = mgr.allocate_page(Lpa::new(i)).unwrap();
            blocks_used.insert(blk);
        }
        assert_eq!(blocks_used.len(), 8);
        assert_eq!(mgr.free_blocks(), 0);
        assert!(mgr.allocate_page(Lpa::new(99)).is_none());
        assert!((mgr.utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalidate_and_gc_victim_selection() {
        let mut mgr = BlockManager::new(small_geometry());
        let mut placements = Vec::new();
        for i in 0..8 {
            let (ppa, blk) = mgr.allocate_page(Lpa::new(i)).unwrap();
            placements.push((Lpa::new(i), ppa, blk));
        }
        // Invalidate everything in the first block used on channel 0.
        let victim_block = placements[0].2;
        for (_, ppa, blk) in &placements {
            if blk == &victim_block {
                mgr.invalidate(*ppa);
            }
        }
        assert_eq!(mgr.valid_pages(victim_block), 0);
        let victims = mgr.select_gc_victims(1);
        assert_eq!(victims, vec![victim_block]);
        // The block must be Full before erase (4 pages per block / 8 allocs
        // across 2 channels means it is full).
        assert_eq!(mgr.state(victim_block), BlockState::Full);
        let free_before = mgr.free_blocks();
        mgr.erase_block(victim_block);
        assert_eq!(mgr.state(victim_block), BlockState::Free);
        assert_eq!(mgr.erase_count(victim_block), 1);
        assert_eq!(mgr.free_blocks(), free_before + 1);
    }

    #[test]
    fn live_contents_reports_survivors() {
        let mut mgr = BlockManager::new(small_geometry());
        let mut by_block: std::collections::HashMap<BlockId, Vec<(Lpa, Ppa)>> =
            std::collections::HashMap::new();
        for i in 0..8 {
            let (ppa, blk) = mgr.allocate_page(Lpa::new(i)).unwrap();
            by_block.entry(blk).or_default().push((Lpa::new(i), ppa));
        }
        let (blk, pages) = by_block
            .iter()
            .next()
            .map(|(b, p)| (*b, p.clone()))
            .unwrap();
        mgr.invalidate(pages[0].1);
        let live = mgr.live_contents(blk);
        assert_eq!(live.len(), pages.len() - 1);
        assert!(!live.iter().any(|(_, l)| *l == pages[0].0));
    }

    #[test]
    #[should_panic(expected = "valid pages")]
    fn erase_rejects_blocks_with_valid_data() {
        let mut mgr = BlockManager::new(small_geometry());
        let mut blk = None;
        for i in 0..8 {
            let (_, b) = mgr.allocate_page(Lpa::new(i)).unwrap();
            blk = Some(b);
        }
        // The last allocated block is full but still valid.
        let full_block = blk.unwrap();
        mgr.erase_block(full_block);
    }

    #[test]
    fn gc_never_selects_open_blocks() {
        let mut mgr = BlockManager::new(small_geometry());
        // Allocate just one page: its block is open, not full.
        mgr.allocate_page(Lpa::new(0)).unwrap();
        assert!(mgr.select_gc_victims(4).is_empty());
    }

    proptest! {
        /// The running valid-page total behind `utilisation` equals the sum
        /// of every block's valid pages after any sequence of allocations,
        /// invalidations (repeated ones included) and erases of dead full
        /// blocks.
        #[test]
        fn prop_utilisation_is_the_sum_of_valid_pages(ops in proptest::collection::vec((0u8..3, 0u64..64), 1..300)) {
            let mut mgr = BlockManager::new(small_geometry());
            let total_pages = small_geometry().total_pages();
            let mut written: Vec<Ppa> = Vec::new();
            for (op, arg) in ops {
                match op {
                    0 => {
                        if let Some((ppa, _)) = mgr.allocate_page(Lpa::new(arg)) {
                            written.push(ppa);
                        }
                    }
                    1 if !written.is_empty() => {
                        mgr.invalidate(written[arg as usize % written.len()]);
                    }
                    _ => {
                        let blk = BlockId(arg % mgr.total_blocks());
                        if mgr.state(blk) == BlockState::Full && mgr.valid_pages(blk) == 0 {
                            mgr.erase_block(blk);
                        }
                    }
                }
                let valid: u64 = (0..mgr.total_blocks())
                    .map(|b| u64::from(mgr.valid_pages(BlockId(b))))
                    .sum();
                prop_assert_eq!(mgr.utilisation(), valid as f64 / total_pages as f64);
            }
        }
    }
}
