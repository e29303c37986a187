//! Strongly-typed addresses for the address spaces of a CXL-SSD system.
//!
//! The simulator names three of them:
//!
//! * **Host virtual addresses** ([`VirtAddr`]) — what the application issues.
//! * **SSD logical page addresses** ([`Lpa`]) — the page index within the
//!   SSD's exported memory space; the write log and data cache are indexed by
//!   LPA (they sit *above* the FTL).
//! * **Flash physical page addresses** ([`Ppa`]) — channel/chip/die/plane/
//!   block/page coordinates produced by the FTL.
//!
//! Using newtypes for each space prevents the classic simulator bug of mixing
//! up page indices from different spaces.

use serde::{Deserialize, Serialize};

/// Size of a CXL.mem transfer / CPU cacheline, in bytes.
pub const CACHELINE_SIZE: usize = 64;
/// Size of a flash page (and OS page), in bytes.
pub const PAGE_SIZE: usize = 4096;
/// Number of cachelines per page.
pub const CACHELINES_PER_PAGE: usize = PAGE_SIZE / CACHELINE_SIZE;

/// Index of a cacheline within a page (0..=63).
pub type CachelineIndex = u8;

/// A generic page number (address divided by [`PAGE_SIZE`]) used where the
/// address space is implied by context.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct PageNumber(pub u64);

impl PageNumber {
    /// Returns the raw page index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }
}

/// A host **virtual** byte address issued by an application thread.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates an address from a raw byte value.
    #[inline]
    pub const fn new(addr: u64) -> Self {
        Self(addr)
    }

    /// The raw byte address.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The page containing this address.
    #[inline]
    pub const fn page(self) -> PageNumber {
        PageNumber(self.0 / PAGE_SIZE as u64)
    }

    /// Index of the cacheline containing this address within its page
    /// (0..=63 for 4 KiB pages).
    #[inline]
    pub const fn cacheline_in_page(self) -> u64 {
        (self.0 % PAGE_SIZE as u64) / CACHELINE_SIZE as u64
    }
}

/// A **logical page address** inside the SSD: the page index within the SSD's
/// exported memory space, before FTL translation.
///
/// The write log and data cache of SkyByte are indexed by LPA because they sit
/// on top of the FTL (§III-B of the paper).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Lpa(pub u64);

impl Lpa {
    /// Creates a logical page address from a raw page index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        Lpa(index)
    }

    /// The raw page index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }
}

/// A **physical page address** in flash: the coordinates of a page inside the
/// channel/chip/die/plane/block/page hierarchy.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ppa {
    /// Flash channel index.
    pub channel: u16,
    /// Chip index within the channel.
    pub chip: u16,
    /// Die index within the chip.
    pub die: u16,
    /// Plane index within the die.
    pub plane: u16,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_consistent() {
        assert_eq!(CACHELINES_PER_PAGE, 64);
        assert_eq!(PAGE_SIZE % CACHELINE_SIZE, 0);
    }

    #[test]
    fn virt_addr_decomposition() {
        let a = VirtAddr::new(3 * PAGE_SIZE as u64 + 2 * CACHELINE_SIZE as u64 + 7);
        assert_eq!(a.page().index(), 3);
        assert_eq!(a.cacheline_in_page(), 2);
        let last_line = VirtAddr::new(4 * PAGE_SIZE as u64 - 1);
        assert_eq!(last_line.page().index(), 3);
        assert_eq!(last_line.cacheline_in_page(), 63);
    }

    #[test]
    fn conversions_to_and_from_u64() {
        assert_eq!(VirtAddr::new(12345).as_u64(), 12345);
        assert_eq!(VirtAddr::new(u64::MAX).as_u64(), u64::MAX);
    }

    #[test]
    fn ppa_ordering_and_hashing() {
        use std::collections::HashSet;
        let a = Ppa {
            block: 1,
            page: 2,
            ..Ppa::default()
        };
        let b = Ppa { page: 3, ..a };
        assert!(a < b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&a));
        assert!(!set.contains(&b));
    }
}
