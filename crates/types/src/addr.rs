//! Strongly-typed addresses for every address space in a CXL-SSD system.
//!
//! The SkyByte system spans four address spaces:
//!
//! * **Host virtual addresses** ([`VirtAddr`]) — what the application issues.
//! * **Host/system physical addresses** ([`PhysAddr`]) — host DRAM plus the
//!   host-managed device memory (HDM) window of the CXL-SSD.
//! * **SSD logical page addresses** ([`Lpa`]) — the page index within the
//!   SSD's exported memory space; the write log and data cache are indexed by
//!   LPA (they sit *above* the FTL).
//! * **Flash physical page addresses** ([`Ppa`]) — channel/chip/die/plane/
//!   block/page coordinates produced by the FTL.
//!
//! Using newtypes for each space prevents the classic simulator bug of mixing
//! up page indices from different spaces.

use serde::{Deserialize, Serialize};
use std::fmt;

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

impl fmt::Display for PageNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PN({:#x})", self.0)
    }
}

macro_rules! byte_addr_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u64);

        impl $name {
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

            /// Byte offset of this address within its page.
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 % PAGE_SIZE as u64
            }

            /// Index of the cacheline containing this address within its page
            /// (0..=63 for 4 KiB pages).
            #[inline]
            pub const fn cacheline_in_page(self) -> u64 {
                (self.0 % PAGE_SIZE as u64) / CACHELINE_SIZE as u64
            }

            /// The address rounded down to its cacheline boundary.
            #[inline]
            pub const fn cacheline_aligned(self) -> Self {
                Self(self.0 - self.0 % CACHELINE_SIZE as u64)
            }

            /// The address rounded down to its page boundary.
            #[inline]
            pub const fn page_aligned(self) -> Self {
                Self(self.0 - self.0 % PAGE_SIZE as u64)
            }

            /// Returns the address advanced by `bytes`.
            #[inline]
            pub const fn offset(self, bytes: u64) -> Self {
                Self(self.0 + bytes)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(addr: u64) -> Self {
                Self(addr)
            }
        }

        impl From<$name> for u64 {
            fn from(a: $name) -> u64 {
                a.0
            }
        }
    };
}

byte_addr_type!(
    /// A host **virtual** byte address issued by an application thread.
    VirtAddr
);
byte_addr_type!(
    /// A host/system **physical** byte address. Depending on the memory map it
    /// refers either to host DRAM or to the HDM window of the CXL-SSD.
    PhysAddr
);

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

    /// Logical page that contains the given byte offset into the SSD memory
    /// space.
    #[inline]
    pub const fn containing(device_byte_offset: u64) -> Self {
        Lpa(device_byte_offset / PAGE_SIZE as u64)
    }

    /// Byte offset of the start of this logical page within the SSD memory
    /// space.
    #[inline]
    pub const fn byte_offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }
}

impl fmt::Display for Lpa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LPA({:#x})", self.0)
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

impl Ppa {
    /// Creates a physical page address from explicit coordinates.
    pub const fn new(channel: u16, chip: u16, die: u16, plane: u16, block: u32, page: u32) -> Self {
        Ppa {
            channel,
            chip,
            die,
            plane,
            block,
            page,
        }
    }
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PPA(ch{} chip{} die{} pl{} blk{} pg{})",
            self.channel, self.chip, self.die, self.plane, self.block, self.page
        )
    }
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
        assert_eq!(a.page_offset(), 2 * 64 + 7);
        assert_eq!(a.cacheline_in_page(), 2);
        assert_eq!(a.cacheline_aligned().as_u64() % 64, 0);
        assert_eq!(a.page_aligned().as_u64(), 3 * 4096);
    }

    #[test]
    fn lpa_containing() {
        assert_eq!(Lpa::containing(0), Lpa::new(0));
        assert_eq!(Lpa::containing(4095), Lpa::new(0));
        assert_eq!(Lpa::containing(4096), Lpa::new(1));
        assert_eq!(Lpa::new(5).byte_offset(), 5 * 4096);
    }

    #[test]
    fn display_forms_are_nonempty() {
        assert!(!format!("{}", VirtAddr::new(1)).is_empty());
        assert!(!format!("{}", PhysAddr::new(1)).is_empty());
        assert!(!format!("{}", Lpa::new(1)).is_empty());
        assert!(!format!("{}", Ppa::new(1, 2, 3, 0, 4, 5)).is_empty());
        assert!(!format!("{}", PageNumber(9)).is_empty());
    }

    #[test]
    fn conversions_to_and_from_u64() {
        let a: VirtAddr = 12345u64.into();
        let raw: u64 = a.into();
        assert_eq!(raw, 12345);
    }

    #[test]
    fn ppa_ordering_and_hashing() {
        use std::collections::HashSet;
        let a = Ppa::new(0, 0, 0, 0, 1, 2);
        let b = Ppa::new(0, 0, 0, 0, 1, 3);
        assert!(a < b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&a));
        assert!(!set.contains(&b));
    }
}
