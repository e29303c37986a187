//! Memory access records exchanged between the core model, the CXL port and
//! the SSD controller.

use crate::addr::VirtAddr;

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (read) of one cacheline.
    Read,
    /// A store (write) of one cacheline.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// Returns `true` for [`AccessKind::Read`].
    #[inline]
    pub const fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }
}

/// A single off-chip memory access as produced by a workload trace.
///
/// Workload generators emit cacheline-granular virtual addresses plus the
/// amount of computation that precedes the access; the core model converts the
/// computation to time and the memory system resolves the address.
///
/// # Example
///
/// ```
/// use skybyte_types::{AccessKind, MemAccess, VirtAddr};
/// let a = MemAccess::new(VirtAddr::new(0x1000), AccessKind::Read);
/// assert!(a.kind.is_read());
/// assert_eq!(a.addr.page().index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Virtual address of the accessed cacheline (need not be aligned; the
    /// memory system aligns it).
    pub addr: VirtAddr,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemAccess {
    /// Creates an access of the given kind.
    pub const fn new(addr: VirtAddr, kind: AccessKind) -> Self {
        MemAccess { addr, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Write.is_read());
    }

    #[test]
    fn constructors_set_kind() {
        let r = MemAccess::new(VirtAddr::new(64), AccessKind::Read);
        let w = MemAccess::new(VirtAddr::new(64), AccessKind::Write);
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(r.addr, w.addr);
        assert_ne!(r, w);
    }
}
