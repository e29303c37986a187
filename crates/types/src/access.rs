//! Memory access records exchanged between the core model, the CXL port and
//! the SSD controller.

use crate::addr::VirtAddr;
use std::fmt;

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

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "R"),
            AccessKind::Write => write!(f, "W"),
        }
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
/// let a = MemAccess::read(VirtAddr::new(0x1000));
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
    /// Creates a read access.
    pub const fn read(addr: VirtAddr) -> Self {
        MemAccess {
            addr,
            kind: AccessKind::Read,
        }
    }

    /// Creates a write access.
    pub const fn write(addr: VirtAddr) -> Self {
        MemAccess {
            addr,
            kind: AccessKind::Write,
        }
    }

    /// Creates an access of the given kind.
    pub const fn new(addr: VirtAddr, kind: AccessKind) -> Self {
        MemAccess { addr, kind }
    }
}

impl fmt::Display for MemAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.addr)
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
        let r = MemAccess::read(VirtAddr::new(64));
        let w = MemAccess::write(VirtAddr::new(64));
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(r.addr, w.addr);
        assert_eq!(MemAccess::new(VirtAddr::new(64), AccessKind::Write), w);
    }

    #[test]
    fn display_contains_kind_and_addr() {
        let s = format!("{}", MemAccess::write(VirtAddr::new(0x40)));
        assert!(s.starts_with('W'));
        assert!(s.contains("0x40"));
    }
}
