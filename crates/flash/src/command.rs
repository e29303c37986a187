//! The NAND operations a flash channel serves.

use skybyte_types::{FlashTimingConfig, Nanos};

/// The three NAND operations and their Table IV timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlashCommandKind {
    /// Page read (tR).
    Read,
    /// Page program (tProg).
    Program,
    /// Block erase (tBERS).
    Erase,
}

impl FlashCommandKind {
    /// Latency of this command under the given NAND timing.
    pub fn latency(self, timing: &FlashTimingConfig) -> Nanos {
        match self {
            FlashCommandKind::Read => timing.read_latency,
            FlashCommandKind::Program => timing.program_latency,
            FlashCommandKind::Erase => timing.erase_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_types::NandKind;

    #[test]
    fn latencies_follow_table4() {
        let t = FlashTimingConfig::for_kind(NandKind::Ull);
        assert_eq!(FlashCommandKind::Read.latency(&t), Nanos::from_micros(3));
        assert_eq!(
            FlashCommandKind::Program.latency(&t),
            Nanos::from_micros(100)
        );
        assert_eq!(
            FlashCommandKind::Erase.latency(&t),
            Nanos::from_micros(1000)
        );
    }
}
