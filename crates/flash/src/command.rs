//! The NAND operations a flash channel serves.

use skybyte_types::{FlashTimingConfig, Nanos};
use std::fmt;

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

impl fmt::Display for FlashCommandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlashCommandKind::Read => "read",
            FlashCommandKind::Program => "program",
            FlashCommandKind::Erase => "erase",
        };
        f.write_str(s)
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

    #[test]
    fn display_names() {
        assert_eq!(FlashCommandKind::Read.to_string(), "read");
        assert_eq!(FlashCommandKind::Program.to_string(), "program");
        assert_eq!(FlashCommandKind::Erase.to_string(), "erase");
    }
}
