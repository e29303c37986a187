//! Flash command descriptors.

use serde::{Deserialize, Serialize};
use skybyte_types::{FlashTimingConfig, Nanos, Ppa};
use std::fmt;

/// The three NAND operations and their Table IV timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

/// A flash command in flight: what, where, and when it will finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashCommand {
    /// Operation type.
    pub kind: FlashCommandKind,
    /// Target physical page (for erases, the page field is ignored).
    pub target: Ppa,
    /// Time the command was submitted to the channel queue.
    pub submitted_at: Nanos,
    /// Time the command starts occupying the channel.
    pub starts_at: Nanos,
    /// Time the command completes.
    pub completes_at: Nanos,
}

impl FlashCommand {
    /// Total latency from submission to completion.
    pub fn total_latency(&self) -> Nanos {
        self.completes_at.saturating_sub(self.submitted_at)
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
    fn command_delays() {
        let c = FlashCommand {
            kind: FlashCommandKind::Read,
            target: Ppa::default(),
            submitted_at: Nanos::new(100),
            starts_at: Nanos::new(250),
            completes_at: Nanos::new(3_250),
        };
        assert_eq!(c.total_latency(), Nanos::new(3_150));
    }

    #[test]
    fn display_names() {
        assert_eq!(FlashCommandKind::Read.to_string(), "read");
        assert_eq!(FlashCommandKind::Program.to_string(), "program");
        assert_eq!(FlashCommandKind::Erase.to_string(), "erase");
    }
}
