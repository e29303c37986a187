//! The flash array: geometry plus one [`ChannelQueue`] per channel.

use crate::channel::{ChannelQueue, QueueCounters};
use crate::command::{FlashCommand, FlashCommandKind};
use crate::stats::FlashStats;
use serde::{Deserialize, Serialize};
use skybyte_types::{FlashTimingConfig, Nanos, Ppa, SsdGeometry};

/// A timing model of the whole NAND flash array.
///
/// The array owns one FIFO [`ChannelQueue`] per channel. Commands addressed to
/// the same channel are serialised; different channels proceed in parallel,
/// which is how SkyByte's log compaction exploits channel parallelism when
/// flushing coalesced pages (§III-B).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlashArray {
    geometry: SsdGeometry,
    timing: FlashTimingConfig,
    channels: Vec<ChannelQueue>,
    /// Earliest completion over every channel's in-flight commands
    /// (`Nanos::MAX` when all are idle): until then a retire has nothing to
    /// do on any channel.
    earliest_completion: Nanos,
    stats: FlashStats,
}

impl FlashArray {
    /// Creates an idle flash array with the given geometry and NAND timing.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero channels.
    pub fn new(geometry: SsdGeometry, timing: FlashTimingConfig) -> Self {
        assert!(
            geometry.channels > 0,
            "flash array needs at least 1 channel"
        );
        FlashArray {
            geometry,
            timing,
            channels: (0..geometry.channels)
                .map(|_| ChannelQueue::new())
                .collect(),
            earliest_completion: Nanos::MAX,
            stats: FlashStats::default(),
        }
    }

    /// The flash geometry this array models.
    pub fn geometry(&self) -> &SsdGeometry {
        &self.geometry
    }

    /// The NAND timing parameters in use.
    pub fn timing(&self) -> &FlashTimingConfig {
        &self.timing
    }

    /// Submits a command to the channel named by `ppa.channel` at time `now`
    /// and returns its completion time.
    ///
    /// # Panics
    ///
    /// Panics if `ppa.channel` is outside the configured geometry.
    pub fn submit(&mut self, kind: FlashCommandKind, ppa: Ppa, now: Nanos) -> Nanos {
        self.submit_command(kind, ppa, now).completes_at
    }

    /// Submits a command and returns the full [`FlashCommand`] record
    /// (submission, start, completion times).
    pub fn submit_command(&mut self, kind: FlashCommandKind, ppa: Ppa, now: Nanos) -> FlashCommand {
        let ch = ppa.channel as usize;
        assert!(
            ch < self.channels.len(),
            "channel {ch} out of range ({} channels)",
            self.channels.len()
        );
        let cmd = self.channels[ch].submit(kind, ppa, now, &self.timing);
        self.earliest_completion = self.earliest_completion.min(cmd.completes_at);
        match kind {
            FlashCommandKind::Read => {
                self.stats.pages_read += 1;
                self.stats.total_read_latency += cmd.total_latency();
            }
            FlashCommandKind::Program => {
                self.stats.pages_programmed += 1;
                self.stats.total_program_latency += cmd.total_latency();
            }
            FlashCommandKind::Erase => self.stats.blocks_erased += 1,
        }
        cmd
    }

    /// Retires completed commands on every channel up to time `now`. O(1)
    /// when no command anywhere has completed by `now`.
    pub fn retire_completed(&mut self, now: Nanos) {
        if now < self.earliest_completion {
            return;
        }
        let mut earliest = Nanos::MAX;
        for ch in &mut self.channels {
            ch.retire_completed(now);
            earliest = earliest.min(ch.earliest_completion());
        }
        self.earliest_completion = earliest;
    }

    /// Queue counters of the channel that `ppa` maps to — the input to the
    /// context-switch trigger policy (Algorithm 1, line 4).
    pub fn channel_counters(&self, ppa: Ppa) -> QueueCounters {
        self.channels[ppa.channel as usize].counters()
    }

    /// Estimated latency of a new read issued to the channel of `ppa`,
    /// per Algorithm 1 lines 5–6.
    pub fn estimate_read_latency(&self, ppa: Ppa) -> Nanos {
        self.channel_counters(ppa)
            .estimate_read_latency(&self.timing)
    }

    /// Aggregate busy time across all channels (for bandwidth utilisation).
    pub fn total_busy_time(&self) -> Nanos {
        self.channels.iter().map(|c| c.busy_time()).sum()
    }

    /// Aggregate busy time attributable to the window `[0, horizon]` (see
    /// [`ChannelQueue::busy_time_within`]). Bounded by
    /// `horizon * channel_count` by construction, which the cross-layer
    /// conservation audit asserts.
    pub fn busy_time_within(&self, horizon: Nanos) -> Nanos {
        self.channels
            .iter()
            .map(|c| c.busy_time_within(horizon))
            .sum()
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Per-channel queue depths (commands accepted but not yet retired),
    /// indexed by channel. A read-only telemetry probe: retirement is lazy,
    /// so this reflects the backlog as of the last `retire_completed` call.
    pub fn channel_depths(&self) -> Vec<usize> {
        self.channels.iter().map(ChannelQueue::depth).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_types::{NandKind, SsdConfig};

    fn small_array() -> FlashArray {
        let geometry = SsdGeometry {
            channels: 4,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 16,
            page_size_bytes: 4096,
        };
        FlashArray::new(geometry, FlashTimingConfig::for_kind(NandKind::Ull))
    }

    #[test]
    fn default_geometry_matches_table2() {
        let cfg = SsdConfig::default();
        let arr = FlashArray::new(cfg.geometry, cfg.flash);
        assert_eq!(arr.channel_count(), 16);
        assert_eq!(arr.geometry().total_bytes(), 128 << 30);
    }

    #[test]
    fn channels_are_independent() {
        let mut arr = small_array();
        let a = arr.submit(
            FlashCommandKind::Read,
            Ppa::new(0, 0, 0, 0, 0, 0),
            Nanos::ZERO,
        );
        let b = arr.submit(
            FlashCommandKind::Read,
            Ppa::new(1, 0, 0, 0, 0, 0),
            Nanos::ZERO,
        );
        // Different channels: both finish after one tR.
        assert_eq!(a, Nanos::from_micros(3));
        assert_eq!(b, Nanos::from_micros(3));
        // Same channel: serialised.
        let c = arr.submit(
            FlashCommandKind::Read,
            Ppa::new(0, 0, 0, 0, 0, 1),
            Nanos::ZERO,
        );
        assert_eq!(c, Nanos::from_micros(6));
    }

    #[test]
    fn stats_accumulate() {
        let mut arr = small_array();
        arr.submit(
            FlashCommandKind::Read,
            Ppa::new(0, 0, 0, 0, 0, 0),
            Nanos::ZERO,
        );
        arr.submit(
            FlashCommandKind::Program,
            Ppa::new(1, 0, 0, 0, 0, 0),
            Nanos::ZERO,
        );
        arr.submit(
            FlashCommandKind::Erase,
            Ppa::new(2, 0, 0, 0, 0, 0),
            Nanos::ZERO,
        );
        let s = arr.stats();
        assert_eq!(s.pages_read, 1);
        assert_eq!(s.pages_programmed, 1);
        assert_eq!(s.blocks_erased, 1);
        assert_eq!(s.avg_read_latency(), Nanos::from_micros(3));
        assert_eq!(s.avg_program_latency(), Nanos::from_micros(100));
    }

    #[test]
    fn estimate_tracks_queue_contents() {
        let mut arr = small_array();
        let target = Ppa::new(2, 0, 0, 0, 0, 0);
        assert_eq!(arr.estimate_read_latency(target), Nanos::from_micros(3));
        arr.submit(FlashCommandKind::Program, target, Nanos::ZERO);
        assert_eq!(arr.estimate_read_latency(target), Nanos::from_micros(103));
        arr.submit(FlashCommandKind::Erase, target, Nanos::ZERO);
        assert_eq!(arr.estimate_read_latency(target), Nanos::from_micros(1103));
        // Other channels are unaffected.
        assert_eq!(
            arr.estimate_read_latency(Ppa::new(3, 0, 0, 0, 0, 0)),
            Nanos::from_micros(3)
        );
        // After retirement the estimate drops back.
        arr.retire_completed(Nanos::from_secs(1));
        assert_eq!(arr.estimate_read_latency(target), Nanos::from_micros(3));
    }

    #[test]
    fn retire_is_gated_on_the_earliest_completion() {
        let mut arr = small_array();
        let (a, b, c) = (
            Ppa::new(0, 0, 0, 0, 0, 0),
            Ppa::new(1, 0, 0, 0, 0, 0),
            Ppa::new(2, 0, 0, 0, 0, 0),
        );
        let t1 = arr.submit(FlashCommandKind::Read, a, Nanos::ZERO);
        let t2 = arr.submit(FlashCommandKind::Program, b, Nanos::ZERO);
        assert!(t1 < t2);
        let (before_a, before_b) = (arr.channel_counters(a), arr.channel_counters(b));

        // Before the earliest completion a retire changes no channel.
        arr.retire_completed(t1 - Nanos::new(1));
        assert_eq!(arr.channel_counters(a), before_a);
        assert_eq!(arr.channel_counters(b), before_b);

        // At it, only the first channel drains.
        arr.retire_completed(t1);
        assert_eq!(arr.channel_counters(a).total(), 0);
        assert_eq!(arr.channel_counters(b), before_b);

        // A later submit completing before t2 lowers the gate again, and a
        // retire at its completion drains exactly it.
        let t3 = arr.submit(FlashCommandKind::Read, c, t1);
        assert!(t3 < t2);
        assert_eq!(arr.channel_counters(c).reads, 1);
        arr.retire_completed(t3);
        assert_eq!(arr.channel_counters(c).total(), 0);
        assert_eq!(arr.channel_counters(b), before_b);
        arr.retire_completed(t2);
        assert_eq!(arr.channel_depths(), vec![0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_channel() {
        let mut arr = small_array();
        arr.submit(
            FlashCommandKind::Read,
            Ppa::new(99, 0, 0, 0, 0, 0),
            Nanos::ZERO,
        );
    }
}
