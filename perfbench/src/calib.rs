//! Host-speed probe: a fixed reference kernel timed between simulations, so
//! host time can be expressed in *reference seconds*, which stay comparable
//! while the shared host's own speed drifts.
//!
//! On a shared machine other tenants contend for the caches and memory, and
//! the simulator runs up to 50 % slower for stretches of seconds to minutes.
//! The probe is a small event-queue-plus-hash-map kernel with the
//! simulator's kind of memory behaviour, so it slows with it. It uses no
//! simulator code: whatever a change to the simulator does, the probe's own
//! work stays the same, and its duration tracks only the host.
//!
//! The probe warms its working set before it is timed. The simulator keeps
//! its own hot data in use, so what slows it is contention for warm caches;
//! a probe timed from cold would instead measure how much of its idle table
//! other tenants evicted since the last probe, which was seen to swing by
//! 45 % while the simulator's speed held.
//!
//! A stretch of work timed between two probes is rescaled by
//! `REFERENCE_NS / mean(probe before, probe after)`: on a host where the
//! probe takes [`REFERENCE_NS`], a reference second is a host second.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// Keys in the probe's map (about 8 MiB with the table's slack), larger
/// than one core's L2 cache, so the probe sees cache contention.
const KEYS: u64 = 1 << 18;
/// Map lookups plus event-queue pops and pushes per probe, once to warm
/// the working set and once timed.
const STEPS: usize = 25_000;
/// Pending events in the probe's queue.
const EVENTS: u64 = 4096;
/// The probe's typical duration on the reference host (2-vCPU Intel Xeon
/// VM, 2 MiB L2 per core, 105 MiB shared L3), in host nanoseconds.
pub const REFERENCE_NS: f64 = 11e6;

/// The probe kernel and its working set.
pub struct HostProbe {
    map: HashMap<u64, u64, BuildHasherDefault<MixHasher>>,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    state: u64,
    /// Resident memory the probe added when it was built, in MiB.
    pub footprint_mb: f64,
    /// Every probe duration taken so far, in host nanoseconds.
    pub samples: Vec<f64>,
}

impl HostProbe {
    /// Builds the working set. Call before any simulation, so the resident
    /// memory it adds can be told apart from the simulator's.
    pub fn new() -> Self {
        let before = resident_mb();
        // Sized up front: one allocation, which stays live, so the resident
        // delta is the probe's own and no freed growth steps count in it.
        let mut map = HashMap::with_capacity_and_hasher(KEYS as usize, Default::default());
        for k in 0..KEYS {
            map.insert(k << 12, k);
        }
        let queue = (0..EVENTS)
            .map(|i| Reverse((i * 977 % EVENTS, i)))
            .collect();
        HostProbe {
            map,
            queue,
            state: 0x5b5b_2025,
            footprint_mb: (resident_mb() - before).max(0.0),
            samples: Vec::new(),
        }
    }

    /// Runs the kernel twice and returns the host time of the second run, in
    /// nanoseconds.
    pub fn sample_ns(&mut self) -> f64 {
        self.kernel();
        let start = Instant::now();
        self.kernel();
        let ns = start.elapsed().as_nanos() as f64;
        self.samples.push(ns);
        ns
    }

    /// One kernel run. Half the lookups hit a hot sixteenth of the keys, as
    /// page-mapping lookups do; each step also retires and reschedules one
    /// event.
    fn kernel(&mut self) {
        let mut acc = 0u64;
        for _ in 0..STEPS {
            self.state = xorshift(self.state);
            let r = self.state;
            let span = if r & 1 == 0 { KEYS / 16 } else { KEYS };
            if let Some(v) = self.map.get_mut(&(((r >> 8) % span) << 12)) {
                *v = v.wrapping_add(r);
                acc ^= *v;
            }
            if let Some(Reverse((time, id))) = self.queue.pop() {
                self.queue
                    .push(Reverse((time + (r & 1023), id ^ (acc & 7))));
            }
        }
        black_box(acc);
    }
}

/// Times stretches of work between probes and rescales them to reference
/// nanoseconds.
pub struct Stopwatch<'p> {
    probe: &'p mut HostProbe,
    last_probe_ns: f64,
    since: Instant,
}

/// A stretch of work between two probes.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    /// Host time of the stretch, probes excluded.
    pub host_ns: f64,
    /// Reference nanoseconds per host nanosecond over the stretch.
    pub scale: f64,
}

impl Stretch {
    pub fn ref_ns(self) -> f64 {
        self.host_ns * self.scale
    }
}

impl<'p> Stopwatch<'p> {
    /// Probes once and starts the first stretch.
    pub fn start(probe: &'p mut HostProbe) -> Self {
        let last_probe_ns = probe.sample_ns();
        Stopwatch {
            probe,
            last_probe_ns,
            since: Instant::now(),
        }
    }

    /// Ends the current stretch with a probe, and starts the next one.
    pub fn lap(&mut self) -> Stretch {
        let host_ns = self.since.elapsed().as_nanos() as f64;
        let probe_ns = self.probe.sample_ns();
        let scale = REFERENCE_NS / ((self.last_probe_ns + probe_ns) / 2.0);
        self.last_probe_ns = probe_ns;
        self.since = Instant::now();
        Stretch { host_ns, scale }
    }
}

/// A seedless multiply-rotate hasher, so the probe's work never depends on
/// `std`'s per-process random hash keys.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Resident set size of this process, in MiB (`VmRSS`).
fn resident_mb() -> f64 {
    proc_status_kb("VmRSS:") / 1024.0
}

/// A `kB` field of `/proc/self/status`; 0 where it cannot be read.
pub fn proc_status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretches_rescale_by_the_mean_of_their_two_probes() {
        let s = Stretch {
            host_ns: 2e6,
            scale: 0.5,
        };
        assert_eq!(s.ref_ns(), 1e6);
        let mut probe = HostProbe::new();
        let mut watch = Stopwatch::start(&mut probe);
        let lap = watch.lap();
        assert!(lap.host_ns >= 0.0 && lap.scale > 0.0);
        drop(watch);
        assert_eq!(probe.samples.len(), 2);
        let mean = (probe.samples[0] + probe.samples[1]) / 2.0;
        assert!((lap.scale - REFERENCE_NS / mean).abs() < 1e-9 * lap.scale);
    }
}
