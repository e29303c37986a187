//! CXL link and protocol timing.

use serde::{Deserialize, Serialize};
use skybyte_types::{Nanos, CACHELINE_SIZE};

/// Statistics of traffic that crossed the CXL link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CxlPortStats {
    /// Number of host→SSD requests carried.
    pub requests: u64,
    /// Number of SSD→host responses carried.
    pub responses: u64,
    /// Payload bytes moved in either direction (cacheline data and page
    /// migrations; header flits are not counted).
    pub payload_bytes: u64,
}

/// Timing model of the CXL.mem port (PCIe 5.0 ×4 in Table II).
///
/// The protocol adds a fixed latency to every transaction (40 ns in the
/// paper) and payloads are limited by the link bandwidth. The port keeps a
/// single `busy_until` horizon per direction pair combined, which is a good
/// approximation at the cacheline sizes involved because protocol latency,
/// not serialisation, dominates.
///
/// # Example
///
/// ```
/// use skybyte_cxl::CxlPort;
/// use skybyte_types::Nanos;
///
/// let mut port = CxlPort::new(Nanos::new(40), 16 << 30);
/// let arrival = port.deliver_cacheline(Nanos::ZERO);
/// assert!(arrival >= Nanos::new(40));
/// ```
#[derive(Debug, Clone)]
pub struct CxlPort {
    protocol_latency: Nanos,
    bandwidth_bps: u64,
    busy_until: Nanos,
    stats: CxlPortStats,
}

impl CxlPort {
    /// Creates a port with the given one-way protocol latency and link
    /// bandwidth in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    pub fn new(protocol_latency: Nanos, bandwidth_bps: u64) -> Self {
        assert!(bandwidth_bps > 0, "link bandwidth must be nonzero");
        CxlPort {
            protocol_latency,
            bandwidth_bps,
            busy_until: Nanos::ZERO,
            stats: CxlPortStats::default(),
        }
    }

    /// Serialisation time of `bytes` on the link.
    pub fn transfer_time(&self, bytes: u64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        let ns = (bytes as f64) * 1e9 / self.bandwidth_bps as f64;
        Nanos::new(ns.ceil().max(1.0) as u64)
    }

    /// Carries a host→SSD request (no payload) issued at `now`; returns its
    /// arrival time at the SSD controller.
    pub fn deliver_request(&mut self, now: Nanos) -> Nanos {
        self.stats.requests += 1;
        self.occupy(now, 0)
    }

    /// Carries a payload-free SSD→host completion (e.g. a write
    /// acknowledgement) issued at `now`; returns its arrival time at the
    /// host. Counted as a response, not a request.
    pub fn deliver_response(&mut self, now: Nanos) -> Nanos {
        self.stats.responses += 1;
        self.occupy(now, 0)
    }

    /// Carries one 64-byte cacheline (either direction) at `now`; returns the
    /// time the payload has fully arrived.
    pub fn deliver_cacheline(&mut self, now: Nanos) -> Nanos {
        self.stats.responses += 1;
        self.stats.payload_bytes += CACHELINE_SIZE as u64;
        self.occupy(now, CACHELINE_SIZE as u64)
    }

    /// Carries an arbitrary payload of `bytes` (page migration traffic) at
    /// `now`; returns the completion time.
    pub fn deliver_payload(&mut self, now: Nanos, bytes: u64) -> Nanos {
        self.stats.responses += 1;
        self.stats.payload_bytes += bytes;
        self.occupy(now, bytes)
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &CxlPortStats {
        &self.stats
    }

    fn occupy(&mut self, now: Nanos, bytes: u64) -> Nanos {
        let serialisation = self.transfer_time(bytes);
        let start = now.max(self.busy_until);
        let done = start + serialisation;
        self.busy_until = done;
        done + self.protocol_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_latency_is_added() {
        let mut port = CxlPort::new(Nanos::new(40), 16 << 30);
        let t = port.deliver_request(Nanos::new(100));
        assert_eq!(t, Nanos::new(140));
    }

    #[test]
    fn responses_are_not_counted_as_requests() {
        let mut port = CxlPort::new(Nanos::new(40), 16 << 30);
        let t = port.deliver_response(Nanos::new(10));
        assert_eq!(t, Nanos::new(50));
        assert_eq!(port.stats().requests, 0);
        assert_eq!(port.stats().responses, 1);
        assert_eq!(port.stats().payload_bytes, 0);
    }

    #[test]
    fn cacheline_serialisation_uses_bandwidth() {
        // 64 B at 16 GiB/s ≈ 3.7 ns, rounded up to 4.
        let mut port = CxlPort::new(Nanos::new(40), 16 << 30);
        let t = port.deliver_cacheline(Nanos::ZERO);
        assert!(t >= Nanos::new(43) && t <= Nanos::new(45), "got {t}");
        assert_eq!(port.stats().payload_bytes, 64);
    }

    #[test]
    fn back_to_back_transfers_queue_on_the_link() {
        let mut port = CxlPort::new(Nanos::new(40), 1 << 30); // 1 GiB/s
        let a = port.deliver_payload(Nanos::ZERO, 4096);
        let b = port.deliver_payload(Nanos::ZERO, 4096);
        assert!(b > a, "second transfer must wait for the first");
    }

    #[test]
    fn zero_payload_has_zero_serialisation() {
        let port = CxlPort::new(Nanos::new(40), 16 << 30);
        assert_eq!(port.transfer_time(0), Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rejects_zero_bandwidth() {
        let _ = CxlPort::new(Nanos::new(40), 0);
    }
}
