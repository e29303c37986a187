//! The latency histogram every run records its completed memory accesses
//! into: [`LatencyHistogram`], with log-scale buckets, behind the latency
//! distribution of Figure 3 and the reported mean and percentiles.

use crate::time::Nanos;
use serde::{Deserialize, Serialize};

/// A latency histogram with logarithmic buckets (powers of two nanoseconds).
///
/// Collects every completed memory access latency and answers the statistics
/// needed by Figures 3 and 17: mean, percentiles, and a CDF over the buckets.
///
/// # Example
///
/// ```
/// use skybyte_types::{LatencyHistogram, Nanos};
/// let mut h = LatencyHistogram::new();
/// for v in [100, 200, 3_000_000] {
///     h.record(Nanos::new(v));
/// }
/// assert_eq!(h.count(), 3);
/// assert!(h.mean() > Nanos::new(200));
/// assert!(h.percentile(0.5) <= Nanos::new(512));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// bucket i counts samples with latency in [2^i, 2^(i+1)) ns.
    buckets: Vec<u64>,
    count: u64,
    total_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

/// `Default` must construct exactly the same empty histogram as
/// [`LatencyHistogram::new`]: a derived `Default` would leave `buckets`
/// empty and `min_ns = 0`, making two sample-free histograms — and therefore
/// two otherwise identical `SimResult`s — compare unequal under the
/// trace-replay bit-identity keystone.
impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; 64],
            count: 0,
            total_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Nanos) {
        let ns = latency.as_nanos();
        let bucket = if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        if self.buckets.is_empty() {
            self.buckets = vec![0; 64];
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency over all samples ([`Nanos::ZERO`] if empty).
    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos::new((self.total_ns / self.count as u128) as u64)
        }
    }

    /// Largest recorded latency.
    pub fn max(&self) -> Nanos {
        Nanos::new(self.max_ns)
    }

    /// Smallest recorded latency ([`Nanos::ZERO`] if empty).
    pub fn min(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos::new(self.min_ns)
        }
    }

    /// Approximate latency at the given quantile `q` in `[0, 1]`, using the
    /// upper edge of the histogram bucket containing that quantile.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Nanos {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Nanos::new(1u64 << (i + 1).min(63));
            }
        }
        Nanos::new(self.max_ns)
    }

    /// Median latency: shorthand for [`percentile`](Self::percentile)`(0.5)`.
    pub fn p50(&self) -> Nanos {
        self.percentile(0.5)
    }

    /// 99th-percentile latency: shorthand for
    /// [`percentile`](Self::percentile)`(0.99)`.
    pub fn p99(&self) -> Nanos {
        self.percentile(0.99)
    }

    /// 99.9th-percentile latency: shorthand for
    /// [`percentile`](Self::percentile)`(0.999)`.
    pub fn p999(&self) -> Nanos {
        self.percentile(0.999)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; 64];
        }
        for (i, &n) in other.buckets.iter().enumerate() {
            if n > 0 {
                self.buckets[i] += n;
            }
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        if other.count > 0 {
            self.min_ns = self.min_ns.min(other.min_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_min_max() {
        let mut h = LatencyHistogram::new();
        h.record(Nanos::new(100));
        h.record(Nanos::new(300));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Nanos::new(200));
        assert_eq!(h.min(), Nanos::new(100));
        assert_eq!(h.max(), Nanos::new(300));
        assert_eq!(h.total_ns, 400);
    }

    #[test]
    fn histogram_default_equals_new() {
        // A derived Default would leave the buckets empty and min_ns at 0,
        // so it is written out to build exactly what new() builds.
        assert_eq!(LatencyHistogram::default(), LatencyHistogram::new());
        // Recording into a default-built histogram lands in the same state
        // as recording into a new()-built one.
        let mut d = LatencyHistogram::default();
        let mut n = LatencyHistogram::new();
        d.record(Nanos::new(123));
        n.record(Nanos::new(123));
        assert_eq!(d, n);
    }

    #[test]
    fn histogram_serde_round_trip_preserves_equality() {
        let mut h = LatencyHistogram::new();
        h.record(Nanos::new(77));
        h.record(Nanos::new(1 << 20));
        let json = serde_json::to_string(&h).unwrap();
        let back: LatencyHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
        // An empty histogram round-trips to something equal to a fresh one.
        let empty_json = serde_json::to_string(&LatencyHistogram::new()).unwrap();
        let empty: LatencyHistogram = serde_json::from_str(&empty_json).unwrap();
        assert_eq!(empty, LatencyHistogram::default());
    }

    #[test]
    fn histogram_empty_is_safe() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.min(), Nanos::ZERO);
        assert_eq!(h.percentile(0.99), Nanos::ZERO);
    }

    #[test]
    fn histogram_percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Nanos::new(i * 17 % 100_000 + 1));
        }
        let p50 = h.percentile(0.5);
        let p90 = h.percentile(0.9);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn percentile_shorthands_match_the_general_form() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.p50(), Nanos::ZERO);
        for i in 1..=10_000u64 {
            h.record(Nanos::new(i * 31 % 1_000_000 + 1));
        }
        assert_eq!(h.p50(), h.percentile(0.5));
        assert_eq!(h.p99(), h.percentile(0.99));
        assert_eq!(h.p999(), h.percentile(0.999));
        assert!(h.p50() <= h.p99() && h.p99() <= h.p999());
        assert!(h.p999() <= Nanos::new(h.max().as_nanos().next_power_of_two()));
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Nanos::new(10));
        b.record(Nanos::new(1_000));
        b.record(Nanos::new(100));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Nanos::new(10));
        assert_eq!(a.max(), Nanos::new(1_000));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn histogram_rejects_bad_quantile() {
        let h = LatencyHistogram::new();
        let _ = h.percentile(1.5);
    }
}
