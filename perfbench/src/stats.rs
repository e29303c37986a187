//! The benchmark's metric math: medians, quartiles, failure ratios and the
//! result digest. Pure functions, unit-tested below.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones a Python script computes.
/// Fewer than two values have no spread: both quartiles equal the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let m = median(values);
        return (m, m);
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Failed simulations over attempted ones; 0 when nothing was attempted.
pub fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Ratio helper for simulated counters: `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A stable 64-bit FNV-1a digest, folded record by record. Unlike
/// `std`'s `DefaultHasher` it is specified and never reseeded, so the same
/// serialised results give the same digest in every process and release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` plus a record separator into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0xffu8)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of one record on its own.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::default();
        d.update(bytes);
        d.value()
    }

    /// The current digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]: the
        // exclusive method extrapolates beyond the data at small counts.
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[6.0]), (6.0, 6.0));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn fail_ratio_counts_failures_against_attempts() {
        assert_eq!(fail_ratio(0, 24), 0.0);
        assert_eq!(fail_ratio(6, 24), 0.25);
        assert_eq!(fail_ratio(0, 0), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // Pinned value: the digest must never change across releases, or
        // two builds' simulated outputs could no longer be compared.
        assert_eq!(Digest::of(b"skybyte"), 0xe9de_9bc3_6477_2619);
        assert_eq!(Digest::of(b""), 0xaf64_724c_8602_eb6e);
        let mut ab = Digest::default();
        ab.update(b"a");
        ab.update(b"b");
        let mut ba = Digest::default();
        ba.update(b"b");
        ba.update(b"a");
        assert_ne!(ab, ba);
        // The separator keeps record boundaries: "ab" != "a" + "b".
        assert_ne!(Digest::of(b"ab"), ab.value());
    }
}
