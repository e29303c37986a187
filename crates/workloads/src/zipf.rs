//! A small, deterministic Zipf sampler.
//!
//! Page popularity in graph, key-value and transactional workloads follows a
//! power law. This sampler draws ranks from a Zipf(s) distribution over
//! `{0, 1, …, n-1}` by inverting a CDF table: a draw `u` in `[0, 1)` maps to
//! the first rank whose CDF value is `>= u` (the last rank if none is).
//!
//! # The guide table
//!
//! A binary search over the whole CDF costs one cache miss per probe once the
//! table outgrows the cache. The sampler therefore keeps a guide table
//! (Chen and Asau's cutpoint method): with `m = n.next_power_of_two()`,
//! entry `j` of the guide is the first rank whose CDF value is `>= j / m`
//! (clamped to `n - 1`). A draw `u` falls in bucket `j = ⌊u · m⌋`, and the
//! answer lies between guide entries `j` and `j + 1`, so the search covers one
//! small bucket instead of the whole table.
//!
//! The guide changes no rank. Because `m` is a power of two, `u · m` and
//! `j / m` are exact, so `j / m ≤ u < (j + 1) / m` holds exactly: every rank
//! below guide entry `j` has a CDF value below `u`, and the rank at entry
//! `j + 1` has one at or above it (or is the clamped last rank). On a strictly
//! increasing CDF the first rank with a CDF value `>= u` is unique, so the
//! bucket search returns exactly what a binary search over the whole table
//! returns. (The two could differ only on an exact hit inside a run of equal
//! CDF values, which no shipped table has; the tests check both facts.)

use rand::Rng;

/// Zipf distribution over `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank with `cdf >= j / m`, clamped to `n - 1`,
    /// for `j` in `0..=m` and `m = n.next_power_of_two()`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or does not fit in a `u32`, or if `s` is
    /// negative/non-finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a nonempty support");
        assert!(u32::try_from(n).is_ok(), "Zipf support must fit in a u32");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        let n = n as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // One merge of the bucket edges `j / m` (exact: `m` is a power of
        // two) against the non-decreasing CDF.
        let m = n.next_power_of_two();
        let mut guide = Vec::with_capacity(m + 1);
        let mut rank = 0;
        for j in 0..=m {
            let edge = j as f64 / m as f64;
            while rank < n - 1 && cdf[rank] < edge {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Zipf { cdf, guide }
    }

    /// Support size.
    pub fn n(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draws a rank in `0..n` (rank 0 is the most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        self.rank(rng.gen()) as u64
    }

    /// The first rank whose CDF value is `>= u`, or the last rank if none
    /// is, for `u` in `[0, 1)`.
    fn rank(&self, u: f64) -> usize {
        let m = self.guide.len() - 1;
        let j = (u * m as f64) as usize;
        let lo = self.guide[j] as usize;
        let hi = self.guide[j + 1] as usize;
        // Ranks below `lo` are below `u`, and rank `hi` is the answer if no
        // rank in `lo..hi` reaches `u` (it is at or above `u`, or it is the
        // clamped last rank).
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::spec::WorkloadKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    impl Zipf {
        /// A binary search over the whole CDF: the reference that `rank`'s
        /// bucket search must equal.
        fn rank_by_binary_search(&self, u: f64) -> usize {
            match self
                .cdf
                .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite"))
            {
                Ok(i) => i,
                Err(i) => i.min(self.cdf.len() - 1),
            }
        }
    }

    /// The largest `f64` below 1, the largest draw `u` can take.
    const LAST_DRAW: f64 = 1.0 - f64::EPSILON / 2.0;

    /// Checks `rank` against the binary search at every CDF value, every
    /// bucket edge, their neighbours, `0.0` and the last draw, over `[0, 1)`.
    fn assert_rank_matches_binary_search(z: &Zipf, what: &str) {
        let m = z.guide.len() - 1;
        let edges = (0..=m).map(|j| j as f64 / m as f64);
        let probes = z
            .cdf
            .iter()
            .copied()
            .chain(edges)
            .flat_map(|x| [x.next_down(), x, x.next_up()])
            .chain([0.0, LAST_DRAW])
            .filter(|u| (0.0..1.0).contains(u));
        for u in probes {
            assert_eq!(
                z.rank(u),
                z.rank_by_binary_search(u),
                "{what}: rank({u:e}) differs from the binary search"
            );
        }
    }

    fn assert_strictly_increasing(z: &Zipf, what: &str) {
        assert!(
            z.cdf.windows(2).all(|w| w[0] < w[1]),
            "{what}: the CDF has a run of equal values"
        );
    }

    #[test]
    fn guide_search_equals_the_binary_search() {
        for n in [1, 2, 3, 1000, 1023, 1024, 1025] {
            for s in [0.0, 0.2, 0.99, 1.1] {
                let z = Zipf::new(n, s);
                assert_eq!(z.guide.len(), n.next_power_of_two() as usize + 1);
                assert_rank_matches_binary_search(&z, &format!("n={n} s={s}"));
            }
        }
    }

    #[test]
    fn shipped_hot_set_tables_are_strictly_increasing_and_exact() {
        // The tiny (8 MiB) and default (256 MiB) experiment footprints.
        for footprint in [8u64 << 20, 256 << 20] {
            for kind in WorkloadKind::ALL {
                let spec = kind.spec().scaled_to(footprint);
                let z = TraceGenerator::hot_table(&spec);
                let what = format!("{kind} at {} MiB", footprint >> 20);
                assert_strictly_increasing(&z, &what);
                assert_rank_matches_binary_search(&z, &what);
            }
        }
    }

    #[test]
    fn samples_are_in_range_and_skewed() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut counts = vec![0u64; 1000];
        for _ in 0..20_000 {
            let s = z.sample(&mut rng) as usize;
            assert!(s < 1000);
            counts[s] += 1;
        }
        // Rank 0 must be sampled far more often than rank 500.
        assert!(counts[0] > 10 * counts[500].max(1));
        // The head (top 10 %) should dominate.
        let head: u64 = counts[..100].iter().sum();
        assert!(head as f64 > 0.5 * 20_000.0);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(100, 0.0);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut counts = vec![0u64; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 2.0, "uniform samples should be balanced");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let z = Zipf::new(64, 1.0);
        let draw = |seed| {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            (0..32).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn rejects_empty_support() {
        let _ = Zipf::new(0, 1.0);
    }
}
