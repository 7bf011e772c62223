//! Probability distributions used by the workload and service-time models.
//!
//! Each distribution is a small value type with a `sample(&mut Rng)` method.
//! Request inter-arrival times are exponential (the SPECjAppServer driver is
//! an open Poisson-like source at a fixed injection rate) and data
//! references follow Zipf-like popularity — the standard choices for
//! transaction-processing models.

use crate::Rng;
use std::sync::{Arc, Mutex, PoisonError};

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// ```
/// use jas_simkernel::{dist::Exponential, Rng};
/// let exp = Exponential::new(10.0);
/// let mut rng = Rng::new(1);
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    #[must_use]
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive and finite, got {lambda}"
        );
        Exponential { lambda }
    }

    /// Mean of the distribution (`1/lambda`).
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF; (1 - u) avoids ln(0).
        -(1.0 - rng.next_f64()).ln() / self.lambda
    }
}

/// Draws from the standard normal via Box–Muller (one value per call; the
/// second value is discarded to keep the generator state simple and the
/// stream deterministic regardless of call interleaving).
fn sample_standard_normal(rng: &mut Rng) -> f64 {
    let u1 = 1.0 - rng.next_f64(); // (0, 1]
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Normal distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Normal {
    mean: f64,
    stddev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `stddev` is negative or either parameter is non-finite.
    #[must_use]
    pub fn new(mean: f64, stddev: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite");
        assert!(
            stddev.is_finite() && stddev >= 0.0,
            "stddev must be non-negative and finite, got {stddev}"
        );
        Normal { mean, stddev }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.mean + self.stddev * sample_standard_normal(rng)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Used for data-popularity skew: rank 0 is the most popular item. Sampling
/// uses a precomputed cumulative table, so construction is `O(n)` and
/// sampling is `O(1)` amortized (a fixed-point bucket index into the CDF).
///
/// **Shared tables.** A `Zipf` is a handle onto an immutable table. The
/// table is a pure function of `(n, s)`, so [`Zipf::new`] builds each shape
/// once per process and hands every later caller the same table: which
/// thread or engine built it cannot be observed, and sampling reads it
/// without locking.
///
/// **Sampling exactness.** The natural form — binary-search the f64 CDF for
/// `u = next_f64()` — and the fast form below return the same rank for every
/// generator state. `next_f64()` is `m * 2^-53` with `m = next_u64() >> 11`,
/// and for a strictly increasing CDF the binary search resolves to
/// `#{i : cdf[i] < u}` (clamped). Scaling by `2^53` only shifts the f64
/// exponent, so `cdf[i] < u  ⟺  cdf[i]·2^53 < m  ⟺  floor(cdf[i]·2^53) < m`
/// (a real is below an integer iff its floor is). The sampler therefore
/// counts precomputed integer thresholds below `m`, starting from a bucket
/// table indexed by the top bits of `m`. Degenerate CDFs with duplicate
/// entries (possible only for extreme exponents) fall back to the f64
/// binary search.
#[derive(Clone, Debug, PartialEq)]
pub struct Zipf {
    table: Arc<ZipfTable>,
}

/// The precomputed tables of one `(n, s)` Zipf shape.
#[derive(Debug, PartialEq)]
struct ZipfTable {
    cdf: Vec<f64>,
    /// `floor(cdf[i] * 2^53)`: rank `i` is drawn for `m` in
    /// `[thresh[i-1], thresh[i])` (see sampling exactness above).
    thresh: Vec<u64>,
    /// `bucket_lo[b]` = number of thresholds strictly below `b << (53-BITS)`:
    /// a lower bound on the rank for any `m` in bucket `b`.
    bucket_lo: Vec<u32>,
    /// CDF is strictly increasing, enabling the fixed-point fast path.
    strict: bool,
}

/// log2 of the bucket count in [`ZipfTable::bucket_lo`].
const ZIPF_BUCKET_BITS: u32 = 13;

/// A Zipf shape as the interner keys it: `(n, s.to_bits())`.
type ZipfKey = (usize, u64);

/// Every Zipf table built so far. A process uses a handful of shapes, so
/// a linear search beats hashing (and keeps lint rule D001's unordered
/// maps out of simulation code).
static ZIPF_TABLES: Mutex<Vec<(ZipfKey, Arc<ZipfTable>)>> = Mutex::new(Vec::new());

impl ZipfTable {
    fn build(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        const SCALE: f64 = (1u64 << 53) as f64;
        let thresh: Vec<u64> = cdf.iter().map(|c| (c * SCALE).floor() as u64).collect();
        let strict = cdf.windows(2).all(|w| w[0] < w[1]);
        let buckets = 1usize << ZIPF_BUCKET_BITS;
        let mut bucket_lo = Vec::with_capacity(buckets);
        let mut i = 0u32;
        for b in 0..buckets as u64 {
            let floor_m = b << (53 - ZIPF_BUCKET_BITS);
            while (i as usize) < n && thresh[i as usize] < floor_m {
                i += 1;
            }
            bucket_lo.push(i);
        }
        ZipfTable {
            cdf,
            thresh,
            bucket_lo,
            strict,
        }
    }
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`,
    /// sharing the table of any earlier `Zipf` of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(n < u32::MAX as usize, "Zipf rank count too large: {n}");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be non-negative, got {s}"
        );
        let key: ZipfKey = (n, s.to_bits());
        // A panic while the lock was held cannot leave a half-built entry
        // (tables are pushed whole), so a poisoned lock is still sound.
        let mut tables = ZIPF_TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, table)) = tables.iter().find(|(k, _)| *k == key) {
            return Zipf {
                table: Arc::clone(table),
            };
        }
        let table = Arc::new(ZipfTable::build(n, s));
        tables.push((key, Arc::clone(&table)));
        Zipf { table }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// `true` if there is exactly one rank (degenerate but allowed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // Construction guarantees n > 0, so this is always false; provided
        // for API symmetry with `len`.
        false
    }

    /// Draws a rank in `0..n`.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let t = &*self.table;
        // The 53-bit numerator `next_f64()` would have used; one draw
        // either way, so the generator stream is unchanged.
        let m = rng.next_u64() >> 11;
        if t.strict {
            let b = (m >> (53 - ZIPF_BUCKET_BITS)) as usize;
            let mut i = t.bucket_lo[b] as usize;
            while i < t.thresh.len() && t.thresh[i] < m {
                i += 1;
            }
            return i.min(t.cdf.len() - 1);
        }
        let u = m as f64 * (1.0 / (1u64 << 53) as f64);
        match t
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) | Err(i) => i.min(t.cdf.len() - 1),
        }
    }

    /// The shared table behind this handle.
    #[cfg(test)]
    fn table(&self) -> &Arc<ZipfTable> {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
        (0..n).map(|_| f()).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let exp = Exponential::new(4.0);
        let mut rng = Rng::new(1);
        let m = mean_of(200_000, || exp.sample(&mut rng));
        assert!((m - 0.25).abs() < 0.01, "mean {m}");
        assert!((exp.mean() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn normal_mean_and_stddev_converge() {
        let n = Normal::new(-3.0, 2.0);
        let mut rng = Rng::new(3);
        let xs: Vec<f64> = (0..200_000).map(|_| n.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!((m + 3.0).abs() < 0.03, "mean {m}");
        assert!((var.sqrt() - 2.0).abs() < 0.03, "stddev {}", var.sqrt());
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(4);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Rank 0 share for s=1, n=100 is 1/H(100) ≈ 0.1928.
        let share = f64::from(counts[0]) / 100_000.0;
        assert!((0.17..0.22).contains(&share), "share {share}");
    }

    #[test]
    fn zipf_uniform_when_s_is_zero() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Rng::new(5);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn zipf_len_reports_ranks() {
        let z = Zipf::new(7, 0.8);
        assert_eq!(z.len(), 7);
        assert!(!z.is_empty());
    }

    /// The fixed-point bucket sampler returns exactly the rank the f64
    /// binary search would, for every CDF shape the simulator uses and for
    /// boundary rolls landing exactly on thresholds.
    #[test]
    fn zipf_fast_sampler_matches_binary_search() {
        // (n, s) pairs covering the generator's real configurations plus
        // degenerate shapes: single rank, uniform, steep skew.
        let shapes = [
            (4096usize, 1.0),
            (16384, 0.6),
            (1, 1.0),
            (10, 0.0),
            (100, 2.5),
            (65536, 0.4),
        ];
        for &(n, s) in &shapes {
            let zipf = Zipf::new(n, s);
            let z = &**zipf.table();
            assert!(z.strict, "simulator-range CDFs are strictly increasing");
            let reference = |u: f64| -> usize {
                match z
                    .cdf
                    .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
                {
                    Ok(i) | Err(i) => i.min(z.cdf.len() - 1),
                }
            };
            let mut rng = Rng::new(77);
            // Boundary rolls: the exact threshold values and neighbours.
            // Rolls are clamped to the real draw domain [0, 2^53): the last
            // threshold is floor(1.0 * 2^53) = 2^53, which no draw produces.
            let max_m = (1u64 << 53) - 1;
            let mut rolls: Vec<u64> = z
                .thresh
                .iter()
                .step_by((n / 64).max(1))
                .flat_map(|&t| {
                    [
                        t.saturating_sub(1).min(max_m),
                        t.min(max_m),
                        (t + 1).min(max_m),
                    ]
                })
                .collect();
            rolls.extend([0, (1u64 << 53) - 1]);
            for _ in 0..50_000 {
                rolls.push(rng.next_u64() >> 11);
            }
            for m in rolls {
                let u = m as f64 * (1.0 / (1u64 << 53) as f64);
                // Drive `sample` with a generator pinned to produce `m`.
                let got = {
                    let b = (m >> (53 - ZIPF_BUCKET_BITS)) as usize;
                    let mut i = z.bucket_lo[b] as usize;
                    while i < z.thresh.len() && z.thresh[i] < m {
                        i += 1;
                    }
                    i.min(z.cdf.len() - 1)
                };
                assert_eq!(got, reference(u), "n={n} s={s} m={m}");
            }
        }
    }

    /// Equal shapes share one table; a different `n` or any change in the
    /// bits of `s` gets its own.
    #[test]
    fn zipf_tables_are_shared_per_shape() {
        let a = Zipf::new(333, 0.75);
        let b = Zipf::new(333, 0.75);
        assert!(Arc::ptr_eq(a.table(), b.table()));
        let next_s = f64::from_bits(0.75f64.to_bits() + 1);
        let c = Zipf::new(333, next_s);
        assert!(!Arc::ptr_eq(a.table(), c.table()));
        let d = Zipf::new(334, 0.75);
        assert!(!Arc::ptr_eq(a.table(), d.table()));
        assert_eq!(d.len(), 334);
    }

    /// Four threads racing to build one shape end up with one table, the
    /// same sample sequence, and the table a private build would give.
    #[test]
    fn zipf_tables_built_concurrently_sample_identically() {
        // A shape no other test uses, so the threads race to build it.
        let (n, s) = (5000, 0.9);
        let start = std::sync::Barrier::new(4);
        let runs: Vec<(Zipf, Vec<usize>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let z = Zipf::new(n, s);
                        let mut rng = Rng::new(11);
                        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
                        (z, draws)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sampler thread panicked"))
                .collect()
        });
        let (first, first_draws) = &runs[0];
        for (z, draws) in &runs[1..] {
            assert!(Arc::ptr_eq(z.table(), first.table()));
            assert_eq!(draws, first_draws);
        }
        assert_eq!(**first.table(), ZipfTable::build(n, s));
    }

    /// `sample` consumes exactly one draw, as before.
    #[test]
    fn zipf_sample_consumes_one_draw() {
        let z = Zipf::new(4096, 1.0);
        let mut a = Rng::new(8);
        let mut b = Rng::new(8);
        let _ = z.sample(&mut a);
        let _ = b.next_u64();
        assert_eq!(a, b);
    }
}
