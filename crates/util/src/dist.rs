//! Statistical distributions used by DCPerf-RS workload and load generators.
//!
//! The DCPerf paper replicates production traffic shapes: Zipf-distributed
//! key popularity (TaoBench), log-normal request/response sizes, Poisson
//! request arrivals for open-loop load generation, and empirical mixes for
//! endpoint selection. Each distribution here samples through the
//! [`Rng`] trait so every draw is deterministic given a seed.

use crate::rng::Rng;

/// Error returned when a distribution is constructed with invalid
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidDistributionError {
    what: &'static str,
}

impl InvalidDistributionError {
    fn new(what: &'static str) -> Self {
        Self { what }
    }
}

impl std::fmt::Display for InvalidDistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for InvalidDistributionError {}

/// Zipf (zeta) distribution over ranks `0..n`, with exponent `s`.
///
/// Rank 0 is the most popular item. Uses the rejection-inversion method of
/// Hörmann & Derflinger, which is O(1) per sample regardless of `n` — this
/// matters because TaoBench draws keys from key spaces with millions of
/// entries.
///
/// # Examples
///
/// ```
/// use dcperf_util::{Xoshiro256pp, Zipf};
///
/// let zipf = Zipf::new(1_000_000, 0.99)?;
/// let mut rng = Xoshiro256pp::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1_000_000);
/// # Ok::<(), dcperf_util::dist::InvalidDistributionError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants for rejection-inversion sampling
    // (Hörmann & Derflinger 1996).
    accept_band: f64,
    h_x1: f64,
    h_n: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` items with exponent `s > 0`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`, or `s` is not finite and positive.
    pub fn new(n: u64, s: f64) -> Result<Self, InvalidDistributionError> {
        if n == 0 {
            return Err(InvalidDistributionError::new("zipf requires n > 0"));
        }
        if !(s.is_finite() && s > 0.0) {
            return Err(InvalidDistributionError::new("zipf requires finite s > 0"));
        }
        let accept_band = 2.0 - h_integral_inverse(h_integral(2.5, s) - h_point(2.0, s), s);
        let h_x1 = h_integral(1.5, s) - 1.0;
        let h_n = h_integral(n as f64 + 0.5, s);
        Ok(Self {
            n,
            s,
            accept_band,
            h_x1,
            h_n,
        })
    }

    /// Number of distinct items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Samples a rank in `[0, n)`; rank 0 is the hottest item.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.s);
            let k = x.round().clamp(1.0, self.n as f64);
            if k - x <= self.accept_band || u >= h_integral(k + 0.5, self.s) - h_point(k, self.s) {
                return k as u64 - 1;
            }
        }
    }
}

/// Integral of the Zipf hat function: `H(x) = (x^(1-s) - 1)/(1-s)`, computed
/// as `expm1((1-s) ln x)/(1-s) = helper1((1-s) ln x) * ln x`, which smoothly
/// degrades to `ln x` at `s == 1`.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    expm1_over_x((1.0 - s) * log_x) * log_x
}

/// The hat function itself: `h(x) = x^(-s)`.
fn h_point(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// Inverse of [`h_integral`].
fn h_integral_inverse(x: f64, s: f64) -> f64 {
    let mut t = x * (1.0 - s);
    if t < -1.0 {
        // Numerical guard: t can slip just past -1 for large s.
        t = -1.0;
    }
    (ln1p_over_x(t) * x).exp()
}

/// `expm1(x)/x` with the correct limit of 1 at `x == 0`.
fn expm1_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        // Taylor expansion around zero.
        1.0 + x / 2.0 * (1.0 + x / 3.0 * (1.0 + x / 4.0))
    }
}

/// `ln(1+x)/x` with the correct limit of 1 at `x == 0`.
fn ln1p_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x / 2.0 * (1.0 - 2.0 * x / 3.0 * (1.0 - 3.0 * x / 4.0))
    }
}

/// Log-normal distribution, parameterized by the underlying normal's
/// `mu` and `sigma`.
///
/// The paper uses production-measured request/response *size* distributions;
/// heavy-tailed log-normals are the standard model for those.
///
/// # Examples
///
/// ```
/// use dcperf_util::{LogNormal, Xoshiro256pp};
///
/// // Median ~e^5 ≈ 148 bytes, heavy tail.
/// let sizes = LogNormal::new(5.0, 1.0)?;
/// let mut rng = Xoshiro256pp::seed_from_u64(2);
/// assert!(sizes.sample(&mut rng) > 0.0);
/// # Ok::<(), dcperf_util::dist::InvalidDistributionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with location `mu` and scale `sigma >= 0`.
    ///
    /// # Errors
    ///
    /// Returns an error if either parameter is non-finite or `sigma < 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, InvalidDistributionError> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(InvalidDistributionError::new(
                "log-normal requires finite mu and sigma >= 0",
            ));
        }
        Ok(Self { mu, sigma })
    }

    /// Creates a log-normal from a target mean and p99/median-style spread,
    /// convenient when calibrating against measured size distributions.
    ///
    /// # Errors
    ///
    /// Returns an error if `median <= 0` or `sigma < 0`.
    pub fn from_median(median: f64, sigma: f64) -> Result<Self, InvalidDistributionError> {
        if median <= 0.0 {
            return Err(InvalidDistributionError::new(
                "log-normal median must be positive",
            ));
        }
        Self::new(median.ln(), sigma)
    }

    /// Samples a positive value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * sample_standard_normal(rng)).exp()
    }

    /// The distribution mean, `exp(mu + sigma^2/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// Samples a standard normal via the Box–Muller polar method.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used to generate Poisson-process inter-arrival gaps for open-loop load.
///
/// # Examples
///
/// ```
/// use dcperf_util::{Exponential, Xoshiro256pp};
///
/// let gaps = Exponential::new(1000.0)?; // 1000 requests/sec
/// let mut rng = Xoshiro256pp::seed_from_u64(3);
/// let gap_secs = gaps.sample(&mut rng);
/// assert!(gap_secs >= 0.0);
/// # Ok::<(), dcperf_util::dist::InvalidDistributionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda > 0`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `lambda` is finite and positive.
    pub fn new(lambda: f64) -> Result<Self, InvalidDistributionError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(InvalidDistributionError::new(
                "exponential requires finite lambda > 0",
            ));
        }
        Ok(Self { lambda })
    }

    /// Samples a non-negative value with mean `1/lambda`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF; 1 - u avoids ln(0).
        -(1.0 - rng.next_f64()).ln() / self.lambda
    }
}

/// Empirical (categorical) distribution over weighted alternatives.
///
/// Used for endpoint mixes ("feed 40%, timeline 30%, seen 20%, inbox 10%")
/// and operation mixes (GET/SET ratios).
///
/// # Examples
///
/// ```
/// use dcperf_util::{Empirical, Xoshiro256pp};
///
/// let mix = Empirical::new(&[0.7, 0.2, 0.1])?;
/// let mut rng = Xoshiro256pp::seed_from_u64(4);
/// let idx = mix.sample(&mut rng);
/// assert!(idx < 3);
/// # Ok::<(), dcperf_util::dist::InvalidDistributionError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    cumulative: Vec<f64>,
}

impl Empirical {
    /// Creates an empirical distribution from non-negative `weights`.
    ///
    /// Weights are normalized internally, so they need not sum to one.
    ///
    /// # Errors
    ///
    /// Returns an error if `weights` is empty, contains a negative or
    /// non-finite weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, InvalidDistributionError> {
        if weights.is_empty() {
            return Err(InvalidDistributionError::new("empirical requires weights"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(InvalidDistributionError::new(
                "empirical weights must be finite and non-negative",
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(InvalidDistributionError::new(
                "empirical weights must not all be zero",
            ));
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cumulative.push(acc);
        }
        // Guard against floating-point shortfall at the top.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Ok(Self { cumulative })
    }

    /// Samples an index into the original weight slice.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.next_f64();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative weights are finite"))
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i,
        }
    }

    /// Number of alternatives.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the distribution has zero alternatives (never true for a
    /// successfully constructed value).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(0xD0_CAFE)
    }

    #[test]
    fn zipf_rank0_is_most_popular() {
        let zipf = Zipf::new(10_000, 0.99).unwrap();
        let mut r = rng();
        let mut counts = [0u64; 16];
        for _ in 0..200_000 {
            let k = zipf.sample(&mut r);
            if (k as usize) < counts.len() {
                counts[k as usize] += 1;
            }
        }
        // Monotone non-increasing head, with generous slack for noise.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[3]);
        assert!(counts[3] > counts[7]);
    }

    #[test]
    fn zipf_stays_in_range() {
        let zipf = Zipf::new(100, 1.2).unwrap();
        let mut r = rng();
        for _ in 0..50_000 {
            assert!(zipf.sample(&mut r) < 100);
        }
    }

    #[test]
    fn zipf_handles_s_equal_one() {
        let zipf = Zipf::new(1000, 1.0).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut r) < 1000);
        }
    }

    #[test]
    fn zipf_single_item_always_zero() {
        let zipf = Zipf::new(1, 0.9).unwrap();
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut r), 0);
        }
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, 0.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn lognormal_mean_close_to_analytic() {
        let ln = LogNormal::new(3.0, 0.5).unwrap();
        let mut r = rng();
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| ln.sample(&mut r)).sum();
        let mean = sum / n as f64;
        let expect = ln.mean();
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "mean={mean} expect={expect}"
        );
    }

    #[test]
    fn lognormal_from_median() {
        let ln = LogNormal::from_median(100.0, 0.0).unwrap();
        let mut r = rng();
        // sigma = 0 means all samples equal the median.
        assert!((ln.sample(&mut r) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_rejects_bad_params() {
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::new(0.0, -1.0).is_err());
        assert!(LogNormal::from_median(0.0, 1.0).is_err());
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let exp = Exponential::new(50.0).unwrap();
        let mut r = rng();
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| exp.sample(&mut r)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.02).abs() < 0.001, "mean={mean}");
    }

    #[test]
    fn empirical_respects_weights() {
        let e = Empirical::new(&[8.0, 1.0, 1.0]).unwrap();
        let mut r = rng();
        let mut counts = [0u64; 3];
        for _ in 0..100_000 {
            counts[e.sample(&mut r)] += 1;
        }
        let f0 = counts[0] as f64 / 100_000.0;
        assert!((f0 - 0.8).abs() < 0.01, "f0={f0}");
        assert!(counts[1] > 0 && counts[2] > 0);
    }

    #[test]
    fn empirical_single_weight() {
        let e = Empirical::new(&[5.0]).unwrap();
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(e.sample(&mut r), 0);
        }
    }

    #[test]
    fn empirical_rejects_bad_weights() {
        assert!(Empirical::new(&[]).is_err());
        assert!(Empirical::new(&[0.0, 0.0]).is_err());
        assert!(Empirical::new(&[-1.0, 2.0]).is_err());
        assert!(Empirical::new(&[f64::INFINITY]).is_err());
    }
}
