//! Probability distributions used by the workload and energy models.
//!
//! Implemented directly against [`rand::Rng`] so the workspace needs no
//! extra distribution crate. Each sampler documents the algorithm it uses;
//! all are standard textbook methods chosen for determinism. Request
//! synthesis draws a [`Zipf`] rank and a [`LogNormal`] size for every
//! interactive request, so those two samplers sit on the simulation hot
//! path: their per-draw work is kept to a table lookup and one Box–Muller
//! draw, without changing a single drawn bit (seeded runs are pinned).

use rand::Rng;

/// Draw `u ∈ (0, 1)` — open at both ends so `ln(u)` is always finite.
#[inline]
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

/// Standard normal via the Box–Muller transform (one value per call; the
/// second value is intentionally discarded to keep samplers stateless).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = open_unit(rng);
    let u2 = open_unit(rng);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Normal with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    debug_assert!(std_dev >= 0.0);
    mean + std_dev * standard_normal(rng)
}

/// Exponential with rate `lambda` (mean `1/lambda`), via inverse CDF.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    assert!(lambda > 0.0, "exponential rate must be positive, got {lambda}");
    -open_unit(rng).ln() / lambda
}

/// Poisson with mean `lambda`.
///
/// Uses Knuth's product method for small means and a normal approximation
/// (with continuity correction, clamped at zero) for `lambda > 30`, where the
/// approximation error is far below the noise floor of any experiment here.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "poisson mean must be non-negative, got {lambda}");
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let x = normal(rng, lambda, lambda.sqrt());
        return (x + 0.5).max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= open_unit(rng);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Weibull with shape `k` and scale `lambda`, via inverse CDF.
/// `k ≈ 2` is the classic fit for wind-speed distributions.
pub fn weibull<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(shape > 0.0 && scale > 0.0, "weibull parameters must be positive");
    scale * (-open_unit(rng).ln()).powf(1.0 / shape)
}

/// Lognormal parameterised by the mean and std-dev of the *underlying*
/// normal (`mu`, `sigma`). Classic model for I/O request sizes.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Lognormal parameterised by its own mean and coefficient of variation —
/// friendlier for workload configs ("mean 256 KiB, cv 1.5"). One-shot
/// form of [`LogNormal::from_mean_cv`]; draws the identical value.
pub fn lognormal_mean_cv<R: Rng + ?Sized>(rng: &mut R, mean: f64, cv: f64) -> f64 {
    LogNormal::from_mean_cv(mean, cv).sample(rng)
}

/// A lognormal sampler with its underlying-normal parameters computed
/// once, for loops that draw many values from one `(mean, cv)`.
///
/// `cv = 0` is the degenerate distribution: every draw returns `mean` and
/// consumes no randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mean: f64,
    /// `(mu, sigma)` of the underlying normal; `None` when `cv = 0`.
    normal: Option<(f64, f64)>,
}

impl LogNormal {
    /// The lognormal with mean `mean > 0` and coefficient of variation
    /// `cv ≥ 0`: `sigma² = ln(1 + cv²)`, `mu = ln(mean) − sigma²/2`.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv >= 0.0);
        if cv == 0.0 {
            return LogNormal { mean, normal: None };
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal { mean, normal: Some((mu, sigma2.sqrt())) }
    }

    /// Draw one value.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self.normal {
            None => self.mean,
            Some((mu, sigma)) => lognormal(rng, mu, sigma),
        }
    }
}

/// Inverse CDF (quantile function) of the standard normal distribution.
///
/// Acklam's rational approximation (relative error < 1.15e-9 over the open
/// unit interval) — accurate far beyond what confidence-band arithmetic
/// needs, with no dependency on `erf`. `p` must lie strictly inside (0, 1);
/// the closed endpoints would be ±∞.
#[allow(clippy::excessive_precision)] // Acklam's published coefficients, verbatim
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal quantile needs p in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s` (popularity skew).
///
/// Builds the CDF once (O(n)) plus a guide table (Chen & Asau's indexed
/// search): `guide[j]` is the first rank whose CDF reaches `j/m`, for `m`
/// the smallest power of two ≥ `n`. A draw `u` starts at `guide[⌊u·m⌋]`
/// and scans forward, a few steps on average. Because `m` is a power of
/// two, `u·m` and `j/m` are exact in `f64`, so every rank before the
/// starting point has a CDF below `u` and the scan returns exactly the
/// rank a binary search over the CDF returns (see [`Zipf::sample`]).
/// Object-popularity skew in storage traces is classically Zipfian with
/// `s ≈ 0.8–1.2`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` = first index with `cdf ≥ j / guide.len()`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Construct for `n` ranks with exponent `s ≥ 0`. `s = 0` is uniform.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "zipf exponent must be finite and >= 0");
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
        // Guard against FP round-off leaving the last CDF entry below 1.
        *cdf.last_mut().expect("n > 0") = 1.0;
        let guide = guide_table(&cdf);
        Zipf { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Sample a rank in `0..n` (0 = most popular).
    ///
    /// Returns the first rank whose CDF reaches `u`: the rank a binary
    /// search over the CDF returns, because the CDF is strictly increasing
    /// below its final run of 1.0s (the running sum only stops growing
    /// once it equals the total) and `u < 1`. `cdf[n−1] = 1` ends the
    /// scan inside the table.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        debug_assert!((0.0..1.0).contains(&u));
        self.rank_of(u)
    }

    /// The rank drawn by uniform `u ∈ [0, 1)`.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let m = self.guide.len() as f64;
        let mut i = self.guide[(u * m) as usize] as usize;
        while self.cdf[i] < u {
            i += 1;
        }
        i
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k >= self.cdf.len() {
            return 0.0;
        }
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// The guide table of a CDF whose last entry is 1: `m` = the smallest
/// power of two ≥ `cdf.len()` entries, entry `j` the first index with
/// `cdf ≥ j/m`. Both `j/m` and the sampler's `u·m` are exact.
fn guide_table(cdf: &[f64]) -> Vec<u32> {
    assert!(u32::try_from(cdf.len()).is_ok(), "zipf supports at most 2^32 - 1 ranks");
    let m = cdf.len().next_power_of_two();
    let bucket = 1.0 / m as f64; // a power of two: exact, and so is j·bucket
    let mut guide = Vec::with_capacity(m);
    let mut i = 0;
    for j in 0..m {
        let x = j as f64 * bucket;
        while cdf[i] < x {
            i += 1;
        }
        guide.push(i as u32);
    }
    guide
}

/// First-order autoregressive process `x' = phi·x + (1-phi)·mean + noise`,
/// the standard minimal model for temporally-correlated weather residuals
/// (cloud cover, wind-speed deviations).
#[derive(Debug, Clone)]
pub struct Ar1 {
    phi: f64,
    mean: f64,
    noise_std: f64,
    state: f64,
}

impl Ar1 {
    /// New process with persistence `phi ∈ [0,1)`, long-run `mean`, and
    /// innovation std-dev `noise_std`; starts at the mean.
    pub fn new(phi: f64, mean: f64, noise_std: f64) -> Self {
        assert!((0.0..1.0).contains(&phi), "AR(1) phi must be in [0,1), got {phi}");
        assert!(noise_std >= 0.0);
        Ar1 { phi, mean, noise_std, state: mean }
    }

    /// Override the current state (e.g. to start a trace mid-storm).
    pub fn set_state(&mut self, x: f64) {
        self.state = x;
    }

    /// Current state without advancing.
    pub fn state(&self) -> f64 {
        self.state
    }

    /// Advance one step and return the new state.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.state = self.phi * self.state
            + (1.0 - self.phi) * self.mean
            + self.noise_std * standard_normal(rng);
        self.state
    }

    /// Advance one step and return the state clamped into `[lo, hi]`
    /// (clamping also feeds back, keeping the process inside the band).
    pub fn step_clamped<R: Rng + ?Sized>(&mut self, rng: &mut R, lo: f64, hi: f64) -> f64 {
        let x = self.step(rng).clamp(lo, hi);
        self.state = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0x5EED)
    }

    const N: usize = 40_000;

    #[test]
    fn normal_quantile_matches_reference_points() {
        // Classic z-table values; Acklam's approximation is good to ~1e-9.
        for (p, z) in [
            (0.5, 0.0),
            (0.8413447460685429, 1.0),
            (0.975, 1.959963984540054),
            (0.99, 2.3263478740408408),
            (0.001, -3.090232306167813),
        ] {
            assert!((normal_quantile(p) - z).abs() < 1e-7, "p={p}: {}", normal_quantile(p));
        }
    }

    #[test]
    fn normal_quantile_is_monotone_and_antisymmetric() {
        let mut prev = f64::NEG_INFINITY;
        for i in 1..1000 {
            let p = i as f64 / 1000.0;
            let z = normal_quantile(p);
            assert!(z > prev, "monotone at p={p}");
            assert!((z + normal_quantile(1.0 - p)).abs() < 1e-8, "antisymmetric at p={p}");
            prev = z;
        }
    }

    #[test]
    #[should_panic(expected = "normal quantile needs p in")]
    fn normal_quantile_rejects_endpoints() {
        let _ = normal_quantile(1.0);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..N).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / N as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let mean = (0..N).map(|_| exponential(&mut r, 0.5)).sum::<f64>() / N as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_small_and_large_means() {
        let mut r = rng();
        let m1 = (0..N).map(|_| poisson(&mut r, 3.0) as f64).sum::<f64>() / N as f64;
        assert!((m1 - 3.0).abs() < 0.1, "small-mean {m1}");
        let m2 = (0..N).map(|_| poisson(&mut r, 100.0) as f64).sum::<f64>() / N as f64;
        assert!((m2 - 100.0).abs() < 0.5, "large-mean {m2}");
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn weibull_mean_shape2() {
        // Mean of Weibull(k=2, λ) is λ·Γ(1.5) = λ·√π/2.
        let mut r = rng();
        let scale = 8.0;
        let mean = (0..N).map(|_| weibull(&mut r, 2.0, scale)).sum::<f64>() / N as f64;
        let expect = scale * (std::f64::consts::PI.sqrt() / 2.0);
        assert!((mean - expect).abs() / expect < 0.02, "mean {mean} expect {expect}");
    }

    #[test]
    fn lognormal_mean_cv_hits_target_mean() {
        let mut r = rng();
        let mean = (0..N).map(|_| lognormal_mean_cv(&mut r, 256.0, 1.0)).sum::<f64>() / N as f64;
        assert!((mean - 256.0).abs() / 256.0 < 0.05, "mean {mean}");
        assert_eq!(lognormal_mean_cv(&mut r, 10.0, 0.0), 10.0);
    }

    #[test]
    fn zipf_rank0_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        let mut counts = vec![0usize; 100];
        for _ in 0..N {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // pmf sums to 1
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.pmf(100), 0.0);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_samples_cover_full_support() {
        let z = Zipf::new(5, 0.9);
        let mut r = rng();
        let mut seen = [false; 5];
        for _ in 0..5_000 {
            seen[z.sample(&mut r)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all ranks should appear: {seen:?}");
    }

    #[test]
    fn ar1_reverts_to_mean() {
        let mut p = Ar1::new(0.9, 5.0, 0.0);
        p.set_state(100.0);
        let mut r = rng();
        for _ in 0..200 {
            p.step(&mut r);
        }
        assert!((p.state() - 5.0).abs() < 0.01, "state {}", p.state());
    }

    #[test]
    fn ar1_clamped_stays_in_band() {
        let mut p = Ar1::new(0.5, 0.5, 0.5);
        let mut r = rng();
        for _ in 0..1_000 {
            let x = p.step_clamped(&mut r, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    /// The sampler as it stood before the guide table: a binary search
    /// over the CDF. Kept only as the exactness oracle.
    fn binary_search_rank(z: &Zipf, u: f64) -> usize {
        match z.cdf.binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite")) {
            Ok(i) => i,
            Err(i) => i.min(z.cdf.len() - 1),
        }
    }

    /// Every probe point that can change a rank: each CDF knot in `ranks`,
    /// its two `f64` neighbours, each guide-bucket boundary `j/m` those
    /// knots fall in and the value just below it, plus random `u`. Only
    /// values in `[0, 1)` are drawn.
    fn assert_rank_matches_binary_search(
        z: &Zipf,
        ranks: std::ops::Range<usize>,
        r: &mut TestRng,
        random_draws: usize,
    ) {
        // The sampler relies on a strictly increasing CDF below 1.0.
        assert!(z.cdf.windows(2).all(|w| w[0] < w[1] || w[1] == 1.0), "n={} plateau", z.len());
        let m = z.guide.len();
        let mut probes: Vec<f64> = Vec::new();
        for &c in &z.cdf[ranks] {
            probes.extend([c, f64::from_bits(c.to_bits() - 1), f64::from_bits(c.to_bits() + 1)]);
            let x = (c * m as f64).floor() / m as f64;
            probes.extend([x, f64::from_bits(x.to_bits().saturating_sub(1))]);
        }
        probes.extend((0..random_draws).map(|_| r.unit_f64()));
        probes.push(f64::from_bits(1.0f64.to_bits() - 1));
        probes.retain(|u| (0.0..1.0).contains(u));
        probes.sort_by(f64::total_cmp);
        probes.dedup();
        for u in probes {
            let (got, want) = (z.rank_of(u), binary_search_rank(z, u));
            assert_eq!(got, want, "n={} u={u:e} ({:#x})", z.len(), u.to_bits());
        }
    }

    #[test]
    fn exactness_zipf_guide_table_matches_binary_search() {
        for case in 0..64u32 {
            let mut r = TestRng::for_case("exactness-zipf", case);
            // Log-uniform n over 1..=2^12 and s over [0, 5]: large s gives
            // CDFs that flatten into plateaus. (Probing every knot costs
            // O(n²) when a heavy tail packs most knots into the last guide
            // bucket, so the all-knot sweep stays at small n; one random
            // draw still lands there with probability 1/m.)
            let n = (2f64.powf(r.unit_f64() * 12.0) as usize).max(1);
            let s = match case % 4 {
                0 => 0.0,
                1 => 5.0,
                _ => r.unit_f64() * 5.0,
            };
            assert_rank_matches_binary_search(&Zipf::new(n, s), 0..n, &mut r, 2_000);
        }
        // Uniform tables whose knots land exactly on guide boundaries j/m.
        let mut r = TestRng::for_case("exactness-zipf-dyadic", 0);
        for n in [64, 1_000, 3_000] {
            assert_rank_matches_binary_search(&Zipf::new(n, 0.0), 0..n, &mut r, 100);
        }
        // The medium and mega presets' popularity table (10^5 objects,
        // s = 0.9), a 10^6 one, and a heavy-tailed table whose tail CDF
        // saturates at exactly 1: every knot of the head, the tail and one
        // random window.
        let mut r = TestRng::for_case("exactness-zipf-large", 0);
        for (n, s) in [(100_000usize, 0.9), (1_000_000, 0.9), (100_000, 5.0)] {
            let z = Zipf::new(n, s);
            let mid = (r.next_u64() % (n as u64 - 8_192)) as usize;
            for ranks in [0..4_096, mid..mid + 4_096, n - 4_096..n] {
                assert_rank_matches_binary_search(&z, ranks, &mut r, 5_000);
            }
        }
    }

    #[test]
    fn exactness_zipf_draws_match_binary_search_stream() {
        // Whole draw sequences, as the synthesis kernel consumes them.
        let z = Zipf::new(10_000, 0.9);
        let (mut a, mut b) = (rng(), rng());
        for _ in 0..N {
            let u: f64 = b.gen();
            assert_eq!(z.sample(&mut a), binary_search_rank(&z, u));
        }
    }

    /// `lognormal_mean_cv` as it stood before [`LogNormal`] hoisted its
    /// parameters. Kept only as the exactness oracle.
    fn lognormal_mean_cv_inline<R: Rng + ?Sized>(rng: &mut R, mean: f64, cv: f64) -> f64 {
        if cv == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        lognormal(rng, mu, sigma2.sqrt())
    }

    #[test]
    fn exactness_hoisted_lognormal_matches_inline_formula() {
        for case in 0..64u32 {
            let mut r = TestRng::for_case("exactness-lognormal", case);
            let mean = 2f64.powf(r.unit_f64() * 60.0 - 10.0);
            let cv = match case % 4 {
                0 => 0.0,
                1 => 1e-9 * r.unit_f64(),
                _ => r.unit_f64() * 4.0,
            };
            let hoisted = LogNormal::from_mean_cv(mean, cv);
            let seed = r.next_u64();
            let (mut a, mut b, mut c) = (
                SmallRng::seed_from_u64(seed),
                SmallRng::seed_from_u64(seed),
                SmallRng::seed_from_u64(seed),
            );
            for _ in 0..500 {
                let want = lognormal_mean_cv_inline(&mut a, mean, cv);
                assert_eq!(hoisted.sample(&mut b).to_bits(), want.to_bits(), "mean {mean} cv {cv}");
                assert_eq!(lognormal_mean_cv(&mut c, mean, cv).to_bits(), want.to_bits());
            }
            // Both consumed the identical number of draws.
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "zipf needs at least one rank")]
    fn zipf_empty_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponential rate must be positive")]
    fn exponential_bad_rate_panics() {
        let mut r = rng();
        let _ = exponential(&mut r, 0.0);
    }
}
