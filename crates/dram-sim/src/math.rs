//! Statistical primitives implemented from `rand` alone.
//!
//! The retention model needs the standard normal CDF and quantile plus
//! Poisson sampling. Implementing them here keeps the workspace within the
//! allowed dependency set (no `rand_distr` / `statrs`).

use rand::Rng;

/// Standard normal CDF Φ(z), via the Abramowitz–Stegun 7.1.26 erf
/// approximation (|ε| < 1.5 × 10⁻⁷).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal quantile Φ⁻¹(p) via Acklam's rational approximation
/// (relative error < 1.15 × 10⁻⁹ over (0, 1)).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile argument must be in (0,1), got {p}"
    );
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
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

/// Samples `Poisson(lambda)` — Knuth's method for small λ, normal
/// approximation (rounded, clamped at 0) for large λ.
///
/// # Panics
///
/// Panics if `lambda` is negative or not finite.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "lambda must be non-negative"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 64.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let g = sample_standard_normal(rng);
        let v = lambda + lambda.sqrt() * g;
        v.round().max(0.0) as u64
    }
}

/// Samples a standard normal via Box–Muller.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A truncated lognormal `exp(N(mu, sigma))` conditioned on the value
/// being below `cap`, sampled by inverse CDF. The constants that depend
/// only on the distribution are computed once, at construction, so a
/// population draws each tail's cells from one sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LognormalBelow {
    mu: f64,
    sigma: f64,
    /// Φ of the cap's standard score: the draw's quantile range.
    p_cap: f64,
}

impl LognormalBelow {
    /// The distribution of `exp(N(mu, sigma))` below `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not positive or `sigma` is not positive.
    pub fn new(mu: f64, sigma: f64, cap: f64) -> Self {
        assert!(cap > 0.0, "cap must be positive");
        assert!(sigma > 0.0, "sigma must be positive");
        let z_cap = (cap.ln() - mu) / sigma;
        LognormalBelow {
            mu,
            sigma,
            p_cap: normal_cdf(z_cap).max(f64::MIN_POSITIVE),
        }
    }

    /// Draws one value (one uniform draw from `rng`).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = rng.gen_range(f64::MIN_POSITIVE..1.0) * self.p_cap;
        let z = normal_quantile(u.min(1.0 - 1e-16));
        (self.mu + self.sigma * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-3.0) - 0.00135).abs() < 1e-5);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.2, 0.5, 0.8, 0.99, 0.999] {
            let z = normal_quantile(p);
            assert!((normal_cdf(z) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile argument")]
    fn quantile_rejects_bounds() {
        let _ = normal_quantile(0.0);
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        for lambda in [0.5, 5.0, 30.0, 200.0] {
            let n = 20_000;
            let samples: Vec<u64> = (0..n).map(|_| sample_poisson(&mut rng, lambda)).collect();
            let mean = samples.iter().sum::<u64>() as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < 4.0 * (lambda / n as f64).sqrt() + 0.5,
                "lambda={lambda} mean={mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn truncated_lognormal_respects_cap() {
        let mut rng = StdRng::seed_from_u64(2);
        let below = LognormalBelow::new(2.5, 0.5, 3.0);
        for _ in 0..5_000 {
            let v = below.sample(&mut rng);
            assert!(v > 0.0 && v < 3.0, "sample {v}");
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
