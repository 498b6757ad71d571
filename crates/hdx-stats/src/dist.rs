//! Normal and multivariate normal sampling plus densities.
//!
//! The synthetic-peak dataset (§VI-A) injects errors with probability equal
//! to the normalized density of a multivariate normal with mean `[0, 1, 2]`
//! and identity-scaled covariance; this module provides exactly the pieces
//! that generator needs.

use rand::{Rng, RngExt as _};

/// Univariate normal distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    /// Panics if `std_dev` is not strictly positive and finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            std_dev > 0.0 && std_dev.is_finite(),
            "standard deviation must be positive and finite"
        );
        Self { mean, std_dev }
    }

    /// The standard normal.
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Draws one sample via the Box–Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u1 in (0, 1] so ln(u1) is finite.
        let u1: f64 = 1.0 - rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.std_dev * z
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        (-0.5 * z * z).exp() / (self.std_dev * (2.0 * std::f64::consts::PI).sqrt())
    }
}

/// Cholesky factorisation of a symmetric positive-definite matrix
/// (row-major, `n×n`). Returns the lower-triangular factor `L` with
/// `L·Lᵀ = A`, or `None` when the matrix is not positive definite.
pub fn cholesky(a: &[f64], n: usize) -> Option<Vec<f64>> {
    assert_eq!(a.len(), n * n, "matrix shape mismatch");
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Some(l)
}

/// Multivariate normal distribution with full covariance.
#[derive(Debug, Clone, PartialEq)]
pub struct MultivariateNormal {
    mean: Vec<f64>,
    /// Lower Cholesky factor of the covariance.
    chol: Vec<f64>,
    /// Inverse covariance (for the density).
    precision: Vec<f64>,
    /// `1 / sqrt((2π)^d · det Σ)`.
    norm_const: f64,
    dim: usize,
}

impl MultivariateNormal {
    /// Creates a multivariate normal from a mean vector and a row-major
    /// covariance matrix.
    ///
    /// Returns `None` when the covariance is not symmetric positive definite.
    pub fn new(mean: Vec<f64>, covariance: &[f64]) -> Option<Self> {
        let dim = mean.len();
        assert_eq!(covariance.len(), dim * dim, "covariance shape mismatch");
        let chol = cholesky(covariance, dim)?;
        // det Σ = prod(diag(L))²; Σ⁻¹ via forward/back substitution per basis
        // vector.
        let mut det_sqrt = 1.0;
        for i in 0..dim {
            det_sqrt *= chol[i * dim + i];
        }
        let mut precision = vec![0.0; dim * dim];
        for col in 0..dim {
            // Solve L y = e_col.
            let mut y = vec![0.0; dim];
            for i in 0..dim {
                let mut sum = if i == col { 1.0 } else { 0.0 };
                for k in 0..i {
                    sum -= chol[i * dim + k] * y[k];
                }
                y[i] = sum / chol[i * dim + i];
            }
            // Solve Lᵀ x = y.
            let mut x = vec![0.0; dim];
            for i in (0..dim).rev() {
                let mut sum = y[i];
                for k in (i + 1)..dim {
                    sum -= chol[k * dim + i] * x[k];
                }
                x[i] = sum / chol[i * dim + i];
            }
            for i in 0..dim {
                precision[i * dim + col] = x[i];
            }
        }
        let norm_const = 1.0 / ((2.0 * std::f64::consts::PI).powi(dim as i32).sqrt() * det_sqrt);
        Some(Self {
            mean,
            chol,
            precision,
            norm_const,
            dim,
        })
    }

    /// An isotropic normal `N(mean, σ²·I)`.
    ///
    /// # Panics
    /// Panics if `variance` is not strictly positive.
    #[expect(
        clippy::expect_used,
        reason = "a positive diagonal covariance is positive definite"
    )]
    pub fn isotropic(mean: Vec<f64>, variance: f64) -> Self {
        assert!(variance > 0.0, "variance must be positive");
        let dim = mean.len();
        let mut cov = vec![0.0; dim * dim];
        for i in 0..dim {
            cov[i * dim + i] = variance;
        }
        Self::new(mean, &cov).expect("isotropic covariance is positive definite")
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The mean vector.
    #[inline]
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Draws one sample (`μ + L·z`, `z` i.i.d. standard normal).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let std = Normal::standard();
        let z: Vec<f64> = (0..self.dim).map(|_| std.sample(rng)).collect();
        let mut out = self.mean.clone();
        for (i, o) in out.iter_mut().enumerate() {
            for (k, &zk) in z.iter().enumerate().take(i + 1) {
                *o += self.chol[i * self.dim + k] * zk;
            }
        }
        out
    }

    /// Probability density at `x`.
    ///
    /// # Panics
    /// Panics when `x.len() != self.dim()`.
    pub fn pdf(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "point dimensionality mismatch");
        let d: Vec<f64> = x.iter().zip(&self.mean).map(|(a, b)| a - b).collect();
        let mut quad = 0.0;
        for i in 0..self.dim {
            for j in 0..self.dim {
                quad += d[i] * self.precision[i * self.dim + j] * d[j];
            }
        }
        self.norm_const * (-0.5 * quad).exp()
    }

    /// Density normalized so the peak (at the mean) equals `1.0`.
    ///
    /// This is the "normalized multivariate normal distribution" used as a
    /// flip probability by the synthetic-peak generator (§VI-A).
    pub fn normalized_pdf(&self, x: &[f64]) -> f64 {
        self.pdf(x) / self.norm_const
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::MeanVar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_sample_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = Normal::new(3.0, 2.0);
        let acc: MeanVar = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        assert!((acc.mean() - 3.0).abs() < 0.05, "mean = {}", acc.mean());
        assert!(
            (acc.variance() - 4.0).abs() < 0.15,
            "var = {}",
            acc.variance()
        );
    }

    #[test]
    fn normal_pdf_peak() {
        let d = Normal::standard();
        let peak = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        assert!((d.pdf(0.0) - peak).abs() < 1e-12);
        assert!(d.pdf(1.0) < d.pdf(0.0));
        assert!((d.pdf(1.0) - d.pdf(-1.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn normal_rejects_bad_sigma() {
        let _ = Normal::new(0.0, 0.0);
    }

    #[test]
    fn cholesky_identity() {
        let l = cholesky(&[1.0, 0.0, 0.0, 1.0], 2).unwrap();
        assert_eq!(l, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn cholesky_known_factor() {
        // A = [[4, 2], [2, 3]] → L = [[2, 0], [1, sqrt(2)]]
        let l = cholesky(&[4.0, 2.0, 2.0, 3.0], 2).unwrap();
        assert!((l[0] - 2.0).abs() < 1e-12);
        assert!((l[2] - 1.0).abs() < 1e-12);
        assert!((l[3] - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_non_pd() {
        assert!(cholesky(&[1.0, 2.0, 2.0, 1.0], 2).is_none());
        assert!(cholesky(&[0.0, 0.0, 0.0, 0.0], 2).is_none());
    }

    #[test]
    fn mvn_pdf_matches_product_of_univariates() {
        let mvn = MultivariateNormal::isotropic(vec![0.0, 1.0, 2.0], 1.0);
        let n0 = Normal::new(0.0, 1.0);
        let n1 = Normal::new(1.0, 1.0);
        let n2 = Normal::new(2.0, 1.0);
        let x = [0.5, 0.5, 0.5];
        let expected = n0.pdf(x[0]) * n1.pdf(x[1]) * n2.pdf(x[2]);
        assert!((mvn.pdf(&x) - expected).abs() < 1e-12);
    }

    #[test]
    fn mvn_normalized_pdf_peaks_at_one() {
        let mvn = MultivariateNormal::isotropic(vec![0.0, 1.0, 2.0], 1.0);
        assert!((mvn.normalized_pdf(&[0.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        let off = mvn.normalized_pdf(&[3.0, 3.0, 3.0]);
        assert!(off > 0.0 && off < 1.0);
    }

    #[test]
    fn mvn_sample_moments() {
        let mvn = MultivariateNormal::new(vec![1.0, -2.0], &[2.0, 0.6, 0.6, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut a0 = MeanVar::new();
        let mut a1 = MeanVar::new();
        let mut cov = 0.0;
        let n = 50_000;
        let samples: Vec<Vec<f64>> = (0..n).map(|_| mvn.sample(&mut rng)).collect();
        for s in &samples {
            a0.push(s[0]);
            a1.push(s[1]);
        }
        for s in &samples {
            cov += (s[0] - a0.mean()) * (s[1] - a1.mean());
        }
        cov /= (n - 1) as f64;
        assert!((a0.mean() - 1.0).abs() < 0.05);
        assert!((a1.mean() + 2.0).abs() < 0.05);
        assert!((a0.variance() - 2.0).abs() < 0.1);
        assert!((a1.variance() - 1.0).abs() < 0.05);
        assert!((cov - 0.6).abs() < 0.05, "cov = {cov}");
    }
}
