//! Outcome values and the statistic accumulator shared by discretization and
//! mining.
//!
//! §III-B defines statistics via *outcome functions* `o : D → ℝ ∪ {⊥}`; for
//! probability-shaped statistics (false-positive rate, error rate, …) the
//! outcome is boolean (`{T, F, ⊥}`, §V-A). [`StatAccum`] folds either kind
//! into four additive counters, from which mean (the statistic `f`),
//! variance, divergence and Welch's t all follow. Because the accumulator is
//! additive, the frequent-pattern miners can merge it exactly like a support
//! count — this is the paper's "divergence at essentially no additional
//! cost" design.

use crate::tdist::{t_quantile, welch_df, welch_p_value};
use crate::welch::welch_t;

/// The outcome `o(x)` of a single instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Boolean outcome (e.g. "is a false positive").
    Bool(bool),
    /// Real-valued outcome (e.g. income).
    Real(f64),
    /// `⊥`: the instance does not participate in the statistic.
    Undefined,
}

impl Outcome {
    /// Whether the outcome is defined (not `⊥`).
    #[inline]
    pub fn is_defined(&self) -> bool {
        !matches!(self, Outcome::Undefined)
    }

    /// The numeric contribution of the outcome (`T → 1`, `F → 0`, reals as
    /// themselves), or `None` for `⊥`.
    #[inline]
    pub fn value(&self) -> Option<f64> {
        match self {
            Outcome::Bool(true) => Some(1.0),
            Outcome::Bool(false) => Some(0.0),
            Outcome::Real(x) => Some(*x),
            Outcome::Undefined => None,
        }
    }
}

/// Additive statistics of a set of instances.
///
/// Tracks the instance count `n` (for support), the count of defined
/// outcomes, and the sum / sum of squares of defined outcomes. For a boolean
/// outcome function the mean is exactly `k⁺/(k⁺+k⁻)` — the probability form
/// `f_o` of §V-A — and the variance is the Bernoulli sample variance, so one
/// accumulator serves both outcome kinds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatAccum {
    n: u64,
    n_valid: u64,
    sum: f64,
    sum_sq: f64,
}

impl StatAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one instance.
    #[inline]
    pub fn push(&mut self, outcome: Outcome) {
        self.n += 1;
        if let Some(v) = outcome.value() {
            self.n_valid += 1;
            self.sum += v;
            self.sum_sq += v * v;
        }
    }

    /// Builds an accumulator directly from boolean-outcome counts: `n` rows,
    /// `n_valid` of them with a defined outcome, `positives` of those `T`.
    ///
    /// This is the word-level kernel constructor ([`crate::OutcomePlanes`]):
    /// because the scalar path sums `1.0` per positive row and integer-valued
    /// `f64` sums are exact below 2⁵³, setting `sum = sum_sq = positives`
    /// reproduces the pushed accumulator **bit for bit**.
    #[inline]
    pub fn from_counts(n: u64, n_valid: u64, positives: u64) -> Self {
        debug_assert!(positives <= n_valid && n_valid <= n);
        Self {
            n,
            n_valid,
            sum: positives as f64,
            sum_sq: positives as f64,
        }
    }

    /// Builds an accumulator directly from precomputed sums: `n` rows,
    /// `n_valid` defined outcomes with the given `sum` / `sum_sq`.
    ///
    /// Numeric-path counterpart of [`StatAccum::from_counts`]; the caller
    /// (the word-level kernel) guarantees the sums were reduced in the same
    /// ascending-row order as the scalar path.
    #[inline]
    pub fn from_sums(n: u64, n_valid: u64, sum: f64, sum_sq: f64) -> Self {
        debug_assert!(n_valid <= n);
        Self {
            n,
            n_valid,
            sum,
            sum_sq,
        }
    }

    /// Merges another accumulator (disjoint instance sets).
    #[inline]
    pub fn merge(&mut self, other: &StatAccum) {
        self.n += other.n;
        self.n_valid += other.n_valid;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Number of instances (the support count `#D_I`).
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of instances with defined outcome.
    #[inline]
    pub fn valid_count(&self) -> u64 {
        self.n_valid
    }

    /// The raw additive components `(n, n_valid, sum, sum_sq)` — the exact
    /// inverse of [`StatAccum::from_sums`], so an accumulator can be
    /// persisted and rebuilt bit for bit (checkpoint/resume).
    #[inline]
    pub fn raw_parts(&self) -> (u64, u64, f64, f64) {
        (self.n, self.n_valid, self.sum, self.sum_sq)
    }

    /// The statistic `f` over this set: mean of defined outcomes, or `None`
    /// when no outcome is defined.
    #[inline]
    pub fn statistic(&self) -> Option<f64> {
        (self.n_valid > 0).then(|| self.sum / self.n_valid as f64)
    }

    /// Unbiased sample variance of the defined outcomes (0 when `n_valid < 2`).
    pub fn variance(&self) -> f64 {
        if self.n_valid < 2 {
            return 0.0;
        }
        let n = self.n_valid as f64;
        let var = (self.sum_sq - self.sum * self.sum / n) / (n - 1.0);
        var.max(0.0) // guard tiny negative values from cancellation
    }

    /// Divergence `Δ_f = f(self) − f(global)`, or `None` when either side is
    /// undefined.
    pub fn divergence(&self, global: &StatAccum) -> Option<f64> {
        Some(self.statistic()? - global.statistic()?)
    }

    /// Welch t-value of this set's statistic against `global`'s (§III-B).
    ///
    /// Returns 0 when undefined on either side.
    pub fn t_value(&self, global: &StatAccum) -> f64 {
        match (self.statistic(), global.statistic()) {
            (Some(m1), Some(m2)) => welch_t(
                m1,
                self.variance(),
                self.n_valid,
                m2,
                global.variance(),
                global.n_valid,
            ),
            _ => 0.0,
        }
    }

    /// Two-sided Welch p-value of this set's divergence from `global`
    /// (Welch–Satterthwaite degrees of freedom, Student-t tail).
    ///
    /// Returns `1.0` when the test is undefined (tiny samples, zero
    /// variance): no evidence against the null.
    pub fn p_value(&self, global: &StatAccum) -> f64 {
        let t = self.t_value(global);
        if crate::approx::approx_zero(t) {
            return 1.0;
        }
        welch_p_value(
            t,
            self.variance(),
            self.n_valid,
            global.variance(),
            global.n_valid,
        )
        .unwrap_or(1.0)
    }

    /// Two-sided `(1 − alpha)` confidence interval for the divergence from
    /// `global` (Welch interval: difference of means ± t-quantile × SE).
    ///
    /// Returns `None` when the interval is undefined (fewer than two valid
    /// observations on either side, or zero variance everywhere).
    pub fn divergence_ci(&self, global: &StatAccum, alpha: f64) -> Option<(f64, f64)> {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        let diff = self.divergence(global)?;
        let df = welch_df(
            self.variance(),
            self.n_valid,
            global.variance(),
            global.n_valid,
        )?;
        let se = (self.variance() / self.n_valid as f64
            + global.variance() / global.n_valid as f64)
            .sqrt();
        let t = t_quantile(1.0 - alpha / 2.0, df);
        Some((diff - t * se, diff + t * se))
    }

    /// Accumulates a whole slice of outcomes.
    pub fn from_outcomes(outcomes: &[Outcome]) -> Self {
        let mut acc = Self::new();
        for &o in outcomes {
            acc.push(o);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_parts_round_trips_through_from_sums() {
        let mut acc = StatAccum::new();
        acc.push(Outcome::Real(1.25));
        acc.push(Outcome::Real(-3.5));
        acc.push(Outcome::Undefined);
        let (n, n_valid, sum, sum_sq) = acc.raw_parts();
        assert_eq!(StatAccum::from_sums(n, n_valid, sum, sum_sq), acc);
    }

    #[test]
    fn outcome_values() {
        assert_eq!(Outcome::Bool(true).value(), Some(1.0));
        assert_eq!(Outcome::Bool(false).value(), Some(0.0));
        assert_eq!(Outcome::Real(2.5).value(), Some(2.5));
        assert_eq!(Outcome::Undefined.value(), None);
        assert!(!Outcome::Undefined.is_defined());
        assert!(Outcome::Bool(false).is_defined());
    }

    #[test]
    fn boolean_statistic_is_probability() {
        let acc = StatAccum::from_outcomes(&[
            Outcome::Bool(true),
            Outcome::Bool(false),
            Outcome::Bool(false),
            Outcome::Bool(true),
            Outcome::Undefined,
            Outcome::Bool(false),
        ]);
        assert_eq!(acc.count(), 6);
        assert_eq!(acc.valid_count(), 5);
        assert!((acc.statistic().unwrap() - 0.4).abs() < 1e-12);
        // Bernoulli sample variance p(1-p)n/(n-1) = 0.24 * 5/4 = 0.3.
        assert!((acc.variance() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn real_statistic_mean_and_variance() {
        let acc = StatAccum::from_outcomes(&[
            Outcome::Real(2.0),
            Outcome::Real(4.0),
            Outcome::Real(6.0),
            Outcome::Undefined,
        ]);
        assert_eq!(acc.statistic(), Some(4.0));
        assert!((acc.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_all_undefined() {
        let empty = StatAccum::new();
        assert_eq!(empty.statistic(), None);
        assert_eq!(empty.variance(), 0.0);
        let undef = StatAccum::from_outcomes(&[Outcome::Undefined; 3]);
        assert_eq!(undef.count(), 3);
        assert_eq!(undef.valid_count(), 0);
        assert_eq!(undef.statistic(), None);
        assert_eq!(undef.divergence(&empty), None);
        assert_eq!(undef.t_value(&empty), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let outcomes = [
            Outcome::Bool(true),
            Outcome::Real(3.0),
            Outcome::Undefined,
            Outcome::Bool(false),
        ];
        let whole = StatAccum::from_outcomes(&outcomes);
        let mut left = StatAccum::from_outcomes(&outcomes[..2]);
        let right = StatAccum::from_outcomes(&outcomes[2..]);
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn divergence_sign() {
        let global = StatAccum::from_outcomes(&[
            Outcome::Bool(true),
            Outcome::Bool(false),
            Outcome::Bool(false),
            Outcome::Bool(false),
        ]); // f = 0.25
        let high = StatAccum::from_outcomes(&[Outcome::Bool(true), Outcome::Bool(true)]);
        let low = StatAccum::from_outcomes(&[Outcome::Bool(false), Outcome::Bool(false)]);
        assert!((high.divergence(&global).unwrap() - 0.75).abs() < 1e-12);
        assert!((low.divergence(&global).unwrap() + 0.25).abs() < 1e-12);
    }

    #[test]
    fn t_value_grows_with_evidence() {
        let mut global = StatAccum::new();
        for i in 0..1000 {
            global.push(Outcome::Bool(i % 10 == 0)); // f = 0.1
        }
        let mut small = StatAccum::new();
        for i in 0..20 {
            small.push(Outcome::Bool(i % 2 == 0)); // f = 0.5
        }
        let mut large = StatAccum::new();
        for i in 0..200 {
            large.push(Outcome::Bool(i % 2 == 0));
        }
        let t_small = small.t_value(&global);
        let t_large = large.t_value(&global);
        assert!(t_small > 0.0);
        assert!(t_large > t_small);
    }

    #[test]
    fn divergence_ci_brackets_the_estimate() {
        let mut global = StatAccum::new();
        for i in 0..1000 {
            global.push(Outcome::Bool(i % 10 == 0)); // f = 0.1
        }
        let mut sub = StatAccum::new();
        for i in 0..100 {
            sub.push(Outcome::Bool(i % 4 == 0)); // f = 0.25
        }
        let (lo, hi) = sub.divergence_ci(&global, 0.05).unwrap();
        let d = sub.divergence(&global).unwrap();
        assert!(lo < d && d < hi);
        assert!(lo > 0.0, "clearly positive divergence: CI excludes 0");
        // Wider interval at higher confidence.
        let (lo99, hi99) = sub.divergence_ci(&global, 0.01).unwrap();
        assert!(lo99 < lo && hi99 > hi);
        // Undefined for tiny samples.
        let tiny = StatAccum::from_outcomes(&[Outcome::Bool(true)]);
        assert!(tiny.divergence_ci(&global, 0.05).is_none());
    }

    #[test]
    fn variance_never_negative() {
        // Constant data with large magnitude stresses cancellation.
        let acc = StatAccum::from_outcomes(&[Outcome::Real(1e9); 100]);
        assert!(acc.variance() >= 0.0);
        assert!(acc.variance() < 1e-3);
    }
}
