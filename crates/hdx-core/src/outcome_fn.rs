//! Outcome functions (§III-B): from model predictions to per-instance
//! outcomes.
//!
//! A statistic `f` is defined through an outcome function `o : D → ℝ ∪ {⊥}`;
//! the statistic over a subgroup is the mean of the defined outcomes. For
//! classification statistics, the outcome is boolean:
//!
//! | statistic | `T` | `F` | `⊥` |
//! |---|---|---|---|
//! | FPR | false positive | true negative | actual positives |
//! | FNR | false negative | true positive | actual negatives |
//! | TPR | true positive | false negative | actual negatives |
//! | TNR | true negative | false positive | actual positives |
//! | error rate | misclassified | correct | — |
//! | accuracy | correct | misclassified | — |
//! | positive rate | predicted + | predicted − | — |
//!
//! (The paper's §V-A prose describes FPR as "`F` for true-positives, `⊥` for
//! every negative instance"; that sentence transposes the classes — the FPR
//! denominator is the *actual-negative* instances, as in the DivExplorer
//! reference implementation — so we use the standard definition above.)

use hdx_stats::Outcome;

/// A named outcome function over classification results (or a raw value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeFn {
    /// False-positive rate: `P(pred=1 | true=0)`.
    Fpr,
    /// False-negative rate: `P(pred=0 | true=1)`.
    Fnr,
    /// True-positive rate (recall): `P(pred=1 | true=1)`.
    Tpr,
    /// True-negative rate: `P(pred=0 | true=0)`.
    Tnr,
    /// Error rate: `P(pred ≠ true)`.
    ErrorRate,
    /// Accuracy: `P(pred = true)`.
    Accuracy,
    /// Positive prediction rate: `P(pred=1)` (demographic parity style).
    PositiveRate,
}

impl OutcomeFn {
    /// Computes the outcome of one instance.
    #[inline]
    pub fn outcome(self, y_true: bool, y_pred: bool) -> Outcome {
        match self {
            OutcomeFn::Fpr => match (y_true, y_pred) {
                (false, true) => Outcome::Bool(true),   // FP
                (false, false) => Outcome::Bool(false), // TN
                (true, _) => Outcome::Undefined,
            },
            OutcomeFn::Fnr => match (y_true, y_pred) {
                (true, false) => Outcome::Bool(true), // FN
                (true, true) => Outcome::Bool(false), // TP
                (false, _) => Outcome::Undefined,
            },
            OutcomeFn::Tpr => match (y_true, y_pred) {
                (true, true) => Outcome::Bool(true),
                (true, false) => Outcome::Bool(false),
                (false, _) => Outcome::Undefined,
            },
            OutcomeFn::Tnr => match (y_true, y_pred) {
                (false, false) => Outcome::Bool(true),
                (false, true) => Outcome::Bool(false),
                (true, _) => Outcome::Undefined,
            },
            OutcomeFn::ErrorRate => Outcome::Bool(y_true != y_pred),
            OutcomeFn::Accuracy => Outcome::Bool(y_true == y_pred),
            OutcomeFn::PositiveRate => Outcome::Bool(y_pred),
        }
    }

    /// Computes outcomes for parallel label/prediction slices.
    ///
    /// # Panics
    /// Panics when the slices differ in length.
    pub fn compute(self, y_true: &[bool], y_pred: &[bool]) -> Vec<Outcome> {
        assert_eq!(
            y_true.len(),
            y_pred.len(),
            "labels and predictions must be parallel"
        );
        y_true
            .iter()
            .zip(y_pred)
            .map(|(&t, &p)| self.outcome(t, p))
            .collect()
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            OutcomeFn::Fpr => "FPR",
            OutcomeFn::Fnr => "FNR",
            OutcomeFn::Tpr => "TPR",
            OutcomeFn::Tnr => "TNR",
            OutcomeFn::ErrorRate => "error",
            OutcomeFn::Accuracy => "accuracy",
            OutcomeFn::PositiveRate => "positive-rate",
        }
    }
}

/// Outcomes for ranking tasks (the "rates related to rankings" of §III-B,
/// ref. 24): whether an instance is exposed in the top-`k` of a ranking.
/// `None` ranks (unranked instances) map to `⊥`.
///
/// The mean of these outcomes over a subgroup is its top-`k` exposure rate;
/// its divergence reveals subgroups systematically under- or over-exposed.
///
/// # Panics
/// Panics when `k == 0` or a rank of 0 appears (ranks are 1-based).
pub fn topk_exposure_outcomes(ranks: &[Option<u32>], k: u32) -> Vec<Outcome> {
    assert!(k > 0, "top-k requires k >= 1");
    ranks
        .iter()
        .map(|r| match r {
            #[expect(
                clippy::panic,
                reason = "a rank of 0 is misuse, documented under `# Panics`"
            )]
            Some(0) => panic!("ranks are 1-based"),
            Some(rank) => Outcome::Bool(*rank <= k),
            None => Outcome::Undefined,
        })
        .collect()
}

/// Discounted-exposure outcomes for ranking tasks: each ranked instance
/// contributes `1 / log₂(1 + rank)` (the standard position-bias discount),
/// unranked instances are `⊥`. Divergence of the mean reveals subgroups
/// pushed towards the bottom of rankings.
///
/// # Panics
/// Panics when a rank of 0 appears (ranks are 1-based).
pub fn discounted_exposure_outcomes(ranks: &[Option<u32>]) -> Vec<Outcome> {
    ranks
        .iter()
        .map(|r| match r {
            #[expect(
                clippy::panic,
                reason = "a rank of 0 is misuse, documented under `# Panics`"
            )]
            Some(0) => panic!("ranks are 1-based"),
            Some(rank) => Outcome::Real(1.0 / f64::from(rank + 1).log2()),
            None => Outcome::Undefined,
        })
        .collect()
}

/// Outcomes from a real-valued quantity (e.g. income); `NaN` maps to `⊥`.
pub fn real_outcomes(values: &[f64]) -> Vec<Outcome> {
    values
        .iter()
        .map(|&v| {
            if v.is_nan() {
                Outcome::Undefined
            } else {
                Outcome::Real(v)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_stats::StatAccum;

    /// Confusion-matrix fixture: 2 TP, 3 FP, 4 TN, 1 FN.
    fn fixture() -> (Vec<bool>, Vec<bool>) {
        let mut y_true = Vec::new();
        let mut y_pred = Vec::new();
        for _ in 0..2 {
            y_true.push(true);
            y_pred.push(true);
        }
        for _ in 0..3 {
            y_true.push(false);
            y_pred.push(true);
        }
        for _ in 0..4 {
            y_true.push(false);
            y_pred.push(false);
        }
        y_true.push(true);
        y_pred.push(false);
        (y_true, y_pred)
    }

    fn rate(f: OutcomeFn) -> f64 {
        let (yt, yp) = fixture();
        StatAccum::from_outcomes(&f.compute(&yt, &yp))
            .statistic()
            .unwrap()
    }

    #[test]
    fn rates_match_confusion_matrix() {
        assert!((rate(OutcomeFn::Fpr) - 3.0 / 7.0).abs() < 1e-12);
        assert!((rate(OutcomeFn::Tnr) - 4.0 / 7.0).abs() < 1e-12);
        assert!((rate(OutcomeFn::Fnr) - 1.0 / 3.0).abs() < 1e-12);
        assert!((rate(OutcomeFn::Tpr) - 2.0 / 3.0).abs() < 1e-12);
        assert!((rate(OutcomeFn::ErrorRate) - 4.0 / 10.0).abs() < 1e-12);
        assert!((rate(OutcomeFn::Accuracy) - 6.0 / 10.0).abs() < 1e-12);
        assert!((rate(OutcomeFn::PositiveRate) - 5.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn complementary_pairs() {
        assert!((rate(OutcomeFn::Fpr) + rate(OutcomeFn::Tnr) - 1.0).abs() < 1e-12);
        assert!((rate(OutcomeFn::Fnr) + rate(OutcomeFn::Tpr) - 1.0).abs() < 1e-12);
        assert!((rate(OutcomeFn::ErrorRate) + rate(OutcomeFn::Accuracy) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fpr_undefined_on_positives() {
        assert_eq!(OutcomeFn::Fpr.outcome(true, true), Outcome::Undefined);
        assert_eq!(OutcomeFn::Fpr.outcome(true, false), Outcome::Undefined);
        assert_eq!(OutcomeFn::Fpr.outcome(false, true), Outcome::Bool(true));
        assert_eq!(OutcomeFn::Fpr.outcome(false, false), Outcome::Bool(false));
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn length_mismatch_panics() {
        let _ = OutcomeFn::Fpr.compute(&[true], &[]);
    }

    #[test]
    fn real_outcomes_map_nan() {
        let o = real_outcomes(&[1.5, f64::NAN, -2.0]);
        assert_eq!(o[0], Outcome::Real(1.5));
        assert_eq!(o[1], Outcome::Undefined);
        assert_eq!(o[2], Outcome::Real(-2.0));
    }

    #[test]
    fn topk_exposure() {
        let ranks = [Some(1), Some(3), Some(10), None];
        let o = topk_exposure_outcomes(&ranks, 3);
        assert_eq!(o[0], Outcome::Bool(true));
        assert_eq!(o[1], Outcome::Bool(true));
        assert_eq!(o[2], Outcome::Bool(false));
        assert_eq!(o[3], Outcome::Undefined);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_rank_rejected() {
        let _ = topk_exposure_outcomes(&[Some(0)], 3);
    }

    #[test]
    fn discounted_exposure_decays() {
        let o = discounted_exposure_outcomes(&[Some(1), Some(3), None]);
        // rank 1 → 1/log2(2) = 1; rank 3 → 1/log2(4) = 0.5.
        assert_eq!(o[0], Outcome::Real(1.0));
        assert_eq!(o[1], Outcome::Real(0.5));
        assert_eq!(o[2], Outcome::Undefined);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(OutcomeFn::Fpr.name(), "FPR");
        assert_eq!(OutcomeFn::ErrorRate.name(), "error");
    }
}
