//! # hdx-model
//!
//! Machine-learning substrate: a CART-style decision tree and a bagged
//! random forest for binary classification.
//!
//! The paper's quantitative experiments (§VI-B, Fig. 2–4) analyse the error
//! rate of "a random forest classifier with default parameters" on each UCI
//! dataset. This crate provides that model so the full pipeline —
//! train → predict → outcome function → subgroup discovery — runs entirely
//! in-repo.
//!
//! Both models consume the [`DataFrame`](hdx_data::DataFrame) directly:
//! continuous attributes split on thresholds (`x ≤ t`), categorical
//! attributes split one-vs-rest on a level (`x = c`). Splits minimise Gini
//! impurity. Nulls always route to the left branch.

mod forest;
mod tree;

pub use forest::{RandomForest, RandomForestConfig};
pub use tree::{DecisionTree, DecisionTreeConfig};

/// Classification quality summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Fraction of correct predictions.
    pub accuracy: f64,
    /// False-positive rate (`FP / (FP + TN)`, 0 when no actual negatives).
    pub fpr: f64,
    /// False-negative rate (`FN / (FN + TP)`, 0 when no actual positives).
    pub fnr: f64,
}

/// Computes [`Metrics`] from parallel label/prediction slices.
///
/// # Panics
/// Panics when the slices differ in length or are empty.
pub fn metrics(y_true: &[bool], y_pred: &[bool]) -> Metrics {
    assert_eq!(y_true.len(), y_pred.len(), "labels/predictions mismatch");
    assert!(!y_true.is_empty(), "empty evaluation set");
    let mut tp = 0u64;
    let mut fp = 0u64;
    let mut tn = 0u64;
    let mut fn_ = 0u64;
    for (&t, &p) in y_true.iter().zip(y_pred) {
        match (t, p) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (false, false) => tn += 1,
            (true, false) => fn_ += 1,
        }
    }
    let total = (tp + fp + tn + fn_) as f64;
    Metrics {
        accuracy: (tp + tn) as f64 / total,
        fpr: if fp + tn > 0 {
            fp as f64 / (fp + tn) as f64
        } else {
            0.0
        },
        fnr: if fn_ + tp > 0 {
            fn_ as f64 / (fn_ + tp) as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_confusion_matrix() {
        let y_true = [true, true, false, false, true];
        let y_pred = [true, false, true, false, true];
        let m = metrics(&y_true, &y_pred);
        assert!((m.accuracy - 0.6).abs() < 1e-12);
        assert!((m.fpr - 0.5).abs() < 1e-12);
        assert!((m.fnr - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_degenerate_classes() {
        let m = metrics(&[true, true], &[true, false]);
        assert_eq!(m.fpr, 0.0, "no actual negatives");
        let m2 = metrics(&[false, false], &[true, false]);
        assert_eq!(m2.fnr, 0.0, "no actual positives");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn metrics_length_checked() {
        let _ = metrics(&[true], &[]);
    }
}
