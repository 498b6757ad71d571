//! MDLP discretization (Fayyad & Irani, IJCAI'93) — the classic supervised
//! baseline the paper's related work discusses (§II, ref. 23): recursive
//! entropy-minimising binary splits with the Minimum Description Length
//! Principle as the stopping criterion.
//!
//! Differences from the paper's tree discretizer: MDLP is driven by the
//! boolean outcome's entropy only (no divergence criterion), stops by MDL
//! instead of a support constraint, and — like all prior discretizers — only
//! its *leaf* intervals are used (no hierarchy). Fig. 7 runs it flat, as a
//! supervised baseline.

use hdx_data::{AttrId, DataFrame};
use hdx_discretize::cuts_to_hierarchy;
use hdx_items::{ItemCatalog, ItemHierarchy};
use hdx_stats::Outcome;

/// Class-count pair over a range: (positives, negatives).
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    pos: f64,
    neg: f64,
}

impl Counts {
    fn total(&self) -> f64 {
        self.pos + self.neg
    }

    /// Number of distinct classes present (0, 1 or 2).
    fn k(&self) -> f64 {
        f64::from(u8::from(self.pos > 0.0)) + f64::from(u8::from(self.neg > 0.0))
    }

    /// Class entropy in bits (MDLP is conventionally stated in log₂).
    fn entropy(&self) -> f64 {
        let n = self.total();
        if hdx_stats::approx::approx_zero(n) {
            return 0.0;
        }
        let mut h = 0.0;
        for c in [self.pos, self.neg] {
            if c > 0.0 {
                let p = c / n;
                h -= p * p.log2();
            }
        }
        h
    }
}

/// Recursively finds MDL-accepted cut points within `sorted[lo..hi]`.
fn mdlp_cuts(values: &[f64], is_pos: &[bool], lo: usize, hi: usize, out: &mut Vec<f64>) {
    let n = hi - lo;
    if n < 2 {
        return;
    }
    // Prefix-free scan for the entropy-minimising boundary.
    let mut total = Counts::default();
    for &pos in &is_pos[lo..hi] {
        if pos {
            total.pos += 1.0;
        } else {
            total.neg += 1.0;
        }
    }
    let mut left = Counts::default();
    let mut best: Option<(f64, usize, Counts, Counts)> = None;
    for i in lo..hi - 1 {
        if is_pos[i] {
            left.pos += 1.0;
        } else {
            left.neg += 1.0;
        }
        if values[i] >= values[i + 1] {
            continue; // not a boundary
        }
        let right = Counts {
            pos: total.pos - left.pos,
            neg: total.neg - left.neg,
        };
        let w_ent =
            (left.total() * left.entropy() + right.total() * right.entropy()) / total.total();
        if best.as_ref().is_none_or(|(b, _, _, _)| w_ent < *b) {
            best = Some((w_ent, i, left, right));
        }
    }
    let Some((w_ent, cut_idx, left, right)) = best else {
        return;
    };

    // MDL acceptance test (Fayyad & Irani, eq. 9):
    //   Gain > log₂(N−1)/N + Δ(A, T; S)/N
    //   Δ = log₂(3^k − 2) − (k·H(S) − k₁·H(S₁) − k₂·H(S₂))
    let n_f = total.total();
    let gain = total.entropy() - w_ent;
    let delta = (3f64.powf(total.k()) - 2.0).log2()
        - (total.k() * total.entropy() - left.k() * left.entropy() - right.k() * right.entropy());
    let threshold = ((n_f - 1.0).log2() + delta) / n_f;
    if gain <= threshold {
        return;
    }
    out.push(values[cut_idx]);
    mdlp_cuts(values, is_pos, lo, cut_idx + 1, out);
    mdlp_cuts(values, is_pos, cut_idx + 1, hi, out);
}

/// MDLP-discretizes a continuous attribute against a boolean outcome,
/// returning a *flat* hierarchy of the accepted intervals (empty when MDL
/// rejects every cut).
///
/// Rows with `⊥` outcomes or null attribute values are ignored; real-valued
/// outcomes are not supported (MDLP needs classes) and count as `⊥`.
///
/// # Panics
/// Panics when `outcomes.len() != df.n_rows()`.
pub fn mdlp_hierarchy(
    df: &DataFrame,
    attr: AttrId,
    outcomes: &[Outcome],
    catalog: &mut ItemCatalog,
) -> ItemHierarchy {
    assert_eq!(outcomes.len(), df.n_rows(), "outcomes not parallel to rows");
    let values = df.continuous(attr).values();
    let mut rows: Vec<usize> = (0..df.n_rows())
        .filter(|&r| !values[r].is_nan() && matches!(outcomes[r], Outcome::Bool(_)))
        .collect();
    rows.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("NaNs filtered"));
    let sorted_vals: Vec<f64> = rows.iter().map(|&r| values[r]).collect();
    let is_pos: Vec<bool> = rows
        .iter()
        .map(|&r| matches!(outcomes[r], Outcome::Bool(true)))
        .collect();
    let mut cuts = Vec::new();
    mdlp_cuts(&sorted_vals, &is_pos, 0, sorted_vals.len(), &mut cuts);
    if cuts.is_empty() {
        return ItemHierarchy::new(attr);
    }
    cuts_to_hierarchy(df, attr, &cuts, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::{DataFrameBuilder, Value};
    use hdx_items::item_matches;

    fn frame_with(
        values: &[f64],
        outcome_of: impl Fn(f64) -> Outcome,
    ) -> (DataFrame, Vec<Outcome>, AttrId) {
        let mut b = DataFrameBuilder::new();
        let x = b.add_continuous("x").unwrap();
        let mut outcomes = Vec::new();
        for &v in values {
            b.push_row(vec![Value::Num(v)]).unwrap();
            outcomes.push(outcome_of(v));
        }
        (b.finish(), outcomes, x)
    }

    #[test]
    fn clean_step_accepted_at_the_boundary() {
        let values: Vec<f64> = (0..200).map(f64::from).collect();
        let (df, outcomes, x) = frame_with(&values, |v| Outcome::Bool(v >= 120.0));
        let mut catalog = ItemCatalog::new();
        let h = mdlp_hierarchy(&df, x, &outcomes, &mut catalog);
        assert_eq!(h.len(), 2, "one cut, two intervals");
        let labels: Vec<&str> = h.items().iter().map(|&i| catalog.label(i)).collect();
        assert!(labels.contains(&"x<=119"), "labels: {labels:?}");
    }

    #[test]
    fn pure_noise_rejected_by_mdl() {
        // Outcome independent of x: MDL must refuse to cut.
        let values: Vec<f64> = (0..300).map(f64::from).collect();
        let (df, outcomes, x) = frame_with(&values, |v| {
            Outcome::Bool((v as u64).wrapping_mul(2654435761) % 97 < 48)
        });
        let mut catalog = ItemCatalog::new();
        let h = mdlp_hierarchy(&df, x, &outcomes, &mut catalog);
        assert!(
            h.len() <= 2,
            "MDL keeps at most a spurious cut on hash noise, got {}",
            h.len()
        );
    }

    #[test]
    fn multi_interval_pattern_found() {
        // Low-high-low outcome: expect cuts near both boundaries.
        let values: Vec<f64> = (0..600).map(f64::from).collect();
        let (df, outcomes, x) = frame_with(&values, |v| Outcome::Bool((200.0..400.0).contains(&v)));
        let mut catalog = ItemCatalog::new();
        let h = mdlp_hierarchy(&df, x, &outcomes, &mut catalog);
        assert_eq!(h.len(), 3, "two cuts, three intervals");
        // Every row matches exactly one interval.
        for row in 0..df.n_rows() {
            let matched = h
                .items()
                .iter()
                .filter(|&&i| item_matches(&df, &catalog, i, row))
                .count();
            assert_eq!(matched, 1);
        }
    }

    #[test]
    fn undefined_and_real_outcomes_ignored() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let (df, mut outcomes, x) = frame_with(&values, |v| Outcome::Bool(v >= 50.0));
        // Corrupt some outcomes; the boundary must still be found.
        outcomes[3] = Outcome::Undefined;
        outcomes[7] = Outcome::Real(5.0);
        let mut catalog = ItemCatalog::new();
        let h = mdlp_hierarchy(&df, x, &outcomes, &mut catalog);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn constant_attribute_yields_empty() {
        let values = vec![4.2; 60];
        let (df, outcomes, x) = frame_with(&values, |_| Outcome::Bool(true));
        let mut catalog = ItemCatalog::new();
        let h = mdlp_hierarchy(&df, x, &outcomes, &mut catalog);
        assert!(h.is_empty());
    }
}
