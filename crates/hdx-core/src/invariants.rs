//! Runtime validator for the polarity-pruning invariant (paper §V-C).
//!
//! Polarity pruning runs one search over positive-divergence items and one
//! over negative-divergence items; the merged result must therefore be
//! *sign-homogeneous*: every mined itemset draws all of its items from a
//! single polarity class (items with zero/undefined single-item divergence
//! belong to both classes and never break homogeneity).
//!
//! Always compiled; under the `debug-invariants` feature,
//! [`mine_with_polarity`](crate::mine_with_polarity) validates every merged
//! result before returning it.

use std::collections::HashSet;

use hdx_items::{ItemId, Itemset};
use hdx_mining::{MiningResult, Transactions};

use crate::polarity::split_by_polarity;

/// A violated polarity invariant: an itemset mixes divergence signs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolarityViolation {
    /// The offending itemset.
    pub itemset: Itemset,
    /// A member whose single-item divergence is strictly positive.
    pub positive_item: ItemId,
    /// A member whose single-item divergence is strictly negative.
    pub negative_item: ItemId,
}

impl std::fmt::Display for PolarityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "polarity-pruned itemset {:?} mixes signs: {:?} diverges positively, {:?} negatively",
            self.itemset, self.positive_item, self.negative_item
        )
    }
}

impl std::error::Error for PolarityViolation {}

/// Validates sign-homogeneity of a polarity-pruned mining result: every
/// itemset is entirely contained in the positive item class or entirely in
/// the negative one (as computed by
/// [`split_by_polarity`] on `transactions`).
pub fn validate_sign_homogeneity(
    result: &MiningResult,
    transactions: &Transactions,
) -> Result<(), PolarityViolation> {
    let (positive, negative) = split_by_polarity(transactions);
    for fi in &result.itemsets {
        let items = fi.itemset.items();
        let all_pos = items.iter().all(|i| positive.contains(i));
        let all_neg = items.iter().all(|i| negative.contains(i));
        if all_pos || all_neg {
            continue;
        }
        // Mixed: exhibit one strictly-positive and one strictly-negative
        // member (strict = member of exactly one class).
        let strict = |i: &ItemId, own: &HashSet<ItemId>, other: &HashSet<ItemId>| {
            own.contains(i) && !other.contains(i)
        };
        let pos_item = items.iter().find(|i| strict(i, &positive, &negative));
        let neg_item = items.iter().find(|i| strict(i, &negative, &positive));
        if let (Some(&p), Some(&n)) = (pos_item, neg_item) {
            return Err(PolarityViolation {
                itemset: fi.itemset.clone(),
                positive_item: p,
                negative_item: n,
            });
        }
    }
    Ok(())
}

/// Panicking form of [`validate_sign_homogeneity`], run by
/// [`mine_with_polarity`](crate::mine_with_polarity) under the
/// `debug-invariants` feature.
#[cfg(feature = "debug-invariants")]
#[expect(
    clippy::panic,
    reason = "an invariant violation is an internal bug: the assert helpers panic by design"
)]
pub(crate) fn assert_sign_homogeneity(result: &MiningResult, transactions: &Transactions) {
    if let Err(v) = validate_sign_homogeneity(result, transactions) {
        // An invariant violation is a search bug, never a user error.
        panic!("hdx invariant violated: {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::AttrId;
    use hdx_items::{Item, ItemCatalog};
    use hdx_mining::FrequentItemset;
    use hdx_stats::{Outcome, StatAccum};

    /// Two attributes: a=hi / b=hi positive, a=lo / b=lo negative.
    fn setup() -> (Transactions, Vec<ItemId>) {
        let mut c = ItemCatalog::new();
        let a_hi = c.intern(Item::cat_eq(AttrId(0), 0, "a", "hi"));
        let a_lo = c.intern(Item::cat_eq(AttrId(0), 1, "a", "lo"));
        let b_hi = c.intern(Item::cat_eq(AttrId(1), 0, "b", "hi"));
        let b_lo = c.intern(Item::cat_eq(AttrId(1), 1, "b", "lo"));
        let mut rows = Vec::new();
        let mut outcomes = Vec::new();
        for i in 0..40 {
            let a = if i % 2 == 0 { a_hi } else { a_lo };
            let b = if i % 4 < 2 { b_hi } else { b_lo };
            rows.push(vec![a, b]);
            outcomes.push(Outcome::Bool(a == a_hi && b == b_hi));
        }
        (
            Transactions::from_rows(rows, outcomes),
            vec![a_hi, a_lo, b_hi, b_lo],
        )
    }

    fn result_with(t: &Transactions, itemsets: Vec<Vec<ItemId>>) -> MiningResult {
        MiningResult::complete(
            itemsets
                .into_iter()
                .map(|items| FrequentItemset {
                    itemset: Itemset::from_sorted_unchecked(items),
                    accum: StatAccum::from_outcomes(&[Outcome::Bool(true)]),
                })
                .collect(),
            t.n_rows(),
            t.global_accum(),
        )
    }

    #[test]
    fn homogeneous_result_passes() {
        let (t, ids) = setup();
        let r = result_with(
            &t,
            vec![
                vec![ids[0]],
                vec![ids[0], ids[2]], // hi+hi: both positive
                vec![ids[1], ids[3]], // lo+lo: both negative
            ],
        );
        assert!(validate_sign_homogeneity(&r, &t).is_ok());
    }

    #[test]
    fn mixed_sign_itemset_rejected() {
        let (t, ids) = setup();
        // a=hi (positive) with b=lo (negative): forbidden by §V-C.
        let r = result_with(&t, vec![vec![ids[0], ids[3]]]);
        let err = validate_sign_homogeneity(&r, &t).unwrap_err();
        assert_eq!(err.positive_item, ids[0]);
        assert_eq!(err.negative_item, ids[3]);
    }
}
