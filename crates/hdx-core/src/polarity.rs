//! Polarity pruning (§V-C).
//!
//! When hunting for high-|divergence| itemsets, the heuristic only combines
//! items whose *single-item* divergence has the same sign: a positive-polarity
//! search over items with `Δ ≥ 0` and a negative-polarity search over items
//! with `Δ ≤ 0`, merged. With `n` attributes whose items split roughly evenly
//! by sign, this prunes the lattice by a factor around `2^(n−1)`.

use std::collections::HashSet;

use hdx_items::{ItemCatalog, ItemId, Itemset};
use hdx_mining::{mine_governed, Governor, MiningConfig, MiningResult, Transactions};

#[cfg(test)]
use hdx_mining::mine;

/// Splits the items of `transactions` by the sign of their single-item
/// divergence. Items with zero or undefined divergence land in *both* sets
/// (they constrain neither polarity).
pub fn split_by_polarity(transactions: &Transactions) -> (HashSet<ItemId>, HashSet<ItemId>) {
    let global = transactions.global_accum();
    let mut positive = HashSet::new();
    let mut negative = HashSet::new();
    for (item, accum) in transactions.item_stats() {
        match accum.divergence(&global) {
            Some(d) if d > 0.0 => {
                positive.insert(item);
            }
            Some(d) if d < 0.0 => {
                negative.insert(item);
            }
            _ => {
                positive.insert(item);
                negative.insert(item);
            }
        }
    }
    (positive, negative)
}

/// Mines with polarity pruning: one run per polarity, merged and
/// deduplicated.
pub fn mine_with_polarity(
    transactions: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
) -> MiningResult {
    mine_with_polarity_governed(transactions, catalog, config, &Governor::unbounded())
}

/// [`mine_with_polarity`] under a [`Governor`]. Both polarity runs share the
/// governor (and therefore the budget/deadline); errors from both runs are
/// merged and the shared termination is reported once.
pub fn mine_with_polarity_governed(
    transactions: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
    governor: &Governor,
) -> MiningResult {
    let (positive, negative) = split_by_polarity(transactions);
    #[cfg(feature = "obs")]
    {
        let n_items = transactions.covers().len() as u64;
        hdx_obs::counter_add!(
            PolarityItemsPruned,
            n_items.saturating_sub(positive.len() as u64)
                + n_items.saturating_sub(negative.len() as u64)
        );
    }
    let pos_result = {
        hdx_obs::span!("polarity", str "+");
        mine_governed(&transactions.restrict(&positive), catalog, config, governor)
    };
    let neg_result = {
        hdx_obs::span!("polarity", str "-");
        mine_governed(&transactions.restrict(&negative), catalog, config, governor)
    };

    let mut seen: HashSet<Itemset> = HashSet::new();
    let mut itemsets = Vec::with_capacity(pos_result.itemsets.len());
    let mut errors = pos_result.errors;
    errors.extend(neg_result.errors);
    for fi in pos_result.itemsets.into_iter().chain(neg_result.itemsets) {
        if seen.insert(fi.itemset.clone()) {
            itemsets.push(fi);
        } else {
            hdx_obs::counter_add!(PolarityItemsetsDeduped, 1);
        }
    }
    let mut result =
        MiningResult::complete(itemsets, transactions.n_rows(), transactions.global_accum())
            .governed_by(governor);
    result.errors = errors;
    #[cfg(feature = "debug-invariants")]
    if result.termination.is_complete() && result.errors.is_empty() {
        crate::invariants::assert_sign_homogeneity(&result, transactions);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::AttrId;
    use hdx_items::Item;
    use hdx_stats::Outcome;

    /// Two attributes, each with a positive-divergence and a
    /// negative-divergence item.
    fn setup() -> (Transactions, ItemCatalog, Vec<ItemId>) {
        let mut c = ItemCatalog::new();
        let a_hi = c.intern(Item::cat_eq(AttrId(0), 0, "a", "hi"));
        let a_lo = c.intern(Item::cat_eq(AttrId(0), 1, "a", "lo"));
        let b_hi = c.intern(Item::cat_eq(AttrId(1), 0, "b", "hi"));
        let b_lo = c.intern(Item::cat_eq(AttrId(1), 1, "b", "lo"));
        let mut rows = Vec::new();
        let mut outcomes = Vec::new();
        for i in 0..100 {
            let a = if i % 2 == 0 { a_hi } else { a_lo };
            let b = if i % 4 < 2 { b_hi } else { b_lo };
            rows.push(vec![a, b]);
            // Outcome true mostly when both "hi".
            let p_true = (a == a_hi) && (b == b_hi) && i % 8 < 7;
            outcomes.push(Outcome::Bool(p_true));
        }
        (
            Transactions::from_rows(rows, outcomes),
            c,
            vec![a_hi, a_lo, b_hi, b_lo],
        )
    }

    #[test]
    fn split_assigns_signs() {
        let (t, _, ids) = setup();
        let (pos, neg) = split_by_polarity(&t);
        assert!(pos.contains(&ids[0]), "a=hi is positive");
        assert!(pos.contains(&ids[2]), "b=hi is positive");
        assert!(neg.contains(&ids[1]), "a=lo is negative");
        assert!(neg.contains(&ids[3]), "b=lo is negative");
        assert!(!pos.contains(&ids[1]));
        assert!(!neg.contains(&ids[0]));
    }

    #[test]
    fn pruned_search_keeps_max_divergence() {
        let (t, catalog, _) = setup();
        let config = MiningConfig {
            min_support: 0.05,
            ..MiningConfig::default()
        };
        let full = mine(&t, &catalog, &config);
        let pruned = mine_with_polarity(&t, &catalog, &config);
        // The extreme subgroups combine same-polarity items, so the pruned
        // search finds the same maxima.
        assert_eq!(full.max_divergence(), pruned.max_divergence());
        assert_eq!(full.max_abs_divergence(), pruned.max_abs_divergence());
        // But it explores fewer itemsets (mixed-polarity pairs dropped).
        assert!(pruned.itemsets.len() < full.itemsets.len());
    }

    #[test]
    fn pruned_results_are_subset_without_duplicates() {
        let (t, catalog, _) = setup();
        let config = MiningConfig {
            min_support: 0.05,
            ..MiningConfig::default()
        };
        let full = mine(&t, &catalog, &config);
        let pruned = mine_with_polarity(&t, &catalog, &config);
        let full_set: HashSet<_> = full.itemsets.iter().map(|fi| fi.itemset.clone()).collect();
        let mut seen = HashSet::new();
        for fi in &pruned.itemsets {
            assert!(full_set.contains(&fi.itemset), "pruned ⊆ full");
            assert!(seen.insert(fi.itemset.clone()), "no duplicates");
        }
    }

    #[test]
    fn zero_divergence_items_in_both_polarities() {
        let mut c = ItemCatalog::new();
        let x = c.intern(Item::cat_eq(AttrId(0), 0, "x", "v"));
        // Item covers all rows → divergence exactly 0.
        let rows = vec![vec![x]; 10];
        let outcomes: Vec<Outcome> = (0..10).map(|i| Outcome::Bool(i % 2 == 0)).collect();
        let t = Transactions::from_rows(rows, outcomes);
        let (pos, neg) = split_by_polarity(&t);
        assert!(pos.contains(&x) && neg.contains(&x));
        // Pruned mining still returns it exactly once.
        let pruned = mine_with_polarity(
            &t,
            &c,
            &MiningConfig {
                min_support: 0.5,
                ..MiningConfig::default()
            },
        );
        assert_eq!(pruned.itemsets.len(), 1);
    }
}
