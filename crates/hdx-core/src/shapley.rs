//! Shapley-value attribution of divergence to individual items.
//!
//! H-DivExplorer extends DivExplorer (ref. 5), whose analysis toolkit
//! attributes a subgroup's divergence to the items composing it: the
//! contribution of item `α` in itemset `I` is its Shapley value over the
//! coalition game whose value function is the divergence of each
//! sub-itemset,
//!
//! ```text
//! c_α(I) = Σ_{S ⊆ I∖{α}}  |S|!·(|I|−|S|−1)! / |I|!  ·  (Δ(S ∪ {α}) − Δ(S))
//! ```
//!
//! with `Δ(∅) = 0`. Because support is anti-monotone, every subset of a
//! frequent itemset was mined, so all the required divergences are already
//! in the report — no extra data passes needed.

use std::collections::HashMap;

use hdx_items::{ItemId, Itemset};

use crate::report::DivergenceReport;

/// Divergence lookup over a report's records (`Δ(∅) = 0`; records whose
/// divergence is undefined count as 0).
fn divergence_index(report: &DivergenceReport) -> HashMap<&Itemset, f64> {
    report
        .records
        .iter()
        .map(|r| (&r.itemset, r.divergence.unwrap_or(0.0)))
        .collect()
}

fn factorial(n: usize) -> f64 {
    (1..=n).map(|i| i as f64).product()
}

/// Shapley contributions of each item of `itemset` to its divergence.
///
/// Returns `None` when some subset of `itemset` is missing from the report
/// (i.e. `itemset` was not produced by this exploration).
pub fn item_contributions(
    report: &DivergenceReport,
    itemset: &Itemset,
) -> Option<Vec<(ItemId, f64)>> {
    let index = divergence_index(report);
    let items = itemset.items();
    let k = items.len();
    if k == 0 {
        return Some(Vec::new());
    }
    let lookup = |subset: &Itemset| -> Option<f64> {
        if subset.is_empty() {
            Some(0.0)
        } else {
            index.get(subset).copied()
        }
    };
    let k_fact = factorial(k);

    let mut out = Vec::with_capacity(k);
    for (pos, &alpha) in items.iter().enumerate() {
        let others: Vec<ItemId> = items
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != pos)
            .map(|(_, &id)| id)
            .collect();
        let mut contribution = 0.0;
        // Enumerate S ⊆ others by bitmask (itemsets are short).
        for mask in 0u32..(1 << others.len()) {
            let mut subset: Vec<ItemId> = Vec::with_capacity(others.len() + 1);
            for (bit, &item) in others.iter().enumerate() {
                if mask >> bit & 1 == 1 {
                    subset.push(item);
                }
            }
            let s_len = subset.len();
            let without = Itemset::from_sorted_unchecked({
                let mut v = subset.clone();
                v.sort_unstable();
                v
            });
            let with = Itemset::from_sorted_unchecked({
                let mut v = subset;
                v.push(alpha);
                v.sort_unstable();
                v
            });
            let weight = factorial(s_len) * factorial(k - s_len - 1) / k_fact;
            contribution += weight * (lookup(&with)? - lookup(&without)?);
        }
        out.push((alpha, contribution));
    }
    Some(out)
}

/// The *global* contribution of every item: its mean Shapley contribution
/// across all mined itemsets containing it (DivExplorer's global item
/// ranking). Returns pairs sorted by descending contribution.
pub fn global_item_contributions(report: &DivergenceReport) -> Vec<(ItemId, f64)> {
    let mut sums: HashMap<ItemId, (f64, usize)> = HashMap::new();
    for record in &report.records {
        let Some(contribs) = item_contributions(report, &record.itemset) else {
            continue;
        };
        for (item, c) in contribs {
            let entry = sums.entry(item).or_insert((0.0, 0));
            entry.0 += c;
            entry.1 += 1;
        }
    }
    let mut out: Vec<(ItemId, f64)> = sums
        .into_iter()
        .map(|(item, (sum, n))| (item, sum / n as f64))
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "contributions of finite divergences are finite"
    )]
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite contributions"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SubgroupRecord;
    use hdx_items::Itemset;

    /// Builds a report with prescribed divergences per itemset.
    fn report(entries: &[(&[u32], f64)]) -> DivergenceReport {
        let records = entries
            .iter()
            .map(|(items, div)| {
                let itemset =
                    Itemset::from_sorted_unchecked(items.iter().map(|&i| ItemId(i)).collect());
                SubgroupRecord {
                    label: format!("{items:?}"),
                    itemset,
                    support: 0.5,
                    statistic: Some(*div),
                    divergence: Some(*div),
                    t_value: 1.0,
                    p_value: 0.5,
                    accum: hdx_stats::StatAccum::new(),
                }
            })
            .collect();
        DivergenceReport {
            records,
            global_statistic: Some(0.0),
            n_rows: 100,
            ..DivergenceReport::empty()
        }
    }

    #[test]
    fn efficiency_contributions_sum_to_divergence() {
        let r = report(&[
            (&[0], 0.10),
            (&[1], 0.20),
            (&[2], -0.05),
            (&[0, 1], 0.50),
            (&[0, 2], 0.08),
            (&[1, 2], 0.12),
            (&[0, 1, 2], 0.60),
        ]);
        let target = Itemset::from_sorted_unchecked(vec![ItemId(0), ItemId(1), ItemId(2)]);
        let contribs = item_contributions(&r, &target).unwrap();
        let total: f64 = contribs.iter().map(|(_, c)| c).sum();
        assert!((total - 0.60).abs() < 1e-12, "Shapley efficiency");
        assert_eq!(contribs.len(), 3);
    }

    #[test]
    fn symmetric_items_get_equal_contributions() {
        // Items 0 and 1 are exchangeable in the value function.
        let r = report(&[(&[0], 0.1), (&[1], 0.1), (&[0, 1], 0.4)]);
        let target = Itemset::from_sorted_unchecked(vec![ItemId(0), ItemId(1)]);
        let contribs = item_contributions(&r, &target).unwrap();
        assert!((contribs[0].1 - contribs[1].1).abs() < 1e-12);
        assert!((contribs[0].1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn dummy_item_gets_zero() {
        // Item 2 never changes the divergence.
        let r = report(&[(&[0], 0.3), (&[2], 0.0), (&[0, 2], 0.3)]);
        let target = Itemset::from_sorted_unchecked(vec![ItemId(0), ItemId(2)]);
        let contribs = item_contributions(&r, &target).unwrap();
        let c2 = contribs.iter().find(|(i, _)| *i == ItemId(2)).unwrap().1;
        assert!(c2.abs() < 1e-12);
        let c0 = contribs.iter().find(|(i, _)| *i == ItemId(0)).unwrap().1;
        assert!((c0 - 0.3).abs() < 1e-12);
    }

    #[test]
    fn singleton_contribution_is_its_divergence() {
        let r = report(&[(&[7], 0.25)]);
        let target = Itemset::singleton(ItemId(7));
        let contribs = item_contributions(&r, &target).unwrap();
        assert_eq!(contribs.len(), 1);
        assert!((contribs[0].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn missing_subset_yields_none() {
        // {0,1} present but {1} missing → cannot attribute.
        let r = report(&[(&[0], 0.1), (&[0, 1], 0.4)]);
        let target = Itemset::from_sorted_unchecked(vec![ItemId(0), ItemId(1)]);
        assert!(item_contributions(&r, &target).is_none());
    }

    #[test]
    fn empty_itemset_has_no_contributions() {
        let r = report(&[(&[0], 0.1)]);
        assert_eq!(item_contributions(&r, &Itemset::empty()), Some(Vec::new()));
    }

    #[test]
    fn global_ranking_orders_by_mean_contribution() {
        let r = report(&[(&[0], 0.30), (&[1], 0.05), (&[0, 1], 0.40)]);
        let global = global_item_contributions(&r);
        assert_eq!(global.len(), 2);
        assert_eq!(global[0].0, ItemId(0), "item 0 drives divergence");
        assert!(global[0].1 > global[1].1);
    }
}
