//! Level-wise Apriori (Agrawal–Srikant) with vertical bitset counting and
//! integrated statistic accumulation.
//!
//! Candidate generation follows the classic join-and-prune scheme over the
//! previous level; support counting is a fused multi-way
//! [`Bitset::intersection_count`] over the member items' cover bitsets, so
//! infrequent candidates never materialise anything. Frequent candidates are
//! intersected into a single reusable scratch cover and folded through the
//! word-level [`OutcomePlanes`] kernel. The per-attribute constraint is
//! enforced at join time, which also implements the generalized-itemset rule
//! that an item never joins one of its own ancestors.
//!
//! A differential-test oracle for the production search and the paper's
//! miner ablation: ungoverned and never checkpointed.

use std::collections::HashSet;

use hdx_items::{Bitset, ItemCatalog, ItemId, Itemset};
use hdx_stats::OutcomePlanes;

use crate::result::{FrequentItemset, MiningResult};
use crate::transactions::Transactions;
use crate::vertical::item_covers;
use crate::MiningConfig;

/// Mines all frequent itemsets level by level.
pub fn apriori(
    transactions: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
) -> MiningResult {
    let n = transactions.n_rows();
    let min_count = config.min_count(n);
    let planes = OutcomePlanes::from_outcomes(transactions.outcomes());

    // L1 and the dense ItemId-indexed cover position table.
    let covers: Vec<(ItemId, Bitset)> = item_covers(transactions);
    let table_len = covers.last().map_or(0, |(item, _)| item.index() + 1);
    let mut cover_pos: Vec<u32> = vec![u32::MAX; table_len];
    for (pos, (item, _)) in covers.iter().enumerate() {
        cover_pos[item.index()] = pos as u32;
    }
    let cover_of = |item: ItemId| -> &Bitset { &covers[cover_pos[item.index()] as usize].1 };

    let mut out: Vec<FrequentItemset> = Vec::new();
    let mut level: Vec<Itemset> = Vec::new();
    hdx_obs::counter_add!(MineCandidatesGenerated, covers.len() as u64);
    for (item, cover) in &covers {
        let count = cover.count() as u64;
        if count >= min_count {
            let itemset = Itemset::singleton(*item);
            out.push(FrequentItemset {
                itemset: itemset.clone(),
                accum: planes.accum(cover.words(), count),
            });
            level.push(itemset);
        } else {
            hdx_obs::counter_add!(MineCandidatesPrunedSupport, 1);
        }
    }
    level.sort();
    let mut k = 1;

    // Reusable per-level scratch: the member-cover list and the joint cover
    // of the frequent candidate being emitted.
    let mut member_covers: Vec<&Bitset> = Vec::new();
    let mut joint = Bitset::new(n);
    while !level.is_empty() && config.max_len.is_none_or(|m| k < m) {
        k += 1;
        hdx_obs::span!("level", int k);
        #[cfg(feature = "obs")]
        let level_start_ns = hdx_obs::now_ns();
        let prev: HashSet<&Itemset> = level.iter().collect();
        let mut next: Vec<Itemset> = Vec::new();

        // Join step: pairs sharing the first k-2 items (level is sorted, so
        // equal prefixes are adjacent).
        let mut i = 0;
        while i < level.len() {
            // Find the block sharing level[i]'s (k-2)-prefix.
            let prefix = &level[i].items()[..k - 2];
            let mut j = i;
            while j < level.len() && &level[j].items()[..k - 2] == prefix {
                j += 1;
            }
            for a in i..j {
                for b in (a + 1)..j {
                    let ([.., la], [.., lb]) = (level[a].items(), level[b].items()) else {
                        debug_assert!(false, "level itemsets are non-empty");
                        continue;
                    };
                    let (la, lb) = (*la, *lb);
                    debug_assert!(la < lb, "level sorted lexicographically");
                    if catalog.attr_of(la) == catalog.attr_of(lb) {
                        hdx_obs::counter_add!(MineCandidatesPrunedAttr, 1);
                        continue;
                    }
                    let Some(candidate) = level[a].with_item(lb, catalog) else {
                        debug_assert!(false, "join pair attrs checked disjoint");
                        continue;
                    };
                    hdx_obs::counter_add!(MineCandidatesGenerated, 1);
                    // Prune: every (k-1)-subset must be frequent.
                    if candidate.sub_itemsets().all(|s| prev.contains(&s)) {
                        next.push(candidate);
                    } else {
                        hdx_obs::counter_add!(MineCandidatesPrunedSubset, 1);
                    }
                }
            }
            i = j;
        }

        // Count step: fused multi-way intersection count first; only
        // frequent candidates materialise a joint cover.
        let mut survivors: Vec<Itemset> = Vec::new();
        for candidate in next {
            member_covers.clear();
            member_covers.extend(candidate.items().iter().map(|&item| cover_of(item)));
            let count = Bitset::intersection_count(&member_covers) as u64;
            if count < min_count {
                hdx_obs::counter_add!(MineCandidatesPrunedSupport, 1);
                continue;
            }
            let [first, second, rest @ ..] = member_covers.as_slice() else {
                debug_assert!(false, "candidates have k >= 2 items");
                continue;
            };
            joint.assign_and(first, second);
            for cover in rest {
                joint.and_assign(cover);
            }
            out.push(FrequentItemset {
                itemset: candidate.clone(),
                accum: planes.accum(joint.words(), count),
            });
            survivors.push(candidate);
        }
        survivors.sort();
        level = survivors;
        #[cfg(feature = "obs")]
        hdx_obs::hist_record!(
            MineLevelLatencyNs,
            hdx_obs::now_ns().saturating_sub(level_start_ns)
        );
    }

    MiningResult::complete(out, n, transactions.global_accum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::AttrId;
    use hdx_items::Item;
    use hdx_stats::Outcome;

    fn catalog3() -> (ItemCatalog, Vec<ItemId>) {
        let mut c = ItemCatalog::new();
        let ids = vec![
            c.intern(Item::cat_eq(AttrId(0), 0, "a", "0")),
            c.intern(Item::cat_eq(AttrId(1), 0, "b", "0")),
            c.intern(Item::cat_eq(AttrId(2), 0, "c", "0")),
        ];
        (c, ids)
    }

    #[test]
    fn three_way_itemset_found() {
        let (catalog, ids) = catalog3();
        let rows = vec![
            vec![ids[0], ids[1], ids[2]],
            vec![ids[0], ids[1], ids[2]],
            vec![ids[0], ids[1]],
            vec![ids[2]],
        ];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(true); 4]);
        let r = apriori(
            &t,
            &catalog,
            &MiningConfig {
                min_support: 0.5,
                ..MiningConfig::default()
            },
        );
        // Frequent: a(3), b(3), c(3→ count 3? c appears rows 0,1,3 = 3), ab(3), ac(2), bc(2), abc(2).
        let triple = Itemset::from_sorted_unchecked(ids.clone());
        let fi = r.find(&triple).expect("abc frequent");
        assert_eq!(fi.accum.count(), 2);
        assert_eq!(r.itemsets.len(), 7);
    }

    #[test]
    fn prune_step_requires_all_subsets() {
        let (catalog, ids) = catalog3();
        // ab frequent, ac frequent, bc INfrequent → abc must not be counted.
        let rows = vec![
            vec![ids[0], ids[1]],
            vec![ids[0], ids[1]],
            vec![ids[0], ids[2]],
            vec![ids[0], ids[2]],
            vec![ids[1]],
            vec![ids[2]],
        ];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(false); 6]);
        let r = apriori(
            &t,
            &catalog,
            &MiningConfig {
                min_support: 2.0 / 6.0,
                ..MiningConfig::default()
            },
        );
        assert!(r
            .find(&Itemset::from_sorted_unchecked(ids.clone()))
            .is_none());
        assert!(r
            .find(&Itemset::from_sorted_unchecked(vec![ids[0], ids[1]]))
            .is_some());
    }

    #[test]
    fn accumulators_match_direct_computation() {
        let (catalog, ids) = catalog3();
        let rows = vec![
            vec![ids[0], ids[1]],
            vec![ids[0], ids[1]],
            vec![ids[0]],
            vec![ids[1]],
        ];
        let outcomes = vec![
            Outcome::Real(10.0),
            Outcome::Real(20.0),
            Outcome::Undefined,
            Outcome::Real(40.0),
        ];
        let t = Transactions::from_rows(rows, outcomes);
        let r = apriori(
            &t,
            &catalog,
            &MiningConfig {
                min_support: 0.25,
                ..MiningConfig::default()
            },
        );
        let ab = r
            .find(&Itemset::from_sorted_unchecked(vec![ids[0], ids[1]]))
            .unwrap();
        assert_eq!(ab.accum.count(), 2);
        assert_eq!(ab.accum.statistic(), Some(15.0));
        let a = r.find(&Itemset::singleton(ids[0])).unwrap();
        assert_eq!(a.accum.count(), 3);
        assert_eq!(a.accum.valid_count(), 2);
        assert_eq!(a.accum.statistic(), Some(15.0));
        assert_eq!(r.termination, hdx_governor::Termination::Complete);
    }
}
