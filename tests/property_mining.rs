//! Property-based tests of the mining substrate: the production search (at
//! every thread count) and the Apriori and FP-Growth oracles agree on
//! arbitrary transaction databases, results match a brute-force oracle, and
//! the classic frequent-itemset invariants hold.

use std::collections::HashMap;

use h_divexplorer::core::invariants::validate_sign_homogeneity;
use h_divexplorer::core::{mine_with_polarity, split_by_polarity};
use h_divexplorer::data::AttrId;
use h_divexplorer::items::invariants as item_invariants;
use h_divexplorer::items::{Interval, Item, ItemCatalog, ItemId, Itemset};
use h_divexplorer::mining::invariants as mining_invariants;
use h_divexplorer::mining::{apriori, fpgrowth, mine, MiningConfig, MiningResult, Transactions};
use h_divexplorer::stats::Outcome;
use proptest::prelude::*;

/// A random transaction database over `n_attrs` attributes with up to
/// `max_levels` items each; generalized-style rows may carry several items
/// of the same attribute.
#[derive(Debug, Clone)]
struct Db {
    catalog: ItemCatalog,
    transactions: Transactions,
}

fn db_strategy() -> impl Strategy<Value = Db> {
    // (n_attrs, levels per attr, rows as (item indices, outcome))
    (2usize..5, 2usize..4, 5usize..60).prop_flat_map(|(n_attrs, n_levels, n_rows)| {
        let n_items = n_attrs * n_levels;
        let row = (
            proptest::collection::vec(0..n_items, 0..=n_items.min(6)),
            prop_oneof![
                Just(Outcome::Undefined),
                any::<bool>().prop_map(Outcome::Bool),
                (-100.0..100.0f64).prop_map(Outcome::Real),
            ],
        );
        proptest::collection::vec(row, n_rows).prop_map(move |rows| {
            let mut catalog = ItemCatalog::new();
            let ids: Vec<ItemId> = (0..n_items)
                .map(|i| {
                    let attr = AttrId((i / n_levels) as u16);
                    catalog.intern(Item::cat_eq(
                        attr,
                        (i % n_levels) as u32,
                        &format!("a{}", i / n_levels),
                        &format!("v{}", i % n_levels),
                    ))
                })
                .collect();
            let (items, outcomes): (Vec<Vec<ItemId>>, Vec<Outcome>) = rows
                .into_iter()
                .map(|(idxs, o)| (idxs.into_iter().map(|i| ids[i]).collect::<Vec<_>>(), o))
                .unzip();
            Db {
                catalog,
                transactions: Transactions::from_rows(items, outcomes),
            }
        })
    })
}

fn normalised(result: &MiningResult) -> Vec<(Itemset, u64, u64, Option<f64>)> {
    let mut v: Vec<(Itemset, u64, u64, Option<f64>)> = result
        .itemsets
        .iter()
        .map(|fi| {
            (
                fi.itemset.clone(),
                fi.accum.count(),
                fi.accum.valid_count(),
                fi.accum.statistic(),
            )
        })
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Every miner's result on `db`: the two oracles, then the search at 1 and
/// 4 threads.
fn all_miners(db: &Db, min_support: f64) -> [MiningResult; 4] {
    let config = MiningConfig {
        min_support,
        ..MiningConfig::default()
    };
    let (t, catalog) = (&db.transactions, &db.catalog);
    [
        apriori(t, catalog, &config),
        fpgrowth(t, catalog, &config),
        mine(t, catalog, &config),
        mine(
            t,
            catalog,
            &MiningConfig {
                threads: 4,
                ..config
            },
        ),
    ]
}

/// Equality up to floating-point summation order (FP-Growth merges node
/// accumulators in a different order than the row-order miners, which can
/// shift the statistic by an ulp).
fn assert_equivalent(
    a: &[(Itemset, u64, u64, Option<f64>)],
    b: &[(Itemset, u64, u64, Option<f64>)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(&x.0, &y.0);
        prop_assert_eq!(x.1, y.1);
        prop_assert_eq!(x.2, y.2);
        match (x.3, y.3) {
            (None, None) => {}
            (Some(p), Some(q)) => {
                prop_assert!((p - q).abs() <= 1e-9 * (1.0 + p.abs()), "{} vs {}", p, q)
            }
            other => prop_assert!(false, "statistic mismatch {:?}", other),
        }
    }
    Ok(())
}

/// Brute-force accumulator recount for one itemset.
fn brute_force(db: &Db, itemset: &Itemset) -> (u64, u64, f64) {
    let t = &db.transactions;
    let mut count = 0u64;
    let mut acc = h_divexplorer::stats::StatAccum::new();
    for row in 0..t.n_rows() {
        let items = t.items(row);
        if itemset.items().iter().all(|i| items.contains(i)) {
            count += 1;
            acc.push(t.outcome(row));
        }
    }
    (
        count,
        acc.valid_count(),
        acc.statistic().unwrap_or(f64::NAN),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Apriori, FP-Growth and the search at 1 and 4 threads return
    /// identical itemsets with identical accumulators.
    #[test]
    fn miners_agree(db in db_strategy(), s in 0.02f64..0.6) {
        let results = all_miners(&db, s);
        let serial = normalised(&results[2]);
        for result in &results {
            assert_equivalent(&normalised(result), &serial)?;
        }
    }

    /// Every mined itemset's count and statistic match a brute-force scan,
    /// and meet the support threshold; no itemset constrains an attribute
    /// twice.
    #[test]
    fn mined_itemsets_are_correct(db in db_strategy(), s in 0.05f64..0.5) {
        let result = mine(
            &db.transactions,
            &db.catalog,
            &MiningConfig { min_support: s, ..MiningConfig::default() },
        );
        let min_count = (s * db.transactions.n_rows() as f64).ceil().max(1.0) as u64;
        for fi in &result.itemsets {
            let (count, valid, stat) = brute_force(&db, &fi.itemset);
            prop_assert_eq!(fi.accum.count(), count);
            prop_assert_eq!(fi.accum.valid_count(), valid);
            if !stat.is_nan() {
                prop_assert!((fi.accum.statistic().unwrap() - stat).abs() < 1e-9);
            }
            prop_assert!(count >= min_count);
            let attrs: Vec<_> = fi.itemset.items().iter().map(|&i| db.catalog.attr_of(i)).collect();
            let mut unique = attrs.clone();
            unique.sort();
            unique.dedup();
            prop_assert_eq!(attrs.len(), unique.len());
        }
    }

    /// Anti-monotonicity: every subset of a frequent itemset is frequent,
    /// with support at least as large.
    #[test]
    fn support_is_anti_monotone(db in db_strategy(), s in 0.05f64..0.5) {
        let result = fpgrowth(
            &db.transactions,
            &db.catalog,
            &MiningConfig { min_support: s, ..MiningConfig::default() },
        );
        let counts: HashMap<&Itemset, u64> = result
            .itemsets
            .iter()
            .map(|fi| (&fi.itemset, fi.accum.count()))
            .collect();
        for fi in &result.itemsets {
            if fi.itemset.len() < 2 {
                continue;
            }
            for sub in fi.itemset.sub_itemsets() {
                let sub_count = counts.get(&sub).copied();
                prop_assert!(sub_count.is_some(), "subset {:?} missing", sub);
                prop_assert!(sub_count.unwrap() >= fi.accum.count());
            }
        }
    }

    /// Completeness at the singleton level: every item with count ≥ ⌈s·n⌉
    /// appears as a frequent singleton.
    #[test]
    fn singletons_complete(db in db_strategy(), s in 0.05f64..0.5) {
        let result = mine(
            &db.transactions,
            &db.catalog,
            &MiningConfig { min_support: s, ..MiningConfig::default() },
        );
        let min_count = (s * db.transactions.n_rows() as f64).ceil().max(1.0) as u64;
        for (item, acc) in db.transactions.item_stats() {
            let singleton = Itemset::singleton(item);
            let mined = result.find(&singleton);
            if acc.count() >= min_count {
                prop_assert!(mined.is_some());
            } else {
                prop_assert!(mined.is_none());
            }
        }
    }

    /// Polarity pruning returns a subset without duplicates, always keeping
    /// the all-same-polarity itemsets (in particular every singleton).
    #[test]
    fn polarity_pruning_is_consistent(db in db_strategy(), s in 0.05f64..0.5) {
        let config = MiningConfig { min_support: s, ..MiningConfig::default() };
        let full = mine(&db.transactions, &db.catalog, &config);
        let pruned = mine_with_polarity(&db.transactions, &db.catalog, &config);
        let full_set: std::collections::HashSet<&Itemset> =
            full.itemsets.iter().map(|fi| &fi.itemset).collect();
        let mut seen = std::collections::HashSet::new();
        for fi in &pruned.itemsets {
            prop_assert!(full_set.contains(&fi.itemset));
            prop_assert!(seen.insert(fi.itemset.clone()), "duplicate {:?}", fi.itemset);
        }
        // Singletons always survive pruning.
        let singles_full = full.itemsets.iter().filter(|fi| fi.itemset.len() == 1).count();
        let singles_pruned = pruned.itemsets.iter().filter(|fi| fi.itemset.len() == 1).count();
        prop_assert_eq!(singles_full, singles_pruned);
        // The polarity split covers every item.
        let (pos, neg) = split_by_polarity(&db.transactions);
        for item in db.transactions.distinct_items() {
            prop_assert!(pos.contains(&item) || neg.contains(&item));
        }
    }

    /// The runtime invariant checker accepts every miner's output: canonical
    /// itemsets, support ≥ ⌈s·n⌉ and anti-monotonicity. These are exactly the
    /// checks `--features debug-invariants` runs inside `mine` itself, so this
    /// doubles as a meta-test of the checker on arbitrary databases.
    #[test]
    fn invariant_checker_accepts_miner_output(db in db_strategy(), s in 0.05f64..0.5) {
        let min_count = MiningConfig { min_support: s, ..MiningConfig::default() }
            .min_count(db.transactions.n_rows());
        for (i, result) in all_miners(&db, s).iter().enumerate() {
            let verdict = mining_invariants::validate_result(result, &db.catalog, min_count);
            prop_assert!(verdict.is_ok(), "miner {}: {}", i, verdict.unwrap_err());
        }
    }

    /// The sign-homogeneity checker accepts every polarity-pruned result
    /// (§V-C): no mined itemset mixes strictly-positive and strictly-negative
    /// items.
    #[test]
    fn invariant_checker_accepts_polarity_output(db in db_strategy(), s in 0.05f64..0.5) {
        let config = MiningConfig {
            min_support: s,
            ..MiningConfig::default()
        };
        let pruned = mine_with_polarity(&db.transactions, &db.catalog, &config);
        let verdict = validate_sign_homogeneity(&pruned, &db.transactions);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

/// Negative tests: the checker must reject hand-built ill-formed itemsets
/// that no miner should ever produce.
mod invariant_rejections {
    use super::*;

    /// An itemset combining an ancestor interval item with its descendant —
    /// two items of the same attribute — violates the one-item-per-attribute
    /// invariant and is rejected with `DuplicateAttribute`.
    #[test]
    fn ancestor_descendant_itemset_rejected() {
        let mut catalog = ItemCatalog::new();
        let attr = AttrId(0);
        let ancestor = catalog.intern(Item::range(attr, Interval::new(0.0, 10.0), "x"));
        let descendant = catalog.intern(Item::range(attr, Interval::new(0.0, 5.0), "x"));
        let mut ids = vec![ancestor, descendant];
        ids.sort();
        // Bypasses `Itemset::new`'s attribute check (ids are sorted, so the
        // canonical-order debug assertion stays quiet).
        let itemset = Itemset::from_sorted_unchecked(ids);
        match item_invariants::validate_itemset(&itemset, &catalog) {
            Err(item_invariants::InvariantViolation::DuplicateAttribute {
                first, second, ..
            }) => {
                let mut reported = [first, second];
                reported.sort();
                let mut expected = [ancestor, descendant];
                expected.sort();
                assert_eq!(reported, expected);
            }
            other => panic!("expected DuplicateAttribute, got {other:?}"),
        }
    }

    /// Out-of-order item ids are rejected with `NotCanonical`.
    #[test]
    fn unsorted_items_rejected() {
        let ids = [ItemId(3), ItemId(1)];
        match item_invariants::validate_canonical_order(&ids) {
            Err(item_invariants::InvariantViolation::NotCanonical { .. }) => {}
            other => panic!("expected NotCanonical, got {other:?}"),
        }
    }
}
