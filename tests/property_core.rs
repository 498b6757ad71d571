//! Property-based tests of the core data structures: bitsets, intervals,
//! accumulators and itemsets.

use h_divexplorer::data::{AttrId, DataFrameBuilder, Value};
use h_divexplorer::discretize::invariants as tree_invariants;
use h_divexplorer::discretize::{GainCriterion, TreeDiscretizer};
use h_divexplorer::items::{Bitset, Interval, Item, ItemCatalog, Itemset};
use h_divexplorer::stats::simd::and_count;
use h_divexplorer::stats::{MeanVar, Outcome, StatAccum};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bitset intersection agrees with set semantics, and all three
    /// intersection APIs agree with each other.
    #[test]
    fn bitset_intersection_semantics(
        len in 1usize..300,
        a_idx in proptest::collection::vec(0usize..300, 0..80),
        b_idx in proptest::collection::vec(0usize..300, 0..80),
    ) {
        let a: Vec<usize> = a_idx.into_iter().filter(|&i| i < len).collect();
        let b: Vec<usize> = b_idx.into_iter().filter(|&i| i < len).collect();
        let ba = Bitset::from_indices(len, a.iter().copied());
        let bb = Bitset::from_indices(len, b.iter().copied());
        let expected: std::collections::BTreeSet<usize> = a
            .iter()
            .filter(|i| b.contains(i))
            .copied()
            .collect();
        let and = ba.and(&bb);
        prop_assert_eq!(and.iter_ones().collect::<Vec<_>>(), expected.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(and_count(ba.words(), bb.words()) as usize, expected.len());
        let mut c = ba.clone();
        c.and_assign(&bb);
        prop_assert_eq!(c, and);
    }

    /// `iter_ones` inverts `from_indices`.
    #[test]
    fn bitset_roundtrip(len in 1usize..300, idx in proptest::collection::vec(0usize..300, 0..100)) {
        let idx: std::collections::BTreeSet<usize> = idx.into_iter().filter(|&i| i < len).collect();
        let b = Bitset::from_indices(len, idx.iter().copied());
        prop_assert_eq!(b.iter_ones().collect::<Vec<_>>(), idx.into_iter().collect::<Vec<_>>());
    }

    /// Splitting an interval partitions it: every point lands on exactly one
    /// side.
    #[test]
    fn interval_split_partitions(
        lo in -100.0f64..100.0,
        width in 0.1f64..100.0,
        t in 0.001f64..0.999,
        probes in proptest::collection::vec(-150.0f64..250.0, 20),
    ) {
        let hi = lo + width;
        let j = Interval::new(lo, hi);
        let split = lo + t * width;
        prop_assume!(split > lo && split < hi);
        let (l, r) = j.split_at(split);
        for p in probes {
            let in_j = j.contains(p);
            let in_l = l.contains(p);
            let in_r = r.contains(p);
            prop_assert_eq!(in_j, in_l || in_r);
            prop_assert!(!(in_l && in_r));
        }
    }

    /// StatAccum merging is associative-equivalent to sequential pushes, and
    /// the boolean statistic equals k⁺/(k⁺+k⁻).
    #[test]
    fn stat_accum_merge_consistency(
        bools in proptest::collection::vec(proptest::option::of(any::<bool>()), 1..100),
        split_at in 0usize..100,
    ) {
        let outcomes: Vec<Outcome> = bools
            .iter()
            .map(|o| o.map_or(Outcome::Undefined, Outcome::Bool))
            .collect();
        let cut = split_at % outcomes.len();
        let whole = StatAccum::from_outcomes(&outcomes);
        let mut left = StatAccum::from_outcomes(&outcomes[..cut]);
        left.merge(&StatAccum::from_outcomes(&outcomes[cut..]));
        prop_assert_eq!(whole, left);

        let k_pos = bools.iter().filter(|o| **o == Some(true)).count() as f64;
        let k_valid = bools.iter().filter(|o| o.is_some()).count() as f64;
        match whole.statistic() {
            Some(s) => prop_assert!((s - k_pos / k_valid).abs() < 1e-12),
            None => prop_assert_eq!(k_valid, 0.0),
        }
    }

    /// MeanVar matches the closed-form mean/variance.
    #[test]
    fn meanvar_matches_closed_form(xs in proptest::collection::vec(-1e3f64..1e3, 2..60)) {
        let acc: MeanVar = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((acc.mean() - mean).abs() < 1e-9 * (1.0 + mean.abs()));
        prop_assert!((acc.variance() - var).abs() < 1e-8 * (1.0 + var));
    }

    /// Itemset construction enforces canonical order and per-attribute
    /// uniqueness for arbitrary item selections.
    #[test]
    fn itemset_invariants(picks in proptest::collection::vec((0u16..5, 0u32..4), 0..10)) {
        let mut catalog = ItemCatalog::new();
        let ids: Vec<_> = picks
            .iter()
            .map(|&(attr, code)| {
                catalog.intern(Item::cat_eq(
                    AttrId(attr),
                    code,
                    &format!("a{attr}"),
                    &format!("v{code}"),
                ))
            })
            .collect();
        match Itemset::new(ids.clone(), &catalog) {
            Some(itemset) => {
                // Sorted, unique, one per attribute.
                let items = itemset.items();
                prop_assert!(items.windows(2).all(|w| w[0] < w[1]));
                let attrs: std::collections::HashSet<_> =
                    items.iter().map(|&i| catalog.attr_of(i)).collect();
                prop_assert_eq!(attrs.len(), items.len());
                // All distinct inputs are members.
                for id in &ids {
                    prop_assert!(itemset.contains(*id));
                }
            }
            None => {
                // Rejection implies two *distinct* items share an attribute.
                let mut dedup = ids.clone();
                dedup.sort();
                dedup.dedup();
                let attrs: Vec<_> = dedup.iter().map(|&i| catalog.attr_of(i)).collect();
                let mut unique = attrs.clone();
                unique.sort();
                unique.dedup();
                prop_assert!(unique.len() < attrs.len());
            }
        }
    }

    /// Every tree the discretizer builds satisfies the structural invariants
    /// checked by `--features debug-invariants`: non-root supports ≥ st,
    /// binary splits only, children partitioning their parent's support —
    /// for both gain criteria, across arbitrary value/outcome columns
    /// (including missing values and undefined outcomes).
    #[test]
    fn discretization_trees_satisfy_invariants(
        cells in proptest::collection::vec(
            (proptest::option::of(-50.0f64..50.0), proptest::option::of(any::<bool>())),
            10..120,
        ),
        min_support in 0.05f64..0.45,
        entropy in any::<bool>(),
    ) {
        let mut b = DataFrameBuilder::new();
        let attr = b.add_continuous("x").expect("fresh builder accepts x");
        let mut outcomes = Vec::with_capacity(cells.len());
        for (value, outcome) in &cells {
            b.push_row(vec![Value::Num(value.unwrap_or(f64::NAN))])
                .expect("row arity matches schema");
            outcomes.push(outcome.map_or(Outcome::Undefined, Outcome::Bool));
        }
        let df = b.finish();
        let criterion = if entropy { GainCriterion::Entropy } else { GainCriterion::Divergence };
        let discretizer = TreeDiscretizer::with_support(min_support, criterion);
        let mut catalog = ItemCatalog::new();
        let (_, tree) = discretizer.discretize_attribute(&df, attr, &outcomes, &mut catalog);
        let verdict = tree_invariants::validate_tree(&tree, min_support);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}
