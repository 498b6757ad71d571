//! Oracle and property tests of the vertical transaction encoder: on the
//! paper's datasets (taxonomies attached, with and without injected nulls),
//! `Transactions::encode_base` / `encode_generalized` must produce exactly
//! the item covers and single-item statistics of the row-major encoder they
//! replaced, which this file keeps as the oracle.

use std::collections::HashMap;

use h_divexplorer::core::HDivExplorerConfig;
use h_divexplorer::data::{AttributeKind, DataFrame, NULL_CODE};
use h_divexplorer::datasets::{compas, folktables, inject_nulls, synthetic_peak, Dataset};
use h_divexplorer::items::{item_cover, HierarchySet, ItemCatalog, ItemId, Predicate};
use h_divexplorer::mining::Transactions;
use h_divexplorer::stats::{Outcome, StatAccum};
use hdx_bench::experiments::{outcomes_for, pipeline_for};
use proptest::prelude::*;

/// The row-major encoder: per row, the sorted, deduplicated ids of the
/// items the row satisfies — its matching leaf per attribute and, in
/// generalized mode, that leaf's ancestor chain.
fn oracle_rows(
    df: &DataFrame,
    catalog: &ItemCatalog,
    hierarchies: &HierarchySet,
    generalized: bool,
) -> Vec<Vec<ItemId>> {
    let n = df.n_rows();
    let mut rows: Vec<Vec<ItemId>> = vec![Vec::new(); n];

    for hierarchy in hierarchies.iter() {
        let attr = hierarchy.attr();
        // Chain of items to add per matching leaf.
        let chain: HashMap<ItemId, Vec<ItemId>> = hierarchy
            .leaves()
            .into_iter()
            .map(|leaf| {
                let items = if generalized {
                    hierarchy.self_and_ancestors(leaf)
                } else {
                    vec![leaf]
                };
                (leaf, items)
            })
            .collect();

        match df.schema().kind(attr) {
            AttributeKind::Categorical => {
                // code → leaf lookup.
                let mut by_code: HashMap<u32, ItemId> = HashMap::new();
                for leaf in hierarchy.leaves() {
                    if let Predicate::CatEq(code) = catalog.item(leaf).predicate() {
                        by_code.insert(*code, leaf);
                    }
                }
                let codes = df.categorical(attr).codes();
                for (row, &code) in codes.iter().enumerate() {
                    if code == NULL_CODE {
                        continue;
                    }
                    if let Some(leaf) = by_code.get(&code) {
                        rows[row].extend_from_slice(&chain[leaf]);
                    }
                }
            }
            AttributeKind::Continuous => {
                // Leaves are disjoint (lo, hi] intervals; sort by hi and
                // binary-search each value.
                let mut leaves: Vec<(f64, f64, ItemId)> = hierarchy
                    .leaves()
                    .into_iter()
                    .filter_map(|leaf| catalog.item(leaf).interval().map(|j| (j.lo, j.hi, leaf)))
                    .collect();
                leaves.sort_by(|a, b| a.1.total_cmp(&b.1));
                let values = df.continuous(attr).values();
                for (row, &v) in values.iter().enumerate() {
                    if v.is_nan() {
                        continue;
                    }
                    // First leaf with hi >= v.
                    let pos = leaves.partition_point(|&(_, hi, _)| hi < v);
                    if let Some(&(lo, hi, leaf)) = leaves.get(pos) {
                        if v > lo && v <= hi {
                            rows[row].extend_from_slice(&chain[&leaf]);
                        }
                    }
                }
            }
        }
    }
    for items in &mut rows {
        items.sort_unstable();
        items.dedup();
    }
    rows
}

/// The oracle's single-item statistics: every row's outcome pushed into
/// each of its items' accumulators, walking rows in order.
fn oracle_item_stats(rows: &[Vec<ItemId>], outcomes: &[Outcome]) -> Vec<(ItemId, StatAccum)> {
    let mut accums: HashMap<ItemId, StatAccum> = HashMap::new();
    for (items, &outcome) in rows.iter().zip(outcomes) {
        for &item in items {
            accums.entry(item).or_default().push(outcome);
        }
    }
    let mut stats: Vec<(ItemId, StatAccum)> = accums.into_iter().collect();
    stats.sort_by_key(|&(item, _)| item);
    stats
}

/// What a fit encodes: a frame (a dataset's generated attributes or a
/// null-injected copy), its outcomes, and the discretization the pipeline
/// builds over them.
struct FitInput {
    frame: DataFrame,
    outcomes: Vec<Outcome>,
    catalog: ItemCatalog,
    hierarchies: HierarchySet,
}

fn discretized(dataset: &Dataset, frame: DataFrame) -> FitInput {
    let outcomes = outcomes_for(dataset);
    let (catalog, hierarchies, _) =
        pipeline_for(dataset, HDivExplorerConfig::default()).discretize(&frame, &outcomes);
    FitInput {
        frame,
        outcomes,
        catalog,
        hierarchies,
    }
}

/// Raw accumulator sums as bits, so `-0.0`/`0.0` and NaN payloads count.
fn bits(accum: &StatAccum) -> (u64, u64, u64, u64) {
    let (n, n_valid, sum, sum_sq) = accum.raw_parts();
    (n, n_valid, sum.to_bits(), sum_sq.to_bits())
}

/// Checks both encodings of `input` against the row-major oracle and
/// against each item's cover recomputed from its predicate. Returns the
/// number of covers of the base and the generalized encoding.
fn check_against_oracle(input: &FitInput, label: &str) -> [usize; 2] {
    let FitInput {
        frame,
        outcomes,
        catalog,
        hierarchies,
    } = input;
    [false, true].map(|generalized| {
        let what = format!("{label} generalized={generalized}");
        let encoded = if generalized {
            Transactions::encode_generalized(frame, catalog, hierarchies, outcomes)
        } else {
            Transactions::encode_base(frame, catalog, hierarchies, outcomes)
        };
        let rows = oracle_rows(frame, catalog, hierarchies, generalized);
        let oracle = Transactions::from_rows(rows.clone(), outcomes.clone());

        assert_eq!(encoded.n_rows(), frame.n_rows(), "{what}");
        assert_eq!(encoded.outcomes(), outcomes.as_slice(), "{what}");
        assert!(!encoded.covers().is_empty(), "{what}: nothing encoded");
        assert_eq!(
            encoded.covers().len(),
            oracle.covers().len(),
            "{what}: item count"
        );
        for ((item, cover), (oracle_item, oracle_cover)) in
            encoded.covers().iter().zip(oracle.covers())
        {
            assert_eq!(item, oracle_item, "{what}");
            assert_eq!(
                cover,
                oracle_cover,
                "{what}: cover of {}",
                catalog.label(*item)
            );
            assert_eq!(
                *cover,
                item_cover(frame, catalog, *item),
                "{what}: predicate cover of {}",
                catalog.label(*item)
            );
        }
        assert_eq!(encoded.rows(), rows, "{what}: row view");

        let stats = encoded.item_stats();
        let oracle_stats = oracle_item_stats(&rows, outcomes);
        assert_eq!(stats.len(), oracle_stats.len(), "{what}");
        for ((item, accum), (oracle_item, oracle_accum)) in stats.iter().zip(&oracle_stats) {
            assert_eq!(item, oracle_item, "{what}");
            assert_eq!(
                bits(accum),
                bits(oracle_accum),
                "{what}: item_stats of {}",
                catalog.label(*item)
            );
        }
        encoded.covers().len()
    })
}

/// Reduced-size compas, folktables (OCCP/POBP taxonomies attached, a
/// real-valued target) and synthetic-peak.
fn datasets(rows: usize, seed: u64) -> Vec<Dataset> {
    vec![
        compas(rows, seed),
        folktables(rows, seed),
        synthetic_peak(rows, seed),
    ]
}

#[test]
fn encoder_matches_row_major_oracle_on_paper_datasets() {
    for dataset in datasets(3_000, 17) {
        if dataset.name == "folktables" {
            assert_eq!(dataset.taxonomies.len(), 2, "OCCP and POBP attached");
        }
        let holey = inject_nulls(&dataset.frame, 0.1, 5).expect("valid null rate");
        for (frame, nulls) in [(dataset.frame.clone(), false), (holey, true)] {
            let input = discretized(&dataset, frame);
            let [base, generalized] =
                check_against_oracle(&input, &format!("{} nulls={nulls}", dataset.name));
            // The trees (and folktables' taxonomies) have inner items, so
            // the generalized encoding exercises the ancestor unions.
            assert!(
                generalized > base,
                "{}: {generalized} vs {base}",
                dataset.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The encoder agrees with the oracle on every generator, whatever the
    /// seed, the size and the null rate.
    #[test]
    fn encoder_matches_oracle_on_random_draws(
        seed in 0u64..10_000,
        rows in 200usize..1_200,
        null_rate in prop_oneof![Just(0.0), 0.0f64..0.5],
    ) {
        for dataset in datasets(rows, seed) {
            let frame = inject_nulls(&dataset.frame, null_rate, seed).expect("valid null rate");
            let input = discretized(&dataset, frame);
            check_against_oracle(&input, &format!("{} seed={seed} rows={rows}", dataset.name));
        }
    }
}
