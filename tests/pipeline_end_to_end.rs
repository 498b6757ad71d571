//! End-to-end integration tests of the full H-DivExplorer pipeline across
//! datasets, checking the structural guarantees the paper states.

use std::time::Duration;

use h_divexplorer::core::{
    report_to_json, ExplorationMode, HDivExplorer, HDivExplorerConfig, HDivResult,
};
use h_divexplorer::datasets::{classification_suite, folktables};
use h_divexplorer::items::item_cover;
use h_divexplorer::mining::{mine, MiningConfig, MiningResult, Transactions};
use hdx_bench::experiments::{outcomes_for, pipeline_for, run_exploration};
use hdx_bench::{apriori, fpgrowth};

const SCALE: f64 = 0.04;

/// §V-B: "hierarchical exploration is guaranteed to find itemsets that are
/// at least as divergent as those found by non-hierarchical exploration."
#[test]
fn hierarchical_dominates_base_on_every_dataset() {
    for dataset in classification_suite(SCALE, 11) {
        for s in [0.05, 0.1] {
            let config = HDivExplorerConfig {
                min_support: s,
                ..HDivExplorerConfig::default()
            };
            let (_, base) = run_exploration(&dataset, config, ExplorationMode::Base);
            let (_, hier) = run_exploration(&dataset, config, ExplorationMode::Generalized);
            assert!(
                hier.max_divergence >= base.max_divergence - 1e-12,
                "{} s={s}: hier {} < base {}",
                dataset.name,
                hier.max_divergence,
                base.max_divergence
            );
        }
    }
}

/// Every mined subgroup respects the support threshold, and supports are
/// exact (re-counted from item covers).
#[test]
fn supports_are_exact_and_above_threshold() {
    let dataset = &classification_suite(SCALE, 3)[2]; // compas
    let s = 0.05;
    let (result, _) = run_exploration(
        dataset,
        HDivExplorerConfig {
            min_support: s,
            ..HDivExplorerConfig::default()
        },
        ExplorationMode::Generalized,
    );
    let n = dataset.frame.n_rows();
    for record in &result.report.records {
        assert!(record.support >= s - 1e-12, "{}", record.label);
        // Recount the support from scratch.
        let mut cover = h_divexplorer::items::Bitset::all_set(n);
        for &item in record.itemset.items() {
            cover.and_assign(&item_cover(&dataset.frame, &result.catalog, item));
        }
        let expected = cover.count() as f64 / n as f64;
        assert!(
            (record.support - expected).abs() < 1e-12,
            "{}: mined support {} vs recount {expected}",
            record.label,
            record.support
        );
    }
}

/// Discretization hierarchies satisfy Definition 4.1's partition property on
/// every dataset.
#[test]
fn hierarchies_partition_on_all_datasets() {
    for dataset in classification_suite(SCALE, 5) {
        let outcomes = outcomes_for(&dataset);
        let pipeline = pipeline_for(&dataset, HDivExplorerConfig::default());
        let (catalog, hierarchies, _) = pipeline.discretize(&dataset.frame, &outcomes);
        let check = hierarchies
            .validate_partition(&catalog, |item| item_cover(&dataset.frame, &catalog, item));
        assert_eq!(check, Ok(()), "{}", dataset.name);
    }
}

/// Through the whole pipeline, the worker-thread count changes nothing —
/// the JSON report is byte-identical at 1, 2 and 4 threads — and the
/// Apriori and FP-Growth oracles mine exactly what the search mines on the
/// transactions the pipeline encodes.
#[test]
fn miners_agree_through_pipeline() {
    let suite = classification_suite(SCALE, 7);
    for dataset in [&suite[2], &suite[5]] {
        // compas, synthetic-peak
        let outcomes = outcomes_for(dataset);
        let fit = |threads| {
            HDivExplorer::new(HDivExplorerConfig {
                min_support: 0.05,
                threads,
                ..HDivExplorerConfig::default()
            })
            .fit(&dataset.frame, &outcomes)
        };
        let json = |result: &HDivResult| {
            let mut report = result.report.clone();
            report.elapsed = Duration::ZERO;
            report_to_json(&report, &result.catalog)
        };
        let result = fit(1);
        let serial = json(&result);
        for threads in [2, 4] {
            assert_eq!(
                json(&fit(threads)),
                serial,
                "{} threads={threads}",
                dataset.name
            );
        }

        let transactions = Transactions::encode_generalized(
            &dataset.frame,
            &result.catalog,
            &result.hierarchies,
            &outcomes,
        );
        let config = MiningConfig {
            min_support: 0.05,
            ..MiningConfig::default()
        };
        let sorted = |r: MiningResult| {
            let mut v: Vec<_> = r
                .itemsets
                .into_iter()
                .map(|fi| (fi.itemset, fi.accum))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let reference = sorted(mine(&transactions, &result.catalog, &config));
        assert_eq!(
            reference.len(),
            result.report.records.len(),
            "{}",
            dataset.name
        );
        for (name, oracle) in [
            ("apriori", apriori(&transactions, &result.catalog, &config)),
            (
                "fpgrowth",
                fpgrowth(&transactions, &result.catalog, &config),
            ),
        ] {
            assert!(sorted(oracle) == reference, "{}: {name}", dataset.name);
        }
    }
}

/// Polarity pruning returns a subset of the complete search and preserves
/// the extreme divergences on every dataset (§V-C).
#[test]
fn polarity_pruning_preserves_extremes() {
    for dataset in classification_suite(SCALE, 13) {
        let mk = |polarity_pruning| HDivExplorerConfig {
            min_support: 0.05,
            polarity_pruning,
            ..HDivExplorerConfig::default()
        };
        let (full, fs) = run_exploration(&dataset, mk(false), ExplorationMode::Generalized);
        let (pruned, ps) = run_exploration(&dataset, mk(true), ExplorationMode::Generalized);
        assert!(ps.n_subgroups <= fs.n_subgroups, "{}", dataset.name);
        // Pruned ⊆ full.
        let full_set: std::collections::HashSet<&str> = full
            .report
            .records
            .iter()
            .map(|r| r.label.as_str())
            .collect();
        for r in &pruned.report.records {
            assert!(full_set.contains(r.label.as_str()), "{}", r.label);
        }
        // Extremes preserved exactly or within a whisker (the paper observes
        // slight differences in a handful of cases; on these small samples
        // we allow 15% slack).
        assert!(
            ps.max_divergence >= fs.max_divergence * 0.85,
            "{}: pruned {} vs full {}",
            dataset.name,
            ps.max_divergence,
            fs.max_divergence
        );
    }
}

/// Shapley attribution over mined results satisfies efficiency (the
/// contributions of an itemset's items sum to its divergence) on every
/// record of a real exploration.
#[test]
fn shapley_efficiency_holds_end_to_end() {
    use h_divexplorer::core::item_contributions;
    let dataset = &classification_suite(SCALE, 17)[2]; // compas
    let (result, _) = run_exploration(
        dataset,
        HDivExplorerConfig {
            min_support: 0.1,
            ..HDivExplorerConfig::default()
        },
        ExplorationMode::Generalized,
    );
    let mut checked = 0;
    for record in &result.report.records {
        let Some(div) = record.divergence else {
            continue;
        };
        let Some(contribs) = item_contributions(&result.report, &record.itemset) else {
            continue;
        };
        let total: f64 = contribs.iter().map(|(_, c)| c).sum();
        assert!(
            (total - div).abs() < 1e-9,
            "{}: Σ contributions {total} vs Δ {div}",
            record.label
        );
        checked += 1;
    }
    assert!(checked > 10, "attribution exercised on real records");
}

/// The redundancy filter removes duplicated-attribute patterns but keeps
/// the top divergence reachable.
#[test]
fn redundancy_filter_preserves_top_divergence() {
    let dataset = &classification_suite(SCALE, 19)[5]; // synthetic-peak
    let (result, _) = run_exploration(
        dataset,
        HDivExplorerConfig {
            min_support: 0.05,
            ..HDivExplorerConfig::default()
        },
        ExplorationMode::Generalized,
    );
    let filtered = result.report.non_redundant(1e-6);
    assert!(!filtered.is_empty());
    assert!(filtered.len() <= result.report.records.len());
    let best_filtered = filtered
        .iter()
        .filter_map(|r| r.divergence)
        .fold(f64::NEG_INFINITY, f64::max);
    // The maximal subgroup is never redundant (nothing explains it).
    assert_eq!(Some(best_filtered), result.report.max_divergence());
}

/// The pipeline is robust to missing values: null cells join no subgroup,
/// supports stay exact, and the anomaly is still found.
#[test]
fn pipeline_handles_missing_values() {
    use h_divexplorer::datasets::{inject_nulls, synthetic_peak};
    let clean = synthetic_peak(2_500, 31);
    let holey = inject_nulls(&clean.frame, 0.15, 5).expect("valid rate");
    let outcomes = hdx_bench::experiments::outcomes_for(&clean);
    let result = HDivExplorer::new(HDivExplorerConfig {
        min_support: 0.05,
        ..HDivExplorerConfig::default()
    })
    .fit(&holey, &outcomes);
    // Supports are exact against re-counted covers over the holey frame.
    for record in result.report.records.iter().take(50) {
        let mut cover = h_divexplorer::items::Bitset::all_set(holey.n_rows());
        for &item in record.itemset.items() {
            cover.and_assign(&item_cover(&holey, &result.catalog, item));
        }
        let expected = cover.count() as f64 / holey.n_rows() as f64;
        assert!(
            (record.support - expected).abs() < 1e-12,
            "{}",
            record.label
        );
    }
    // The peak anomaly survives 15% missingness.
    assert!(
        result.report.max_divergence().unwrap() > 0.05,
        "maxΔ = {:?}",
        result.report.max_divergence()
    );
}

/// Lazy confidence intervals bracket every record's divergence; strongly
/// significant records exclude zero.
#[test]
fn confidence_intervals_bracket_divergence() {
    let dataset = &classification_suite(SCALE, 23)[2]; // compas
    let (result, _) = run_exploration(
        dataset,
        HDivExplorerConfig {
            min_support: 0.1,
            ..HDivExplorerConfig::default()
        },
        ExplorationMode::Generalized,
    );
    let mut excluded_zero = 0;
    for record in &result.report.records {
        let Some(d) = record.divergence else { continue };
        let Some((lo, hi)) = result.report.divergence_ci(record, 0.05) else {
            continue;
        };
        assert!(lo <= d && d <= hi, "{}: [{lo}, {hi}] ∌ {d}", record.label);
        if record.p_value < 0.001 {
            // Highly significant at p < 0.001 ⇒ the 95% CI excludes zero.
            assert!(lo > 0.0 || hi < 0.0, "{}", record.label);
            excluded_zero += 1;
        }
    }
    assert!(
        excluded_zero > 0,
        "some strongly significant subgroups exist"
    );
}

/// The real-valued (income) pipeline works end to end with taxonomies and
/// reports generalized items.
#[test]
fn folktables_pipeline_uses_generalized_items() {
    let dataset = folktables(8_000, 21);
    let outcomes = dataset.target_outcomes();
    let mut pipeline = HDivExplorer::new(HDivExplorerConfig {
        min_support: 0.05,
        max_len: Some(4),
        ..HDivExplorerConfig::default()
    });
    for (attr, tax) in &dataset.taxonomies {
        pipeline = pipeline.with_taxonomy(attr.clone(), tax.clone());
    }
    let result = pipeline.fit(&dataset.frame, &outcomes);
    // At least one record must use a non-leaf item.
    let uses_generalized = result.report.records.iter().any(|r| {
        r.itemset.items().iter().any(|&item| {
            result
                .hierarchies
                .get(result.catalog.attr_of(item))
                .is_some_and(|h| !h.is_leaf(item))
        })
    });
    assert!(uses_generalized);
    // The top subgroup earns meaningfully more than average.
    let top = result.report.top().unwrap();
    assert!(top.divergence.unwrap() > 20_000.0);
    assert!(top.t_value > 5.0);
}
