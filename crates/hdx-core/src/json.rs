//! JSON export of exploration results — reports, discretization trees and
//! hierarchies — for dashboards and downstream tooling.
//!
//! Hand-rolled writer (the reproduction mandate keeps dependencies minimal);
//! emits standards-compliant JSON, escaping strings with the workspace's
//! shared codec ([`hdx_obs::json::escape`]) and writing `null` for undefined
//! statistics.

use std::fmt::Write as _;

use hdx_discretize::DiscretizationTree;
use hdx_items::ItemCatalog;
use hdx_obs::json::escape;

use crate::hdivexplorer::HDivResult;
use crate::report::DivergenceReport;

/// Formats an `f64` as a JSON number (`null` for non-finite values).
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn opt_number(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_string(), number)
}

/// Serialises a [`DivergenceReport`] to a JSON object with a `subgroups`
/// array (label, items, support, statistic, divergence, t) plus the global
/// statistic and row count.
pub fn report_to_json(report: &DivergenceReport, catalog: &ItemCatalog) -> String {
    let mut out = String::from("{");
    let errors: Vec<String> = report
        .errors
        .iter()
        .map(|e| format!("\"{}\"", escape(&e.to_string())))
        .collect();
    let _ = write!(
        out,
        "\"n_rows\":{},\"global_statistic\":{},\"elapsed_seconds\":{},\
         \"termination\":\"{}\",\"partial\":{},\
         \"counters\":{{\"itemsets\":{},\"candidate_bytes\":{},\"tree_nodes\":{}}},\
         \"errors\":[{}],\"subgroups\":[",
        report.n_rows,
        opt_number(report.global_statistic),
        number(report.elapsed.as_secs_f64()),
        report.termination,
        report.is_partial(),
        report.counters.itemsets,
        report.counters.candidate_bytes,
        report.counters.tree_nodes,
        errors.join(","),
    );
    for (i, r) in report.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let items: Vec<String> = r
            .itemset
            .items()
            .iter()
            .map(|&id| format!("\"{}\"", escape(catalog.label(id))))
            .collect();
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"items\":[{}],\"support\":{},\"statistic\":{},\"divergence\":{},\"t\":{},\"p\":{}}}",
            escape(&r.label),
            items.join(","),
            number(r.support),
            opt_number(r.statistic),
            opt_number(r.divergence),
            number(r.t_value),
            number(r.p_value),
        );
    }
    out.push_str("]}");
    out
}

/// Serialises a [`DiscretizationTree`] to nested JSON (`item`, `support`,
/// `statistic`, `divergence`, `children`).
pub fn tree_to_json(tree: &DiscretizationTree, catalog: &ItemCatalog) -> String {
    fn node_json(tree: &DiscretizationTree, idx: usize, catalog: &ItemCatalog) -> String {
        let node = &tree.nodes[idx];
        let label = node
            .item
            .map_or_else(|| "root".to_string(), |i| catalog.label(i).to_string());
        let children: Vec<String> = node
            .children
            .iter()
            .map(|&c| node_json(tree, c, catalog))
            .collect();
        format!(
            "{{\"item\":\"{}\",\"support\":{},\"statistic\":{},\"divergence\":{},\"children\":[{}]}}",
            escape(&label),
            number(node.support),
            opt_number(node.statistic),
            opt_number(node.divergence),
            children.join(","),
        )
    }
    node_json(tree, DiscretizationTree::ROOT, catalog)
}

/// Serialises a full [`HDivResult`]: the report plus every discretization
/// tree, keyed by attribute id.
pub fn result_to_json(result: &HDivResult) -> String {
    let trees: Vec<String> = result
        .trees
        .iter()
        .map(|t| {
            format!(
                "{{\"attr\":{},\"tree\":{}}}",
                t.attr.index(),
                tree_to_json(t, &result.catalog)
            )
        })
        .collect();
    format!(
        "{{\"report\":{},\"discretization_seconds\":{},\
         \"adaptive_retries\":{},\"effective_min_support\":{},\"trees\":[{}]}}",
        report_to_json(&result.report, &result.catalog),
        number(result.discretization_time.as_secs_f64()),
        result.adaptive_retries,
        number(result.effective_min_support),
        trees.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdivexplorer::{HDivExplorer, HDivExplorerConfig};
    use crate::outcome_fn::OutcomeFn;
    use hdx_data::{DataFrameBuilder, Value};

    fn fixture() -> crate::hdivexplorer::HDivResult {
        let mut b = DataFrameBuilder::new();
        b.add_continuous("x").unwrap();
        b.add_categorical("g").unwrap();
        let mut y_true = Vec::new();
        let mut y_pred = Vec::new();
        for i in 0..200 {
            let x = (i % 100) as f64;
            // Level with a quote to exercise escaping.
            let g = if i % 2 == 0 { "a\"quote" } else { "b" };
            b.push_row(vec![Value::Num(x), Value::Cat(g.into())])
                .unwrap();
            y_true.push(true);
            y_pred.push(!(x > 60.0 && i % 4 == 0));
        }
        let df = b.finish();
        let outcomes = OutcomeFn::ErrorRate.compute(&y_true, &y_pred);
        HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.1,
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes)
    }

    #[test]
    fn report_json_is_well_formed() {
        let result = fixture();
        let json = report_to_json(&result.report, &result.catalog);
        hdx_obs::json::parse(&json).expect("valid JSON");
        assert!(json.contains("\"subgroups\":["));
        assert!(json.contains("\"divergence\":"));
        assert!(json.contains("\"termination\":\"complete\""));
        assert!(json.contains("\"partial\":false"));
        assert!(json.contains("\"counters\":{\"itemsets\":"));
        assert!(json.contains("a\\\"quote"), "quotes escaped");
    }

    #[test]
    fn tree_json_nests_children() {
        let result = fixture();
        let json = tree_to_json(&result.trees[0], &result.catalog);
        hdx_obs::json::parse(&json).expect("valid JSON");
        assert!(json.starts_with("{\"item\":\"root\""));
        assert!(json.contains("\"children\":[{"));
    }

    #[test]
    fn full_result_json() {
        let result = fixture();
        let json = result_to_json(&result);
        hdx_obs::json::parse(&json).expect("valid JSON");
        assert!(json.contains("\"report\":{"));
        assert!(json.contains("\"trees\":[{\"attr\":0"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(opt_number(None), "null");
        assert_eq!(opt_number(Some(1.5)), "1.5");
    }
}
