//! JSON export of exploration results — reports, discretization trees and
//! hierarchies — for dashboards and downstream tooling.
//!
//! Hand-rolled writer (the reproduction mandate keeps dependencies minimal);
//! emits standards-compliant JSON and writes `null` for undefined
//! statistics. Each document is written into one pre-sized `String`:
//! strings are escaped straight into it by the workspace's shared codec
//! ([`hdx_obs::json::escape_into`]) and numbers are formatted in place.

use std::fmt::Write as _;

use hdx_discretize::DiscretizationTree;
use hdx_items::ItemCatalog;
use hdx_obs::json::escape_into;

use crate::hdivexplorer::HDivResult;
use crate::report::DivergenceReport;

/// Appends `x` as a JSON number (`null` when it is absent or not finite).
fn push_number(out: &mut String, x: Option<f64>) {
    match x {
        Some(x) if x.is_finite() => {
            // Writing to a `String` cannot fail.
            let _ = write!(out, "{x}");
        }
        _ => out.push_str("null"),
    }
}

/// Appends `s` as a JSON string literal.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Bytes a report's JSON is expected to take, erring high so the buffer
/// does not grow: the fixed fields, plus per record its label twice (once
/// whole, once split into items) and up to 176 bytes of keys and numbers.
fn report_capacity(report: &DivergenceReport) -> usize {
    let records: usize = report.records.iter().map(|r| 2 * r.label.len() + 176).sum();
    256 + records
}

/// Bytes a tree node's JSON is expected to take, item label included.
const NODE_CAPACITY: usize = 128;

/// Serialises a [`DivergenceReport`] to a JSON object with a `subgroups`
/// array (label, items, support, statistic, divergence, t) plus the global
/// statistic and row count.
pub fn report_to_json(report: &DivergenceReport, catalog: &ItemCatalog) -> String {
    let mut out = String::with_capacity(report_capacity(report));
    write_report(&mut out, report, catalog);
    out
}

/// Appends the JSON object of `report` to `out`.
fn write_report(out: &mut String, report: &DivergenceReport, catalog: &ItemCatalog) {
    let _ = write!(out, "{{\"n_rows\":{},\"global_statistic\":", report.n_rows);
    push_number(out, report.global_statistic);
    out.push_str(",\"elapsed_seconds\":");
    push_number(out, Some(report.elapsed.as_secs_f64()));
    let counters = &report.counters;
    let _ = write!(
        out,
        ",\"termination\":\"{}\",\"partial\":{},\
         \"counters\":{{\"itemsets\":{},\"candidate_bytes\":{},\"tree_nodes\":{}}},\
         \"errors\":[",
        report.termination,
        report.is_partial(),
        counters.itemsets,
        counters.candidate_bytes,
        counters.tree_nodes,
    );
    for (i, e) in report.errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(out, &e.to_string());
    }
    out.push_str("],\"subgroups\":[");
    for (i, r) in report.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        push_string(out, &r.label);
        out.push_str(",\"items\":[");
        for (k, &id) in r.itemset.items().iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            push_string(out, catalog.label(id));
        }
        out.push_str("],\"support\":");
        push_number(out, Some(r.support));
        out.push_str(",\"statistic\":");
        push_number(out, r.statistic);
        out.push_str(",\"divergence\":");
        push_number(out, r.divergence);
        out.push_str(",\"t\":");
        push_number(out, Some(r.t_value));
        out.push_str(",\"p\":");
        push_number(out, Some(r.p_value));
        out.push('}');
    }
    out.push_str("]}");
}

/// Serialises a [`DiscretizationTree`] to nested JSON (`item`, `support`,
/// `statistic`, `divergence`, `children`).
pub fn tree_to_json(tree: &DiscretizationTree, catalog: &ItemCatalog) -> String {
    let mut out = String::with_capacity(NODE_CAPACITY * tree.nodes.len());
    write_node(&mut out, tree, DiscretizationTree::ROOT, catalog);
    out
}

/// Appends the JSON object of node `idx` of `tree`, with its subtree, to `out`.
fn write_node(out: &mut String, tree: &DiscretizationTree, idx: usize, catalog: &ItemCatalog) {
    let node = &tree.nodes[idx];
    out.push_str("{\"item\":");
    push_string(out, node.item.map_or("root", |item| catalog.label(item)));
    out.push_str(",\"support\":");
    push_number(out, Some(node.support));
    out.push_str(",\"statistic\":");
    push_number(out, node.statistic);
    out.push_str(",\"divergence\":");
    push_number(out, node.divergence);
    out.push_str(",\"children\":[");
    for (k, &child) in node.children.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        write_node(out, tree, child, catalog);
    }
    out.push_str("]}");
}

/// Serialises a full [`HDivResult`]: the report plus every discretization
/// tree, keyed by attribute id.
pub fn result_to_json(result: &HDivResult) -> String {
    let nodes: usize = result.trees.iter().map(|t| t.nodes.len()).sum();
    let mut out = String::with_capacity(report_capacity(&result.report) + NODE_CAPACITY * nodes);
    out.push_str("{\"report\":");
    write_report(&mut out, &result.report, &result.catalog);
    out.push_str(",\"discretization_seconds\":");
    push_number(&mut out, Some(result.discretization_time.as_secs_f64()));
    let _ = write!(out, ",\"adaptive_retries\":{}", result.adaptive_retries);
    out.push_str(",\"effective_min_support\":");
    push_number(&mut out, Some(result.effective_min_support));
    out.push_str(",\"trees\":[");
    for (k, tree) in result.trees.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"attr\":{},\"tree\":", tree.attr.index());
        write_node(&mut out, tree, DiscretizationTree::ROOT, &result.catalog);
        out.push('}');
    }
    out.push_str("]}");
    out
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

    /// A hand-built report with every hazard the writer must handle:
    /// `None` and non-finite statistics, labels needing escapes, a degraded
    /// termination and a worker error. Every field must read back.
    #[test]
    fn every_report_field_reads_back() {
        use crate::report::SubgroupRecord;
        use hdx_data::AttrId;
        use hdx_items::{Item, Itemset};
        use hdx_mining::{MiningError, RunCounters, Termination};
        use hdx_obs::json::{parse, Json};
        use hdx_stats::StatAccum;
        use std::time::Duration;

        let tricky = "q\"uote\nline\u{1}ctl\\é";
        let mut catalog = ItemCatalog::new();
        let a = catalog.intern(Item::cat_eq(AttrId(0), 0, "g", tricky));
        let b = catalog.intern(Item::cat_eq(AttrId(1), 0, "h", "plain"));
        let record = |itemset: Itemset, label: String, numbers: [Option<f64>; 5]| {
            let [support, statistic, divergence, t, p] = numbers;
            SubgroupRecord {
                itemset,
                label,
                support: support.unwrap_or(f64::NAN),
                statistic,
                divergence,
                t_value: t.unwrap_or(f64::NAN),
                p_value: p.unwrap_or(f64::NAN),
                accum: StatAccum::new(),
            }
        };
        let both = Itemset::from_sorted_unchecked(vec![a, b]);
        let report = DivergenceReport {
            records: vec![
                record(
                    both.clone(),
                    both.display(&catalog).to_string(),
                    [Some(0.25), Some(0.5), Some(-0.125), Some(1.5), Some(0.01)],
                ),
                record(
                    Itemset::singleton(b),
                    "{h=plain}".to_string(),
                    [Some(0.75), None, None, None, Some(1.0)],
                ),
                record(
                    Itemset::singleton(a),
                    tricky.to_string(),
                    [
                        Some(1e-7),
                        Some(f64::INFINITY),
                        Some(f64::NEG_INFINITY),
                        Some(f64::INFINITY),
                        Some(0.0),
                    ],
                ),
            ],
            global_statistic: None,
            n_rows: 40,
            elapsed: Duration::from_millis(1500),
            termination: Termination::BudgetExhausted,
            counters: RunCounters {
                itemsets: 3,
                candidate_bytes: 96,
                tree_nodes: 7,
                checks: 11,
            },
            errors: vec![MiningError::WorkerPanicked {
                worker: 1,
                message: "boom \"x\"\n".to_string(),
            }],
            ..DivergenceReport::empty()
        };
        let json = report_to_json(&report, &catalog);
        let doc = parse(&json).expect("valid JSON");

        // A number that is absent or not finite reads back as `null`.
        let number = |v: Option<&Json>| match v {
            Some(Json::Null) => None,
            Some(v) => Some(v.as_f64().expect("a finite number")),
            None => panic!("missing member in {json}"),
        };
        let finite = |x: f64| Some(x).filter(|x| x.is_finite());
        let keys = |v: &Json| -> Vec<String> {
            v.as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(
            keys(&doc),
            [
                "n_rows",
                "global_statistic",
                "elapsed_seconds",
                "termination",
                "partial",
                "counters",
                "errors",
                "subgroups"
            ]
        );
        assert_eq!(doc.get("n_rows").and_then(Json::as_u64), Some(40));
        assert_eq!(number(doc.get("global_statistic")), None);
        assert_eq!(number(doc.get("elapsed_seconds")), Some(1.5));
        assert_eq!(
            doc.get("termination").and_then(Json::as_str),
            Some(Termination::BudgetExhausted.to_string().as_str())
        );
        assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(true));
        let counters = doc.get("counters").expect("counters");
        assert_eq!(
            keys(counters),
            ["itemsets", "candidate_bytes", "tree_nodes"]
        );
        for (key, want) in [("itemsets", 3), ("candidate_bytes", 96), ("tree_nodes", 7)] {
            assert_eq!(
                counters.get(key).and_then(Json::as_u64),
                Some(want),
                "{key}"
            );
        }
        let errors = doc.get("errors").and_then(Json::as_arr).expect("errors");
        assert_eq!(errors, [Json::Str(report.errors[0].to_string())]);

        let subgroups = doc
            .get("subgroups")
            .and_then(Json::as_arr)
            .expect("subgroups");
        assert_eq!(subgroups.len(), report.records.len());
        for (got, want) in subgroups.iter().zip(&report.records) {
            assert_eq!(
                keys(got),
                [
                    "label",
                    "items",
                    "support",
                    "statistic",
                    "divergence",
                    "t",
                    "p"
                ]
            );
            assert_eq!(got.get("label").and_then(Json::as_str), Some(&*want.label));
            let items: Vec<Json> = want
                .itemset
                .items()
                .iter()
                .map(|&id| Json::Str(catalog.label(id).to_string()))
                .collect();
            assert_eq!(got.get("items").and_then(Json::as_arr), Some(&items[..]));
            assert_eq!(number(got.get("support")), finite(want.support));
            assert_eq!(
                number(got.get("statistic")),
                want.statistic.and_then(finite)
            );
            assert_eq!(
                number(got.get("divergence")),
                want.divergence.and_then(finite)
            );
            assert_eq!(number(got.get("t")), finite(want.t_value));
            assert_eq!(number(got.get("p")), finite(want.p_value));
        }
        assert!(json.contains("\\u0001"), "U+0001 is escaped: {json}");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut out = String::new();
        for x in [
            Some(f64::NAN),
            Some(f64::INFINITY),
            None,
            Some(1.5),
            Some(-0.0),
        ] {
            push_number(&mut out, x);
            out.push(' ');
        }
        assert_eq!(out, "null null null 1.5 -0 ");
    }
}
