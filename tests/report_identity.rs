//! The report path against the one it replaced, kept here verbatim as the
//! oracle: `DivergenceReport::from_mining` with one-record Welch p-values
//! from the scalar Student-t code, labels from `Itemset::display` and a
//! sort of whole records; and the JSON writer with every number formatted
//! by `write!` and every item label escaped where it occurs.
//!
//! Both paths run on the same mining results, and their JSON must agree
//! byte for byte: on the 8 compas datasets the `fit-compas` benchmark
//! fits for its seed 1 (generator seeds 8–15, fpr, s = 0.05), folktables
//! (numeric target), synthetic-peak (error rate), compas with 20% nulls,
//! base mode, polarity pruning and a run capped by itemset count. The
//! discretization trees' JSON is checked the same way.

use std::fmt::Write as _;
use std::time::Duration;

use h_divexplorer::core::obs::json::escape_into;
use h_divexplorer::core::{
    mine_with_polarity_governed, real_outcomes, report_to_json, tree_to_json, DivergenceReport,
    Governor, HDivExplorer, HDivExplorerConfig, OutcomeFn, RunBudget, SubgroupRecord,
};
use h_divexplorer::data::DataFrame;
use h_divexplorer::datasets::{compas, folktables, inject_nulls, synthetic_peak, Dataset};
use h_divexplorer::discretize::DiscretizationTree;
use h_divexplorer::items::ItemCatalog;
use h_divexplorer::mining::{mine_governed, MiningConfig, MiningResult, Transactions};
use h_divexplorer::stats::approx::{approx_eq, approx_zero};
use h_divexplorer::stats::{Outcome, StatAccum};

// ---- The scalar Student-t code the lockstep kernel replaced, verbatim ----

/// Natural log of the gamma function (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = 0.999_999_999_999_809_9;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` via the continued
/// fraction (Numerical Recipes' `betacf`), valid for `x ∈ [0, 1]`,
/// `a, b > 0`.
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!((0.0..=1.0).contains(&x), "x must be in [0, 1]");
    assert!(a > 0.0 && b > 0.0, "shape parameters must be positive");
    if approx_zero(x) {
        return 0.0;
    }
    if approx_eq(x, 1.0) {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-16;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m_f = m as f64;
        let m2 = 2.0 * m_f;
        // Even step.
        let aa = m_f * (b - m_f) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m_f) * (qab + m_f) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of Student's t distribution with `df` degrees of freedom.
fn t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    if t.is_nan() {
        return f64::NAN;
    }
    let x = df / (df + t * t);
    let p = 0.5 * beta_inc(df / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided p-value of a t statistic with `df` degrees of freedom.
fn t_p_value(t: f64, df: f64) -> f64 {
    if t.is_nan() {
        return 1.0;
    }
    (2.0 * (1.0 - t_cdf(t.abs(), df))).clamp(0.0, 1.0)
}

/// Welch–Satterthwaite effective degrees of freedom.
fn welch_df(v1: f64, n1: u64, v2: f64, n2: u64) -> Option<f64> {
    if n1 < 2 || n2 < 2 {
        return None;
    }
    let a = v1 / n1 as f64;
    let b = v2 / n2 as f64;
    let denom = a * a / (n1 - 1) as f64 + b * b / (n2 - 1) as f64;
    if denom <= 0.0 {
        return None;
    }
    Some((a + b).powi(2) / denom)
}

/// `StatAccum::p_value` over the scalar code.
fn p_value(accum: &StatAccum, global: &StatAccum) -> f64 {
    let t = accum.t_value(global);
    if approx_zero(t) {
        return 1.0;
    }
    welch_df(
        accum.variance(),
        accum.valid_count(),
        global.variance(),
        global.valid_count(),
    )
    .map(|df| t_p_value(t, df))
    .unwrap_or(1.0)
}

// ---- The report path it replaced, verbatim ----

/// `DivergenceReport::from_mining` as it was.
fn oracle_from_mining(
    result: &MiningResult,
    catalog: &ItemCatalog,
    elapsed: Duration,
) -> DivergenceReport {
    let mut records: Vec<SubgroupRecord> = result
        .itemsets
        .iter()
        .map(|fi| SubgroupRecord {
            label: fi.itemset.display(catalog).to_string(),
            itemset: fi.itemset.clone(),
            support: result.support(fi),
            statistic: fi.accum.statistic(),
            divergence: result.divergence(fi),
            t_value: result.t_value(fi),
            p_value: p_value(&fi.accum, &result.global),
            accum: fi.accum,
        })
        .collect();
    records.sort_by(|a, b| {
        match (b.divergence, a.divergence) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (None, None) => std::cmp::Ordering::Equal,
        }
        .then_with(|| a.label.cmp(&b.label))
    });
    DivergenceReport {
        records,
        global_statistic: result.global.statistic(),
        n_rows: result.n_rows,
        elapsed,
        global_accum: result.global,
        termination: result.termination,
        counters: result.counters,
        errors: result.errors.clone(),
    }
}

/// Appends `x` as a JSON number (`null` when it is absent or not finite).
fn push_number(out: &mut String, x: Option<f64>) {
    match x {
        Some(x) if x.is_finite() => {
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

/// `report_to_json` as it was.
fn oracle_report_json(report: &DivergenceReport, catalog: &ItemCatalog) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"n_rows\":{},\"global_statistic\":", report.n_rows);
    push_number(&mut out, report.global_statistic);
    out.push_str(",\"elapsed_seconds\":");
    push_number(&mut out, Some(report.elapsed.as_secs_f64()));
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
        push_string(&mut out, &e.to_string());
    }
    out.push_str("],\"subgroups\":[");
    for (i, r) in report.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        push_string(&mut out, &r.label);
        out.push_str(",\"items\":[");
        for (k, &id) in r.itemset.items().iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            push_string(&mut out, catalog.label(id));
        }
        out.push_str("],\"support\":");
        push_number(&mut out, Some(r.support));
        out.push_str(",\"statistic\":");
        push_number(&mut out, r.statistic);
        out.push_str(",\"divergence\":");
        push_number(&mut out, r.divergence);
        out.push_str(",\"t\":");
        push_number(&mut out, Some(r.t_value));
        out.push_str(",\"p\":");
        push_number(&mut out, Some(r.p_value));
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// `tree_to_json`'s node writer as it was.
fn oracle_node_json(
    out: &mut String,
    tree: &DiscretizationTree,
    idx: usize,
    catalog: &ItemCatalog,
) {
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
        oracle_node_json(out, tree, child, catalog);
    }
    out.push_str("]}");
}

// ---- The cases ----

/// One mining run's inputs and settings.
struct Case {
    name: String,
    frame: DataFrame,
    outcomes: Vec<Outcome>,
    generalized: bool,
    polarity: bool,
    budget: RunBudget,
}

impl Case {
    fn new(name: impl Into<String>, frame: DataFrame, outcomes: Vec<Outcome>) -> Self {
        Self {
            name: name.into(),
            frame,
            outcomes,
            generalized: true,
            polarity: false,
            budget: RunBudget::unbounded(),
        }
    }

    fn fpr(name: impl Into<String>, dataset: &Dataset) -> Self {
        let outcomes = OutcomeFn::Fpr.compute(
            dataset.y_true.as_ref().expect("labels"),
            dataset.y_pred.as_ref().expect("predictions"),
        );
        Self::new(name, dataset.frame.clone(), outcomes)
    }

    /// Discretizes, encodes and mines the way a fit does, at s = 0.05.
    fn mine(&self) -> (MiningResult, ItemCatalog, Vec<DiscretizationTree>) {
        let explorer = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.05,
            ..HDivExplorerConfig::default()
        });
        let (catalog, hierarchies, trees) =
            explorer.discretize_governed(&self.frame, &self.outcomes, &Governor::unbounded());
        let encode = if self.generalized {
            Transactions::encode_generalized
        } else {
            Transactions::encode_base
        };
        let transactions = encode(&self.frame, &catalog, &hierarchies, &self.outcomes);
        let mining = MiningConfig {
            min_support: 0.05,
            ..MiningConfig::default()
        };
        let governor = Governor::new(self.budget);
        let mined = if self.polarity {
            mine_with_polarity_governed(&transactions, &catalog, &mining, &governor)
        } else {
            mine_governed(&transactions, &catalog, &mining, &governor)
        };
        (mined, catalog, trees)
    }

    /// Both paths, byte for byte, on this case's mining result.
    fn check(&self) {
        let (mined, catalog, trees) = self.mine();
        assert!(!mined.itemsets.is_empty(), "{}: nothing mined", self.name);
        let elapsed = Duration::from_nanos(1_234_567_891);
        let report = DivergenceReport::from_mining(&mined, &catalog, elapsed);
        let oracle = oracle_from_mining(&mined, &catalog, elapsed);
        let (got, want) = (
            report_to_json(&report, &catalog),
            oracle_report_json(&oracle, &catalog),
        );
        if got != want {
            let at = got
                .bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want.len()));
            let from = at.saturating_sub(80);
            panic!(
                "{}: the JSON differs at byte {at}:\n  got  …{}\n  want …{}",
                self.name,
                &got[from..(at + 80).min(got.len())],
                &want[from..(at + 80).min(want.len())],
            );
        }
        for tree in &trees {
            let mut want = String::new();
            oracle_node_json(&mut want, tree, DiscretizationTree::ROOT, &catalog);
            assert_eq!(tree_to_json(tree, &catalog), want, "{}: tree", self.name);
        }
    }
}

#[test]
fn bench_compas_datasets_write_the_same_bytes() {
    // `fit-compas` at bench seed 1: generator seeds 8–15.
    for seed in 8..16 {
        Case::fpr(format!("compas seed {seed}"), &compas(6_172, seed)).check();
    }
}

#[test]
fn folktables_target_writes_the_same_bytes() {
    let dataset = folktables(8_000, 1);
    let outcomes = real_outcomes(dataset.target.as_ref().expect("a target"));
    Case::new("folktables target", dataset.frame.clone(), outcomes).check();
}

#[test]
fn synthetic_peak_error_writes_the_same_bytes() {
    let dataset = synthetic_peak(5_000, 1);
    let outcomes = OutcomeFn::ErrorRate.compute(
        dataset.y_true.as_ref().expect("labels"),
        dataset.y_pred.as_ref().expect("predictions"),
    );
    Case::new("synthetic-peak error", dataset.frame.clone(), outcomes).check();
}

#[test]
fn compas_with_nulls_writes_the_same_bytes() {
    let dataset = compas(6_172, 8);
    let mut case = Case::fpr("compas 20% nulls", &dataset);
    case.frame = inject_nulls(&dataset.frame, 0.2, 3).expect("a valid rate");
    case.check();
}

#[test]
fn base_mode_polarity_and_capped_runs_write_the_same_bytes() {
    let dataset = compas(6_172, 9);
    let mut base = Case::fpr("compas base mode", &dataset);
    base.generalized = false;
    base.check();
    let mut polarity = Case::fpr("compas polarity pruning", &dataset);
    polarity.polarity = true;
    polarity.check();
    let mut capped = Case::fpr("compas capped at 300 itemsets", &dataset);
    capped.budget = RunBudget {
        max_itemsets: Some(300),
        ..RunBudget::unbounded()
    };
    let (mined, _, _) = capped.mine();
    assert!(mined.termination.is_partial(), "the cap trips");
    capped.check();
}
