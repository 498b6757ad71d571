//! Integration tests asserting the paper's headline experimental claims on
//! scaled-down data, via the same runners the experiment binaries use.

use hdx_bench::experiments::{fig1, fig3, fig5, fig6, fig7, fig8, table1, table3, table4};
use hdx_bench::Args;

fn args(scale: f64) -> Args {
    Args { scale, seed: 2 }
}

/// Fig. 1: the `#prior` tree isolates the high-prior defendants in a
/// shallow, unbounded-above node with the paper's Δ ≈ +0.3, and its
/// low-prior side diverges below the dataset (paper: `#prior > 8`, Δ +0.30,
/// under a first split whose `≤ 3` side has Δ −0.03).
#[test]
fn fig1_prior_tree() {
    for seed in [2, 1, 42] {
        let (tree, catalog) = fig1::tree(Args { seed, ..args(1.0) });
        let top = tree.nodes[1..]
            .iter()
            .max_by(|a, b| a.divergence.unwrap().total_cmp(&b.divergence.unwrap()))
            .expect("the root splits");
        let delta = top.divergence.unwrap();
        let seen = format!(
            "seed {seed}: {} at depth {}, support {}, Δ {delta}",
            catalog.label(top.item.unwrap()),
            top.depth,
            top.support
        );
        assert_eq!(top.interval.hi, f64::INFINITY, "{seen}");
        assert!(top.depth <= 2, "{seen}");
        assert!(top.support >= 0.1, "{seen}");
        assert!((0.2..=0.4).contains(&delta), "{seen}");

        let low = &tree.nodes[tree.nodes[0].children[0]];
        assert_eq!(low.interval.lo, f64::NEG_INFINITY);
        assert!(low.divergence.unwrap() < 0.0, "seed {seed}: {low:?}");
    }
}

/// Table I: the FPR divergence ladder of the compas subgroups.
#[test]
fn table1_fpr_ladder() {
    let rows = table1::rows(args(0.5));
    assert_eq!(rows.len(), 5);
    let by_name = |name: &str| {
        rows.iter()
            .find(|r| r.subgroup == name)
            .unwrap_or_else(|| panic!("missing row {name}"))
    };
    let overall = by_name("Entire dataset");
    assert!(
        (overall.fpr - 0.088).abs() < 0.04,
        "FPR(D) = {}",
        overall.fpr
    );
    assert_eq!(overall.delta_fpr, 0.0);
    // The ladder: #prior>8 ≫ #prior>3 > overall; intersection strongest.
    let gt3 = by_name("#prior>3");
    let gt8 = by_name("#prior>8");
    let young = by_name("age<27");
    let both = by_name("age<27, #prior>3");
    assert!(gt3.delta_fpr > 0.05);
    assert!(gt8.delta_fpr > gt3.delta_fpr + 0.1);
    assert!(young.delta_fpr > 0.02);
    assert!(both.delta_fpr > gt3.delta_fpr);
    // Supports in the paper's ballpark.
    assert!((gt3.support - 0.29).abs() < 0.08);
    assert!((gt8.support - 0.11).abs() < 0.05);
    assert!((young.support - 0.31).abs() < 0.08);
}

/// Table III: manual ≤ tree-base ≤ tree-generalized at every support.
///
/// Uses the paper's full compas size (6,172 rows — still fast): on smaller
/// subsamples the manual-vs-tree comparison gets noisy, exactly because the
/// divergence-driven tree adapts to the sample.
#[test]
fn table3_discretization_ordering() {
    let rows = table3::rows(args(1.0));
    for s in [0.05, 0.025, 0.01] {
        let find = |setting: &str| {
            rows.iter()
                .find(|r| r.s == s && r.setting == setting)
                .unwrap()
                .stats
                .max_divergence
        };
        let manual = find("Manual discretization");
        let base = find("Tree discretization, base");
        let gen = find("Tree discretization, generalized");
        assert!(
            gen >= base - 1e-12,
            "s={s}: generalized {gen} < base {base}"
        );
        assert!(
            gen > manual,
            "s={s}: generalized {gen} should beat manual {manual}"
        );
    }
    // Divergence grows as support shrinks (smaller, more extreme subgroups).
    let gen_at = |s: f64| {
        rows.iter()
            .find(|r| r.s == s && r.setting == "Tree discretization, generalized")
            .unwrap()
            .stats
            .max_divergence
    };
    assert!(gen_at(0.01) > gen_at(0.05));
}

/// Table IV: generalized beats base on the income task at every support.
#[test]
fn table4_income_ordering() {
    let rows = table4::rows(args(0.1));
    for s in [0.05, 0.025, 0.01] {
        let find = |t: &str| {
            rows.iter()
                .find(|r| r.s == s && r.itemset_type == t)
                .unwrap()
                .stats
                .max_divergence
        };
        assert!(find("generalized") >= find("base") - 1e-9, "s={s}");
        assert!(find("base") > 10_000.0, "income divergence is in dollars");
    }
}

/// Fig. 3b: the divergence and entropy split criteria have "similar
/// effectiveness". Over the 28 (dataset, support) pairs, the median gap
/// between their max divergences, |a − b| / ((a + b) / 2), is under 10%,
/// and neither criterion dominates: each is strictly higher on at least 5
/// pairs. Single pairs can differ widely (compas at s = 0.15), so no bound
/// holds pair by pair.
#[test]
fn fig3b_criteria_similar() {
    let points = fig3::criterion_points(args(0.1));
    assert_eq!(points.len(), 28);
    let mut gaps: Vec<f64> = points
        .iter()
        .map(|p| {
            let (a, b) = (p.divergence_criterion, p.entropy_criterion);
            (a - b).abs() / ((a + b) / 2.0)
        })
        .collect();
    gaps.sort_by(f64::total_cmp);
    let median = (gaps[13] + gaps[14]) / 2.0;
    assert!(median < 0.10, "median gap {median}: {points:?}");
    let higher = |first: bool| {
        points
            .iter()
            .filter(|p| (p.divergence_criterion > p.entropy_criterion) == first)
            .filter(|p| p.divergence_criterion != p.entropy_criterion)
            .count()
    };
    assert!(higher(true) >= 5, "divergence higher on {}", higher(true));
    assert!(higher(false) >= 5, "entropy higher on {}", higher(false));
}

/// Fig. 5: at s=0.05, base constrains fewer attributes than generalized and
/// is far less divergent; the generalized ranges bracket the anomaly centre.
#[test]
fn fig5_peak_ranges() {
    let best = fig5::best_itemsets(args(0.5));
    let find = |s: f64, mode: &str| best.iter().find(|b| b.s == s && b.mode == mode).unwrap();
    let base = find(0.05, "base");
    let gen = find(0.05, "generalized");
    let n_constrained = |b: &fig5::BestItemset| b.ranges.iter().flatten().count();
    assert!(n_constrained(base) < n_constrained(gen));
    assert!(gen.divergence > 2.0 * base.divergence);
    // Each generalized range contains the anomaly coordinate.
    for (range, centre) in gen.ranges.iter().zip([0.0, 1.0, 2.0]) {
        if let Some(j) = range {
            assert!(j.contains(centre), "{j} should contain {centre}");
        }
    }
    // Support threshold honoured.
    assert!(gen.support >= 0.05 - 1e-9);
}

/// Fig. 6 / §VI-G: Slice Finder's default search stops shallow; with
/// threshold 1 it returns a slice with tiny support. SliceLine matches base
/// DivExplorer.
#[test]
fn fig6_baseline_behaviour() {
    let r = fig6::results(args(0.5));
    let sf_default = r.sf_default.expect("default search finds a slice");
    let sf_t1 = r.sf_threshold_1.expect("threshold-1 search finds a slice");
    assert!(sf_default.itemset.len() <= 2, "stops shallow");
    assert_eq!(sf_t1.itemset.len(), 3, "forced to the intersection");
    let sup_t1 = sf_t1.size as f64 / r.n_rows as f64;
    assert!(
        sup_t1 < 0.01,
        "no support control: sup = {sup_t1} (paper: 0.0013)"
    );
    // SliceLine's best slice label appears among base DivExplorer's top
    // itemsets at one of the supports.
    assert!(!r.sliceline.is_empty());
    let (_, _, sl_best) = &r.sliceline[0];
    let (_, dx_label, _) = &r.divexplorer_base[0];
    assert_eq!(&sl_best.label, dx_label);
}

/// Fig. 7: tree-hierarchical dominates the best quantile discretization.
#[test]
fn fig7_quantile_dominated() {
    for p in fig7::points(args(0.5)) {
        assert!(
            p.tree_div >= p.quantile_div - 1e-9,
            "s={}: tree {} < quantile {}",
            p.s,
            p.tree_div,
            p.quantile_div
        );
    }
}

/// Fig. 8: generalized exploration is stable in st and always ≥ base.
#[test]
fn fig8_stability() {
    let pts = fig8::points(args(0.5));
    for p in &pts {
        assert!(
            p.gen_div >= p.base_div - 1e-9,
            "{} st={}: gen {} < base {}",
            p.dataset,
            p.st,
            p.gen_div,
            p.base_div
        );
    }
    // Stability: over the paper's st ∈ [0.025, 0.15] range the generalized
    // max divergence varies far less than the base one (relative spread).
    for name in ["synthetic-peak", "compas"] {
        let series: Vec<&fig8::Point> = pts
            .iter()
            .filter(|p| p.dataset == name && (0.025..=0.15).contains(&p.st))
            .collect();
        let spread = |f: &dyn Fn(&fig8::Point) -> f64| {
            let lo = series.iter().map(|p| f(p)).fold(f64::INFINITY, f64::min);
            let hi = series
                .iter()
                .map(|p| f(p))
                .fold(f64::NEG_INFINITY, f64::max);
            (hi - lo) / hi.max(1e-9)
        };
        let gen_spread = spread(&|p| p.gen_div);
        let base_spread = spread(&|p| p.base_div);
        assert!(
            gen_spread <= base_spread + 1e-9,
            "{name}: gen spread {gen_spread} vs base spread {base_spread}"
        );
    }
}
