//! Flat (non-hierarchical) discretization baselines.
//!
//! These produce a single level of interval items per attribute, as the
//! fixed discretizations of prior work do: manual cut points (§VI-B),
//! equal-frequency quantiles (§VI-D), or equal-width bins.

use hdx_data::{AttrId, DataFrame};
use hdx_items::{Interval, Item, ItemCatalog, ItemHierarchy};
use hdx_stats::quantiles;

/// Builds a flat hierarchy whose items are the intervals delimited by
/// `cuts`: `(−∞, c₁], (c₁, c₂], …, (c_k, +∞]`.
///
/// Cut points are sorted and deduplicated; non-finite cuts are rejected.
///
/// # Panics
/// Panics if any cut is not finite.
pub fn cuts_to_hierarchy(
    df: &DataFrame,
    attr: AttrId,
    cuts: &[f64],
    catalog: &mut ItemCatalog,
) -> ItemHierarchy {
    assert!(
        cuts.iter().all(|c| c.is_finite()),
        "cut points must be finite"
    );
    let mut cuts: Vec<f64> = cuts.to_vec();
    #[expect(clippy::expect_used, reason = "cuts are asserted finite above")]
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite cuts"));
    cuts.dedup();
    let attr_name = df.schema().name(attr).to_string();
    let mut hierarchy = ItemHierarchy::new(attr);
    if cuts.is_empty() {
        return hierarchy;
    }
    let mut lo = f64::NEG_INFINITY;
    for &c in &cuts {
        let item = catalog.intern(Item::range(attr, Interval::new(lo, c), &attr_name));
        hierarchy.add_root(item);
        lo = c;
    }
    let last = catalog.intern(Item::range(attr, Interval::greater_than(lo), &attr_name));
    hierarchy.add_root(last);
    hierarchy
}

/// Manual discretization: user-provided cut points (the paper's "Manual"
/// baseline, §VI-B).
pub fn manual_hierarchy(
    df: &DataFrame,
    attr: AttrId,
    cuts: &[f64],
    catalog: &mut ItemCatalog,
) -> ItemHierarchy {
    cuts_to_hierarchy(df, attr, cuts, catalog)
}

/// Equal-frequency (quantile) discretization into `k` bins (§VI-D).
///
/// Ties can collapse bins, so the result may have fewer than `k` items.
pub fn quantile_hierarchy(
    df: &DataFrame,
    attr: AttrId,
    k: usize,
    catalog: &mut ItemCatalog,
) -> ItemHierarchy {
    let values = df.continuous(attr).values();
    let cuts = quantiles(values, k);
    cuts_to_hierarchy(df, attr, &cuts, catalog)
}

/// Equal-width discretization into `k` bins over the attribute's observed
/// range.
pub fn uniform_hierarchy(
    df: &DataFrame,
    attr: AttrId,
    k: usize,
    catalog: &mut ItemCatalog,
) -> ItemHierarchy {
    let Some((lo, hi)) = df.continuous(attr).min_max() else {
        return ItemHierarchy::new(attr);
    };
    if k < 2 || lo == hi {
        return ItemHierarchy::new(attr);
    }
    let width = (hi - lo) / k as f64;
    let cuts: Vec<f64> = (1..k).map(|i| lo + width * i as f64).collect();
    cuts_to_hierarchy(df, attr, &cuts, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::{DataFrameBuilder, Value};
    use hdx_items::item_matches;

    fn frame(values: &[f64]) -> (DataFrame, AttrId) {
        let mut b = DataFrameBuilder::new();
        let x = b.add_continuous("x").unwrap();
        for &v in values {
            b.push_row(vec![Value::Num(v)]).unwrap();
        }
        (b.finish(), x)
    }

    #[test]
    fn cuts_produce_partition() {
        let vals: Vec<f64> = (0..100).map(f64::from).collect();
        let (df, x) = frame(&vals);
        let mut catalog = ItemCatalog::new();
        let h = cuts_to_hierarchy(&df, x, &[25.0, 50.0, 75.0], &mut catalog);
        assert_eq!(h.len(), 4);
        assert_eq!(h.leaves().len(), 4);
        for row in 0..df.n_rows() {
            let n = h
                .items()
                .iter()
                .filter(|&&i| item_matches(&df, &catalog, i, row))
                .count();
            assert_eq!(n, 1, "row {row} must be in exactly one bin");
        }
    }

    #[test]
    fn cuts_sorted_and_deduped() {
        let (df, x) = frame(&[1.0, 2.0, 3.0]);
        let mut catalog = ItemCatalog::new();
        let h = cuts_to_hierarchy(&df, x, &[2.0, 1.0, 2.0], &mut catalog);
        assert_eq!(h.len(), 3);
        assert_eq!(catalog.label(h.items()[0]), "x<=1");
        assert_eq!(catalog.label(h.items()[1]), "x(1, 2]");
        assert_eq!(catalog.label(h.items()[2]), "x>2");
    }

    #[test]
    fn empty_cuts_empty_hierarchy() {
        let (df, x) = frame(&[1.0]);
        let mut catalog = ItemCatalog::new();
        assert!(cuts_to_hierarchy(&df, x, &[], &mut catalog).is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_cut_panics() {
        let (df, x) = frame(&[1.0]);
        let mut catalog = ItemCatalog::new();
        let _ = cuts_to_hierarchy(&df, x, &[f64::INFINITY], &mut catalog);
    }

    #[test]
    fn quantile_bins_roughly_equal() {
        let vals: Vec<f64> = (0..1000).map(f64::from).collect();
        let (df, x) = frame(&vals);
        let mut catalog = ItemCatalog::new();
        let h = quantile_hierarchy(&df, x, 4, &mut catalog);
        assert_eq!(h.len(), 4);
        for &item in h.items() {
            let count = (0..df.n_rows())
                .filter(|&r| item_matches(&df, &catalog, item, r))
                .count();
            assert!((200..=300).contains(&count), "bin size {count}");
        }
    }

    #[test]
    fn quantile_collapses_on_ties() {
        let vals = vec![5.0; 100];
        let (df, x) = frame(&vals);
        let mut catalog = ItemCatalog::new();
        let h = quantile_hierarchy(&df, x, 4, &mut catalog);
        // One duplicate cut at 5.0 → intervals <=5 and >5.
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn uniform_bins_equal_width() {
        let vals: Vec<f64> = (0..=100).map(f64::from).collect();
        let (df, x) = frame(&vals);
        let mut catalog = ItemCatalog::new();
        let h = uniform_hierarchy(&df, x, 4, &mut catalog);
        assert_eq!(h.len(), 4);
        let labels: Vec<&str> = h.items().iter().map(|&i| catalog.label(i)).collect();
        assert_eq!(labels[0], "x<=25");
        assert_eq!(labels[1], "x(25, 50]");
    }

    #[test]
    fn uniform_degenerate_cases() {
        let (df, x) = frame(&[3.0, 3.0]);
        let mut catalog = ItemCatalog::new();
        assert!(uniform_hierarchy(&df, x, 4, &mut catalog).is_empty());
        let (df2, x2) = frame(&[]);
        assert!(uniform_hierarchy(&df2, x2, 4, &mut catalog).is_empty());
        let (df3, x3) = frame(&[1.0, 2.0]);
        assert!(uniform_hierarchy(&df3, x3, 1, &mut catalog).is_empty());
    }
}
