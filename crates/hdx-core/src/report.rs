//! Ranked, labelled subgroup results.

use std::cmp::Ordering;
use std::time::Duration;

use hdx_data::AttrId;
use hdx_items::{ItemCatalog, Itemset, LabelRank};
use hdx_mining::{MiningError, MiningResult, RunCounters, Termination};
use hdx_stats::StatAccum;

/// One discovered subgroup with its statistics.
#[derive(Debug, Clone)]
pub struct SubgroupRecord {
    /// The defining itemset (pattern).
    pub itemset: Itemset,
    /// Human-readable pattern, e.g. `{age<=24, #prior>8}`.
    pub label: String,
    /// Support `sup(I)` as a fraction of the dataset.
    pub support: f64,
    /// The statistic `f(I)` (`None` when every outcome in the subgroup
    /// is `⊥`).
    pub statistic: Option<f64>,
    /// Divergence `Δ_f(I) = f(I) − f(D)`.
    pub divergence: Option<f64>,
    /// Welch t-value of the divergence.
    pub t_value: f64,
    /// Two-sided Welch p-value of the divergence (1.0 when undefined).
    pub p_value: f64,
    /// The raw statistics accumulated over the subgroup (enables lazy
    /// confidence intervals and further analysis).
    pub accum: StatAccum,
}

impl SubgroupRecord {
    /// Itemset length.
    pub fn len(&self) -> usize {
        self.itemset.len()
    }

    /// Whether the itemset is empty (never true for mined records).
    pub fn is_empty(&self) -> bool {
        self.itemset.is_empty()
    }
}

/// The output of an exploration: all frequent subgroups ranked by descending
/// divergence (records with undefined divergence sink to the end).
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Ranked records.
    pub records: Vec<SubgroupRecord>,
    /// The global statistic `f(D)`.
    pub global_statistic: Option<f64>,
    /// Dataset size.
    pub n_rows: usize,
    /// Wall-clock time of the exploration (mining only, not discretization).
    pub elapsed: Duration,
    /// The statistics of the whole dataset (for lazy per-record intervals).
    pub global_accum: StatAccum,
    /// How the underlying mining run ended. Anything but
    /// [`Termination::Complete`] means `records` is a valid subset of the
    /// unbounded result.
    pub termination: Termination,
    /// Work charged against the run's budget.
    pub counters: RunCounters,
    /// Non-fatal errors absorbed during mining (e.g. worker panics).
    pub errors: Vec<MiningError>,
}

impl DivergenceReport {
    /// An empty, complete report — also handy as a struct-update base.
    pub fn empty() -> Self {
        Self {
            records: Vec::new(),
            global_statistic: None,
            n_rows: 0,
            elapsed: Duration::ZERO,
            global_accum: StatAccum::new(),
            termination: Termination::Complete,
            counters: RunCounters::default(),
            errors: Vec::new(),
        }
    }

    /// Builds a report from a mining result, ranking by divergence.
    pub fn from_mining(result: &MiningResult, catalog: &ItemCatalog, elapsed: Duration) -> Self {
        hdx_obs::span!("rank");
        let labels = LabelRank::new(catalog);
        let tests = StatAccum::p_values(&result.global, result.itemsets.iter().map(|fi| &fi.accum));
        let mut records: Vec<SubgroupRecord> = result
            .itemsets
            .iter()
            .zip(tests)
            .map(|(fi, (t_value, p_value))| SubgroupRecord {
                label: labels.label(&fi.itemset),
                itemset: fi.itemset.clone(),
                support: result.support(fi),
                statistic: fi.accum.statistic(),
                divergence: result.divergence(fi),
                t_value,
                p_value,
                accum: fi.accum,
            })
            .collect();
        // A stable sort of indices under the records' order is the stable
        // sort of the records themselves, with 4-byte moves instead of
        // whole records. (2^32 records would take over 500 GB.)
        let mut order: Vec<u32> = (0..records.len() as u32).collect();
        order.sort_by(|&i, &j| rank_order(&records[i as usize], &records[j as usize]));
        permute(&mut records, &mut order);
        Self {
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

    /// `true` when the run was cut short (budget, deadline, cancellation) or
    /// absorbed a worker error — the report is then a valid subset.
    pub fn is_partial(&self) -> bool {
        self.termination.is_partial() || !self.errors.is_empty()
    }

    /// Two-sided `(1 − alpha)` Welch confidence interval for a record's
    /// divergence (computed lazily — t-quantiles are too costly to
    /// precompute for every mined subgroup).
    pub fn divergence_ci(&self, record: &SubgroupRecord, alpha: f64) -> Option<(f64, f64)> {
        record.accum.divergence_ci(&self.global_accum, alpha)
    }

    /// The highest divergence, or `None` when no record has one.
    pub fn max_divergence(&self) -> Option<f64> {
        self.records.iter().find_map(|r| r.divergence)
    }

    /// The highest absolute divergence.
    pub fn max_abs_divergence(&self) -> Option<f64> {
        self.records
            .iter()
            .filter_map(|r| r.divergence)
            .map(f64::abs)
            .fold(None, |acc: Option<f64>, d| {
                Some(acc.map_or(d, |a| a.max(d)))
            })
    }

    /// The top record (highest divergence), if any.
    pub fn top(&self) -> Option<&SubgroupRecord> {
        self.records.first()
    }

    /// The first `k` records.
    pub fn top_k(&self, k: usize) -> &[SubgroupRecord] {
        &self.records[..k.min(self.records.len())]
    }

    /// Records with `|t| ≥ t_min` (statistically significant divergence).
    pub fn significant(&self, t_min: f64) -> impl Iterator<Item = &SubgroupRecord> {
        self.records
            .iter()
            .filter(move |r| r.t_value.abs() >= t_min)
    }

    /// The best record among those satisfying a predicate.
    pub fn best_where(
        &self,
        mut keep: impl FnMut(&SubgroupRecord) -> bool,
    ) -> Option<&SubgroupRecord> {
        self.records.iter().find(|r| keep(r))
    }

    /// Records surviving Benjamini–Hochberg false-discovery-rate control at
    /// level `q`: with `m` subgroups tested, the records with the `k`
    /// smallest p-values are returned, where `k` is the largest index with
    /// `p₍ₖ₎ ≤ k·q/m`.
    ///
    /// Subgroup discovery tests *many* hypotheses at once; filtering by raw
    /// t-values inflates false discoveries, which BH bounds in expectation.
    pub fn significant_fdr(&self, q: f64) -> Vec<&SubgroupRecord> {
        assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]");
        let m = self.records.len();
        if m == 0 {
            return Vec::new();
        }
        let mut by_p: Vec<&SubgroupRecord> = self.records.iter().collect();
        by_p.sort_by(|a, b| a.p_value.total_cmp(&b.p_value));
        let mut cutoff = 0;
        for (i, r) in by_p.iter().enumerate() {
            if r.p_value <= (i + 1) as f64 * q / m as f64 {
                cutoff = i + 1;
            }
        }
        by_p.truncate(cutoff);
        by_p
    }

    /// Records whose divergence is *not* already explained by one of their
    /// immediate sub-itemsets: a record is redundant when removing one of
    /// its items loses less than `epsilon` of (absolute) divergence.
    ///
    /// Useful to compact results where an attribute duplicates another
    /// (e.g. a functional dependency makes `branch=west` and `region=west`
    /// interchangeable) or an item adds no divergence of its own.
    pub fn non_redundant(&self, epsilon: f64) -> Vec<&SubgroupRecord> {
        let index: std::collections::HashMap<&Itemset, f64> = self
            .records
            .iter()
            .filter_map(|r| r.divergence.map(|d| (&r.itemset, d)))
            .collect();
        self.records
            .iter()
            .filter(|r| {
                let Some(d) = r.divergence else { return true };
                let explained_by = |sub_div: f64| {
                    // The subset already reaches (almost) the same divergence
                    // in the same direction.
                    sub_div.abs() >= d.abs() - epsilon
                        && (hdx_stats::approx::approx_zero(sub_div)
                            || hdx_stats::approx::same_sign(sub_div, d))
                };
                !r.itemset.sub_itemsets().any(|sub| {
                    if sub.is_empty() {
                        explained_by(0.0) // Δ(∅) = 0
                    } else {
                        index.get(&sub).copied().is_some_and(explained_by)
                    }
                })
            })
            .collect()
    }

    /// Per-attribute divergence profile: for every attribute appearing in
    /// some pattern, the maximum |divergence| over the subgroups that
    /// constrain it — a quick "which attributes drive the anomalies" view.
    /// Sorted descending.
    pub fn attribute_profile(&self, catalog: &ItemCatalog) -> Vec<(AttrId, f64)> {
        let mut best: std::collections::HashMap<AttrId, f64> = std::collections::HashMap::new();
        for r in &self.records {
            let Some(d) = r.divergence else { continue };
            for &item in r.itemset.items() {
                let attr = catalog.attr_of(item);
                let entry = best.entry(attr).or_insert(0.0);
                if d.abs() > *entry {
                    *entry = d.abs();
                }
            }
        }
        let mut out: Vec<(AttrId, f64)> = best.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Renders the top `k` records as an aligned text table.
    pub fn table(&self, k: usize) -> String {
        let mut rows: Vec<[String; 5]> = vec![[
            "itemset".into(),
            "sup".into(),
            "f".into(),
            "Δf".into(),
            "t".into(),
        ]];
        for r in self.top_k(k) {
            rows.push([
                r.label.clone(),
                format!("{:.3}", r.support),
                r.statistic.map_or("-".into(), |s| format!("{s:.3}")),
                r.divergence.map_or("-".into(), |d| format!("{d:+.3}")),
                format!("{:.1}", r.t_value),
            ]);
        }
        let widths: Vec<usize> = (0..5)
            .map(|c| rows.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for row in rows {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                out.push_str(&" ".repeat(widths[c].saturating_sub(cell.chars().count())));
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out
    }
}

/// The report's order: descending divergence with undefined divergences
/// last, then ascending label.
fn rank_order(a: &SubgroupRecord, b: &SubgroupRecord) -> Ordering {
    match (b.divergence, a.divergence) {
        (Some(x), Some(y)) => x.total_cmp(&y),
        (Some(_), None) => Ordering::Greater,
        (None, Some(_)) => Ordering::Less,
        (None, None) => Ordering::Equal,
    }
    .then_with(|| a.label.cmp(&b.label))
}

/// Reorders `items` so that `items[k]` is the old `items[order[k]]`, one
/// cycle of the permutation at a time; `order` is left as the identity.
fn permute<T>(items: &mut [T], order: &mut [u32]) {
    for start in 0..order.len() {
        let mut at = start;
        loop {
            let from = order[at] as usize;
            order[at] = at as u32;
            if from == start {
                break;
            }
            items.swap(at, from);
            at = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::AttrId;
    use hdx_items::Item;
    use hdx_mining::FrequentItemset;
    use hdx_stats::{Outcome, StatAccum};

    fn fixture() -> (MiningResult, ItemCatalog) {
        let mut catalog = ItemCatalog::new();
        let a = catalog.intern(Item::cat_eq(AttrId(0), 0, "x", "a"));
        let b = catalog.intern(Item::cat_eq(AttrId(1), 0, "y", "b"));
        let global = StatAccum::from_outcomes(&[
            Outcome::Bool(true),
            Outcome::Bool(false),
            Outcome::Bool(false),
            Outcome::Bool(false),
        ]);
        let result = MiningResult::complete(
            vec![
                FrequentItemset {
                    itemset: Itemset::singleton(a),
                    accum: StatAccum::from_outcomes(&[Outcome::Bool(true), Outcome::Bool(true)]),
                },
                FrequentItemset {
                    itemset: Itemset::from_sorted_unchecked(vec![a, b]),
                    accum: StatAccum::from_outcomes(&[Outcome::Undefined]),
                },
                FrequentItemset {
                    itemset: Itemset::singleton(b),
                    accum: StatAccum::from_outcomes(&[Outcome::Bool(false), Outcome::Bool(false)]),
                },
            ],
            4,
            global,
        );
        (result, catalog)
    }

    #[test]
    fn ranked_by_divergence_with_undefined_last() {
        let (result, catalog) = fixture();
        let report = DivergenceReport::from_mining(&result, &catalog, Duration::ZERO);
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.records[0].label, "{x=a}");
        assert_eq!(report.records[0].divergence, Some(0.75));
        assert_eq!(report.records[1].divergence, Some(-0.25));
        assert_eq!(report.records[2].divergence, None);
        assert_eq!(report.max_divergence(), Some(0.75));
        assert_eq!(report.max_abs_divergence(), Some(0.75));
        assert_eq!(report.global_statistic, Some(0.25));
    }

    #[test]
    fn top_k_and_filters() {
        let (result, catalog) = fixture();
        let report = DivergenceReport::from_mining(&result, &catalog, Duration::ZERO);
        assert_eq!(report.top_k(2).len(), 2);
        assert_eq!(report.top_k(10).len(), 3);
        assert_eq!(report.top().unwrap().label, "{x=a}");
        let best_len1_neg = report
            .best_where(|r| r.len() == 1 && r.divergence.unwrap_or(0.0) < 0.0)
            .unwrap();
        assert_eq!(best_len1_neg.label, "{y=b}");
        // t filter: all our toy t-values are small; threshold 1e9 removes all.
        assert_eq!(report.significant(1e9).count(), 0);
    }

    #[test]
    fn attribute_profile_ranks_by_max_divergence() {
        let (result, catalog) = fixture();
        let report = DivergenceReport::from_mining(&result, &catalog, Duration::ZERO);
        // fixture: {x=a} Δ=.75 (attr 0), {y=b} Δ=-.25 (attr 1),
        // {x=a,y=b} undefined.
        let profile = report.attribute_profile(&catalog);
        assert_eq!(profile.len(), 2);
        assert_eq!(profile[0].0, AttrId(0));
        assert!((profile[0].1 - 0.75).abs() < 1e-12);
        assert_eq!(profile[1].0, AttrId(1));
        assert!((profile[1].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let (result, catalog) = fixture();
        let report = DivergenceReport::from_mining(&result, &catalog, Duration::ZERO);
        let table = report.table(3);
        assert!(table.contains("{x=a}"));
        assert!(table.lines().count() == 4);
        assert!(table.contains("+0.750"));
    }

    #[test]
    fn fdr_control_selects_by_bh_cutoff() {
        // Hand-built p-values: [0.001, 0.01, 0.03, 0.8].
        // BH at q=0.1, m=4: thresholds 0.025, 0.05, 0.075, 0.1 →
        // p(1)=0.001 ≤ 0.025 ✓, p(2)=0.01 ≤ 0.05 ✓, p(3)=0.03 ≤ 0.075 ✓,
        // p(4)=0.8 > 0.1 → keep first three.
        let (result, catalog) = fixture();
        let mut report = DivergenceReport::from_mining(&result, &catalog, Duration::ZERO);
        report.records.push(report.records[0].clone());
        let ps = [0.03, 0.8, 0.001, 0.01]; // unsorted on purpose
        for (r, p) in report.records.iter_mut().zip(ps) {
            r.p_value = p;
        }
        let kept = report.significant_fdr(0.1);
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().all(|r| r.p_value <= 0.03));
        // Monotone in q.
        assert!(report.significant_fdr(0.001).len() <= kept.len());
        assert_eq!(report.significant_fdr(1.0).len(), 4);
        // Empty report.
        let empty = DivergenceReport::empty();
        assert!(empty.significant_fdr(0.1).is_empty());
    }

    #[test]
    #[should_panic(expected = "q must be")]
    fn fdr_rejects_bad_q() {
        let (result, catalog) = fixture();
        let report = DivergenceReport::from_mining(&result, &catalog, Duration::ZERO);
        let _ = report.significant_fdr(1.5);
    }

    #[test]
    fn p_values_consistent_with_t() {
        let (result, catalog) = fixture();
        let report = DivergenceReport::from_mining(&result, &catalog, Duration::ZERO);
        for r in &report.records {
            assert!((0.0..=1.0).contains(&r.p_value), "{}", r.label);
            // Larger |t| should not have larger p among comparable samples;
            // at minimum, t == 0 ⇒ p == 1.
            if r.t_value == 0.0 {
                assert_eq!(r.p_value, 1.0);
            }
        }
    }

    #[test]
    fn non_redundant_filters_explained_itemsets() {
        // {a} Δ=.75; {a,b} Δ=.75 (b adds nothing) → {a,b} is redundant.
        // {y=b} Δ=-.25 is kept (novel singleton).
        let (result, catalog) = fixture();
        let report = DivergenceReport::from_mining(&result, &catalog, Duration::ZERO);
        // fixture: {x=a} 0.75, {x=a,y=b} undefined, {y=b} -0.25.
        let filtered = report.non_redundant(0.01);
        // The undefined-divergence record is never dropped; singletons whose
        // |Δ| exceeds ε stay.
        assert_eq!(filtered.len(), 3);

        // Now add a redundant superset explicitly.
        let mut result2 = result.clone();
        let a = result2.itemsets[0].itemset.items()[0];
        let b = result2.itemsets[2].itemset.items()[0];
        result2.itemsets.push(hdx_mining::FrequentItemset {
            itemset: Itemset::from_sorted_unchecked(vec![a, b]),
            accum: StatAccum::from_outcomes(&[Outcome::Bool(true), Outcome::Bool(true)]),
        });
        // Remove the undefined {a,b} so labels don't clash.
        result2.itemsets.remove(1);
        let report2 = DivergenceReport::from_mining(&result2, &catalog, Duration::ZERO);
        let filtered2 = report2.non_redundant(0.01);
        // {x=a, y=b} (Δ = .75) is explained by {x=a} (Δ = .75) → dropped.
        assert!(filtered2.iter().all(|r| r.itemset.len() == 1));
        // Tiny-divergence singletons are explained by the empty set.
        assert_eq!(
            report2
                .non_redundant(0.3)
                .iter()
                .filter(|r| r.label == "{y=b}")
                .count(),
            0
        );
    }

    #[test]
    fn permute_applies_every_cycle() {
        // order: 0 fixed, (1 3 2) a 3-cycle, (4 5) a swap.
        let mut items = ['a', 'b', 'c', 'd', 'e', 'f'];
        let mut order = [0, 3, 1, 2, 5, 4];
        let want: Vec<char> = order.iter().map(|&k| items[k as usize]).collect();
        permute(&mut items, &mut order);
        assert_eq!(items[..], want[..]);
        assert_eq!(order, [0, 1, 2, 3, 4, 5]);
        permute::<char>(&mut [], &mut []);
    }

    #[test]
    fn supports_are_fractions() {
        let (result, catalog) = fixture();
        let report = DivergenceReport::from_mining(&result, &catalog, Duration::ZERO);
        for r in &report.records {
            assert!(r.support > 0.0 && r.support <= 1.0);
        }
    }
}
