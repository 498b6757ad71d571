//! Interactive lattice navigation over mined subgroups.
//!
//! §V of the paper: the exploration "enables users to explore the lattice of
//! frequent itemsets, identifying data subgroups with anomalous behavior".
//! [`Lattice`] indexes a [`DivergenceReport`] by itemset and materialises the
//! Hasse diagram (parent = immediate sub-itemset), supporting drill-down /
//! roll-up navigation and steepest-divergence paths.

use std::collections::HashMap;

use hdx_items::Itemset;

use crate::report::{DivergenceReport, SubgroupRecord};

/// A navigable view of the mined subgroup lattice.
pub struct Lattice<'a> {
    report: &'a DivergenceReport,
    index: HashMap<&'a Itemset, usize>,
    /// `children[i]` = records one item *more* specific than record `i`.
    children: Vec<Vec<usize>>,
    /// `parents[i]` = records one item *less* specific than record `i`.
    parents: Vec<Vec<usize>>,
    /// Records of length 1 (the children of the empty root).
    roots: Vec<usize>,
}

impl<'a> Lattice<'a> {
    /// Indexes a report (O(Σ pattern length) construction).
    pub fn new(report: &'a DivergenceReport) -> Self {
        let index: HashMap<&'a Itemset, usize> = report
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| (&r.itemset, i))
            .collect();
        let n = report.records.len();
        let mut children = vec![Vec::new(); n];
        let mut parents = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for (i, record) in report.records.iter().enumerate() {
            if record.itemset.len() == 1 {
                roots.push(i);
            }
            for sub in record.itemset.sub_itemsets() {
                if let Some(&p) = index.get(&sub) {
                    parents[i].push(p);
                    children[p].push(i);
                }
            }
        }
        Self {
            report,
            index,
            children,
            parents,
            roots,
        }
    }

    /// The record of an itemset, if it was mined.
    pub fn record(&self, itemset: &Itemset) -> Option<&'a SubgroupRecord> {
        self.index.get(itemset).map(|&i| &self.report.records[i])
    }

    /// One-item-more-specific mined refinements of `itemset`
    /// (drill-down candidates). For the empty itemset, the length-1 records.
    pub fn children(&self, itemset: &Itemset) -> Vec<&'a SubgroupRecord> {
        if itemset.is_empty() {
            return self
                .roots
                .iter()
                .map(|&i| &self.report.records[i])
                .collect();
        }
        self.index.get(itemset).map_or_else(Vec::new, |&i| {
            self.children[i]
                .iter()
                .map(|&c| &self.report.records[c])
                .collect()
        })
    }

    /// One-item-less-specific generalisations (roll-up candidates).
    pub fn parents(&self, itemset: &Itemset) -> Vec<&'a SubgroupRecord> {
        self.index.get(itemset).map_or_else(Vec::new, |&i| {
            self.parents[i]
                .iter()
                .map(|&p| &self.report.records[p])
                .collect()
        })
    }

    /// The divergence change when drilling from `from` to `to` (which must
    /// be a mined superset of `from`).
    pub fn gain(&self, from: &Itemset, to: &Itemset) -> Option<f64> {
        if !to.is_superset_of(from) {
            return None;
        }
        let from_div = if from.is_empty() {
            0.0
        } else {
            self.record(from)?.divergence?
        };
        Some(self.record(to)?.divergence? - from_div)
    }

    /// Greedy steepest-ascent drill-down from the whole dataset: at each
    /// step move to the child with the highest divergence, while it
    /// increases. Returns the path (excluding the empty root).
    pub fn steepest_path(&self) -> Vec<&'a SubgroupRecord> {
        let mut path = Vec::new();
        let mut current = Itemset::empty();
        let mut current_div = 0.0;
        loop {
            #[expect(
                clippy::expect_used,
                reason = "divergences of finite outcomes are finite"
            )]
            let next = self
                .children(&current)
                .into_iter()
                .filter_map(|r| r.divergence.map(|d| (r, d)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite divergences"));
            match next {
                Some((r, d)) if d > current_div => {
                    path.push(r);
                    current = r.itemset.clone();
                    current_div = d;
                }
                _ => return path,
            }
        }
    }

    /// DivExplorer-style *corner* significance of a subgroup: the minimum
    /// |Welch t| between the subgroup's statistic and each of its immediate
    /// generalisations' (the whole dataset, for singletons). A high corner t
    /// means the **last refinement step itself** is significant; a low one
    /// means the divergence is inherited from a parent pattern.
    ///
    /// (As in DivExplorer, the two samples overlap, so this is a heuristic
    /// outstanding-ness score rather than an exact test.)
    #[expect(
        clippy::expect_used,
        reason = "`welch_t` is finite for finite outcomes"
    )]
    pub fn corner_t(&self, itemset: &Itemset) -> Option<f64> {
        let record = self.record(itemset)?;
        let parents = self.parents(itemset);
        let ts: Vec<f64> = if parents.is_empty() && itemset.len() == 1 {
            vec![record.accum.t_value(&self.report.global_accum).abs()]
        } else {
            parents
                .iter()
                .map(|p| record.accum.t_value(&p.accum).abs())
                .collect()
        };
        ts.into_iter()
            .min_by(|a, b| a.partial_cmp(b).expect("finite t"))
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.report.records.len()
    }

    /// Whether the lattice is empty.
    pub fn is_empty(&self) -> bool {
        self.report.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_items::ItemId;

    /// Report with itemsets {0}, {1}, {0,1}, {0,2}, {2} and prescribed
    /// divergences.
    fn report() -> DivergenceReport {
        let mk = |items: &[u32], div: f64| SubgroupRecord {
            itemset: Itemset::from_sorted_unchecked(items.iter().map(|&i| ItemId(i)).collect()),
            label: format!("{items:?}"),
            support: 0.5,
            statistic: Some(div),
            divergence: Some(div),
            t_value: 1.0,
            p_value: 0.5,
            accum: hdx_stats::StatAccum::new(),
        };
        DivergenceReport {
            records: vec![
                mk(&[0], 0.2),
                mk(&[1], 0.1),
                mk(&[2], -0.05),
                mk(&[0, 1], 0.5),
                mk(&[0, 2], 0.15),
            ],
            global_statistic: Some(0.0),
            n_rows: 100,
            ..DivergenceReport::empty()
        }
    }

    fn set(items: &[u32]) -> Itemset {
        Itemset::from_sorted_unchecked(items.iter().map(|&i| ItemId(i)).collect())
    }

    #[test]
    fn children_and_parents() {
        let r = report();
        let lattice = Lattice::new(&r);
        assert_eq!(lattice.len(), 5);
        // Root children = singletons.
        let roots = lattice.children(&Itemset::empty());
        assert_eq!(roots.len(), 3);
        // {0}'s children: {0,1} and {0,2}.
        let kids = lattice.children(&set(&[0]));
        let labels: Vec<&str> = kids.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(kids.len(), 2);
        assert!(labels.contains(&"[0, 1]") && labels.contains(&"[0, 2]"));
        // {0,1}'s parents: {0} and {1}.
        let parents = lattice.parents(&set(&[0, 1]));
        assert_eq!(parents.len(), 2);
        // Unknown itemset: no neighbours.
        assert!(lattice.children(&set(&[9])).is_empty());
        assert!(lattice.parents(&set(&[9])).is_empty());
    }

    #[test]
    fn gain_along_edges() {
        let r = report();
        let lattice = Lattice::new(&r);
        let g = lattice.gain(&set(&[0]), &set(&[0, 1])).unwrap();
        assert!((g - 0.3).abs() < 1e-12);
        let from_root = lattice.gain(&Itemset::empty(), &set(&[0])).unwrap();
        assert!((from_root - 0.2).abs() < 1e-12);
        // Not a superset → None.
        assert!(lattice.gain(&set(&[1]), &set(&[0, 2])).is_none());
        // Unmined target → None.
        assert!(lattice.gain(&set(&[0]), &set(&[0, 9])).is_none());
    }

    #[test]
    fn steepest_path_climbs_to_local_max() {
        let r = report();
        let lattice = Lattice::new(&r);
        let path = lattice.steepest_path();
        let labels: Vec<&str> = path.iter().map(|r| r.label.as_str()).collect();
        // ∅ → {0} (0.2, best singleton) → {0,1} (0.5) → stop.
        assert_eq!(labels, ["[0]", "[0, 1]"]);
    }

    #[test]
    fn corner_t_flags_inherited_divergence() {
        use hdx_stats::{Outcome, StatAccum};
        // {0}: strong divergence; {0,1}: same statistic as {0} (inherited);
        // {0,2}: much stronger than {0} (a true corner).
        let acc = |n_pos: usize, n_neg: usize| {
            let mut a = StatAccum::new();
            for _ in 0..n_pos {
                a.push(Outcome::Bool(true));
            }
            for _ in 0..n_neg {
                a.push(Outcome::Bool(false));
            }
            a
        };
        let mk = |items: &[u32], accum: StatAccum| SubgroupRecord {
            itemset: Itemset::from_sorted_unchecked(items.iter().map(|&i| ItemId(i)).collect()),
            label: format!("{items:?}"),
            support: 0.5,
            statistic: accum.statistic(),
            divergence: accum.statistic(),
            t_value: 1.0,
            p_value: 0.5,
            accum,
        };
        let report = DivergenceReport {
            records: vec![
                mk(&[0], acc(50, 50)),
                mk(&[1], acc(10, 90)),
                mk(&[2], acc(10, 90)),
                mk(&[0, 1], acc(25, 25)), // same rate as {0} → inherited
                mk(&[0, 2], acc(40, 2)),  // much higher → corner
            ],
            global_statistic: Some(0.1),
            n_rows: 1000,
            global_accum: acc(100, 900),
            ..DivergenceReport::empty()
        };
        let lattice = Lattice::new(&report);
        let inherited = lattice.corner_t(&set(&[0, 1])).unwrap();
        let corner = lattice.corner_t(&set(&[0, 2])).unwrap();
        assert!(inherited < 1.0, "inherited refinement t = {inherited}");
        assert!(corner > 3.0, "true corner t = {corner}");
        // Singleton corners compare against the whole dataset.
        let single = lattice.corner_t(&set(&[0])).unwrap();
        assert!(single > 3.0, "0.5 vs 0.1 rate: t = {single}");
        // Unknown itemset → None.
        assert!(lattice.corner_t(&set(&[9])).is_none());
    }

    #[test]
    fn empty_report_lattice() {
        let r = DivergenceReport::empty();
        let lattice = Lattice::new(&r);
        assert!(lattice.is_empty());
        assert!(lattice.steepest_path().is_empty());
        assert!(lattice.children(&Itemset::empty()).is_empty());
    }
}
