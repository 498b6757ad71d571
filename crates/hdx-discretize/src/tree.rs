//! Divergence-aware tree discretization (paper §V-A).
//!
//! For one continuous attribute, a binary tree is grown from the full value
//! range: each node is split at the admissible cut point maximising the gain
//! criterion, where *admissible* means both children keep support ≥ `st`
//! (support measured against the whole dataset, like the paper's `sup`
//! annotations in Fig. 1). Every node becomes an item; parent→child edges
//! become the refinement relation `≻`.

use hdx_data::{AttrId, DataFrame};
use hdx_governor::{fail_point, Governor};
use hdx_items::{Interval, Item, ItemCatalog, ItemHierarchy, ItemId};
use hdx_stats::{binary_entropy, Outcome, StatAccum};

/// Split gain criterion (paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GainCriterion {
    /// Weighted reduction of the outcome entropy. Only meaningful for
    /// boolean outcome functions (probability-shaped statistics).
    Entropy,
    /// Weighted absolute divergence of the children from the parent. Applies
    /// to any outcome function (the paper's novel criterion; default).
    #[default]
    Divergence,
}

/// Configuration of the tree discretizer.
#[derive(Debug, Clone, Copy)]
pub struct TreeDiscretizerConfig {
    /// Minimum node support `st` (fraction of the *whole* dataset).
    pub min_support: f64,
    /// Split gain criterion.
    pub criterion: GainCriterion,
}

impl Default for TreeDiscretizerConfig {
    fn default() -> Self {
        Self {
            min_support: 0.1,
            criterion: GainCriterion::Divergence,
        }
    }
}

/// One node of a discretization tree.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Interval of attribute values covered by the node.
    pub interval: Interval,
    /// Item id, `None` only for the root (the all-range node is not an item:
    /// it would constrain nothing).
    pub item: Option<ItemId>,
    /// Support (fraction of dataset rows in the node).
    pub support: f64,
    /// The statistic `f` over the node (`None` when all outcomes are `⊥`).
    pub statistic: Option<f64>,
    /// Divergence of the node from the whole dataset.
    pub divergence: Option<f64>,
    /// Indices of the children in [`DiscretizationTree::nodes`] (empty for
    /// leaves).
    pub children: Vec<usize>,
    /// Depth (root = 0).
    pub depth: usize,
}

/// A discretization tree for one attribute: the root covers the full range,
/// every other node is an item.
#[derive(Debug, Clone)]
pub struct DiscretizationTree {
    /// The discretized attribute.
    pub attr: AttrId,
    /// Nodes in creation (pre-)order; index 0 is the root.
    pub nodes: Vec<TreeNode>,
}

impl DiscretizationTree {
    /// Index of the root node.
    pub const ROOT: usize = 0;

    /// The leaf nodes' indices.
    pub fn leaf_indices(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].children.is_empty())
            .collect()
    }

    /// Renders the tree as an indented text diagram (Fig. 1-style), using
    /// labels from `catalog`.
    pub fn render(&self, catalog: &ItemCatalog) -> String {
        let mut out = String::new();
        self.render_node(Self::ROOT, 0, catalog, &mut out);
        out
    }

    fn render_node(&self, idx: usize, indent: usize, catalog: &ItemCatalog, out: &mut String) {
        let node = &self.nodes[idx];
        let label = node
            .item
            .map_or("root".to_string(), |i| catalog.label(i).to_string());
        let stat = node
            .statistic
            .map_or("-".to_string(), |s| format!("{s:.3}"));
        let div = node
            .divergence
            .map_or("-".to_string(), |d| format!("{d:+.3}"));
        out.push_str(&format!(
            "{}{label}  sup={:.2} f={stat} Δ={div}\n",
            "  ".repeat(indent),
            node.support,
        ));
        for &c in &node.children {
            self.render_node(c, indent + 1, catalog, out);
        }
    }
}

/// The hierarchical attribute discretizer.
#[derive(Debug, Clone, Default)]
pub struct TreeDiscretizer {
    config: TreeDiscretizerConfig,
}

/// Per-sorted-position prefix aggregates enabling O(1) gain evaluation.
struct Prefix {
    /// `valid[i]` = number of defined outcomes among the first `i` sorted rows.
    valid: Vec<f64>,
    /// Sum of defined outcome values among the first `i` sorted rows.
    sum: Vec<f64>,
}

impl Prefix {
    fn build(outcomes: &[Outcome], order: &[usize]) -> Self {
        let mut valid = Vec::with_capacity(order.len() + 1);
        let mut sum = Vec::with_capacity(order.len() + 1);
        let (mut running_valid, mut running_sum) = (0.0, 0.0);
        valid.push(running_valid);
        sum.push(running_sum);
        for &row in order {
            if let Some(v) = outcomes[row].value() {
                running_valid += 1.0;
                running_sum += v;
            }
            valid.push(running_valid);
            sum.push(running_sum);
        }
        Self { valid, sum }
    }

    /// Mean of defined outcomes over sorted positions `[lo, hi)`.
    fn mean(&self, lo: usize, hi: usize) -> Option<f64> {
        let nv = self.valid[hi] - self.valid[lo];
        (nv > 0.0).then(|| (self.sum[hi] - self.sum[lo]) / nv)
    }
}

impl TreeDiscretizer {
    /// Creates a discretizer with the given configuration.
    pub fn new(config: TreeDiscretizerConfig) -> Self {
        Self { config }
    }

    /// Creates a discretizer with support `st` and the given criterion.
    pub fn with_support(min_support: f64, criterion: GainCriterion) -> Self {
        Self::new(TreeDiscretizerConfig {
            min_support,
            criterion,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &TreeDiscretizerConfig {
        &self.config
    }

    /// Discretizes one continuous attribute of `df` against `outcomes`
    /// (parallel to rows), interning items into `catalog`.
    ///
    /// Returns the item hierarchy (empty when no admissible split exists)
    /// and the full tree (for reporting, Fig. 1).
    ///
    /// # Panics
    /// Panics when `attr` is not continuous, `outcomes.len() != df.n_rows()`,
    /// or `min_support` is outside `(0, 1)`.
    pub fn discretize_attribute(
        &self,
        df: &DataFrame,
        attr: AttrId,
        outcomes: &[Outcome],
        catalog: &mut ItemCatalog,
    ) -> (ItemHierarchy, DiscretizationTree) {
        self.discretize_attribute_governed(df, attr, outcomes, catalog, &Governor::unbounded())
    }

    /// [`discretize_attribute`](Self::discretize_attribute) under a
    /// [`Governor`]: each split charges two tree nodes against
    /// `max_tree_nodes` and the work queue polls for deadline/cancellation.
    /// A tripped governor stops refining — the tree stays *valid*, just
    /// coarser, so downstream mining degrades to a coarser hierarchy instead
    /// of dying.
    pub fn discretize_attribute_governed(
        &self,
        df: &DataFrame,
        attr: AttrId,
        outcomes: &[Outcome],
        catalog: &mut ItemCatalog,
        governor: &Governor,
    ) -> (ItemHierarchy, DiscretizationTree) {
        assert_eq!(outcomes.len(), df.n_rows(), "outcomes not parallel to rows");
        assert!(
            self.config.min_support > 0.0 && self.config.min_support < 1.0,
            "min_support must be in (0, 1)"
        );
        let attr_name = df.schema().name(attr).to_string();
        hdx_obs::span!("attr", owned attr_name.clone());
        let values = df.continuous(attr).values();
        let n_total = df.n_rows();

        // Sort non-null row indices by attribute value.
        let mut order: Vec<usize> = (0..n_total).filter(|&r| !values[r].is_nan()).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let sorted_vals: Vec<f64> = order.iter().map(|&r| values[r]).collect();
        let prefix = Prefix::build(outcomes, &order);

        let global = StatAccum::from_outcomes(outcomes);
        let global_stat = global.statistic();

        let min_count = (self.config.min_support * n_total as f64).ceil().max(1.0) as usize;

        let mut tree = DiscretizationTree {
            attr,
            nodes: vec![TreeNode {
                interval: Interval::all(),
                item: None,
                support: order.len() as f64 / n_total.max(1) as f64,
                statistic: prefix.mean(0, order.len()),
                divergence: prefix
                    .mean(0, order.len())
                    .zip(global_stat)
                    .map(|(s, g)| s - g),
                children: Vec::new(),
                depth: 0,
            }],
        };
        let mut hierarchy = ItemHierarchy::new(attr);

        // Work queue of (node index, lo, hi) sorted-ranges to try splitting.
        let mut queue = vec![(DiscretizationTree::ROOT, 0usize, order.len())];
        while let Some((node_idx, lo, hi)) = queue.pop() {
            if !governor.keep_going() {
                break;
            }
            fail_point!("discretize::split");
            hdx_obs::span!("split");
            let depth = tree.nodes[node_idx].depth;
            let Some(cut) = hdx_obs::time_hist!(
                DiscretizeSplitGainNs,
                self.best_split(&sorted_vals, &prefix, lo, hi, min_count, n_total)
            ) else {
                hdx_obs::counter_add!(DiscretizeSplitsRejected, 1);
                continue;
            };
            // Charge both children before interning anything: a refused
            // charge leaves tree, hierarchy and catalog untouched.
            if !governor.record_tree_nodes(2) {
                break;
            }
            let split_value = sorted_vals[cut - 1];
            let parent_interval = tree.nodes[node_idx].interval;
            let (left_iv, right_iv) = parent_interval.split_at(split_value);

            for (iv, range) in [(left_iv, lo..cut), (right_iv, cut..hi)] {
                let item = catalog.intern(Item::range(attr, iv, &attr_name));
                match tree.nodes[node_idx].item {
                    Some(parent_item) => hierarchy.add_child(parent_item, item),
                    None => hierarchy.add_root(item),
                }
                let stat = prefix.mean(range.start, range.end);
                let child = TreeNode {
                    interval: iv,
                    item: Some(item),
                    support: (range.end - range.start) as f64 / n_total as f64,
                    statistic: stat,
                    divergence: stat.zip(global_stat).map(|(s, g)| s - g),
                    children: Vec::new(),
                    depth: depth + 1,
                };
                let child_idx = tree.nodes.len();
                tree.nodes.push(child);
                tree.nodes[node_idx].children.push(child_idx);
                queue.push((child_idx, range.start, range.end));
            }
            hdx_obs::counter_add!(DiscretizeSplitsAccepted, 1);
        }
        hdx_obs::gauge_max!(DiscretizeTreeNodes, tree.nodes.len() as u64);
        #[cfg(feature = "debug-invariants")]
        crate::invariants::assert_tree(&tree, self.config.min_support);
        (hierarchy, tree)
    }

    /// Finds the best admissible cut position in `[lo, hi)`, returning the
    /// index `k` such that the split is `[lo, k) | [k, hi)`, or `None`.
    ///
    /// Admissibility: both sides ≥ `min_count` rows and the cut falls on a
    /// value change. Among (near-)equal gains the most balanced split wins,
    /// which keeps zero-information regions from degenerating into chains.
    fn best_split(
        &self,
        sorted_vals: &[f64],
        prefix: &Prefix,
        lo: usize,
        hi: usize,
        min_count: usize,
        n_total: usize,
    ) -> Option<usize> {
        if hi - lo < 2 * min_count {
            return None;
        }
        let parent_mean = prefix.mean(lo, hi);
        let nd = n_total as f64;
        let mut best: Option<(f64, usize, usize)> = None; // (gain, balance, k)
        let k_min = lo + min_count;
        let k_max = hi - min_count; // inclusive upper bound for k
        for k in k_min..=k_max {
            if sorted_vals[k - 1] >= sorted_vals[k] {
                continue; // not a value boundary
            }
            let gain = match self.config.criterion {
                GainCriterion::Entropy => entropy_gain(prefix, lo, k, hi, nd),
                GainCriterion::Divergence => divergence_gain(prefix, parent_mean, lo, k, hi, nd),
            };
            // Balance tiebreak: prefer the split whose smaller side is
            // largest.
            let balance = (k - lo).min(hi - k);
            let better = match best {
                None => true,
                Some((bg, bb, _)) => {
                    gain > bg + 1e-12 || ((gain - bg).abs() <= 1e-12 && balance > bb)
                }
            };
            if better {
                best = Some((gain, balance, k));
            }
        }
        best.map(|(_, _, k)| k)
    }
}

/// Entropy gain of splitting sorted range `[lo, hi)` at `k` (paper §V-A,
/// weighted by node sizes over the dataset size).
fn entropy_gain(prefix: &Prefix, lo: usize, k: usize, hi: usize, n_dataset: f64) -> f64 {
    let h = |a: usize, b: usize| prefix.mean(a, b).map_or(0.0, binary_entropy);
    let w = |a: usize, b: usize| (b - a) as f64 / n_dataset;
    w(lo, hi) * h(lo, hi) - w(lo, k) * h(lo, k) - w(k, hi) * h(k, hi)
}

/// Divergence gain of splitting sorted range `[lo, hi)` at `k` (paper §V-A):
/// size-weighted absolute deviation of child statistics from the parent's.
fn divergence_gain(
    prefix: &Prefix,
    parent_mean: Option<f64>,
    lo: usize,
    k: usize,
    hi: usize,
    n_dataset: f64,
) -> f64 {
    let Some(p) = parent_mean else { return 0.0 };
    let term = |a: usize, b: usize| {
        prefix
            .mean(a, b)
            .map_or(0.0, |m| (b - a) as f64 / n_dataset * (m - p).abs())
    };
    term(lo, k) + term(k, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::{DataFrameBuilder, Value};

    /// A frame with one continuous attribute `x` taking values 0..n, and a
    /// boolean outcome that is `true` exactly when `x >= threshold`.
    fn step_frame(n: usize, threshold: f64) -> (DataFrame, Vec<Outcome>, AttrId) {
        let mut b = DataFrameBuilder::new();
        let x = b.add_continuous("x").unwrap();
        let mut outcomes = Vec::with_capacity(n);
        for i in 0..n {
            let v = i as f64;
            b.push_row(vec![Value::Num(v)]).unwrap();
            outcomes.push(Outcome::Bool(v >= threshold));
        }
        (b.finish(), outcomes, x)
    }

    #[test]
    fn finds_the_step_boundary() {
        let (df, outcomes, x) = step_frame(100, 70.0);
        let mut catalog = ItemCatalog::new();
        for criterion in [GainCriterion::Entropy, GainCriterion::Divergence] {
            let disc = TreeDiscretizer::with_support(0.1, criterion);
            let (h, tree) = disc.discretize_attribute(&df, x, &outcomes, &mut catalog);
            assert!(!h.is_empty());
            // The first split must land exactly on the step at 69/70.
            let root_children = &tree.nodes[DiscretizationTree::ROOT].children;
            assert_eq!(root_children.len(), 2);
            let left = &tree.nodes[root_children[0]];
            assert_eq!(left.interval.hi, 69.0, "criterion {criterion:?}");
            // Left child is pure-false, right pure-true.
            assert_eq!(left.statistic, Some(0.0));
            let right = &tree.nodes[root_children[1]];
            assert_eq!(right.statistic, Some(1.0));
        }
    }

    #[test]
    fn support_constraint_respected() {
        let (df, outcomes, x) = step_frame(200, 120.0);
        let mut catalog = ItemCatalog::new();
        let disc = TreeDiscretizer::with_support(0.2, GainCriterion::Divergence);
        let (_, tree) = disc.discretize_attribute(&df, x, &outcomes, &mut catalog);
        for node in &tree.nodes[1..] {
            assert!(
                node.support >= 0.2 - 1e-12,
                "node {:?} violates support",
                node.interval
            );
        }
    }

    #[test]
    fn hierarchy_matches_tree_edges() {
        let (df, outcomes, x) = step_frame(100, 30.0);
        let mut catalog = ItemCatalog::new();
        let disc = TreeDiscretizer::with_support(0.1, GainCriterion::Divergence);
        let (h, tree) = disc.discretize_attribute(&df, x, &outcomes, &mut catalog);
        // Every non-root tree node is in the hierarchy with matching parent.
        for node in &tree.nodes {
            let Some(item) = node.item else { continue };
            assert!(h.contains(item));
            for &c in &node.children {
                let child_item = tree.nodes[c].item.unwrap();
                assert_eq!(h.parent(child_item), Some(item));
            }
        }
        // Roots of the hierarchy are the root's children.
        let root_items: Vec<ItemId> = tree.nodes[DiscretizationTree::ROOT]
            .children
            .iter()
            .map(|&c| tree.nodes[c].item.unwrap())
            .collect();
        assert_eq!(h.roots(), &root_items[..]);
    }

    #[test]
    fn leaves_partition_the_range() {
        let (df, outcomes, x) = step_frame(128, 40.0);
        let mut catalog = ItemCatalog::new();
        let disc = TreeDiscretizer::with_support(0.05, GainCriterion::Entropy);
        let (h, _) = disc.discretize_attribute(&df, x, &outcomes, &mut catalog);
        let leaves = h.leaves();
        assert!(!leaves.is_empty());
        // Each row matches exactly one leaf.
        for row in 0..df.n_rows() {
            let matches = leaves
                .iter()
                .filter(|&&l| hdx_items::item_matches(&df, &catalog, l, row))
                .count();
            assert_eq!(matches, 1, "row {row}");
        }
    }

    #[test]
    fn unsplittable_attribute_yields_empty_hierarchy() {
        // Constant attribute: no value boundary, no split.
        let mut b = DataFrameBuilder::new();
        let x = b.add_continuous("x").unwrap();
        for _ in 0..50 {
            b.push_row(vec![Value::Num(7.0)]).unwrap();
        }
        let df = b.finish();
        let outcomes = vec![Outcome::Bool(true); 50];
        let mut catalog = ItemCatalog::new();
        let disc = TreeDiscretizer::with_support(0.1, GainCriterion::Divergence);
        let (h, tree) = disc.discretize_attribute(&df, x, &outcomes, &mut catalog);
        assert!(h.is_empty());
        assert_eq!(tree.nodes.len(), 1);
        assert!(catalog.is_empty());
    }

    #[test]
    fn min_support_too_large_prevents_splits() {
        let (df, outcomes, x) = step_frame(100, 50.0);
        let mut catalog = ItemCatalog::new();
        let disc = TreeDiscretizer::with_support(0.6, GainCriterion::Divergence);
        let (h, _) = disc.discretize_attribute(&df, x, &outcomes, &mut catalog);
        assert!(h.is_empty());
    }

    #[test]
    fn nulls_are_excluded_from_nodes() {
        let mut b = DataFrameBuilder::new();
        let x = b.add_continuous("x").unwrap();
        let mut outcomes = Vec::new();
        for i in 0..100 {
            if i % 10 == 0 {
                b.push_row(vec![Value::Null]).unwrap();
            } else {
                b.push_row(vec![Value::Num(i as f64)]).unwrap();
            }
            outcomes.push(Outcome::Bool(i >= 50));
        }
        let df = b.finish();
        let mut catalog = ItemCatalog::new();
        let disc = TreeDiscretizer::with_support(0.1, GainCriterion::Divergence);
        let (_, tree) = disc.discretize_attribute(&df, x, &outcomes, &mut catalog);
        // Root support reflects only non-null rows: 90/100.
        assert!((tree.nodes[0].support - 0.9).abs() < 1e-12);
    }

    #[test]
    fn render_contains_labels_and_stats() {
        let (df, outcomes, x) = step_frame(100, 70.0);
        let mut catalog = ItemCatalog::new();
        let disc = TreeDiscretizer::with_support(0.2, GainCriterion::Divergence);
        let (_, tree) = disc.discretize_attribute(&df, x, &outcomes, &mut catalog);
        let text = tree.render(&catalog);
        assert!(text.contains("root"));
        assert!(text.contains("sup="));
        assert!(text.contains("x<=69"));
    }

    #[test]
    fn divergence_criterion_handles_real_outcomes() {
        // Income-like outcome: value jumps for x > 60.
        let mut b = DataFrameBuilder::new();
        let x = b.add_continuous("x").unwrap();
        let mut outcomes = Vec::new();
        for i in 0..100 {
            b.push_row(vec![Value::Num(i as f64)]).unwrap();
            outcomes.push(Outcome::Real(if i > 60 { 100.0 } else { 10.0 }));
        }
        let df = b.finish();
        let mut catalog = ItemCatalog::new();
        let disc = TreeDiscretizer::with_support(0.1, GainCriterion::Divergence);
        let (_, tree) = disc.discretize_attribute(&df, x, &outcomes, &mut catalog);
        let first = &tree.nodes[tree.nodes[0].children[0]];
        assert_eq!(first.interval.hi, 60.0);
    }

    #[test]
    #[should_panic(expected = "min_support")]
    fn invalid_support_panics() {
        let (df, outcomes, x) = step_frame(10, 5.0);
        let mut catalog = ItemCatalog::new();
        let disc = TreeDiscretizer::with_support(0.0, GainCriterion::Divergence);
        let _ = disc.discretize_attribute(&df, x, &outcomes, &mut catalog);
    }

    #[test]
    fn tree_node_budget_yields_coarser_but_valid_tree() {
        use hdx_governor::{Governor, RunBudget, Termination};
        let (df, outcomes, x) = step_frame(1000, 130.0);
        let disc = TreeDiscretizer::with_support(0.01, GainCriterion::Divergence);

        let mut full_catalog = ItemCatalog::new();
        let (_, full_tree) = disc.discretize_attribute(&df, x, &outcomes, &mut full_catalog);
        assert!(full_tree.nodes.len() > 3, "fixture must want many splits");

        let governor = Governor::new(RunBudget::unbounded().with_max_tree_nodes(2));
        let mut catalog = ItemCatalog::new();
        let (h, tree) =
            disc.discretize_attribute_governed(&df, x, &outcomes, &mut catalog, &governor);
        // Exactly one split landed: root + two children, budget exhausted.
        assert_eq!(tree.nodes.len(), 3);
        assert_eq!(h.len(), 2);
        assert_eq!(governor.termination(), Termination::BudgetExhausted);
        assert_eq!(governor.counters().tree_nodes, 2);
        // The coarser tree is still valid: support holds on every node.
        for node in &tree.nodes[1..] {
            assert!(node.support >= 0.01 - 1e-12);
        }
        // And it is a prefix of the unbounded refinement: the one split it
        // made is the same first split the full run made.
        assert_eq!(tree.nodes[1].interval, full_tree.nodes[1].interval);
        assert_eq!(tree.nodes[2].interval, full_tree.nodes[2].interval);
    }

    #[test]
    fn cancelled_token_stops_refinement_immediately() {
        use hdx_governor::{CancelReason, Governor, RunBudget, Termination};
        let (df, outcomes, x) = step_frame(200, 80.0);
        let governor = Governor::new(RunBudget::unbounded());
        governor.cancel_token().cancel();
        let mut catalog = ItemCatalog::new();
        let disc = TreeDiscretizer::with_support(0.1, GainCriterion::Divergence);
        let (h, tree) =
            disc.discretize_attribute_governed(&df, x, &outcomes, &mut catalog, &governor);
        assert!(h.is_empty());
        assert_eq!(tree.nodes.len(), 1, "only the root survives cancellation");
        assert_eq!(
            governor.termination(),
            Termination::Cancelled(CancelReason::User)
        );
    }
}
