//! Property-based tests of discretization: trees always produce valid item
//! hierarchies whose leaves partition the data, under both gain criteria and
//! arbitrary data/outcome configurations.
//!
//! The tree discretizer must also match, bit for bit, the comparison-sort
//! discretizer it replaced, which this file keeps as the oracle: every
//! `TreeNode` field, every hierarchy edge and every catalog label, on
//! random columns and on the paper's datasets. A metamorphic check adds
//! that permuting the rows of a frame with boolean outcomes changes no tree.

use h_divexplorer::data::{AttrId, DataFrame, DataFrameBuilder, Value};
use h_divexplorer::datasets::{compas, folktables, inject_nulls, synthetic_peak};
use h_divexplorer::discretize::{
    quantile_hierarchy, uniform_hierarchy, DiscretizationTree, GainCriterion, TreeDiscretizer,
    TreeNode,
};
use h_divexplorer::governor::{Governor, RunBudget, Termination};
use h_divexplorer::items::{
    item_cover, item_matches, HierarchySet, ItemCatalog, ItemHierarchy, ItemId,
};
use h_divexplorer::stats::Outcome;
use hdx_bench::experiments::outcomes_for;
use proptest::prelude::*;

/// The tree discretizer as it was before it sorted radix keys into runs: a
/// stable comparison sort of the non-null row indices, a prefix aggregate
/// at every sorted position, and a best split that scans every row of a
/// node. The governor polls and charges are the production ones; the
/// instrumentation is left out.
mod oracle {
    use h_divexplorer::data::{AttrId, DataFrame};
    use h_divexplorer::discretize::{DiscretizationTree, GainCriterion, TreeNode};
    use h_divexplorer::governor::Governor;
    use h_divexplorer::items::{Interval, Item, ItemCatalog, ItemHierarchy};
    use h_divexplorer::stats::{binary_entropy, Outcome, StatAccum};

    /// Per-sorted-position prefix aggregates enabling O(1) gain evaluation.
    struct Prefix {
        /// `valid[i]` = number of defined outcomes among the first `i`
        /// sorted rows.
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

    /// `TreeDiscretizer::discretize_attribute_governed` as it was.
    pub fn discretize(
        df: &DataFrame,
        attr: AttrId,
        outcomes: &[Outcome],
        min_support: f64,
        criterion: GainCriterion,
        catalog: &mut ItemCatalog,
        governor: &Governor,
    ) -> (ItemHierarchy, DiscretizationTree) {
        let attr_name = df.schema().name(attr).to_string();
        let values = df.continuous(attr).values();
        let n_total = df.n_rows();

        let mut order: Vec<usize> = (0..n_total).filter(|&r| !values[r].is_nan()).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let sorted_vals: Vec<f64> = order.iter().map(|&r| values[r]).collect();
        let prefix = Prefix::build(outcomes, &order);

        let global = StatAccum::from_outcomes(outcomes);
        let global_stat = global.statistic();

        let min_count = (min_support * n_total as f64).ceil().max(1.0) as usize;

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

        let mut queue = vec![(DiscretizationTree::ROOT, 0usize, order.len())];
        while let Some((node_idx, lo, hi)) = queue.pop() {
            if !governor.keep_going() {
                break;
            }
            let depth = tree.nodes[node_idx].depth;
            let Some(cut) =
                best_split(criterion, &sorted_vals, &prefix, lo, hi, min_count, n_total)
            else {
                continue;
            };
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
        }
        (hierarchy, tree)
    }

    fn best_split(
        criterion: GainCriterion,
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
            let gain = match criterion {
                GainCriterion::Entropy => entropy_gain(prefix, lo, k, hi, nd),
                GainCriterion::Divergence => divergence_gain(prefix, parent_mean, lo, k, hi, nd),
            };
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

    fn entropy_gain(prefix: &Prefix, lo: usize, k: usize, hi: usize, n_dataset: f64) -> f64 {
        let h = |a: usize, b: usize| prefix.mean(a, b).map_or(0.0, binary_entropy);
        let w = |a: usize, b: usize| (b - a) as f64 / n_dataset;
        w(lo, hi) * h(lo, hi) - w(lo, k) * h(lo, k) - w(k, hi) * h(k, hi)
    }

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
}

/// One node with every float as its bits.
type NodeBits = (
    u64,
    u64,
    Option<ItemId>,
    u64,
    Option<u64>,
    Option<u64>,
    Vec<usize>,
    usize,
);

fn node_bits(node: &TreeNode) -> NodeBits {
    (
        node.interval.lo.to_bits(),
        node.interval.hi.to_bits(),
        node.item,
        node.support.to_bits(),
        node.statistic.map(f64::to_bits),
        node.divergence.map(f64::to_bits),
        node.children.clone(),
        node.depth,
    )
}

/// Everything one discretization produced, exactly: the tree's nodes, the
/// hierarchy's edges, the catalog's labels in interning order, and where
/// its governor stopped.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    attr: AttrId,
    nodes: Vec<NodeBits>,
    roots: Vec<ItemId>,
    edges: Vec<(ItemId, Option<ItemId>, Vec<ItemId>)>,
    labels: Vec<String>,
    termination: Termination,
    tree_nodes_charged: u64,
}

fn fingerprint(
    (hierarchy, tree): (ItemHierarchy, DiscretizationTree),
    catalog: &ItemCatalog,
    governor: &Governor,
) -> Fingerprint {
    Fingerprint {
        attr: tree.attr,
        nodes: tree.nodes.iter().map(node_bits).collect(),
        roots: hierarchy.roots().to_vec(),
        edges: hierarchy
            .items()
            .iter()
            .map(|&i| (i, hierarchy.parent(i), hierarchy.children(i).to_vec()))
            .collect(),
        labels: catalog
            .ids()
            .map(|i| catalog.label(i).to_string())
            .collect(),
        termination: governor.termination(),
        tree_nodes_charged: governor.counters().tree_nodes,
    }
}

/// The production discretizer's fingerprint on `attr`, under `budget`.
fn production(
    df: &DataFrame,
    attr: AttrId,
    outcomes: &[Outcome],
    st: f64,
    criterion: GainCriterion,
    budget: RunBudget,
) -> Fingerprint {
    let governor = Governor::new(budget);
    let mut catalog = ItemCatalog::new();
    let out = TreeDiscretizer::with_support(st, criterion).discretize_attribute_governed(
        df,
        attr,
        outcomes,
        &mut catalog,
        &governor,
    );
    fingerprint(out, &catalog, &governor)
}

/// The oracle's fingerprint on `attr`, under `budget`.
fn reference(
    df: &DataFrame,
    attr: AttrId,
    outcomes: &[Outcome],
    st: f64,
    criterion: GainCriterion,
    budget: RunBudget,
) -> Fingerprint {
    let governor = Governor::new(budget);
    let mut catalog = ItemCatalog::new();
    let out = oracle::discretize(df, attr, outcomes, st, criterion, &mut catalog, &governor);
    fingerprint(out, &catalog, &governor)
}

/// Requires the production discretizer to equal the oracle on `attr`:
/// unbounded, and under every `max_tree_nodes` budget from 0 to the
/// unbounded tree's node count, so that a budget trips after each split
/// count (an odd budget trips on the charge of a split's second child).
fn check_against_oracle(
    df: &DataFrame,
    attr: AttrId,
    outcomes: &[Outcome],
    st: f64,
    criterion: GainCriterion,
) -> Result<(), TestCaseError> {
    let unbounded = RunBudget::unbounded();
    let new = production(df, attr, outcomes, st, criterion, unbounded);
    let old = reference(df, attr, outcomes, st, criterion, unbounded);
    prop_assert_eq!(&new, &old, "unbounded, st {}, {:?}", st, criterion);
    for cap in 0..new.nodes.len() as u64 {
        let budget = RunBudget::unbounded().with_max_tree_nodes(cap);
        let new = production(df, attr, outcomes, st, criterion, budget);
        let old = reference(df, attr, outcomes, st, criterion, budget);
        prop_assert_eq!(
            new,
            old,
            "max_tree_nodes {}, st {}, {:?}",
            cap,
            st,
            criterion
        );
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct Case {
    values: Vec<f64>,
    outcomes: Vec<Outcome>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let cell = (
        prop_oneof![
            8 => -50.0..50.0f64,
            1 => Just(f64::NAN), // nulls
            1 => (0..5i32).prop_map(f64::from), // heavy ties
        ],
        prop_oneof![
            3 => any::<bool>().prop_map(Outcome::Bool),
            1 => Just(Outcome::Undefined),
            2 => (-10.0..10.0f64).prop_map(Outcome::Real),
        ],
    );
    proptest::collection::vec(cell, 20..200).prop_map(|cells| {
        let (values, outcomes) = cells.into_iter().unzip();
        Case { values, outcomes }
    })
}

fn frame_of(case: &Case) -> h_divexplorer::data::DataFrame {
    let mut b = DataFrameBuilder::new();
    b.add_continuous("x").unwrap();
    for &v in &case.values {
        b.push_row(vec![if v.is_nan() {
            Value::Null
        } else {
            Value::Num(v)
        }])
        .unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tree leaves partition the non-null rows; every node's support honours
    /// `st`; the hierarchy mirrors the tree and satisfies Definition 4.1.
    #[test]
    fn tree_invariants(
        case in case_strategy(),
        st in 0.05f64..0.45,
        entropy in any::<bool>(),
    ) {
        let df = frame_of(&case);
        let attr = df.schema().id("x").unwrap();
        let criterion = if entropy { GainCriterion::Entropy } else { GainCriterion::Divergence };
        let mut catalog = ItemCatalog::new();
        let discretizer = TreeDiscretizer::with_support(st, criterion);
        let (hierarchy, tree) =
            discretizer.discretize_attribute(&df, attr, &case.outcomes, &mut catalog);

        // Supports.
        let min_count = (st * df.n_rows() as f64).ceil();
        for node in &tree.nodes[1..] {
            prop_assert!(node.support * df.n_rows() as f64 >= min_count - 1e-9);
        }

        if hierarchy.is_empty() {
            return Ok(());
        }

        // Leaves partition the non-null rows.
        let leaves = hierarchy.leaves();
        for row in 0..df.n_rows() {
            let matched = leaves
                .iter()
                .filter(|&&l| item_matches(&df, &catalog, l, row))
                .count();
            if case.values[row].is_nan() {
                prop_assert_eq!(matched, 0, "null rows match nothing");
            } else {
                prop_assert_eq!(matched, 1, "row {} value {}", row, case.values[row]);
            }
        }

        // Definition 4.1 partition property via covers.
        let mut set = HierarchySet::new();
        set.push(hierarchy);
        prop_assert_eq!(
            set.validate_partition(&catalog, |i| item_cover(&df, &catalog, i)),
            Ok(())
        );
    }

    /// Parent statistics are consistent: a node's accumulated statistic is
    /// the cover-weighted combination of its children's.
    #[test]
    fn tree_statistics_consistent(case in case_strategy(), st in 0.05f64..0.3) {
        let df = frame_of(&case);
        let attr = df.schema().id("x").unwrap();
        let mut catalog = ItemCatalog::new();
        let discretizer = TreeDiscretizer::with_support(st, GainCriterion::Divergence);
        let (_, tree) = discretizer.discretize_attribute(&df, attr, &case.outcomes, &mut catalog);
        for node in &tree.nodes {
            if node.children.is_empty() {
                continue;
            }
            // Support adds up exactly.
            let child_support: f64 = node.children.iter().map(|&c| tree.nodes[c].support).sum();
            prop_assert!((child_support - node.support).abs() < 1e-9);
        }
    }

    /// Flat discretizers (quantile/uniform) produce partitions too.
    #[test]
    fn flat_discretizers_partition(case in case_strategy(), k in 2usize..10) {
        let df = frame_of(&case);
        let attr = df.schema().id("x").unwrap();
        for flavour in 0..2 {
            let mut catalog = ItemCatalog::new();
            let h = if flavour == 0 {
                quantile_hierarchy(&df, attr, k, &mut catalog)
            } else {
                uniform_hierarchy(&df, attr, k, &mut catalog)
            };
            if h.is_empty() {
                continue;
            }
            for row in 0..df.n_rows() {
                let matched = h
                    .items()
                    .iter()
                    .filter(|&&i| item_matches(&df, &catalog, i, row))
                    .count();
                if case.values[row].is_nan() {
                    prop_assert_eq!(matched, 0);
                } else {
                    prop_assert_eq!(matched, 1);
                }
            }
        }
    }

    /// Determinism: the same inputs give the same tree.
    #[test]
    fn tree_is_deterministic(case in case_strategy()) {
        let df = frame_of(&case);
        let attr = df.schema().id("x").unwrap();
        let discretizer = TreeDiscretizer::with_support(0.1, GainCriterion::Divergence);
        let mut c1 = ItemCatalog::new();
        let (h1, t1) = discretizer.discretize_attribute(&df, attr, &case.outcomes, &mut c1);
        let mut c2 = ItemCatalog::new();
        let (h2, t2) = discretizer.discretize_attribute(&df, attr, &case.outcomes, &mut c2);
        prop_assert_eq!(h1.items(), h2.items());
        prop_assert_eq!(t1.nodes.len(), t2.nodes.len());
        for (a, b) in t1.nodes.iter().zip(&t2.nodes) {
            prop_assert_eq!(a.interval, b.interval);
            prop_assert_eq!(a.support, b.support);
        }
    }
}

/// One cell of a random column: spread values, heavy ties (at integers and
/// at tenths), both signed zeros and nulls.
fn oracle_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -50.0..50.0f64,
        4 => (-3..4i32).prop_map(f64::from),
        1 => (-3..4i32).prop_map(|i| f64::from(i) / 10.0),
        2 => Just(-0.0),
        2 => Just(f64::NAN),
    ]
}

/// A column of `n` rows: random cells, or one of the shapes random cells
/// rarely give — constant, all-null, only signed zeros, ones and nulls.
fn oracle_column(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        8 => proptest::collection::vec(oracle_value(), n),
        1 => Just(vec![7.0; n]),
        1 => Just(vec![f64::NAN; n]),
        2 => proptest::collection::vec(
            prop_oneof![Just(-0.0), Just(0.0), Just(1.0), Just(f64::NAN)],
            n,
        ),
    ]
}

/// Outcomes of `n` rows: boolean, real, real with the odd NaN, or mixed,
/// each with `⊥`. Real outcomes round when summed, so a sum taken in
/// another order shows in the bits.
fn oracle_outcomes(n: usize) -> impl Strategy<Value = Vec<Outcome>> {
    let boolean = || any::<bool>().prop_map(Outcome::Bool);
    let real = || (-10.0..10.0f64).prop_map(Outcome::Real);
    let undefined = || Just(Outcome::Undefined);
    prop_oneof![
        3 => proptest::collection::vec(prop_oneof![4 => boolean(), 1 => undefined()], n),
        3 => proptest::collection::vec(prop_oneof![5 => real(), 1 => undefined()], n),
        1 => proptest::collection::vec(
            prop_oneof![30 => real(), 3 => undefined(), 1 => Just(Outcome::Real(f64::NAN))],
            n,
        ),
        1 => proptest::collection::vec(prop_oneof![boolean(), real(), undefined()], n),
    ]
}

fn oracle_case() -> impl Strategy<Value = Case> {
    prop_oneof![1 => 0..6usize, 5 => 6..240usize].prop_flat_map(|n| {
        (oracle_column(n), oracle_outcomes(n))
            .prop_map(|(values, outcomes)| Case { values, outcomes })
    })
}

/// The supports the oracle comparison runs at.
fn oracle_support() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.01),
        Just(0.05),
        Just(0.1),
        Just(0.2),
        Just(0.33),
        0.01..0.49f64,
    ]
}

/// `rows` of `df` in the given order (every attribute continuous).
fn permuted(df: &DataFrame, rows: &[usize]) -> DataFrame {
    let mut b = DataFrameBuilder::new();
    let attrs = df.schema().continuous_ids();
    for &attr in &attrs {
        b.add_continuous(df.schema().name(attr)).unwrap();
    }
    for &row in rows {
        let cells = attrs
            .iter()
            .map(|&attr| {
                let v = df.continuous(attr).values()[row];
                if v.is_nan() {
                    Value::Null
                } else {
                    Value::Num(v)
                }
            })
            .collect();
        b.push_row(cells).unwrap();
    }
    b.finish()
}

/// The production discretizer's fingerprints of every continuous
/// attribute, interned into one catalog in attribute order.
fn all_trees(df: &DataFrame, outcomes: &[Outcome], st: f64) -> Vec<Fingerprint> {
    let discretizer = TreeDiscretizer::with_support(st, GainCriterion::Divergence);
    let mut catalog = ItemCatalog::new();
    df.schema()
        .continuous_ids()
        .into_iter()
        .map(|attr| {
            let governor = Governor::new(RunBudget::unbounded());
            let out = discretizer.discretize_attribute_governed(
                df,
                attr,
                outcomes,
                &mut catalog,
                &governor,
            );
            fingerprint(out, &catalog, &governor)
        })
        .collect()
}

/// The paper's datasets, with and without injected nulls, at every support
/// and under both criteria: the production discretizer equals the oracle
/// on every continuous attribute. The 25,000-row synthetic-peak columns are
/// past three times the size from which the radix sort splits on its
/// widest digit.
#[test]
fn tree_matches_oracle_on_paper_datasets() {
    for dataset in [
        compas(6_172, 3),
        folktables(8_000, 3),
        synthetic_peak(8_000, 3),
        synthetic_peak(25_000, 3),
    ] {
        let outcomes = outcomes_for(&dataset);
        let holey = inject_nulls(&dataset.frame, 0.2, 7).expect("valid null rate");
        for frame in [&dataset.frame, &holey] {
            for attr in frame.schema().continuous_ids() {
                for st in [0.01, 0.05, 0.1, 0.2, 0.33] {
                    for criterion in [GainCriterion::Divergence, GainCriterion::Entropy] {
                        let budget = RunBudget::unbounded();
                        assert_eq!(
                            production(frame, attr, &outcomes, st, criterion, budget),
                            reference(frame, attr, &outcomes, st, criterion, budget),
                            "{} {} st {st} {criterion:?}",
                            dataset.name,
                            frame.schema().name(attr),
                        );
                    }
                }
            }
        }
    }
}

/// Signed zeros share a run: no cut separates `-0.0` from `+0.0`, though
/// here it would split the outcomes perfectly, and the split value of a
/// zero run that holds a `+0.0` is `+0.0`.
#[test]
fn signed_zeros_are_one_run() {
    let case = Case {
        values: vec![-0.0, 1.0, 0.0, -0.0, 1.0, 0.0, 1.0, 1.0],
        outcomes: [true, false, false, true, false, false, false, false]
            .map(Outcome::Bool)
            .to_vec(),
    };
    let df = frame_of(&case);
    let attr = df.schema().id("x").unwrap();
    let budget = RunBudget::unbounded();
    let (st, criterion) = (0.25, GainCriterion::Divergence);
    let new = production(&df, attr, &case.outcomes, st, criterion, budget);
    assert_eq!(
        new,
        reference(&df, attr, &case.outcomes, st, criterion, budget)
    );
    assert_eq!(new.labels, ["x<=0", "x>0"]);
    let first_child = &new.nodes[1];
    assert_eq!(first_child.1, 0.0f64.to_bits(), "{new:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The production discretizer equals the oracle bit for bit, under both
    /// criteria, unbounded and under every tree-node budget.
    #[test]
    fn tree_matches_oracle(case in oracle_case(), st in oracle_support()) {
        let df = frame_of(&case);
        let attr = df.schema().id("x").unwrap();
        for criterion in [GainCriterion::Divergence, GainCriterion::Entropy] {
            check_against_oracle(&df, attr, &case.outcomes, st, criterion)?;
        }
    }

    /// Permuting the rows of a frame with boolean outcomes changes no tree:
    /// ties are broken by row, but every aggregate at a run end is an exact
    /// integer count.
    #[test]
    fn row_permutation_keeps_boolean_trees(
        columns in proptest::collection::vec(oracle_column(150), 1..4),
        outcomes in proptest::collection::vec(
            prop_oneof![4 => any::<bool>().prop_map(Outcome::Bool), 1 => Just(Outcome::Undefined)],
            150,
        ),
        shuffle in proptest::collection::vec(any::<u64>(), 150),
        st in oracle_support(),
    ) {
        let mut b = DataFrameBuilder::new();
        for c in 0..columns.len() {
            b.add_continuous(format!("x{c}")).unwrap();
        }
        for row in 0..150 {
            let cells = columns
                .iter()
                .map(|col| if col[row].is_nan() { Value::Null } else { Value::Num(col[row]) })
                .collect();
            b.push_row(cells).unwrap();
        }
        let df = b.finish();
        let mut rows: Vec<usize> = (0..150).collect();
        rows.sort_by_key(|&r| shuffle[r]);
        let shuffled_outcomes: Vec<Outcome> = rows.iter().map(|&r| outcomes[r]).collect();
        prop_assert_eq!(
            all_trees(&df, &outcomes, st),
            all_trees(&permuted(&df, &rows), &shuffled_outcomes, st)
        );
    }
}
