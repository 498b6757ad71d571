//! CART-style decision tree for binary classification (Gini impurity).

use hdx_data::{AttrId, AttributeKind, DataFrame, NULL_CODE};
use rand::seq::SliceRandom;
use rand::Rng;

/// Decision tree hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum rows needed to attempt a split.
    pub min_samples_split: usize,
    /// Minimum rows in each child.
    pub min_samples_leaf: usize,
    /// Number of attributes sampled per split (`None` = all; random forests
    /// pass ~√#attributes).
    pub max_features: Option<usize>,
    /// Maximum candidate thresholds evaluated per continuous attribute
    /// (evenly spaced order statistics; keeps training near-linear).
    pub max_thresholds: usize,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            max_thresholds: 32,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Probability of the positive class among training rows.
        prob: f64,
    },
    SplitNum {
        attr: AttrId,
        threshold: f64,
        /// `value ≤ threshold` (and nulls) go left.
        left: usize,
        right: usize,
    },
    SplitCat {
        attr: AttrId,
        code: u32,
        /// `value = code` goes left; other levels and nulls go right.
        left: usize,
        right: usize,
    },
}

/// A fitted binary classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    /// Per-attribute accumulated impurity decrease (importance).
    importance: Vec<f64>,
}

fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

/// Weighted Gini of a candidate split.
fn split_gini(lp: f64, ln: f64, rp: f64, rn: f64) -> f64 {
    let l = lp + ln;
    let r = rp + rn;
    let total = l + r;
    (l / total) * gini(lp, l) + (r / total) * gini(rp, r)
}

impl DecisionTree {
    /// Fits a tree on the rows `rows` of `df` with boolean labels `y`.
    ///
    /// # Panics
    /// Panics when `y.len() != df.n_rows()` or `rows` is empty.
    pub fn fit<R: Rng + ?Sized>(
        df: &DataFrame,
        y: &[bool],
        rows: &[usize],
        config: &DecisionTreeConfig,
        rng: &mut R,
    ) -> Self {
        assert_eq!(y.len(), df.n_rows(), "labels not parallel to rows");
        assert!(!rows.is_empty(), "cannot fit on an empty sample");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            importance: vec![0.0; df.n_attributes()],
        };
        tree.grow(df, y, rows, 0, config, rng);
        tree
    }

    /// Per-attribute importance: total weighted Gini impurity decrease
    /// contributed by this tree's splits (unnormalised).
    pub fn importances(&self) -> &[f64] {
        &self.importance
    }

    /// Grows a node over `rows`, returning its index.
    fn grow<R: Rng + ?Sized>(
        &mut self,
        df: &DataFrame,
        y: &[bool],
        rows: &[usize],
        depth: usize,
        config: &DecisionTreeConfig,
        rng: &mut R,
    ) -> usize {
        let pos = rows.iter().filter(|&&r| y[r]).count();
        let prob = pos as f64 / rows.len() as f64;
        let make_leaf = depth >= config.max_depth
            || rows.len() < config.min_samples_split
            || pos == 0
            || pos == rows.len();
        if !make_leaf {
            if let Some((attr, split, gain)) = self.best_split(df, y, rows, config, rng) {
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = match split {
                    SplitKind::Num(threshold) => {
                        let vals = df.continuous(attr).values();
                        rows.iter()
                            .partition(|&&r| vals[r].is_nan() || vals[r] <= threshold)
                    }
                    SplitKind::Cat(code) => {
                        let codes = df.categorical(attr).codes();
                        rows.iter().partition(|&&r| codes[r] == code)
                    }
                };
                if left_rows.len() >= config.min_samples_leaf
                    && right_rows.len() >= config.min_samples_leaf
                {
                    // Importance: impurity decrease weighted by node size.
                    self.importance[attr.index()] += gain * rows.len() as f64;
                    let idx = self.nodes.len();
                    // Reserve the slot; children indices patched below.
                    self.nodes.push(Node::Leaf { prob });
                    let left = self.grow(df, y, &left_rows, depth + 1, config, rng);
                    let right = self.grow(df, y, &right_rows, depth + 1, config, rng);
                    self.nodes[idx] = match split {
                        SplitKind::Num(threshold) => Node::SplitNum {
                            attr,
                            threshold,
                            left,
                            right,
                        },
                        SplitKind::Cat(code) => Node::SplitCat {
                            attr,
                            code,
                            left,
                            right,
                        },
                    };
                    return idx;
                }
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { prob });
        idx
    }

    fn best_split<R: Rng + ?Sized>(
        &self,
        df: &DataFrame,
        y: &[bool],
        rows: &[usize],
        config: &DecisionTreeConfig,
        rng: &mut R,
    ) -> Option<(AttrId, SplitKind, f64)> {
        let mut attrs: Vec<AttrId> = df.schema().iter().map(|(id, _)| id).collect();
        if let Some(k) = config.max_features {
            attrs.shuffle(rng);
            attrs.truncate(k.max(1));
        }
        let total_pos = rows.iter().filter(|&&r| y[r]).count() as f64;
        let total = rows.len() as f64;
        let parent = gini(total_pos, total);
        let mut best: Option<(f64, AttrId, SplitKind)> = None;
        for attr in attrs {
            let candidate = match df.schema().kind(attr) {
                AttributeKind::Continuous => {
                    self.best_numeric_split(df, y, rows, attr, total_pos, config)
                }
                AttributeKind::Categorical => self.best_categorical_split(df, y, rows, attr),
            };
            if let Some((g, split)) = candidate {
                if g < parent - 1e-12 && best.as_ref().is_none_or(|(bg, _, _)| g < *bg) {
                    best = Some((g, attr, split));
                }
            }
        }
        best.map(|(g, attr, split)| (attr, split, parent - g))
    }

    /// Best `value ≤ t` split of a continuous attribute: sort the node's
    /// values once, then scan candidate order statistics with running
    /// positive counts.
    fn best_numeric_split(
        &self,
        df: &DataFrame,
        y: &[bool],
        rows: &[usize],
        attr: AttrId,
        total_pos: f64,
        config: &DecisionTreeConfig,
    ) -> Option<(f64, SplitKind)> {
        let vals = df.continuous(attr).values();
        let mut sorted: Vec<usize> = rows.to_vec();
        sorted.sort_by(|&a, &b| {
            let (va, vb) = (vals[a], vals[b]);
            // Nulls first (they route left with any threshold).
            va.partial_cmp(&vb)
                .unwrap_or_else(|| vb.is_nan().cmp(&va.is_nan()))
        });
        let n = sorted.len();
        let total = n as f64;
        let step = (n / config.max_thresholds.max(1)).max(1);
        let mut best: Option<(f64, f64)> = None; // (gini, threshold)
        let mut left_pos = 0.0;
        let mut left_n = 0.0;
        for (i, &r) in sorted.iter().enumerate() {
            left_pos += f64::from(u8::from(y[r]));
            left_n += 1.0;
            if i + 1 >= n {
                break;
            }
            let (v, next) = (vals[r], vals[sorted[i + 1]]);
            if v.is_nan() || next.is_nan() || v >= next {
                continue; // not a boundary
            }
            if i % step != 0 && n > config.max_thresholds {
                continue; // thinned candidate set
            }
            let g = split_gini(
                left_pos,
                left_n - left_pos,
                total_pos - left_pos,
                (total - left_n) - (total_pos - left_pos),
            );
            if best.is_none_or(|(bg, _)| g < bg) {
                best = Some((g, v));
            }
        }
        best.map(|(g, t)| (g, SplitKind::Num(t)))
    }

    /// Best one-vs-rest split of a categorical attribute.
    fn best_categorical_split(
        &self,
        df: &DataFrame,
        y: &[bool],
        rows: &[usize],
        attr: AttrId,
    ) -> Option<(f64, SplitKind)> {
        let col = df.categorical(attr);
        let codes = col.codes();
        let n_levels = col.n_levels();
        if n_levels < 2 {
            return None;
        }
        let mut per_level = vec![(0usize, 0usize); n_levels]; // (pos, count)
        let mut total_pos = 0usize;
        for &r in rows {
            let c = codes[r];
            if c != NULL_CODE {
                per_level[c as usize].1 += 1;
                if y[r] {
                    per_level[c as usize].0 += 1;
                }
            }
            if y[r] {
                total_pos += 1;
            }
        }
        let total = rows.len();
        let mut best: Option<(f64, u32)> = None;
        for (code, &(lp, ln)) in per_level.iter().enumerate() {
            if ln == 0 || ln == total {
                continue;
            }
            let g = split_gini(
                lp as f64,
                (ln - lp) as f64,
                (total_pos - lp) as f64,
                ((total - ln) - (total_pos - lp)) as f64,
            );
            if best.is_none_or(|(bg, _)| g < bg) {
                best = Some((g, code as u32));
            }
        }
        best.map(|(g, c)| (g, SplitKind::Cat(c)))
    }

    /// Predicted probability of the positive class for row `row`.
    pub fn predict_prob(&self, df: &DataFrame, row: usize) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { prob } => return *prob,
                Node::SplitNum {
                    attr,
                    threshold,
                    left,
                    right,
                } => {
                    let v = df.continuous(*attr).values()[row];
                    idx = if v.is_nan() || v <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
                Node::SplitCat {
                    attr,
                    code,
                    left,
                    right,
                } => {
                    idx = if df.categorical(*attr).code(row) == *code {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicted labels (`prob ≥ 0.5`) for every row of `df`.
    pub fn predict(&self, df: &DataFrame) -> Vec<bool> {
        (0..df.n_rows())
            .map(|r| self.predict_prob(df, r) >= 0.5)
            .collect()
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[derive(Debug, Clone, Copy)]
enum SplitKind {
    Num(f64),
    Cat(u32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use hdx_data::{DataFrameBuilder, Value};
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn xor_frame(n: usize, seed: u64) -> (DataFrame, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DataFrameBuilder::new();
        b.add_continuous("x").unwrap();
        b.add_continuous("y").unwrap();
        let mut labels = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.random_range(0.0..1.0);
            let y: f64 = rng.random_range(0.0..1.0);
            b.push_row(vec![Value::Num(x), Value::Num(y)]).unwrap();
            labels.push((x > 0.5) != (y > 0.5));
        }
        (b.finish(), labels)
    }

    #[test]
    fn learns_xor() {
        let (df, y) = xor_frame(2000, 3);
        let rows: Vec<usize> = (0..df.n_rows()).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&df, &y, &rows, &DecisionTreeConfig::default(), &mut rng);
        let pred = tree.predict(&df);
        let m = metrics(&y, &pred);
        assert!(m.accuracy > 0.95, "accuracy = {}", m.accuracy);
    }

    #[test]
    fn categorical_split_works() {
        let mut b = DataFrameBuilder::new();
        b.add_categorical("g").unwrap();
        let mut labels = Vec::new();
        for i in 0..300 {
            let g = ["a", "b", "c"][i % 3];
            b.push_row(vec![Value::Cat(g.into())]).unwrap();
            labels.push(g == "b");
        }
        let df = b.finish();
        let rows: Vec<usize> = (0..df.n_rows()).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(
            &df,
            &labels,
            &rows,
            &DecisionTreeConfig::default(),
            &mut rng,
        );
        let pred = tree.predict(&df);
        assert_eq!(metrics(&labels, &pred).accuracy, 1.0);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut b = DataFrameBuilder::new();
        b.add_continuous("x").unwrap();
        for i in 0..50 {
            b.push_row(vec![Value::Num(i as f64)]).unwrap();
        }
        let df = b.finish();
        let labels = vec![true; 50];
        let rows: Vec<usize> = (0..50).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(
            &df,
            &labels,
            &rows,
            &DecisionTreeConfig::default(),
            &mut rng,
        );
        assert_eq!(tree.n_nodes(), 1);
        assert!(tree.predict(&df).iter().all(|&p| p));
    }

    #[test]
    fn max_depth_zero_gives_majority_vote() {
        let (df, y) = xor_frame(500, 9);
        let rows: Vec<usize> = (0..df.n_rows()).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let config = DecisionTreeConfig {
            max_depth: 0,
            ..DecisionTreeConfig::default()
        };
        let tree = DecisionTree::fit(&df, &y, &rows, &config, &mut rng);
        assert_eq!(tree.n_nodes(), 1);
        let pred = tree.predict(&df);
        assert!(pred.iter().all(|&p| p == pred[0]), "constant prediction");
    }

    #[test]
    fn nulls_route_left_without_panic() {
        let mut b = DataFrameBuilder::new();
        b.add_continuous("x").unwrap();
        let mut labels = Vec::new();
        for i in 0..200 {
            if i % 10 == 0 {
                b.push_row(vec![Value::Null]).unwrap();
            } else {
                b.push_row(vec![Value::Num(i as f64)]).unwrap();
            }
            labels.push(i >= 100);
        }
        let df = b.finish();
        let rows: Vec<usize> = (0..200).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let tree = DecisionTree::fit(
            &df,
            &labels,
            &rows,
            &DecisionTreeConfig::default(),
            &mut rng,
        );
        let pred = tree.predict(&df);
        assert_eq!(pred.len(), 200);
        // Non-null rows should be classified nearly perfectly.
        let ok = (0..200)
            .filter(|&i| i % 10 != 0)
            .filter(|&i| pred[i] == labels[i])
            .count();
        assert!(ok >= 170, "ok = {ok}");
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let (df, y) = xor_frame(10, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = DecisionTree::fit(&df, &y, &[], &DecisionTreeConfig::default(), &mut rng);
    }
}
