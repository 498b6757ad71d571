//! Bagged random forest over [`DecisionTree`]s.

use hdx_data::DataFrame;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::tree::{DecisionTree, DecisionTreeConfig};

/// Random forest hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration. `max_features = None` here means
    /// "√#attributes", chosen at fit time.
    pub tree: DecisionTreeConfig,
    /// RNG seed (bootstrap + feature sampling), for reproducibility.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 20,
            tree: DecisionTreeConfig::default(),
            seed: 0,
        }
    }
}

/// A fitted random forest (majority vote over bootstrap-trained trees).
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Fits a forest on all rows of `df` with labels `y`.
    ///
    /// # Panics
    /// Panics when `y.len() != df.n_rows()` or the frame is empty.
    pub fn fit(df: &DataFrame, y: &[bool], config: &RandomForestConfig) -> Self {
        assert_eq!(y.len(), df.n_rows(), "labels not parallel to rows");
        assert!(df.n_rows() > 0, "cannot fit on an empty frame");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = df.n_rows();
        let max_features = config
            .tree
            .max_features
            .unwrap_or_else(|| (df.n_attributes() as f64).sqrt().ceil() as usize);
        let tree_config = DecisionTreeConfig {
            max_features: Some(max_features),
            ..config.tree
        };
        let trees = (0..config.n_trees)
            .map(|_| {
                let sample: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
                DecisionTree::fit(df, y, &sample, &tree_config, &mut rng)
            })
            .collect();
        Self { trees }
    }

    /// Mean predicted probability across trees for row `row`.
    pub fn predict_prob(&self, df: &DataFrame, row: usize) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict_prob(df, row)).sum();
        sum / self.trees.len() as f64
    }

    /// Predicted labels (`prob ≥ 0.5`) for every row of `df`.
    pub fn predict(&self, df: &DataFrame) -> Vec<bool> {
        (0..df.n_rows())
            .map(|r| self.predict_prob(df, r) >= 0.5)
            .collect()
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean-decrease-in-impurity feature importances, normalised to sum
    /// to 1 (all zeros when no tree ever split).
    pub fn feature_importances(&self) -> Vec<f64> {
        let n_attrs = self.trees.first().map_or(0, |t| t.importances().len());
        let mut total = vec![0.0; n_attrs];
        for tree in &self.trees {
            for (acc, &imp) in total.iter_mut().zip(tree.importances()) {
                *acc += imp;
            }
        }
        let sum: f64 = total.iter().sum();
        if sum > 0.0 {
            for v in &mut total {
                *v /= sum;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use hdx_data::{DataFrameBuilder, Value};

    fn noisy_frame(n: usize, seed: u64) -> (DataFrame, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DataFrameBuilder::new();
        b.add_continuous("x").unwrap();
        b.add_continuous("y").unwrap();
        b.add_categorical("g").unwrap();
        let mut labels = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.random_range(0.0..1.0);
            let y: f64 = rng.random_range(0.0..1.0);
            let g = ["a", "b"][rng.random_range(0..2usize)];
            b.push_row(vec![Value::Num(x), Value::Num(y), Value::Cat(g.into())])
                .unwrap();
            let signal = x + y + f64::from(u8::from(g == "b")) * 0.3 > 1.1;
            labels.push(signal != (rng.random::<f64>() < 0.05));
        }
        (b.finish(), labels)
    }

    #[test]
    fn forest_beats_chance_and_is_deterministic() {
        let (df, y) = noisy_frame(1500, 4);
        let config = RandomForestConfig {
            n_trees: 15,
            seed: 7,
            ..RandomForestConfig::default()
        };
        let f1 = RandomForest::fit(&df, &y, &config);
        let f2 = RandomForest::fit(&df, &y, &config);
        let p1 = f1.predict(&df);
        let p2 = f2.predict(&df);
        assert_eq!(p1, p2, "same seed → same predictions");
        let m = metrics(&y, &p1);
        assert!(m.accuracy > 0.9, "accuracy = {}", m.accuracy);
        assert_eq!(f1.n_trees(), 15);
    }

    #[test]
    fn different_seeds_differ() {
        let (df, y) = noisy_frame(500, 4);
        let a = RandomForest::fit(
            &df,
            &y,
            &RandomForestConfig {
                seed: 1,
                ..RandomForestConfig::default()
            },
        );
        let b = RandomForest::fit(
            &df,
            &y,
            &RandomForestConfig {
                seed: 2,
                ..RandomForestConfig::default()
            },
        );
        // Probabilities should differ somewhere even if labels agree.
        let diff_sum: f64 = (0..df.n_rows())
            .map(|r| (a.predict_prob(&df, r) - b.predict_prob(&df, r)).abs())
            .sum();
        assert!(diff_sum > 0.0);
    }

    #[test]
    fn feature_importances_identify_the_signal() {
        // Label depends only on x; y and g are noise.
        let mut rng = StdRng::seed_from_u64(8);
        let mut b = DataFrameBuilder::new();
        b.add_continuous("x").unwrap();
        b.add_continuous("noise").unwrap();
        b.add_categorical("g").unwrap();
        let mut labels = Vec::new();
        for _ in 0..800 {
            let x: f64 = rng.random_range(0.0..1.0);
            let noise: f64 = rng.random_range(0.0..1.0);
            let g = ["a", "b"][rng.random_range(0..2usize)];
            b.push_row(vec![Value::Num(x), Value::Num(noise), Value::Cat(g.into())])
                .unwrap();
            labels.push(x > 0.5);
        }
        let df = b.finish();
        let f = RandomForest::fit(&df, &labels, &RandomForestConfig::default());
        let imp = f.feature_importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.8, "x dominates: {imp:?}");
        assert!(imp[0] > imp[1] && imp[0] > imp[2]);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (df, y) = noisy_frame(300, 11);
        let f = RandomForest::fit(&df, &y, &RandomForestConfig::default());
        for r in 0..df.n_rows() {
            let p = f.predict_prob(&df, r);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "empty frame")]
    fn empty_frame_panics() {
        let b = DataFrameBuilder::new();
        let df = b.finish();
        let _ = RandomForest::fit(&df, &[], &RandomForestConfig::default());
    }
}
