//! # hdx-mining
//!
//! Frequent (generalized) itemset mining with integrated statistic
//! accumulation — the substrate behind DivExplorer and H-DivExplorer
//! (paper §III-C, §V-B, Algorithm 1).
//!
//! [`mine`] runs a depth-first tidset (Eclat-style) search, optionally
//! fanned out over worker threads ([`MiningConfig::threads`]). The paper's
//! generalized Apriori and FP-Growth (§V-B) find the same itemsets; they
//! live in `hdx-bench` as differential-test oracles and for the paper's
//! miner ablation.
//!
//! The search consumes [`Transactions`]: one cover bitset per item, built
//! straight from the data columns. In *generalized* mode each row holds its
//! attribute's matching leaf item **plus all of its hierarchy ancestors**
//! (Srikant–Agrawal extended transactions): an ancestor's cover is the union
//! of its leaves' covers. The row view [`Transactions::rows`] serves
//! row-oriented miners and brute-force recounts. Itemsets never contain two
//! items of the same attribute, which subsumes the classic "no item
//! together with its ancestor" generalized-mining rule.
//!
//! Every frequent itemset carries a [`StatAccum`](hdx_stats::StatAccum)
//! folded in during counting, so support, the statistic `f`, divergence and
//! the Welch t-value all come out of the single mining pass — the paper's
//! "divergence at essentially no additional cost" property.
//!
//! ```
//! use hdx_data::AttrId;
//! use hdx_items::{Item, ItemCatalog};
//! use hdx_mining::{mine, MiningConfig, Transactions};
//! use hdx_stats::Outcome;
//!
//! let mut catalog = ItemCatalog::new();
//! let a = catalog.intern(Item::cat_eq(AttrId(0), 0, "color", "red"));
//! let b = catalog.intern(Item::cat_eq(AttrId(1), 0, "size", "xl"));
//! let rows = vec![vec![a, b], vec![a, b], vec![a], vec![b]];
//! let outcomes = vec![
//!     Outcome::Bool(true),
//!     Outcome::Bool(true),
//!     Outcome::Bool(false),
//!     Outcome::Bool(false),
//! ];
//! let transactions = Transactions::from_rows(rows, outcomes);
//!
//! let result = mine(&transactions, &catalog, &MiningConfig {
//!     min_support: 0.5,
//!     ..MiningConfig::default()
//! });
//! // {red, xl} is frequent (2 of 4 rows) and perfectly predicts the outcome.
//! let joint = result.itemsets.iter().find(|fi| fi.itemset.len() == 2).unwrap();
//! assert_eq!(joint.accum.count(), 2);
//! assert_eq!(joint.accum.statistic(), Some(1.0));
//! assert_eq!(result.divergence(joint), Some(0.5));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Runtime validators for mining results (itemset validity, support
/// threshold, anti-monotonicity).
pub mod invariants;

mod checkpoint;
mod result;
mod transactions;
mod vertical;

pub use checkpoint::{mine_governed_ckpt, restore_itemset, snapshot_itemset, validate_resume};
pub use result::{FrequentItemset, MiningError, MiningResult};
pub use transactions::Transactions;
pub use vertical::accum_scalar;

// Re-exported so downstream crates can build budgets without depending on
// `hdx-governor` directly.
pub use hdx_governor::{CancelToken, Governor, RunBudget, RunCounters, Termination};

use hdx_checkpoint::{Checkpointer, MiningProgress};
use hdx_items::ItemCatalog;

/// Mining parameters.
#[derive(Debug, Clone, Copy)]
pub struct MiningConfig {
    /// Minimum support `s` as a fraction of the dataset.
    pub min_support: f64,
    /// Optional cap on itemset length (`None` = unbounded; `Some(0)` is
    /// refused).
    pub max_len: Option<usize>,
    /// Worker threads for the search (default 1; `0` is treated as 1).
    /// With more than one, that many workers claim the first-level
    /// subtrees from one shared cursor, lowest root first: the same
    /// itemsets, in a different order. A budget-truncated run still returns
    /// an exact subset, but which subset can differ from run to run.
    /// Clamped to the number of subtree roots (see
    /// [`MiningConfig::n_workers`]); a one-worker mine starts no thread, and
    /// checkpointed runs ([`mine_governed_ckpt`]) always search serially on
    /// the calling thread.
    pub threads: usize,
}

impl Default for MiningConfig {
    fn default() -> Self {
        Self {
            min_support: 0.05,
            max_len: None,
            threads: 1,
        }
    }
}

impl MiningConfig {
    /// The absolute row-count threshold implied by `min_support` for
    /// `n_rows` transactions: `sup(I) ≥ s  ⇔  count ≥ ⌈s·n⌉`.
    pub fn min_count(&self, n_rows: usize) -> u64 {
        (self.min_support * n_rows as f64).ceil().max(1.0) as u64
    }

    /// The worker-thread count a mine over `n_roots` subtree roots will
    /// use: [`threads`](Self::threads) floored at 1 and clamped to `n_roots`
    /// (an idle worker with no root to claim is pure overhead).
    pub fn n_workers(&self, n_roots: usize) -> usize {
        self.threads.clamp(1, n_roots.max(1))
    }
}

/// Mines all frequent itemsets of `transactions` under `config`.
///
/// Under the `debug-invariants` feature, every result is validated against
/// the mining-lattice invariants (see [`invariants`]) before it is returned.
///
/// # Panics
/// Panics when `config.min_support` is outside `(0, 1]` or
/// `config.max_len` is `Some(0)` (and, under `debug-invariants`, when the
/// produced result violates an invariant).
pub fn mine(
    transactions: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
) -> MiningResult {
    mine_governed(transactions, catalog, config, &Governor::unbounded())
}

/// [`mine`] under a [`Governor`]: the search polls the governor for
/// deadline, budgets and cancellation, and degrades to a partial-but-exact
/// subset result (see [`MiningResult::termination`]) instead of running away.
///
/// Lattice invariants are only asserted for complete runs: a truncated
/// result legitimately violates anti-monotonicity of the *emitted* set (a
/// superset can be emitted before a sibling subset's subtree is reached).
///
/// # Panics
/// Panics when `config.min_support` is outside `(0, 1]` or
/// `config.max_len` is `Some(0)` (and, under `debug-invariants`, when a
/// complete result violates an invariant).
pub fn mine_governed(
    transactions: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
    governor: &Governor,
) -> MiningResult {
    hdx_obs::span!("mine");
    search(transactions, catalog, config, governor, None, None)
}

/// The body [`mine_governed`] and [`mine_governed_ckpt`] share: the search,
/// the final checkpoint flush of a checkpointed run, the end-of-stage
/// accounting and, under `debug-invariants`, the lattice check of a
/// complete run that started from scratch (`resume` is `None`).
pub(crate) fn search(
    transactions: &Transactions,
    catalog: &ItemCatalog,
    config: &MiningConfig,
    governor: &Governor,
    mut ckpt: Option<&mut Checkpointer>,
    resume: Option<&MiningProgress>,
) -> MiningResult {
    assert!(
        config.min_support > 0.0 && config.min_support <= 1.0,
        "min_support must be in (0, 1]"
    );
    assert!(config.max_len != Some(0), "max_len must be at least 1");
    let result = vertical::vertical_run(
        transactions,
        catalog,
        config,
        governor,
        ckpt.as_deref_mut(),
        resume,
    );
    if let Some(ckpt) = ckpt {
        ckpt.finalize();
    }
    // End-of-stage budget sample (level 0): where consumption stood when the
    // search returned.
    #[cfg(feature = "obs")]
    governor.record_obs_snapshot(0);
    hdx_obs::counter_add!(MineItemsetsEmitted, result.itemsets.len() as u64);
    #[cfg(feature = "debug-invariants")]
    if resume.is_none() && result.termination.is_complete() && result.errors.is_empty() {
        invariants::assert_result(&result, catalog, config.min_count(transactions.n_rows()));
    }
    result
}

#[cfg(test)]
mod cross_tests {
    //! Thread-count equivalence tests: the search at 1 and at 4 threads must
    //! produce the same itemsets with the same accumulators. (The
    //! Apriori and FP-Growth oracles are checked against it in
    //! `tests/property_mining.rs`.)

    use super::*;
    use hdx_data::{DataFrameBuilder, Value};
    use hdx_items::{HierarchySet, Interval, Item, ItemHierarchy};
    use hdx_stats::Outcome;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    /// Random mixed frame with a hierarchy on the continuous attribute.
    fn random_setup(n: usize, seed: u64) -> (Transactions, Transactions, ItemCatalog) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DataFrameBuilder::new();
        let x = b.add_continuous("x").unwrap();
        let c = b.add_categorical("c").unwrap();
        let d = b.add_categorical("d").unwrap();
        let mut outcomes = Vec::with_capacity(n);
        for _ in 0..n {
            let xv: f64 = rng.random_range(0.0..100.0);
            let cv = ["a", "b", "c"][rng.random_range(0..3usize)];
            let dv = ["u", "v"][rng.random_range(0..2usize)];
            b.push_row(vec![
                Value::Num(xv),
                Value::Cat(cv.into()),
                Value::Cat(dv.into()),
            ])
            .unwrap();
            outcomes.push(if rng.random::<f64>() < 0.1 {
                Outcome::Undefined
            } else {
                Outcome::Bool(xv > 60.0 && rng.random::<f64>() < 0.8)
            });
        }
        let df = b.finish();
        let mut catalog = ItemCatalog::new();

        // Two-level hierarchy on x: (≤50, >50), refined at 25 and 75.
        let mut hx = ItemHierarchy::new(x);
        let le50 = catalog.intern(Item::range(x, Interval::at_most(50.0), "x"));
        let gt50 = catalog.intern(Item::range(x, Interval::greater_than(50.0), "x"));
        let le25 = catalog.intern(Item::range(x, Interval::at_most(25.0), "x"));
        let m2550 = catalog.intern(Item::range(x, Interval::new(25.0, 50.0), "x"));
        let m5075 = catalog.intern(Item::range(x, Interval::new(50.0, 75.0), "x"));
        let gt75 = catalog.intern(Item::range(x, Interval::greater_than(75.0), "x"));
        hx.add_root(le50);
        hx.add_root(gt50);
        hx.add_child(le50, le25);
        hx.add_child(le50, m2550);
        hx.add_child(gt50, m5075);
        hx.add_child(gt50, gt75);

        let mut hierarchies = HierarchySet::new();
        hierarchies.push(hx);
        for (attr, name) in [(c, "c"), (d, "d")] {
            let col = df.categorical(attr).clone();
            let items: Vec<_> = (0..col.n_levels() as u32)
                .map(|code| catalog.intern(Item::cat_eq(attr, code, name, col.level(code))))
                .collect();
            hierarchies.push(ItemHierarchy::flat(attr, items));
        }
        let base = Transactions::encode_base(&df, &catalog, &hierarchies, &outcomes);
        let gen = Transactions::encode_generalized(&df, &catalog, &hierarchies, &outcomes);
        (base, gen, catalog)
    }

    fn sorted_result(r: &MiningResult) -> Vec<(Vec<u32>, u64, u64)> {
        let mut v: Vec<(Vec<u32>, u64, u64)> = r
            .itemsets
            .iter()
            .map(|fi| {
                (
                    fi.itemset.items().iter().map(|i| i.0).collect(),
                    fi.accum.count(),
                    fi.accum.valid_count(),
                )
            })
            .collect();
        v.sort();
        v
    }

    /// The search at 1 and at 4 threads.
    fn serial_and_parallel(
        t: &Transactions,
        catalog: &ItemCatalog,
        config: &MiningConfig,
    ) -> [MiningResult; 2] {
        [1, 4].map(|threads| mine(t, catalog, &MiningConfig { threads, ..*config }))
    }

    #[test]
    fn all_miners_agree_base() {
        let (base, _, catalog) = random_setup(400, 42);
        for support in [0.02, 0.05, 0.2] {
            let config = MiningConfig {
                min_support: support,
                ..MiningConfig::default()
            };
            let [serial, parallel] = serial_and_parallel(&base, &catalog, &config);
            assert!(!serial.itemsets.is_empty());
            assert_eq!(
                sorted_result(&parallel),
                sorted_result(&serial),
                "4 threads vs 1, s={support}"
            );
        }
    }

    #[test]
    fn all_miners_agree_generalized() {
        let (_, gen, catalog) = random_setup(400, 7);
        for support in [0.05, 0.1] {
            let config = MiningConfig {
                min_support: support,
                ..MiningConfig::default()
            };
            let [serial, parallel] = serial_and_parallel(&gen, &catalog, &config);
            assert_eq!(
                sorted_result(&parallel),
                sorted_result(&serial),
                "4 threads vs 1, s={support}"
            );
        }
    }

    #[test]
    fn generalized_results_superset_of_base() {
        let (base, gen, catalog) = random_setup(300, 99);
        let config = MiningConfig {
            min_support: 0.05,
            ..MiningConfig::default()
        };
        let b = mine(&base, &catalog, &config);
        let g = mine(&gen, &catalog, &config);
        let gset: std::collections::HashSet<_> =
            g.itemsets.iter().map(|fi| fi.itemset.clone()).collect();
        for fi in &b.itemsets {
            assert!(
                gset.contains(&fi.itemset),
                "base itemset missing from generalized mining"
            );
        }
        assert!(g.itemsets.len() > b.itemsets.len());
    }

    #[test]
    fn max_len_caps_itemset_size() {
        let (base, _, catalog) = random_setup(300, 5);
        let config = MiningConfig {
            min_support: 0.02,
            max_len: Some(2),
            threads: 1,
        };
        for r in serial_and_parallel(&base, &catalog, &config) {
            assert!(r.itemsets.iter().all(|fi| fi.itemset.len() <= 2));
            assert!(r.itemsets.iter().any(|fi| fi.itemset.len() == 2));
        }
    }

    #[test]
    #[should_panic(expected = "max_len must be at least 1")]
    fn zero_max_len_rejected() {
        let (base, _, catalog) = random_setup(10, 1);
        let _ = mine(
            &base,
            &catalog,
            &MiningConfig {
                max_len: Some(0),
                ..MiningConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "min_support")]
    fn zero_support_rejected() {
        let (base, _, catalog) = random_setup(10, 1);
        let _ = mine(
            &base,
            &catalog,
            &MiningConfig {
                min_support: 0.0,
                ..MiningConfig::default()
            },
        );
    }
}
