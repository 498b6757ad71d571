//! Base (non-hierarchical) divergence exploration — DivExplorer (§III-C).

use std::time::Instant;

use hdx_data::DataFrame;
use hdx_governor::{CancelToken, Governor, RunBudget};
use hdx_items::{HierarchySet, ItemCatalog};
use hdx_mining::{mine_governed, MiningConfig, Transactions};
use hdx_stats::Outcome;

use crate::polarity::mine_with_polarity_governed;
use crate::report::DivergenceReport;

/// Parameters of a divergence exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExplorationConfig {
    /// Minimum subgroup support `s`.
    pub min_support: f64,
    /// Optional cap on pattern length.
    pub max_len: Option<usize>,
    /// Mining worker threads (default 1); see [`MiningConfig::threads`].
    pub threads: usize,
    /// Whether to apply polarity pruning (§V-C).
    pub polarity_pruning: bool,
    /// Work/time limits for the run (unbounded by default). When a limit
    /// trips, the exploration degrades gracefully: the report carries a
    /// partial-but-valid subset and a non-`Complete`
    /// [`Termination`](hdx_governor::Termination).
    pub budget: RunBudget,
}

impl Default for ExplorationConfig {
    fn default() -> Self {
        Self {
            min_support: 0.05,
            max_len: None,
            threads: 1,
            polarity_pruning: false,
            budget: RunBudget::unbounded(),
        }
    }
}

impl ExplorationConfig {
    fn mining_config(&self) -> MiningConfig {
        MiningConfig {
            min_support: self.min_support,
            max_len: self.max_len,
            threads: self.threads,
        }
    }
}

/// The base explorer: frequent-itemset mining over **leaf** items with
/// divergence accumulated during mining (prior work's setting — the paper's
/// "base exploration").
#[derive(Debug, Clone, Default)]
pub struct DivExplorer {
    config: ExplorationConfig,
    cancel: CancelToken,
}

impl DivExplorer {
    /// Creates an explorer.
    pub fn new(config: ExplorationConfig) -> Self {
        Self {
            config,
            cancel: CancelToken::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ExplorationConfig {
        &self.config
    }

    /// Observes an external cancellation token (builder style): cancelling
    /// the caller's handle makes every subsequent exploration wind down at
    /// its next poll point and return partial results.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Explores the leaf items of `hierarchies` over `df`.
    pub fn explore(
        &self,
        df: &DataFrame,
        catalog: &ItemCatalog,
        hierarchies: &HierarchySet,
        outcomes: &[Outcome],
    ) -> DivergenceReport {
        let transactions = Transactions::encode_base(df, catalog, hierarchies, outcomes);
        self.explore_transactions(&transactions, catalog)
    }

    /// Explores **all** hierarchy items (generalized exploration, used by
    /// H-DivExplorer).
    pub fn explore_generalized(
        &self,
        df: &DataFrame,
        catalog: &ItemCatalog,
        hierarchies: &HierarchySet,
        outcomes: &[Outcome],
    ) -> DivergenceReport {
        let transactions = Transactions::encode_generalized(df, catalog, hierarchies, outcomes);
        self.explore_transactions(&transactions, catalog)
    }

    /// Explores pre-encoded transactions under the config's own budget and
    /// the explorer's cancellation token.
    pub fn explore_transactions(
        &self,
        transactions: &Transactions,
        catalog: &ItemCatalog,
    ) -> DivergenceReport {
        hdx_obs::span!("explore");
        let governor = Governor::with_token(self.config.budget, self.cancel.clone());
        let start = Instant::now();
        let mining = self.config.mining_config();
        let result = if self.config.polarity_pruning {
            mine_with_polarity_governed(transactions, catalog, &mining, &governor)
        } else {
            mine_governed(transactions, catalog, &mining, &governor)
        };
        DivergenceReport::from_mining(&result, catalog, start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::{DataFrameBuilder, Value};
    use hdx_items::{Interval, Item, ItemHierarchy};

    /// Dataset: error concentrated in x>50 & g=b.
    fn setup() -> (DataFrame, ItemCatalog, HierarchySet, Vec<Outcome>) {
        let mut b = DataFrameBuilder::new();
        let x = b.add_continuous("x").unwrap();
        let g = b.add_categorical("g").unwrap();
        let mut outcomes = Vec::new();
        for i in 0..200 {
            let xv = (i % 100) as f64;
            let gv = if i % 2 == 0 { "a" } else { "b" };
            b.push_row(vec![Value::Num(xv), Value::Cat(gv.into())])
                .unwrap();
            outcomes.push(Outcome::Bool(xv > 50.0 && gv == "b" && i % 8 != 0));
        }
        let df = b.finish();
        let mut catalog = ItemCatalog::new();
        let mut hx = ItemHierarchy::new(x);
        let le50 = catalog.intern(Item::range(x, Interval::at_most(50.0), "x"));
        let gt50 = catalog.intern(Item::range(x, Interval::greater_than(50.0), "x"));
        let le25 = catalog.intern(Item::range(x, Interval::at_most(25.0), "x"));
        let m = catalog.intern(Item::range(x, Interval::new(25.0, 50.0), "x"));
        hx.add_root(le50);
        hx.add_root(gt50);
        hx.add_child(le50, le25);
        hx.add_child(le50, m);
        let col = df.categorical(g).clone();
        let cat_items: Vec<_> = (0..col.n_levels() as u32)
            .map(|c| catalog.intern(Item::cat_eq(g, c, "g", col.level(c))))
            .collect();
        let mut hs = HierarchySet::new();
        hs.push(hx);
        hs.push(ItemHierarchy::flat(g, cat_items));
        (df, catalog, hs, outcomes)
    }

    #[test]
    fn base_finds_the_anomalous_intersection() {
        let (df, catalog, hs, outcomes) = setup();
        let explorer = DivExplorer::new(ExplorationConfig {
            min_support: 0.05,
            ..ExplorationConfig::default()
        });
        let report = explorer.explore(&df, &catalog, &hs, &outcomes);
        let top = report.top().unwrap();
        assert!(top.label.contains("x>50"));
        assert!(top.label.contains("g=b"));
        assert!(top.divergence.unwrap() > 0.3);
        assert!(top.t_value > 2.0);
    }

    #[test]
    fn base_uses_only_leaves() {
        let (df, catalog, hs, outcomes) = setup();
        let explorer = DivExplorer::default();
        let report = explorer.explore(&df, &catalog, &hs, &outcomes);
        // x<=50 is an internal node: never mined in base mode.
        assert!(report.records.iter().all(|r| !r.label.contains("x<=50")));
        // Its children are.
        assert!(report.records.iter().any(|r| r.label.contains("x<=25")));
    }

    #[test]
    fn generalized_includes_internal_items() {
        let (df, catalog, hs, outcomes) = setup();
        let explorer = DivExplorer::default();
        let report = explorer.explore_generalized(&df, &catalog, &hs, &outcomes);
        assert!(report.records.iter().any(|r| r.label.contains("x<=50")));
        // Generalized is a superset of base.
        let base = explorer.explore(&df, &catalog, &hs, &outcomes);
        assert!(report.records.len() > base.records.len());
        assert!(report.max_divergence() >= base.max_divergence());
    }

    #[test]
    fn polarity_pruning_preserves_top_divergence() {
        let (df, catalog, hs, outcomes) = setup();
        let full = DivExplorer::new(ExplorationConfig {
            min_support: 0.05,
            ..ExplorationConfig::default()
        });
        let pruned = DivExplorer::new(ExplorationConfig {
            min_support: 0.05,
            polarity_pruning: true,
            ..ExplorationConfig::default()
        });
        let rf = full.explore_generalized(&df, &catalog, &hs, &outcomes);
        let rp = pruned.explore_generalized(&df, &catalog, &hs, &outcomes);
        assert_eq!(rf.max_divergence(), rp.max_divergence());
        assert!(rp.records.len() <= rf.records.len());
    }

    #[test]
    fn itemset_budget_truncates_report_and_flags_partial() {
        use hdx_governor::Termination;
        let (df, catalog, hs, outcomes) = setup();
        let explorer = DivExplorer::new(ExplorationConfig {
            min_support: 0.05,
            budget: RunBudget::unbounded().with_max_itemsets(3),
            ..ExplorationConfig::default()
        });
        let report = explorer.explore_generalized(&df, &catalog, &hs, &outcomes);
        assert_eq!(report.records.len(), 3, "exactly the budgeted itemsets");
        assert_eq!(report.termination, Termination::BudgetExhausted);
        assert!(report.is_partial());
        // The truncated records are a subset of the unbounded report.
        let full = DivExplorer::new(ExplorationConfig {
            min_support: 0.05,
            ..ExplorationConfig::default()
        })
        .explore_generalized(&df, &catalog, &hs, &outcomes);
        assert!(full.termination.is_complete());
        for r in &report.records {
            let twin = full
                .records
                .iter()
                .find(|f| f.itemset == r.itemset)
                .expect("truncated record exists in full report");
            assert_eq!(twin.support, r.support);
        }
    }

    #[test]
    fn external_cancel_token_stops_exploration() {
        use hdx_governor::{CancelReason, CancelToken, Termination};
        let (df, catalog, hs, outcomes) = setup();
        let token = CancelToken::new();
        token.cancel();
        let explorer = DivExplorer::default().with_cancel_token(token);
        let report = explorer.explore_generalized(&df, &catalog, &hs, &outcomes);
        assert!(report.records.is_empty());
        assert_eq!(
            report.termination,
            Termination::Cancelled(CancelReason::User)
        );
    }
}
