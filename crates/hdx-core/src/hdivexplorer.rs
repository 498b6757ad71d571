//! H-DivExplorer: the full hierarchical pipeline (paper §V, Algorithm 1).
//!
//! 1. **Hierarchical discretization** — every continuous attribute is turned
//!    into an item hierarchy by the divergence-aware tree discretizer;
//!    categorical attributes contribute their levels (plus taxonomy groups
//!    when supplied).
//! 2. **Generalized divergence subgroup extraction** — generalized frequent
//!    itemset mining over items at *all* granularity levels, with divergence
//!    accumulated during mining, optionally polarity-pruned.
//!
//! Every fit runs one stage sequence: `discretize_and_encode`, then
//! `mine_ladder`. The checkpointed runs (`resume.rs`) differ only in the
//! mining call of each adaptive-support rung.

use std::time::{Duration, Instant};

use hdx_data::{AttributeKind, DataFrame};
use hdx_discretize::{DiscretizationTree, GainCriterion, TreeDiscretizer, TreeDiscretizerConfig};
use hdx_governor::{CancelToken, Governor, RunBudget, RunCounters, Termination};
use hdx_items::{HierarchySet, Item, ItemCatalog, ItemHierarchy, Taxonomy};
use hdx_mining::{mine_governed, MiningConfig, Transactions};
use hdx_stats::Outcome;

use crate::error::CoreError;
use crate::polarity::mine_with_polarity_governed;
use crate::report::DivergenceReport;
use crate::resume::Checkpointing;

/// Whether to explore leaf items only (prior work) or the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplorationMode {
    /// Leaf items only ("Tree discretization, base" in Table III).
    Base,
    /// All hierarchy levels ("Tree discretization, generalized"; default).
    #[default]
    Generalized,
}

/// Configuration of the H-DivExplorer pipeline.
#[derive(Debug, Clone, Copy)]
pub struct HDivExplorerConfig {
    /// Minimum subgroup support `s` (exploration).
    pub min_support: f64,
    /// Minimum tree-node support `st` (discretization; the paper uses
    /// `st = 0.1` throughout its experiments).
    pub tree_min_support: f64,
    /// Split gain criterion for the discretization trees.
    pub criterion: GainCriterion,
    /// Optional cap on pattern length.
    pub max_len: Option<usize>,
    /// Mining worker threads (default 1); see
    /// [`MiningConfig::threads`](hdx_mining::MiningConfig::threads).
    /// Checkpointed runs always mine serially.
    pub threads: usize,
    /// Whether to apply polarity pruning (§V-C).
    pub polarity_pruning: bool,
    /// Work/time limits for the whole run. The discretization stage charges
    /// tree nodes; the mining stage charges itemsets and candidate bytes;
    /// the deadline and the cancel token span both stages.
    pub budget: RunBudget,
    /// When the mining stage exhausts its budget, retry with the minimum
    /// support doubled (up to [`ADAPTIVE_MAX_SUPPORT`], at most
    /// [`ADAPTIVE_MAX_RETRIES`] times): a coarser-but-complete exploration
    /// often fits where a fine-grained one cannot.
    pub adaptive_support: bool,
}

/// Ceiling for [`HDivExplorerConfig::adaptive_support`] retries.
pub const ADAPTIVE_MAX_SUPPORT: f64 = 0.5;
/// Maximum number of adaptive-support retries.
pub const ADAPTIVE_MAX_RETRIES: u32 = 4;

impl Default for HDivExplorerConfig {
    fn default() -> Self {
        Self {
            min_support: 0.05,
            tree_min_support: 0.1,
            criterion: GainCriterion::Divergence,
            max_len: None,
            threads: 1,
            polarity_pruning: false,
            budget: RunBudget::unbounded(),
            adaptive_support: false,
        }
    }
}

impl HDivExplorerConfig {
    /// The adaptive-support ladder: rung `r` is the minimum support after
    /// `r` retries, each doubling the last up to [`ADAPTIVE_MAX_SUPPORT`].
    /// Without [`adaptive_support`](Self::adaptive_support) the ladder is
    /// the configured support alone.
    pub(crate) fn support_ladder(&self) -> Vec<f64> {
        let retries = if self.adaptive_support {
            ADAPTIVE_MAX_RETRIES as usize
        } else {
            0
        };
        std::iter::successors(Some(self.min_support), |&s| {
            (s < ADAPTIVE_MAX_SUPPORT).then(|| (s * 2.0).min(ADAPTIVE_MAX_SUPPORT))
        })
        .take(1 + retries)
        .collect()
    }

    fn tree(&self) -> TreeDiscretizerConfig {
        TreeDiscretizerConfig {
            min_support: self.tree_min_support,
            criterion: self.criterion,
        }
    }
}

/// The result of a full H-DivExplorer run.
#[derive(Debug, Clone)]
pub struct HDivResult {
    /// Ranked divergent subgroups.
    pub report: DivergenceReport,
    /// All interned items.
    pub catalog: ItemCatalog,
    /// The hierarchical discretization `Γ` that was explored.
    pub hierarchies: HierarchySet,
    /// The discretization trees (one per continuous attribute), for
    /// inspection and Fig. 1-style rendering.
    pub trees: Vec<DiscretizationTree>,
    /// Wall-clock time of the discretization step.
    pub discretization_time: Duration,
    /// Number of adaptive-support retries the mining stage performed
    /// (always 0 unless [`HDivExplorerConfig::adaptive_support`] is set).
    pub adaptive_retries: u32,
    /// The minimum support the final mining pass actually ran with (equals
    /// the configured `min_support` unless adaptive retries raised it).
    pub effective_min_support: f64,
}

impl HDivResult {
    /// How the run ended, across both pipeline stages (the worst stage
    /// outcome; also stamped on [`report`](Self::report)).
    pub fn termination(&self) -> Termination {
        self.report.termination
    }

    /// Work charged across both pipeline stages.
    pub fn counters(&self) -> RunCounters {
        self.report.counters
    }

    /// Whether the run degraded (tripped a limit, was cancelled, or lost a
    /// worker) and the report is a partial-but-valid subset.
    pub fn is_partial(&self) -> bool {
        self.report.is_partial()
    }
}

/// The hierarchical subgroup discovery pipeline.
#[derive(Debug, Clone, Default)]
pub struct HDivExplorer {
    pub(crate) config: HDivExplorerConfig,
    taxonomies: Vec<(String, Taxonomy)>,
    pub(crate) cancel: CancelToken,
}

impl HDivExplorer {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: HDivExplorerConfig) -> Self {
        Self {
            config,
            taxonomies: Vec::new(),
            cancel: CancelToken::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HDivExplorerConfig {
        &self.config
    }

    /// Observes an external cancellation token (builder style): cancelling
    /// the caller's handle stops both pipeline stages at their next poll
    /// point; [`fit`](Self::fit) then returns whatever was computed so far
    /// with [`Termination::Cancelled`].
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attaches a taxonomy to a categorical attribute (builder style).
    pub fn with_taxonomy(mut self, attr_name: impl Into<String>, taxonomy: Taxonomy) -> Self {
        self.taxonomies.push((attr_name.into(), taxonomy));
        self
    }

    /// Discovers taxonomies from approximate functional dependencies between
    /// the categorical attributes of `df` (§IV-B) and attaches them,
    /// skipping attributes that already have an explicit taxonomy.
    ///
    /// `tolerance` is the admissible fraction of FD-violating rows
    /// (0.0 = exact dependencies only).
    pub fn with_discovered_taxonomies(mut self, df: &DataFrame, tolerance: f64) -> Self {
        for (attr_name, taxonomy) in hdx_items::discover_fd_taxonomies(df, tolerance) {
            if !self.taxonomies.iter().any(|(name, _)| *name == attr_name) {
                self.taxonomies.push((attr_name, taxonomy));
            }
        }
        self
    }

    /// Runs discretization only: builds the catalog, the hierarchy set `Γ`
    /// and the per-attribute trees.
    pub fn discretize(
        &self,
        df: &DataFrame,
        outcomes: &[Outcome],
    ) -> (ItemCatalog, HierarchySet, Vec<DiscretizationTree>) {
        self.discretize_governed(df, outcomes, &Governor::unbounded())
    }

    /// [`discretize`](Self::discretize) under a [`Governor`]: tree nodes
    /// are charged against `max_tree_nodes`, and a tripped governor leaves
    /// the remaining attributes with coarser (or empty) hierarchies.
    pub fn discretize_governed(
        &self,
        df: &DataFrame,
        outcomes: &[Outcome],
        governor: &Governor,
    ) -> (ItemCatalog, HierarchySet, Vec<DiscretizationTree>) {
        hdx_obs::span!("discretize");
        let mut catalog = ItemCatalog::new();
        let mut hierarchies = HierarchySet::new();
        let mut trees = Vec::new();
        let discretizer = TreeDiscretizer::new(self.config.tree());
        for (attr, attribute) in df.schema().iter() {
            match attribute.kind() {
                AttributeKind::Continuous => {
                    let (hierarchy, tree) = discretizer.discretize_attribute_governed(
                        df,
                        attr,
                        outcomes,
                        &mut catalog,
                        governor,
                    );
                    if !hierarchy.is_empty() {
                        hierarchies.push(hierarchy);
                    }
                    trees.push(tree);
                }
                AttributeKind::Categorical => {
                    let column = df.categorical(attr);
                    let taxonomy = self
                        .taxonomies
                        .iter()
                        .find(|(name, _)| name == attribute.name())
                        .map(|(_, t)| t);
                    let hierarchy = match taxonomy {
                        Some(t) => t.build(attr, attribute.name(), column, &mut catalog),
                        None => {
                            let items: Vec<_> = (0..column.n_levels() as u32)
                                .map(|code| {
                                    catalog.intern(Item::cat_eq(
                                        attr,
                                        code,
                                        attribute.name(),
                                        column.level(code),
                                    ))
                                })
                                .collect();
                            ItemHierarchy::flat(attr, items)
                        }
                    };
                    if !hierarchy.is_empty() {
                        hierarchies.push(hierarchy);
                    }
                }
            }
        }
        (catalog, hierarchies, trees)
    }

    /// Runs the full pipeline in [`ExplorationMode::Generalized`].
    ///
    /// # Panics
    /// Panics when `outcomes.len() != df.n_rows()`; use [`Self::try_fit`]
    /// for a fallible variant.
    pub fn fit(&self, df: &DataFrame, outcomes: &[Outcome]) -> HDivResult {
        self.fit_mode(df, outcomes, ExplorationMode::Generalized)
    }

    /// Fallible variant of [`Self::fit`]: returns a typed error instead of
    /// panicking on malformed input.
    pub fn try_fit(&self, df: &DataFrame, outcomes: &[Outcome]) -> Result<HDivResult, CoreError> {
        self.try_fit_mode(df, outcomes, ExplorationMode::Generalized)
    }

    /// Runs the full pipeline in the given exploration mode.
    ///
    /// # Panics
    /// Panics when `outcomes.len() != df.n_rows()`; use
    /// [`Self::try_fit_mode`] for a fallible variant.
    pub fn fit_mode(
        &self,
        df: &DataFrame,
        outcomes: &[Outcome],
        mode: ExplorationMode,
    ) -> HDivResult {
        assert_eq!(outcomes.len(), df.n_rows(), "outcomes not parallel to rows");
        self.mine_ladder(self.discretize_and_encode(df, outcomes, mode), 0, None)
    }

    /// Fallible variant of [`Self::fit_mode`]: returns a typed error instead
    /// of panicking on malformed input.
    pub fn try_fit_mode(
        &self,
        df: &DataFrame,
        outcomes: &[Outcome],
        mode: ExplorationMode,
    ) -> Result<HDivResult, CoreError> {
        self.validate_inputs(df, outcomes)?;
        Ok(self.fit_mode(df, outcomes, mode))
    }

    /// The shared input validation of the fallible entry points
    /// ([`try_fit_mode`](Self::try_fit_mode) and the checkpointed runs).
    pub(crate) fn validate_inputs(
        &self,
        df: &DataFrame,
        outcomes: &[Outcome],
    ) -> Result<(), CoreError> {
        if outcomes.len() != df.n_rows() {
            return Err(CoreError::OutcomeLengthMismatch {
                expected: df.n_rows(),
                found: outcomes.len(),
            });
        }
        if !(self.config.min_support > 0.0 && self.config.min_support <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "min_support",
                message: format!("must be in (0, 1], got {}", self.config.min_support),
            });
        }
        if !(self.config.tree_min_support > 0.0 && self.config.tree_min_support < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "tree_min_support",
                message: format!("must be in (0, 1), got {}", self.config.tree_min_support),
            });
        }
        Ok(())
    }

    /// The stages before mining, shared by every fit: discretization under
    /// its own [`Governor`], then one encode. `outcomes` has already been
    /// validated against `df`.
    pub(crate) fn discretize_and_encode(
        &self,
        df: &DataFrame,
        outcomes: &[Outcome],
        mode: ExplorationMode,
    ) -> Encoded {
        let start = Instant::now();
        let disc_governor = Governor::with_token(self.config.budget, self.cancel.clone());
        let (catalog, hierarchies, trees) = self.discretize_governed(df, outcomes, &disc_governor);
        let discretization_time = start.elapsed();
        let transactions = match mode {
            ExplorationMode::Base => {
                Transactions::encode_base(df, &catalog, &hierarchies, outcomes)
            }
            ExplorationMode::Generalized => {
                Transactions::encode_generalized(df, &catalog, &hierarchies, outcomes)
            }
        };
        Encoded {
            start,
            disc_governor,
            catalog,
            hierarchies,
            trees,
            discretization_time,
            transactions,
        }
    }

    /// Mines the support ladder from `first_rung` and assembles the result:
    /// the second half of every fit, after
    /// [`discretize_and_encode`](Self::discretize_and_encode).
    ///
    /// Each rung mines under a governor of its own, apart from the
    /// discretizer's, so that a budget trip in one stage (say, the
    /// tree-node cap) degrades *that* stage without starving the next: a
    /// coarser discretization is still worth mining. The wall-clock
    /// deadline and the cancel token span the whole run. `ckpt` picks how a
    /// rung is mined: in memory, or serially with checkpoints (see
    /// [`fit_checkpointed`](Self::fit_checkpointed)).
    pub(crate) fn mine_ladder(
        &self,
        fit: Encoded,
        first_rung: usize,
        mut ckpt: Option<&mut Checkpointing>,
    ) -> HDivResult {
        let budget = self.config.budget;
        let (transactions, catalog) = (&fit.transactions, &fit.catalog);
        // The encoding does not depend on the support threshold, so every
        // rung of the ladder mines these transactions.
        let ladder = self.config.support_ladder();
        let mut rung = first_rung;
        let (mut report, mine_governor) = loop {
            hdx_obs::span!("explore");
            let elapsed = fit.start.elapsed();
            let rung_budget = RunBudget {
                deadline: budget.deadline.map(|d| d.saturating_sub(elapsed)),
                ..budget
            };
            let mining = MiningConfig {
                min_support: ladder[rung],
                max_len: self.config.max_len,
                threads: self.config.threads,
            };
            let mine_start = Instant::now();
            let (mined, governor) = match ckpt.as_deref_mut() {
                None => {
                    let governor = Governor::with_token(rung_budget, self.cancel.clone());
                    let mined = if self.config.polarity_pruning {
                        mine_with_polarity_governed(transactions, catalog, &mining, &governor)
                    } else {
                        mine_governed(transactions, catalog, &mining, &governor)
                    };
                    (mined, governor)
                }
                Some(ckpt) => ckpt.mine_rung(
                    rung,
                    transactions,
                    catalog,
                    &mining,
                    rung_budget,
                    &self.cancel,
                ),
            };
            let report = DivergenceReport::from_mining(&mined, catalog, mine_start.elapsed());
            // Adaptive degradation: trade granularity for completeness by
            // climbing to the next rung (the ladder has one rung unless
            // `adaptive_support` is set). Only budget trips qualify — a
            // deadline or cancellation would cut the retry short too.
            if report.termination == Termination::BudgetExhausted && rung + 1 < ladder.len() {
                rung += 1;
                continue;
            }
            break (report, governor);
        };
        // The report speaks for the whole run: worst stage outcome, summed
        // stage counters.
        let disc = &fit.disc_governor;
        report.termination = report.termination.worst(disc.termination());
        report.counters = mine_governor.counters().merged(disc.counters());
        HDivResult {
            report,
            catalog: fit.catalog,
            hierarchies: fit.hierarchies,
            trees: fit.trees,
            discretization_time: fit.discretization_time,
            adaptive_retries: rung as u32,
            effective_min_support: ladder[rung],
        }
    }
}

/// A fit after discretization and encoding: everything the support ladder
/// mines over.
pub(crate) struct Encoded {
    /// When the fit started; each rung gets what remains of the deadline.
    start: Instant,
    disc_governor: Governor,
    catalog: ItemCatalog,
    hierarchies: HierarchySet,
    pub(crate) trees: Vec<DiscretizationTree>,
    discretization_time: Duration,
    pub(crate) transactions: Transactions,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome_fn::OutcomeFn;
    use hdx_data::{DataFrameBuilder, Value};
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    /// Synthetic dataset with an anomaly needing *coarse* granularity on two
    /// attributes at once: errors cluster where x>60 AND y>60.
    fn setup(n: usize) -> (DataFrame, Vec<Outcome>) {
        let mut rng = StdRng::seed_from_u64(13);
        let mut b = DataFrameBuilder::new();
        b.add_continuous("x").unwrap();
        b.add_continuous("y").unwrap();
        b.add_categorical("g").unwrap();
        let mut y_true = Vec::new();
        let mut y_pred = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.random_range(0.0..100.0);
            let y: f64 = rng.random_range(0.0..100.0);
            let g = ["a", "b", "c"][rng.random_range(0..3usize)];
            b.push_row(vec![Value::Num(x), Value::Num(y), Value::Cat(g.into())])
                .unwrap();
            let truth = rng.random::<f64>() < 0.5;
            let err = x > 60.0 && y > 60.0 && rng.random::<f64>() < 0.9;
            y_true.push(truth);
            y_pred.push(truth != err);
        }
        (b.finish(), OutcomeFn::ErrorRate.compute(&y_true, &y_pred))
    }

    #[test]
    fn pipeline_discovers_injected_anomaly() {
        let (df, outcomes) = setup(2000);
        let result = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.05,
            tree_min_support: 0.1,
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes);
        let top = result.report.top().unwrap();
        let attrs: Vec<String> = top
            .itemset
            .items()
            .iter()
            .map(|&i| df.schema().name(result.catalog.attr_of(i)).to_string())
            .collect();
        assert!(
            attrs.contains(&"x".to_string()) && attrs.contains(&"y".to_string()),
            "top subgroup {} should constrain both x and y",
            top.label
        );
        assert!(top.divergence.unwrap() > 0.2);
    }

    #[test]
    fn generalized_beats_or_matches_base() {
        let (df, outcomes) = setup(1500);
        for s in [0.025, 0.05, 0.1] {
            let pipeline = HDivExplorer::new(HDivExplorerConfig {
                min_support: s,
                ..HDivExplorerConfig::default()
            });
            let base = pipeline.fit_mode(&df, &outcomes, ExplorationMode::Base);
            let gen = pipeline.fit_mode(&df, &outcomes, ExplorationMode::Generalized);
            assert!(
                gen.report.max_divergence() >= base.report.max_divergence(),
                "hierarchical exploration is a superset (s={s})"
            );
        }
    }

    #[test]
    fn trees_cover_all_continuous_attributes() {
        let (df, outcomes) = setup(500);
        let result = HDivExplorer::default().fit(&df, &outcomes);
        assert_eq!(result.trees.len(), 2);
        // The categorical attribute contributes a flat hierarchy.
        let g = df.schema().id("g").unwrap();
        let hg = result.hierarchies.get(g).unwrap();
        assert_eq!(hg.len(), 3);
        assert!(hg.items().iter().all(|&i| hg.is_leaf(i)));
    }

    #[test]
    fn hierarchies_satisfy_partition_property() {
        let (df, outcomes) = setup(800);
        let result = HDivExplorer::default().fit(&df, &outcomes);
        let check = result
            .hierarchies
            .validate_partition(&result.catalog, |item| {
                hdx_items::item_cover(&df, &result.catalog, item)
            });
        assert_eq!(check, Ok(()));
    }

    #[test]
    fn taxonomy_items_participate() {
        let mut b = DataFrameBuilder::new();
        b.add_categorical("occ").unwrap();
        let mut outcomes = Vec::new();
        let levels = ["MGR-S", "MGR-F", "MED-D", "MED-N"];
        for i in 0..400 {
            let lvl = levels[i % 4];
            b.push_row(vec![Value::Cat(lvl.into())]).unwrap();
            // Elevated outcome across both MGR leaf categories.
            outcomes.push(Outcome::Bool(lvl.starts_with("MGR") && i % 8 < 6));
        }
        let df = b.finish();
        let mut tax = Taxonomy::new();
        for l in levels {
            tax.set_group(l, &l[..3]);
        }
        let result = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.3,
            ..HDivExplorerConfig::default()
        })
        .with_taxonomy("occ", tax)
        .fit(&df, &outcomes);
        // At s=0.3, the leaves (sup 0.25) are infrequent; only the group
        // items survive, and MGR has the top divergence.
        let top = result.report.top().unwrap();
        assert_eq!(top.label, "{occ=MGR}");
        assert!(result
            .report
            .records
            .iter()
            .all(|r| !r.label.contains("MGR-S")));
    }

    #[test]
    fn discovered_fd_taxonomies_feed_the_pipeline() {
        // city → state holds exactly; the anomaly spans all CA cities, so
        // only the state-level generalized item reaches the support bar.
        let mut b = DataFrameBuilder::new();
        b.add_categorical("city").unwrap();
        b.add_categorical("state").unwrap();
        let cities = [
            ("sf", "CA"),
            ("la", "CA"),
            ("sj", "CA"),
            ("fresno", "CA"),
            ("nyc", "NY"),
            ("buffalo", "NY"),
            ("albany", "NY"),
            ("yonkers", "NY"),
        ];
        let mut outcomes = Vec::new();
        for i in 0..800 {
            let (city, state) = cities[i % 8];
            b.push_row(vec![Value::Cat(city.into()), Value::Cat(state.into())])
                .unwrap();
            outcomes.push(Outcome::Bool(state == "CA" && i % 16 < 12));
        }
        let df = b.finish();
        // Drop `state` from the frame? No — the FD also lets `city` alone
        // carry the hierarchy; here we keep both and check the city taxonomy
        // produces city=CA-style group items.
        let result = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.3,
            ..HDivExplorerConfig::default()
        })
        .with_discovered_taxonomies(&df, 0.0)
        .fit(&df, &outcomes);
        // Each city has support 0.125 < 0.3; the discovered group item
        // city=CA (support 0.5) is mineable and maximally divergent.
        assert!(result
            .report
            .records
            .iter()
            .any(|r| r.label.contains("city=CA")));
        let top = result.report.top().unwrap();
        assert!(top.label.contains("CA"), "top = {}", top.label);
    }

    #[test]
    fn polarity_matches_complete_search_on_pipeline() {
        // Polarity pruning preserves the top divergence on this dataset
        // (the guarantee is heuristic, so the size is data-dependent: with
        // the vendored rand stream it holds at 1300 but not at 1200).
        let (df, outcomes) = setup(1300);
        let complete = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.05,
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes);
        let pruned = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.05,
            polarity_pruning: true,
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes);
        assert_eq!(
            complete.report.max_divergence(),
            pruned.report.max_divergence()
        );
        assert!(pruned.report.records.len() <= complete.report.records.len());
    }

    #[test]
    fn pathological_run_degrades_instead_of_dying() {
        // The ISSUE's acceptance scenario: tiny support over a sizeable
        // dataset with an itemset cap and a deadline. The run must come back
        // with non-empty partial results and a `BudgetExhausted` verdict.
        let (df, outcomes) = setup(2000);
        let result = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.01,
            budget: RunBudget::unbounded()
                .with_max_itemsets(5)
                .with_deadline(Duration::from_secs(30)),
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes);
        assert_eq!(result.termination(), Termination::BudgetExhausted);
        assert!(result.is_partial());
        assert_eq!(result.report.records.len(), 5, "budgeted itemsets arrive");
        assert_eq!(result.counters().itemsets, 5);
    }

    #[test]
    fn zero_deadline_reports_deadline_exceeded() {
        let (df, outcomes) = setup(500);
        let result = HDivExplorer::new(HDivExplorerConfig {
            budget: RunBudget::unbounded().with_deadline(Duration::ZERO),
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes);
        assert_eq!(result.termination(), Termination::DeadlineExceeded);
        assert!(result.report.records.is_empty());
    }

    #[test]
    fn cancelled_pipeline_returns_partial_result() {
        let (df, outcomes) = setup(500);
        let token = CancelToken::new();
        token.cancel();
        let result = HDivExplorer::default()
            .with_cancel_token(token)
            .fit(&df, &outcomes);
        assert_eq!(
            result.termination(),
            Termination::Cancelled(hdx_governor::CancelReason::User)
        );
    }

    #[test]
    fn tree_node_budget_starves_only_the_discretizer() {
        // Per-stage governors: exhausting the tree-node budget must leave a
        // coarser discretization but still let the mining stage run to
        // completion over it (plus the categorical attribute).
        let (df, outcomes) = setup(1000);
        let result = HDivExplorer::new(HDivExplorerConfig {
            budget: RunBudget::unbounded().with_max_tree_nodes(2),
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes);
        assert_eq!(result.termination(), Termination::BudgetExhausted);
        assert_eq!(result.counters().tree_nodes, 2);
        assert!(
            !result.report.records.is_empty(),
            "coarse hierarchy still mined"
        );
        assert!(result.counters().itemsets > 0);
    }

    #[test]
    fn adaptive_support_trades_granularity_for_completion() {
        let (df, outcomes) = setup(800);
        // How many subgroups fit at a coarse support?
        let coarse = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.2,
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes);
        let cap = coarse.report.records.len() as u64;
        assert!(cap > 0);
        // A fine-grained run under that cap must climb back up to a support
        // level that fits, and finish there.
        let adaptive = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.025,
            budget: RunBudget::unbounded().with_max_itemsets(cap),
            adaptive_support: true,
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes);
        assert!(adaptive.termination().is_complete());
        assert!(adaptive.adaptive_retries > 0);
        assert!(adaptive.effective_min_support > 0.025);
        assert_eq!(adaptive.report.records.len() as u64, cap);
        // Without the adaptive flag the same budget just truncates.
        let truncated = HDivExplorer::new(HDivExplorerConfig {
            min_support: 0.025,
            budget: RunBudget::unbounded().with_max_itemsets(cap),
            ..HDivExplorerConfig::default()
        })
        .fit(&df, &outcomes);
        assert_eq!(truncated.termination(), Termination::BudgetExhausted);
        assert_eq!(truncated.adaptive_retries, 0);
    }

    #[test]
    fn entropy_and_divergence_criteria_both_work() {
        let (df, outcomes) = setup(1000);
        for criterion in [GainCriterion::Entropy, GainCriterion::Divergence] {
            let result = HDivExplorer::new(HDivExplorerConfig {
                criterion,
                ..HDivExplorerConfig::default()
            })
            .fit(&df, &outcomes);
            assert!(
                result.report.max_divergence().unwrap() > 0.1,
                "criterion {criterion:?}"
            );
        }
    }
}
