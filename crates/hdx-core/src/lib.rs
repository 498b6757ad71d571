//! # hdx-core
//!
//! The paper's primary contribution: hierarchical anomalous subgroup
//! discovery.
//!
//! * [`OutcomeFn`] — the outcome functions of §III-B, turning model
//!   predictions (or a raw quantity) into per-instance outcomes whose mean
//!   is the statistic of interest (FPR, FNR, error rate, accuracy, a real
//!   value such as income, …);
//! * [`DivExplorer`] — the base (non-hierarchical) explorer of prior work
//!   (§III-C): frequent-itemset mining over leaf items with divergence
//!   accumulated during mining;
//! * [`HDivExplorer`] — the full H-DivExplorer pipeline (§V): tree
//!   discretization of every continuous attribute into item hierarchies,
//!   categorical taxonomies, generalized itemset mining at every granularity
//!   (Algorithm 1), and optional polarity pruning (§V-C);
//! * [`RunSpec`] — the values that fix a run's result (statistic, columns,
//!   separator, supports, criterion, mode, length cap), range-checked by
//!   one [`RunSpec::validate`] and sealed by one codec for `hdx` and
//!   hdx-serve alike;
//! * [`mining_input`] — a parsed table and a [`RunSpec`] in, the mining
//!   frame and its outcomes out: the one loader behind both front ends;
//! * [`DivergenceReport`] / [`SubgroupRecord`] — ranked, labelled results;
//! * [`item_contributions`] / [`global_item_contributions`] — Shapley-value
//!   attribution of a subgroup's divergence to its items (inherited from
//!   DivExplorer's analysis toolkit).
//!
//! ```
//! use hdx_core::{HDivExplorer, HDivExplorerConfig, OutcomeFn};
//! use hdx_data::{DataFrameBuilder, Value};
//!
//! // Tiny dataset: error rate is elevated when x > 80.
//! let mut b = DataFrameBuilder::new();
//! b.add_continuous("x").unwrap();
//! let mut y_true = Vec::new();
//! let mut y_pred = Vec::new();
//! for i in 0..200 {
//!     b.push_row(vec![Value::Num(f64::from(i % 100))]).unwrap();
//!     y_true.push(true);
//!     y_pred.push(!(i % 100 > 80 && i % 3 == 0)); // mistakes when x > 80
//! }
//! let df = b.finish();
//! let outcomes = OutcomeFn::ErrorRate.compute(&y_true, &y_pred);
//! let result = HDivExplorer::new(HDivExplorerConfig::default()).fit(&df, &outcomes);
//! let top = &result.report.records[0];
//! assert!(top.divergence.unwrap() > 0.0);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Runtime validators for the polarity sign-homogeneity invariant (§V-C).
pub mod invariants;

mod error;
mod explorer;
mod hdivexplorer;
mod input;
mod json;
mod lattice;
mod outcome_fn;
mod polarity;
mod report;
mod resume;
mod shapley;

pub use error::CoreError;
pub use explorer::{DivExplorer, ExplorationConfig};
pub use hdivexplorer::{
    ExplorationMode, HDivExplorer, HDivExplorerConfig, HDivResult, ADAPTIVE_MAX_RETRIES,
    ADAPTIVE_MAX_SUPPORT,
};
pub use input::{job_budget, mining_input, InputError, RunSpec, SpecError, Statistic};
pub use json::{report_to_json, result_to_json, tree_to_json};
pub use lattice::Lattice;
pub use outcome_fn::{
    discounted_exposure_outcomes, real_outcomes, topk_exposure_outcomes, OutcomeFn,
};
pub use polarity::{mine_with_polarity, mine_with_polarity_governed, split_by_polarity};
pub use report::{DivergenceReport, SubgroupRecord};
pub use resume::{fingerprint_config, fingerprint_dataset, fingerprint_trees, CheckpointedRun};
pub use shapley::{global_item_contributions, item_contributions};

/// The checkpoint subsystem (re-exported from `hdx-checkpoint`): crash-safe
/// persistence of mining state at work boundaries, with fingerprint-verified
/// resume. See [`HDivExplorer::fit_checkpointed`] /
/// [`HDivExplorer::resume_checkpointed`] and DESIGN.md §12.
pub use hdx_checkpoint as checkpoint;

/// The observability subsystem (re-exported from `hdx-obs`): hierarchical
/// spans, typed metrics and the machine-readable [`obs::RunTelemetry`]
/// artifact. Zero-cost unless the `obs` feature is enabled.
pub use hdx_obs as obs;

/// The run-governor subsystem (re-exported from `hdx-governor`): budgets,
/// deadlines, cooperative cancellation and fail-point injection.
pub use hdx_governor as governor;
pub use hdx_governor::{CancelReason, CancelToken, Governor, RunBudget, RunCounters, Termination};
