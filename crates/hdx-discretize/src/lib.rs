//! # hdx-discretize
//!
//! Discretization of continuous attributes into items, per §V-A of the
//! paper:
//!
//! * [`TreeDiscretizer`] — the paper's contribution: one binary tree per
//!   continuous attribute, grown greedily under a minimum-support constraint
//!   `st`, with either the entropy-based or divergence-based split gain
//!   ([`GainCriterion`]). All tree nodes (not just the leaves) become items,
//!   yielding an item hierarchy for hierarchical exploration.
//! * [`quantile_hierarchy`], [`uniform_hierarchy`], [`manual_hierarchy`] —
//!   flat (non-hierarchical) baselines used in the paper's comparisons
//!   (§VI-B manual discretization, §VI-D quantile discretization).
//!
//! The Fayyad–Irani MDLP discretizer that Fig. 7 adds as a supervised flat
//! baseline lives with that experiment in `hdx-bench`.
//!
//! ```
//! use hdx_data::{DataFrameBuilder, Value};
//! use hdx_discretize::{GainCriterion, TreeDiscretizer};
//! use hdx_items::ItemCatalog;
//! use hdx_stats::Outcome;
//!
//! // Outcome steps up at x = 70: the tree finds exactly that boundary.
//! let mut b = DataFrameBuilder::new();
//! let x = b.add_continuous("x").unwrap();
//! let mut outcomes = Vec::new();
//! for i in 0..100 {
//!     b.push_row(vec![Value::Num(f64::from(i))]).unwrap();
//!     outcomes.push(Outcome::Bool(i >= 70));
//! }
//! let df = b.finish();
//!
//! let mut catalog = ItemCatalog::new();
//! let discretizer = TreeDiscretizer::with_support(0.1, GainCriterion::Divergence);
//! let (hierarchy, tree) = discretizer.discretize_attribute(&df, x, &outcomes, &mut catalog);
//!
//! assert!(hierarchy.len() >= 2);
//! let first_split = &tree.nodes[tree.nodes[0].children[0]];
//! assert_eq!(first_split.interval.hi, 69.0);
//! ```

/// Runtime validators for discretization trees (split support,
/// binary splits, partition property).
pub mod invariants;

mod flat;
mod runs;
mod tree;

pub use flat::{cuts_to_hierarchy, manual_hierarchy, quantile_hierarchy, uniform_hierarchy};
pub use tree::{
    DiscretizationTree, GainCriterion, TreeDiscretizer, TreeDiscretizerConfig, TreeNode,
};
