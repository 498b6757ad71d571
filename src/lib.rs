//! # h-divexplorer
//!
//! Facade crate for the Rust reproduction of **"A Hierarchical Approach to
//! Anomalous Subgroup Discovery"** (Pastor, Baralis, de Alfaro — ICDE 2023).
//!
//! Re-exports the public API of every workspace crate so downstream users can
//! depend on a single crate:
//!
//! * [`data`] — columnar dataset substrate;
//! * [`stats`] — entropy, Welch's t-test, distributions;
//! * [`items`] — items, itemsets, item hierarchies;
//! * [`discretize`] — hierarchical tree discretization and baselines;
//! * [`mining`] — (generalized) frequent-itemset mining with statistic
//!   accumulation;
//! * [`core`] — DivExplorer / H-DivExplorer pipelines, divergence, polarity
//!   pruning;
//! * [`model`] — decision tree and random forest classifiers;
//! * [`datasets`] — synthetic-peak and the synthetic dataset stand-ins;
//! * [`baselines`] — Slice Finder and SliceLine;
//! * [`governor`] — run budgets, deadlines and cooperative cancellation;
//! * [`checkpoint`] — crash-safe checkpoint/resume for mining runs;
//! * [`ingest`] — crash-safe streaming row ingestion (durable WAL, fold
//!   cursor, quarantine report).

pub use hdx_baselines as baselines;
pub use hdx_checkpoint as checkpoint;
pub use hdx_core as core;
pub use hdx_data as data;
pub use hdx_datasets as datasets;
pub use hdx_discretize as discretize;
pub use hdx_governor as governor;
pub use hdx_ingest as ingest;
pub use hdx_items as items;
pub use hdx_mining as mining;
pub use hdx_model as model;
pub use hdx_serve as serve;
pub use hdx_stats as stats;

/// Commonly used types, suitable for `use h_divexplorer::prelude::*`.
pub mod prelude {
    pub use hdx_core::{
        DivExplorer, DivergenceReport, ExplorationConfig, HDivExplorer, OutcomeFn, SubgroupRecord,
    };
    pub use hdx_data::{DataFrame, DataFrameBuilder, Schema, Value};
    pub use hdx_discretize::{GainCriterion, TreeDiscretizer, TreeDiscretizerConfig};
    pub use hdx_governor::{CancelReason, CancelToken, RunBudget, Termination};
    pub use hdx_items::{Item, ItemCatalog, ItemHierarchy, ItemId, Itemset};
}
