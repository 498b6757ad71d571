//! # hdx-items
//!
//! Item model for (hierarchical) subgroup discovery, following §III-A and
//! §IV of the paper:
//!
//! * an [`Item`] is a constraint on one attribute — `A = a` for categorical
//!   attributes ([`Predicate::CatEq`]), `A ∈ {a₁, …}` for *generalized*
//!   categorical items ([`Predicate::CatIn`]), or `A ∈ J` for an interval `J`
//!   ([`Predicate::Range`]);
//! * items are interned in an [`ItemCatalog`] and referenced by dense
//!   [`ItemId`]s throughout the pipeline;
//! * an [`Itemset`] is a set of items with **at most one item per
//!   attribute** (definition of itemsets over `I`, §III-A);
//! * an [`ItemHierarchy`] is the per-attribute refinement forest `(I_A, ≻_A)`
//!   of Definition 4.1, and a [`HierarchySet`] is the hierarchical
//!   discretization `Γ` of the whole dataset;
//! * [`Bitset`] / cover computation maps items to the rows that satisfy them;
//! * [`Taxonomy`] builds categorical hierarchies from user-supplied
//!   `level → ancestor path` mappings (e.g. occupation → super-category);
//! * [`fd_taxonomy`] / [`discover_fd_taxonomies`] derive taxonomies
//!   automatically from (approximate) functional dependencies between
//!   categorical attributes (§IV-B).

/// Runtime validators for itemset well-formedness (canonical order, one
/// item per attribute).
pub mod invariants;

mod bitset;
mod catalog;
mod cover;
mod fd;
mod hierarchy;
mod interval;
mod item;
mod itemset;
mod taxonomy;

pub use bitset::Bitset;
pub use catalog::{ItemCatalog, ItemId};
pub use cover::{item_cover, item_matches};
pub use fd::{discover_fd_taxonomies, fd_taxonomy};
pub use hierarchy::{HierarchySet, ItemHierarchy};
pub use interval::Interval;
pub use item::{Item, Predicate};
pub use itemset::{Itemset, LabelRank};
pub use taxonomy::Taxonomy;
