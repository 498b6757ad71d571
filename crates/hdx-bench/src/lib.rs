//! # hdx-bench
//!
//! Experiment harness regenerating **every table and figure** of the paper's
//! evaluation (§VI). Each `src/bin/<exp>.rs` binary prints the rows/series
//! of one paper artifact; the library holds the shared runners so the
//! integration tests exercise the same code.
//!
//! Run e.g.:
//!
//! ```text
//! cargo run --release -p hdx-bench --bin table3 -- --scale 0.25
//! ```
//!
//! `--scale` shrinks every dataset relative to the paper's row counts
//! (Table II); `--seed` changes the generator seed. Absolute numbers shift
//! with scale, but the comparisons the paper makes (hierarchical ≥ base,
//! polarity pruning lossless, …) hold at any scale.
//!
//! The crate also holds the code only the experiments and tests run: the
//! paper's generalized Apriori and FP-Growth miners (§V-B), which the
//! library's search replaced and which stay as its differential-test
//! oracles and for the miner ablation, and the MDLP discretizer of Fig. 7.

/// Experiment runners, one submodule per paper table/figure.
pub mod experiments;
/// Minimal plotting helpers (ASCII/Gnuplot-style series dumps).
pub mod plot;
/// Shared CLI argument parsing, RNG, table formatting and timing.
pub mod util;

mod apriori;
mod fpgrowth;
mod mdlp;

pub use apriori::apriori;
pub use fpgrowth::fpgrowth;
pub use util::{fmt_table, measure, splitmix64, Args};
