//! # hdx-data
//!
//! Columnar dataset substrate for the H-DivExplorer reproduction.
//!
//! The crate provides a small, dependency-free data frame tailored to the
//! needs of anomalous subgroup discovery:
//!
//! * a [`Schema`] of named attributes, each either *categorical* or
//!   *continuous* (the two attribute kinds of the paper, §III-A);
//! * dictionary-encoded categorical columns ([`CategoricalColumn`]) and
//!   `f64` continuous columns ([`ContinuousColumn`]), both with null support;
//! * a row-major builder and a column-major [`DataFrame`];
//! * CSV read/write with simple type inference, so the experiment harness can
//!   persist and reload the synthetic datasets.
//!
//! The frame is deliberately minimal: subgroup discovery only ever scans
//! columns sequentially and slices rows by predicate, so we optimise for
//! cache-friendly columnar scans instead of general relational algebra.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod builder;
mod column;
mod csv;
mod describe;
mod error;
mod frame;
mod quality;
mod schema;
mod value;

pub use builder::DataFrameBuilder;
pub use column::{CategoricalColumn, Column, ContinuousColumn, NULL_CODE};
pub use csv::{
    is_csv_syntax, read_csv, read_csv_str, read_csv_str_with_quality, read_csv_with_quality,
    separator_char, split_record, write_csv, write_csv_string, CsvOptions,
};
pub use describe::{describe, AttributeSummary, CategoricalSummary, FrameSummary, NumericSummary};
pub use error::DataError;
pub use frame::DataFrame;
pub use quality::{ColumnQuality, DataQualityReport, MAX_RECORDED_LINES};
pub use schema::{AttrId, Attribute, AttributeKind, Schema};
pub use value::Value;
