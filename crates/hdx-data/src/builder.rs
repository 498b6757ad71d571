//! Row- and column-wise construction of [`DataFrame`]s.

use crate::column::{CategoricalColumn, Column, ContinuousColumn};
use crate::error::DataError;
use crate::frame::DataFrame;
use crate::schema::{AttrId, Attribute, AttributeKind, Schema};
use crate::value::Value;

/// Incremental builder for a [`DataFrame`].
///
/// Attributes are declared first, then rows (or whole columns) are appended.
///
/// ```
/// use hdx_data::{DataFrameBuilder, Value};
///
/// let mut b = DataFrameBuilder::new();
/// b.add_continuous("age").unwrap();
/// b.add_categorical("sex").unwrap();
/// b.push_row(vec![Value::Num(31.0), Value::Cat("F".into())]).unwrap();
/// b.push_row(vec![Value::Num(47.0), Value::Cat("M".into())]).unwrap();
/// let df = b.finish();
/// assert_eq!(df.n_rows(), 2);
/// ```
#[derive(Debug, Default)]
pub struct DataFrameBuilder {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl DataFrameBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a continuous attribute. Must be called before any rows.
    ///
    /// # Errors
    /// Fails on duplicate names.
    pub fn add_continuous(&mut self, name: impl Into<String>) -> Result<AttrId, DataError> {
        self.add_attribute(Attribute::continuous(name.into()))
    }

    /// Declares a categorical attribute. Must be called before any rows.
    ///
    /// # Errors
    /// Fails on duplicate names.
    pub fn add_categorical(&mut self, name: impl Into<String>) -> Result<AttrId, DataError> {
        self.add_attribute(Attribute::categorical(name.into()))
    }

    /// Declares an attribute.
    ///
    /// # Errors
    /// Fails on duplicate names.
    ///
    /// # Panics
    /// Panics if rows were already appended.
    pub fn add_attribute(&mut self, attr: Attribute) -> Result<AttrId, DataError> {
        assert_eq!(
            self.n_rows, 0,
            "attributes must be declared before any row is pushed"
        );
        let kind = attr.kind();
        let id = self.schema.push(attr)?;
        self.columns.push(match kind {
            AttributeKind::Categorical => Column::Categorical(CategoricalColumn::new()),
            AttributeKind::Continuous => Column::Continuous(ContinuousColumn::new()),
        });
        Ok(id)
    }

    /// Appends one row of values, in schema order.
    ///
    /// # Errors
    /// * [`DataError::LengthMismatch`] when `row.len()` differs from the
    ///   number of attributes;
    /// * [`DataError::KindMismatch`] for type errors.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), DataError> {
        if row.len() != self.schema.len() {
            return Err(DataError::LengthMismatch {
                expected: self.schema.len(),
                found: row.len(),
                attribute: "<row>".to_string(),
            });
        }
        // Validate the whole row first so a failed push leaves the builder
        // consistent.
        for (i, v) in row.iter().enumerate() {
            let id = AttrId(i as u16);
            let kind = self.schema.kind(id);
            let ok = matches!(
                (kind, v),
                (_, Value::Null)
                    | (AttributeKind::Categorical, Value::Cat(_))
                    | (AttributeKind::Continuous, Value::Num(_))
            );
            if !ok {
                return Err(DataError::KindMismatch {
                    attribute: self.schema.name(id).to_string(),
                    expected: match kind {
                        AttributeKind::Categorical => "categorical",
                        AttributeKind::Continuous => "continuous",
                    },
                    found: v.kind_name(),
                });
            }
        }
        for (i, v) in row.into_iter().enumerate() {
            match (&mut self.columns[i], v) {
                (Column::Categorical(c), Value::Cat(s)) => c.push(&s),
                (Column::Categorical(c), Value::Null) => c.push_null(),
                (Column::Continuous(c), Value::Num(x)) => c.push(x),
                (Column::Continuous(c), Value::Null) => c.push_null(),
                _ => unreachable!("row validated above"),
            }
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Number of rows appended so far.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The schema built so far.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Finalises the frame.
    #[expect(
        clippy::expect_used,
        reason = "the builder checks every column as it is added"
    )]
    pub fn finish(self) -> DataFrame {
        DataFrame::from_columns(self.schema, self.columns)
            .expect("builder maintains frame invariants")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_mixed_frame() {
        let mut b = DataFrameBuilder::new();
        let age = b.add_continuous("age").unwrap();
        let sex = b.add_categorical("sex").unwrap();
        b.push_row(vec![Value::Num(20.0), Value::Cat("M".into())])
            .unwrap();
        b.push_row(vec![Value::Null, Value::Null]).unwrap();
        let df = b.finish();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.continuous(age).get(0), Some(20.0));
        assert_eq!(df.continuous(age).get(1), None);
        assert_eq!(df.categorical(sex).get(1), None);
    }

    #[test]
    fn row_arity_checked() {
        let mut b = DataFrameBuilder::new();
        b.add_continuous("a").unwrap();
        let err = b.push_row(vec![]).unwrap_err();
        assert!(matches!(err, DataError::LengthMismatch { .. }));
    }

    #[test]
    fn kind_checked_and_builder_stays_consistent() {
        let mut b = DataFrameBuilder::new();
        b.add_continuous("a").unwrap();
        b.add_categorical("b").unwrap();
        // Second cell is wrong; the first must not be partially applied.
        let err = b
            .push_row(vec![Value::Num(1.0), Value::Num(2.0)])
            .unwrap_err();
        assert!(matches!(err, DataError::KindMismatch { .. }));
        assert_eq!(b.n_rows(), 0);
        b.push_row(vec![Value::Num(1.0), Value::Cat("x".into())])
            .unwrap();
        let df = b.finish();
        assert_eq!(df.n_rows(), 1);
    }

    #[test]
    #[should_panic(expected = "before any row")]
    fn late_attribute_rejected() {
        let mut b = DataFrameBuilder::new();
        b.add_continuous("a").unwrap();
        b.push_row(vec![Value::Num(1.0)]).unwrap();
        let _ = b.add_continuous("late");
    }
}
