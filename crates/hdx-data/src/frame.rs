//! The [`DataFrame`]: a schema plus equal-length typed columns.

use crate::column::{CategoricalColumn, Column, ContinuousColumn, NULL_CODE};
use crate::error::DataError;
use crate::schema::{AttrId, AttributeKind, Schema};
use crate::value::Value;

/// An immutable columnar dataset (the `D` of the paper).
///
/// Construct one with [`DataFrameBuilder`](crate::DataFrameBuilder) or
/// [`DataFrame::from_columns`].
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl DataFrame {
    /// Assembles a frame from a schema and matching columns.
    ///
    /// # Errors
    /// * [`DataError::LengthMismatch`] if the columns differ in length;
    /// * [`DataError::KindMismatch`] if a column's type contradicts the
    ///   schema.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self, DataError> {
        assert_eq!(
            schema.len(),
            columns.len(),
            "schema and column count differ"
        );
        let n_rows = columns.first().map_or(0, Column::len);
        for (id, attr) in schema.iter() {
            let col = &columns[id.index()];
            if col.len() != n_rows {
                return Err(DataError::LengthMismatch {
                    expected: n_rows,
                    found: col.len(),
                    attribute: attr.name().to_string(),
                });
            }
            let ok = matches!(
                (attr.kind(), col),
                (AttributeKind::Categorical, Column::Categorical(_))
                    | (AttributeKind::Continuous, Column::Continuous(_))
            );
            if !ok {
                return Err(DataError::KindMismatch {
                    attribute: attr.name().to_string(),
                    expected: match attr.kind() {
                        AttributeKind::Categorical => "categorical",
                        AttributeKind::Continuous => "continuous",
                    },
                    found: match col {
                        Column::Categorical(_) => "categorical",
                        Column::Continuous(_) => "continuous",
                    },
                });
            }
        }
        Ok(Self {
            schema,
            columns,
            n_rows,
        })
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (`#D`).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    #[inline]
    pub fn n_attributes(&self) -> usize {
        self.schema.len()
    }

    /// The column of an attribute.
    #[inline]
    pub fn column(&self, id: AttrId) -> &Column {
        &self.columns[id.index()]
    }

    /// The column of an attribute, by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, DataError> {
        Ok(self.column(self.schema.require(name)?))
    }

    /// The categorical column of `id`.
    ///
    /// # Panics
    /// Panics if the attribute is continuous (schema kinds are validated at
    /// construction, so this indicates a caller bug).
    pub fn categorical(&self, id: AttrId) -> &CategoricalColumn {
        self.column(id)
            .as_categorical()
            .unwrap_or_else(|| panic!("attribute {} is not categorical", self.schema.name(id)))
    }

    /// The continuous column of `id`.
    ///
    /// # Panics
    /// Panics if the attribute is categorical.
    pub fn continuous(&self, id: AttrId) -> &ContinuousColumn {
        self.column(id)
            .as_continuous()
            .unwrap_or_else(|| panic!("attribute {} is not continuous", self.schema.name(id)))
    }

    /// Cell value at (`row`, `id`).
    ///
    /// # Errors
    /// Returns [`DataError::RowOutOfBounds`] for an invalid row.
    pub fn value(&self, row: usize, id: AttrId) -> Result<Value, DataError> {
        if row >= self.n_rows {
            return Err(DataError::RowOutOfBounds {
                row,
                len: self.n_rows,
            });
        }
        Ok(self.column(id).value(row))
    }

    /// Decodes the label column `name` as one boolean per row.
    ///
    /// A categorical level reads, ignoring ASCII case, as `true`, `t`,
    /// `yes`, `y`, `1` or `false`, `f`, `no`, `n`, `0`; each level is decoded
    /// once. A continuous cell must be `0` or `1`.
    ///
    /// # Errors
    /// [`DataError::UnknownAttribute`] for an unknown name; otherwise the
    /// first row that is null ([`DataError::NullLabel`]) or not boolean
    /// ([`DataError::NotBoolean`]).
    pub fn bool_column(&self, name: &str) -> Result<Vec<bool>, DataError> {
        let null = |row| DataError::NullLabel {
            attribute: name.to_string(),
            row,
        };
        let not_boolean = |value| DataError::NotBoolean {
            attribute: name.to_string(),
            value,
        };
        match self.column_by_name(name)? {
            Column::Categorical(c) => {
                let truth: Vec<Option<bool>> = c.levels().iter().map(|l| bool_level(l)).collect();
                c.codes()
                    .iter()
                    .enumerate()
                    .map(|(row, &code)| {
                        if code == NULL_CODE {
                            return Err(null(row));
                        }
                        truth[code as usize]
                            .ok_or_else(|| not_boolean(c.level(code).to_ascii_lowercase()))
                    })
                    .collect()
            }
            Column::Continuous(c) => c
                .values()
                .iter()
                .enumerate()
                .map(|(row, &v)| match v {
                    0.0 => Ok(false),
                    1.0 => Ok(true),
                    v if v.is_nan() => Err(null(row)),
                    v => Err(not_boolean(v.to_string())),
                })
                .collect(),
        }
    }

    /// Returns a new frame containing only the rows for which `keep` is true.
    ///
    /// # Panics
    /// Panics if `keep.len() != self.n_rows()`.
    pub fn filter(&self, keep: &[bool]) -> DataFrame {
        assert_eq!(keep.len(), self.n_rows, "mask length mismatch");
        let columns = self
            .columns
            .iter()
            .map(|col| match col {
                Column::Categorical(c) => {
                    let mut out = CategoricalColumn::with_levels(c.levels().iter().cloned());
                    for (row, &k) in keep.iter().enumerate() {
                        if k {
                            out.push_code(c.code(row));
                        }
                    }
                    Column::Categorical(out)
                }
                Column::Continuous(c) => {
                    let values: Vec<f64> = keep
                        .iter()
                        .enumerate()
                        .filter(|&(_, &k)| k)
                        .map(|(row, _)| c.values()[row])
                        .collect();
                    Column::Continuous(ContinuousColumn::from_values(values))
                }
            })
            .collect();
        DataFrame::from_columns(self.schema.clone(), columns)
            .expect("filter preserves schema invariants")
    }

    /// Returns a new frame without the named attributes (used e.g. to strip
    /// label/prediction columns before mining).
    ///
    /// # Errors
    /// Returns [`DataError::UnknownAttribute`] for an unknown name.
    pub fn drop_columns(&self, names: &[&str]) -> Result<DataFrame, DataError> {
        let mut drop_ids = Vec::with_capacity(names.len());
        for name in names {
            drop_ids.push(self.schema.require(name)?);
        }
        let mut schema = Schema::new();
        let mut columns = Vec::new();
        for (id, attr) in self.schema.iter() {
            if drop_ids.contains(&id) {
                continue;
            }
            schema.push(attr.clone()).expect("names unique in source");
            columns.push(self.columns[id.index()].clone());
        }
        DataFrame::from_columns(schema, columns)
    }

    /// Returns a new frame with the rows at `indices`, in order (rows may
    /// repeat, enabling bootstrap sampling).
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        let columns = self
            .columns
            .iter()
            .map(|col| match col {
                Column::Categorical(c) => {
                    let mut out = CategoricalColumn::with_levels(c.levels().iter().cloned());
                    for &row in indices {
                        out.push_code(c.code(row));
                    }
                    Column::Categorical(out)
                }
                Column::Continuous(c) => Column::Continuous(ContinuousColumn::from_values(
                    indices
                        .iter()
                        .map(|&row| c.values()[row])
                        .collect::<Vec<_>>(),
                )),
            })
            .collect();
        DataFrame::from_columns(self.schema.clone(), columns)
            .expect("take preserves schema invariants")
    }
}

/// The boolean a categorical label level spells, if any.
fn bool_level(level: &str) -> Option<bool> {
    let spells = |words: [&str; 5]| words.iter().any(|w| level.eq_ignore_ascii_case(w));
    if spells(["true", "t", "yes", "y", "1"]) {
        Some(true)
    } else if spells(["false", "f", "no", "n", "0"]) {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn demo() -> DataFrame {
        let schema = Schema::from_attributes(vec![
            Attribute::continuous("age"),
            Attribute::categorical("sex"),
        ])
        .unwrap();
        let age = Column::Continuous(ContinuousColumn::from_values(vec![20.0, 35.0, 50.0]));
        let sex = Column::Categorical(CategoricalColumn::from_values(["M", "F", "M"]));
        DataFrame::from_columns(schema, vec![age, sex]).unwrap()
    }

    #[test]
    fn basic_shape_and_access() {
        let df = demo();
        assert_eq!(df.n_rows(), 3);
        assert_eq!(df.n_attributes(), 2);
        let age = df.schema().id("age").unwrap();
        let sex = df.schema().id("sex").unwrap();
        assert_eq!(df.value(1, age).unwrap(), Value::Num(35.0));
        assert_eq!(df.value(2, sex).unwrap(), Value::Cat("M".into()));
        assert!(df.value(3, age).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        let schema =
            Schema::from_attributes(vec![Attribute::continuous("a"), Attribute::continuous("b")])
                .unwrap();
        let a = Column::Continuous(ContinuousColumn::from_values(vec![1.0]));
        let b = Column::Continuous(ContinuousColumn::from_values(vec![1.0, 2.0]));
        let err = DataFrame::from_columns(schema, vec![a, b]).unwrap_err();
        assert!(matches!(err, DataError::LengthMismatch { .. }));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let schema = Schema::from_attributes(vec![Attribute::categorical("a")]).unwrap();
        let a = Column::Continuous(ContinuousColumn::from_values(vec![1.0]));
        let err = DataFrame::from_columns(schema, vec![a]).unwrap_err();
        assert!(matches!(err, DataError::KindMismatch { .. }));
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let df = demo();
        let out = df.filter(&[true, false, true]);
        assert_eq!(out.n_rows(), 2);
        let age = out.schema().id("age").unwrap();
        assert_eq!(out.continuous(age).values(), &[20.0, 50.0]);
        let sex = out.schema().id("sex").unwrap();
        assert_eq!(out.categorical(sex).get(0), Some("M"));
        assert_eq!(out.categorical(sex).get(1), Some("M"));
        // level dictionary is preserved even when a level vanishes
        assert_eq!(out.categorical(sex).n_levels(), 2);
    }

    #[test]
    fn drop_columns_removes_and_reindexes() {
        let df = demo();
        let out = df.drop_columns(&["age"]).unwrap();
        assert_eq!(out.n_attributes(), 1);
        assert_eq!(out.schema().id("age"), None);
        let sex = out.schema().id("sex").unwrap();
        assert_eq!(sex, AttrId(0), "remaining attributes re-indexed densely");
        assert_eq!(out.categorical(sex).get(0), Some("M"));
        assert_eq!(out.n_rows(), 3);
        assert!(matches!(
            df.drop_columns(&["nope"]),
            Err(DataError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn take_supports_repeats() {
        let df = demo();
        let out = df.take(&[2, 2, 0]);
        let age = out.schema().id("age").unwrap();
        assert_eq!(out.continuous(age).values(), &[50.0, 50.0, 20.0]);
    }

    #[test]
    fn bool_column_decodes_levels_and_numbers() {
        let schema = Schema::from_attributes(vec![
            Attribute::categorical("word"),
            Attribute::continuous("bit"),
        ])
        .unwrap();
        let words = ["TRUE", "f", "Yes", "n", "1", "0", "T"];
        let word = Column::Categorical(CategoricalColumn::from_values(words));
        let bit = Column::Continuous(ContinuousColumn::from_values(vec![
            1.0, 0.0, -0.0, 1.0, 0.0, 1.0, 0.0,
        ]));
        let df = DataFrame::from_columns(schema, vec![word, bit]).unwrap();
        let want = [true, false, true, false, true, false, true];
        assert_eq!(df.bool_column("word").unwrap(), want);
        assert_eq!(
            df.bool_column("bit").unwrap(),
            [true, false, false, true, false, true, false]
        );
        assert!(matches!(
            df.bool_column("nope"),
            Err(DataError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn bool_column_reports_the_first_bad_row() {
        let schema = Schema::from_attributes(vec![
            Attribute::categorical("word"),
            Attribute::continuous("bit"),
        ])
        .unwrap();
        let mut word = CategoricalColumn::from_values(["yes", "Maybe"]);
        word.push_null();
        let bit = ContinuousColumn::from_values(vec![1.0, f64::NAN, 0.5]);
        let df = DataFrame::from_columns(
            schema,
            vec![Column::Categorical(word), Column::Continuous(bit)],
        )
        .unwrap();
        assert_eq!(
            df.bool_column("word").unwrap_err().to_string(),
            "column `word` is not boolean (value `maybe`)"
        );
        assert_eq!(
            df.bool_column("bit").unwrap_err().to_string(),
            "null label in column `bit` row 1"
        );
        let df = df.take(&[0, 2]);
        assert_eq!(
            df.bool_column("word").unwrap_err().to_string(),
            "null label in column `word` row 1"
        );
        assert_eq!(
            df.bool_column("bit").unwrap_err().to_string(),
            "column `bit` is not boolean (value `0.5`)"
        );
    }

    #[test]
    #[should_panic(expected = "not categorical")]
    fn typed_access_panics_on_wrong_kind() {
        let df = demo();
        let age = df.schema().id("age").unwrap();
        let _ = df.categorical(age);
    }
}
