//! Error type for dataset construction and I/O.

use std::fmt;

/// Errors produced while building, accessing or (de)serialising datasets.
#[derive(Debug)]
pub enum DataError {
    /// An attribute name was used twice in a schema.
    DuplicateAttribute(String),
    /// An attribute name or id does not exist in the schema.
    UnknownAttribute(String),
    /// A value of the wrong kind was supplied for an attribute.
    KindMismatch {
        /// Attribute whose kind was violated.
        attribute: String,
        /// What the column stores.
        expected: &'static str,
        /// What the caller supplied.
        found: &'static str,
    },
    /// Columns of differing lengths were combined into one frame.
    LengthMismatch {
        /// Length expected from the first column.
        expected: usize,
        /// Offending length.
        found: usize,
        /// Offending attribute.
        attribute: String,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// Requested row.
        row: usize,
        /// Number of rows in the frame.
        len: usize,
    },
    /// A label column held a null cell.
    NullLabel {
        /// Label column.
        attribute: String,
        /// 0-based row of the null cell.
        row: usize,
    },
    /// A label column held a value that does not read as a boolean.
    NotBoolean {
        /// Label column.
        attribute: String,
        /// The offending value (a categorical level lower-cased).
        value: String,
    },
    /// CSV input could not be parsed.
    Csv {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::DuplicateAttribute(name) => {
                write!(f, "duplicate attribute name `{name}`")
            }
            DataError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            DataError::KindMismatch {
                attribute,
                expected,
                found,
            } => write!(
                f,
                "attribute `{attribute}` stores {expected} values but a {found} value was supplied"
            ),
            DataError::LengthMismatch {
                expected,
                found,
                attribute,
            } => write!(
                f,
                "column `{attribute}` has {found} rows, expected {expected}"
            ),
            DataError::RowOutOfBounds { row, len } => {
                write!(f, "row index {row} out of bounds for frame of {len} rows")
            }
            DataError::NullLabel { attribute, row } => {
                write!(f, "null label in column `{attribute}` row {row}")
            }
            DataError::NotBoolean { attribute, value } => {
                write!(f, "column `{attribute}` is not boolean (value `{value}`)")
            }
            DataError::Csv { line, message } => {
                write!(f, "CSV parse error at line {line}: {message}")
            }
            DataError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DataError::DuplicateAttribute("age".into());
        assert!(e.to_string().contains("age"));
        let e = DataError::KindMismatch {
            attribute: "age".into(),
            expected: "continuous",
            found: "categorical",
        };
        assert!(e.to_string().contains("continuous"));
        let e = DataError::RowOutOfBounds { row: 9, len: 3 };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn io_error_source_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = DataError::from(io);
        assert!(std::error::Error::source(&e).is_some());
    }
}
