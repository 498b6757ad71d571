//! Dynamically-typed cell values, used at frame boundaries (builders, display).

use std::fmt;

/// A single cell value.
///
/// Inside the frame, categorical data is dictionary-encoded and continuous
/// data is `f64`; `Value` is only used at the edges (row-wise construction,
/// pretty printing).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value.
    Null,
    /// Categorical level (uncoded).
    Cat(String),
    /// Continuous value.
    Num(f64),
}

impl Value {
    /// Whether this value is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The numeric payload, if any.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The categorical payload, if any.
    pub fn as_cat(&self) -> Option<&str> {
        match self {
            Value::Cat(s) => Some(s),
            _ => None,
        }
    }

    /// A short name of the value's kind, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Cat(_) => "categorical",
            Value::Num(_) => "continuous",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Cat(s) => write!(f, "{s}"),
            Value::Num(x) => write!(f, "{x}"),
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Num(x as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Cat(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Cat(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3.5), Value::Num(3.5));
        assert_eq!(Value::from(2i64), Value::Num(2.0));
        assert_eq!(Value::from("a"), Value::Cat("a".into()));
        assert_eq!(Value::from(None::<f64>), Value::Null);
        assert_eq!(Value::from(Some(1.0)), Value::Num(1.0));
    }

    #[test]
    fn accessors() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::Num(2.0).as_num(), Some(2.0));
        assert_eq!(Value::Cat("x".into()).as_cat(), Some("x"));
        assert_eq!(Value::Num(2.0).as_cat(), None);
        assert_eq!(Value::Cat("x".into()).as_num(), None);
    }

    #[test]
    fn display_roundtrip_friendly() {
        assert_eq!(Value::Num(1.5).to_string(), "1.5");
        assert_eq!(Value::Cat("F".into()).to_string(), "F");
        assert_eq!(Value::Null.to_string(), "");
    }
}
