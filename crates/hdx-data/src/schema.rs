//! Attribute schema: names, kinds and stable attribute ids.

use std::collections::HashMap;
use std::fmt;

use crate::error::DataError;

/// Stable identifier of an attribute within one [`Schema`].
///
/// Ids are dense indices (`0..schema.len()`), so they can index parallel
/// per-attribute vectors throughout the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u16);

impl AttrId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Whether an attribute is categorical (finite domain) or continuous (ℝ).
///
/// This mirrors §III-A of the paper: items on categorical attributes are
/// equality constraints, items on continuous attributes are intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeKind {
    /// Finite, dictionary-encoded domain.
    Categorical,
    /// Real-valued domain.
    Continuous,
}

impl fmt::Display for AttributeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttributeKind::Categorical => write!(f, "categorical"),
            AttributeKind::Continuous => write!(f, "continuous"),
        }
    }
}

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    name: String,
    kind: AttributeKind,
}

impl Attribute {
    /// Creates an attribute with the given name and kind.
    pub fn new(name: impl Into<String>, kind: AttributeKind) -> Self {
        Self {
            name: name.into(),
            kind,
        }
    }

    /// Convenience constructor for a categorical attribute.
    pub fn categorical(name: impl Into<String>) -> Self {
        Self::new(name, AttributeKind::Categorical)
    }

    /// Convenience constructor for a continuous attribute.
    pub fn continuous(name: impl Into<String>) -> Self {
        Self::new(name, AttributeKind::Continuous)
    }

    /// The attribute name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute kind.
    #[inline]
    pub fn kind(&self) -> AttributeKind {
        self.kind
    }
}

/// An ordered collection of uniquely-named attributes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    attrs: Vec<Attribute>,
    by_name: HashMap<String, AttrId>,
}

impl Schema {
    /// Most attributes a schema holds: an [`AttrId`] is 16 bits wide.
    pub const MAX_ATTRIBUTES: usize = 1 << 16;

    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a schema from a list of attributes.
    ///
    /// # Errors
    /// Returns [`DataError::DuplicateAttribute`] when two attributes share a
    /// name.
    pub fn from_attributes(attrs: Vec<Attribute>) -> Result<Self, DataError> {
        let mut schema = Self::new();
        for a in attrs {
            schema.push(a)?;
        }
        Ok(schema)
    }

    /// Appends an attribute, returning its new id.
    ///
    /// # Errors
    /// Returns [`DataError::DuplicateAttribute`] when the name already exists,
    /// and [`DataError::TooManyAttributes`] when the schema already holds
    /// [`MAX_ATTRIBUTES`](Self::MAX_ATTRIBUTES).
    pub fn push(&mut self, attr: Attribute) -> Result<AttrId, DataError> {
        if self.by_name.contains_key(attr.name()) {
            return Err(DataError::DuplicateAttribute(attr.name().to_string()));
        }
        let Ok(id) = u16::try_from(self.attrs.len()) else {
            return Err(DataError::TooManyAttributes {
                limit: Self::MAX_ATTRIBUTES,
            });
        };
        let id = AttrId(id);
        self.by_name.insert(attr.name().to_string(), id);
        self.attrs.push(attr);
        Ok(id)
    }

    /// Number of attributes.
    #[inline]
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the schema has no attributes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Looks up an attribute id by name.
    pub fn id(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Looks up an attribute id by name, erroring when absent.
    pub fn require(&self, name: &str) -> Result<AttrId, DataError> {
        self.id(name)
            .ok_or_else(|| DataError::UnknownAttribute(name.to_string()))
    }

    /// The attribute with the given id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this schema.
    #[inline]
    pub fn attribute(&self, id: AttrId) -> &Attribute {
        &self.attrs[id.index()]
    }

    /// The name of an attribute.
    #[inline]
    pub fn name(&self, id: AttrId) -> &str {
        self.attribute(id).name()
    }

    /// The kind of an attribute.
    #[inline]
    pub fn kind(&self, id: AttrId) -> AttributeKind {
        self.attribute(id).kind()
    }

    /// Iterates over `(id, attribute)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &Attribute)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (AttrId(i as u16), a))
    }

    /// Ids of all attributes of the given kind.
    pub fn ids_of_kind(&self, kind: AttributeKind) -> Vec<AttrId> {
        self.iter()
            .filter(|(_, a)| a.kind() == kind)
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of the continuous attributes (the set `C` of the paper).
    pub fn continuous_ids(&self) -> Vec<AttrId> {
        self.ids_of_kind(AttributeKind::Continuous)
    }

    /// Ids of the categorical attributes.
    pub fn categorical_ids(&self) -> Vec<AttrId> {
        self.ids_of_kind(AttributeKind::Categorical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Schema {
        Schema::from_attributes(vec![
            Attribute::continuous("age"),
            Attribute::categorical("sex"),
            Attribute::continuous("priors"),
        ])
        .unwrap()
    }

    #[test]
    fn push_assigns_dense_ids() {
        let s = demo();
        assert_eq!(s.len(), 3);
        assert_eq!(s.id("age"), Some(AttrId(0)));
        assert_eq!(s.id("sex"), Some(AttrId(1)));
        assert_eq!(s.id("priors"), Some(AttrId(2)));
        assert_eq!(s.id("missing"), None);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::from_attributes(vec![
            Attribute::continuous("age"),
            Attribute::categorical("age"),
        ])
        .unwrap_err();
        assert!(matches!(err, DataError::DuplicateAttribute(n) if n == "age"));
    }

    #[test]
    fn push_refuses_the_attribute_past_the_id_range() {
        let mut s = Schema::new();
        for i in 0..Schema::MAX_ATTRIBUTES {
            s.push(Attribute::categorical(format!("a{i}"))).unwrap();
        }
        assert_eq!(s.id("a65535"), Some(AttrId(u16::MAX)));
        let err = s.push(Attribute::categorical("one-more")).unwrap_err();
        assert!(matches!(
            err,
            DataError::TooManyAttributes { limit: 65_536 }
        ));
        assert!(err.to_string().contains("65536"), "{err}");
        assert_eq!(s.len(), Schema::MAX_ATTRIBUTES);
        assert_eq!(s.id("one-more"), None);
    }

    #[test]
    fn kind_partition() {
        let s = demo();
        assert_eq!(s.continuous_ids(), vec![AttrId(0), AttrId(2)]);
        assert_eq!(s.categorical_ids(), vec![AttrId(1)]);
        assert_eq!(s.kind(AttrId(1)), AttributeKind::Categorical);
    }

    #[test]
    fn require_reports_unknown() {
        let s = demo();
        assert!(s.require("age").is_ok());
        assert!(matches!(
            s.require("zip"),
            Err(DataError::UnknownAttribute(n)) if n == "zip"
        ));
    }

    #[test]
    fn iter_preserves_order() {
        let s = demo();
        let names: Vec<_> = s.iter().map(|(_, a)| a.name().to_string()).collect();
        assert_eq!(names, ["age", "sex", "priors"]);
    }
}
