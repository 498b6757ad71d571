//! Runtime validators for the itemset invariants (paper §III-A).
//!
//! The validators are always compiled — tests call them directly in any
//! build — and return typed violations instead of panicking, so negative
//! tests can assert on the exact failure. The `debug-invariants` cargo
//! feature additionally wires [`assert_canonical_order`] into
//! [`Itemset::from_sorted_unchecked`], turning every unchecked construction
//! site in the miners into a checked one.
//!
//! [`assert_canonical_order`]: crate::invariants::assert_canonical_order

use std::fmt;

use crate::catalog::{ItemCatalog, ItemId};
use crate::itemset::Itemset;

/// A violated itemset invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Two member items constrain the same attribute (breaks the
    /// one-item-per-attribute rule, which also subsumes the generalized
    /// mining rule that an item never co-occurs with its own ancestor).
    DuplicateAttribute {
        /// The offending itemset's members.
        items: Vec<ItemId>,
        /// First item of the clashing pair.
        first: ItemId,
        /// Second item of the clashing pair (same attribute as `first`).
        second: ItemId,
    },
    /// Items are not in strictly ascending [`ItemId`] order (canonical
    /// form: sorted, duplicate-free).
    NotCanonical {
        /// The offending item sequence.
        items: Vec<ItemId>,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::DuplicateAttribute {
                items,
                first,
                second,
            } => write!(
                f,
                "itemset {items:?} holds two items of one attribute ({first:?}, {second:?})"
            ),
            InvariantViolation::NotCanonical { items } => {
                write!(f, "itemset {items:?} is not sorted/duplicate-free")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Validates canonical order: item ids strictly ascending (sorted and
/// duplicate-free).
pub fn validate_canonical_order(items: &[ItemId]) -> Result<(), InvariantViolation> {
    if items.windows(2).all(|w| w[0] < w[1]) {
        Ok(())
    } else {
        Err(InvariantViolation::NotCanonical {
            items: items.to_vec(),
        })
    }
}

/// Validates a full itemset: canonical order plus at most one item per
/// attribute under `catalog`.
pub fn validate_itemset(
    itemset: &Itemset,
    catalog: &ItemCatalog,
) -> Result<(), InvariantViolation> {
    let items = itemset.items();
    validate_canonical_order(items)?;
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            if catalog.attr_of(items[i]) == catalog.attr_of(items[j]) {
                return Err(InvariantViolation::DuplicateAttribute {
                    items: items.to_vec(),
                    first: items[i],
                    second: items[j],
                });
            }
        }
    }
    Ok(())
}

/// Panicking form of [`validate_canonical_order`], wired into
/// [`Itemset::from_sorted_unchecked`] under `debug-invariants`.
pub fn assert_canonical_order(items: &[ItemId]) {
    if let Err(v) = validate_canonical_order(items) {
        invariant_failed(&v);
    }
}

/// Panicking form of [`validate_itemset`].
pub fn assert_itemset(itemset: &Itemset, catalog: &ItemCatalog) {
    if let Err(v) = validate_itemset(itemset, catalog) {
        invariant_failed(&v);
    }
}

/// Single panic site: an invariant violation is a library bug, never a
/// user error.
#[expect(
    clippy::panic,
    reason = "an invariant violation is an internal bug: the assert helpers panic by design"
)]
fn invariant_failed(v: &InvariantViolation) -> ! {
    panic!("hdx invariant violated: {v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use hdx_data::AttrId;

    fn catalog() -> (ItemCatalog, Vec<ItemId>) {
        let mut c = ItemCatalog::new();
        let ids = vec![
            c.intern(Item::cat_eq(AttrId(0), 0, "a", "x")),
            c.intern(Item::cat_eq(AttrId(0), 1, "a", "y")),
            c.intern(Item::cat_eq(AttrId(1), 0, "b", "z")),
        ];
        (c, ids)
    }

    #[test]
    fn canonical_order_checked() {
        let (_, ids) = catalog();
        assert!(validate_canonical_order(&[ids[0], ids[2]]).is_ok());
        assert!(validate_canonical_order(&[]).is_ok());
        assert!(matches!(
            validate_canonical_order(&[ids[2], ids[0]]),
            Err(InvariantViolation::NotCanonical { .. })
        ));
        assert!(validate_canonical_order(&[ids[0], ids[0]]).is_err());
    }

    #[test]
    fn per_attribute_uniqueness_checked() {
        let (c, ids) = catalog();
        let ok = Itemset::from_sorted_unchecked(vec![ids[0], ids[2]]);
        assert!(validate_itemset(&ok, &c).is_ok());
        let bad = Itemset::from_sorted_unchecked(vec![ids[0], ids[1]]);
        assert!(matches!(
            validate_itemset(&bad, &c),
            Err(InvariantViolation::DuplicateAttribute { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "hdx invariant violated")]
    fn assert_form_panics() {
        let (c, ids) = catalog();
        let bad = Itemset::from_sorted_unchecked(vec![ids[0], ids[1]]);
        assert_itemset(&bad, &c);
    }

    #[test]
    fn display_names_the_attribute_clash() {
        let (c, ids) = catalog();
        let bad = Itemset::from_sorted_unchecked(vec![ids[0], ids[1]]);
        let err = validate_itemset(&bad, &c).unwrap_err();
        assert!(err.to_string().contains("one attribute"));
    }
}
