//! Item interning: the global registry mapping items to dense ids.

use std::collections::HashMap;

use hdx_data::AttrId;

use crate::item::Item;

/// Dense identifier of an interned [`Item`] within an [`ItemCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u32);

impl ItemId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interning registry of items (the item universe `I`).
///
/// Each distinct item gets a dense [`ItemId`]; the catalog also indexes
/// items by attribute, which the miners use to enforce the
/// one-item-per-attribute itemset constraint.
#[derive(Debug, Clone, Default)]
pub struct ItemCatalog {
    items: Vec<Item>,
    ids: HashMap<Item, ItemId>,
    by_attr: HashMap<AttrId, Vec<ItemId>>,
}

impl ItemCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an item, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, item: Item) -> ItemId {
        if let Some(&id) = self.ids.get(&item) {
            return id;
        }
        #[expect(
            clippy::expect_used,
            reason = "item ids are u32, so a catalog holds at most 2^32 items"
        )]
        let id = ItemId(u32::try_from(self.items.len()).expect("too many items"));
        self.ids.insert(item.clone(), id);
        self.by_attr.entry(item.attr()).or_default().push(id);
        self.items.push(item);
        id
    }

    /// The item with the given id.
    ///
    /// # Panics
    /// Panics for a foreign id.
    #[inline]
    pub fn item(&self, id: ItemId) -> &Item {
        &self.items[id.index()]
    }

    /// The attribute an item constrains.
    #[inline]
    pub fn attr_of(&self, id: ItemId) -> AttrId {
        self.item(id).attr()
    }

    /// A dense `ItemId`-indexed table of each item's attribute
    /// (`table[id.index()] == attr_of(id)`), for inner loops that cannot
    /// afford the per-call [`Item`] indirection of
    /// [`attr_of`](Self::attr_of).
    pub fn attr_table(&self) -> Vec<AttrId> {
        self.items.iter().map(Item::attr).collect()
    }

    /// The label of an item.
    #[inline]
    pub fn label(&self, id: ItemId) -> &str {
        self.item(id).label()
    }

    /// Id of an already-interned item.
    pub fn id_of(&self, item: &Item) -> Option<ItemId> {
        self.ids.get(item).copied()
    }

    /// Looks up an item by its display label (linear scan; intended for
    /// tests and result formatting, not hot paths).
    pub fn find_by_label(&self, label: &str) -> Option<ItemId> {
        self.items
            .iter()
            .position(|i| i.label() == label)
            .map(|i| ItemId(i as u32))
    }

    /// Number of interned items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the catalog is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All ids, in interning order.
    pub fn ids(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.items.len() as u32).map(ItemId)
    }

    /// Ids of the items constraining `attr`, in interning order.
    pub fn items_of_attr(&self, attr: AttrId) -> &[ItemId] {
        self.by_attr.get(&attr).map_or(&[], Vec::as_slice)
    }

    /// The attributes that have at least one item.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        let mut v: Vec<AttrId> = self.by_attr.keys().copied().collect();
        v.sort();
        v.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    #[test]
    fn intern_dedups() {
        let mut c = ItemCatalog::new();
        let i1 = c.intern(Item::cat_eq(AttrId(0), 0, "sex", "F"));
        let i2 = c.intern(Item::cat_eq(AttrId(0), 0, "sex", "F"));
        let i3 = c.intern(Item::cat_eq(AttrId(0), 1, "sex", "M"));
        assert_eq!(i1, i2);
        assert_ne!(i1, i3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn by_attr_index() {
        let mut c = ItemCatalog::new();
        let a0 = AttrId(0);
        let a1 = AttrId(1);
        let x = c.intern(Item::range(a0, Interval::at_most(3.0), "age"));
        let y = c.intern(Item::range(a0, Interval::greater_than(3.0), "age"));
        let z = c.intern(Item::cat_eq(a1, 0, "sex", "F"));
        assert_eq!(c.items_of_attr(a0), &[x, y]);
        assert_eq!(c.items_of_attr(a1), &[z]);
        assert!(c.items_of_attr(AttrId(9)).is_empty());
        assert_eq!(c.attrs().collect::<Vec<_>>(), vec![a0, a1]);
    }

    #[test]
    fn lookup_by_label() {
        let mut c = ItemCatalog::new();
        let id = c.intern(Item::range(
            AttrId(0),
            Interval::greater_than(8.0),
            "#prior",
        ));
        assert_eq!(c.find_by_label("#prior>8"), Some(id));
        assert_eq!(c.find_by_label("nope"), None);
        assert_eq!(c.label(id), "#prior>8");
    }

    #[test]
    fn ids_enumerates_in_order() {
        let mut c = ItemCatalog::new();
        let a = c.intern(Item::cat_eq(AttrId(0), 0, "x", "a"));
        let b = c.intern(Item::cat_eq(AttrId(0), 1, "x", "b"));
        assert_eq!(c.ids().collect::<Vec<_>>(), vec![a, b]);
    }
}
