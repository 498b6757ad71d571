//! Itemsets (patterns): sets of items with at most one item per attribute.

use std::fmt;

use crate::catalog::{ItemCatalog, ItemId};

/// An itemset `I ⊆ I` in canonical (sorted by [`ItemId`]) order.
///
/// Invariant (checked at construction against a catalog, maintained by
/// [`Itemset::with_item`]): no two member items constrain the same attribute
/// (§III-A).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Itemset {
    items: Vec<ItemId>,
}

impl Itemset {
    /// The empty itemset (denotes the whole dataset).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A singleton itemset.
    pub fn singleton(item: ItemId) -> Self {
        Self { items: vec![item] }
    }

    /// Builds an itemset from items, sorting and checking the
    /// one-item-per-attribute invariant against `catalog`.
    ///
    /// Returns `None` when two items constrain the same attribute.
    pub fn new(mut items: Vec<ItemId>, catalog: &ItemCatalog) -> Option<Self> {
        items.sort_unstable();
        items.dedup();
        // Itemsets are short (≤ #attributes), so the O(k²) attribute check is
        // cheaper than allocating a seen-set.
        for i in 0..items.len() {
            for j in (i + 1)..items.len() {
                if catalog.attr_of(items[i]) == catalog.attr_of(items[j]) {
                    return None;
                }
            }
        }
        Some(Self { items })
    }

    /// Extends the itemset with `item`, keeping canonical order.
    ///
    /// Returns `None` when the itemset already constrains that attribute
    /// (including by `item` itself).
    pub fn with_item(&self, item: ItemId, catalog: &ItemCatalog) -> Option<Self> {
        let attr = catalog.attr_of(item);
        if self.items.iter().any(|&i| catalog.attr_of(i) == attr) {
            return None;
        }
        let mut items = self.items.clone();
        let pos = items.partition_point(|&i| i < item);
        items.insert(pos, item);
        Some(Self { items })
    }

    /// Number of items (`|I|`, the itemset length).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether this is the empty itemset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Member item ids, ascending.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Whether `item` is a member.
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Whether every item of `other` is a member of `self`.
    pub fn is_superset_of(&self, other: &Itemset) -> bool {
        other.items.iter().all(|&i| self.contains(i))
    }

    /// All `len−1` subsets (used for Apriori candidate pruning).
    pub fn sub_itemsets(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.items.len()).map(move |skip| {
            let items = self
                .items
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, &id)| id)
                .collect();
            Itemset { items }
        })
    }

    /// Formats the itemset with labels from `catalog`.
    pub fn display<'a>(&'a self, catalog: &'a ItemCatalog) -> ItemsetDisplay<'a> {
        ItemsetDisplay {
            itemset: self,
            catalog,
        }
    }

    /// Constructs an itemset from pre-sorted, pre-validated items.
    ///
    /// Intended for the miners, which maintain the invariants themselves.
    ///
    /// # Panics
    /// Debug-asserts canonical order (always checked under the
    /// `debug-invariants` feature).
    pub fn from_sorted_unchecked(items: Vec<ItemId>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
        #[cfg(feature = "debug-invariants")]
        crate::invariants::assert_canonical_order(&items);
        Self { items }
    }
}

/// Helper implementing `Display` for an itemset with its catalog.
pub struct ItemsetDisplay<'a> {
    itemset: &'a Itemset,
    catalog: &'a ItemCatalog,
}

impl fmt::Display for ItemsetDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut labels: Vec<&str> = self
            .itemset
            .items()
            .iter()
            .map(|&i| self.catalog.label(i))
            .collect();
        labels.sort_unstable();
        write_labels(f, labels)
    }
}

/// Writes an itemset's text, `{` then `labels` joined by `, ` then `}`: the
/// one definition of it, which [`ItemsetDisplay`] and [`LabelRank::label`]
/// both write through. The caller orders the labels.
fn write_labels<'l, W: fmt::Write>(
    out: &mut W,
    labels: impl IntoIterator<Item = &'l str>,
) -> fmt::Result {
    out.write_char('{')?;
    for (k, label) in labels.into_iter().enumerate() {
        if k > 0 {
            out.write_str(", ")?;
        }
        out.write_str(label)?;
    }
    out.write_char('}')
}

/// The items of a catalog ranked by label in `str::cmp` order, so that an
/// itemset's text is written in label order by comparing integers instead
/// of sorting strings. Build it once and label every itemset of a report.
#[derive(Debug, Clone)]
pub struct LabelRank<'a> {
    catalog: &'a ItemCatalog,
    /// `rank[id.index()]` is the item's position in label order (equal
    /// labels, which write the same text, by id).
    rank: Vec<u32>,
}

impl<'a> LabelRank<'a> {
    /// Ranks every item of `catalog` by its label.
    pub fn new(catalog: &'a ItemCatalog) -> Self {
        let mut ids: Vec<ItemId> = catalog.ids().collect();
        ids.sort_by(|&a, &b| catalog.label(a).cmp(catalog.label(b)));
        let mut rank = vec![0; ids.len()];
        for (r, id) in (0u32..).zip(&ids) {
            rank[id.index()] = r;
        }
        Self { catalog, rank }
    }

    /// The text of `itemset`, e.g. `{age<=24, #prior>8}`: exactly what
    /// [`Itemset::display`] writes, in one exactly sized `String`.
    ///
    /// # Panics
    /// Panics for an item of another catalog.
    pub fn label(&self, itemset: &Itemset) -> String {
        let items = itemset.items();
        let text: usize = items.iter().map(|&i| self.catalog.label(i).len()).sum();
        let mut out = String::with_capacity(text + 2 * items.len().max(1));
        // Itemsets are short (≤ #attributes), so picking the next label by
        // rank each time costs less than sorting a copy of the ids.
        let mut last = None;
        let in_order = items.iter().map(|_| {
            let next = items
                .iter()
                .map(|&id| (self.rank[id.index()], id))
                .filter(|&(rank, _)| last.is_none_or(|last| rank > last))
                .min();
            last = next.map(|(rank, _)| rank);
            next.map_or("", |(_, id)| self.catalog.label(id))
        });
        // Writing to a `String` cannot fail.
        let _ = write_labels(&mut out, in_order);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::item::Item;
    use hdx_data::AttrId;

    fn catalog() -> (ItemCatalog, Vec<ItemId>) {
        let mut c = ItemCatalog::new();
        let ids = vec![
            c.intern(Item::range(AttrId(0), Interval::at_most(3.0), "age")),
            c.intern(Item::range(AttrId(0), Interval::greater_than(3.0), "age")),
            c.intern(Item::cat_eq(AttrId(1), 0, "sex", "F")),
            c.intern(Item::cat_eq(AttrId(1), 1, "sex", "M")),
            c.intern(Item::cat_eq(AttrId(2), 0, "race", "X")),
        ];
        (c, ids)
    }

    #[test]
    fn new_enforces_per_attribute_uniqueness() {
        let (c, ids) = catalog();
        assert!(Itemset::new(vec![ids[0], ids[2]], &c).is_some());
        assert!(Itemset::new(vec![ids[0], ids[1]], &c).is_none());
        assert!(Itemset::new(vec![ids[2], ids[3]], &c).is_none());
    }

    #[test]
    fn new_sorts_and_dedups() {
        let (c, ids) = catalog();
        let s = Itemset::new(vec![ids[2], ids[0], ids[2]], &c).unwrap();
        assert_eq!(s.items(), &[ids[0], ids[2]]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn with_item_extends_or_rejects() {
        let (c, ids) = catalog();
        let s = Itemset::singleton(ids[0]);
        let s2 = s.with_item(ids[2], &c).unwrap();
        assert_eq!(s2.items(), &[ids[0], ids[2]]);
        assert!(
            s2.with_item(ids[3], &c).is_none(),
            "same attribute as ids[2]"
        );
        // Re-adding a member conflicts with its own attribute.
        assert_eq!(s2.with_item(ids[0], &c), None);
    }

    #[test]
    fn subset_relation() {
        let (c, ids) = catalog();
        let small = Itemset::new(vec![ids[0]], &c).unwrap();
        let big = Itemset::new(vec![ids[0], ids[2], ids[4]], &c).unwrap();
        assert!(big.is_superset_of(&small));
        assert!(!small.is_superset_of(&big));
        assert!(big.is_superset_of(&Itemset::empty()));
    }

    #[test]
    fn sub_itemsets_enumerates_all() {
        let (c, ids) = catalog();
        let s = Itemset::new(vec![ids[0], ids[2], ids[4]], &c).unwrap();
        let subs: Vec<Itemset> = s.sub_itemsets().collect();
        assert_eq!(subs.len(), 3);
        for sub in &subs {
            assert_eq!(sub.len(), 2);
            assert!(s.is_superset_of(sub));
        }
    }

    #[test]
    fn display_with_labels() {
        let (c, ids) = catalog();
        let s = Itemset::new(vec![ids[2], ids[0]], &c).unwrap();
        assert_eq!(s.display(&c).to_string(), "{age<=3, sex=F}");
        assert_eq!(Itemset::empty().display(&c).to_string(), "{}");
    }

    #[test]
    fn label_rank_writes_what_display_writes() {
        let mut c = ItemCatalog::new();
        // Labels interned out of label order, one of them a prefix of
        // another and one with a byte above ASCII.
        let labels = ["sex=M", "age<=3", "Zone=b", "age<=30", "é=1", "#prior>8"];
        let ids: Vec<ItemId> = labels
            .iter()
            .enumerate()
            .map(|(a, label)| {
                let (attr, level) = label.split_once('=').unwrap_or((label, ""));
                c.intern(Item::cat_eq(AttrId(a as u16), 0, attr, level))
            })
            .collect();
        let rank = LabelRank::new(&c);
        // Every subset of the six items.
        for mask in 0u32..(1 << ids.len()) {
            let items: Vec<ItemId> = ids
                .iter()
                .enumerate()
                .filter(|&(k, _)| mask & (1 << k) != 0)
                .map(|(_, &id)| id)
                .collect();
            let s = Itemset::new(items, &c).unwrap();
            let text = rank.label(&s);
            assert_eq!(text, s.display(&c).to_string());
            assert_eq!(text.len(), text.capacity(), "{text}");
        }
        assert_eq!(rank.label(&Itemset::empty()), "{}");
    }
}
