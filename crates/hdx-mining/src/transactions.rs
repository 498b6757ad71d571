//! Transaction encoding: data columns → one cover bitset per item (+ outcome
//! payloads).

use std::collections::HashSet;

use hdx_data::{AttrId, AttributeKind, DataFrame};
use hdx_items::{Bitset, HierarchySet, ItemCatalog, ItemId, Predicate};
use hdx_stats::{Outcome, StatAccum};

use crate::vertical::accum_scalar;

/// Leaf-position sentinel for category codes no leaf claims.
const NO_LEAF: u32 = u32::MAX;

/// An encoded transaction database, stored vertically: for each item some
/// row satisfies, the cover bitset of those rows (ascending by item id,
/// never empty), plus every row's outcome.
///
/// *Base* encoding uses only hierarchy leaves (one item per attribute, the
/// classic DivExplorer / Slice Finder / SliceLine setting). *Generalized*
/// encoding adds every ancestor of the matching leaf (Srikant–Agrawal
/// extended transactions), enabling generalized itemset mining: an
/// ancestor's cover is the union of its leaves' covers, which is exactly the
/// set of rows whose extended transaction holds it.
#[derive(Debug, Clone)]
pub struct Transactions {
    covers: Vec<(ItemId, Bitset)>,
    outcomes: Vec<Outcome>,
}

impl Transactions {
    /// Encodes with leaf items only.
    pub fn encode_base(
        df: &DataFrame,
        catalog: &ItemCatalog,
        hierarchies: &HierarchySet,
        outcomes: &[Outcome],
    ) -> Self {
        Self::encode(df, catalog, hierarchies, outcomes, false)
    }

    /// Encodes with leaf items plus all their hierarchy ancestors.
    pub fn encode_generalized(
        df: &DataFrame,
        catalog: &ItemCatalog,
        hierarchies: &HierarchySet,
        outcomes: &[Outcome],
    ) -> Self {
        Self::encode(df, catalog, hierarchies, outcomes, true)
    }

    /// One pass per attribute sets each row's bit in its leaf's cover; in
    /// generalized mode every ancestor's cover is then the union of its
    /// leaves' covers. No per-row item list is ever built.
    fn encode(
        df: &DataFrame,
        catalog: &ItemCatalog,
        hierarchies: &HierarchySet,
        outcomes: &[Outcome],
        generalized: bool,
    ) -> Self {
        hdx_obs::span!("encode");
        assert_eq!(outcomes.len(), df.n_rows(), "outcomes not parallel to rows");
        let table_len = hierarchies
            .iter()
            .flat_map(|h| h.items())
            .map(|i| i.index() + 1)
            .max()
            .unwrap_or(0);
        let mut slots: Vec<Option<Bitset>> = vec![None; table_len];
        for hierarchy in hierarchies.iter() {
            let leaves = hierarchy.leaves();
            let covers = leaf_covers(df, catalog, hierarchy.attr(), &leaves);
            for (leaf, cover) in leaves.into_iter().zip(covers) {
                if generalized {
                    for ancestor in hierarchy.ancestors(leaf) {
                        match &mut slots[ancestor.index()] {
                            Some(acc) => acc.or_assign(&cover),
                            slot => *slot = Some(cover.clone()),
                        }
                    }
                }
                match &mut slots[leaf.index()] {
                    Some(acc) => acc.or_assign(&cover),
                    slot => *slot = Some(cover),
                }
            }
        }
        Self {
            covers: nonempty_covers(slots),
            outcomes: outcomes.to_vec(),
        }
    }

    /// Builds transactions from per-row item lists (tests, ablations, and
    /// the row-major oracles). Duplicate items within a row collapse.
    ///
    /// # Panics
    /// Panics when rows and outcomes lengths differ.
    pub fn from_rows(rows: Vec<Vec<ItemId>>, outcomes: Vec<Outcome>) -> Self {
        assert_eq!(rows.len(), outcomes.len(), "rows/outcomes length mismatch");
        let n = rows.len();
        let table_len = rows
            .iter()
            .flatten()
            .map(|i| i.index() + 1)
            .max()
            .unwrap_or(0);
        let mut slots: Vec<Option<Bitset>> = vec![None; table_len];
        for (row, items) in rows.iter().enumerate() {
            for item in items {
                slots[item.index()]
                    .get_or_insert_with(|| Bitset::new(n))
                    .set(row);
            }
        }
        Self {
            covers: nonempty_covers(slots),
            outcomes,
        }
    }

    /// Number of transactions (dataset rows).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.outcomes.len()
    }

    /// The cover of every item some row satisfies, ascending by item id.
    /// Every cover is non-empty and spans [`n_rows`](Self::n_rows) bits.
    #[inline]
    pub fn covers(&self) -> &[(ItemId, Bitset)] {
        &self.covers
    }

    /// The row-major view: per row, its items ascending. Built on demand
    /// from the covers for the row-walking oracles (FP-Growth, brute-force
    /// recounts); the miner never needs it.
    pub fn rows(&self) -> Vec<Vec<ItemId>> {
        let mut rows: Vec<Vec<ItemId>> = vec![Vec::new(); self.n_rows()];
        for (item, cover) in &self.covers {
            for row in cover.iter_ones() {
                rows[row].push(*item);
            }
        }
        rows
    }

    /// All outcomes.
    #[inline]
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Statistic accumulator over the whole database (the global `f(D)`).
    pub fn global_accum(&self) -> StatAccum {
        StatAccum::from_outcomes(&self.outcomes)
    }

    /// Per-item statistics over the database: for each distinct item, the
    /// accumulator of the rows containing it (the single-item "L1" pass used
    /// by polarity pruning, §V-C). Each cover is folded in ascending row
    /// order, so real-valued sums are reproducible bit for bit.
    pub fn item_stats(&self) -> Vec<(ItemId, StatAccum)> {
        self.covers
            .iter()
            .map(|(item, cover)| (*item, accum_scalar(cover, &self.outcomes)))
            .collect()
    }

    /// The distinct items appearing in any transaction, ascending.
    pub fn distinct_items(&self) -> Vec<ItemId> {
        self.covers.iter().map(|(item, _)| *item).collect()
    }

    /// A copy keeping only the items in `allowed` (used by polarity
    /// pruning).
    pub fn restrict(&self, allowed: &HashSet<ItemId>) -> Self {
        Self {
            covers: self
                .covers
                .iter()
                .filter(|(item, _)| allowed.contains(item))
                .cloned()
                .collect(),
            outcomes: self.outcomes.clone(),
        }
    }
}

/// The filled, non-empty slots of an `ItemId`-indexed cover table, ascending
/// by id.
fn nonempty_covers(slots: Vec<Option<Bitset>>) -> Vec<(ItemId, Bitset)> {
    slots
        .into_iter()
        .enumerate()
        .filter_map(|(i, slot)| {
            slot.filter(|cover| cover.count() > 0)
                .map(|cover| (ItemId(i as u32), cover))
        })
        .collect()
}

/// The covers of `leaves` (the leaf items of `attr`'s hierarchy), in the
/// same order. A row sets at most one leaf bit: leaves partition the
/// attribute's domain, and null cells set none.
fn leaf_covers(
    df: &DataFrame,
    catalog: &ItemCatalog,
    attr: AttrId,
    leaves: &[ItemId],
) -> Vec<Bitset> {
    let mut covers = vec![Bitset::new(df.n_rows()); leaves.len()];
    match df.schema().kind(attr) {
        AttributeKind::Categorical => {
            // Dense code → leaf-position table; codes no leaf claims (and
            // codes past the column's levels) stay unmapped.
            let column = df.categorical(attr);
            let mut leaf_of_code = vec![NO_LEAF; column.n_levels()];
            for (pos, &leaf) in leaves.iter().enumerate() {
                if let Predicate::CatEq(code) = catalog.item(leaf).predicate() {
                    if let Some(slot) = leaf_of_code.get_mut(*code as usize) {
                        *slot = pos as u32;
                    }
                }
            }
            categorical_leaf_bits(column.codes(), &leaf_of_code, &mut covers);
        }
        AttributeKind::Continuous => {
            // Leaves are disjoint (lo, hi] intervals; sort by hi and
            // binary-search each value.
            let mut bounds: Vec<(f64, f64, u32)> = leaves
                .iter()
                .enumerate()
                .filter_map(|(pos, &leaf)| {
                    catalog
                        .item(leaf)
                        .interval()
                        .map(|j| (j.lo, j.hi, pos as u32))
                })
                .collect();
            bounds.sort_by(|a, b| a.1.total_cmp(&b.1));
            continuous_leaf_bits(df.continuous(attr).values(), &bounds, &mut covers);
        }
    }
    covers
}

/// Sets each row's bit in the cover of the leaf its category code maps to.
/// A null code ([`hdx_data::NULL_CODE`], `u32::MAX`) lies past the table and
/// an unclaimed code maps to [`NO_LEAF`], past `covers`: neither sets a bit.
fn categorical_leaf_bits(codes: &[u32], leaf_of_code: &[u32], covers: &mut [Bitset]) {
    for (row, &code) in codes.iter().enumerate() {
        if let Some(&pos) = leaf_of_code.get(code as usize) {
            if let Some(cover) = covers.get_mut(pos as usize) {
                cover.set(row);
            }
        }
    }
}

/// Sets each row's bit in the cover of the leaf interval holding its value.
/// `bounds` holds `(lo, hi, leaf position)` sorted by `hi`; NaN (null) and
/// values outside every leaf set no bit.
fn continuous_leaf_bits(values: &[f64], bounds: &[(f64, f64, u32)], covers: &mut [Bitset]) {
    for (row, &v) in values.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        // First leaf with hi >= v.
        let at = bounds.partition_point(|&(_, hi, _)| hi < v);
        if let Some(&(lo, hi, pos)) = bounds.get(at) {
            if v > lo && v <= hi {
                if let Some(cover) = covers.get_mut(pos as usize) {
                    cover.set(row);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_data::{DataFrameBuilder, Value};
    use hdx_items::{Interval, Item, ItemHierarchy};

    fn setup() -> (DataFrame, ItemCatalog, HierarchySet, Vec<Outcome>) {
        let mut b = DataFrameBuilder::new();
        let x = b.add_continuous("x").unwrap();
        let s = b.add_categorical("s").unwrap();
        for (v, lvl) in [
            (Some(10.0), Some("a")),
            (Some(30.0), Some("b")),
            (Some(60.0), Some("a")),
            (None, Some("b")),
            (Some(90.0), None),
        ] {
            b.push_row(vec![
                v.map_or(Value::Null, Value::Num),
                lvl.map_or(Value::Null, |l| Value::Cat(l.into())),
            ])
            .unwrap();
        }
        let df = b.finish();
        let mut catalog = ItemCatalog::new();
        let mut hx = ItemHierarchy::new(x);
        let le50 = catalog.intern(Item::range(x, Interval::at_most(50.0), "x"));
        let gt50 = catalog.intern(Item::range(x, Interval::greater_than(50.0), "x"));
        let le20 = catalog.intern(Item::range(x, Interval::at_most(20.0), "x"));
        let m2050 = catalog.intern(Item::range(x, Interval::new(20.0, 50.0), "x"));
        hx.add_root(le50);
        hx.add_root(gt50);
        hx.add_child(le50, le20);
        hx.add_child(le50, m2050);
        let col = df.categorical(s).clone();
        let cat_items: Vec<ItemId> = (0..col.n_levels() as u32)
            .map(|c| catalog.intern(Item::cat_eq(s, c, "s", col.level(c))))
            .collect();
        let mut hs = HierarchySet::new();
        hs.push(hx);
        hs.push(ItemHierarchy::flat(s, cat_items));
        let outcomes = vec![
            Outcome::Bool(true),
            Outcome::Bool(false),
            Outcome::Undefined,
            Outcome::Bool(true),
            Outcome::Bool(false),
        ];
        (df, catalog, hs, outcomes)
    }

    #[test]
    fn base_encoding_one_item_per_attr() {
        let (df, catalog, hs, outcomes) = setup();
        let t = Transactions::encode_base(&df, &catalog, &hs, &outcomes);
        assert_eq!(t.n_rows(), 5);
        let rows = t.rows();
        // Row 0: x=10 → leaf x<=20; s=a.
        let labels: Vec<&str> = rows[0].iter().map(|&i| catalog.label(i)).collect();
        assert!(labels.contains(&"x<=20"));
        assert!(labels.contains(&"s=a"));
        assert_eq!(labels.len(), 2);
        // Row 2: x=60 → leaf x>50 (an unrefined root is its own leaf).
        let labels2: Vec<&str> = rows[2].iter().map(|&i| catalog.label(i)).collect();
        assert!(labels2.contains(&"x>50"));
        // Row 3: null x → only categorical item.
        assert_eq!(rows[3].len(), 1);
        // Row 4: null s → only continuous item.
        let labels4: Vec<&str> = rows[4].iter().map(|&i| catalog.label(i)).collect();
        assert_eq!(labels4, vec!["x>50"]);
    }

    #[test]
    fn generalized_encoding_adds_ancestors() {
        let (df, catalog, hs, outcomes) = setup();
        let t = Transactions::encode_generalized(&df, &catalog, &hs, &outcomes);
        let rows = t.rows();
        // Row 0: x=10 → x<=20 and its ancestor x<=50.
        let labels: Vec<&str> = rows[0].iter().map(|&i| catalog.label(i)).collect();
        assert!(labels.contains(&"x<=20"));
        assert!(labels.contains(&"x<=50"));
        assert!(labels.contains(&"s=a"));
        assert_eq!(labels.len(), 3);
        // Items are sorted and unique.
        let ids = &rows[0];
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn global_accum_covers_all_rows() {
        let (df, catalog, hs, outcomes) = setup();
        let t = Transactions::encode_base(&df, &catalog, &hs, &outcomes);
        let g = t.global_accum();
        assert_eq!(g.count(), 5);
        assert_eq!(g.valid_count(), 4);
        assert_eq!(g.statistic(), Some(0.5));
    }

    #[test]
    fn restrict_drops_items() {
        let (df, catalog, hs, outcomes) = setup();
        let t = Transactions::encode_generalized(&df, &catalog, &hs, &outcomes);
        let keep: HashSet<ItemId> = catalog
            .ids()
            .filter(|&i| catalog.label(i).starts_with("s="))
            .collect();
        let r = t.restrict(&keep);
        assert_eq!(r.n_rows(), t.n_rows());
        for items in r.rows() {
            assert!(items.iter().all(|&i| catalog.label(i).starts_with("s=")));
        }
        assert_eq!(r.outcomes(), t.outcomes());
    }

    #[test]
    fn item_stats_match_manual_count() {
        let (df, catalog, hs, outcomes) = setup();
        let t = Transactions::encode_base(&df, &catalog, &hs, &outcomes);
        let stats = t.item_stats();
        // s=a appears in rows 0 and 2 → outcomes Bool(true), Undefined.
        let sa = catalog.find_by_label("s=a").unwrap();
        let (_, acc) = stats.iter().find(|&&(i, _)| i == sa).unwrap();
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.valid_count(), 1);
        assert_eq!(acc.statistic(), Some(1.0));
        // Sorted by item id.
        assert!(stats.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn distinct_items_sorted() {
        let (df, catalog, hs, outcomes) = setup();
        let t = Transactions::encode_generalized(&df, &catalog, &hs, &outcomes);
        let d = t.distinct_items();
        assert!(d.windows(2).all(|w| w[0] < w[1]));
        // x(20,50] appears (row 1), all others too except none missing.
        assert!(d.len() >= 5);
    }

    #[test]
    fn from_rows_normalises() {
        let rows = vec![vec![ItemId(3), ItemId(1), ItemId(3)]];
        let t = Transactions::from_rows(rows, vec![Outcome::Bool(true)]);
        assert_eq!(t.rows(), vec![vec![ItemId(1), ItemId(3)]]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_rows_checks_lengths() {
        let _ = Transactions::from_rows(vec![vec![]], vec![]);
    }
}
