//! Item covers: mapping items to the rows that satisfy them (`D_α`).

use hdx_data::{AttributeKind, DataFrame};

use crate::bitset::Bitset;
use crate::catalog::{ItemCatalog, ItemId};
use crate::item::Predicate;

/// Whether row `row` of `df` satisfies item `item` (`x |= α`).
///
/// Null cells never satisfy an item.
///
/// # Panics
/// Panics when the item's predicate kind contradicts the attribute kind
/// (catalog built against a different schema).
pub fn item_matches(df: &DataFrame, catalog: &ItemCatalog, item: ItemId, row: usize) -> bool {
    let it = catalog.item(item);
    let attr = it.attr();
    match (df.schema().kind(attr), it.predicate()) {
        (AttributeKind::Categorical, Predicate::CatEq(_) | Predicate::CatIn(_)) => {
            let col = df.categorical(attr);
            let code = col.code(row);
            code != hdx_data::NULL_CODE && it.predicate().matches_code(code)
        }
        (AttributeKind::Continuous, Predicate::Range(j)) => {
            let v = df.continuous(attr).values()[row];
            j.contains(v)
        }
        #[expect(
            clippy::panic,
            reason = "an item kind mismatch is misuse, documented under `# Panics`"
        )]
        _ => panic!(
            "item `{}` predicate kind does not match attribute kind",
            it.label()
        ),
    }
}

/// The cover bitset of `item` over all rows of `df`.
pub fn item_cover(df: &DataFrame, catalog: &ItemCatalog, item: ItemId) -> Bitset {
    let it = catalog.item(item);
    let attr = it.attr();
    let n = df.n_rows();
    let mut bits = Bitset::new(n);
    match (df.schema().kind(attr), it.predicate()) {
        (AttributeKind::Categorical, Predicate::CatEq(code)) => {
            // Specialised fast path: direct code comparison.
            for (row, &c) in df.categorical(attr).codes().iter().enumerate() {
                if c == *code {
                    bits.set(row);
                }
            }
        }
        (AttributeKind::Categorical, Predicate::CatIn(codes)) => {
            for (row, &c) in df.categorical(attr).codes().iter().enumerate() {
                if c != hdx_data::NULL_CODE && codes.binary_search(&c).is_ok() {
                    bits.set(row);
                }
            }
        }
        (AttributeKind::Continuous, Predicate::Range(j)) => {
            for (row, &v) in df.continuous(attr).values().iter().enumerate() {
                if j.contains(v) {
                    bits.set(row);
                }
            }
        }
        #[expect(
            clippy::panic,
            reason = "an item kind mismatch is misuse, documented under `# Panics`"
        )]
        _ => panic!(
            "item `{}` predicate kind does not match attribute kind",
            it.label()
        ),
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::item::Item;
    use hdx_data::{DataFrameBuilder, Value};

    fn frame() -> DataFrame {
        let mut b = DataFrameBuilder::new();
        b.add_continuous("age").unwrap();
        b.add_categorical("sex").unwrap();
        for (age, sex) in [
            (Some(20.0), Some("M")),
            (Some(30.0), Some("F")),
            (None, Some("F")),
            (Some(40.0), None),
        ] {
            b.push_row(vec![
                age.map_or(Value::Null, Value::Num),
                sex.map_or(Value::Null, |s| Value::Cat(s.into())),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn range_cover_skips_nulls() {
        let df = frame();
        let mut c = ItemCatalog::new();
        let age = df.schema().id("age").unwrap();
        let item = c.intern(Item::range(age, Interval::greater_than(25.0), "age"));
        let cover = item_cover(&df, &c, item);
        assert_eq!(cover.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
        assert!(!item_matches(&df, &c, item, 2), "null age never matches");
        assert!(item_matches(&df, &c, item, 3));
    }

    #[test]
    fn cat_eq_cover_skips_nulls() {
        let df = frame();
        let mut c = ItemCatalog::new();
        let sex = df.schema().id("sex").unwrap();
        let code = df.categorical(sex).code_of("F").unwrap();
        let item = c.intern(Item::cat_eq(sex, code, "sex", "F"));
        let cover = item_cover(&df, &c, item);
        assert_eq!(cover.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
        assert!(!item_matches(&df, &c, item, 3), "null sex never matches");
    }

    #[test]
    fn cat_in_cover() {
        let df = frame();
        let mut c = ItemCatalog::new();
        let sex = df.schema().id("sex").unwrap();
        let m = df.categorical(sex).code_of("M").unwrap();
        let f = df.categorical(sex).code_of("F").unwrap();
        let item = c.intern(Item::cat_in(sex, vec![m, f], "sex", "any"));
        let cover = item_cover(&df, &c, item);
        assert_eq!(cover.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn matches_agrees_with_cover() {
        let df = frame();
        let mut c = ItemCatalog::new();
        let age = df.schema().id("age").unwrap();
        let sex = df.schema().id("sex").unwrap();
        let items = vec![
            c.intern(Item::range(age, Interval::at_most(25.0), "age")),
            c.intern(Item::range(age, Interval::new(25.0, 35.0), "age")),
            c.intern(Item::cat_eq(sex, 0, "sex", "M")),
        ];
        for item in items {
            let cover = item_cover(&df, &c, item);
            for row in 0..df.n_rows() {
                assert_eq!(cover.get(row), item_matches(&df, &c, item, row));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match attribute kind")]
    fn kind_mismatch_panics() {
        let df = frame();
        let mut c = ItemCatalog::new();
        let sex = df.schema().id("sex").unwrap();
        let item = c.intern(Item::range(sex, Interval::at_most(1.0), "sex"));
        let _ = item_cover(&df, &c, item);
    }
}
