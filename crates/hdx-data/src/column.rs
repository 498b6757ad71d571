//! Typed columns: dictionary-encoded categorical and `f64` continuous.

use std::collections::HashMap;

use crate::value::Value;

/// Sentinel code marking a null cell in a categorical column.
pub const NULL_CODE: u32 = u32::MAX;

/// The most levels a [`CategoricalColumn`] finds through its slot table.
/// A column with more levels keeps a hash map, whose keyed hash also
/// bounds the cost of adversarial input.
const SLOT_LEVELS: usize = 16;

/// Slots in a [`CategoricalColumn`]'s slot table: twice [`SLOT_LEVELS`],
/// so the table is at most half full and a probe ends at an empty slot.
const SLOTS: usize = 2 * SLOT_LEVELS;

/// One slot of the table over a column's first [`SLOT_LEVELS`] levels: a
/// level's key (its first eight bytes and its length) and its code plus
/// one; `code == 0` marks an empty slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    head: u64,
    len: u32,
    code: u32,
}

/// The key a level is found by: its first eight bytes, little-endian and
/// zero-padded, and its length (saturated, so a long level never passes
/// for a short one). A level of at most eight bytes is its key.
#[inline]
fn level_key(level: &str) -> (u64, u32) {
    let bytes = level.as_bytes();
    let head = match bytes.first_chunk::<8>() {
        Some(first) => u64::from_le_bytes(*first),
        None => {
            let mut head = [0; 8];
            for (h, &b) in head.iter_mut().zip(bytes) {
                *h = b;
            }
            u64::from_le_bytes(head)
        }
    };
    (head, u32::try_from(bytes.len()).unwrap_or(u32::MAX))
}

/// The first slot a key probes: the top bits of a multiplicative hash.
/// The length goes into the top byte, which a level shorter than eight
/// bytes leaves zero.
#[inline]
fn home_slot(head: u64, len: u32) -> usize {
    let hash = (head ^ u64::from(len).rotate_right(8)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // The top five bits: below `SLOTS`.
    (hash >> (64 - SLOTS.trailing_zeros())) as usize
}

/// Dictionary-encoded categorical column.
///
/// Each distinct level is assigned a dense code `0..n_levels`; cells store
/// codes, nulls store [`NULL_CODE`]. Level order is first-appearance order,
/// which keeps synthetic-data generation deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CategoricalColumn {
    codes: Vec<u32>,
    levels: Vec<String>,
    /// Level → code, built once there are more than [`SLOT_LEVELS`]
    /// levels; empty until then.
    level_ids: HashMap<String, u32>,
    /// Open-addressed (linear probing) table over the first
    /// [`SLOT_LEVELS`] levels, filled in code order: a pure function of
    /// the levels, so equal columns hold equal tables.
    slots: Box<[Slot; SLOTS]>,
}

impl CategoricalColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty column with pre-registered levels.
    pub fn with_levels<S: Into<String>>(levels: impl IntoIterator<Item = S>) -> Self {
        let mut col = Self::new();
        for l in levels {
            col.intern(&l.into());
        }
        col
    }

    /// Builds a column from string data.
    pub fn from_values<S: AsRef<str>>(values: impl IntoIterator<Item = S>) -> Self {
        let mut col = Self::new();
        for v in values {
            col.push(v.as_ref());
        }
        col
    }

    /// Registers a level (if new) and returns its code.
    pub fn intern(&mut self, level: &str) -> u32 {
        if let Some(id) = self.code_of(level) {
            return id;
        }
        #[expect(
            clippy::expect_used,
            reason = "level codes are u32, so a column holds at most 2^32 levels"
        )]
        let id = u32::try_from(self.levels.len()).expect("too many categorical levels");
        assert_ne!(id, NULL_CODE, "categorical level count overflow");
        self.levels.push(level.to_string());
        if self.levels.len() <= SLOT_LEVELS {
            let (head, len) = level_key(level);
            let mut at = home_slot(head, len);
            // At most `SLOT_LEVELS` of the `SLOTS` slots are taken, so the
            // probe meets an empty slot.
            while self.slots[at].code != 0 {
                at = (at + 1) % SLOTS;
            }
            self.slots[at] = Slot {
                head,
                len,
                code: id + 1,
            };
        } else if self.level_ids.is_empty() {
            self.level_ids = self.levels.iter().cloned().zip(0..).collect();
        } else {
            self.level_ids.insert(level.to_string(), id);
        }
        id
    }

    /// Appends a value.
    pub fn push(&mut self, level: &str) {
        let code = self.intern(level);
        self.codes.push(code);
    }

    /// Appends a null cell.
    pub fn push_null(&mut self) {
        self.codes.push(NULL_CODE);
    }

    /// Appends an already-encoded cell.
    ///
    /// # Panics
    /// Panics if `code` is neither a registered level nor [`NULL_CODE`].
    pub fn push_code(&mut self, code: u32) {
        assert!(
            code == NULL_CODE || (code as usize) < self.levels.len(),
            "code {code} not registered"
        );
        self.codes.push(code);
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The raw code of row `row` ([`NULL_CODE`] for nulls).
    #[inline]
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// All codes as a slice.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The level string of row `row`, or `None` for nulls.
    pub fn get(&self, row: usize) -> Option<&str> {
        let code = self.codes[row];
        (code != NULL_CODE).then(|| self.levels[code as usize].as_str())
    }

    /// The level string for a code.
    ///
    /// # Panics
    /// Panics when `code` is not a registered level.
    #[inline]
    pub fn level(&self, code: u32) -> &str {
        &self.levels[code as usize]
    }

    /// The code of a level, if registered.
    ///
    /// Up to 16 levels a slot table finds it, keyed on the level's first
    /// eight bytes and its length: probing from the key's home slot, a
    /// slot with an equal key holds the level when the level is at most
    /// eight bytes long, and otherwise when its full text compares equal.
    /// Past 16 levels a keyed hash map does.
    #[inline]
    pub fn code_of(&self, level: &str) -> Option<u32> {
        if self.levels.len() > SLOT_LEVELS {
            return self.level_ids.get(level).copied();
        }
        let (head, len) = level_key(level);
        let mut at = home_slot(head, len);
        loop {
            let slot = self.slots[at];
            let code = slot.code.checked_sub(1)?;
            if slot.head == head
                && slot.len == len
                && (len <= 8 || self.levels.get(code as usize).is_some_and(|l| l == level))
            {
                return Some(code);
            }
            at = (at + 1) % SLOTS;
        }
    }

    /// All registered levels, in code order.
    #[inline]
    pub fn levels(&self) -> &[String] {
        &self.levels
    }

    /// Number of distinct registered levels.
    #[inline]
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        self.codes.iter().filter(|&&c| c == NULL_CODE).count()
    }
}

/// Continuous (`f64`) column; nulls are stored as `NaN`.
#[derive(Debug, Clone, Default)]
pub struct ContinuousColumn {
    values: Vec<f64>,
}

impl PartialEq for ContinuousColumn {
    /// Cell-wise equality where two null (`NaN`) cells compare equal, so
    /// frames round-trip through serialisation.
    fn eq(&self, other: &Self) -> bool {
        self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a == b || (a.is_nan() && b.is_nan()))
    }
}

impl ContinuousColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a column from values (`NaN` = null).
    pub fn from_values(values: impl Into<Vec<f64>>) -> Self {
        Self {
            values: values.into(),
        }
    }

    /// Appends a value.
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Appends a null cell.
    #[inline]
    pub fn push_null(&mut self) {
        self.values.push(f64::NAN);
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at `row`, or `None` for nulls.
    #[inline]
    pub fn get(&self, row: usize) -> Option<f64> {
        let v = self.values[row];
        (!v.is_nan()).then_some(v)
    }

    /// Raw values (nulls encoded as `NaN`).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_nan()).count()
    }

    /// Minimum and maximum over non-null cells, or `None` when all-null/empty.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        let mut it = self.values.iter().copied().filter(|v| !v.is_nan());
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for v in it {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }
}

/// A typed column.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Dictionary-encoded categorical data.
    Categorical(CategoricalColumn),
    /// Continuous data.
    Continuous(ContinuousColumn),
}

impl Column {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Categorical(c) => c.len(),
            Column::Continuous(c) => c.len(),
        }
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell at `row` as a dynamic [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Categorical(c) => c
                .get(row)
                .map_or(Value::Null, |s| Value::Cat(s.to_string())),
            Column::Continuous(c) => c.get(row).map_or(Value::Null, Value::Num),
        }
    }

    /// The categorical payload, if this column is categorical.
    pub fn as_categorical(&self) -> Option<&CategoricalColumn> {
        match self {
            Column::Categorical(c) => Some(c),
            Column::Continuous(_) => None,
        }
    }

    /// The continuous payload, if this column is continuous.
    pub fn as_continuous(&self) -> Option<&ContinuousColumn> {
        match self {
            Column::Continuous(c) => Some(c),
            Column::Categorical(_) => None,
        }
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Categorical(c) => c.null_count(),
            Column::Continuous(c) => c.null_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_roundtrip() {
        let mut c = CategoricalColumn::new();
        c.push("M");
        c.push("F");
        c.push("M");
        c.push_null();
        assert_eq!(c.len(), 4);
        assert_eq!(c.n_levels(), 2);
        assert_eq!(c.get(0), Some("M"));
        assert_eq!(c.get(1), Some("F"));
        assert_eq!(c.get(2), Some("M"));
        assert_eq!(c.get(3), None);
        assert_eq!(c.code(0), c.code(2));
        assert_eq!(c.code_of("F"), Some(c.code(1)));
        assert_eq!(c.code_of("X"), None);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn categorical_levels_first_appearance_order() {
        let c = CategoricalColumn::from_values(["b", "a", "b", "c"]);
        assert_eq!(c.levels(), &["b".to_string(), "a".into(), "c".into()]);
        assert_eq!(c.level(0), "b");
    }

    #[test]
    fn lookup_is_the_same_past_the_scan_limit() {
        let names: Vec<String> = (0..3 * SLOT_LEVELS).map(|i| format!("v{i}")).collect();
        let mut c = CategoricalColumn::new();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(c.intern(name), i as u32);
            // Every level so far, re-interned, keeps its code.
            for (k, seen) in names.iter().take(i + 1).enumerate() {
                assert_eq!(c.intern(seen), k as u32);
                assert_eq!(c.code_of(seen), Some(k as u32));
            }
            assert_eq!(c.code_of("absent"), None);
        }
        assert_eq!(c.n_levels(), names.len());
        assert_eq!(
            c,
            CategoricalColumn::with_levels(names.iter().map(String::as_str))
        );
    }

    #[test]
    fn levels_sharing_a_key_keep_distinct_codes() {
        // Equal first eight bytes and equal length, different tails: every
        // level has the same slot-table key.
        let names: Vec<String> = (0..2 * SLOT_LEVELS)
            .map(|i| format!("category-{i:03}"))
            .collect();
        assert!(names.iter().all(|n| level_key(n) == level_key(&names[0])));
        let mut c = CategoricalColumn::new();
        for (i, name) in names.iter().enumerate() {
            c.push(name);
            // Before and after the switch to the map at level 17.
            for (k, seen) in names.iter().take(i + 1).enumerate() {
                assert_eq!(c.code_of(seen), Some(k as u32), "{seen} after {i}");
            }
            assert_eq!(c.code_of("category-999"), None);
            assert_eq!(c.code_of("category-00"), None);
        }
        assert_eq!(c.n_levels(), names.len());
        // Short levels are their key: a zero byte or a shorter length is a
        // different level.
        let c = CategoricalColumn::from_values(["a", "a\0", "a\0\0", "", "a"]);
        assert_eq!(c.levels(), ["a", "a\0", "a\0\0", ""]);
        assert_eq!(c.codes(), [0, 1, 2, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn push_code_validates() {
        let mut c = CategoricalColumn::new();
        c.push_code(5);
    }

    #[test]
    fn continuous_nulls_and_minmax() {
        let mut c = ContinuousColumn::new();
        c.push(2.0);
        c.push_null();
        c.push(-1.0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Some(2.0));
        assert_eq!(c.get(1), None);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.min_max(), Some((-1.0, 2.0)));
    }

    #[test]
    fn continuous_all_null_minmax() {
        let c = ContinuousColumn::from_values(vec![f64::NAN, f64::NAN]);
        assert_eq!(c.min_max(), None);
        assert_eq!(ContinuousColumn::new().min_max(), None);
    }

    #[test]
    fn column_dynamic_access() {
        let cat = Column::Categorical(CategoricalColumn::from_values(["x"]));
        let num = Column::Continuous(ContinuousColumn::from_values(vec![1.0]));
        assert_eq!(cat.value(0), Value::Cat("x".into()));
        assert_eq!(num.value(0), Value::Num(1.0));
        assert!(cat.as_categorical().is_some());
        assert!(cat.as_continuous().is_none());
        assert!(num.as_continuous().is_some());
    }
}
