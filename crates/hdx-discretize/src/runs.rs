//! The sorted view of one continuous attribute that the tree discretizer
//! splits: each non-null row becomes a `(key, outcome)` pair, the pairs are
//! sorted by value with one stable LSD radix sort, and the sorted pairs are
//! cut into runs of equal values.
//!
//! A split always falls between two runs, so the discretizer needs the
//! prefix aggregates of the outcomes (defined count and sum) only at run
//! ends. [`Runs`] records them there, accumulated one pair at a time in
//! sorted order. Three facts make every aggregate the same float a
//! per-row prefix over a stable comparison sort of the row indices holds
//! at that position:
//!
//! * **Order.** The radix sort is stable and starts from row order, so
//!   ties keep row order: the permutation is the one a stable
//!   `f64::total_cmp` sort of the row indices gives.
//! * **Sums.** Each pair's outcome is added on its own, never a run's as
//!   one term, so the running sum at a run end is the per-row prefix at
//!   that position.
//! * **Runs.** Runs split where IEEE `==` says two adjacent values differ:
//!   `-0.0` and `+0.0` share a run, because no cut can separate them.

use hdx_stats::Outcome;

/// Bits of the outcome slot of a pair whose outcome is `⊥`: a NaN payload.
/// A defined outcome with exactly these bits is carried as [`f64::NAN`]
/// (its sums are NaN either way), so the two can never be confused.
const UNDEFINED: u64 = 0x7ff8_0000_dead_beef;

/// Bits per radix digit; [`PASSES`] digits cover a 64-bit key.
const DIGIT_BITS: u32 = 11;
/// Digit passes of the radix sort.
const PASSES: usize = 6;
/// Buckets per digit.
const BUCKETS: usize = 1 << DIGIT_BITS;

/// The unsigned key whose order is [`f64::total_cmp`]'s: a negative value
/// has every bit flipped, a positive one only its sign bit.
fn key_of(value: f64) -> u64 {
    let bits = value.to_bits();
    let negative = bits >> 63 == 1;
    bits ^ if negative { u64::MAX } else { 1 << 63 }
}

/// The value whose key is `key` (the inverse of [`key_of`]).
fn value_of(key: u64) -> f64 {
    let positive = key >> 63 == 1;
    f64::from_bits(key ^ if positive { 1 << 63 } else { u64::MAX })
}

/// Digit `pass` (least significant first) of `key`.
fn digit(key: u64, pass: usize) -> usize {
    (key >> (pass as u32 * DIGIT_BITS)) as usize & (BUCKETS - 1)
}

/// The outcome slot of a pair: the outcome's value, or [`UNDEFINED`]'s
/// bits for `⊥`.
fn outcome_slot(outcome: Outcome) -> f64 {
    match outcome.value() {
        Some(v) if v.to_bits() == UNDEFINED => f64::NAN,
        Some(v) => v,
        None => f64::from_bits(UNDEFINED),
    }
}

/// Digit counts of a set of keys: `counts[pass][digit]`.
type Histogram = Vec<[usize; BUCKETS]>;

/// Packs each non-null row into a `(key, outcome)` pair, in row order, and
/// counts every digit of every key for [`radix_sort`].
fn pack(values: &[f64], outcomes: &[Outcome]) -> (Vec<(u64, f64)>, Histogram) {
    let mut pairs = Vec::with_capacity(values.len());
    let mut counts = vec![[0; BUCKETS]; PASSES];
    for (&value, &outcome) in values.iter().zip(outcomes) {
        if value.is_nan() {
            continue;
        }
        let key = key_of(value);
        for (pass, count) in counts.iter_mut().enumerate() {
            count[digit(key, pass)] += 1;
        }
        pairs.push((key, outcome_slot(outcome)));
    }
    (pairs, counts)
}

/// Sorts `pairs` by key with a stable LSD radix sort, given the digit
/// counts of their keys. A pass whose digit is the same in every key would
/// leave the order as it is, so it is skipped: integer-valued columns,
/// whose low mantissa bits are all zero, take two passes of six.
fn radix_sort(pairs: &mut Vec<(u64, f64)>, mut counts: Histogram) {
    let Some(&(first, _)) = pairs.first() else {
        return;
    };
    let n = pairs.len();
    let mut scratch = vec![(0, 0.0); n];
    for (pass, count) in counts.iter_mut().enumerate() {
        if count[digit(first, pass)] == n {
            continue;
        }
        // Bucket starts, then a scatter in input order: stable.
        let mut start = 0;
        for slot in count.iter_mut() {
            let len = *slot;
            *slot = start;
            start += len;
        }
        for &pair in pairs.iter() {
            let slot = &mut count[digit(pair.0, pass)];
            scratch[*slot] = pair;
            *slot += 1;
        }
        std::mem::swap(pairs, &mut scratch);
    }
}

/// The outcome aggregates of the sorted pairs before one run boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Boundary {
    /// Sorted position of the boundary.
    pub(crate) end: usize,
    /// Defined outcomes before it.
    defined: usize,
    /// Their sum, accumulated one pair at a time.
    sum: f64,
}

impl Boundary {
    /// Rows between this boundary and a later one.
    pub(crate) fn rows_to(&self, later: &Boundary) -> usize {
        later.end - self.end
    }

    /// Mean of the defined outcomes between this boundary and a later one.
    pub(crate) fn mean_to(&self, later: &Boundary) -> Option<f64> {
        let defined = later.defined - self.defined;
        (defined > 0).then(|| (later.sum - self.sum) / defined as f64)
    }
}

/// One attribute's non-null rows sorted by value, cut into runs of equal
/// values, with the outcome aggregates at every run end.
///
/// Boundary 0 is sorted position 0 and boundary [`count`](Self::count) is
/// the number of non-null rows; boundary `j` ends run `j - 1`. A range
/// `[a, b)` of boundaries covers runs `a..b`.
pub(crate) struct Runs {
    /// `(key_of(value), outcome)` pairs sorted by key; a `⊥` outcome holds
    /// [`UNDEFINED`]'s bits.
    pairs: Vec<(u64, f64)>,
    /// Boundary 0, then one per run end.
    bounds: Vec<Boundary>,
}

impl Runs {
    /// Sorts the non-null `values` (NaN is null) with their rows'
    /// `outcomes` and cuts them into runs.
    pub(crate) fn build(values: &[f64], outcomes: &[Outcome]) -> Self {
        let (mut pairs, counts) = pack(values, outcomes);
        radix_sort(&mut pairs, counts);

        let mut bounds = Vec::with_capacity(pairs.len() + 1);
        let mut last = Boundary {
            end: 0,
            defined: 0,
            sum: 0.0,
        };
        bounds.push(last);
        let mut previous: Option<f64> = None;
        for (pos, &(key, outcome)) in pairs.iter().enumerate() {
            let value = value_of(key);
            if previous.is_some_and(|p| p != value) {
                last.end = pos;
                bounds.push(last);
            }
            previous = Some(value);
            if outcome.to_bits() != UNDEFINED {
                last.defined += 1;
                last.sum += outcome;
            }
        }
        if !pairs.is_empty() {
            last.end = pairs.len();
            bounds.push(last);
        }
        Self { pairs, bounds }
    }

    /// Number of runs: the last boundary's index.
    pub(crate) fn count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Boundary `j`.
    pub(crate) fn bound(&self, j: usize) -> &Boundary {
        &self.bounds[j]
    }

    /// Boundaries `a..b`.
    pub(crate) fn bounds(&self, a: usize, b: usize) -> &[Boundary] {
        &self.bounds[a..b]
    }

    /// The largest value (in total order) before boundary `j > 0`.
    pub(crate) fn value_before(&self, j: usize) -> f64 {
        value_of(self.pairs[self.bounds[j].end - 1].0)
    }

    /// The first boundary of `(a, b)` at least `min` rows after boundary
    /// `a`, or `b` when there is none.
    pub(crate) fn first_at_least(&self, a: usize, b: usize, min: usize) -> usize {
        let from = self.bounds[a].end + min;
        a + 1 + self.bounds[a + 1..b].partition_point(|bound| bound.end < from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bound(end: usize, defined: usize, sum: f64) -> Boundary {
        Boundary { end, defined, sum }
    }

    #[test]
    fn keys_order_like_total_cmp_and_round_trip() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.0,
            f64::INFINITY,
        ];
        for pair in values.windows(2) {
            assert!(key_of(pair[0]) < key_of(pair[1]), "{pair:?}");
        }
        for v in values {
            assert_eq!(value_of(key_of(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn runs_merge_signed_zeros_and_skip_nulls() {
        let values = [0.0, f64::NAN, -0.0, 1.0, -0.0, 1.0];
        let outcomes = [
            Outcome::Real(1.0),
            Outcome::Real(5.0),
            Outcome::Undefined,
            Outcome::Real(2.0),
            Outcome::Real(3.0),
            Outcome::Bool(true),
        ];
        let runs = Runs::build(&values, &outcomes);
        // Row order within the zero run: -0.0 (⊥), -0.0 (3), then +0.0 (1).
        assert_eq!(
            runs.bounds,
            [bound(0, 0, 0.0), bound(3, 2, 4.0), bound(5, 4, 7.0)]
        );
        assert_eq!(runs.value_before(1).to_bits(), 0.0f64.to_bits());
        assert_eq!(runs.bound(1).mean_to(runs.bound(2)), Some(1.5));
        assert_eq!(runs.first_at_least(0, 2, 4), 2);
        assert_eq!(runs.first_at_least(0, 2, 1), 1);
    }

    #[test]
    fn undefined_outcomes_never_count() {
        let payload = f64::from_bits(UNDEFINED);
        let runs = Runs::build(
            &[1.0, 1.0, 2.0],
            &[
                Outcome::Real(payload),
                Outcome::Undefined,
                Outcome::Undefined,
            ],
        );
        assert_eq!(
            runs.bounds.iter().map(|b| b.defined).collect::<Vec<_>>(),
            [0, 1, 1]
        );
        assert!(runs.bound(0).mean_to(runs.bound(1)).unwrap().is_nan());
        assert_eq!(runs.bound(1).mean_to(runs.bound(2)), None);
    }

    #[test]
    fn empty_input_has_one_boundary() {
        let runs = Runs::build(&[f64::NAN], &[Outcome::Bool(true)]);
        assert_eq!(runs.count(), 0);
        assert_eq!(runs.bound(0).end, 0);
        assert_eq!(runs.bound(0).mean_to(runs.bound(0)), None);
    }

    proptest! {
        /// The radix sort is the stable `total_cmp` sort of the rows.
        #[test]
        fn radix_sort_is_the_stable_total_order_sort(
            values in proptest::collection::vec(
                prop_oneof![
                    any::<u64>()
                        .prop_map(f64::from_bits)
                        .prop_map(|v| if v.is_nan() { 1.0 } else { v }),
                    (-3..3i32).prop_map(f64::from),
                    Just(-0.0),
                ],
                0..300,
            ),
        ) {
            // Each pair carries its row as its outcome.
            let row_outcomes: Vec<Outcome> =
                (0..values.len()).map(|row| Outcome::Real(row as f64)).collect();
            let (mut pairs, counts) = pack(&values, &row_outcomes);
            radix_sort(&mut pairs, counts);
            let mut rows: Vec<usize> = (0..values.len()).collect();
            rows.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
            let sorted_rows: Vec<usize> = pairs.iter().map(|&(_, row)| row as usize).collect();
            prop_assert_eq!(sorted_rows, rows);
        }
    }
}
