//! The sorted view of one continuous attribute that the tree discretizer
//! splits: each non-null row becomes a `(key, outcome)` pair, the pairs are
//! sorted by value with a stable radix sort, most significant digit first,
//! and the sorted pairs are cut into runs of equal values.
//!
//! A split always falls between two runs, so the discretizer needs the
//! prefix aggregates of the outcomes (defined count and sum) only at run
//! ends. [`Runs`] records them there, accumulated one pair at a time in
//! sorted order. Three facts make every aggregate the same float a
//! per-row prefix over a stable comparison sort of the row indices holds
//! at that position:
//!
//! * **Order.** The radix sort starts from row order and every step of it
//!   is stable: each MSD level counts one digit and scatters the pairs in
//!   input order, and a handful of pairs is finished by an insertion sort
//!   that moves a pair only past larger keys. So ties keep row order: the
//!   permutation is the one a stable `f64::total_cmp` sort of the row
//!   indices gives.
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

/// Most bits an MSD level splits on: 16,384 buckets.
const MAX_SPLIT_BITS: u32 = 14;
/// Pairs an insertion sort finishes without splitting them.
const SMALL: usize = 16;

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

/// The outcome slot of a pair: the outcome's value, or [`UNDEFINED`]'s
/// bits for `⊥`.
fn outcome_slot(outcome: Outcome) -> f64 {
    match outcome.value() {
        Some(v) if v.to_bits() == UNDEFINED => f64::NAN,
        Some(v) => v,
        None => f64::from_bits(UNDEFINED),
    }
}

/// Packs each non-null row into a `(key, outcome)` pair, in row order.
fn pack(values: &[f64], outcomes: &[Outcome]) -> Vec<(u64, f64)> {
    let mut pairs = Vec::with_capacity(values.len());
    for (&value, &outcome) in values.iter().zip(outcomes) {
        if !value.is_nan() {
            pairs.push((key_of(value), outcome_slot(outcome)));
        }
    }
    pairs
}

/// Sorts `pairs` by key, stably, most significant digit first.
fn radix_sort(pairs: &mut [(u64, f64)]) {
    let mut scratch = vec![(0, 0.0); pairs.len()];
    sort(pairs, &mut scratch, &mut Vec::new(), 0);
}

/// Bits an MSD level splits `n` pairs on: about two buckets per pair, so
/// that most buckets hold at most one, up to [`MAX_SPLIT_BITS`].
fn split_bits(n: usize) -> u32 {
    (n.ilog2() + 1).min(MAX_SPLIT_BITS)
}

/// Sorts `pairs` by key, stably, with `scratch` (as long) as the other
/// buffer of each scatter. A level keeps its bucket ends in
/// `counters[base..]`, growing it on first use, and the levels below it
/// use the counters past its own.
///
/// Only the key bits in which the pairs differ take part. A handful of
/// pairs is finished by insertion; any other set is split on the
/// [`split_bits`] bits from its highest differing bit down, with one count
/// and one stable scatter, and each bucket is sorted the same way. A
/// bucket's keys agree on every bit from the split digit up, so each level
/// drops the bits it split on: at least 5, so at most 13 levels.
fn sort(
    pairs: &mut [(u64, f64)],
    scratch: &mut [(u64, f64)],
    counters: &mut Vec<usize>,
    base: usize,
) {
    if pairs.len() <= SMALL {
        insertion_sort(pairs);
        return;
    }
    let first = pairs[0].0;
    let differ = pairs.iter().fold(0, |bits, &(key, _)| bits | key ^ first);
    if differ == 0 {
        return;
    }
    let bits = split_bits(pairs.len());
    let shift = (u64::BITS - differ.leading_zeros()).saturating_sub(bits);
    let mask = (1 << bits) - 1;
    let bucket = |key: u64| (key >> shift) as usize & mask;
    let below = base + (1 << bits);
    if counters.len() < below {
        counters.resize(below, 0);
    }
    let ends = &mut counters[base..below];
    ends.fill(0);
    for &(key, _) in pairs.iter() {
        ends[bucket(key)] += 1;
    }
    // Bucket starts, then a scatter in input order: stable.
    let mut start = 0;
    for slot in ends.iter_mut() {
        let len = *slot;
        *slot = start;
        start += len;
    }
    for &pair in pairs.iter() {
        let slot = &mut ends[bucket(pair.0)];
        scratch[*slot] = pair;
        *slot += 1;
    }
    pairs.copy_from_slice(scratch);
    let mut start = 0;
    for b in base..below {
        let end = counters[b];
        if end - start > 1 {
            sort(
                &mut pairs[start..end],
                &mut scratch[start..end],
                counters,
                below,
            );
        }
        start = end;
    }
}

/// Sorts a handful of pairs by key, stably.
fn insertion_sort(pairs: &mut [(u64, f64)]) {
    for i in 1..pairs.len() {
        let pair = pairs[i];
        let mut j = i;
        while j > 0 && pairs[j - 1].0 > pair.0 {
            pairs[j] = pairs[j - 1];
            j -= 1;
        }
        pairs[j] = pair;
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
        let mut pairs = pack(values, outcomes);
        radix_sort(&mut pairs);

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

    /// The rows of `values` in the radix sort's order, and in a stable
    /// `total_cmp` sort's.
    fn both_orders(values: &[f64]) -> (Vec<usize>, Vec<usize>) {
        // Each pair carries its row as its outcome.
        let row_outcomes: Vec<Outcome> = (0..values.len())
            .map(|row| Outcome::Real(row as f64))
            .collect();
        let mut pairs = pack(values, &row_outcomes);
        radix_sort(&mut pairs);
        let mut rows: Vec<usize> = (0..values.len()).collect();
        rows.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        (pairs.iter().map(|&(_, row)| row as usize).collect(), rows)
    }

    /// Pairs from which an MSD level splits on its widest digit,
    /// [`MAX_SPLIT_BITS`] bits.
    const WIDEST: usize = 1 << (MAX_SPLIT_BITS - 1);

    /// `n` values, each spread bits (never NaN), a small integer, a signed
    /// zero, a subnormal or an infinity. Mostly spread values are split
    /// level by level down to insertion sorts; mostly small signed integers
    /// end in buckets of equal keys; the integers 0–89 of a count column
    /// differ in 17 key bits, so a large set of them takes two levels, and
    /// quarters in `[1, 2)` differ in two and take one.
    fn sort_input(n: usize) -> impl Strategy<Value = Vec<f64>> {
        let spread = || {
            any::<u64>()
                .prop_map(f64::from_bits)
                .prop_map(|v| if v.is_nan() { 1.0 } else { v })
        };
        let tie = || (-3..3i32).prop_map(f64::from);
        let zero = || prop_oneof![Just(-0.0), Just(0.0)];
        let subnormal = || {
            (1..1u64 << 52, any::<bool>())
                .prop_map(|(bits, negative)| f64::from_bits(bits | u64::from(negative) << 63))
        };
        let infinite = || prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY)];
        prop_oneof![
            proptest::collection::vec(
                prop_oneof![8 => spread(), 4 => tie(), 1 => zero(), 1 => subnormal(), 1 => infinite()],
                n,
            ),
            proptest::collection::vec(
                prop_oneof![1 => spread(), 400 => tie(), 20 => zero(), 1 => subnormal(), 1 => infinite()],
                n,
            ),
            proptest::collection::vec((0..90i32).prop_map(f64::from), n),
            proptest::collection::vec((4..8i32).prop_map(|q| f64::from(q) / 4.0), n),
        ]
    }

    proptest! {
        /// The radix sort is the stable `total_cmp` sort of the rows, on
        /// inputs up to three times [`WIDEST`] pairs.
        #[test]
        fn radix_sort_is_the_stable_total_order_sort(
            values in prop_oneof![0..300usize, 300..3 * WIDEST].prop_flat_map(sort_input),
        ) {
            let (radix, stable) = both_orders(&values);
            prop_assert_eq!(radix, stable);
        }
    }

    /// Large columns of each shape the sort meets, at 70,000 and 300,000
    /// rows: every one sorts to the stable `total_cmp` order.
    #[test]
    fn large_columns_sort_to_the_stable_total_order() {
        let mut state = 0x5eed_u64;
        let mut unit = move || {
            // splitmix64, scaled to [0, 1).
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in [70_000, 300_000] {
            let shapes = [
                (
                    "uniform in [-5, 5]",
                    (0..n).map(|_| unit() * 10.0 - 5.0).collect(),
                ),
                (
                    "integer-valued",
                    (0..n).map(|_| (unit() * 90.0).floor()).collect(),
                ),
                (
                    "narrow [1000, 1001)",
                    (0..n).map(|_| 1000.0 + unit()).collect(),
                ),
                (
                    "half zeros",
                    (0..n)
                        .map(|_| {
                            if unit() < 0.5 {
                                0.0
                            } else {
                                unit() * 10.0 - 5.0
                            }
                        })
                        .collect(),
                ),
                ("all equal", vec![2.5; n]),
            ];
            for (shape, values) in shapes {
                let (radix, stable) = both_orders(&values);
                assert!(radix == stable, "{shape}, {n} rows");
            }
        }
    }
}
