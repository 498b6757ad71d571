//! Property-based tests of the [`StatAccum`] merge algebra. The FP-Growth
//! oracle (`hdx-mining`'s `fpgrowth.rs`) builds every itemset's statistics
//! by merging FP-tree node accumulators, so its agreement with the
//! production miner rests on `merge(a, b)` equalling accumulation of the
//! concatenated stream from scratch: bitwise for the integer fields, and
//! for the float sums bitwise on integer-valued (boolean) outcomes,
//! ULP-bounded on reals, however the stream is split.

use h_divexplorer::stats::{Outcome, StatAccum};
use proptest::prelude::*;

/// An arbitrary outcome: confusion-matrix style booleans, undefined cells,
/// and real-valued targets.
fn outcome() -> impl Strategy<Value = Outcome> {
    prop_oneof![
        Just(Outcome::Bool(false)),
        Just(Outcome::Bool(true)),
        Just(Outcome::Undefined),
        (-1.0e6f64..1.0e6).prop_map(Outcome::Real),
    ]
}

/// A boolean-only outcome (what the classification statistics produce);
/// their sums are small integers, so every algebra identity is bitwise.
fn bool_outcome() -> impl Strategy<Value = Outcome> {
    prop_oneof![
        Just(Outcome::Bool(false)),
        Just(Outcome::Bool(true)),
        Just(Outcome::Undefined),
    ]
}

fn accum(rows: &[Outcome]) -> StatAccum {
    let mut acc = StatAccum::new();
    for &o in rows {
        acc.push(o);
    }
    acc
}

/// Floating-point closeness under cancellation: a reassociated sum can
/// differ from the serial one by ~ε per term *relative to the terms'
/// magnitudes*, not the (possibly tiny, heavily cancelled) final value —
/// so the tolerance scales with `scale`, the sum of absolute addends.
fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 32.0 * f64::EPSILON * scale.max(a.abs()).max(b.abs()).max(1.0)
}

/// Σ|value| and Σ value² of a stream's defined outcomes — the scales that
/// bound reassociation error in `sum` and `sum_sq` respectively.
fn scales(rows: &[Outcome]) -> (f64, f64) {
    rows.iter()
        .filter_map(Outcome::value)
        .fold((0.0, 0.0), |(s, q), v| (s + v.abs(), q + v * v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `merge(a, b)` over boolean streams is *bitwise* identical to
    /// accumulating the concatenation from scratch: integer counts and
    /// integer-valued sums admit exact float addition.
    #[test]
    fn merge_of_boolean_streams_is_bitwise_from_scratch(
        xs in proptest::collection::vec(bool_outcome(), 0..200),
        ys in proptest::collection::vec(bool_outcome(), 0..200),
    ) {
        let mut merged = accum(&xs);
        merged.merge(&accum(&ys));
        let union: Vec<Outcome> = xs.iter().chain(ys.iter()).copied().collect();
        let scratch = accum(&union);
        let (mn, mv, ms, mq) = merged.raw_parts();
        let (sn, sv, ss, sq) = scratch.raw_parts();
        prop_assert_eq!((mn, mv), (sn, sv));
        prop_assert_eq!(ms.to_bits(), ss.to_bits(), "sum: {ms} vs {ss}");
        prop_assert_eq!(mq.to_bits(), sq.to_bits(), "sum_sq: {mq} vs {sq}");
    }

    /// `merge(a, b)` over real-valued streams matches from-scratch counts
    /// bitwise and sums to within a few ULPs (float addition is not
    /// associative, but the reordering is a single split point).
    #[test]
    fn merge_of_real_streams_is_ulp_close_to_from_scratch(
        xs in proptest::collection::vec(outcome(), 0..200),
        ys in proptest::collection::vec(outcome(), 0..200),
    ) {
        let mut merged = accum(&xs);
        merged.merge(&accum(&ys));
        let union: Vec<Outcome> = xs.iter().chain(ys.iter()).copied().collect();
        let scratch = accum(&union);
        let (mn, mv, ms, mq) = merged.raw_parts();
        let (sn, sv, ss, sq) = scratch.raw_parts();
        prop_assert_eq!((mn, mv), (sn, sv));
        // Merge adds two partial sums the scratch run accumulates serially:
        // identical term sets, one reassociation.
        let (scale, scale_sq) = scales(&union);
        prop_assert!(close(ms, ss, scale), "sum: {ms} vs {ss}");
        prop_assert!(close(mq, sq, scale_sq), "sum_sq: {mq} vs {sq}");
        // The derived statistic agrees to float precision.
        match (merged.statistic(), scratch.statistic()) {
            (Some(m), Some(s)) => prop_assert!(
                close(m, s, scale / sv.max(1) as f64),
                "stat: {m} vs {s}"
            ),
            (m, s) => prop_assert_eq!(m.is_some(), s.is_some()),
        }
    }

    /// Merge is associative on the integer fields and ULP-stable on the
    /// float fields regardless of batching — merging the stream in two
    /// pieces lands where one pass over it lands.
    #[test]
    fn merge_batching_is_immaterial(
        xs in proptest::collection::vec(outcome(), 1..120),
        split in 0usize..120,
    ) {
        let split = split % xs.len();
        let (head, tail) = xs.split_at(split);
        let mut batched = accum(head);
        batched.merge(&accum(tail));
        let whole = accum(&xs);
        let (bn, bv, bs, bq) = batched.raw_parts();
        let (wn, wv, ws, wq) = whole.raw_parts();
        let (scale, scale_sq) = scales(&xs);
        prop_assert_eq!((bn, bv), (wn, wv));
        prop_assert!(close(bs, ws, scale), "sum: {bs} vs {ws}");
        prop_assert!(close(bq, wq, scale_sq), "sum_sq: {bq} vs {wq}");
    }
}
