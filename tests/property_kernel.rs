//! Property-based tests of the word-level outcome kernels, over **every**
//! dispatch path the host can run ([`available_kernels`] — portable, and
//! whichever of AVX-512/AVX2/NEON the build and the CPU offer). The
//! equivalence contract under test:
//!
//! * **counts** (rows, valid rows) are exact on every path;
//! * **integer-valued** outcome sums are *bitwise identical* across all
//!   paths and equal to a row-walking reference — every partial stays well
//!   below 2⁵³ so f64 addition is associative on them;
//! * **arbitrary real** sums agree within the reassociation bound of the
//!   16-lane canonical layout (each row participates in one of ≤ 17
//!   accumulation chains, so the error is `O(n · eps · Σ|x|)`), and all
//!   paths agree with each other *bitwise* (shared lane layout and
//!   fixed-order reduction);
//! * with **infinities and NaN** among the valid values, every path is NaN
//!   exactly where the portable path is, and bit-equal to it everywhere
//!   else; a NaN's sign and payload may differ, since which NaN an add
//!   returns depends on its operand order, which the compiler picks per
//!   path;
//! * the **boolean** popcount fast path and the **fused pair** kernel are
//!   exact accumulator-for-accumulator;
//! * every **count path** ([`available_count_paths`] — portable, and
//!   whichever of POPCNT/AVX-512 VPOPCNTDQ the build and the CPU offer)
//!   returns the portable loop's counts on covers of up to 301 words;
//! * folding up to [`MAX_COVERS`] sibling covers of one prefix in one pass
//!   gives each cover the bits of its own pair fold, on every path, with
//!   signed zeros, subnormals, infinities and NaN among the values.

use h_divexplorer::items::Bitset;
use h_divexplorer::mining::accum_scalar;
use h_divexplorer::stats::simd::{
    and_count_on, available_count_paths, masked_sums_on, pair_counts_assign_on, pair_counts_on,
    CountPath, MAX_COVERS,
};
use h_divexplorer::stats::{available_kernels, KernelPath, Outcome, OutcomePlanes, StatAccum};
use proptest::prelude::*;

/// An arbitrary outcome drawn from every kind the paper's statistics layer
/// supports: boolean (classification metrics), real (continuous divergence),
/// and missing.
fn outcome_strategy() -> impl Strategy<Value = Outcome> {
    prop_oneof![
        Just(Outcome::Undefined),
        any::<bool>().prop_map(Outcome::Bool),
        (-1e6f64..1e6).prop_map(Outcome::Real),
    ]
}

/// A purely boolean-or-missing outcome vector (takes the popcount fast path).
fn boolean_outcomes() -> impl Strategy<Value = Vec<Outcome>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Outcome::Undefined),
            any::<bool>().prop_map(Outcome::Bool),
        ],
        0..300,
    )
}

/// A mixed outcome vector (forces the masked word-chunked summation path).
fn mixed_outcomes() -> impl Strategy<Value = Vec<Outcome>> {
    proptest::collection::vec(outcome_strategy(), 0..300)
}

/// `(value, valid)` rows for driving [`masked_sums_on`] directly:
/// integer-valued f64s (exact under any summation order) or arbitrary reals.
fn rows(integer_valued: bool, max_len: usize) -> impl Strategy<Value = Vec<(f64, bool)>> {
    let value = if integer_valued {
        (-1_000_000i64..1_000_000).prop_map(|v| v as f64).boxed()
    } else {
        (-1e6f64..1e6).boxed()
    };
    proptest::collection::vec((value, any::<bool>()), 0..max_len)
}

/// A random cover over `n` rows, as row indices.
fn cover_for(n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..n.max(1), 0..=n)
}

fn bitset_from(n: usize, indices: &[usize]) -> Bitset {
    Bitset::from_indices(n, indices.iter().copied().filter(|&i| i < n))
}

/// Packs per-row `(value, valid)` pairs into the word-parallel layout the
/// kernels consume (invalid rows keep their value but leave the mask bit
/// clear — the kernels must never touch them).
fn pack(rows: &[(f64, bool)]) -> (Vec<f64>, Vec<u64>) {
    let n = rows.len();
    let mut values = vec![0.0f64; n];
    let mut valid = vec![0u64; n.div_ceil(64)];
    for (i, &(v, ok)) in rows.iter().enumerate() {
        values[i] = v;
        if ok {
            valid[i / 64] |= 1u64 << (i % 64);
        }
    }
    (values, valid)
}

fn cover_words(n: usize, indices: &[usize]) -> Vec<u64> {
    let mut words = vec![0u64; n.div_ceil(64)];
    for &i in indices.iter().filter(|&&i| i < n) {
        words[i / 64] |= 1u64 << (i % 64);
    }
    words
}

/// Independent row-walking oracle for `(count, sum, sum_sq)`.
fn reference(rows: &[(f64, bool)], cover: &[u64]) -> (u64, f64, f64) {
    let (mut count, mut sum, mut sum_sq) = (0u64, 0.0f64, 0.0f64);
    for (i, &(v, ok)) in rows.iter().enumerate() {
        if ok && cover[i / 64] >> (i % 64) & 1 == 1 {
            count += 1;
            sum += v;
            sum_sq += v * v;
        }
    }
    (count, sum, sum_sq)
}

/// A splitmix64 step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random cover over `n` rows, each word sparse, dense, full or even.
fn random_cover(state: &mut u64, n: usize) -> Bitset {
    let mut cover = Bitset::new(n);
    for w in cover.words_mut() {
        *w = match splitmix(state) % 4 {
            0 => splitmix(state) & splitmix(state),
            1 => splitmix(state) | splitmix(state),
            2 => !0,
            _ => splitmix(state),
        };
    }
    if let Some(last) = cover.words_mut().last_mut() {
        if !n.is_multiple_of(64) {
            *last &= (1u64 << (n % 64)) - 1;
        }
    }
    cover
}

/// An outcome value at an edge of IEEE addition about as often as an
/// ordinary one: signed zeros, subnormals of either sign, and — rarely, so
/// that most sums stay finite — infinities and NaN.
fn edge_value(state: &mut u64) -> f64 {
    let sign = if splitmix(state) & 1 == 1 { -1.0 } else { 1.0 };
    match splitmix(state) % 64 {
        0..=7 => -0.0,
        8..=15 => 0.0,
        16..=23 => sign * f64::from_bits(splitmix(state) & 0x000f_ffff_ffff_ffff),
        24 => sign * f64::INFINITY,
        25 => f64::NAN,
        _ => sign * (splitmix(state) >> 11) as f64 * 1e-9,
    }
}

/// `n` rows for [`masked_sums_on`]: finite edge values, about half of them
/// valid, with `specials` valid rows set to `+inf`, `-inf` or a NaN of
/// either sign at random positions (so `specials = 0` sums stay finite).
fn special_rows(state: &mut u64, n: usize, specials: usize) -> (Vec<f64>, Bitset) {
    let mut values: Vec<f64> = (0..n)
        .map(|_| match edge_value(state) {
            v if v.is_finite() => v,
            _ => 1.0,
        })
        .collect();
    let mut valid = random_cover(state, n);
    for _ in 0..specials.min(n) {
        let row = (splitmix(state) % n as u64) as usize;
        values[row] = match splitmix(state) % 4 {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => f64::NAN,
            _ => -f64::NAN,
        };
        valid.set(row);
    }
    (values, valid)
}

/// Reassociation tolerance for a sum of `n` doubles with magnitude budget
/// `abs_sum`: a generous multiple of `n · eps · Σ|x|`.
fn tolerance(n: usize, abs_sum: f64) -> f64 {
    16.0 * n.max(1) as f64 * f64::EPSILON * abs_sum.max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Integer-valued sums are bitwise identical on every available
    /// dispatch path — scalar, portable, and each arch kernel the host CPU
    /// supports — and equal to the row-walking reference.
    #[test]
    fn integer_sums_bitwise_identical_across_paths(
        data in rows(true, 300),
        idxs in cover_for(300),
    ) {
        let (values, valid) = pack(&data);
        let cover = cover_words(data.len(), &idxs);
        let (ref_count, ref_sum, ref_sq) = reference(&data, &cover);
        for path in available_kernels() {
            let (count, sum, sum_sq) = masked_sums_on(path, &values, &valid, &cover);
            prop_assert_eq!(count, ref_count, "count on {:?}", path);
            prop_assert_eq!(sum.to_bits(), ref_sum.to_bits(), "sum on {:?}", path);
            prop_assert_eq!(sum_sq.to_bits(), ref_sq.to_bits(), "sum_sq on {:?}", path);
        }
    }

    /// Arbitrary-real sums: counts exact on every path; sums agree with the
    /// reference within the reassociation bound; and every path agrees with
    /// every other bit for bit.
    #[test]
    fn real_sums_ulp_bounded_across_paths(
        data in rows(false, 300),
        idxs in cover_for(300),
    ) {
        let (values, valid) = pack(&data);
        let cover = cover_words(data.len(), &idxs);
        let (ref_count, ref_sum, ref_sq) = reference(&data, &cover);
        let abs: f64 = data
            .iter()
            .filter(|&&(_, ok)| ok)
            .map(|&(v, _)| v.abs())
            .sum();
        let tol = tolerance(data.len(), abs.max(abs * abs));
        let mut path_results: Vec<(KernelPath, u64, u64)> = Vec::new();
        for path in available_kernels() {
            let (count, sum, sum_sq) = masked_sums_on(path, &values, &valid, &cover);
            prop_assert_eq!(count, ref_count, "count on {:?}", path);
            prop_assert!(
                (sum - ref_sum).abs() <= tol,
                "sum on {:?}: {} vs {}", path, sum, ref_sum
            );
            prop_assert!(
                (sum_sq - ref_sq).abs() <= tol,
                "sum_sq on {:?}: {} vs {}", path, sum_sq, ref_sq
            );
            path_results.push((path, sum.to_bits(), sum_sq.to_bits()));
        }
        if let Some(&(first_path, first_sum, first_sq)) = path_results.first() {
            for &(path, sum, sum_sq) in &path_results[1..] {
                prop_assert_eq!(sum, first_sum, "{:?} vs {:?}", path, first_path);
                prop_assert_eq!(sum_sq, first_sq, "{:?} vs {:?}", path, first_path);
            }
        }
    }

    /// With infinities and NaN among up to 5,000 valid rows, every path
    /// counts the portable path's valid rows, is NaN exactly where the
    /// portable path is, and otherwise gives its bits. A NaN's bits are
    /// not compared: which NaN an add returns depends on its operand
    /// order, which the compiler may pick per path.
    #[test]
    fn non_finite_sums_match_the_portable_path_up_to_nan_bits(
        seed in any::<u64>(),
        n in 0usize..=5_000,
        specials in 0usize..=8,
    ) {
        let mut state = seed;
        let (values, valid) = special_rows(&mut state, n, specials);
        let cover = random_cover(&mut state, n);
        let (count, sum, sum_sq) =
            masked_sums_on(KernelPath::Portable, &values, valid.words(), cover.words());
        for path in available_kernels() {
            let got = masked_sums_on(path, &values, valid.words(), cover.words());
            prop_assert_eq!(got.0, count, "n_valid on {:?}", path);
            for (name, x, portable) in [("sum", got.1, sum), ("sum_sq", got.2, sum_sq)] {
                prop_assert_eq!(
                    x.is_nan(), portable.is_nan(),
                    "{} on {:?}: {} vs {}", name, path, x, portable
                );
                if !portable.is_nan() {
                    prop_assert_eq!(x.to_bits(), portable.to_bits(), "{} on {:?}", name, path);
                }
            }
        }
    }

    /// Boolean fast path: three fused popcounts reproduce the pushed
    /// accumulator exactly (integer-valued sums are exact in f64).
    #[test]
    fn boolean_kernel_is_exact(outcomes in boolean_outcomes(), idxs in cover_for(300)) {
        let n = outcomes.len();
        let cover = bitset_from(n, &idxs);
        let planes = OutcomePlanes::from_outcomes(&outcomes);
        prop_assert!(planes.is_boolean());
        let kernel = planes.accum(cover.words(), cover.count() as u64);
        prop_assert_eq!(kernel, accum_scalar(&cover, &outcomes));
    }

    /// Mixed outcomes through the full [`OutcomePlanes`] pipeline (whatever
    /// kernel `active_kernel()` dispatched to): counts exact, sums within
    /// the reassociation bound of the scalar reference.
    #[test]
    fn mixed_accum_counts_exact_sums_bounded(
        outcomes in mixed_outcomes(),
        idxs in cover_for(300),
    ) {
        let n = outcomes.len();
        let cover = bitset_from(n, &idxs);
        let planes = OutcomePlanes::from_outcomes(&outcomes);
        let kernel = planes.accum(cover.words(), cover.count() as u64);
        let scalar = accum_scalar(&cover, &outcomes);
        prop_assert_eq!(kernel.count(), scalar.count());
        prop_assert_eq!(kernel.valid_count(), scalar.valid_count());
        let (_, _, ksum, ksq) = kernel.raw_parts();
        let (_, _, ssum, ssq) = scalar.raw_parts();
        let abs: f64 = outcomes.iter().filter_map(|o| o.value()).map(f64::abs).sum();
        let tol = tolerance(n, abs.max(abs * abs));
        prop_assert!((ksum - ssum).abs() <= tol, "sum {} vs {}", ksum, ssum);
        prop_assert!((ksq - ssq).abs() <= tol, "sum_sq {} vs {}", ksq, ssq);
    }

    /// The fused pair kernel (used for leaf candidates that never
    /// materialise a joint bitset) is bitwise identical to accumulating
    /// over the materialised intersection: both feed the same masked words
    /// to the same kernel.
    #[test]
    fn pair_kernel_equals_materialised(
        outcomes in mixed_outcomes(),
        a_idx in cover_for(300),
        b_idx in cover_for(300),
    ) {
        let n = outcomes.len();
        let a = bitset_from(n, &a_idx);
        let b = bitset_from(n, &b_idx);
        let planes = OutcomePlanes::from_outcomes(&outcomes);
        let joint = a.and(&b);
        let fused = planes.accum_pair(a.words(), b.words(), joint.count() as u64);
        let materialised = planes.accum(joint.words(), joint.count() as u64);
        prop_assert_eq!(fused, materialised);
    }

    /// Every count path returns the portable loop's counts, and writes
    /// the same intersection, on covers of 0 to 301 words (every vector
    /// tail length); the boolean folds of [`OutcomePlanes`] equal the row
    /// walk of `accum_scalar`.
    #[test]
    fn count_paths_equal_the_portable_loop(seed in any::<u64>(), n in 0usize..=301 * 64) {
        let mut state = seed;
        let [a, b] = [(); 2].map(|()| random_cover(&mut state, n));
        let outcomes: Vec<Outcome> = (0..n)
            .map(|_| match splitmix(&mut state) % 3 {
                0 => Outcome::Undefined,
                r => Outcome::Bool(r == 1),
            })
            .collect();
        let mut valid = Bitset::new(n);
        let mut pos = Bitset::new(n);
        for (row, o) in outcomes.iter().enumerate() {
            if o.is_defined() {
                valid.set(row);
            }
            if *o == Outcome::Bool(true) {
                pos.set(row);
            }
        }
        let (a, b, valid, pos) = (a.words(), b.words(), valid.words(), pos.words());
        let count = and_count_on(CountPath::Portable, a, b);
        let folds = pair_counts_on(CountPath::Portable, a, b, valid, pos);
        let joint: Vec<u64> = a.iter().zip(b).map(|(x, y)| x & y).collect();
        for path in available_count_paths() {
            prop_assert_eq!(and_count_on(path, a, b), count, "{:?}", path);
            prop_assert_eq!(pair_counts_on(path, a, b, valid, pos), folds, "{:?}", path);
            let mut out = vec![!0u64; joint.len()];
            let got = pair_counts_assign_on(path, a, b, valid, pos, &mut out);
            prop_assert_eq!(got, folds, "{:?}", path);
            prop_assert_eq!(&out, &joint, "{:?}", path);
        }
        let mut cover = Bitset::new(n);
        cover.words_mut().copy_from_slice(&joint);
        prop_assert_eq!(count, cover.count() as u64);
        let scalar = accum_scalar(&cover, &outcomes);
        let planes = OutcomePlanes::from_outcomes(&outcomes);
        prop_assert_eq!(planes.accum(cover.words(), count), scalar);
        prop_assert_eq!(planes.accum_pair(a, b, count), scalar);
        let mut out = vec![0u64; joint.len()];
        prop_assert_eq!(planes.accum_assign_pair(a, b, &mut out, count), scalar);
        prop_assert_eq!(out, joint);
    }

    /// Folding 1 to [`MAX_COVERS`] covers of one prefix in one pass gives
    /// each cover the `(n, n_valid, sum, sum_sq)` bits of its own one-cover
    /// fold on the same masked-sum path, and those of its pair fold
    /// (`accum_pair`) on every path; the unused entries stay empty. Row
    /// counts up to 40,000 put partial words and 256-word block edges in
    /// play; ⊥, boolean and edge-valued real outcomes sit in selected and
    /// unselected rows alike. Across paths a NaN sum compares as NaN: which
    /// NaN an add returns depends on its operand order, which the compiler
    /// may pick per path.
    #[test]
    fn sibling_fold_equals_pair_folds(
        seed in any::<u64>(),
        n in 0usize..=40_000,
        k in 1usize..=MAX_COVERS,
    ) {
        let mut state = seed;
        let mut outcomes: Vec<Outcome> = (0..n)
            .map(|_| match splitmix(&mut state) % 4 {
                0 => Outcome::Undefined,
                1 => Outcome::Bool(splitmix(&mut state) & 1 == 1),
                _ => Outcome::Real(edge_value(&mut state)),
            })
            .collect();
        if let Some(first) = outcomes.first_mut() {
            // At least one real outcome keeps the planes on the masked sums.
            *first = Outcome::Real(edge_value(&mut state));
        }
        let planes = OutcomePlanes::from_outcomes(&outcomes);
        let prefix = random_cover(&mut state, n);
        let covers: Vec<Bitset> = (0..k).map(|_| random_cover(&mut state, n)).collect();
        let siblings: Vec<(&[u64], u64)> = covers
            .iter()
            .map(|c| (c.words(), prefix.and(c).count() as u64))
            .collect();
        let values: Vec<f64> = outcomes.iter().map(|o| o.value().unwrap_or(0.0)).collect();
        let mut valid = Bitset::new(n);
        for (row, o) in outcomes.iter().enumerate() {
            if o.is_defined() {
                valid.set(row);
            }
        }
        let bits = |a: StatAccum| {
            let (n, n_valid, sum, sum_sq) = a.raw_parts();
            (n, n_valid, sum.to_bits(), sum_sq.to_bits())
        };
        let nan_as_nan = |a: StatAccum| {
            let (n, n_valid, sum, sum_sq) = a.raw_parts();
            let canonical = |x: f64| if x.is_nan() { f64::NAN } else { x }.to_bits();
            (n, n_valid, canonical(sum), canonical(sum_sq))
        };
        let empty = bits(StatAccum::new());
        for path in available_kernels() {
            let folded = planes.accum_siblings_on(path, prefix.words(), &siblings);
            for (i, &accum) in folded.iter().enumerate() {
                let Some(&(cover, count)) = siblings.get(i) else {
                    prop_assert_eq!(bits(accum), empty, "{:?}, unused entry {}", path, i);
                    continue;
                };
                let joint: Vec<u64> = prefix.words().iter().zip(cover).map(|(p, c)| p & c).collect();
                let (n_valid, sum, sum_sq) = masked_sums_on(path, &values, valid.words(), &joint);
                let single = StatAccum::from_sums(count, n_valid, sum, sum_sq);
                prop_assert_eq!(bits(accum), bits(single), "{:?}, cover {} of {}", path, i, k);
                let pair = planes.accum_pair(prefix.words(), cover, count);
                prop_assert_eq!(nan_as_nan(accum), nan_as_nan(pair), "{:?}, cover {} of {}", path, i, k);
            }
        }
    }

    /// `StatAccum::from_counts` is bitwise-identical to pushing the same
    /// boolean outcomes one by one.
    #[test]
    fn from_counts_matches_pushes(outcomes in boolean_outcomes()) {
        let mut pushed = StatAccum::new();
        let (mut n_valid, mut positives) = (0u64, 0u64);
        for o in &outcomes {
            pushed.push(*o);
            if let Outcome::Bool(b) = o {
                n_valid += 1;
                positives += u64::from(*b);
            }
        }
        let direct = StatAccum::from_counts(outcomes.len() as u64, n_valid, positives);
        prop_assert_eq!(direct, pushed);
    }
}
