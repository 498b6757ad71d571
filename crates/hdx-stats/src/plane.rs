//! Word-level outcome kernels: the outcome vector as word-packed bitplanes.
//!
//! The mining hot loop computes a [`StatAccum`] for every frequent candidate
//! subgroup. The scalar path ([`StatAccum::push`] over the cover's set bits)
//! walks rows one at a time and dispatches on the [`Outcome`] enum per row.
//! [`OutcomePlanes`] re-encodes the outcome vector **once** as bitplanes so
//! that a subgroup's whole accumulator reduces to word-parallel operations
//! over the cover bitset:
//!
//! * a **valid plane** — bit `r` set iff `o(r) ≠ ⊥`;
//! * a **positive plane** — bit `r` set iff `o(r) = T` (boolean outcomes;
//!   always a subset of the valid plane).
//!
//! When every defined outcome is boolean (the probability-shaped statistics
//! of §V-A: FPR, error rate, …) the accumulator is three fused popcounts:
//!
//! ```text
//! n       = popcount(cover)                  (known from count-first pruning)
//! n_valid = popcount(cover ∧ valid)
//! k⁺      = popcount(cover ∧ pos)
//! ```
//!
//! and `sum = sum_sq = k⁺` exactly (integer-valued `f64` sums are exact below
//! 2⁵³), so the kernel result is **bit-for-bit identical** to the scalar
//! path. The two popcounts run on the count path of [`crate::simd`]
//! ([`simd::pair_counts`], dispatched once per process by
//! [`simd::active_count_path`]). For real-valued (or mixed) outcomes the
//! kernel reduces `sum` / `sum_sq` over `cover ∧ valid` through the
//! vectorized masked-sum kernels of [`crate::simd`] (dispatched once per
//! process by [`simd::active_kernel`]): covers stream through in
//! [`BLOCK_WORDS`](crate::simd::BLOCK_WORDS)-sized row blocks, each mask bit
//! expanded into an all-ones/all-zero `f64` lane selector over
//! [`LANES`](crate::simd::LANES) independent lane accumulators.
//!
//! **Exactness contract** (property-tested in `tests/property_kernel.rs`):
//! counts (`n`, `n_valid`, and the whole boolean path) are exact on every
//! kernel path; numeric sums are bitwise identical to the scalar path for
//! *integer-valued* outcomes (every partial sum below 2⁵³ is exactly
//! representable, so association doesn't matter), and within the 16-lane
//! reassociation bound for arbitrary reals. Every kernel path is bitwise
//! identical *to every other* on every sum that is not NaN, and NaN exactly
//! where every other is (a NaN's sign and payload may differ between
//! paths), so the result depends on neither the CPU nor the build's
//! `simd-arch` feature.
//!
//! The planes operate on raw `&[u64]` word slices (least-significant bit =
//! lowest row index, tail bits beyond the last row zero) so `hdx-stats`
//! stays independent of the bitset type; `hdx-items::Bitset::words` exposes
//! exactly this layout.

use crate::outcome::{Outcome, StatAccum};
use crate::simd::{self, KernelPath, SumsKernel, BLOCK_WORDS, MAX_COVERS};

/// Bitplane encoding of an outcome vector (DESIGN.md §10.1).
///
/// Build once per mining run with [`OutcomePlanes::from_outcomes`], then fold
/// covers into accumulators with [`accum`](OutcomePlanes::accum) (cover
/// already materialised) or [`accum_pair`](OutcomePlanes::accum_pair) (fused
/// over an unmaterialised intersection `a ∧ b`).
#[derive(Debug, Clone)]
pub struct OutcomePlanes {
    /// Number of encoded rows.
    n_rows: usize,
    /// Bit `r` set iff `outcomes[r]` is defined (not `⊥`).
    valid: Vec<u64>,
    /// Bit `r` set iff `outcomes[r] == Bool(true)`; subset of `valid`.
    pos: Vec<u64>,
    /// Per-row numeric outcome value (`0.0` where undefined); only populated
    /// (and only read) on the numeric path.
    values: Vec<f64>,
    /// Whether every defined outcome is boolean (three-popcount fast path).
    all_boolean: bool,
}

impl OutcomePlanes {
    /// Encodes `outcomes` into bitplanes. `O(n)`, done once per mining run.
    pub fn from_outcomes(outcomes: &[Outcome]) -> Self {
        let n = outcomes.len();
        let n_words = n.div_ceil(64);
        let all_boolean = !outcomes.iter().any(|o| matches!(o, Outcome::Real(_)));
        let mut valid = vec![0u64; n_words];
        let mut pos = vec![0u64; n_words];
        let mut values = if all_boolean {
            Vec::new()
        } else {
            vec![0.0; n]
        };
        for (row, o) in outcomes.iter().enumerate() {
            if let Some(v) = o.value() {
                // BOUND: row < n, so row / 64 < n_words by construction.
                valid[row / 64] |= 1u64 << (row % 64);
                if !all_boolean {
                    // BOUND: values was sized to n and row < n.
                    values[row] = v;
                }
            }
            if matches!(o, Outcome::Bool(true)) {
                // BOUND: row < n, so row / 64 < n_words by construction.
                pos[row / 64] |= 1u64 << (row % 64);
            }
        }
        Self {
            n_rows: n,
            valid,
            pos,
            values,
            all_boolean,
        }
    }

    /// Number of encoded rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of 64-bit words per plane (what cover slices must match).
    #[inline]
    pub fn n_words(&self) -> usize {
        self.valid.len()
    }

    /// Whether every defined outcome is boolean, i.e. whether
    /// [`accum`](Self::accum) runs on the three-popcount fast path.
    #[inline]
    pub fn is_boolean(&self) -> bool {
        self.all_boolean
    }

    /// The [`StatAccum`] of the rows set in `cover`, whose popcount the
    /// caller already knows to be `n` (typically from count-first pruning).
    ///
    /// `cover` is word-packed with the same layout as the planes; tail bits
    /// beyond the last row are ignored (they are masked by the valid plane).
    ///
    /// # Panics
    /// Panics when `cover` has a different word count than the planes.
    pub fn accum(&self, cover: &[u64], n: u64) -> StatAccum {
        assert_eq!(
            cover.len(),
            self.valid.len(),
            "cover word-count mismatch against outcome planes"
        );
        if self.all_boolean {
            // `cover ∧ cover` is `cover`: the pair fold over one cover.
            let (n_valid, k_pos) = simd::pair_counts(cover, cover, &self.valid, &self.pos);
            StatAccum::from_counts(n, n_valid, k_pos)
        } else {
            self.numeric_reduce(n, cover.iter().zip(&self.valid).map(|(&c, &v)| c & v))
        }
    }

    /// The [`StatAccum`] of the rows in `a ∧ b` — the fused pair kernel used
    /// for leaf candidates; the intersection is never materialised.
    ///
    /// # Panics
    /// Panics when `a` or `b` has a different word count than the planes.
    pub fn accum_pair(&self, a: &[u64], b: &[u64], n: u64) -> StatAccum {
        assert_eq!(
            a.len(),
            self.valid.len(),
            "cover word-count mismatch against outcome planes"
        );
        assert_eq!(a.len(), b.len(), "cover word-count mismatch");
        if self.all_boolean {
            let (n_valid, k_pos) = simd::pair_counts(a, b, &self.valid, &self.pos);
            StatAccum::from_counts(n, n_valid, k_pos)
        } else {
            self.numeric_reduce(
                n,
                a.iter()
                    .zip(b)
                    .zip(&self.valid)
                    .map(|((&x, &y), &v)| x & y & v),
            )
        }
    }

    /// The fused intersect-assign-accumulate kernel: writes `a ∧ b` into
    /// `out` **and** folds its [`StatAccum`] in the same pass, streaming
    /// [`BLOCK_WORDS`]-sized row blocks so each freshly written block is
    /// consumed while still cache-hot — on multi-million-row inputs this
    /// halves the memory traffic of the separate intersect-then-accumulate
    /// sequence it replaces.
    ///
    /// `n` is the popcount of `a ∧ b`, which the caller already knows from
    /// count-first pruning. Tail bits of `a`/`b` beyond the last row must be
    /// zero (both operands holding the clean-tail bitset invariant keeps the
    /// written intersection's tail clean too).
    ///
    /// # Panics
    /// Panics when `a`, `b` or `out` has a different word count than the
    /// planes.
    pub fn accum_assign_pair(&self, a: &[u64], b: &[u64], out: &mut [u64], n: u64) -> StatAccum {
        assert_eq!(
            a.len(),
            self.valid.len(),
            "cover word-count mismatch against outcome planes"
        );
        assert_eq!(a.len(), b.len(), "cover word-count mismatch");
        assert_eq!(a.len(), out.len(), "output word-count mismatch");
        if self.all_boolean {
            let (n_valid, k_pos) = simd::pair_counts_assign(a, b, &self.valid, &self.pos, out);
            StatAccum::from_counts(n, n_valid, k_pos)
        } else {
            self.numeric_reduce(
                n,
                a.iter()
                    .zip(b)
                    .zip(&self.valid)
                    .zip(out.iter_mut())
                    .map(|(((&x, &y), &v), o)| {
                        let c = x & y;
                        *o = c;
                        c & v
                    }),
            )
        }
    }

    /// The [`StatAccum`]s of the rows in `prefix ∧ cover` for up to
    /// [`MAX_COVERS`] sibling `(cover, n)` pairs, in order; the entries
    /// past `siblings.len()` are empty. Each equals
    /// [`accum_pair(prefix, cover, n)`](Self::accum_pair) bit for bit. On
    /// numeric planes one pass over the outcome values folds every sibling
    /// (see [`SumsKernel`]); on boolean planes each takes its own pair
    /// fold.
    ///
    /// # Panics
    /// Panics when there are more than [`MAX_COVERS`] siblings, or when a
    /// cover has a different word count than the planes.
    pub fn accum_siblings(
        &self,
        prefix: &[u64],
        siblings: &[(&[u64], u64)],
    ) -> [StatAccum; MAX_COVERS] {
        self.accum_siblings_on(simd::active_kernel(), prefix, siblings)
    }

    /// [`accum_siblings`](Self::accum_siblings) on an explicit masked-sum
    /// path — the per-path entry point the equivalence property tests
    /// drive.
    ///
    /// # Panics
    /// As [`accum_siblings`](Self::accum_siblings), and when `path` is
    /// unavailable (see [`KernelPath::is_available`]).
    pub fn accum_siblings_on(
        &self,
        path: KernelPath,
        prefix: &[u64],
        siblings: &[(&[u64], u64)],
    ) -> [StatAccum; MAX_COVERS] {
        assert_eq!(
            prefix.len(),
            self.valid.len(),
            "cover word-count mismatch against outcome planes"
        );
        assert!(
            siblings
                .iter()
                .all(|(cover, _)| cover.len() == prefix.len()),
            "cover word-count mismatch"
        );
        assert!(
            siblings.len() <= MAX_COVERS,
            "more than MAX_COVERS siblings"
        );
        let mut out = [StatAccum::new(); MAX_COVERS];
        if self.all_boolean {
            for (accum, &(cover, n)) in out.iter_mut().zip(siblings) {
                let (n_valid, k_pos) = simd::pair_counts(prefix, cover, &self.valid, &self.pos);
                *accum = StatAccum::from_counts(n, n_valid, k_pos);
            }
            return out;
        }
        let folded: &[StatAccum] = match *siblings {
            [a] => &self.fold_siblings(path, prefix, [a]),
            [a, b] => &self.fold_siblings(path, prefix, [a, b]),
            [a, b, c] => &self.fold_siblings(path, prefix, [a, b, c]),
            [a, b, c, d] => &self.fold_siblings(path, prefix, [a, b, c, d]),
            _ => &[],
        };
        for (accum, folded) in out.iter_mut().zip(folded) {
            *accum = *folded;
        }
        out
    }

    /// The numeric fold behind [`accum_siblings_on`](Self::accum_siblings_on):
    /// `K` covers masked by `prefix ∧ valid`, word by word, through one
    /// `K`-cover kernel.
    fn fold_siblings<const K: usize>(
        &self,
        path: KernelPath,
        prefix: &[u64],
        siblings: [(&[u64], u64); K],
    ) -> [StatAccum; K] {
        let mut covers = siblings.map(|(cover, _)| cover.iter());
        self.reduce_covers(
            path,
            siblings.map(|(_, n)| n),
            prefix.iter().zip(&self.valid).map(move |(&p, &v)| {
                let pv = p & v;
                covers.each_mut().map(|c| c.next().map_or(0, |&w| w & pv))
            }),
        )
    }

    /// [`reduce_covers`](Self::reduce_covers) of one cover on the active
    /// path.
    fn numeric_reduce(&self, n: u64, masked_words: impl Iterator<Item = u64>) -> StatAccum {
        let [accum] = self.reduce_covers(simd::active_kernel(), [n], masked_words.map(|m| [m]));
        accum
    }

    /// Streams pre-masked words (word `w` of `cover ∧ valid` for each of
    /// `K` covers, produced lazily by the caller's iterator) through a
    /// `K`-cover [`SumsKernel`] on `path` in [`BLOCK_WORDS`]-sized blocks,
    /// and pairs cover `k`'s sums with its row count `counts[k]`. Kernel
    /// lane state persists across blocks, so the result is independent of
    /// the blocking geometry.
    fn reduce_covers<const K: usize>(
        &self,
        path: KernelPath,
        counts: [u64; K],
        masked_words: impl Iterator<Item = [u64; K]>,
    ) -> [StatAccum; K] {
        let mut kernel = SumsKernel::<K>::new(path);
        let mut buf = [[0u64; K]; BLOCK_WORDS];
        let mut filled = 0usize;
        let mut values_rest = self.values.as_slice();
        for m in masked_words {
            // BOUND: `filled < BLOCK_WORDS` — reset below whenever the
            // buffer fills.
            buf[filled] = m;
            filled += 1;
            if filled == BLOCK_WORDS {
                let take = (BLOCK_WORDS * 64).min(values_rest.len());
                let (vals, rest) = values_rest.split_at(take);
                values_rest = rest;
                kernel.update(&buf, vals);
                filled = 0;
            }
        }
        if filled > 0 {
            let take = (filled * 64).min(values_rest.len());
            let (vals, _) = values_rest.split_at(take);
            let (masked, _) = buf.split_at(filled);
            kernel.update(masked, vals);
        }
        let mut out = [StatAccum::new(); K];
        for ((accum, n), (n_valid, sum, sum_sq)) in out.iter_mut().zip(counts).zip(kernel.finish())
        {
            *accum = StatAccum::from_sums(n, n_valid, sum, sum_sq);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference: push the outcomes of the cover's rows one at a time.
    fn scalar(cover_words: &[u64], outcomes: &[Outcome]) -> StatAccum {
        let mut acc = StatAccum::new();
        for (row, o) in outcomes.iter().enumerate() {
            if cover_words[row / 64] >> (row % 64) & 1 == 1 {
                acc.push(*o);
            }
        }
        acc
    }

    fn cover_of(n: usize, pred: impl Fn(usize) -> bool) -> Vec<u64> {
        let mut words = vec![0u64; n.div_ceil(64)];
        for row in (0..n).filter(|&r| pred(r)) {
            words[row / 64] |= 1 << (row % 64);
        }
        words
    }

    fn popcount(words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    #[test]
    fn boolean_kernel_is_bitwise_equal_to_scalar() {
        let outcomes: Vec<Outcome> = (0..200)
            .map(|i| match i % 5 {
                0 => Outcome::Undefined,
                1 | 2 => Outcome::Bool(true),
                _ => Outcome::Bool(false),
            })
            .collect();
        let planes = OutcomePlanes::from_outcomes(&outcomes);
        assert!(planes.is_boolean());
        for modulus in [1usize, 2, 3, 7] {
            let cover = cover_of(200, |r| r % modulus == 0);
            let n = popcount(&cover);
            assert_eq!(planes.accum(&cover, n), scalar(&cover, &outcomes));
        }
    }

    #[test]
    fn numeric_and_mixed_kernels_match_scalar() {
        let outcomes: Vec<Outcome> = (0..130)
            .map(|i| match i % 4 {
                0 => Outcome::Real(i as f64 * 0.25 - 7.0),
                1 => Outcome::Bool(i % 8 == 1),
                2 => Outcome::Undefined,
                _ => Outcome::Real(-(i as f64)),
            })
            .collect();
        let planes = OutcomePlanes::from_outcomes(&outcomes);
        assert!(!planes.is_boolean());
        let cover = cover_of(130, |r| r % 3 != 1);
        let n = popcount(&cover);
        // Same summation order as the scalar path → bitwise equal.
        assert_eq!(planes.accum(&cover, n), scalar(&cover, &outcomes));
    }

    #[test]
    fn pair_kernel_equals_materialised_intersection() {
        let outcomes: Vec<Outcome> = (0..150)
            .map(|i| {
                if i % 6 == 0 {
                    Outcome::Undefined
                } else {
                    Outcome::Bool(i % 3 == 0)
                }
            })
            .collect();
        let planes = OutcomePlanes::from_outcomes(&outcomes);
        let a = cover_of(150, |r| r % 2 == 0);
        let b = cover_of(150, |r| r % 3 != 2);
        let joint: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        let n = popcount(&joint);
        assert_eq!(planes.accum_pair(&a, &b, n), planes.accum(&joint, n));
        assert_eq!(planes.accum_pair(&a, &b, n), scalar(&joint, &outcomes));
    }

    #[test]
    fn empty_and_all_undefined() {
        let planes = OutcomePlanes::from_outcomes(&[]);
        assert_eq!(planes.n_rows(), 0);
        assert_eq!(planes.accum(&[], 0), StatAccum::new());
        let undef = OutcomePlanes::from_outcomes(&[Outcome::Undefined; 70]);
        let cover = cover_of(70, |_| true);
        let acc = undef.accum(&cover, 70);
        assert_eq!(acc.count(), 70);
        assert_eq!(acc.valid_count(), 0);
        assert_eq!(acc.statistic(), None);
    }

    #[test]
    #[should_panic(expected = "word-count mismatch")]
    fn mismatched_cover_panics() {
        let planes = OutcomePlanes::from_outcomes(&[Outcome::Bool(true); 10]);
        let _ = planes.accum(&[0u64, 0u64], 0);
    }
}
