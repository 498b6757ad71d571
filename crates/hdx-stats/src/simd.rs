//! Vectorized masked-sum kernels for the numeric outcome path.
//!
//! [`OutcomePlanes`](crate::OutcomePlanes) reduces a cover bitset to a
//! [`StatAccum`](crate::StatAccum). For boolean outcomes that is three fused
//! popcounts; for numeric outcomes the reduction is a *masked sum*:
//!
//! ```text
//! n_valid = Σ popcount(cover ∧ valid)
//! sum     = Σ values[r]        over set bits r of cover ∧ valid
//! sum_sq  = Σ values[r]²       over set bits r of cover ∧ valid
//! ```
//!
//! Rather than drain each word's set bits with `trailing_zeros` — a serial,
//! branchy loop that leaves the vector units idle — the kernels *expand*
//! each mask bit into an all-ones / all-zero `f64` lane selector and
//! accumulate **16 independent lanes**:
//! within every 64-row word, lane `j` sums the rows `≡ j (mod 16)`, in
//! ascending order. Because lane partials only ever combine element-wise,
//! every vector path — whatever its register width groups lanes into —
//! produces identical per-lane values, and one shared fixed-order reduction
//! (`reduce16`) folds them, so all vector paths agree **bit for bit**.
//!
//! ## Dispatch
//!
//! [`active_kernel`] picks the best compiled-in path once per process, from
//! the CPU and the build alone:
//!
//! | path | gate | notes |
//! |------|------|-------|
//! | [`KernelPath::Avx512`] | `simd-arch`, x86-64, runtime `avx512f` | the cover byte is the mask of a merge-masked add; one pass folds up to [`MAX_COVERS`] covers |
//! | [`KernelPath::Avx2`] | `simd-arch`, x86-64, runtime `avx2` | compare-expanded masks |
//! | [`KernelPath::Neon`] | `simd-arch`, aarch64 | NEON is baseline on aarch64 |
//! | [`KernelPath::Portable`] | always compiled | safe branch-free lane loop (autovectorizable) |
//!
//! Building without `simd-arch` (`--no-default-features`) leaves only the
//! portable path, which gives the same bits as every other path.
//!
//! ## Folding sibling covers
//!
//! A [`SumsKernel`] folds `K ≤` [`MAX_COVERS`] covers of one value vector
//! at once (the miner passes the frequent extensions of one prefix). There
//! is one AVX-512 body, generic over `K`: each cover keeps its own 16 lanes
//! in four registers, and each 8-row group of values is loaded and squared
//! once, then added into every cover with a merge-masked add. `K = 1` is
//! the one-cover kernel behind [`masked_sums`]. The AVX2, NEON and portable
//! paths fold the covers one at a time through their one-cover bodies.
//! Either way each cover's lanes see its rows in the same order, so each
//! cover gets the bits of a one-cover fold.
//!
//! ## Exactness contract
//!
//! * `n_valid` is a popcount: **exact on every path**.
//! * Every path shares the 16-lane accumulation order and `reduce16`, so
//!   all paths are **bitwise identical to each other** (no FMA anywhere —
//!   products round before accumulation on every path).
//! * Against a row-walking sum (ascending rows, one accumulator) the lanes
//!   reassociate. For **integer-valued** outcomes (booleans, counts,
//!   labels), as long as every partial sum stays below 2⁵³, each partial is
//!   exactly representable and the two agree **bit for bit**. For arbitrary
//!   reals they agree within the reassociation error bound property-tested
//!   in `tests/property_kernel.rs`.
//!
//! Masking is a bitwise AND of the value with an expanded mask (or, on
//! AVX-512, a merge-masked add that leaves an unselected lane as it was —
//! never a multiply), so masked-out `inf`/`NaN` rows never poison the sum,
//! exactly like a row walk that never visits them. The two give the same
//! bits: a lane starts at `+0.0` and, rounding to nearest, a sum is `−0.0`
//! only when both addends are, so a lane never holds `−0.0`, and adding
//! `+0.0` to any other value leaves it unchanged.
//!
//! ## Count kernels
//!
//! The miner's support counts ([`and_count`]) and the boolean folds of
//! [`OutcomePlanes`](crate::OutcomePlanes) ([`pair_counts`],
//! [`pair_counts_assign`]) are popcounts over zipped cover words. Each has
//! one body, compiled three ways, and [`active_count_path`] picks one once
//! per process, from the CPU and the build alone:
//!
//! | path | gate | notes |
//! |------|------|-------|
//! | [`CountPath::Avx512`] | `simd-arch`, x86-64, runtime `avx512f` + `avx512vpopcntdq` | the loop vectorizes to `vpopcntq` |
//! | [`CountPath::Popcnt`] | `simd-arch`, x86-64, runtime `popcnt` | one `popcnt` per word |
//! | [`CountPath::Portable`] | always compiled | `count_ones` on the build's baseline target |
//!
//! A popcount is exact, so every path returns the same counts. Without
//! `simd-arch`, on other targets and under Miri only the portable path is
//! compiled.
//!
//! [`and_count`]: crate::simd::and_count
//! [`pair_counts`]: crate::simd::pair_counts
//! [`pair_counts_assign`]: crate::simd::pair_counts_assign
//! [`SumsKernel`]: crate::simd::SumsKernel
//! [`MAX_COVERS`]: crate::simd::MAX_COVERS
//! [`masked_sums`]: crate::simd::masked_sums

use std::sync::OnceLock;

/// Covers are streamed through the kernels in blocks of this many 64-row
/// words: 256 words = 16 Ki rows per block, i.e. 2 KiB of cover words plus
/// 128 KiB of `f64` values — sized so a block's working set stays resident
/// in L2 while multi-million-row inputs stream through
/// ([`OutcomePlanes::accum_assign_pair`](crate::OutcomePlanes::accum_assign_pair)
/// writes the joint cover and consumes it while hot).
pub const BLOCK_WORDS: usize = 256;

/// Number of independent lane accumulators — the canonical reassociation
/// width every vector path shares.
pub const LANES: usize = 16;

/// A masked-sum kernel implementation, selected by [`active_kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// Safe branch-free 16-lane loop; the compiler autovectorizes it on any
    /// target. Always compiled; the default when no explicit SIMD path is
    /// available.
    Portable,
    /// AVX2 `core::arch` intrinsics (behind `simd-arch`, runtime-detected).
    Avx2,
    /// AVX-512 `core::arch` intrinsics with native mask-register loads
    /// (behind `simd-arch`, runtime-detected `avx512f`).
    Avx512,
    /// NEON `core::arch` intrinsics (behind `simd-arch` on aarch64).
    Neon,
}

impl KernelPath {
    /// Stable lower-case label (telemetry, bench JSON, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Portable => "portable",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
            Self::Neon => "neon",
        }
    }

    /// Whether this path is compiled in *and* usable on the running CPU.
    pub fn is_available(self) -> bool {
        match self {
            Self::Portable => true,
            Self::Avx2 => avx2_available(),
            Self::Avx512 => avx512_available(),
            Self::Neon => cfg!(all(feature = "simd-arch", target_arch = "aarch64")),
        }
    }
}

#[cfg(all(feature = "simd-arch", target_arch = "x86_64"))]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(all(feature = "simd-arch", target_arch = "x86_64")))]
fn avx2_available() -> bool {
    false
}

#[cfg(all(feature = "simd-arch", target_arch = "x86_64"))]
fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(all(feature = "simd-arch", target_arch = "x86_64")))]
fn avx512_available() -> bool {
    false
}

/// The kernel path every [`OutcomePlanes`](crate::OutcomePlanes) reduction
/// dispatches to, selected once per process: the first of
/// [`available_kernels`], i.e. the best path in the order
/// AVX-512 → AVX2 → NEON → portable lanes.
pub fn active_kernel() -> KernelPath {
    static ACTIVE: OnceLock<KernelPath> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        available_kernels()
            .first()
            .copied()
            .unwrap_or(KernelPath::Portable)
    })
}

/// Every path usable in this build on this CPU, best-first. `Portable` is
/// always present; property tests iterate this to prove cross-path
/// equivalence on whatever hardware runs them.
pub fn available_kernels() -> Vec<KernelPath> {
    [
        KernelPath::Avx512,
        KernelPath::Avx2,
        KernelPath::Neon,
        KernelPath::Portable,
    ]
    .into_iter()
    .filter(|p| p.is_available())
    .collect()
}

/// Folds the 16 lane accumulators in the fixed order every vector path
/// shares: halves 8 apart, then pairs 4 apart, 2 apart, and the final add —
/// the order a 512→256→128-bit horizontal reduction naturally produces.
#[inline]
fn reduce16(s: &[f64; LANES]) -> f64 {
    let &[s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15] = s;
    let h0 = s0 + s8;
    let h1 = s1 + s9;
    let h2 = s2 + s10;
    let h3 = s3 + s11;
    let h4 = s4 + s12;
    let h5 = s5 + s13;
    let h6 = s6 + s14;
    let h7 = s7 + s15;
    let t0 = h0 + h4;
    let t1 = h1 + h5;
    let t2 = h2 + h6;
    let t3 = h3 + h7;
    (t0 + t2) + (t1 + t3)
}

/// Most covers one [`SumsKernel`] folds in a pass over the values. The
/// AVX-512 body keeps four registers per cover, so four covers' sixteen
/// plus the shared loads and squares stay within its 32 registers.
pub const MAX_COVERS: usize = 4;

/// One cover's running masked sums: its valid-row count and the 16 lane
/// partials of Σ and Σ².
#[derive(Debug, Clone, Copy)]
struct Lanes {
    n_valid: u64,
    s: [f64; LANES],
    s2: [f64; LANES],
}

impl Lanes {
    const ZERO: Self = Self {
        n_valid: 0,
        s: [0.0; LANES],
        s2: [0.0; LANES],
    };

    /// Branch-free lane accumulation of one (possibly partial) 64-row word:
    /// the portable kernel body, also the shared tail handler of every
    /// vector path. Lane `j` of each 16-row group takes the row's value
    /// ANDed with the expanded mask bit (all-ones or all-zero), so
    /// unselected rows add exactly `+0.0`.
    fn word(&mut self, m: u64, chunk: &[f64]) {
        self.n_valid += u64::from(m.count_ones());
        let mut groups = chunk.chunks_exact(LANES);
        let mut g = 0usize;
        for group in groups.by_ref() {
            let window = (m >> (g * LANES)) & 0xffff;
            for (j, (&v, (s, s2))) in group
                .iter()
                .zip(self.s.iter_mut().zip(self.s2.iter_mut()))
                .enumerate()
            {
                let keep = 0u64.wrapping_sub((window >> j) & 1);
                let x = f64::from_bits(v.to_bits() & keep);
                *s += x;
                *s2 += x * x;
            }
            g += 1;
        }
        let done = g * LANES;
        for (j, (&v, (s, s2))) in groups
            .remainder()
            .iter()
            .zip(self.s.iter_mut().zip(self.s2.iter_mut()))
            .enumerate()
        {
            let keep = 0u64.wrapping_sub((m >> (done + j)) & 1);
            let x = f64::from_bits(v.to_bits() & keep);
            *s += x;
            *s2 += x * x;
        }
    }

    /// Final `(n_valid, sum, sum_sq)`.
    fn finish(&self) -> (u64, f64, f64) {
        (self.n_valid, reduce16(&self.s), reduce16(&self.s2))
    }
}

/// Streaming masked-sum kernel state for `K` covers of one value vector
/// (`1 ≤ K ≤` [`MAX_COVERS`]): feed blocks of pre-masked cover words with
/// [`update`](SumsKernel::update), then [`finish`](SumsKernel::finish).
///
/// The streaming shape exists so callers can *fuse* producing the masked
/// words (e.g. intersecting two covers block by block) with consuming them,
/// keeping each [`BLOCK_WORDS`] block cache-hot. Feeding the same words in
/// one call or many produces bitwise-identical results: lane state persists
/// across calls and blocks are whole words, so each lane sees the same
/// ascending row sequence either way.
///
/// The AVX-512 path folds all `K` covers in one pass over the values; the
/// other paths fold them one after another. Either way each cover's lanes
/// see its rows in the same order, so each cover's result has the bits of
/// a one-cover kernel fed that cover's words alone.
#[derive(Debug)]
pub struct SumsKernel<const K: usize> {
    path: KernelPath,
    lanes: [Lanes; K],
}

impl<const K: usize> SumsKernel<K> {
    /// A fresh kernel on `path`.
    ///
    /// # Panics
    /// Panics when `path` is not compiled in or not supported by the CPU
    /// (see [`KernelPath::is_available`]).
    pub fn new(path: KernelPath) -> Self {
        const {
            assert!(
                K >= 1 && K <= MAX_COVERS,
                "a kernel folds 1 to MAX_COVERS covers"
            )
        };
        assert!(
            path.is_available(),
            "kernel path {:?} unavailable in this build / on this CPU",
            path
        );
        Self {
            path,
            lanes: [Lanes::ZERO; K],
        }
    }

    /// Accumulates one block. Word `w` of `masked` holds `cover ∧ valid`
    /// word `w` of each of the `K` covers; `values` holds the corresponding
    /// rows' outcome values, `values.len() ≤ 64 · masked.len()`. All calls
    /// but the last must pass whole words (`values.len() = 64 ·
    /// masked.len()`); bits of `masked` at or beyond `values.len()` must be
    /// clear (the valid plane guarantees this).
    pub fn update(&mut self, masked: &[[u64; K]], values: &[f64]) {
        debug_assert!(
            values.len() <= masked.len() * 64,
            "values overrun masked words"
        );
        let full = values.len() / 64;
        let head_words = full.min(masked.len());
        let (head_m, tail_m) = masked.split_at(head_words);
        let (head_v, tail_v) = values.split_at(head_words * 64);
        match self.path {
            #[cfg(all(feature = "simd-arch", target_arch = "x86_64"))]
            KernelPath::Avx512 => {
                // SAFETY: `SumsKernel::new` asserted `Avx512.is_available()`,
                // i.e. runtime detection confirmed `avx512f`; `head_v` holds
                // exactly 64 values per word of `head_m`.
                unsafe { avx512_update(&mut self.lanes, head_m, head_v) };
            }
            #[cfg(all(feature = "simd-arch", target_arch = "x86_64"))]
            KernelPath::Avx2 => {
                for (k, l) in self.lanes.iter_mut().enumerate() {
                    // BOUND: `k < K`, the length of every mask word array.
                    let column = head_m.iter().map(|w| w[k]);
                    // SAFETY: `SumsKernel::new` asserted
                    // `Avx2.is_available()`, i.e. runtime detection
                    // confirmed AVX2; `head_v` holds exactly 64 values per
                    // word of `column`.
                    unsafe { avx2_update(&mut l.n_valid, &mut l.s, &mut l.s2, column, head_v) };
                }
            }
            #[cfg(all(feature = "simd-arch", target_arch = "aarch64"))]
            KernelPath::Neon => {
                for (k, l) in self.lanes.iter_mut().enumerate() {
                    // BOUND: `k < K`, the length of every mask word array.
                    let column = head_m.iter().map(|w| w[k]);
                    // SAFETY: NEON is baseline on every aarch64 target this
                    // compiles for; `head_v` holds 64 values per word of
                    // `column`.
                    unsafe { neon_update(&mut l.n_valid, &mut l.s, &mut l.s2, column, head_v) };
                }
            }
            // `Portable`, plus paths not compiled into this build (which
            // `new` already proved unreachable by asserting availability).
            _ => self.lane_words(head_m, head_v),
        }
        // Shared partial-word tail: the same 16-lane structure, scalar code.
        self.lane_words(tail_m, tail_v);
    }

    /// The portable 16-lane loop over `masked`'s words, one cover after
    /// another within each word.
    fn lane_words(&mut self, masked: &[[u64; K]], values: &[f64]) {
        for (words, chunk) in masked.iter().zip(values.chunks(64)) {
            for (l, &m) in self.lanes.iter_mut().zip(words) {
                l.word(m, chunk);
            }
        }
    }

    /// Final `(n_valid, sum, sum_sq)` of each cover.
    pub fn finish(self) -> [(u64, f64, f64); K] {
        self.lanes.map(|l| l.finish())
    }
}

/// One-shot masked sums on the [`active_kernel`] path:
/// `(n_valid, Σ values[r], Σ values[r]²)` over the set bits of
/// `cover ∧ valid`.
///
/// `cover` and `valid` must have equal word counts covering `values`
/// (`values.len() ≤ 64 · valid.len()`); `valid` must have no bits at or
/// beyond `values.len()`.
///
/// # Panics
/// Panics when the word counts differ.
pub fn masked_sums(values: &[f64], valid: &[u64], cover: &[u64]) -> (u64, f64, f64) {
    masked_sums_on(active_kernel(), values, valid, cover)
}

/// [`masked_sums`] on an explicit path — the per-path entry point the
/// equivalence property tests drive.
///
/// # Panics
/// Panics when the word counts differ or `path` is unavailable
/// (see [`KernelPath::is_available`]).
pub fn masked_sums_on(
    path: KernelPath,
    values: &[f64],
    valid: &[u64],
    cover: &[u64],
) -> (u64, f64, f64) {
    assert_eq!(cover.len(), valid.len(), "cover/valid word-count mismatch");
    let mut kernel = SumsKernel::<1>::new(path);
    let mut buf = [[0u64; 1]; BLOCK_WORDS];
    let mut values_rest = values;
    for (cw, vw) in cover.chunks(BLOCK_WORDS).zip(valid.chunks(BLOCK_WORDS)) {
        for (dst, (&c, &v)) in buf.iter_mut().zip(cw.iter().zip(vw)) {
            *dst = [c & v];
        }
        let take = (cw.len() * 64).min(values_rest.len());
        let (vals, rest) = values_rest.split_at(take);
        values_rest = rest;
        let (masked, _) = buf.split_at(cw.len());
        kernel.update(masked, vals);
    }
    let [sums] = kernel.finish();
    sums
}

/// A popcount implementation of the count kernels, selected by
/// [`active_count_path`]. Every path runs the same loop body, so every path
/// returns the same (exact) counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountPath {
    /// The loop compiled for the build's baseline target. Always compiled;
    /// the only path without `simd-arch`, on other targets and under Miri.
    Portable,
    /// The loop compiled with the `popcnt` instruction (behind `simd-arch`
    /// on x86-64, runtime-detected).
    Popcnt,
    /// The loop compiled for AVX-512 VPOPCNTDQ, which vectorizes it to
    /// `vpopcntq` (behind `simd-arch` on x86-64, runtime-detected).
    Avx512,
}

impl CountPath {
    /// Stable lower-case label (bench JSON, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Portable => "portable",
            Self::Popcnt => "popcnt",
            Self::Avx512 => "avx512",
        }
    }

    /// Whether this path is compiled in *and* usable on the running CPU.
    pub fn is_available(self) -> bool {
        match self {
            Self::Portable => true,
            Self::Popcnt => popcnt_available(),
            Self::Avx512 => vpopcntdq_available(),
        }
    }
}

#[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
fn popcnt_available() -> bool {
    std::arch::is_x86_feature_detected!("popcnt")
}

#[cfg(not(all(feature = "simd-arch", target_arch = "x86_64", not(miri))))]
fn popcnt_available() -> bool {
    false
}

#[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
fn vpopcntdq_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        && std::arch::is_x86_feature_detected!("popcnt")
}

#[cfg(not(all(feature = "simd-arch", target_arch = "x86_64", not(miri))))]
fn vpopcntdq_available() -> bool {
    false
}

/// The count path [`and_count`], [`pair_counts`] and [`pair_counts_assign`]
/// run on, selected once per process: the first of
/// [`available_count_paths`], i.e. AVX-512 VPOPCNTDQ → POPCNT → portable.
pub fn active_count_path() -> CountPath {
    static ACTIVE: OnceLock<CountPath> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        available_count_paths()
            .first()
            .copied()
            .unwrap_or(CountPath::Portable)
    })
}

/// Every count path usable in this build on this CPU, best-first.
/// `Portable` is always present; the equivalence tests iterate this.
pub fn available_count_paths() -> Vec<CountPath> {
    [CountPath::Avx512, CountPath::Popcnt, CountPath::Portable]
        .into_iter()
        .filter(|p| p.is_available())
        .collect()
}

/// `popcount(a ∧ b)` on the [`active_count_path`]: the support of the
/// intersection of two covers, without writing it.
///
/// # Panics
/// Panics when the word counts differ.
pub fn and_count(a: &[u64], b: &[u64]) -> u64 {
    and_count_on(active_count_path(), a, b)
}

/// [`and_count`] on an explicit path.
///
/// # Panics
/// Panics when the word counts differ or `path` is unavailable.
pub fn and_count_on(path: CountPath, a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "cover word-count mismatch");
    assert!(path.is_available(), "count path {path:?} unavailable");
    match path {
        #[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
        // SAFETY: the assert above confirmed `avx512f`, `avx512vpopcntdq`
        // and `popcnt` at runtime, the features the callee is compiled for.
        CountPath::Avx512 => unsafe { and_count_avx512(a, b) },
        #[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
        // SAFETY: the assert above confirmed `popcnt` at runtime.
        CountPath::Popcnt => unsafe { and_count_popcnt(a, b) },
        _ => and_count_body(a, b),
    }
}

/// `(popcount(a ∧ b ∧ valid), popcount(a ∧ b ∧ pos))` on the
/// [`active_count_path`]: a boolean fold's `n_valid` and `k⁺` over an
/// intersection that is never written.
///
/// # Panics
/// Panics when the word counts differ.
pub fn pair_counts(a: &[u64], b: &[u64], valid: &[u64], pos: &[u64]) -> (u64, u64) {
    pair_counts_on(active_count_path(), a, b, valid, pos)
}

/// [`pair_counts`] on an explicit path.
///
/// # Panics
/// Panics when the word counts differ or `path` is unavailable.
pub fn pair_counts_on(
    path: CountPath,
    a: &[u64],
    b: &[u64],
    valid: &[u64],
    pos: &[u64],
) -> (u64, u64) {
    assert!(
        a.len() == b.len() && a.len() == valid.len() && a.len() == pos.len(),
        "cover word-count mismatch"
    );
    assert!(path.is_available(), "count path {path:?} unavailable");
    match path {
        #[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
        // SAFETY: the assert above confirmed `avx512f`, `avx512vpopcntdq`
        // and `popcnt` at runtime, the features the callee is compiled for.
        CountPath::Avx512 => unsafe { pair_counts_avx512(a, b, valid, pos) },
        #[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
        // SAFETY: the assert above confirmed `popcnt` at runtime.
        CountPath::Popcnt => unsafe { pair_counts_popcnt(a, b, valid, pos) },
        _ => pair_counts_body(a, b, valid, pos),
    }
}

/// [`pair_counts`] that also writes `a ∧ b` into `out`, on the
/// [`active_count_path`].
///
/// # Panics
/// Panics when the word counts differ.
pub fn pair_counts_assign(
    a: &[u64],
    b: &[u64],
    valid: &[u64],
    pos: &[u64],
    out: &mut [u64],
) -> (u64, u64) {
    pair_counts_assign_on(active_count_path(), a, b, valid, pos, out)
}

/// [`pair_counts_assign`] on an explicit path.
///
/// # Panics
/// Panics when the word counts differ or `path` is unavailable.
pub fn pair_counts_assign_on(
    path: CountPath,
    a: &[u64],
    b: &[u64],
    valid: &[u64],
    pos: &[u64],
    out: &mut [u64],
) -> (u64, u64) {
    assert!(
        a.len() == b.len()
            && a.len() == valid.len()
            && a.len() == pos.len()
            && a.len() == out.len(),
        "cover word-count mismatch"
    );
    assert!(path.is_available(), "count path {path:?} unavailable");
    match path {
        #[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
        // SAFETY: the assert above confirmed `avx512f`, `avx512vpopcntdq`
        // and `popcnt` at runtime, the features the callee is compiled for.
        CountPath::Avx512 => unsafe { pair_counts_assign_avx512(a, b, valid, pos, out) },
        #[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
        // SAFETY: the assert above confirmed `popcnt` at runtime.
        CountPath::Popcnt => unsafe { pair_counts_assign_popcnt(a, b, valid, pos, out) },
        _ => pair_counts_assign_body(a, b, valid, pos, out),
    }
}

/// The one body of [`and_count`], inlined into each compiled path.
#[inline(always)]
fn and_count_body(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u64::from((x & y).count_ones()))
        .sum()
}

/// The one body of [`pair_counts`], inlined into each compiled path.
#[inline(always)]
fn pair_counts_body(a: &[u64], b: &[u64], valid: &[u64], pos: &[u64]) -> (u64, u64) {
    let mut n_valid = 0u64;
    let mut k_pos = 0u64;
    for (((&x, &y), &v), &p) in a.iter().zip(b).zip(valid).zip(pos) {
        let c = x & y;
        n_valid += u64::from((c & v).count_ones());
        k_pos += u64::from((c & p).count_ones());
    }
    (n_valid, k_pos)
}

/// The one body of [`pair_counts_assign`], inlined into each compiled path.
#[inline(always)]
fn pair_counts_assign_body(
    a: &[u64],
    b: &[u64],
    valid: &[u64],
    pos: &[u64],
    out: &mut [u64],
) -> (u64, u64) {
    let mut n_valid = 0u64;
    let mut k_pos = 0u64;
    for ((((&x, &y), &v), &p), o) in a.iter().zip(b).zip(valid).zip(pos).zip(out.iter_mut()) {
        let c = x & y;
        *o = c;
        n_valid += u64::from((c & v).count_ones());
        k_pos += u64::from((c & p).count_ones());
    }
    (n_valid, k_pos)
}

/// [`and_count_body`] compiled for AVX-512 VPOPCNTDQ.
#[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
fn and_count_avx512(a: &[u64], b: &[u64]) -> u64 {
    and_count_body(a, b)
}

/// [`and_count_body`] compiled with POPCNT.
#[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "popcnt")]
fn and_count_popcnt(a: &[u64], b: &[u64]) -> u64 {
    and_count_body(a, b)
}

/// [`pair_counts_body`] compiled for AVX-512 VPOPCNTDQ.
#[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
fn pair_counts_avx512(a: &[u64], b: &[u64], valid: &[u64], pos: &[u64]) -> (u64, u64) {
    pair_counts_body(a, b, valid, pos)
}

/// [`pair_counts_body`] compiled with POPCNT.
#[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "popcnt")]
fn pair_counts_popcnt(a: &[u64], b: &[u64], valid: &[u64], pos: &[u64]) -> (u64, u64) {
    pair_counts_body(a, b, valid, pos)
}

/// [`pair_counts_assign_body`] compiled for AVX-512 VPOPCNTDQ.
#[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
fn pair_counts_assign_avx512(
    a: &[u64],
    b: &[u64],
    valid: &[u64],
    pos: &[u64],
    out: &mut [u64],
) -> (u64, u64) {
    pair_counts_assign_body(a, b, valid, pos, out)
}

/// [`pair_counts_assign_body`] compiled with POPCNT.
#[cfg(all(feature = "simd-arch", target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "popcnt")]
fn pair_counts_assign_popcnt(
    a: &[u64],
    b: &[u64],
    valid: &[u64],
    pos: &[u64],
    out: &mut [u64],
) -> (u64, u64) {
    pair_counts_assign_body(a, b, valid, pos, out)
}

#[cfg(all(feature = "simd-arch", target_arch = "x86_64"))]
use std::arch::x86_64::{
    __m256d, __m512d, _mm256_add_pd, _mm256_and_pd, _mm256_and_si256, _mm256_castsi256_pd,
    _mm256_cmpeq_epi64, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_epi64x, _mm256_set_epi64x,
    _mm256_storeu_pd, _mm512_loadu_pd, _mm512_mask_add_pd, _mm512_mul_pd, _mm512_setzero_pd,
    _mm512_storeu_pd,
};

/// AVX-512 masked-sum block body for `K` covers in one pass over the
/// values. Each cover keeps the canonical 16 lanes in four 8-lane
/// registers: Σ of lanes 0–7 and of lanes 8–15 of each 16-row group, then
/// Σ² of the same. Each 8-row group of values is loaded and squared once
/// and added into every cover with a merge-masked add whose mask is that
/// cover's byte of the word, so mask expansion costs nothing and a cover's
/// unselected lanes keep their value. The other paths add the `+0.0` of a
/// zeroed row there instead, with the same bits: a lane starts at `+0.0`
/// and, rounding to nearest, a sum is `−0.0` only when both addends are, so
/// a lane never holds `−0.0`, and adding `+0.0` to any other value (a NaN
/// included) returns it unchanged. Whole 64-row words only; the caller
/// routes the partial tail through the portable lane loop.
///
/// # Safety
/// The caller must have verified `avx512f` support at runtime
/// (`is_x86_feature_detected!("avx512f")`); `values` must hold exactly
/// 64 values per word of `masked`.
#[cfg(all(feature = "simd-arch", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
// SAFETY: `unsafe fn` solely because of `#[target_feature]`: callers reach
// it only through `SumsKernel::update` after runtime AVX-512 detection.
unsafe fn avx512_update<const K: usize>(
    lanes: &mut [Lanes; K],
    masked: &[[u64; K]],
    values: &[f64],
) {
    debug_assert_eq!(values.len(), masked.len() * 64);
    let mut acc: [[__m512d; 4]; K] = [[_mm512_setzero_pd(); 4]; K];
    for (a, l) in acc.iter_mut().zip(lanes.iter()) {
        // SAFETY: the accumulator arrays are 16 contiguous f64s; unaligned
        // loads of 8 lanes at offsets 0 and 8 are in bounds.
        *a = [
            _mm512_loadu_pd(l.s.as_ptr()),
            _mm512_loadu_pd(l.s.as_ptr().add(8)),
            _mm512_loadu_pd(l.s2.as_ptr()),
            _mm512_loadu_pd(l.s2.as_ptr().add(8)),
        ];
    }
    for (words, chunk) in masked.iter().zip(values.chunks_exact(64)) {
        for (l, &m) in lanes.iter_mut().zip(words) {
            l.n_valid += u64::from(m.count_ones());
        }
        let base = chunk.as_ptr();
        let mut g = 0u32;
        while g < 4 {
            // SAFETY: `chunk` is exactly 64 contiguous f64s, so offsets
            // `16·g` and `16·g + 8` with `g < 4` leave 8 readable lanes.
            let x_a = _mm512_loadu_pd(base.add((g * 16) as usize));
            let x_b = _mm512_loadu_pd(base.add((g * 16 + 8) as usize));
            let q_a = _mm512_mul_pd(x_a, x_a);
            let q_b = _mm512_mul_pd(x_b, x_b);
            for ([s_a, s_b, s2_a, s2_b], &m) in acc.iter_mut().zip(words) {
                let k_a = ((m >> (g * 16)) & 0xff) as u8;
                let k_b = ((m >> (g * 16 + 8)) & 0xff) as u8;
                *s_a = _mm512_mask_add_pd(*s_a, k_a, *s_a, x_a);
                *s_b = _mm512_mask_add_pd(*s_b, k_b, *s_b, x_b);
                *s2_a = _mm512_mask_add_pd(*s2_a, k_a, *s2_a, q_a);
                *s2_b = _mm512_mask_add_pd(*s2_b, k_b, *s2_b, q_b);
            }
            g += 1;
        }
    }
    for (l, [s_a, s_b, s2_a, s2_b]) in lanes.iter_mut().zip(acc) {
        // SAFETY: same 16-f64 accumulator arrays as the loads above.
        _mm512_storeu_pd(l.s.as_mut_ptr(), s_a);
        _mm512_storeu_pd(l.s.as_mut_ptr().add(8), s_b);
        _mm512_storeu_pd(l.s2.as_mut_ptr(), s2_a);
        _mm512_storeu_pd(l.s2.as_mut_ptr().add(8), s2_b);
    }
}

/// AVX2 masked-sum block body: four 4-lane accumulator pairs covering the
/// canonical 16-lane layout (lanes 4p‥4p+4 of each 16-row group in register
/// p), with compare-expanded masks and mul-then-add (no FMA) so lane values
/// stay bitwise identical to the portable lane loop. One cover per call:
/// `masked` yields its words. Whole 64-row words only; the caller routes
/// the partial tail through the portable lane loop.
///
/// # Safety
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`); `values` must hold exactly
/// 64 values per word of `masked`.
#[cfg(all(feature = "simd-arch", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: `unsafe fn` solely because of `#[target_feature]`: callers reach
// it only through `SumsKernel::update` after runtime AVX2 detection.
unsafe fn avx2_update(
    n_valid: &mut u64,
    s: &mut [f64; LANES],
    s2: &mut [f64; LANES],
    masked: impl ExactSizeIterator<Item = u64>,
    values: &[f64],
) {
    debug_assert_eq!(values.len(), masked.len() * 64);
    // Lane selectors: the 16-bit group window ANDed against each lane's
    // bit, compared for equality → all-ones where the row is selected.
    let [bits0, bits1, bits2, bits3] = [
        _mm256_set_epi64x(8, 4, 2, 1),
        _mm256_set_epi64x(128, 64, 32, 16),
        _mm256_set_epi64x(2048, 1024, 512, 256),
        _mm256_set_epi64x(32768, 16384, 8192, 4096),
    ];
    // SAFETY: the accumulator arrays are 16 contiguous f64s; `loadu` has no
    // alignment requirement and offsets 0/4/8/12 leave 4 readable lanes.
    let mut acc0 = _mm256_loadu_pd(s.as_ptr());
    let mut acc1 = _mm256_loadu_pd(s.as_ptr().add(4));
    let mut acc2 = _mm256_loadu_pd(s.as_ptr().add(8));
    let mut acc3 = _mm256_loadu_pd(s.as_ptr().add(12));
    let mut sq0 = _mm256_loadu_pd(s2.as_ptr());
    let mut sq1 = _mm256_loadu_pd(s2.as_ptr().add(4));
    let mut sq2 = _mm256_loadu_pd(s2.as_ptr().add(8));
    let mut sq3 = _mm256_loadu_pd(s2.as_ptr().add(12));
    for (m, chunk) in masked.zip(values.chunks_exact(64)) {
        *n_valid += u64::from(m.count_ones());
        let base = chunk.as_ptr();
        let mut g = 0u32;
        while g < 4 {
            let window = _mm256_set1_epi64x(((m >> (g * 16)) & 0xffff) as i64);
            let row0 = (g * 16) as usize;
            // SAFETY: `chunk` is exactly 64 contiguous f64s; `row0 + 12`
            // with `g < 4` leaves 4 readable lanes.
            let keep = |b| _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(window, b), b));
            let x0: __m256d = _mm256_and_pd(_mm256_loadu_pd(base.add(row0)), keep(bits0));
            let x1: __m256d = _mm256_and_pd(_mm256_loadu_pd(base.add(row0 + 4)), keep(bits1));
            let x2: __m256d = _mm256_and_pd(_mm256_loadu_pd(base.add(row0 + 8)), keep(bits2));
            let x3: __m256d = _mm256_and_pd(_mm256_loadu_pd(base.add(row0 + 12)), keep(bits3));
            acc0 = _mm256_add_pd(acc0, x0);
            acc1 = _mm256_add_pd(acc1, x1);
            acc2 = _mm256_add_pd(acc2, x2);
            acc3 = _mm256_add_pd(acc3, x3);
            sq0 = _mm256_add_pd(sq0, _mm256_mul_pd(x0, x0));
            sq1 = _mm256_add_pd(sq1, _mm256_mul_pd(x1, x1));
            sq2 = _mm256_add_pd(sq2, _mm256_mul_pd(x2, x2));
            sq3 = _mm256_add_pd(sq3, _mm256_mul_pd(x3, x3));
            g += 1;
        }
    }
    // SAFETY: same 16-f64 accumulator arrays as the loads above.
    _mm256_storeu_pd(s.as_mut_ptr(), acc0);
    _mm256_storeu_pd(s.as_mut_ptr().add(4), acc1);
    _mm256_storeu_pd(s.as_mut_ptr().add(8), acc2);
    _mm256_storeu_pd(s.as_mut_ptr().add(12), acc3);
    _mm256_storeu_pd(s2.as_mut_ptr(), sq0);
    _mm256_storeu_pd(s2.as_mut_ptr().add(4), sq1);
    _mm256_storeu_pd(s2.as_mut_ptr().add(8), sq2);
    _mm256_storeu_pd(s2.as_mut_ptr().add(12), sq3);
}

/// NEON masked-sum block body: eight 2-lane accumulator pairs covering the
/// canonical 16-lane layout. One cover per call: `masked` yields its words.
/// Whole 64-row words only.
///
/// # Safety
/// NEON is part of the aarch64 baseline; `values` must hold exactly 64
/// values per word of `masked`.
#[cfg(all(feature = "simd-arch", target_arch = "aarch64"))]
#[target_feature(enable = "neon")]
#[allow(unsafe_code)]
// SAFETY: `unsafe fn` solely because of `#[target_feature]`; NEON is in the
// aarch64 baseline, so every call through `SumsKernel::update` is sound.
unsafe fn neon_update(
    n_valid: &mut u64,
    s: &mut [f64; LANES],
    s2: &mut [f64; LANES],
    masked: impl ExactSizeIterator<Item = u64>,
    values: &[f64],
) {
    use std::arch::aarch64::{
        float64x2_t, vaddq_f64, vandq_u64, vld1q_f64, vld1q_u64, vmulq_f64, vreinterpretq_f64_u64,
        vreinterpretq_u64_f64, vst1q_f64,
    };
    debug_assert_eq!(values.len(), masked.len() * 64);
    let mut acc = [vld1q_f64([0.0f64, 0.0].as_ptr()); 8];
    let mut sq = acc;
    for (p, (a, q)) in acc.iter_mut().zip(sq.iter_mut()).enumerate() {
        // SAFETY: the accumulator arrays are 16 contiguous f64s; `p < 8`
        // keeps the 2-lane load in bounds.
        *a = vld1q_f64(s.as_ptr().add(2 * p));
        *q = vld1q_f64(s2.as_ptr().add(2 * p));
    }
    for (m, chunk) in masked.zip(values.chunks_exact(64)) {
        *n_valid += u64::from(m.count_ones());
        for (g, group) in chunk.chunks_exact(LANES).enumerate() {
            let window = (m >> (g * 16)) & 0xffff;
            for (p, (a, q)) in acc.iter_mut().zip(sq.iter_mut()).enumerate() {
                let pair = [
                    0u64.wrapping_sub((window >> (2 * p)) & 1),
                    0u64.wrapping_sub((window >> (2 * p + 1)) & 1),
                ];
                // SAFETY: `pair` is 2 contiguous u64s and `group` holds 16
                // contiguous f64s, so `add(2 * p)` with `p < 8` is in
                // bounds for a 2-lane load.
                let keep = vld1q_u64(pair.as_ptr());
                let x = vreinterpretq_f64_u64(vandq_u64(
                    vreinterpretq_u64_f64(vld1q_f64(group.as_ptr().add(2 * p))),
                    keep,
                ));
                *a = vaddq_f64(*a, x);
                *q = vaddq_f64(*q, vmulq_f64(x, x));
            }
        }
    }
    for (p, (a, q)) in acc.iter().zip(sq.iter()).enumerate() {
        // SAFETY: same 16-f64 accumulator arrays as the loads above; `p < 8`
        // keeps the 2-lane store in bounds.
        vst1q_f64(s.as_mut_ptr().add(2 * p), *a);
        vst1q_f64(s2.as_mut_ptr().add(2 * p), *q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(values: &[f64], valid: &[u64], cover: &[u64]) -> (u64, f64, f64) {
        let mut n_valid = 0u64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for (row, &x) in values.iter().enumerate() {
            let bit = |w: &[u64]| w[row / 64] >> (row % 64) & 1 == 1;
            if bit(valid) && bit(cover) {
                n_valid += 1;
                sum += x;
                sum_sq += x * x;
            }
        }
        (n_valid, sum, sum_sq)
    }

    fn words_of(n: usize, pred: impl Fn(usize) -> bool) -> Vec<u64> {
        let mut w = vec![0u64; n.div_ceil(64)];
        for r in (0..n).filter(|&r| pred(r)) {
            w[r / 64] |= 1 << (r % 64);
        }
        w
    }

    #[test]
    fn all_paths_agree_on_integer_values() {
        let n = 1000;
        let values: Vec<f64> = (0..n).map(|i| ((i * 37) % 1000) as f64 - 500.0).collect();
        let valid = words_of(n, |r| r % 7 != 3);
        let cover = words_of(n, |r| r % 3 != 1);
        let expect = reference(&values, &valid, &cover);
        for path in available_kernels() {
            let got = masked_sums_on(path, &values, &valid, &cover);
            assert_eq!(got.0, expect.0, "{path:?} n_valid");
            assert_eq!(got.1.to_bits(), expect.1.to_bits(), "{path:?} sum");
            assert_eq!(got.2.to_bits(), expect.2.to_bits(), "{path:?} sum_sq");
        }
    }

    #[test]
    fn vector_paths_bitwise_identical_to_each_other() {
        let n = 777;
        let values: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 1e3).collect();
        let valid = words_of(n, |r| r % 5 != 0);
        let cover = words_of(n, |r| r % 2 == 0);
        let portable = masked_sums_on(KernelPath::Portable, &values, &valid, &cover);
        for path in available_kernels() {
            let got = masked_sums_on(path, &values, &valid, &cover);
            assert_eq!(got.0, portable.0, "{path:?} n_valid");
            assert_eq!(got.1.to_bits(), portable.1.to_bits(), "{path:?} sum");
            assert_eq!(got.2.to_bits(), portable.2.to_bits(), "{path:?} sum_sq");
        }
    }

    #[test]
    fn streaming_blocks_match_one_shot() {
        let n = BLOCK_WORDS * 64 * 2 + 100;
        let values: Vec<f64> = (0..n).map(|i| (i % 97) as f64).collect();
        let valid = words_of(n, |r| r % 11 != 7);
        let cover = words_of(n, |r| r % 4 != 2);
        for path in available_kernels() {
            let one_shot = {
                let mut k = SumsKernel::<1>::new(path);
                let masked: Vec<[u64; 1]> =
                    cover.iter().zip(&valid).map(|(&c, &v)| [c & v]).collect();
                k.update(&masked, &values);
                let [sums] = k.finish();
                sums
            };
            let blocked = masked_sums_on(path, &values, &valid, &cover);
            assert_eq!(one_shot.0, blocked.0, "{path:?}");
            assert_eq!(one_shot.1.to_bits(), blocked.1.to_bits(), "{path:?}");
            assert_eq!(one_shot.2.to_bits(), blocked.2.to_bits(), "{path:?}");
        }
    }

    #[test]
    fn masked_out_non_finite_rows_do_not_poison() {
        let n = 70;
        let mut values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        values[5] = f64::INFINITY;
        values[65] = f64::NAN;
        let valid = words_of(n, |r| r != 5 && r != 65);
        let cover = words_of(n, |_| true);
        for path in available_kernels() {
            let (n_valid, sum, sum_sq) = masked_sums_on(path, &values, &valid, &cover);
            assert_eq!(n_valid, 68, "{path:?}");
            assert!(sum.is_finite() && sum_sq.is_finite(), "{path:?}");
        }
    }

    #[test]
    fn empty_input() {
        for path in available_kernels() {
            assert_eq!(masked_sums_on(path, &[], &[], &[]), (0, 0.0, 0.0));
        }
    }

    #[test]
    fn active_kernel_is_available() {
        assert!(active_kernel().is_available());
        assert!(available_kernels().contains(&active_kernel()));
    }

    /// A splitmix64 stream of words with every density from sparse to
    /// dense, so the popcounts see every bit pattern class.
    fn random_words(state: &mut u64, len: usize) -> Vec<u64> {
        (0..len)
            .map(|_| {
                let mut next = || {
                    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = *state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                };
                match next() % 4 {
                    0 => next() & next(),
                    1 => next() | next(),
                    2 => !0,
                    _ => next(),
                }
            })
            .collect()
    }

    #[test]
    fn count_paths_agree_at_every_length() {
        let mut state = 7;
        for len in 0..=320 {
            let [a, b, valid, pos] = [(); 4].map(|()| random_words(&mut state, len));
            let joint: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
            let count = |w: &[u64]| w.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
            let n_valid = count(
                &joint
                    .iter()
                    .zip(&valid)
                    .map(|(c, v)| c & v)
                    .collect::<Vec<_>>(),
            );
            let k_pos = count(
                &joint
                    .iter()
                    .zip(&pos)
                    .map(|(c, p)| c & p)
                    .collect::<Vec<_>>(),
            );
            for path in available_count_paths() {
                assert_eq!(
                    and_count_on(path, &a, &b),
                    count(&joint),
                    "{path:?} len {len}"
                );
                let got = pair_counts_on(path, &a, &b, &valid, &pos);
                assert_eq!(got, (n_valid, k_pos), "{path:?} len {len}");
                let mut out = vec![!0; len];
                let got = pair_counts_assign_on(path, &a, &b, &valid, &pos, &mut out);
                assert_eq!(got, (n_valid, k_pos), "{path:?} len {len}");
                assert_eq!(out, joint, "{path:?} len {len}");
            }
        }
    }

    #[test]
    fn active_count_path_is_the_best_available() {
        let paths = available_count_paths();
        assert_eq!(paths.last(), Some(&CountPath::Portable));
        assert_eq!(paths.first(), Some(&active_count_path()));
        assert_eq!(and_count(&[0b1011, !0], &[0b0110, 1 << 63]), 2);
    }

    #[test]
    #[should_panic(expected = "word-count mismatch")]
    fn count_kernels_reject_mismatched_covers() {
        let _ = and_count(&[0, 0], &[0]);
    }
}
