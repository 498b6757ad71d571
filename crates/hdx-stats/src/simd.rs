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
//! | [`KernelPath::Avx512`] | `simd-arch`, x86-64, runtime `avx512f` | native 8-lane mask loads |
//! | [`KernelPath::Avx2`] | `simd-arch`, x86-64, runtime `avx2` | compare-expanded masks |
//! | [`KernelPath::Neon`] | `simd-arch`, aarch64 | NEON is baseline on aarch64 |
//! | [`KernelPath::Portable`] | always compiled | safe branch-free lane loop (autovectorizable) |
//!
//! Building without `simd-arch` (`--no-default-features`) leaves only the
//! portable path, which gives the same bits as every other path.
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
//! Masking is a bitwise AND of the value with an expanded mask (or a
//! zero-masked load — never a multiply), so masked-out `inf`/`NaN` rows
//! contribute `+0.0` instead of poisoning the sum, exactly like a row walk
//! that never visits them.

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

/// Streaming masked-sum kernel state: feed blocks of pre-masked cover words
/// with [`update`](SumsKernel::update), then [`finish`](SumsKernel::finish).
///
/// The streaming shape exists so callers can *fuse* producing the masked
/// words (e.g. intersecting two covers block by block) with consuming them,
/// keeping each [`BLOCK_WORDS`] block cache-hot. Feeding the same words in
/// one call or many produces bitwise-identical results: lane state persists
/// across calls and blocks are whole words, so each lane sees the same
/// ascending row sequence either way.
#[derive(Debug)]
pub struct SumsKernel {
    path: KernelPath,
    n_valid: u64,
    s: [f64; LANES],
    s2: [f64; LANES],
}

impl SumsKernel {
    /// A fresh kernel on `path`.
    ///
    /// # Panics
    /// Panics when `path` is not compiled in or not supported by the CPU
    /// (see [`KernelPath::is_available`]).
    pub fn new(path: KernelPath) -> Self {
        assert!(
            path.is_available(),
            "kernel path {:?} unavailable in this build / on this CPU",
            path
        );
        Self {
            path,
            n_valid: 0,
            s: [0.0; LANES],
            s2: [0.0; LANES],
        }
    }

    /// Accumulates one block. `masked` holds `cover ∧ valid` words; `values`
    /// holds the corresponding rows' outcome values, `values.len() ≤
    /// 64 · masked.len()`. All calls but the last must pass whole words
    /// (`values.len() = 64 · masked.len()`); bits of `masked` at or beyond
    /// `values.len()` must be clear (the valid plane guarantees this).
    pub fn update(&mut self, masked: &[u64], values: &[f64]) {
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
                unsafe {
                    avx512_update(&mut self.n_valid, &mut self.s, &mut self.s2, head_m, head_v);
                }
            }
            #[cfg(all(feature = "simd-arch", target_arch = "x86_64"))]
            KernelPath::Avx2 => {
                // SAFETY: `SumsKernel::new` asserted `Avx2.is_available()`,
                // i.e. runtime detection confirmed AVX2; `head_v` holds
                // exactly 64 values per word of `head_m`.
                unsafe {
                    avx2_update(&mut self.n_valid, &mut self.s, &mut self.s2, head_m, head_v);
                }
            }
            #[cfg(all(feature = "simd-arch", target_arch = "aarch64"))]
            KernelPath::Neon => {
                // SAFETY: NEON is baseline on every aarch64 target this
                // compiles for; `head_v` holds 64 values per `head_m` word.
                unsafe {
                    neon_update(&mut self.n_valid, &mut self.s, &mut self.s2, head_m, head_v);
                }
            }
            // `Portable`, plus paths not compiled into this build (which
            // `new` already proved unreachable by asserting availability).
            _ => {
                for (&m, chunk) in head_m.iter().zip(head_v.chunks(64)) {
                    self.lanes_word(m, chunk);
                }
            }
        }
        // Shared partial-word tail: the same 16-lane structure, scalar code.
        for (&m, chunk) in tail_m.iter().zip(tail_v.chunks(64)) {
            self.lanes_word(m, chunk);
        }
    }

    /// Final `(n_valid, sum, sum_sq)`.
    pub fn finish(self) -> (u64, f64, f64) {
        (self.n_valid, reduce16(&self.s), reduce16(&self.s2))
    }

    /// Branch-free lane accumulation of one (possibly partial) 64-row word:
    /// the portable kernel body, also the shared tail handler of every
    /// vector path. Lane `j` of each 16-row group takes the row's value
    /// ANDed with the expanded mask bit (all-ones or all-zero), so
    /// unselected rows add exactly `+0.0`.
    fn lanes_word(&mut self, m: u64, chunk: &[f64]) {
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
    let mut kernel = SumsKernel::new(path);
    let mut buf = [0u64; BLOCK_WORDS];
    let mut values_rest = values;
    for (cw, vw) in cover.chunks(BLOCK_WORDS).zip(valid.chunks(BLOCK_WORDS)) {
        for (dst, (&c, &v)) in buf.iter_mut().zip(cw.iter().zip(vw)) {
            *dst = c & v;
        }
        let take = (cw.len() * 64).min(values_rest.len());
        let (vals, rest) = values_rest.split_at(take);
        values_rest = rest;
        let (masked, _) = buf.split_at(cw.len());
        kernel.update(masked, vals);
    }
    kernel.finish()
}

#[cfg(all(feature = "simd-arch", target_arch = "x86_64"))]
use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_and_si256, _mm256_castsi256_pd,
    _mm256_cmpeq_epi64, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_epi64x, _mm256_set_epi64x,
    _mm256_storeu_pd, _mm512_add_pd, _mm512_loadu_pd, _mm512_maskz_loadu_pd, _mm512_mul_pd,
    _mm512_storeu_pd,
};

/// AVX-512 masked-sum block body: the cover byte *is* the lane mask
/// (`_mm512_maskz_loadu_pd` zeroes unselected lanes), so mask expansion
/// costs nothing. Two 8-lane accumulator pairs cover the canonical 16-lane
/// layout: register A takes lanes 0–7 of each 16-row group, register B
/// lanes 8–15. Whole 64-row words only; the caller routes the partial tail
/// through the portable lane loop.
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
unsafe fn avx512_update(
    n_valid: &mut u64,
    s: &mut [f64; LANES],
    s2: &mut [f64; LANES],
    masked: &[u64],
    values: &[f64],
) {
    debug_assert_eq!(values.len(), masked.len() * 64);
    // SAFETY: the accumulator arrays are 16 contiguous f64s; unaligned
    // loads/stores of 8 lanes at offsets 0 and 8 are in bounds.
    let mut acc_a = _mm512_loadu_pd(s.as_ptr());
    let mut acc_b = _mm512_loadu_pd(s.as_ptr().add(8));
    let mut sq_a = _mm512_loadu_pd(s2.as_ptr());
    let mut sq_b = _mm512_loadu_pd(s2.as_ptr().add(8));
    for (&m, chunk) in masked.iter().zip(values.chunks_exact(64)) {
        *n_valid += u64::from(m.count_ones());
        let base = chunk.as_ptr();
        let mut g = 0u32;
        while g < 4 {
            let k_a = ((m >> (g * 16)) & 0xff) as u8;
            let k_b = ((m >> (g * 16 + 8)) & 0xff) as u8;
            // SAFETY: `chunk` is exactly 64 contiguous f64s, so offsets
            // `16·g` and `16·g + 8` with `g < 4` leave 8 readable lanes;
            // masked-out lanes are zeroed, never faulting.
            let x_a = _mm512_maskz_loadu_pd(k_a, base.add((g * 16) as usize));
            let x_b = _mm512_maskz_loadu_pd(k_b, base.add((g * 16 + 8) as usize));
            acc_a = _mm512_add_pd(acc_a, x_a);
            acc_b = _mm512_add_pd(acc_b, x_b);
            sq_a = _mm512_add_pd(sq_a, _mm512_mul_pd(x_a, x_a));
            sq_b = _mm512_add_pd(sq_b, _mm512_mul_pd(x_b, x_b));
            g += 1;
        }
    }
    // SAFETY: same 16-f64 accumulator arrays as the loads above.
    _mm512_storeu_pd(s.as_mut_ptr(), acc_a);
    _mm512_storeu_pd(s.as_mut_ptr().add(8), acc_b);
    _mm512_storeu_pd(s2.as_mut_ptr(), sq_a);
    _mm512_storeu_pd(s2.as_mut_ptr().add(8), sq_b);
}

/// AVX2 masked-sum block body: four 4-lane accumulator pairs covering the
/// canonical 16-lane layout (lanes 4p‥4p+4 of each 16-row group in register
/// p), with compare-expanded masks and mul-then-add (no FMA) so lane values
/// stay bitwise identical to [`SumsKernel::lanes_word`]. Whole 64-row words
/// only; the caller routes the partial tail through the portable lane loop.
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
    masked: &[u64],
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
    for (&m, chunk) in masked.iter().zip(values.chunks_exact(64)) {
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
/// canonical 16-lane layout. Whole 64-row words only.
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
    masked: &[u64],
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
    for (&m, chunk) in masked.iter().zip(values.chunks_exact(64)) {
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
                let mut k = SumsKernel::new(path);
                let masked: Vec<u64> = cover.iter().zip(&valid).map(|(&c, &v)| c & v).collect();
                k.update(&masked, &values);
                k.finish()
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
}
