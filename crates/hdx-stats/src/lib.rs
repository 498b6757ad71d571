//! # hdx-stats
//!
//! Statistics substrate for the H-DivExplorer reproduction:
//!
//! * [`binary_entropy`] and split-gain helpers (paper §V-A, entropy
//!   criterion);
//! * [`welch_t`] — Welch's t-test for the statistical significance of a
//!   subgroup's divergence (paper §III-B);
//! * [`MeanVar`] — a numerically stable (Welford) running mean/variance
//!   accumulator;
//! * [`Normal`] and [`MultivariateNormal`] samplers plus a Cholesky
//!   factorisation, used by the synthetic-peak generator (paper §VI-A);
//! * [`quantiles`] — equal-frequency cut points for the quantile
//!   discretization baseline (paper §VI-D);
//! * [`Outcome`] / [`StatAccum`] — the outcome-function values of §III-B and
//!   the additive accumulator that lets the miners compute divergence in the
//!   same pass as support;
//! * [`OutcomePlanes`] — word-level bitplane kernels that fold a cover bitset
//!   into a [`StatAccum`] with fused popcounts / vectorized masked sums
//!   (exact counts everywhere; sums bitwise identical to a row-by-row walk
//!   for integer-valued outcomes — see [`simd`] for the dispatch table and
//!   the full exactness contract);
//! * [`simd`] — the kernel layer: the masked sums (the portable lane
//!   kernel, the AVX-512 / AVX2 / NEON paths and their runtime dispatch,
//!   [`simd::active_kernel`]) and the popcount kernels of the miner's
//!   support counts and the boolean folds (portable / POPCNT / AVX-512
//!   VPOPCNTDQ, [`simd::active_count_path`]);
//! * [`approx`] — epsilon-aware float comparisons (the only sanctioned way
//!   to compare divergences/t-values for equality; see `hdx-lint`'s
//!   `no-float-eq` rule).

/// Tolerance-based floating-point comparison helpers.
pub mod approx;

/// Vectorized masked-sum kernels (portable / AVX-512 / AVX2 / NEON) and
/// popcount kernels (portable / POPCNT / AVX-512 VPOPCNTDQ), each behind
/// one runtime dispatcher; see the module docs for the exactness
/// contract.
#[allow(unsafe_code)] // Audited intrinsics: see UNSAFE_LEDGER.md.
pub mod simd;

mod accum;
mod dist;
mod entropy;
mod outcome;
mod plane;
mod quantile;
mod tdist;
mod welch;

pub use accum::MeanVar;
pub use approx::{approx_eq, approx_ne, approx_zero, same_sign};
pub use dist::{cholesky, MultivariateNormal, Normal};
pub use entropy::{binary_entropy, entropy_of_counts};
pub use outcome::{Outcome, PValues, StatAccum};
pub use plane::OutcomePlanes;
pub use quantile::{quantile, quantiles};
pub use simd::{
    active_count_path, active_kernel, available_count_paths, available_kernels, CountPath,
    KernelPath,
};
pub use tdist::{t_cdf, t_p_value, t_quantile, welch_df};
pub use welch::{bernoulli_variance, welch_t, welch_t_from_counts};
