//! Student's t distribution: p-values for Welch's test.
//!
//! Subgroup discovery produces *many* t-values (§III-B measures significance
//! with Welch's t); converting them to p-values enables principled
//! thresholds and multiple-testing control (see
//! `DivergenceReport::significant_fdr` in `hdx-core`). The CDF is computed
//! through the regularized incomplete beta function (continued-fraction
//! expansion, Lentz's algorithm), and the Welch–Satterthwaite equation
//! supplies the degrees of freedom. One kernel runs the continued fraction
//! for any number of records in lockstep: a report's p-values go through
//! it four at a time (`StatAccum::p_values`), every other caller one at a
//! time, with the same bits either way.

/// Natural log of the gamma function (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = 0.999_999_999_999_809_9;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`, valid for
/// `x ∈ [0, 1]`, `a, b > 0`, up to its continued fraction: the value itself
/// when no fraction is needed, or the fraction's arguments and how to
/// finish.
enum BetaInc {
    Value(f64),
    Fraction {
        /// The fraction's `(a, b, x)`: the caller's, or `(b, a, 1 − x)`.
        args: (f64, f64, f64),
        front: f64,
        /// The fraction's own `a`, which divides its value.
        div: f64,
        /// Whether `args` are reflected: then `I = 1 − front·cf/div`.
        reflect: bool,
    },
}

impl BetaInc {
    /// `I_x(a, b)`; the caller passes `ln_gamma(b)`, which every record of
    /// a `t_cdf` batch shares (`b` is ½ there).
    fn new(a: f64, b: f64, ln_gamma_b: f64, x: f64) -> Self {
        assert!((0.0..=1.0).contains(&x), "x must be in [0, 1]");
        assert!(a > 0.0 && b > 0.0, "shape parameters must be positive");
        if crate::approx::approx_zero(x) {
            return Self::Value(0.0);
        }
        if crate::approx::approx_eq(x, 1.0) {
            return Self::Value(1.0);
        }
        // `front` is symmetric under (a, b, x) ↔ (b, a, 1−x), so both branches
        // share it; the reflection is computed directly (not via recursion,
        // which would ping-pong forever at the branch boundary).
        let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma_b + a * x.ln() + b * (1.0 - x).ln();
        let front = ln_front.exp();
        let (args, div, reflect) = if x < (a + 1.0) / (a + b + 2.0) {
            ((a, b, x), a, false)
        } else {
            ((b, a, 1.0 - x), b, true)
        };
        Self::Fraction {
            args,
            front,
            div,
            reflect,
        }
    }

    /// The continued fraction's arguments, when there is one.
    fn fraction(&self) -> Option<(f64, f64, f64)> {
        match *self {
            Self::Value(_) => None,
            Self::Fraction { args, .. } => Some(args),
        }
    }

    /// `I_x(a, b)`, given the value `cf` of the continued fraction.
    fn finish(&self, cf: f64) -> f64 {
        match *self {
            Self::Value(v) => v,
            Self::Fraction {
                front,
                div,
                reflect,
                ..
            } => {
                if reflect {
                    1.0 - front * cf / div
                } else {
                    front * cf / div
                }
            }
        }
    }
}

/// Continued fraction for the incomplete beta (Numerical Recipes' `betacf`,
/// modified Lentz), run on `N` independent `(a, b, x)` lanes in lockstep;
/// a `None` lane reads 0.
///
/// Lane `i` performs exactly the operations of a lone run on its own
/// arguments, in the same order. From the iteration in which it converges
/// its `c`, `d` and `h` stop changing: the later updates are computed and
/// thrown away, and the loop ends when no lane is live. Rust neither
/// contracts nor reorders float operations, so each lane's bits equal a
/// lone run's (`N = 1`), whatever the other lanes hold.
fn betacf<const N: usize>(lanes: [Option<(f64, f64, f64)>; N]) -> [f64; N] {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-16;
    const FPMIN: f64 = 1e-300;
    let mut live = lanes.map(|lane| lane.is_some());
    let args = lanes.map(|lane| lane.unwrap_or((1.0, 1.0, 0.0)));
    let (a, b, x) = (args.map(|l| l.0), args.map(|l| l.1), args.map(|l| l.2));
    let qab: [f64; N] = std::array::from_fn(|i| a[i] + b[i]);
    let qap = a.map(|a| a + 1.0);
    let qam = a.map(|a| a - 1.0);
    let mut c = [1.0; N];
    let mut d: [f64; N] = std::array::from_fn(|i| {
        let mut d = 1.0 - qab[i] * x[i] / qap[i];
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        1.0 / d
    });
    let mut h = d;
    for m in 1..=MAX_ITER {
        if !live.contains(&true) {
            break;
        }
        let m_f = m as f64;
        let m2 = 2.0 * m_f;
        for i in 0..N {
            // Even step.
            let aa = m_f * (b[i] - m_f) * x[i] / ((qam[i] + m2) * (a[i] + m2));
            let mut dn = 1.0 + aa * d[i];
            if dn.abs() < FPMIN {
                dn = FPMIN;
            }
            let mut cn = 1.0 + aa / c[i];
            if cn.abs() < FPMIN {
                cn = FPMIN;
            }
            dn = 1.0 / dn;
            let mut hn = h[i] * (dn * cn);
            // Odd step.
            let aa = -(a[i] + m_f) * (qab[i] + m_f) * x[i] / ((a[i] + m2) * (qap[i] + m2));
            dn = 1.0 + aa * dn;
            if dn.abs() < FPMIN {
                dn = FPMIN;
            }
            cn = 1.0 + aa / cn;
            if cn.abs() < FPMIN {
                cn = FPMIN;
            }
            dn = 1.0 / dn;
            let del = dn * cn;
            hn *= del;
            if live[i] {
                c[i] = cn;
                d[i] = dn;
                h[i] = hn;
                let converged = (del - 1.0).abs() < EPS;
                live[i] = !converged;
            }
        }
    }
    std::array::from_fn(|i| if lanes[i].is_some() { h[i] } else { 0.0 })
}

/// [`t_cdf`] of `N` lanes of `(t, df)`, their continued fractions in
/// lockstep; a `None` lane reads NaN.
fn t_cdf_lanes<const N: usize>(lanes: [Option<(f64, f64)>; N]) -> [f64; N] {
    let ln_gamma_half = ln_gamma(0.5);
    let betas = lanes.map(|lane| {
        let (t, df) = lane?;
        assert!(df > 0.0, "degrees of freedom must be positive");
        if t.is_nan() {
            return None;
        }
        let x = df / (df + t * t);
        Some(BetaInc::new(df / 2.0, 0.5, ln_gamma_half, x))
    });
    let cf = betacf(betas.each_ref().map(|beta| beta.as_ref()?.fraction()));
    std::array::from_fn(|i| match (&betas[i], lanes[i]) {
        (Some(beta), Some((t, _))) => {
            let p = 0.5 * beta.finish(cf[i]);
            if t >= 0.0 {
                1.0 - p
            } else {
                p
            }
        }
        _ => f64::NAN,
    })
}

/// CDF of Student's t distribution with `df` degrees of freedom.
///
/// # Panics
/// Panics when `df <= 0`.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    let [p] = t_cdf_lanes([Some((t, df))]);
    p
}

/// [`t_p_value`] of `N` lanes of `(t, df)`, their continued fractions in
/// lockstep; a `None` lane reads 1 (no evidence against the null).
pub(crate) fn t_p_values<const N: usize>(lanes: [Option<(f64, f64)>; N]) -> [f64; N] {
    let lanes = lanes.map(|lane| lane.filter(|(t, _)| !t.is_nan()));
    let cdf = t_cdf_lanes(lanes.map(|lane| lane.map(|(t, df)| (t.abs(), df))));
    std::array::from_fn(|i| match lanes[i] {
        Some(_) => (2.0 * (1.0 - cdf[i])).clamp(0.0, 1.0),
        None => 1.0,
    })
}

/// Two-sided p-value of a t statistic with `df` degrees of freedom:
/// `P(|T| ≥ |t|)`.
pub fn t_p_value(t: f64, df: f64) -> f64 {
    let [p] = t_p_values([Some((t, df))]);
    p
}

/// Quantile (inverse CDF) of Student's t distribution, by bisection on the
/// monotone CDF. Accurate to ~1e-10, which is far below statistical noise.
///
/// # Panics
/// Panics when `p` is outside `(0, 1)` or `df <= 0`.
pub fn t_quantile(p: f64, df: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1)");
    assert!(df > 0.0, "degrees of freedom must be positive");
    if (p - 0.5).abs() < 1e-15 {
        return 0.0;
    }
    // Bracket: |t| grows slowly with p; 1e8 covers any practical tail.
    let (mut lo, mut hi) = (-1e8_f64, 1e8_f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-10 * (1.0 + lo.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Welch–Satterthwaite effective degrees of freedom for two samples with
/// (unbiased) variances `v1`, `v2` and sizes `n1`, `n2`.
///
/// Returns `None` when either sample has fewer than two observations or
/// both variance terms vanish.
pub fn welch_df(v1: f64, n1: u64, v2: f64, n2: u64) -> Option<f64> {
    if n1 < 2 || n2 < 2 {
        return None;
    }
    let a = v1 / n1 as f64;
    let b = v2 / n2 as f64;
    let denom = a * a / (n1 - 1) as f64 + b * b / (n2 - 1) as f64;
    if denom <= 0.0 {
        return None;
    }
    Some((a + b).powi(2) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn t_cdf_symmetry_and_median() {
        for df in [1.0, 5.0, 30.0, 200.0] {
            assert!((t_cdf(0.0, df) - 0.5).abs() < 1e-12, "df={df}");
            for t in [0.5, 1.3, 2.7] {
                let p = t_cdf(t, df);
                let q = t_cdf(-t, df);
                assert!((p + q - 1.0).abs() < 1e-10, "df={df} t={t}");
                assert!(p > 0.5);
            }
        }
    }

    #[test]
    fn t_cdf_matches_reference_values() {
        // Cross-checked with scipy.stats.t.cdf.
        let cases = [
            (1.0, 1.0, 0.75),
            (2.0, 10.0, 0.963_306),
            (1.96, 1000.0, 0.974_890),
            (-2.5, 5.0, 0.027_245),
        ];
        for (t, df, expected) in cases {
            let got = t_cdf(t, df);
            assert!(
                (got - expected).abs() < 5e-4,
                "t={t} df={df}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn large_df_approaches_normal() {
        // t(∞) = N(0,1): Φ(1.959964) ≈ 0.975.
        let p = t_cdf(1.959_964, 1e6);
        assert!((p - 0.975).abs() < 1e-4, "p = {p}");
    }

    #[test]
    fn p_values_behave() {
        assert!((t_p_value(0.0, 10.0) - 1.0).abs() < 1e-12);
        let p1 = t_p_value(2.0, 30.0);
        let p2 = t_p_value(3.0, 30.0);
        assert!(p1 > p2, "larger |t| → smaller p");
        assert_eq!(t_p_value(2.0, 30.0), t_p_value(-2.0, 30.0));
        // scipy: 2*(1-t.cdf(2, 30)) ≈ 0.054645.
        assert!((p1 - 0.0546).abs() < 5e-4, "p1 = {p1}");
        assert_eq!(t_p_value(f64::NAN, 5.0), 1.0);
    }

    #[test]
    fn welch_df_formula() {
        // Equal variances and sizes → df = 2(n−1).
        let df = welch_df(4.0, 16, 4.0, 16).unwrap();
        assert!((df - 30.0).abs() < 1e-9, "df = {df}");
        // Degenerate inputs.
        assert!(welch_df(1.0, 1, 1.0, 30).is_none());
        assert!(welch_df(0.0, 10, 0.0, 10).is_none());
        // Asymmetric case, cross-checked by hand:
        // a=2/10=.2, b=8/20=.4, df = .36/(.04/9 + .16/19) ≈ 27.982
        let df2 = welch_df(2.0, 10, 8.0, 20).unwrap();
        assert!((df2 - 27.982).abs() < 0.01, "df2 = {df2}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        for df in [3.0, 12.0, 100.0] {
            for p in [0.025, 0.5, 0.9, 0.975] {
                let t = t_quantile(p, df);
                assert!((t_cdf(t, df) - p).abs() < 1e-8, "df={df} p={p}");
            }
        }
        // Known value: t_{0.975, 10} ≈ 2.228.
        assert!((t_quantile(0.975, 10.0) - 2.228).abs() < 1e-3);
        // Symmetry.
        assert!((t_quantile(0.975, 10.0) + t_quantile(0.025, 10.0)).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "in (0, 1)")]
    fn quantile_rejects_bad_p() {
        let _ = t_quantile(1.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_df_panics() {
        let _ = t_cdf(1.0, 0.0);
    }

    /// The one-record continued fraction the lockstep kernel replaced,
    /// verbatim, kept as its oracle.
    fn oracle_betacf(a: f64, b: f64, x: f64) -> f64 {
        const MAX_ITER: usize = 300;
        const EPS: f64 = 3e-16;
        const FPMIN: f64 = 1e-300;
        let qab = a + b;
        let qap = a + 1.0;
        let qam = a - 1.0;
        let mut c = 1.0;
        let mut d = 1.0 - qab * x / qap;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        d = 1.0 / d;
        let mut h = d;
        for m in 1..=MAX_ITER {
            let m_f = m as f64;
            let m2 = 2.0 * m_f;
            // Even step.
            let aa = m_f * (b - m_f) * x / ((qam + m2) * (a + m2));
            d = 1.0 + aa * d;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = 1.0 + aa / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            h *= d * c;
            // Odd step.
            let aa = -(a + m_f) * (qab + m_f) * x / ((a + m2) * (qap + m2));
            d = 1.0 + aa * d;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = 1.0 + aa / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < EPS {
                break;
            }
        }
        h
    }

    /// The scalar `beta_inc`, `t_cdf` and `t_p_value` over the oracle
    /// fraction, verbatim.
    fn oracle_beta_inc(a: f64, b: f64, x: f64) -> f64 {
        if crate::approx::approx_zero(x) {
            return 0.0;
        }
        if crate::approx::approx_eq(x, 1.0) {
            return 1.0;
        }
        let ln_front =
            ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
        let front = ln_front.exp();
        if x < (a + 1.0) / (a + b + 2.0) {
            front * oracle_betacf(a, b, x) / a
        } else {
            1.0 - front * oracle_betacf(b, a, 1.0 - x) / b
        }
    }

    fn oracle_t_cdf(t: f64, df: f64) -> f64 {
        if t.is_nan() {
            return f64::NAN;
        }
        let x = df / (df + t * t);
        let p = 0.5 * oracle_beta_inc(df / 2.0, 0.5, x);
        if t >= 0.0 {
            1.0 - p
        } else {
            p
        }
    }

    fn oracle_t_p_value(t: f64, df: f64) -> f64 {
        if t.is_nan() {
            return 1.0;
        }
        (2.0 * (1.0 - oracle_t_cdf(t.abs(), df))).clamp(0.0, 1.0)
    }

    /// A splitmix64 stream.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A `(t, df)` pair: t from the edge cases (0, ±1e-300, huge, NaN)
        /// or log-uniform over 1e-6..1e3 of either sign; df log-uniform
        /// over 1..1e7, an integer half the time.
        fn t_df(&mut self) -> (f64, f64) {
            let sign = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
            let t = match self.next() % 16 {
                0 => 0.0,
                1 => sign * 1e-300,
                2 => sign * 1e300,
                3 => f64::NAN,
                4 => sign * 10f64.powf(4.0 + 8.0 * self.unit()),
                _ => sign * 10f64.powf(-6.0 + 9.0 * self.unit()),
            };
            let mut df = 10f64.powf(7.0 * self.unit());
            if self.next() & 1 == 0 {
                df = df.round().max(1.0);
            }
            (t, df)
        }
    }

    /// Checks one batch of `(t, df)` records through the four-lane kernel
    /// (a partial last group padded with `None` lanes) and through `N = 1`
    /// against the scalar oracle, bit for bit.
    fn check_batch(batch: &[(f64, f64)]) {
        for group in batch.chunks(4) {
            let mut lanes = [None; 4];
            for (lane, &record) in lanes.iter_mut().zip(group) {
                *lane = Some(record);
            }
            let p = t_p_values(lanes);
            let cdf = t_cdf_lanes(lanes);
            for (i, &(t, df)) in group.iter().enumerate() {
                let want = oracle_t_p_value(t, df);
                assert_eq!(p[i].to_bits(), want.to_bits(), "t={t:e} df={df}");
                assert_eq!(t_p_value(t, df).to_bits(), want.to_bits());
                let want = oracle_t_cdf(t, df);
                assert_eq!(cdf[i].to_bits(), want.to_bits(), "t={t:e} df={df}");
                assert_eq!(t_cdf(t, df).to_bits(), want.to_bits());
            }
            assert!(
                p[group.len()..].iter().all(|&p| p == 1.0),
                "None lanes read 1"
            );
        }
    }

    #[test]
    fn lockstep_kernel_handles_the_edge_cases() {
        let mut batch = Vec::new();
        for t in [
            0.0,
            -0.0,
            1e-300,
            -1e-300,
            1e300,
            -1e300,
            f64::NAN,
            2.5,
            -40.0,
        ] {
            for df in [1.0, 1.5, 2.0, 29.7, 1e3, 123_456.5, 1e7] {
                batch.push((t, df));
            }
        }
        check_batch(&batch);
        assert_eq!(t_p_values::<4>([None; 4]), [1.0; 4]);
        assert_eq!(t_p_values::<0>([]), [0.0; 0]);
    }

    proptest::proptest! {
        /// One batch of 0–9 records in random order: whole and partial
        /// lane groups, each lane against the scalar oracle.
        #[test]
        fn lockstep_kernel_equals_the_scalar_fraction(seed in proptest::prelude::any::<u64>()) {
            let mut mix = Mix(seed);
            let len = (mix.next() % 10) as usize;
            let batch: Vec<(f64, f64)> = (0..len).map(|_| mix.t_df()).collect();
            check_batch(&batch);
        }

        /// The deep differential run: 400 random batches per case, so
        /// `PROPTEST_CASES=25600` checks over ten million.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn lockstep_kernel_equals_the_scalar_fraction_deep(seed in proptest::prelude::any::<u64>()) {
            let mut mix = Mix(seed);
            let mut batch = Vec::with_capacity(9);
            for _ in 0..400 {
                batch.clear();
                let len = (mix.next() % 10) as usize;
                batch.extend((0..len).map(|_| mix.t_df()));
                check_batch(&batch);
            }
        }
    }
}
