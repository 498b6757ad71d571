//! Quantile computation for the unsupervised discretization baseline (§VI-D).

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` using linear interpolation
/// between order statistics (type-7, the numpy default).
///
/// `NaN`s are ignored. Returns `None` when no finite values remain.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    #[expect(clippy::expect_used, reason = "NaNs are filtered out above")]
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
    let h = q * (v.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// The `k−1` interior cut points splitting `values` into `k` equal-frequency
/// bins, deduplicated (ties can collapse adjacent cut points).
///
/// Returns an empty vector when `k < 2` or there is no data.
pub fn quantiles(values: &[f64], k: usize) -> Vec<f64> {
    if k < 2 {
        return Vec::new();
    }
    let mut cuts = Vec::with_capacity(k - 1);
    for i in 1..k {
        if let Some(c) = quantile(values, i as f64 / k as f64) {
            cuts.push(c);
        }
    }
    cuts.dedup();
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.5));
    }

    #[test]
    fn extremes() {
        let v = [5.0, -1.0, 3.0];
        assert_eq!(quantile(&v, 0.0), Some(-1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
    }

    #[test]
    fn nan_ignored_and_empty_none() {
        assert_eq!(quantile(&[f64::NAN, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[f64::NAN], 0.5), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn out_of_range_q_panics() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn equal_frequency_cuts() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let cuts = quantiles(&v, 4);
        assert_eq!(cuts.len(), 3);
        assert!((cuts[0] - 24.75).abs() < 1e-9);
        assert!((cuts[1] - 49.5).abs() < 1e-9);
        assert!((cuts[2] - 74.25).abs() < 1e-9);
    }

    #[test]
    fn constant_data_collapses() {
        let v = [7.0; 50];
        let cuts = quantiles(&v, 5);
        assert_eq!(cuts, vec![7.0]);
    }

    #[test]
    fn degenerate_k() {
        assert!(quantiles(&[1.0, 2.0], 0).is_empty());
        assert!(quantiles(&[1.0, 2.0], 1).is_empty());
        assert!(quantiles(&[], 4).is_empty());
    }
}
