//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated
/// between closest ranks; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = pos.floor() as usize;
    let above = pos.ceil() as usize;
    let frac = pos - below as f64;
    Some(sorted[below] + (sorted[above] - sorted[below]) * frac)
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Whether `count` samples put at least ten beyond the `q`-quantile —
/// the rule for reporting a tail percentile at all.
pub fn tail_is_resolved(count: usize, q: f64) -> bool {
    (count as f64) * (1.0 - q) >= 10.0 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!tail_is_resolved(999, 0.99));
        assert!(tail_is_resolved(1000, 0.99));
    }
}
