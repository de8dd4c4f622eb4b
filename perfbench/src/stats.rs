//! Order statistics over measured samples.

/// Sort a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1] of `xs`, or `None` when the
/// sample leaves fewer than ten observations above that rank — a
/// percentile resting on fewer is not reported.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + 10 {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// Percentile `q` of each slice, then the median of those: a typical
/// slice's percentile, which one burst of host interference cannot
/// move far. `None` when any slice is too small for the percentile.
pub fn sliced_percentile(slices: &[&[f64]], q: f64) -> Option<f64> {
    let per_slice: Option<Vec<f64>> = slices.iter().map(|s| percentile(s, q)).collect();
    per_slice.filter(|v| !v.is_empty()).map(|v| median(&v))
}

/// Quantile `q` of a power-of-two-bucket histogram given as
/// `(upper_bound, count)` pairs ascending by bound, with the same
/// linear interpolation inside the target bucket that the telemetry
/// crate uses. Lets the per-shard stage histograms be merged before
/// the quantile is taken.
pub fn bucket_quantile(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    let mut lower = 0u64;
    for &(upper, count) in buckets {
        if count > 0 && cumulative + count >= rank {
            let frac = (rank - cumulative) as f64 / count as f64;
            return lower as f64 + (upper - lower) as f64 * frac;
        }
        cumulative += count;
        lower = upper;
    }
    lower as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
    }

    #[test]
    fn bucket_quantile_interpolates() {
        let buckets = [(1, 0), (2, 10), (4, 10)];
        assert_eq!(bucket_quantile(&buckets, 0.5), 2.0);
        assert_eq!(bucket_quantile(&buckets, 0.75), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
