//! Order statistics for latency samples: nearest-rank percentiles and
//! the rule that decides which tail percentile a sample can support.

/// Sort `xs` ascending in place (`f64::total_cmp`, so NaN cannot panic).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `q` of the sample at or below it. `q` is a
/// fraction in `[0, 1]`; an empty slice has no percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of fraction `q` in a sample of `n >= 1`. The
/// epsilon keeps products such as `0.9 * 100 = 90.00000000000001` from
/// rounding up a whole rank.
fn rank(n: usize, q: f64) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The percentiles a report may quote, highest last.
pub const TAIL_LADDER: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// Samples that must lie beyond a percentile before it is quoted.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it in a sample of `n`; `None` when even
/// the median has fewer (n < 20).
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&q| n >= 1 && n - rank(n, q) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.999), Some(7.0));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(99), Some(0.50));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }
}
