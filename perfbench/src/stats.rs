//! Summary statistics over timing samples.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one outlier would decide the value.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Largest of `xs`; `None` when empty.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

/// Nearest-rank `p`-quantile of `xs` (`0 < p < 1`), refused (`None`) when
/// fewer than [`MIN_BEYOND`] samples rank above it.
pub fn tail(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(p > 0.0 && p < 1.0) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Throughput over a run cut into consecutive slices of `per_slice`
/// items: the median over full slices of `ops_per_item × per_slice /
/// slice time`. Bursts of interference on a shared machine slow some
/// slices; the median reports the rate most of the run sustained.
pub fn slice_rate(item_s: &[f64], per_slice: usize, ops_per_item: f64) -> Option<f64> {
    let rates: Vec<f64> = item_s
        .chunks_exact(per_slice.max(1))
        .map(|c| ops_per_item * c.len() as f64 / c.iter().sum::<f64>())
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), None, "999 samples leave 9 beyond p99");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), Some(990.0), "1000 samples leave 10 beyond");
    }

    #[test]
    fn tail_uses_nearest_rank_on_unsorted_input() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs, 0.5), Some(50.0));
        assert_eq!(tail(&xs, 0.9), Some(90.0));
        assert_eq!(tail(&xs, 0.95), None, "only 5 beyond p95 of 100");
    }

    #[test]
    fn tail_rejects_degenerate_levels() {
        let xs = vec![1.0; 100];
        assert_eq!(tail(&xs, 0.0), None);
        assert_eq!(tail(&xs, 1.0), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn slice_rate_is_the_median_slice() {
        // Three slices of two items: 2 ops in 1 s, 2 ops in 4 s, 2 ops in 2 s.
        let items = [0.5, 0.5, 2.0, 2.0, 1.0, 1.0, 9.0];
        assert_eq!(
            slice_rate(&items, 2, 1.0),
            Some(1.0),
            "the partial slice is ignored"
        );
        assert_eq!(slice_rate(&items, 2, 15.0), Some(15.0));
        assert_eq!(slice_rate(&items[..1], 2, 1.0), None);
    }

    #[test]
    fn max_of_samples() {
        assert_eq!(max(&[1.0, 5.0, 2.0]), Some(5.0));
        assert_eq!(max(&[]), None);
    }
}
