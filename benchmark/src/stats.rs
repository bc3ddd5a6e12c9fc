//! Order statistics over raw samples. Every latency the benchmark
//! reports is computed from the full sample vector of one window — no
//! histogram buckets, so two runs differ only by what was measured.

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample set.
/// Returns 0 for an empty set; callers report the sample count beside
/// every percentile so an empty window is visible.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = best_first(values, false);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `values` ordered best first: ascending for times, descending for
/// rates.
pub fn best_first(values: &[f64], higher_is_better: bool) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    if higher_is_better {
        sorted.reverse();
    }
    sorted
}

/// How alone the best of `values` stands, as a share of it: the distance
/// to the third best. Windows the host left undisturbed agree closely,
/// so a best window far ahead of the next ones is a fluke rather than
/// the undisturbed speed. `None` with fewer than three values.
pub fn best_uncertainty(values: &[f64], higher_is_better: bool) -> Option<f64> {
    let ranked = best_first(values, higher_is_better);
    match ranked[..] {
        [best, _, third, ..] if best != 0.0 => Some((third - best).abs() / best.abs()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn best_is_the_smallest_time_or_the_largest_rate() {
        let v = [3.0, 1.0, 2.0, 1.1];
        assert_eq!(best_first(&v, false), [1.0, 1.1, 2.0, 3.0]);
        assert_eq!(best_first(&v, true)[0], 3.0);
        assert!((best_uncertainty(&v, false).unwrap() - 1.0).abs() < 1e-12);
        assert!((best_uncertainty(&v, true).unwrap() - 1.9 / 3.0).abs() < 1e-12);
        assert!(best_uncertainty(&[1.0, 2.0], false).is_none());
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0]), 2.0);
    }
}
