//! Order statistics the benchmark reports: a percentile within each pass,
//! then one value over the passes — see [`over_passes`].

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank rule on a
/// sorted copy: the smallest value with at least `q · n` values at or below
/// it. Nearest rank (no interpolation) keeps every reported percentile an
/// actually observed sample. Empty input yields `NaN`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: mean of the two middle values for even counts, so a set of
/// two passes is not decided by the slower one. Empty input yields `NaN`.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method —
/// the one Python's `statistics.quantiles(values, n=4)` uses, so the noise
/// table reads the same as the acceptance check that is run over it.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, linearly interpolated.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The value a run reports for a metric sampled once per pass: the quartile
/// of the per-pass values on the metric's **good side** — the third
/// quartile of a throughput, the first of a latency.
///
/// The noise on a shared box is one-sided: a neighbour, or the host putting
/// both virtual processors on one core, only ever makes a pass slower, for
/// seconds at a time. A median of passes holds while fewer than half of them
/// are hit; the good-side quartile holds while fewer than three quarters
/// are, and on a quiet box the two differ by the width of the pass-to-pass
/// jitter (about 1 %). A change to the program moves every pass alike, so
/// it moves this quartile as it would move the median. Fewer than two
/// passes report the one value there is.
pub fn over_passes(values: &[f64], higher_is_better: bool) -> f64 {
    match values {
        [] => f64::NAN,
        [only] => *only,
        _ => {
            let (q1, _, q3) = quartiles(values);
            if higher_is_better {
                q3
            } else {
                q1
            }
        }
    }
}

/// Interquartile range as a share of the median — the spread the acceptance
/// check bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Unsorted input, tiny inputs.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_handles_odd_even_and_outliers() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        // One ruined pass does not move the median.
        assert_eq!(median(&[10.0, 10.5, 9.5, 100.0, 10.2]), 10.2);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_over_passes_of_a_per_pass_percentile() {
        let passes = [
            vec![1.0, 2.0, 3.0, 4.0],
            vec![10.0, 20.0, 30.0, 40.0],
            vec![2.0, 3.0, 4.0, 5.0],
        ];
        // Per-pass p100 = 4, 40, 5 → median 5, not the pooled p100 of 40:
        // the ruined pass costs one sample.
        let per_pass: Vec<f64> = passes.iter().map(|p| percentile(p, 1.0)).collect();
        assert_eq!(median(&per_pass), 5.0);
    }

    #[test]
    fn over_passes_takes_the_good_side_quartile() {
        // Three of eight passes hit by a slow spell: the median of passes
        // would already sit between the two populations.
        let latency = [100.0, 101.0, 140.0, 99.0, 141.0, 100.5, 139.0, 100.2];
        assert!(over_passes(&latency, false) < 100.5);
        let throughput = [50.0, 49.5, 30.0, 50.5, 31.0, 50.2, 29.0, 49.8];
        assert!(over_passes(&throughput, true) > 50.0);
        assert_eq!(over_passes(&[7.0], true), 7.0);
        assert!(over_passes(&[], false).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
