//! Order statistics and the round-median estimator.
//!
//! Every timing the benchmark reports is the **median over rounds** of a
//! per-round statistic (per-round p50, p99, ops/s): PR 10's paired-round
//! estimator applied to a single side. A round that a host hiccup hit
//! moves one of the per-round values, not the reported median.

/// Nearest-rank percentile (`p` in 0–100) of an ascending slice; `None`
/// when there are no samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and returns its nearest-rank percentile.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    samples.sort_unstable_by(f64::total_cmp);
    percentile_sorted(samples, p)
}

/// Median with the two middle values averaged for even counts (the
/// definition Python's `statistics.median` uses, so numbers printed here
/// match what the driver computes from the same values).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive). Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let cut = |i: usize| {
        // Position i*(n+1)/4, 1-based, clamped to the sample range and
        // linearly interpolated between its neighbours.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median: the spread the
/// driver holds every end-to-end metric to.
pub fn iqr_frac(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// A reported value: the median over rounds, with how many rounds
/// carried samples and how far apart their quartiles are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Median over rounds of the per-round statistic.
    pub value: f64,
    /// Inter-quartile spread of the per-round values as a share of
    /// `value` (0 with fewer than two rounds).
    pub spread: f64,
    /// Rounds (or cycles) that contributed a value.
    pub rounds: usize,
    /// Individual samples under all rounds together.
    pub samples: usize,
}

impl Estimate {
    /// Median-of-rounds estimate from one value per round.
    pub fn of_rounds(per_round: &[f64], samples: usize) -> Option<Self> {
        Some(Self {
            value: median(per_round)?,
            spread: iqr_frac(per_round).unwrap_or(0.0),
            rounds: per_round.len(),
            samples,
        })
    }
}

/// Splits `(end_ns, value)` samples into `rounds` equal slices of
/// `[0, window_ns)` by completion time and applies `stat` to each slice
/// that has at least `min_samples`; the result is the median over those
/// slices.
pub fn round_estimate(
    samples: &[(u64, f64)],
    window_ns: u64,
    rounds: usize,
    min_samples: usize,
    stat: impl Fn(&mut [f64]) -> Option<f64>,
) -> Option<Estimate> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); rounds.max(1)];
    let width = (window_ns / rounds.max(1) as u64).max(1);
    let mut used = 0;
    for &(end, v) in samples {
        if end < window_ns {
            buckets[((end / width) as usize).min(rounds.max(1) - 1)].push(v);
            used += 1;
        }
    }
    let per_round: Vec<f64> = buckets
        .iter_mut()
        .filter(|b| b.len() >= min_samples.max(1))
        .filter_map(|b| stat(b))
        .collect();
    Estimate::of_rounds(&per_round, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        let mut unsorted = vec![3.0, 1.0, 2.0];
        assert_eq!(percentile(&mut unsorted, 50.0), Some(2.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((iqr_frac(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn round_median_ignores_one_bad_round() {
        // Four rounds of 1 µs; every sample in round 2 is 10x slower.
        let mut samples = Vec::new();
        for round in 0..4u64 {
            for i in 0..100u64 {
                let v = if round == 2 { 1000.0 } else { 100.0 };
                samples.push((round * 1000 + i * 10, v));
            }
        }
        let est = round_estimate(&samples, 4000, 4, 10, |b| percentile(b, 50.0)).unwrap();
        assert_eq!(est.value, 100.0);
        assert_eq!(est.rounds, 4);
        assert_eq!(est.samples, 400);
        // The plain mean would have been 325.
        let mean = samples.iter().map(|s| s.1).sum::<f64>() / 400.0;
        assert_eq!(mean, 325.0);
    }

    #[test]
    fn rounds_without_enough_samples_are_skipped() {
        let samples = vec![(10, 5.0), (20, 7.0), (1500, 100.0)];
        let est = round_estimate(&samples, 2000, 2, 2, |b| percentile(b, 50.0)).unwrap();
        assert_eq!((est.value, est.rounds), (5.0, 1));
        // Samples ending past the window are not counted at all.
        let est = round_estimate(&[(5, 1.0), (5000, 9.0)], 2000, 2, 1, |b| {
            percentile(b, 50.0)
        });
        assert_eq!(est.unwrap().samples, 1);
    }
}
