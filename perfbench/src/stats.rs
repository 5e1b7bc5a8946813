//! Percentiles and quartiles of a run's samples.

/// Fewest samples a run must hold before its p90 is reported, so that
/// at least ten samples lie beyond it.
pub const MIN_TAIL_SAMPLES: usize = 100;

/// The `p`-th percentile (0..=100) of `values`, interpolating linearly
/// between the two closest ranks. `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// A latency series reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    pub mean: f64,
    /// 90th percentile, present only with [`MIN_TAIL_SAMPLES`] or more
    /// samples.
    pub p90: Option<f64>,
}

/// Summarize a series; `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    Some(Summary {
        n: values.len(),
        mean: values.iter().sum::<f64>() / values.len() as f64,
        p90: if values.len() >= MIN_TAIL_SAMPLES {
            percentile(values, 90.0)
        } else {
            None
        },
    })
}

/// The three cut points dividing `values` into quarters, by the same
/// rule as Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(6.0));
        assert_eq!(percentile(&v, 90.0), Some(10.0));
        assert_eq!(percentile(&[4.0, 1.0], 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        let short: Vec<f64> = (0..99).map(f64::from).collect();
        let s = summarize(&short).unwrap();
        assert_eq!((s.n, s.mean, s.p90), (99, 49.0, None));
        assert_eq!(summarize(&[1.0, 2.0, 9.0]).unwrap().mean, 4.0);
        assert_eq!(summarize(&[]), None);
        let long: Vec<f64> = (0..100).map(f64::from).collect();
        let s = summarize(&long).unwrap();
        assert_eq!(s.n, 100);
        assert!((s.p90.unwrap() - 89.1).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
