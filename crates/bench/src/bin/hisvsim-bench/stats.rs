//! Order statistics for the benchmark: medians, quartiles (the same rule as
//! Python's `statistics.quantiles(values, n=4)`, so the spreads printed here
//! are the spreads an outside checker computes), and the "highest percentile
//! that still has ten samples beyond it" tail rule.

/// Percentiles the tail rule may pick, lowest first. There is no rung
/// between them on purpose: a p90 of a few hundred samples follows every slow
/// spell of a shared host (it spread by 48 % over ten runs of `plan_cold`
/// where the median spread by 23 %), so a workload either has the thousand
/// samples a p99 needs or reports its median.
const TAIL_LADDER: [usize; 2] = [50, 99];

/// Samples a percentile must leave beyond itself to be reported.
const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median of `values` (mean of the middle two for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the exclusive method
/// (`statistics.quantiles(values, n=4)`); needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the run-to-run spread a
/// metric's bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|[q1, q2, q3]| (q3 - q1) / q2)
}

/// Nearest rank (1-based) of whole-number percentile `p` among `n` samples.
fn rank(n: usize, p: usize) -> usize {
    (n * p).div_ceil(100).clamp(1, n)
}

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it (the median when none does).
pub fn tail_percentile(n: usize) -> usize {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// A latency population summarised the way the ledger reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count behind every number below.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is: [`tail_percentile`] of `samples`.
    pub tail_percentile: usize,
    /// The nearest-rank value at `tail_percentile` (the median itself when
    /// that is the 50th).
    pub tail: f64,
}

/// Summarise `values`; `None` when there are no samples.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let p50 = median(&v);
    let tail_percentile = tail_percentile(v.len());
    Some(Summary {
        samples: v.len(),
        p50,
        tail_percentile,
        tail: if tail_percentile == TAIL_LADDER[0] {
            p50
        } else {
            v[rank(v.len(), tail_percentile) - 1]
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(5.5 / 5.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).rev().map(|i| i as f64).collect() };
        // 1 000 samples: p99 leaves exactly ten beyond it.
        let s = summarize(&ramp(1000)).unwrap();
        assert_eq!((s.samples, s.tail_percentile, s.tail), (1000, 99, 990.0));
        // 999 samples: p99 would leave nine, so the median it is.
        assert_eq!(tail_percentile(999), 50);
        // 12 samples: median only, and the tail *is* the median.
        let s = summarize(&ramp(12)).unwrap();
        assert_eq!((s.tail_percentile, s.tail, s.p50), (50, 6.5, 6.5));
        assert_eq!(summarize(&[]), None);
    }
}
