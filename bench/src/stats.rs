//! Order statistics: nearest-rank percentiles, the tail-percentile
//! picker, and the quartile spread the regression gate uses.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest ladder percentile that still has at least ten samples
/// beyond it, or `None` when even the median does not (n < 20).  A tail
/// read off fewer than ten samples is one outlier, not a percentile.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the gate compares with a metric's bound.  `None` when there
/// are too few repetitions to have quartiles or the median is zero.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_picker_always_leaves_ten_samples_beyond() {
        for n in 0..30_000 {
            match tail_percentile(n) {
                None => assert!(n < 20, "n={n} has a median with ten beyond it"),
                Some(p) => {
                    assert!(n - rank(n, p) >= 10, "n={n} p={p}");
                    // And it is the highest such rung.
                    if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                        assert!(n - rank(n, next) < 10, "n={n} p={p} next={next}");
                    }
                }
            }
        }
        assert_eq!(tail_percentile(300), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(200_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(5.5 / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
