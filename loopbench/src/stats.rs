//! Order statistics the benchmark reports: medians, the tail percentile, and
//! the geometric mean of pulse speedups.

/// Samples needed beyond a percentile before it may be reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples, `None`
/// when there are none.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (0–100) the value sits at.
    pub percentile: f64,
    /// The latency at that percentile.
    pub value: f64,
    /// How many samples the distribution had.
    pub samples: usize,
    /// How many samples lie beyond the percentile's rank.
    pub beyond: usize,
}

/// The tail at `wanted` — or, when fewer than [`TAIL_MIN_BEYOND`] samples
/// lie beyond it, at the highest [`TAIL_LADDER`] percentile below it that
/// has that many. `None` when not even the median does.
///
/// A workload fixes `wanted` at the highest ladder step its sample count
/// supports today, so that a faster program, which completes more
/// iterations, is still compared at the same percentile.
pub fn tail(samples: &[f64], wanted: f64) -> Option<Tail> {
    let n = samples.len();
    let percentile = TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)?;
    Some(Tail {
        percentile,
        value: quantile(samples, percentile / 100.0)?,
        samples: n,
        beyond: beyond(n, percentile),
    })
}

/// Samples strictly above the rank of percentile `p` among `n`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = p / 100.0 * (n - 1) as f64;
    n - 1 - rank.floor() as usize
}

/// Geometric mean of positive values; `None` if empty or any value is not a
/// positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), Some(2.5));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&samples, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tail = tail(&samples, 99.0).expect("1000 samples have a p99");
        assert_eq!(tail.percentile, 99.0);
        assert!((tail.value - 990.01).abs() < 1e-9);
        assert_eq!(tail.beyond, 10);
        assert_eq!(samples.iter().filter(|&&s| s > tail.value).count(), 10);
        assert_eq!(tail.samples, 1000);
    }

    #[test]
    fn tail_steps_down_the_ladder_when_samples_are_few() {
        let samples: Vec<f64> = (0..200).map(f64::from).collect();
        let tail = tail(&samples, 99.0).expect("200 samples have a p95");
        assert_eq!(tail.percentile, 95.0);
        assert!(tail.beyond >= TAIL_MIN_BEYOND);
        let few: Vec<f64> = (0..30).map(f64::from).collect();
        assert_eq!(super::tail(&few, 99.0).map(|t| t.percentile), Some(50.0));
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(super::tail(&ten, 99.0), None);
    }

    #[test]
    fn tail_never_rises_above_the_wanted_percentile() {
        let samples: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(tail(&samples, 90.0).map(|t| t.percentile), Some(90.0));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut samples: Vec<f64> = (0..500).map(|i| f64::from((i * 37) % 500)).collect();
        let first = tail(&samples, 99.0);
        samples.reverse();
        assert_eq!(first, tail(&samples, 99.0));
        assert_eq!(first.map(|t| t.percentile), Some(95.0));
    }

    #[test]
    fn geomean_of_speedups() {
        let g = geomean(&[1.0, 4.0]).expect("positive values");
        assert!((g - 2.0).abs() < 1e-12);
        let g = geomean(&[2.0, 2.0, 2.0]).expect("positive values");
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }
}
