//! Order statistics over measured samples.

/// The median of `samples`: the middle value, or the mean of the middle
/// pair for an even count. NaN for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `q` quantile of ascending `sorted` samples by the nearest-rank
/// rule. NaN for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of the ascending `sorted` samples lie above `value`.
pub fn beyond(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= value)
}

/// `samples` in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
