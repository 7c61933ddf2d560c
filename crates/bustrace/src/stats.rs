//! Statistical characterization of bus traces (paper Section 4.2).
//!
//! Two statistics from the paper motivate the coding-scheme design space:
//!
//! * the cumulative distribution of the most frequent unique values
//!   (Figure 7), which shows that a *frequency-based* dictionary needs
//!   hundreds to thousands of entries to get useful coverage; and
//! * the average fraction of values that are unique within a window of a
//!   given size (Figure 8), which shows that a *window-based* dictionary
//!   of only tens of entries captures most short-term reuse.
//!
//! This module computes both, plus supporting statistics (repeat
//! fractions for LAST-value prediction, stride hit rates for the strided
//! predictor, transition density, and empirical value entropy). Every
//! statistic is one function over a [`Trace`]; the adaptive controller
//! (`busadapt`) calls the same functions on each decision window it has
//! buffered.

use std::collections::HashMap;

use crate::{Trace, Word};

/// Frequency census of a trace: every distinct word and its occurrence
/// count, sorted most-frequent first.
///
/// # Example
///
/// ```
/// use bustrace::{Trace, Width};
/// use bustrace::stats::ValueCensus;
///
/// let t = Trace::from_values(Width::W32, [5u64, 5, 5, 9, 9, 1]);
/// let census = ValueCensus::of(&t);
/// assert_eq!(census.unique_count(), 3);
/// assert_eq!(census.counts()[0], (5, 3));
/// assert!((census.coverage(1) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueCensus {
    /// `(value, count)` pairs sorted by descending count, ties broken by
    /// ascending value for determinism.
    counts: Vec<(Word, u64)>,
    total: u64,
}

impl ValueCensus {
    /// Builds the census of a trace.
    pub fn of(trace: &Trace) -> Self {
        let mut map: HashMap<Word, u64> = HashMap::new();
        for v in trace.iter() {
            *map.entry(v).or_insert(0) += 1;
        }
        let mut counts: Vec<(Word, u64)> = map.into_iter().collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ValueCensus {
            counts,
            total: trace.len() as u64,
        }
    }

    /// `(value, count)` pairs, most frequent first.
    pub fn counts(&self) -> &[(Word, u64)] {
        &self.counts
    }

    /// Number of distinct words in the trace.
    pub fn unique_count(&self) -> usize {
        self.counts.len()
    }

    /// Total number of words in the trace.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of the trace covered by the `k` most frequent values
    /// (the y-axis of Figure 7 at x = `k`). Returns 0.0 for an empty
    /// trace.
    pub fn coverage(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let covered: u64 = self.counts.iter().take(k).map(|&(_, c)| c).sum();
        covered as f64 / self.total as f64
    }

    /// The full CDF series of Figure 7: for each point `k` in
    /// `1, 2, 4, 8, ...` up to the number of unique values, the coverage
    /// fraction. Log-spaced points keep the series compact for traces
    /// with millions of unique values.
    pub fn cdf_series(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut k = 1usize;
        while k < self.unique_count() {
            out.push((k, self.coverage(k)));
            k *= 2;
        }
        if self.unique_count() > 0 {
            out.push((self.unique_count(), 1.0));
        }
        out
    }

    /// Empirical Shannon entropy of the value distribution, in bits.
    ///
    /// An upper bound on what any value-frequency code could achieve.
    pub fn entropy_bits(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        -self
            .counts
            .iter()
            .map(|&(_, c)| {
                let p = c as f64 / n;
                p * p.log2()
            })
            .sum::<f64>()
    }
}

/// Average fraction of values within a window that are unique, for a
/// given window size (the y-axis of Figure 8).
///
/// Windows are tiled (non-overlapping), matching the paper's definition
/// closely enough while keeping the computation `O(n)` per window size;
/// a trailing partial window is ignored. Returns `None` when the trace is
/// shorter than one window.
///
/// # Example
///
/// ```
/// use bustrace::{Trace, Width};
/// use bustrace::stats::window_uniqueness;
///
/// // Window of 4 over [1,1,2,3, 4,4,4,4]: first window has 3 unique of
/// // 4 values, second has 1 of 4 -> average 0.5.
/// let t = Trace::from_values(Width::W32, [1u64, 1, 2, 3, 4, 4, 4, 4]);
/// assert_eq!(window_uniqueness(&t, 4), Some(0.5));
/// ```
pub fn window_uniqueness(trace: &Trace, window: usize) -> Option<f64> {
    if window == 0 || trace.len() < window {
        return None;
    }
    let values = trace.values();
    let full_windows = values.len() / window;
    let mut fraction_sum = 0.0;
    let mut seen: HashMap<Word, ()> = HashMap::with_capacity(window);
    for w in 0..full_windows {
        seen.clear();
        let chunk = &values[w * window..(w + 1) * window];
        for &v in chunk {
            seen.insert(v, ());
        }
        fraction_sum += seen.len() as f64 / window as f64;
    }
    Some(fraction_sum / full_windows as f64)
}

/// The Figure 8 series: window uniqueness at power-of-two window sizes
/// from 1 up to the trace length.
pub fn window_uniqueness_series(trace: &Trace) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    let mut w = 1usize;
    while w <= trace.len() {
        if let Some(frac) = window_uniqueness(trace, w) {
            out.push((w, frac));
        }
        match w.checked_mul(2) {
            Some(next) => w = next,
            None => break,
        }
    }
    out
}

/// Fraction of values equal to their immediate predecessor
/// (the hit rate of the LAST-value predictor; code "0" in every scheme).
pub fn repeat_fraction(trace: &Trace) -> f64 {
    let v = trace.values();
    if v.len() < 2 {
        return 0.0;
    }
    let repeats = v.windows(2).filter(|w| w[0] == w[1]).count();
    repeats as f64 / (v.len() - 1) as f64
}

/// Fraction of values correctly predicted by a stride-`k` predictor:
/// `v[t] == v[t-k] + (v[t-k] - v[t-2k])` in wrapping arithmetic at the
/// trace's width.
///
/// Positions with insufficient history are counted as misses, matching a
/// cold-started hardware predictor.
pub fn stride_hit_fraction(trace: &Trace, k: usize) -> f64 {
    let v = trace.values();
    if k == 0 || v.len() <= 2 * k {
        return 0.0;
    }
    let mask = trace.width().mask();
    let mut hits = 0usize;
    for t in 2 * k..v.len() {
        let predicted = v[t - k].wrapping_add(v[t - k].wrapping_sub(v[t - 2 * k])) & mask;
        if predicted == v[t] {
            hits += 1;
        }
    }
    hits as f64 / (v.len() - 2 * k).max(1) as f64
}

/// Mean fraction of bus lines flipping between consecutive words.
/// Returns 0.0 for traces shorter than two words.
pub fn transition_density(trace: &Trace) -> f64 {
    let v = trace.values();
    if v.len() < 2 {
        return 0.0;
    }
    let flips: u64 = v
        .windows(2)
        .map(|w| u64::from((w[0] ^ w[1]).count_ones()))
        .sum();
    flips as f64 / ((v.len() - 1) as f64 * f64::from(trace.width().bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Width;

    fn trace(values: &[u64]) -> Trace {
        Trace::from_values(Width::W32, values.iter().copied())
    }

    #[test]
    fn census_orders_by_frequency_then_value() {
        let t = trace(&[3, 1, 1, 2, 2, 2]);
        let c = ValueCensus::of(&t);
        assert_eq!(c.counts(), &[(2, 3), (1, 2), (3, 1)]);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn census_coverage_monotone_and_complete() {
        let t = trace(&[1, 1, 2, 3, 3, 3, 4, 5]);
        let c = ValueCensus::of(&t);
        let mut prev = 0.0;
        for k in 0..=c.unique_count() {
            let cov = c.coverage(k);
            assert!(cov >= prev);
            prev = cov;
        }
        assert!((c.coverage(c.unique_count()) - 1.0).abs() < 1e-12);
        assert!((c.coverage(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn census_empty_trace() {
        let c = ValueCensus::of(&Trace::new(Width::W32));
        assert_eq!(c.unique_count(), 0);
        assert_eq!(c.coverage(5), 0.0);
        assert_eq!(c.entropy_bits(), 0.0);
        assert!(c.cdf_series().is_empty());
    }

    #[test]
    fn cdf_series_ends_at_one() {
        let t = trace(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let series = ValueCensus::of(&t).cdf_series();
        let last = series.last().unwrap();
        assert_eq!(last.0, 10);
        assert!((last.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_uniform_values() {
        let t = trace(&[0, 1, 2, 3]);
        let e = ValueCensus::of(&t).entropy_bits();
        assert!((e - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_constant_is_zero() {
        let t = trace(&[7; 100]);
        assert_eq!(ValueCensus::of(&t).entropy_bits(), 0.0);
    }

    #[test]
    fn window_uniqueness_basics() {
        let t = trace(&[1, 1, 2, 3, 4, 4, 4, 4]);
        assert_eq!(window_uniqueness(&t, 4), Some(0.5));
        assert_eq!(window_uniqueness(&t, 1), Some(1.0));
        assert_eq!(window_uniqueness(&t, 0), None);
        assert_eq!(window_uniqueness(&t, 9), None);
    }

    #[test]
    fn window_uniqueness_constant_trace() {
        let t = trace(&[5; 64]);
        assert_eq!(window_uniqueness(&t, 8), Some(1.0 / 8.0));
    }

    #[test]
    fn window_series_is_decreasing_for_repetitive_traffic() {
        // A looping trace: bigger windows see proportionally less unique.
        let values: Vec<u64> = (0..1024).map(|i| i % 16).collect();
        let t = trace(&values);
        let series = window_uniqueness_series(&t);
        // At window 16 and beyond, only 16 unique values per window.
        let at_16 = series.iter().find(|&&(w, _)| w == 16).unwrap().1;
        let at_64 = series.iter().find(|&&(w, _)| w == 64).unwrap().1;
        assert!((at_16 - 1.0).abs() < 1e-12);
        assert!((at_64 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn repeat_fraction_examples() {
        assert_eq!(repeat_fraction(&trace(&[1, 1, 1, 1])), 1.0);
        assert_eq!(repeat_fraction(&trace(&[1, 2, 3, 4])), 0.0);
        assert_eq!(repeat_fraction(&trace(&[1])), 0.0);
        let t = trace(&[1, 1, 2, 2]);
        assert!((repeat_fraction(&t) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stride_hits_on_arithmetic_sequence() {
        let values: Vec<u64> = (0..100).map(|i| 10 + 3 * i).collect();
        let t = trace(&values);
        assert!((stride_hit_fraction(&t, 1) - 1.0).abs() < 1e-12);
        // A stride-2 predictor also fits an arithmetic sequence.
        assert!((stride_hit_fraction(&t, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stride_hits_on_interleaved_streams() {
        // Two interleaved arithmetic streams: stride-1 fails, stride-2 hits.
        let mut values = Vec::new();
        for i in 0..50u64 {
            values.push(1000 + 4 * i);
            values.push(77); // constant stream interleaved
        }
        let t = trace(&values);
        assert!(stride_hit_fraction(&t, 1) < 0.1);
        assert!(stride_hit_fraction(&t, 2) > 0.95);
    }

    #[test]
    fn stride_zero_or_short_trace_is_zero() {
        let t = trace(&[1, 2, 3]);
        assert_eq!(stride_hit_fraction(&t, 0), 0.0);
        assert_eq!(stride_hit_fraction(&t, 2), 0.0);
    }

    #[test]
    fn transition_density_examples() {
        assert_eq!(transition_density(&trace(&[5])), 0.0);
        assert_eq!(transition_density(&trace(&[7, 7, 7])), 0.0);
        // 0 -> 1: one flip over 32 lines.
        assert!((transition_density(&trace(&[0, 1])) - 1.0 / 32.0).abs() < 1e-15);
    }
}
