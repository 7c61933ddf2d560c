//! Normalized-energy metrics used throughout the evaluation.

use std::fmt;

use crate::energy::Activity;

/// The fraction of bus energy *remaining* after coding: the coded bus's
/// weighted activity divided by the un-encoded baseline's (the y-axis of
/// Figure 15, where 100% means the coder achieved nothing).
///
/// Both activities must have been measured over the same trace; the line
/// counts may differ (coded buses carry extra control lines — their
/// energy is charged against the scheme, exactly as the paper does).
///
/// Returns 0.0 when the baseline itself had no activity.
pub fn normalized_energy_remaining(coded: &Activity, baseline: &Activity, lambda: f64) -> f64 {
    let base = baseline.weighted(lambda);
    if base == 0.0 {
        return 0.0;
    }
    coded.weighted(lambda) / base
}

/// The percentage of bus energy removed by coding: the y-axis of
/// Figures 16–25 ("Normalized Energy Removed"). Negative values mean the
/// scheme *added* energy (as the strided predictor does on random data).
pub fn percent_energy_removed(coded: &Activity, baseline: &Activity, lambda: f64) -> f64 {
    100.0 * (1.0 - normalized_energy_remaining(coded, baseline, lambda))
}

/// A scheme's result on one trace, bundled for reporting by the bench
/// harness.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeReport {
    /// Scheme identifier, e.g. `"window(8)"`.
    pub scheme: String,
    /// Workload identifier, e.g. `"gcc/register"`.
    pub workload: String,
    /// λ used for weighting.
    pub lambda: f64,
    /// Baseline weighted activity (`τ + λκ`).
    pub baseline_weighted: f64,
    /// Coded weighted activity.
    pub coded_weighted: f64,
    /// Percent of energy removed (negative when the coder hurts).
    pub percent_removed: f64,
}

impl SchemeReport {
    /// Builds a report from measured activities.
    pub fn new(
        scheme: impl Into<String>,
        workload: impl Into<String>,
        lambda: f64,
        coded: &Activity,
        baseline: &Activity,
    ) -> Self {
        SchemeReport {
            scheme: scheme.into(),
            workload: workload.into(),
            lambda,
            baseline_weighted: baseline.weighted(lambda),
            coded_weighted: coded.weighted(lambda),
            percent_removed: percent_energy_removed(coded, baseline, lambda),
        }
    }
}

impl fmt::Display for SchemeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {:.1}% energy removed (lambda {})",
            self.scheme, self.workload, self.percent_removed, self.lambda
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activity(lines: u32, states: &[u64]) -> Activity {
        let mut a = Activity::new(lines);
        for &s in states {
            a.step(s);
        }
        a
    }

    #[test]
    fn normalized_energy_of_identical_activity_is_one() {
        let a = activity(8, &[0, 1, 3, 1]);
        assert!((normalized_energy_remaining(&a, &a, 1.0) - 1.0).abs() < 1e-12);
        assert!(percent_energy_removed(&a, &a, 1.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_coded_bus_removes_everything() {
        let coded = activity(10, &[0, 0, 0]);
        let baseline = activity(8, &[0, 0xFF, 0]);
        assert_eq!(normalized_energy_remaining(&coded, &baseline, 1.0), 0.0);
        assert_eq!(percent_energy_removed(&coded, &baseline, 1.0), 100.0);
    }

    #[test]
    fn noisy_coded_bus_goes_negative() {
        let coded = activity(8, &[0, 0xFF, 0, 0xFF]);
        let baseline = activity(8, &[0, 1, 0, 1]);
        assert!(percent_energy_removed(&coded, &baseline, 0.0) < 0.0);
    }

    #[test]
    fn zero_baseline_is_safe() {
        let coded = activity(8, &[0, 1]);
        let baseline = activity(8, &[0, 0]);
        assert_eq!(normalized_energy_remaining(&coded, &baseline, 1.0), 0.0);
    }

    #[test]
    fn report_carries_numbers() {
        let coded = activity(8, &[0, 1]);
        let baseline = activity(8, &[0, 0xF]);
        let r = SchemeReport::new("window(8)", "gcc/register", 1.0, &coded, &baseline);
        assert_eq!(r.scheme, "window(8)");
        assert!(r.percent_removed > 0.0);
        assert!(r.to_string().contains("window(8) on gcc/register"));
    }
}
