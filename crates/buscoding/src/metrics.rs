//! Normalized-energy metrics used throughout the evaluation.

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
}
