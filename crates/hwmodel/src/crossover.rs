//! Crossover analysis: total (wire + transcoder) energy versus the
//! un-encoded wire (paper Section 5.4.3, Figures 35–38, Table 3).
//!
//! The crossover length is the wire length at which the transcoder
//! exactly pays for itself; beyond it, every millimetre is profit. Since
//! both wire energies scale linearly with length while the transcoder
//! cost is fixed, the normalized-energy curves of Figures 35–36 decay
//! hyperbolically toward the coded/uncoded activity ratio, and the
//! crossover has the closed form `L* = E_transcoder / E_saved_per_mm`.

use buscoding::Activity;
use wiremodel::{Technology, Wire, WireError, WireStyle};

/// One scheme's measured outcome on one trace, ready for energy
/// analysis at any wire length.
#[derive(Debug, Clone, PartialEq)]
pub struct CodingOutcome {
    /// Activity of the un-encoded bus.
    pub baseline: Activity,
    /// Activity of the coded bus (including control lines).
    pub coded: Activity,
    /// Bus values carried (transcoder cycles).
    pub values: u64,
    /// Transcoder energy per bus value in picojoules, *both ends*
    /// (encoder + decoder), including leakage.
    pub transcoder_pj_per_value: f64,
}

impl CodingOutcome {
    /// Bundles a measurement.
    ///
    /// # Panics
    ///
    /// Panics if `values` is zero.
    pub fn new(
        baseline: Activity,
        coded: Activity,
        values: u64,
        transcoder_pj_per_value: f64,
    ) -> Self {
        assert!(values > 0, "an outcome requires at least one bus value");
        CodingOutcome {
            baseline,
            coded,
            values,
            transcoder_pj_per_value,
        }
    }

    /// Adds the energy tax of epoch resynchronization (the
    /// `buscoding::robust` epoch wrapper): `flushes` predictor-state
    /// flushes at `pj_per_flush` picojoules each, amortized over the
    /// carried values into [`transcoder_pj_per_value`]. The extra *wire*
    /// activity of post-flush mispredictions is already captured in the
    /// coded [`Activity`]; this accounts only for the transcoder-side
    /// state-clearing energy, shifting the crossover accordingly.
    ///
    /// [`transcoder_pj_per_value`]: CodingOutcome::transcoder_pj_per_value
    /// [`Activity`]: buscoding::Activity
    ///
    /// # Panics
    ///
    /// Panics if `pj_per_flush` is negative or non-finite.
    #[must_use]
    pub fn with_resync_tax(mut self, flushes: u64, pj_per_flush: f64) -> Self {
        assert!(
            pj_per_flush.is_finite() && pj_per_flush >= 0.0,
            "per-flush energy must be finite and non-negative, got {pj_per_flush}"
        );
        self.transcoder_pj_per_value += flushes as f64 * pj_per_flush / self.values as f64;
        self
    }

    /// Total energy of the coded system (wire + both transcoder ends)
    /// divided by the un-encoded wire energy, at this wire length — the
    /// y-axis of Figures 35–38.
    ///
    /// Returns `f64::INFINITY` if the baseline wire never switched.
    pub fn normalized_total_energy(&self, wire: &Wire) -> f64 {
        let e = wire.transition_energy();
        let base = e.total_pj(self.baseline.tau(), self.baseline.kappa());
        if base == 0.0 {
            return f64::INFINITY;
        }
        let coded = e.total_pj(self.coded.tau(), self.coded.kappa())
            + self.transcoder_pj_per_value * self.values as f64;
        coded / base
    }

    /// The normalized-energy curve over a sweep of wire lengths.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if any length is invalid.
    pub fn normalized_curve(
        &self,
        tech: Technology,
        style: WireStyle,
        lengths_mm: &[f64],
    ) -> Result<Vec<(f64, f64)>, WireError> {
        lengths_mm
            .iter()
            .map(|&l| Ok((l, self.normalized_total_energy(&Wire::new(tech, style, l)?))))
            .collect()
    }

    /// Wire energy saved per value per millimetre, in picojoules.
    fn saved_pj_per_value_per_mm(&self, tech: Technology, style: WireStyle) -> f64 {
        // Use a long reference wire so repeater-count rounding washes out.
        const REF_MM: f64 = 20.0;
        let wire = Wire::new(tech, style, REF_MM).expect("reference length is valid");
        let e = wire.transition_energy();
        let saved = e.total_pj(self.baseline.tau(), self.baseline.kappa())
            - e.total_pj(self.coded.tau(), self.coded.kappa());
        saved / self.values as f64 / REF_MM
    }

    /// The crossover (break-even) wire length in millimetres: where
    /// coded-system energy equals un-encoded wire energy. `None` when
    /// the scheme never breaks even (it saved no wire energy) or the
    /// break-even point is beyond any plausible die (1000 mm).
    pub fn crossover_mm(&self, tech: Technology, style: WireStyle) -> Option<f64> {
        static SOLVES: busprobe::StaticCounter =
            busprobe::StaticCounter::new("hwmodel.crossover.solves");
        let _span = busprobe::span("hwmodel.crossover.solve");
        SOLVES.inc();
        let saved_per_mm = self.saved_pj_per_value_per_mm(tech, style);
        if saved_per_mm <= 0.0 {
            return None;
        }
        let crossover = self.transcoder_pj_per_value / saved_per_mm;
        (crossover <= 1000.0).then_some(crossover)
    }
}

/// The median of a set of measurements (the statistic of Table 3).
/// Returns `None` for an empty set. Non-finite values are rejected by
/// panic — they indicate an upstream bug, not data.
///
/// # Example
///
/// ```
/// use hwmodel::crossover::median;
///
/// assert_eq!(median(vec![3.0, 1.0, 2.0]), Some(2.0));
/// assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), Some(2.5));
/// assert_eq!(median(Vec::new()), None);
/// ```
pub fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!(
        values.iter().all(|v| v.is_finite()),
        "median of non-finite values"
    );
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(saving_ratio: f64, transcoder: f64) -> CodingOutcome {
        // Baseline: 8 weighted events/cycle over 1000 cycles.
        let mut baseline = Activity::new(32);
        let mut coded = Activity::new(34);
        baseline.step(0);
        coded.step(0);
        for i in 0..1000u64 {
            baseline.step(if i % 2 == 0 { 0xFF } else { 0 });
            // Coded bus toggles fewer wires.
            let coded_bits = ((8.0 * (1.0 - saving_ratio)).round() as u32).min(32);
            let mask = if coded_bits == 0 {
                0
            } else {
                (1u64 << coded_bits) - 1
            };
            coded.step(if i % 2 == 0 { mask } else { 0 });
        }
        CodingOutcome::new(baseline, coded, 1000, transcoder)
    }

    #[test]
    fn normalized_energy_decreases_with_length() {
        let o = outcome(0.4, 2.0);
        let curve = o
            .normalized_curve(
                Technology::tech_013(),
                WireStyle::Repeated,
                &[2.0, 10.0, 30.0],
            )
            .unwrap();
        assert!(curve.windows(2).all(|w| w[0].1 > w[1].1), "{curve:?}");
    }

    #[test]
    fn crossover_matches_curve_unity() {
        let o = outcome(0.4, 2.0);
        let tech = Technology::tech_013();
        let l = o
            .crossover_mm(tech, WireStyle::Repeated)
            .expect("breaks even");
        let at = o.normalized_total_energy(&Wire::new(tech, WireStyle::Repeated, l).unwrap());
        // Repeater-count rounding allows a few percent of slack.
        assert!(
            (at - 1.0).abs() < 0.05,
            "normalized energy at crossover: {at}"
        );
    }

    #[test]
    fn no_crossover_when_nothing_saved() {
        let o = outcome(0.0, 2.0);
        assert_eq!(
            o.crossover_mm(Technology::tech_013(), WireStyle::Repeated),
            None
        );
    }

    #[test]
    fn cheaper_transcoder_crosses_earlier() {
        let expensive = outcome(0.4, 4.0);
        let cheap = outcome(0.4, 1.0);
        let t = Technology::tech_013();
        let le = expensive.crossover_mm(t, WireStyle::Repeated).unwrap();
        let lc = cheap.crossover_mm(t, WireStyle::Repeated).unwrap();
        assert!(lc < le / 3.0, "{lc} vs {le}");
    }

    #[test]
    fn smaller_technology_crosses_earlier_at_fixed_savings() {
        // Scale the transcoder energy by Table 2's ratios; wire energy
        // shrinks more slowly, so the crossover moves in.
        let t13 = outcome(0.4, 2.0 * 1.0);
        let t07 = outcome(0.4, 2.0 * (0.55 / 1.39));
        let l13 = t13
            .crossover_mm(Technology::tech_013(), WireStyle::Repeated)
            .unwrap();
        let l07 = t07
            .crossover_mm(Technology::tech_007(), WireStyle::Repeated)
            .unwrap();
        assert!(l07 < l13, "{l07} vs {l13}");
    }

    #[test]
    fn normalized_energy_handles_quiet_baseline() {
        let mut baseline = Activity::new(32);
        baseline.step(0);
        baseline.step(0);
        let mut coded = Activity::new(34);
        coded.step(0);
        coded.step(1);
        let o = CodingOutcome::new(baseline, coded, 1, 1.0);
        let w = Wire::new(Technology::tech_013(), WireStyle::Repeated, 5.0).unwrap();
        assert!(o.normalized_total_energy(&w).is_infinite());
    }

    #[test]
    fn resync_tax_amortizes_over_values() {
        let o = outcome(0.4, 2.0);
        let taxed = o.clone().with_resync_tax(100, 5.0);
        // 100 flushes × 5 pJ over 1000 values = +0.5 pJ/value.
        assert!((taxed.transcoder_pj_per_value - 2.5).abs() < 1e-12);
        assert_eq!(o.clone().with_resync_tax(0, 5.0), o);
    }

    #[test]
    fn resync_tax_moves_crossover_out() {
        let o = outcome(0.4, 2.0);
        let t = Technology::tech_013();
        let plain = o.crossover_mm(t, WireStyle::Repeated).unwrap();
        let taxed = o
            .with_resync_tax(500, 4.0)
            .crossover_mm(t, WireStyle::Repeated)
            .unwrap();
        assert!(taxed > plain, "{taxed} vs {plain}");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn resync_tax_rejects_negative_energy() {
        let _ = outcome(0.4, 2.0).with_resync_tax(1, -1.0);
    }

    #[test]
    #[should_panic(expected = "at least one bus value")]
    fn outcome_rejects_zero_values() {
        let a = Activity::new(32);
        let _ = CodingOutcome::new(a, Activity::new(34), 0, 1.0);
    }
}
