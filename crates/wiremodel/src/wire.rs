//! Single-wire delay and energy: unbuffered vs repeatered (Figures 4–6).

use std::error::Error;
use std::fmt;

use crate::energy::TransitionEnergy;
use crate::technology::Technology;

/// Whether a wire is driven end-to-end or broken up by repeaters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireStyle {
    /// A bare distributed-RC wire driven only by an initial buffer
    /// cascade. Delay grows quadratically with length.
    Unbuffered,
    /// The standard repeated-wire model of Figure 4: an initial cascade,
    /// then uniformly spaced repeaters. Delay grows linearly with length;
    /// energy grows because each repeater adds gate and drain capacitance.
    Repeated,
}

impl fmt::Display for WireStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireStyle::Unbuffered => f.write_str("unbuffered"),
            WireStyle::Repeated => f.write_str("repeated"),
        }
    }
}

/// The derived repeater insertion for a wire: how many uniformly spaced
/// repeaters of what size (in multiples of a minimum inverter).
///
/// Produced by Bakoglu-style sizing, backed off by the technology's
/// [`repeater_derating`](Technology::repeater_derating) factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeaterPlan {
    /// Number of repeated segments (equals the repeater count; the first
    /// "repeater" is realized by the driver cascade).
    pub segments: u32,
    /// Repeater size as a multiple of the minimum inverter.
    pub size: f64,
    /// Added repeater capacitance per millimetre of wire, in femtofarads
    /// (gate plus drain parasitic).
    pub added_cap_ff_per_mm: f64,
}

/// A single bus wire of a given length in a given technology.
///
/// This is the unit from which all of Section 3's figures derive:
/// [`delay_ps`](Wire::delay_ps) regenerates Figure 6,
/// [`transition_energy_pj`](Wire::transition_energy_pj) regenerates
/// Figure 5, and [`lambda`](Wire::lambda) regenerates Table 1.
///
/// # Example
///
/// ```
/// use wiremodel::{Technology, Wire, WireStyle};
///
/// let tech = Technology::tech_013();
/// let bare = Wire::new(tech, WireStyle::Unbuffered, 30.0)?;
/// let repeated = Wire::new(tech, WireStyle::Repeated, 30.0)?;
/// // Repeaters trade energy for delay.
/// assert!(repeated.delay_ps() < bare.delay_ps());
/// assert!(repeated.transition_energy_pj() > bare.transition_energy_pj());
/// # Ok::<(), wiremodel::WireError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wire {
    tech: Technology,
    style: WireStyle,
    length_mm: f64,
    plan: Option<RepeaterPlan>,
}

impl Wire {
    /// Creates a wire of `length_mm` millimetres.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the length is not finite, not positive,
    /// or implausibly long (> 1000 mm — longer than any die).
    pub fn new(tech: Technology, style: WireStyle, length_mm: f64) -> Result<Self, WireError> {
        static BUILDS: busprobe::StaticCounter =
            busprobe::StaticCounter::new("wiremodel.wire.builds");
        BUILDS.inc();
        if !length_mm.is_finite() || length_mm <= 0.0 || length_mm > 1000.0 {
            return Err(WireError { length_mm });
        }
        let plan = match style {
            WireStyle::Unbuffered => None,
            WireStyle::Repeated => Some(Self::plan_repeaters(&tech, length_mm)),
        };
        Ok(Wire {
            tech,
            style,
            length_mm,
            plan,
        })
    }

    /// Bakoglu sizing backed off by the technology's derating factor.
    fn plan_repeaters(tech: &Technology, length_mm: f64) -> RepeaterPlan {
        static SOLVES: busprobe::StaticCounter =
            busprobe::StaticCounter::new("wiremodel.repeater.solves");
        static SEGMENTS: busprobe::StaticHistogram =
            busprobe::StaticHistogram::new("wiremodel.repeater.segments", &[1, 2, 4, 8, 16, 32]);
        let _span = busprobe::span("wiremodel.repeater.plan");
        SOLVES.inc();
        let r = tech.wire_r_ohm_per_mm;
        let c = tech.wire_c_total_ff_per_mm() * 1e-15; // F/mm
        let r0 = tech.inv_r_ohm;
        let c0 = tech.inv_cin_ff * 1e-15;
        // Delay-optimal segment count and size (Bakoglu 1990).
        let k_opt = length_mm * (0.4 * r * c / (0.7 * r0 * c0)).sqrt();
        let h = (r0 * c / (r * c0)).sqrt();
        let segments = (tech.repeater_derating * k_opt).round().max(1.0) as u32;
        SEGMENTS.observe(u64::from(segments));
        let per_repeater_ff = h * (tech.inv_cin_ff + tech.inv_cpar_ff);
        let added_cap_ff_per_mm = f64::from(segments) * per_repeater_ff / length_mm;
        RepeaterPlan {
            segments,
            size: h,
            added_cap_ff_per_mm,
        }
    }

    /// The wire's technology.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The wire's style.
    pub fn style(&self) -> WireStyle {
        self.style
    }

    /// The wire's length in millimetres.
    pub fn length_mm(&self) -> f64 {
        self.length_mm
    }

    /// The derived repeater insertion, if this is a repeated wire.
    pub fn repeater_plan(&self) -> Option<&RepeaterPlan> {
        self.plan.as_ref()
    }

    /// Capacitance switched by a self-transition of this wire, per
    /// millimetre, in femtofarads: substrate capacitance plus (for
    /// repeated wires) the repeater gate/drain capacitance.
    fn self_cap_ff_per_mm(&self) -> f64 {
        self.tech.wire_cs_ff_per_mm + self.plan.map_or(0.0, |p| p.added_cap_ff_per_mm)
    }

    /// Energy charged per self-transition event (τ in Equation 1) over
    /// the full wire, in picojoules.
    pub fn tau_energy_pj(&self) -> f64 {
        // ½ C V²; capacitance in fF and energy in pJ share the 1e-15/1e-12
        // scaling with V² in volts, leaving a bare 1e-3 factor.
        0.5 * self.self_cap_ff_per_mm() * self.length_mm * self.tech.vdd.powi(2) * 1e-3
    }

    /// Energy charged per coupling event (κ in Equation 1) against one
    /// neighbor over the full wire, in picojoules.
    pub fn kappa_energy_pj(&self) -> f64 {
        0.5 * self.tech.wire_ci_ff_per_mm * self.length_mm * self.tech.vdd.powi(2) * 1e-3
    }

    /// The effective coupling ratio `λ` for this wire style (Table 1):
    /// the cost of a coupling event relative to a self-transition.
    ///
    /// Repeaters increase the self-capacitance term, which is why
    /// repeated wires have λ two orders of magnitude below bare wires.
    pub fn lambda(&self) -> f64 {
        self.tech.wire_ci_ff_per_mm / self.self_cap_ff_per_mm()
    }

    /// The Figure 5 quantity: energy of one wire transition including an
    /// average coupling event with one adjacent wire, in picojoules.
    pub fn transition_energy_pj(&self) -> f64 {
        self.tau_energy_pj() + self.kappa_energy_pj()
    }

    /// Per-event energies bundled for downstream energy accounting.
    pub fn transition_energy(&self) -> TransitionEnergy {
        TransitionEnergy {
            tau_pj: self.tau_energy_pj(),
            kappa_pj: self.kappa_energy_pj(),
        }
    }

    /// Probability that a transition launched on this wire fails to
    /// settle within `cycle_ps`, under Gaussian-like delay variation of
    /// scale `sigma_ps` — a logistic approximation of the error
    /// function, in the spirit of timing-speculative bus operation
    /// (Kaul et al., "DVS for On-Chip Bus Designs Based on Timing Error
    /// Correction").
    ///
    /// The probability grows with wire length (and, for repeated wires,
    /// with repeater-segment length): a wire whose nominal delay equals
    /// the cycle budget misses it half the time; one with ample slack
    /// essentially never does. Used by the `busfault` crate's
    /// timing-error fault model.
    ///
    /// # Panics
    ///
    /// Panics if `cycle_ps` or `sigma_ps` is not finite and positive.
    pub fn timing_upset_probability(&self, cycle_ps: f64, sigma_ps: f64) -> f64 {
        assert!(
            cycle_ps.is_finite() && cycle_ps > 0.0,
            "cycle budget must be finite and positive, got {cycle_ps}"
        );
        assert!(
            sigma_ps.is_finite() && sigma_ps > 0.0,
            "delay-variation sigma must be finite and positive, got {sigma_ps}"
        );
        let margin = (cycle_ps - self.delay_ps()) / sigma_ps;
        1.0 / (1.0 + margin.exp())
    }

    /// Propagation delay in picoseconds (Figure 6).
    ///
    /// Unbuffered wires follow the distributed-RC quadratic
    /// `0.4·r·c·L²` plus the driver-cascade delay; repeated wires follow
    /// the segment-wise Bakoglu expression, which is linear in length.
    pub fn delay_ps(&self) -> f64 {
        let r = self.tech.wire_r_ohm_per_mm;
        let c = self.tech.wire_c_total_ff_per_mm() * 1e-15;
        let r0 = self.tech.inv_r_ohm;
        let c0 = self.tech.inv_cin_ff * 1e-15;
        let cp = self.tech.inv_cpar_ff * 1e-15;
        let seconds = match self.plan {
            None => {
                // Exponential-cascade driver from a minimum inverter up to
                // the wire load, then the distributed wire itself.
                let c_wire = c * self.length_mm;
                let stages = (c_wire / c0).max(1.0).ln();
                let cascade = 0.7 * std::f64::consts::E * r0 * c0 * stages;
                cascade + 0.4 * r * c * self.length_mm * self.length_mm
            }
            Some(plan) => {
                let k = f64::from(plan.segments);
                let h = plan.size;
                let l_seg = self.length_mm / k;
                let per_segment = 0.7 * (r0 / h) * (h * (c0 + cp) + c * l_seg)
                    + r * l_seg * (0.4 * c * l_seg + 0.7 * h * c0);
                k * per_segment
            }
        };
        seconds * 1e12
    }
}

impl fmt::Display for Wire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} mm {} wire in {}",
            self.length_mm, self.style, self.tech
        )
    }
}

/// Error returned for a non-physical wire length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireError {
    length_mm: f64,
}

impl WireError {
    /// The rejected length in millimetres.
    pub fn length_mm(&self) -> f64 {
        self.length_mm
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wire length must be positive, finite and at most 1000 mm, got {}",
            self.length_mm
        )
    }
}

impl Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(tech: Technology, style: WireStyle, len: f64) -> Wire {
        Wire::new(tech, style, len).unwrap()
    }

    #[test]
    fn rejects_bad_lengths() {
        let t = Technology::tech_013();
        assert!(Wire::new(t, WireStyle::Unbuffered, 0.0).is_err());
        assert!(Wire::new(t, WireStyle::Unbuffered, -3.0).is_err());
        assert!(Wire::new(t, WireStyle::Unbuffered, f64::NAN).is_err());
        assert!(Wire::new(t, WireStyle::Unbuffered, f64::INFINITY).is_err());
        assert!(Wire::new(t, WireStyle::Unbuffered, 2000.0).is_err());
        assert_eq!(
            Wire::new(t, WireStyle::Unbuffered, -3.0)
                .unwrap_err()
                .length_mm(),
            -3.0
        );
    }

    #[test]
    fn lambda_repeated_matches_table1() {
        // Table 1: 0.670, 0.576, 0.591 (we accept 15% calibration error).
        let expect = [
            (Technology::tech_013(), 0.670),
            (Technology::tech_010(), 0.576),
            (Technology::tech_007(), 0.591),
        ];
        for (tech, target) in expect {
            let w = wire(tech, WireStyle::Repeated, 20.0);
            let lambda = w.lambda();
            assert!(
                (lambda - target).abs() / target < 0.15,
                "{}: repeated lambda {lambda:.3} vs paper {target}",
                tech.kind
            );
        }
    }

    #[test]
    fn lambda_unbuffered_equals_ci_over_cs() {
        for tech in Technology::all() {
            let w = wire(tech, WireStyle::Unbuffered, 10.0);
            assert!((w.lambda() - tech.lambda_unbuffered()).abs() < 1e-12);
        }
    }

    #[test]
    fn repeater_size_is_tens_of_minimum_inverters() {
        // The paper: repeaters are "40 to 50 times wider than minimum
        // size inverters"; accept 30–90 across our technologies.
        for tech in Technology::all() {
            let w = wire(tech, WireStyle::Repeated, 15.0);
            let plan = w.repeater_plan().unwrap();
            assert!(
                plan.size > 30.0 && plan.size < 90.0,
                "{}: repeater size {}",
                tech.kind,
                plan.size
            );
        }
    }

    #[test]
    fn unbuffered_delay_is_quadratic() {
        let t = Technology::tech_013();
        let d10 = wire(t, WireStyle::Unbuffered, 10.0).delay_ps();
        let d20 = wire(t, WireStyle::Unbuffered, 20.0).delay_ps();
        // Quadratic up to the fixed driver-cascade term: the ratio sits
        // well above linear (2.0) and approaches 4 as length grows.
        let ratio = d20 / d10;
        assert!(ratio > 2.8 && ratio < 4.2, "ratio {ratio}");
        let d15 = wire(t, WireStyle::Unbuffered, 15.0).delay_ps();
        let d30 = wire(t, WireStyle::Unbuffered, 30.0).delay_ps();
        let long_ratio = d30 / d15;
        assert!(
            long_ratio > 3.2 && long_ratio < 4.2,
            "long ratio {long_ratio}"
        );
    }

    #[test]
    fn repeated_delay_is_linear() {
        let t = Technology::tech_013();
        let d10 = wire(t, WireStyle::Repeated, 10.0).delay_ps();
        let d20 = wire(t, WireStyle::Repeated, 20.0).delay_ps();
        let ratio = d20 / d10;
        assert!(ratio > 1.7 && ratio < 2.3, "ratio {ratio}");
    }

    #[test]
    fn repeaters_beat_bare_wire_delay_at_length() {
        for tech in Technology::all() {
            let bare = wire(tech, WireStyle::Unbuffered, 30.0).delay_ps();
            let rep = wire(tech, WireStyle::Repeated, 30.0).delay_ps();
            assert!(rep < bare / 2.0, "{}: {rep} vs {bare}", tech.kind);
        }
    }

    #[test]
    fn delay_magnitudes_match_figure6() {
        // Figure 6 at 30 mm: unbuffered ~3000-6000 ps, repeated < 1500 ps.
        for tech in Technology::all() {
            let bare = wire(tech, WireStyle::Unbuffered, 30.0).delay_ps();
            let rep = wire(tech, WireStyle::Repeated, 30.0).delay_ps();
            assert!(bare > 2500.0 && bare < 8000.0, "{}: bare {bare}", tech.kind);
            assert!(rep > 200.0 && rep < 1600.0, "{}: rep {rep}", tech.kind);
        }
    }

    #[test]
    fn energy_magnitudes_match_figure5() {
        // Figure 5 at 30 mm: repeated wires dissipate a few pJ per
        // transition, more than bare wires, decreasing with technology.
        let e13 = wire(Technology::tech_013(), WireStyle::Repeated, 30.0).transition_energy_pj();
        let e07 = wire(Technology::tech_007(), WireStyle::Repeated, 30.0).transition_energy_pj();
        assert!(e13 > 3.0 && e13 < 7.0, "0.13um energy {e13}");
        assert!(e07 < e13, "energy should shrink with technology");
        for tech in Technology::all() {
            let bare = wire(tech, WireStyle::Unbuffered, 30.0).transition_energy_pj();
            let rep = wire(tech, WireStyle::Repeated, 30.0).transition_energy_pj();
            assert!(
                rep > bare,
                "{}: repeated energy must exceed bare",
                tech.kind
            );
        }
    }

    #[test]
    fn energy_scales_linearly_with_length() {
        let t = Technology::tech_013();
        let e5 = wire(t, WireStyle::Repeated, 5.0);
        let e10 = wire(t, WireStyle::Repeated, 10.0);
        // Within repeater-count rounding noise.
        let ratio = e10.tau_energy_pj() / e5.tau_energy_pj();
        assert!(ratio > 1.8 && ratio < 2.2, "ratio {ratio}");
        assert!((e10.kappa_energy_pj() / e5.kappa_energy_pj() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn transition_energy_bundle_is_consistent() {
        let w = wire(Technology::tech_010(), WireStyle::Repeated, 12.0);
        let e = w.transition_energy();
        assert_eq!(e.tau_pj, w.tau_energy_pj());
        assert_eq!(e.kappa_pj, w.kappa_energy_pj());
        assert!((e.kappa_pj / e.tau_pj - w.lambda()).abs() < 1e-12);
    }

    #[test]
    fn timing_upset_probability_grows_with_length() {
        let t = Technology::tech_013();
        // A 1 ns budget at sigma 100 ps: short repeated wires are safe,
        // long ones increasingly miss the cycle.
        let p: Vec<f64> = [5.0, 15.0, 30.0, 45.0]
            .iter()
            .map(|&l| wire(t, WireStyle::Repeated, l).timing_upset_probability(1000.0, 100.0))
            .collect();
        assert!(p.windows(2).all(|w| w[0] < w[1]), "{p:?}");
        assert!(p[0] < 1e-3, "short wire must be near-safe: {}", p[0]);
        assert!(p[3] > 0.5, "45 mm exceeds a 1 ns budget: {}", p[3]);
        for &x in &p {
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn timing_upset_probability_is_half_at_zero_margin() {
        let w = wire(Technology::tech_013(), WireStyle::Repeated, 20.0);
        let p = w.timing_upset_probability(w.delay_ps(), 50.0);
        assert!((p - 0.5).abs() < 1e-12, "{p}");
    }

    #[test]
    #[should_panic(expected = "cycle budget")]
    fn timing_upset_probability_rejects_bad_cycle() {
        let w = wire(Technology::tech_013(), WireStyle::Repeated, 10.0);
        let _ = w.timing_upset_probability(0.0, 50.0);
    }

    #[test]
    fn display_formats() {
        let w = wire(Technology::tech_013(), WireStyle::Repeated, 10.0);
        assert_eq!(w.to_string(), "10.0 mm repeated wire in 0.13um (1.2 V)");
        let err = Wire::new(Technology::tech_013(), WireStyle::Unbuffered, -1.0).unwrap_err();
        assert!(err.to_string().contains("wire length"));
    }
}
