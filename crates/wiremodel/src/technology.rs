//! Per-technology interconnect and device parameters.

use std::fmt;

/// The three process generations studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechnologyKind {
    /// 0.13 µm — the process the Window-based transcoder was laid out in
    /// (ST Micro models in the paper).
    Tech013,
    /// 0.10 µm — projected via BPTM in the paper.
    Tech010,
    /// 0.07 µm — projected via BPTM in the paper.
    Tech007,
}

impl TechnologyKind {
    /// All technology generations, largest feature size first.
    pub const ALL: [TechnologyKind; 3] = [
        TechnologyKind::Tech013,
        TechnologyKind::Tech010,
        TechnologyKind::Tech007,
    ];
}

impl fmt::Display for TechnologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TechnologyKind::Tech013 => "0.13um",
            TechnologyKind::Tech010 => "0.10um",
            TechnologyKind::Tech007 => "0.07um",
        };
        f.write_str(s)
    }
}

/// Interconnect and device parameters for one process generation.
///
/// Wire parameters describe a minimum-pitch bus wire on an intermediate
/// metal layer (the paper places bus wires at minimum pitch). Device
/// parameters describe the minimum-size inverter used as the unit for
/// repeater sizing.
///
/// The numeric values are this reproduction's calibration of the paper's
/// HSPICE/BPTM stack — chosen so that the derived quantities (unbuffered
/// and repeatered λ in Table 1, energy and delay curves in Figures 5–6)
/// match the paper. They are *inputs* here; λ and the repeater plan are
/// always *derived* by the model, never hard-coded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Which generation this is.
    pub kind: TechnologyKind,
    /// Drawn feature size in micrometres (0.13, 0.10, 0.07).
    pub feature_um: f64,
    /// Supply voltage in volts (ITRS roadmap values, Table 2).
    pub vdd: f64,
    /// Wire resistance per millimetre, in ohms.
    pub wire_r_ohm_per_mm: f64,
    /// Wire-to-substrate capacitance `C_S` per millimetre, in femtofarads.
    pub wire_cs_ff_per_mm: f64,
    /// Inter-wire (coupling) capacitance `C_I` per millimetre to *one*
    /// neighbor, in femtofarads.
    pub wire_ci_ff_per_mm: f64,
    /// Output resistance of a minimum-size inverter, in ohms.
    pub inv_r_ohm: f64,
    /// Input (gate) capacitance of a minimum-size inverter, in femtofarads.
    pub inv_cin_ff: f64,
    /// Parasitic (drain) capacitance of a minimum-size inverter, in
    /// femtofarads.
    pub inv_cpar_ff: f64,
    /// Fraction of the delay-optimal repeater count actually inserted.
    ///
    /// Practical repeater methodologies (the paper follows Ismail &
    /// Friedman, which accounts for inductance) insert noticeably fewer
    /// repeaters than the plain Bakoglu RC optimum; backing off the count
    /// costs a few percent of delay and saves substantial repeater
    /// energy. This factor is the calibration knob that sets the
    /// repeatered effective λ of Table 1.
    pub repeater_derating: f64,
}

impl Technology {
    /// The 0.13 µm technology (1.2 V).
    pub fn tech_013() -> Self {
        Technology {
            kind: TechnologyKind::Tech013,
            feature_um: 0.13,
            vdd: 1.2,
            wire_r_ohm_per_mm: 50.0,
            wire_cs_ff_per_mm: 7.14,
            wire_ci_ff_per_mm: 100.0,
            inv_r_ohm: 3_000.0,
            inv_cin_ff: 4.0,
            inv_cpar_ff: 2.0,
            repeater_derating: 0.605,
        }
    }

    /// The 0.10 µm technology (1.1 V).
    pub fn tech_010() -> Self {
        Technology {
            kind: TechnologyKind::Tech010,
            feature_um: 0.10,
            vdd: 1.1,
            wire_r_ohm_per_mm: 70.0,
            wire_cs_ff_per_mm: 5.56,
            wire_ci_ff_per_mm: 92.3,
            inv_r_ohm: 4_000.0,
            inv_cin_ff: 3.0,
            inv_cpar_ff: 1.5,
            repeater_derating: 0.717,
        }
    }

    /// The 0.07 µm technology (0.9 V).
    pub fn tech_007() -> Self {
        Technology {
            kind: TechnologyKind::Tech007,
            feature_um: 0.07,
            vdd: 0.9,
            wire_r_ohm_per_mm: 100.0,
            wire_cs_ff_per_mm: 6.0,
            wire_ci_ff_per_mm: 87.0,
            inv_r_ohm: 6_000.0,
            inv_cin_ff: 2.0,
            inv_cpar_ff: 1.0,
            repeater_derating: 0.69,
        }
    }

    /// Looks up a technology by kind.
    pub fn of(kind: TechnologyKind) -> Self {
        match kind {
            TechnologyKind::Tech013 => Technology::tech_013(),
            TechnologyKind::Tech010 => Technology::tech_010(),
            TechnologyKind::Tech007 => Technology::tech_007(),
        }
    }

    /// All three technologies, largest feature size first.
    pub fn all() -> [Technology; 3] {
        [
            Technology::tech_013(),
            Technology::tech_010(),
            Technology::tech_007(),
        ]
    }

    /// Total switched capacitance per millimetre of an unbuffered wire
    /// whose neighbors are quiet: `C_S + 2·C_I`, in femtofarads.
    pub fn wire_c_total_ff_per_mm(&self) -> f64 {
        self.wire_cs_ff_per_mm + 2.0 * self.wire_ci_ff_per_mm
    }

    /// The unbuffered-wire coupling ratio `λ = C_I / C_S` (Table 1,
    /// "Unbuffered wire" rows).
    pub fn lambda_unbuffered(&self) -> f64 {
        self.wire_ci_ff_per_mm / self.wire_cs_ff_per_mm
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} V)", self.kind, self.vdd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_unbuffered_matches_table1() {
        // Table 1: 14.0, 16.6, 14.5 for 0.13/0.10/0.07 um.
        let expect = [
            (Technology::tech_013(), 14.0),
            (Technology::tech_010(), 16.6),
            (Technology::tech_007(), 14.5),
        ];
        for (tech, target) in expect {
            let lambda = tech.lambda_unbuffered();
            assert!(
                (lambda - target).abs() / target < 0.02,
                "{}: lambda {lambda} vs paper {target}",
                tech.kind
            );
        }
    }

    #[test]
    fn voltages_follow_itrs_roadmap() {
        assert_eq!(Technology::tech_013().vdd, 1.2);
        assert_eq!(Technology::tech_010().vdd, 1.1);
        assert_eq!(Technology::tech_007().vdd, 0.9);
    }

    #[test]
    fn of_round_trips_kind() {
        for kind in TechnologyKind::ALL {
            assert_eq!(Technology::of(kind).kind, kind);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(TechnologyKind::Tech013.to_string(), "0.13um");
        assert_eq!(Technology::tech_007().to_string(), "0.07um (0.9 V)");
    }

    #[test]
    fn feature_sizes_shrink_in_order() {
        let all = Technology::all();
        assert!(all.windows(2).all(|w| w[0].feature_um > w[1].feature_um));
    }
}
