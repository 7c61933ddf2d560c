//! Per-operation energy pricing and circuit characteristics (Table 2).
//!
//! The paper extracted per-operation energies from HSPICE runs over the
//! extracted layout netlist, then validated the op-count × op-energy
//! estimate against a directly simulated 100-cycle trace (within 6%).
//! We adopt the same decomposition, with per-operation values calibrated
//! so the whole-codec averages reproduce Table 2:
//!
//! | Technology | Op energy (pJ/cycle) | Leakage (pJ/cycle) | Delay | Cycle |
//! |-----------:|---------------------:|-------------------:|------:|------:|
//! | 0.13 µm    | 1.39                 | 0.00088            | 3.1ns | 4ns   |
//! | 0.10 µm    | 1.07                 | 0.00338            | 2.4ns | 3.2ns |
//! | 0.07 µm    | 0.55                 | 0.00787            | 2.0ns | 2.7ns |
//! | InvertCoder| 1.76                 | 0.00055            | 2.2ns | 2.2ns |

use std::fmt;

use wiremodel::{Technology, TechnologyKind};

use crate::ops::OpCounts;

/// Which transcoder circuit is being priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CircuitKind {
    /// The Window-based design (Figure 33): shift tags, match logic,
    /// MuxXorLatch. The paper's 8-entry layout, and the projected
    /// 16-entry design.
    Window {
        /// Shift-register entries.
        entries: usize,
    },
    /// The Context-based design (Figure 32): tags, Johnson counters,
    /// pending-bit sort network.
    Context {
        /// Frequency-table entries.
        table: usize,
        /// Staging shift-register entries.
        shift: usize,
    },
    /// The standard-cell inversion coder base case (Section 5.4.1).
    Inverter,
}

impl fmt::Display for CircuitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitKind::Window { entries } => write!(f, "window-{entries}"),
            CircuitKind::Context { table, shift } => write!(f, "context-{table}+{shift}"),
            CircuitKind::Inverter => f.write_str("invert-coder"),
        }
    }
}

/// Per-operation dynamic energies in picojoules, for one end of the bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpEnergies {
    /// Fixed per-cycle overhead: clock tree, input latch, output
    /// MuxXorLatch.
    pub per_cycle: f64,
    /// One low-order-bits precharge comparison.
    pub precharge_match: f64,
    /// Completing a full-width comparison after a low-bits hit.
    pub full_match: f64,
    /// Writing one entry on a shift-in.
    pub shift: f64,
    /// One Johnson-counter increment (a single bit transition).
    pub counter_increment: f64,
    /// One adjacent-pair counter comparison.
    pub counter_compare: f64,
    /// One neighbor-entry swap (the custom CAM cells of Figure 31).
    pub swap: f64,
    /// Setting or clearing a pending bit.
    pub pending_update: f64,
    /// Updating the LAST-value pointer vector.
    pub last_update: f64,
    /// Rewriting one counter during a division sweep.
    pub divide_write: f64,
    /// Moving one staged entry into the frequency table.
    pub promotion: f64,
}

impl OpEnergies {
    /// The calibrated 0.13 µm values. Chosen so that the 8-entry window
    /// design averages ~1.39 pJ/cycle on SPEC-like traffic (Table 2),
    /// with relative magnitudes following the circuit discussion of
    /// Section 5.3.3 (precharge-limited matching; cheap Johnson counts;
    /// expensive swaps and writes).
    pub fn base_013() -> Self {
        OpEnergies {
            per_cycle: 0.55,
            precharge_match: 0.045,
            full_match: 0.25,
            shift: 0.35,
            counter_increment: 0.05,
            counter_compare: 0.020,
            swap: 0.40,
            pending_update: 0.02,
            last_update: 0.10,
            divide_write: 0.20,
            promotion: 0.50,
        }
    }

    /// Scales every operation by a factor (technology shrink).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        OpEnergies {
            per_cycle: self.per_cycle * factor,
            precharge_match: self.precharge_match * factor,
            full_match: self.full_match * factor,
            shift: self.shift * factor,
            counter_increment: self.counter_increment * factor,
            counter_compare: self.counter_compare * factor,
            swap: self.swap * factor,
            pending_update: self.pending_update * factor,
            last_update: self.last_update * factor,
            divide_write: self.divide_write * factor,
            promotion: self.promotion * factor,
        }
    }
}

/// Technology scaling factor relative to 0.13 µm, taken from the ratios
/// of Table 2's measured op energies (1.39 : 1.07 : 0.55).
fn tech_energy_factor(kind: TechnologyKind) -> f64 {
    match kind {
        TechnologyKind::Tech013 => 1.0,
        TechnologyKind::Tech010 => 1.07 / 1.39,
        TechnologyKind::Tech007 => 0.55 / 1.39,
    }
}

/// A priced transcoder circuit at one end of a bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitModel {
    kind: CircuitKind,
    tech: Technology,
    energies: OpEnergies,
}

impl CircuitModel {
    /// Prices a Window-based design.
    pub fn window(tech: Technology, entries: usize) -> Self {
        CircuitModel::new(tech, CircuitKind::Window { entries })
    }

    /// Prices a Context-based design.
    pub fn context(tech: Technology, table: usize, shift: usize) -> Self {
        CircuitModel::new(tech, CircuitKind::Context { table, shift })
    }

    /// Prices the inversion-coder base case.
    pub fn inverter(tech: Technology) -> Self {
        CircuitModel::new(tech, CircuitKind::Inverter)
    }

    /// Prices an arbitrary kind.
    pub fn new(tech: Technology, kind: CircuitKind) -> Self {
        let energies = OpEnergies::base_013().scaled(tech_energy_factor(tech.kind));
        CircuitModel {
            kind,
            tech,
            energies,
        }
    }

    /// The technology.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The per-operation prices in effect.
    pub fn energies(&self) -> &OpEnergies {
        &self.energies
    }

    /// Dynamic energy for an operation tally, one end of the bus, in
    /// picojoules.
    ///
    /// The inversion coder is priced as a flat per-cycle cost (its
    /// majority voter and 32-bit XOR trees run every cycle regardless of
    /// data), per Section 5.4.3.
    pub fn dynamic_energy_pj(&self, ops: &OpCounts) -> f64 {
        if matches!(self.kind, CircuitKind::Inverter) {
            return 1.76 * tech_energy_factor(self.tech.kind) * ops.cycles as f64;
        }
        let e = &self.energies;
        e.per_cycle * ops.cycles as f64
            + e.precharge_match * ops.precharge_matches as f64
            + e.full_match * ops.full_matches as f64
            + e.shift * ops.shifts as f64
            + e.counter_increment * ops.counter_increments as f64
            + e.counter_compare * ops.counter_compares as f64
            + e.swap * ops.swaps as f64
            + e.pending_update * ops.pending_updates as f64
            + e.last_update * ops.last_updates as f64
            + e.divide_write * ops.divide_writes as f64
            + e.promotion * ops.promotions as f64
    }

    /// Leakage energy per cycle in picojoules (Table 2; grows as
    /// technology shrinks).
    pub fn leakage_pj_per_cycle(&self) -> f64 {
        let base = match self.tech.kind {
            TechnologyKind::Tech013 => 0.00088,
            TechnologyKind::Tech010 => 0.00338,
            TechnologyKind::Tech007 => 0.00787,
        };
        if matches!(self.kind, CircuitKind::Inverter) {
            // Standard-cell inverter coder leaks less (Table 2: 0.00055
            // at 0.13 µm); keep the same technology trend.
            base * (0.00055 / 0.00088)
        } else {
            base
        }
    }

    /// Total (dynamic + leakage) energy for a tally, one end, in pJ.
    pub fn total_energy_pj(&self, ops: &OpCounts) -> f64 {
        self.dynamic_energy_pj(ops) + self.leakage_pj_per_cycle() * ops.cycles as f64
    }

    /// Data-ready-to-bus-out delay in nanoseconds (Table 2).
    pub fn delay_ns(&self) -> f64 {
        match (self.kind, self.tech.kind) {
            (CircuitKind::Inverter, _) => 2.2,
            (_, TechnologyKind::Tech013) => 3.1,
            (_, TechnologyKind::Tech010) => 2.4,
            (_, TechnologyKind::Tech007) => 2.0,
        }
    }

    /// Operating cycle time in nanoseconds (Table 2).
    pub fn cycle_time_ns(&self) -> f64 {
        match (self.kind, self.tech.kind) {
            (CircuitKind::Inverter, _) => 2.2,
            (_, TechnologyKind::Tech013) => 4.0,
            (_, TechnologyKind::Tech010) => 3.2,
            (_, TechnologyKind::Tech007) => 2.7,
        }
    }

    /// Estimated layout area in µm².
    ///
    /// Anchored to the measured layouts (window-8: 12 400 µm² at
    /// 0.13 µm, Figure 33; context-28+4: ~100 000 µm² first-order-scaled
    /// to 0.13 µm, Figure 32; inverter: 4 700 µm²), scaled quadratically
    /// with feature size and linearly with the entry-array size beyond
    /// the measured configuration.
    pub fn area_um2(&self) -> f64 {
        let feature_scale = (self.tech.feature_um / 0.13).powi(2);
        let base = match self.kind {
            CircuitKind::Window { entries } => {
                // ~15% fixed control, ~85% tag array at 8 entries.
                12_400.0 * (0.15 + 0.85 * entries as f64 / 8.0)
            }
            CircuitKind::Context { table, shift } => {
                let measured_entries = 28.0 + 4.0;
                100_000.0 * (0.10 + 0.90 * (table + shift) as f64 / measured_entries)
            }
            CircuitKind::Inverter => 4_700.0,
        };
        base * feature_scale
    }
}

impl fmt::Display for CircuitModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {}", self.kind, self.tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_techs() -> [Technology; 3] {
        Technology::all()
    }

    #[test]
    fn inverter_matches_table2() {
        let ops = OpCounts {
            cycles: 1000,
            ..OpCounts::new()
        };
        let c = CircuitModel::inverter(Technology::tech_013());
        assert!((c.dynamic_energy_pj(&ops) / 1000.0 - 1.76).abs() < 1e-9);
        assert_eq!(c.delay_ns(), 2.2);
        assert_eq!(c.cycle_time_ns(), 2.2);
    }

    #[test]
    fn technology_scaling_follows_table2() {
        let ops = OpCounts {
            cycles: 100,
            precharge_matches: 800,
            ..OpCounts::new()
        };
        let e13 = CircuitModel::window(Technology::tech_013(), 8).dynamic_energy_pj(&ops);
        let e10 = CircuitModel::window(Technology::tech_010(), 8).dynamic_energy_pj(&ops);
        let e07 = CircuitModel::window(Technology::tech_007(), 8).dynamic_energy_pj(&ops);
        assert!((e10 / e13 - 1.07 / 1.39).abs() < 1e-9);
        assert!((e07 / e13 - 0.55 / 1.39).abs() < 1e-9);
    }

    #[test]
    fn leakage_is_orders_of_magnitude_below_dynamic() {
        for tech in all_techs() {
            let c = CircuitModel::window(tech, 8);
            assert!(c.leakage_pj_per_cycle() < c.energies().per_cycle / 10.0);
        }
    }

    #[test]
    fn leakage_grows_as_technology_shrinks() {
        let l: Vec<f64> = all_techs()
            .iter()
            .map(|&t| CircuitModel::window(t, 8).leakage_pj_per_cycle())
            .collect();
        assert!(l[0] < l[1] && l[1] < l[2], "{l:?}");
    }

    #[test]
    fn window_area_matches_figure33() {
        let c = CircuitModel::window(Technology::tech_013(), 8);
        assert!((c.area_um2() - 12_400.0).abs() < 1.0);
        // Table 2's scaled areas: 7340 at 0.10 µm, 3600 at 0.07 µm.
        let a10 = CircuitModel::window(Technology::tech_010(), 8).area_um2();
        let a07 = CircuitModel::window(Technology::tech_007(), 8).area_um2();
        assert!((a10 - 7_340.0).abs() / 7_340.0 < 0.01, "{a10}");
        assert!((a07 - 3_600.0).abs() / 3_600.0 < 0.01, "{a07}");
    }

    #[test]
    fn context_is_much_larger_than_window() {
        let w = CircuitModel::window(Technology::tech_013(), 8).area_um2();
        let c = CircuitModel::context(Technology::tech_013(), 28, 4).area_um2();
        assert!(c > 5.0 * w, "context {c} vs window {w}");
    }

    #[test]
    fn inverter_area_matches_paper() {
        let c = CircuitModel::inverter(Technology::tech_013());
        assert!((c.area_um2() - 4_700.0).abs() < 1.0);
    }

    #[test]
    fn sixteen_entry_window_costs_more_area() {
        let w8 = CircuitModel::window(Technology::tech_013(), 8).area_um2();
        let w16 = CircuitModel::window(Technology::tech_013(), 16).area_um2();
        assert!(w16 > 1.5 * w8 && w16 < 2.5 * w8);
    }

    #[test]
    fn display_names() {
        assert_eq!(
            CircuitModel::window(Technology::tech_013(), 8).to_string(),
            "window-8 in 0.13um (1.2 V)"
        );
        assert_eq!(
            CircuitKind::Context {
                table: 28,
                shift: 4
            }
            .to_string(),
            "context-28+4"
        );
    }
}
