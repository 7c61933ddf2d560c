//! Bus-level energy accounting glue (Equation 1).

use crate::wire::Wire;

/// Per-event wire energies: what one self-transition (τ) and one coupling
/// event (κ) cost over a full wire, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionEnergy {
    /// Energy per self-transition event.
    pub tau_pj: f64,
    /// Energy per coupling event with one neighbor.
    pub kappa_pj: f64,
}

impl TransitionEnergy {
    /// Total energy of an activity profile with `tau` self-transition
    /// events and `kappa` coupling events, in picojoules — Equation 1
    /// with physical units attached.
    pub fn total_pj(&self, tau: u64, kappa: u64) -> f64 {
        self.tau_pj * tau as f64 + self.kappa_pj * kappa as f64
    }

    /// The coupling ratio λ implied by these energies.
    pub fn lambda(&self) -> f64 {
        self.kappa_pj / self.tau_pj
    }
}

/// Energy model for a whole bus: a bundle of identical wires.
///
/// The activity counts (τ, κ) produced by the coding study are summed
/// over all wires of the bus, so the bus model only needs the per-event
/// energies of one wire.
///
/// # Example
///
/// ```
/// use wiremodel::{BusEnergyModel, Technology, Wire, WireStyle};
///
/// let wire = Wire::new(Technology::tech_013(), WireStyle::Repeated, 10.0)?;
/// let bus = BusEnergyModel::new(wire);
/// let quiet = bus.energy_pj(0, 0);
/// assert_eq!(quiet, 0.0);
/// assert!(bus.energy_pj(100, 50) > bus.energy_pj(100, 0));
/// # Ok::<(), wiremodel::WireError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusEnergyModel {
    wire: Wire,
    per_event: TransitionEnergy,
}

impl BusEnergyModel {
    /// Creates the model for a bus made of the given wire.
    pub fn new(wire: Wire) -> Self {
        BusEnergyModel {
            per_event: wire.transition_energy(),
            wire,
        }
    }

    /// The underlying wire.
    pub fn wire(&self) -> &Wire {
        &self.wire
    }

    /// Energy in picojoules for a bus activity profile: `tau` total
    /// self-transitions and `kappa` total coupling events summed across
    /// all wires of the bus.
    pub fn energy_pj(&self, tau: u64, kappa: u64) -> f64 {
        self.per_event.total_pj(tau, kappa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Technology, WireStyle};

    #[test]
    fn total_is_linear_in_events() {
        let e = TransitionEnergy {
            tau_pj: 2.0,
            kappa_pj: 1.0,
        };
        assert_eq!(e.total_pj(0, 0), 0.0);
        assert_eq!(e.total_pj(3, 4), 10.0);
        assert_eq!(e.lambda(), 0.5);
    }

    #[test]
    fn bus_model_matches_wire() {
        let wire = Wire::new(Technology::tech_007(), WireStyle::Repeated, 8.0).unwrap();
        let bus = BusEnergyModel::new(wire);
        assert_eq!(bus.energy_pj(1, 0), wire.tau_energy_pj());
        assert_eq!(bus.energy_pj(0, 1), wire.kappa_energy_pj());
        assert_eq!(bus.wire().length_mm(), 8.0);
    }
}
