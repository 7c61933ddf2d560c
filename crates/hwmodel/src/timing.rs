//! Timing feasibility of a transcoded bus (paper Table 2 + Figure 6).
//!
//! The transcoder sits *in series* with the wire: data must traverse the
//! encoder (data-ready-to-bus-out delay), the repeated wire, and the
//! decoder before the receiving latch closes. Table 2 gives the encoder
//! delays and cycle times; the wire model gives propagation delay as a
//! function of length. This module answers the designer's question the
//! paper raises when noting the "serial NAND match design" is slow:
//! *at a given bus clock, how long may the wire be — with and without
//! the transcoder in the path?*

use wiremodel::{Wire, WireError, WireStyle};

use crate::circuit::CircuitModel;

/// Timing breakdown of one bus traversal through a transcoder pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathTiming {
    /// Encoder data-ready-to-bus-out delay, ns.
    pub encode_ns: f64,
    /// Wire propagation delay, ns.
    pub wire_ns: f64,
    /// Decoder delay (same circuit class as the encoder), ns.
    pub decode_ns: f64,
}

impl PathTiming {
    /// Total traversal latency in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.encode_ns + self.wire_ns + self.decode_ns
    }

    /// Bus cycles consumed at the given clock period (always ≥ 1).
    pub fn cycles_at(&self, period_ns: f64) -> u32 {
        assert!(period_ns > 0.0, "clock period must be positive");
        (self.total_ns() / period_ns).ceil().max(1.0) as u32
    }
}

/// Computes the traversal timing for a transcoder pair around a
/// repeated wire of the given length.
///
/// # Errors
///
/// Returns [`WireError`] for invalid lengths.
pub fn path_timing(circuit: &CircuitModel, length_mm: f64) -> Result<PathTiming, WireError> {
    let tech = *circuit.technology();
    let wire = Wire::new(tech, WireStyle::Repeated, length_mm)?;
    Ok(PathTiming {
        encode_ns: circuit.delay_ns(),
        wire_ns: wire.delay_ps() / 1000.0,
        decode_ns: circuit.delay_ns(),
    })
}

/// The longest repeated wire whose traversal fits in `budget_ns`,
/// searched to 0.1 mm, with (`with_transcoder = true`) or without the
/// encoder/decoder delays in the path. `None` if even 0.1 mm does not
/// fit.
pub fn max_length_within(
    circuit: &CircuitModel,
    budget_ns: f64,
    with_transcoder: bool,
) -> Option<f64> {
    assert!(
        budget_ns.is_finite() && budget_ns > 0.0,
        "budget must be positive"
    );
    let tech = *circuit.technology();
    let fits = |len: f64| -> bool {
        let wire_ns = Wire::new(tech, WireStyle::Repeated, len)
            .map(|w| w.delay_ps() / 1000.0)
            .unwrap_or(f64::INFINITY);
        let overhead = if with_transcoder {
            2.0 * circuit.delay_ns()
        } else {
            0.0
        };
        wire_ns + overhead <= budget_ns
    };
    if !fits(0.1) {
        return None;
    }
    let (mut lo, mut hi) = (0.1f64, 1000.0f64);
    if fits(hi) {
        return Some(hi);
    }
    while hi - lo > 0.1 {
        let mid = (lo + hi) / 2.0;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiremodel::Technology;

    fn circuit() -> CircuitModel {
        CircuitModel::window(Technology::tech_013(), 8)
    }

    #[test]
    fn path_total_sums_components() {
        let t = path_timing(&circuit(), 10.0).unwrap();
        assert!((t.total_ns() - (t.encode_ns + t.wire_ns + t.decode_ns)).abs() < 1e-12);
        // Table 2: encoder delay 3.1 ns at 0.13 µm.
        assert_eq!(t.encode_ns, 3.1);
        assert_eq!(t.decode_ns, 3.1);
        assert!(
            t.wire_ns > 0.0 && t.wire_ns < 1.0,
            "10mm repeated wire is sub-ns"
        );
    }

    #[test]
    fn cycles_round_up() {
        let t = PathTiming {
            encode_ns: 3.1,
            wire_ns: 0.5,
            decode_ns: 3.1,
        };
        assert_eq!(t.cycles_at(4.0), 2);
        assert_eq!(t.cycles_at(10.0), 1);
        assert_eq!(t.cycles_at(6.7), 1);
    }

    #[test]
    fn transcoder_shortens_the_reachable_wire() {
        let c = circuit();
        // At a relaxed clock both fit somewhere; the transcoded path
        // always reaches less far.
        let budget = 10.0;
        let bare = max_length_within(&c, budget, false).unwrap();
        let coded = max_length_within(&c, budget, true).unwrap();
        assert!(coded < bare, "coded {coded} vs bare {bare}");
    }

    #[test]
    fn too_tight_budget_fits_nothing() {
        // The pair alone costs 6.2 ns at 0.13 µm.
        assert_eq!(max_length_within(&circuit(), 6.0, true), None);
        assert!(max_length_within(&circuit(), 6.0, false).is_some());
    }

    #[test]
    fn faster_technologies_reach_further_with_the_transcoder() {
        let budget = 8.0;
        let l13 = max_length_within(
            &CircuitModel::window(Technology::tech_013(), 8),
            budget,
            true,
        );
        let l07 = max_length_within(
            &CircuitModel::window(Technology::tech_007(), 8),
            budget,
            true,
        );
        match (l13, l07) {
            (Some(a), Some(b)) => assert!(b > a, "0.07um should reach further: {a} vs {b}"),
            (None, Some(_)) => {} // 0.13 µm pair alone blows an 8 ns budget
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn crossover_lengths_fit_the_paper_cycle_time() {
        // Sanity tying Table 2 to Table 3: at the paper's 4 ns cycle,
        // pipelined one-cycle-per-stage operation covers the crossover
        // lengths (wire delay at 11.5 mm ≪ 4 ns).
        let t = path_timing(&circuit(), 11.5).unwrap();
        assert!(t.wire_ns < 4.0);
        // Unpipelined, the full path needs two 4 ns cycles.
        assert_eq!(t.cycles_at(4.0), 2);
    }
}
