//! Transition and coupling activity accounting (Equations 1–3).
//!
//! Energy on a bus is proportional to `L · (τ + λ·κ)` (Equation 1):
//!
//! * τ — the number of *self transitions*: cycles in which a wire
//!   changes state (Equation 2);
//! * κ — the number of *coupling events*: cycles in which the XOR of two
//!   adjacent wires changes, charging the inter-wire capacitance
//!   (Equation 3);
//! * λ — the technology- and wire-style-dependent ratio of coupling to
//!   substrate capacitance (Table 1).
//!
//! Both counts reduce to cheap bit tricks on the per-cycle transition
//! vector `x = stateₜ ⊕ stateₜ₊₁`: τ gains `popcount(x)` and κ gains
//! `popcount((x ⊕ (x >> 1)) & pair_mask)`, because the adjacent-XOR
//! vector of the bus changes exactly where `x` differs from its shifted
//! self.

use std::fmt;

/// Accumulated switching activity of a bus state sequence.
///
/// # Example
///
/// ```
/// use buscoding::Activity;
///
/// let mut a = Activity::new(4);
/// a.step(0b0000);          // establish initial state
/// a.step(0b0011);          // two wires rise
/// assert_eq!(a.tau(), 2);
/// // Wire pair (1,2) changes XOR, and pair (0,1) does not; the rising
/// // edge pair (2,3) changes XOR too.
/// assert_eq!(a.kappa(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Activity {
    lines: u32,
    pair_mask: u64,
    tau: u64,
    kappa: u64,
    steps: u64,
    state: u64,
    started: bool,
}

impl Activity {
    /// Creates an activity counter for a bus of `lines` wires.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or greater than 64.
    pub fn new(lines: u32) -> Self {
        assert!(
            (1..=64).contains(&lines),
            "line count must be in 1..=64, got {lines}"
        );
        Activity {
            lines,
            pair_mask: Self::pair_mask_for(lines),
            tau: 0,
            kappa: 0,
            steps: 0,
            state: 0,
            started: false,
        }
    }

    /// Mask covering the `lines-1` adjacent wire pairs.
    #[inline]
    fn pair_mask_for(lines: u32) -> u64 {
        if lines <= 1 {
            0
        } else if lines >= 65 {
            unreachable!()
        } else {
            (1u64 << (lines - 1)) - 1
        }
    }

    /// Feeds the next absolute bus state. The first call establishes the
    /// initial state without counting a transition.
    #[inline]
    pub fn step(&mut self, state: u64) {
        debug_assert!(
            self.lines == 64 || state >> self.lines == 0,
            "state has bits above the declared line count"
        );
        if self.started {
            let x = self.state ^ state;
            self.tau += u64::from(x.count_ones());
            self.kappa += u64::from(((x ^ (x >> 1)) & self.pair_mask).count_ones());
            self.steps += 1;
        } else {
            self.started = true;
        }
        self.state = state;
    }

    /// Feeds a slice of consecutive absolute bus states — the bulk
    /// equivalent of calling [`step`](Self::step) once per element, with
    /// the started/state bookkeeping hoisted out of the inner loop. The
    /// τ/κ accumulation is a pure fold over `prev ^ next`, so feeding
    /// one slice or many sub-slices yields identical counts.
    pub fn step_slice(&mut self, states: &[u64]) {
        let mut iter = states.iter().copied();
        if !self.started {
            match iter.next() {
                Some(first) => {
                    debug_assert!(
                        self.lines == 64 || first >> self.lines == 0,
                        "state has bits above the declared line count"
                    );
                    self.started = true;
                    self.state = first;
                }
                None => return,
            }
        }
        let mask = self.pair_mask;
        let mut prev = self.state;
        let mut tau = 0u64;
        let mut kappa = 0u64;
        let mut counted = 0u64;
        for state in iter {
            debug_assert!(
                self.lines == 64 || state >> self.lines == 0,
                "state has bits above the declared line count"
            );
            let x = prev ^ state;
            tau += u64::from(x.count_ones());
            kappa += u64::from(((x ^ (x >> 1)) & mask).count_ones());
            counted += 1;
            prev = state;
        }
        self.tau += tau;
        self.kappa += kappa;
        self.steps += counted;
        self.state = prev;
    }

    /// The number of wires being tracked.
    pub fn lines(&self) -> u32 {
        self.lines
    }

    /// Total self-transitions so far (Equation 2, summed over wires).
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// Total coupling events so far (Equation 3, summed over wire pairs).
    pub fn kappa(&self) -> u64 {
        self.kappa
    }

    /// Number of state-to-state steps counted (one less than the states
    /// fed, once started).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The weighted activity `τ + λ·κ` of Equation 1; multiply by wire
    /// length and per-length energy to get joules.
    pub fn weighted(&self, lambda: f64) -> f64 {
        self.tau as f64 + lambda * self.kappa as f64
    }
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lines, {} steps: tau={} kappa={}",
            self.lines, self.steps, self.tau, self.kappa
        )
    }
}

/// Per-wire switching activity: τ per wire, for analyses that need to
/// know *which* wires do the switching (e.g. exponent vs mantissa bits
/// of floating-point traffic).
///
/// # Example
///
/// ```
/// use buscoding::energy::WireActivity;
///
/// let mut w = WireActivity::new(8);
/// w.step(0b0000_0000);
/// w.step(0b0000_0011);
/// assert_eq!(w.tau_per_wire()[0], 1);
/// assert_eq!(w.tau_per_wire()[1], 1);
/// assert_eq!(w.tau_per_wire()[2], 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireActivity {
    lines: u32,
    tau: Vec<u64>,
    state: u64,
    started: bool,
    steps: u64,
}

impl WireActivity {
    /// Creates a per-wire counter for `lines` wires.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or greater than 64.
    pub fn new(lines: u32) -> Self {
        assert!(
            (1..=64).contains(&lines),
            "line count must be in 1..=64, got {lines}"
        );
        WireActivity {
            lines,
            tau: vec![0; lines as usize],
            state: 0,
            started: false,
            steps: 0,
        }
    }

    /// Feeds the next absolute bus state (first call establishes state).
    pub fn step(&mut self, state: u64) {
        if self.started {
            let x = self.state ^ state;
            for n in 0..self.lines {
                if x >> n & 1 == 1 {
                    self.tau[n as usize] += 1;
                }
            }
            self.steps += 1;
        } else {
            self.started = true;
        }
        self.state = state;
    }

    /// Self transitions per wire (index 0 = LSB).
    pub fn tau_per_wire(&self) -> &[u64] {
        &self.tau
    }

    /// Steps counted.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

/// The λ-weighted cost function used by coders to choose among candidate
/// bus states (the λ0/λ1/λN minimization functions of Figure 15).
///
/// # Example
///
/// ```
/// use buscoding::CostModel;
///
/// let cost = CostModel::new(1.0);
/// // Toggling one interior wire: 1 self-transition + 2 coupling events.
/// assert_eq!(cost.transition_cost(0b0000, 0b0100, 8), 3.0);
/// // Toggling the edge wire couples to only one neighbor.
/// assert_eq!(cost.transition_cost(0b0000, 0b0001, 8), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    lambda: f64,
}

impl CostModel {
    /// Creates a cost model with coupling ratio `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or not finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda must be finite and >= 0"
        );
        CostModel { lambda }
    }

    /// The coupling ratio.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Cost of moving a bus of `lines` wires from `from` to `to`:
    /// `τ + λ·κ` for that single step.
    #[inline]
    pub fn transition_cost(&self, from: u64, to: u64, lines: u32) -> f64 {
        let x = from ^ to;
        let tau = x.count_ones();
        let kappa = ((x ^ (x >> 1)) & Activity::pair_mask_for(lines)).count_ones();
        f64::from(tau) + self.lambda * f64::from(kappa)
    }

    /// Cost of a transition *vector* on a transition-coded bus: since the
    /// vector directly marks toggling wires, the cost is independent of
    /// the current bus state. This is what makes codebook enumeration a
    /// static problem (Section 1.1).
    #[inline]
    pub fn vector_cost(&self, vector: u64, lines: u32) -> f64 {
        self.transition_cost(0, vector, lines)
    }
}

impl Default for CostModel {
    /// λ = 1, the paper's default for the coding-effectiveness study
    /// (Section 4.4).
    fn default() -> Self {
        CostModel::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "line count")]
    fn rejects_zero_lines() {
        let _ = Activity::new(0);
    }

    #[test]
    #[should_panic(expected = "line count")]
    fn rejects_oversize_lines() {
        let _ = Activity::new(65);
    }

    #[test]
    fn first_step_establishes_state() {
        let mut a = Activity::new(8);
        a.step(0xFF);
        assert_eq!(a.tau(), 0);
        assert_eq!(a.kappa(), 0);
        assert_eq!(a.steps(), 0);
    }

    #[test]
    fn tau_counts_bit_flips() {
        let mut a = Activity::new(8);
        a.step(0b0000_0000);
        a.step(0b1010_0001);
        assert_eq!(a.tau(), 3);
        a.step(0b1010_0001);
        assert_eq!(a.tau(), 3); // repeat costs nothing
        a.step(0b0101_1110);
        assert_eq!(a.tau(), 11);
        assert_eq!(a.steps(), 3);
    }

    #[test]
    fn kappa_matches_naive_adjacent_xor() {
        // Cross-check the bit trick against a direct implementation of
        // Equation 3 on a pseudo-random walk.
        let lines = 11u32;
        let mut a = Activity::new(lines);
        let mut naive_kappa = 0u64;
        let mut prev: Option<u64> = None;
        let mut v = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..500 {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let state = v & ((1 << lines) - 1);
            if let Some(p) = prev {
                for n in 0..lines - 1 {
                    let before = ((p >> n) ^ (p >> (n + 1))) & 1;
                    let after = ((state >> n) ^ (state >> (n + 1))) & 1;
                    naive_kappa += u64::from(before != after);
                }
            }
            a.step(state);
            prev = Some(state);
        }
        assert_eq!(a.kappa(), naive_kappa);
        assert!(a.kappa() > 0);
    }

    #[test]
    fn kappa_single_line_bus_is_zero() {
        let mut a = Activity::new(1);
        a.step(0);
        a.step(1);
        a.step(0);
        assert_eq!(a.tau(), 2);
        assert_eq!(a.kappa(), 0);
    }

    #[test]
    fn full_width_bus_works() {
        let mut a = Activity::new(64);
        a.step(0);
        a.step(u64::MAX);
        assert_eq!(a.tau(), 64);
        // All wires toggle together: no adjacent XOR changes.
        assert_eq!(a.kappa(), 0);
    }

    #[test]
    fn opposite_phase_neighbors_couple() {
        let mut a = Activity::new(2);
        a.step(0b01);
        a.step(0b10); // both toggle, in opposite directions
        assert_eq!(a.tau(), 2);
        assert_eq!(a.kappa(), 0); // XOR of the pair stays 1
        a.step(0b11);
        assert_eq!(a.kappa(), 1);
    }

    #[test]
    fn weighted_combines_tau_and_kappa() {
        let mut a = Activity::new(4);
        a.step(0b0000);
        a.step(0b0010);
        assert_eq!(a.weighted(0.0), 1.0);
        assert_eq!(a.weighted(1.0), 3.0);
        assert_eq!(a.weighted(14.0), 29.0);
    }

    fn lcg_states(lines: u32, n: usize, seed: u64) -> Vec<u64> {
        let mask = if lines == 64 {
            u64::MAX
        } else {
            (1u64 << lines) - 1
        };
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x & mask
            })
            .collect()
    }

    #[test]
    fn pair_mask_is_precomputed_per_width() {
        assert_eq!(Activity::new(1).pair_mask, 0);
        assert_eq!(Activity::new(2).pair_mask, 0b1);
        assert_eq!(Activity::new(8).pair_mask, 0x7F);
        assert_eq!(Activity::new(64).pair_mask, u64::MAX >> 1);
    }

    #[test]
    fn step_slice_matches_per_step_path() {
        for lines in [1u32, 2, 13, 34, 64] {
            let states = lcg_states(lines, 700, 0x1234_5678 + u64::from(lines));
            let mut per_step = Activity::new(lines);
            for &s in &states {
                per_step.step(s);
            }
            // One big slice.
            let mut bulk = Activity::new(lines);
            bulk.step_slice(&states);
            assert_eq!(bulk, per_step, "{lines} lines, single slice");
            // Arbitrary sub-slices, including empty ones.
            let mut chunked = Activity::new(lines);
            chunked.step_slice(&[]);
            for chunk in states.chunks(97) {
                chunked.step_slice(chunk);
            }
            chunked.step_slice(&[]);
            assert_eq!(chunked, per_step, "{lines} lines, chunked");
        }
    }

    #[test]
    fn wire_activity_agrees_with_aggregate() {
        let mut agg = Activity::new(13);
        let mut per = WireActivity::new(13);
        let mut x = 0x1234_5678_9ABCu64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            let s = x & ((1 << 13) - 1);
            agg.step(s);
            per.step(s);
        }
        assert_eq!(per.tau_per_wire().iter().sum::<u64>(), agg.tau());
        assert_eq!(per.steps(), agg.steps());
    }

    #[test]
    fn wire_activity_localizes_toggles() {
        let mut per = WireActivity::new(8);
        per.step(0);
        for i in 0..10 {
            per.step(if i % 2 == 0 { 0b1000_0000 } else { 0 });
        }
        assert_eq!(per.tau_per_wire()[7], 10);
        assert!(per.tau_per_wire()[..7].iter().all(|&t| t == 0));
        assert_eq!(per.steps(), 10);
    }

    #[test]
    #[should_panic(expected = "line count")]
    fn wire_activity_rejects_zero_lines() {
        let _ = WireActivity::new(0);
    }

    #[test]
    fn cost_model_edge_vs_interior() {
        let c = CostModel::new(2.0);
        // Interior wire: tau 1, kappa 2.
        assert_eq!(c.transition_cost(0, 0b0010_0000, 32), 5.0);
        // Edge wires: tau 1, kappa 1.
        assert_eq!(c.transition_cost(0, 1, 32), 3.0);
        assert_eq!(c.transition_cost(0, 1 << 31, 32), 3.0);
    }

    #[test]
    fn coupling_blind_ignores_kappa() {
        // λ = 0 (the λ0 minimizer, classic bus-invert) ignores coupling.
        let c = CostModel::new(0.0);
        assert_eq!(c.transition_cost(0, 0b0110, 8), 2.0);
        assert_eq!(c.lambda(), 0.0);
    }

    #[test]
    fn vector_cost_equals_transition_from_any_state() {
        let c = CostModel::new(0.7);
        for state in [0u64, 0xDEAD_BEEF, u64::MAX >> 32] {
            for vec in [0u64, 0b1, 0b11, 0x8000_0001] {
                assert_eq!(
                    c.vector_cost(vec, 32),
                    c.transition_cost(state, state ^ vec, 32),
                    "vector cost must be state-independent on a transition-coded bus"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn cost_model_rejects_negative_lambda() {
        let _ = CostModel::new(-1.0);
    }

    #[test]
    fn display_summarizes() {
        let mut a = Activity::new(4);
        a.step(0);
        a.step(1);
        assert_eq!(a.to_string(), "4 lines, 1 steps: tau=1 kappa=1");
    }
}
