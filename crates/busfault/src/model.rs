//! Fault models: deterministic corruptions of the absolute bus state.

use bustrace::rng::SmallRng;
use wiremodel::Wire;

/// A deterministic corruption applied to the absolute bus state each
/// cycle, between the encoder's output and the decoder's input.
///
/// Implementations must be pure functions of `(construction parameters,
/// reset-to-date call sequence)` — no wall clock, no global entropy —
/// so a fixed seed reproduces a fault pattern bit-for-bit. `corrupt` is
/// called exactly once per trace step, in step order.
pub trait FaultModel: std::fmt::Debug {
    /// Returns the bus state the decoder observes at `step` given the
    /// state the encoder drove. `lines` is the bus width; implementations
    /// must not set bits at or above it.
    fn corrupt(&mut self, step: u64, state: u64, lines: u32) -> u64;

    /// Restores the model to its post-construction state so the same
    /// fault pattern replays on a fresh trace.
    fn reset(&mut self);
}

/// The error-free channel (the paper's implicit assumption).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFault;

impl FaultModel for NoFault {
    fn corrupt(&mut self, _step: u64, state: u64, _lines: u32) -> u64 {
        state
    }

    fn reset(&mut self) {}
}

/// A single-event upset: one bit flip on one line at one step.
#[derive(Debug, Clone, Copy)]
pub struct SingleFlip {
    step: u64,
    line: u32,
}

impl SingleFlip {
    /// Flips `line` (0 = LSB) of the state observed at `step`. Lines at
    /// or beyond the bus width are reduced modulo the width at apply
    /// time, so injection points can be drawn without knowing the
    /// scheme's line count.
    pub fn new(step: u64, line: u32) -> Self {
        SingleFlip { step, line }
    }
}

impl FaultModel for SingleFlip {
    fn corrupt(&mut self, step: u64, state: u64, lines: u32) -> u64 {
        if step == self.step {
            state ^ (1u64 << (self.line % lines))
        } else {
            state
        }
    }

    fn reset(&mut self) {}
}

/// Independent random upsets: every line of every cycle flips with the
/// same probability, from a seeded xoshiro stream. The workhorse of the
/// `fault-sweep` experiment's rate axis.
#[derive(Debug, Clone)]
pub struct RandomUpsets {
    rate: f64,
    seed: u64,
    rng: SmallRng,
}

impl RandomUpsets {
    /// Creates a model flipping each line each cycle with probability
    /// `rate`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "upset rate must be in [0, 1], got {rate}"
        );
        RandomUpsets {
            rate,
            seed,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl FaultModel for RandomUpsets {
    fn corrupt(&mut self, _step: u64, state: u64, lines: u32) -> u64 {
        let mut flips = 0u64;
        for line in 0..lines {
            if self.rng.gen_bool(self.rate) {
                flips |= 1u64 << line;
            }
        }
        state ^ flips
    }

    fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
    }
}

/// Timing-error upsets derived from the wire model: the per-line flip
/// probability is the probability that a transition fails to settle
/// within the cycle budget ([`Wire::timing_upset_probability`]), so it
/// grows with wire length and repeater-segment length. Interior lines
/// see two coupling aggressors where edge lines see one, which widens
/// their delay distribution — modeled as a Miller-effect skew on the
/// per-line probability.
///
/// Only lines that actually *transition* this cycle can mistime, so the
/// model tracks the previous observed state and applies the flip
/// probability to changing lines alone — faulty behaviour scales with
/// bus activity exactly as a DVS-overclocked bus would.
#[derive(Debug, Clone)]
pub struct TimingFaults {
    base: f64,
    skew: f64,
    seed: u64,
    rng: SmallRng,
    prev: u64,
}

impl TimingFaults {
    /// Per-line Miller-effect probability multiplier for interior lines.
    const INTERIOR_SKEW: f64 = 0.3;

    /// Builds the model from a wire and a cycle budget: the base
    /// per-transition flip probability is
    /// `wire.timing_upset_probability(cycle_ps, sigma_ps)`.
    pub fn from_wire(wire: &Wire, cycle_ps: f64, sigma_ps: f64, seed: u64) -> Self {
        Self::new(wire.timing_upset_probability(cycle_ps, sigma_ps), seed)
    }

    /// Builds the model from an explicit base per-transition flip
    /// probability.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not in `[0, 1]`.
    pub fn new(base: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&base),
            "base probability must be in [0, 1], got {base}"
        );
        TimingFaults {
            base,
            skew: Self::INTERIOR_SKEW,
            seed,
            rng: SmallRng::seed_from_u64(seed),
            prev: 0,
        }
    }

    /// The base per-transition flip probability.
    pub fn base_probability(&self) -> f64 {
        self.base
    }

    /// Flip probability of `line` on a bus of `lines` wires: interior
    /// lines (two neighbors) run `1 + skew` hotter than edge lines.
    fn line_probability(&self, line: u32, lines: u32) -> f64 {
        let interior = line > 0 && line + 1 < lines;
        let p = if interior {
            self.base * (1.0 + self.skew)
        } else {
            self.base
        };
        p.min(1.0)
    }
}

impl FaultModel for TimingFaults {
    fn corrupt(&mut self, _step: u64, state: u64, lines: u32) -> u64 {
        let transitions = state ^ self.prev;
        let mut flips = 0u64;
        for line in 0..lines {
            if transitions >> line & 1 == 1 && self.rng.gen_bool(self.line_probability(line, lines))
            {
                flips |= 1u64 << line;
            }
        }
        // The decoder observes the mistimed state; the *wire* settles to
        // the driven state by the next cycle, so transitions are tracked
        // against the encoder's sequence.
        self.prev = state;
        state ^ flips
    }

    fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
        self.prev = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiremodel::{Technology, WireStyle};

    #[test]
    fn no_fault_is_identity() {
        let mut f = NoFault;
        assert_eq!(f.corrupt(0, 0xDEAD, 32), 0xDEAD);
    }

    #[test]
    fn single_flip_hits_exactly_one_step() {
        let mut f = SingleFlip::new(3, 5);
        for step in 0..10 {
            let out = f.corrupt(step, 0, 32);
            if step == 3 {
                assert_eq!(out, 1 << 5);
            } else {
                assert_eq!(out, 0);
            }
        }
    }

    #[test]
    fn single_flip_wraps_line_into_width() {
        let mut f = SingleFlip::new(0, 37);
        assert_eq!(f.corrupt(0, 0, 34), 1 << (37 % 34));
    }

    #[test]
    fn random_upsets_replay_after_reset() {
        let mut f = RandomUpsets::new(0.05, 42);
        let a: Vec<u64> = (0..200).map(|s| f.corrupt(s, 0, 34)).collect();
        f.reset();
        let b: Vec<u64> = (0..200).map(|s| f.corrupt(s, 0, 34)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0), "5% over 6800 line-cycles");
    }

    #[test]
    fn random_upsets_rate_zero_is_clean() {
        let mut f = RandomUpsets::new(0.0, 1);
        assert!((0..100).all(|s| f.corrupt(s, 0xABCD, 34) == 0xABCD));
    }

    #[test]
    #[should_panic(expected = "upset rate")]
    fn random_upsets_rejects_bad_rate() {
        let _ = RandomUpsets::new(1.5, 0);
    }

    #[test]
    fn timing_faults_only_hit_transitioning_lines() {
        let mut f = TimingFaults::new(1.0, 7); // every transition mistimes
        let out = f.corrupt(0, 0b0110, 8);
        // All transitioning lines flip back: observed state equals prev.
        assert_eq!(out, 0);
        // A quiet cycle is untouched even at p = 1: the wire settled to
        // the driven state, so no line transitions.
        let out2 = f.corrupt(1, 0b0110, 8);
        assert_eq!(out2, 0b0110);
    }

    #[test]
    fn timing_faults_grow_with_wire_length() {
        let tech = Technology::tech_013();
        let short = Wire::new(tech, WireStyle::Repeated, 5.0).unwrap();
        let long = Wire::new(tech, WireStyle::Repeated, 40.0).unwrap();
        let f_short = TimingFaults::from_wire(&short, 1000.0, 100.0, 1);
        let f_long = TimingFaults::from_wire(&long, 1000.0, 100.0, 1);
        assert!(f_long.base_probability() > f_short.base_probability());
    }

    #[test]
    fn timing_faults_interior_lines_run_hotter() {
        let f = TimingFaults::new(0.1, 0);
        assert!(f.line_probability(1, 34) > f.line_probability(0, 34));
        assert_eq!(f.line_probability(0, 34), f.line_probability(33, 34));
    }

    #[test]
    fn timing_faults_replay_after_reset() {
        let mut f = TimingFaults::new(0.3, 11);
        let states = [0u64, 0xFF, 0xF0, 0x0F, 0xAA, 0x55];
        let a: Vec<u64> = states
            .iter()
            .enumerate()
            .map(|(i, &s)| f.corrupt(i as u64, s, 8))
            .collect();
        f.reset();
        let b: Vec<u64> = states
            .iter()
            .enumerate()
            .map(|(i, &s)| f.corrupt(i as u64, s, 8))
            .collect();
        assert_eq!(a, b);
    }
}
