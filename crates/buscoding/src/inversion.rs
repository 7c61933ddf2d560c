//! The generalized inversion coder of Figure 10 (and the simple
//! bus-invert base case of Section 5.2).
//!
//! A stateless-per-word coder: for each input it considers XOR-ing the
//! word with each pattern in a fixed [`PatternSet`] and drives the data
//! lines with the variant whose transition from the *current bus state*
//! is cheapest under the coder's design-time cost function; the pattern
//! index rides on `log2(|patterns|)` control lines. With the two-pattern
//! set `{0, ~0}` and a coupling-blind cost function this is exactly
//! classic bus-invert coding; richer pattern sets and λ-aware costs give
//! the generalized coder whose sensitivity to the *actual* wire λ is
//! Figure 15's subject.

use std::fmt;

use bustrace::{Width, Word};

use crate::codec::{Decoder, Encoder, RoundTripError};
use crate::energy::CostModel;

/// The set of constant XOR patterns available to an inversion coder:
/// every combination of inverting contiguous chunks of the word
/// (bus-invert is one chunk).
///
/// The identity pattern (all-zero) is always present at index 0, so the
/// coder can fall back to sending data unmodified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSet {
    width: Width,
    patterns: Vec<u64>,
}

impl PatternSet {
    /// Classic bus-invert: send the word or its complement.
    pub fn bus_invert(width: Width) -> Self {
        PatternSet {
            width,
            patterns: vec![0, width.mask()],
        }
    }

    /// Partial bus-invert over `chunks` contiguous fields: all
    /// `2^chunks` combinations of inverting each field independently
    /// (Figure 10's generalized coder; `chunks = 6` on a 32-bit bus gives
    /// the paper's "up to 64 transition vectors").
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is 0, exceeds the bus width, or exceeds 6
    /// (more than 64 patterns would need more than 6 control lines and
    /// overflow the 64-line bus-state word for wide buses).
    pub fn chunked(width: Width, chunks: u32) -> Self {
        assert!(chunks >= 1, "at least one chunk required");
        assert!(chunks <= 6, "more than 64 patterns is not supported");
        assert!(
            chunks <= width.bits(),
            "cannot split {width} into {chunks} chunks"
        );
        let w = width.bits();
        let masks: Vec<u64> = (0..chunks)
            .map(|i| {
                let lo = w * i / chunks;
                let hi = w * (i + 1) / chunks;
                let bits = hi - lo;

                if bits == 64 {
                    u64::MAX
                } else {
                    ((1u64 << bits) - 1) << lo
                }
            })
            .collect();
        let patterns = (0u64..(1 << chunks))
            .map(|combo| {
                masks
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| combo >> i & 1 == 1)
                    .fold(0u64, |acc, (_, m)| acc ^ m)
            })
            .collect();
        PatternSet { width, patterns }
    }

    /// The bus width patterns apply to.
    pub fn width(&self) -> Width {
        self.width
    }

    /// The patterns, identity first.
    pub fn patterns(&self) -> &[u64] {
        &self.patterns
    }

    /// Control lines needed to name a pattern.
    pub fn control_lines(&self) -> u32 {
        usize::BITS - (self.patterns.len() - 1).leading_zeros()
    }
}

/// Shared state of the inversion encoder/decoder pair.
#[derive(Debug, Clone, PartialEq)]
struct InversionState {
    patterns: PatternSet,
    data: u64,
    control: u64,
}

/// The inversion encoder: chooses the cheapest pattern per word under a
/// design-time cost model.
///
/// # Example
///
/// ```
/// use bustrace::Width;
/// use buscoding::inversion::{InversionDecoder, InversionEncoder, PatternSet};
/// use buscoding::{CostModel, Decoder, Encoder};
///
/// let patterns = PatternSet::bus_invert(Width::new(8)?);
/// let mut enc = InversionEncoder::new(patterns.clone(), CostModel::coupling_blind());
/// let mut dec = InversionDecoder::new(patterns);
/// // 0xFE differs from the all-low bus in 7 of 8 bits: invert instead.
/// let bus = enc.encode(0xFE);
/// assert_eq!(dec.decode(bus)?, 0xFE);
/// assert_eq!(bus & 0xFF, 0x01); // complement went onto the wires
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InversionEncoder {
    state: InversionState,
    cost: CostModel,
}

impl InversionEncoder {
    /// Creates an encoder with the given pattern set and design-time
    /// cost model (λ0 / λ1 / λN of Figure 15 are `CostModel::new(0.0)`,
    /// `CostModel::new(1.0)`, and the true wire λ respectively).
    ///
    /// # Panics
    ///
    /// Panics if data plus control lines exceed 64.
    pub fn new(patterns: PatternSet, cost: CostModel) -> Self {
        let lines = patterns.width().bits() + patterns.control_lines();
        assert!(
            lines <= 64,
            "{lines} bus lines exceed the 64-line state word"
        );
        InversionEncoder {
            state: InversionState {
                patterns,
                data: 0,
                control: 0,
            },
            cost,
        }
    }
}

impl Encoder for InversionEncoder {
    fn lines(&self) -> u32 {
        self.state.patterns.width().bits() + self.state.patterns.control_lines()
    }

    fn encode(&mut self, value: Word) -> u64 {
        let s = &mut self.state;
        let width = s.patterns.width();
        let value = width.truncate(value);
        let lines = width.bits() + s.patterns.control_lines();
        let current = s.data | (s.control << width.bits());
        let mut best = (f64::INFINITY, 0u64, 0usize);
        for (i, &p) in s.patterns.patterns().iter().enumerate() {
            let data = value ^ p;
            let full = data | ((i as u64) << width.bits());
            let cost = self.cost.transition_cost(current, full, lines);
            if cost < best.0 {
                best = (cost, full, i);
            }
        }
        s.data = best.1 & width.mask();
        s.control = best.2 as u64;
        best.1
    }

    fn reset(&mut self) {
        self.state.data = 0;
        self.state.control = 0;
    }
}

/// The inversion decoder: reads the pattern index off the control lines
/// and undoes the XOR.
#[derive(Debug, Clone, PartialEq)]
pub struct InversionDecoder {
    patterns: PatternSet,
}

impl InversionDecoder {
    /// Creates a decoder for the given pattern set.
    pub fn new(patterns: PatternSet) -> Self {
        InversionDecoder { patterns }
    }
}

impl Decoder for InversionDecoder {
    fn lines(&self) -> u32 {
        self.patterns.width().bits() + self.patterns.control_lines()
    }

    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        let width = self.patterns.width();
        let data = bus_state & width.mask();
        let index = (bus_state >> width.bits()) as usize;
        let pattern = self.patterns.patterns().get(index).ok_or_else(|| {
            RoundTripError::new(format!(
                "control lines name pattern {index}, but only {} exist",
                self.patterns.patterns().len()
            ))
        })?;
        Ok(data ^ pattern)
    }

    fn reset(&mut self) {}
}

impl fmt::Display for PatternSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} patterns on a {} bus",
            self.patterns.len(),
            self.width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{evaluate, verify_roundtrip};
    use crate::identity::IdentityCodec;
    use bustrace::Trace;

    #[allow(non_snake_case)]
    fn W8() -> Width {
        Width::new(8).unwrap()
    }

    #[test]
    fn bus_invert_has_two_patterns_one_control_line() {
        let p = PatternSet::bus_invert(Width::W32);
        assert_eq!(p.patterns(), &[0, 0xFFFF_FFFF]);
        assert_eq!(p.control_lines(), 1);
        assert_eq!(p.to_string(), "2 patterns on a 32-bit bus");
    }

    #[test]
    fn chunked_generates_all_combinations() {
        let p = PatternSet::chunked(Width::W32, 4);
        assert_eq!(p.patterns().len(), 16);
        assert_eq!(p.control_lines(), 4);
        assert_eq!(p.patterns()[0], 0);
        // The all-chunks pattern is full inversion.
        assert!(p.patterns().contains(&0xFFFF_FFFFu64));
        // Patterns are distinct.
        let mut sorted = p.patterns().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
    }

    #[test]
    fn chunked_uneven_widths_cover_all_bits() {
        let w = Width::new(10).unwrap();
        let p = PatternSet::chunked(w, 3);
        assert_eq!(*p.patterns().last().unwrap(), 0x3FF);
    }

    #[test]
    fn round_trips_on_random_traffic() {
        for chunks in [1, 2, 4, 6] {
            let patterns = PatternSet::chunked(Width::W32, chunks);
            let mut enc = InversionEncoder::new(patterns.clone(), CostModel::new(1.0));
            let mut dec = InversionDecoder::new(patterns);
            let mut x = 7u64;
            let mut trace = Trace::new(Width::W32);
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
                trace.push(x >> 16);
            }
            verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
        }
    }

    #[test]
    fn never_more_than_half_data_lines_toggle_with_bus_invert() {
        // The defining property of bus-invert coding, checked under the
        // coupling-blind cost the original scheme uses.
        let patterns = PatternSet::bus_invert(W8());
        let mut enc = InversionEncoder::new(patterns, CostModel::coupling_blind());
        let mut prev_data = 0u64;
        let mut x = 3u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(5);
            let bus = enc.encode(x >> 24);
            let data = bus & 0xFF;
            assert!((prev_data ^ data).count_ones() <= 4);
            prev_data = data;
        }
    }

    #[test]
    fn repeated_values_cost_nothing() {
        // Minimizing against the current bus value (Section 5.2) keeps
        // strings of repeats free.
        let patterns = PatternSet::bus_invert(Width::W32);
        let mut enc = InversionEncoder::new(patterns, CostModel::new(1.0));
        let trace = Trace::from_values(Width::W32, std::iter::repeat_n(0xABCD, 100));
        let a = evaluate(&mut enc, &trace);
        // Only the initial drive from the all-low bus costs anything.
        let initial = a.tau();
        let trace2 = Trace::from_values(Width::W32, std::iter::repeat_n(0xABCD, 200));
        enc.reset();
        let a2 = evaluate(&mut enc, &trace2);
        assert_eq!(
            a2.tau(),
            initial,
            "longer repeat strings must add no transitions"
        );
    }

    #[test]
    fn inversion_beats_identity_on_random_traffic() {
        let patterns = PatternSet::chunked(Width::W32, 6);
        let mut enc = InversionEncoder::new(patterns, CostModel::new(1.0));
        let mut x = 17u64;
        let mut trace = Trace::new(Width::W32);
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            trace.push(x >> 16);
        }
        let coded = evaluate(&mut enc, &trace);
        let baseline = evaluate(&mut IdentityCodec::new(Width::W32), &trace);
        assert!(
            coded.weighted(1.0) < baseline.weighted(1.0),
            "coded {} vs baseline {}",
            coded.weighted(1.0),
            baseline.weighted(1.0)
        );
    }

    #[test]
    fn decoder_rejects_unknown_pattern_index() {
        let mut dec = InversionDecoder::new(PatternSet::bus_invert(W8()));
        // Control lines encode index 3, but only patterns 0 and 1 exist
        // (one control line; craft state beyond it).
        let bad = 0xFFu64 | (3 << 8);
        assert!(dec.decode(bad).is_err());
    }
}
