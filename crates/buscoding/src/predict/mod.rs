//! Prediction-based transcoding (Figure 2 and Sections 4.3, 5.3).
//!
//! All of the paper's stateful schemes — strided, window-based, and
//! context-based — share one architecture:
//!
//! 1. identical [`Predictor`] FSMs run at both ends of the bus, fed only
//!    by the (decoded) value stream, so they stay synchronized for free;
//! 2. each cycle the predictor offers a confidence-ranked candidate
//!    list; the LAST value is always implicit candidate 0 and earns the
//!    free all-zero code;
//! 3. on a hit, the encoder XORs the rank's codeword (from a
//!    cost-ordered [`CodeBook`]) into the
//!    transition-coded data lines — the top prediction costs *nothing*;
//! 4. on a miss, the raw word (or its complement, whichever moves the
//!    bus more cheaply) is driven absolutely;
//! 5. two control lines tell the decoder which of the three cases
//!    happened.
//!
//! The engine here ([`PredictiveEncoder`] / [`PredictiveDecoder`])
//! implements 2–5 once; the concrete predictors plug in. Like the
//! paper's transcoder, which does one CAM match per cycle (§5), the
//! engine matches each word once: every predictor hands it the whole
//! ranked list as one contiguous slice ([`Predictor::candidates`]), the
//! engine scans it a single time for the word, and the predictor gets
//! the matched slot back in [`Predictor::observe`] instead of searching
//! its own store again.

mod context;
mod fcm;
mod stride;
pub mod trained;
mod window;

pub use context::{
    context_transition_codec, context_value_codec, ContextConfig, TransitionContextPredictor,
    ValueContextPredictor,
};
pub use fcm::{fcm_codec, FcmPredictor};
pub use stride::{stride_codec, StridePredictor};
pub use trained::{trained_codec, ArtifactError, SignatureTable, TrainedPredictor, TrainedTables};
pub use window::{window_codec, WindowPredictor};

use std::sync::Arc;

use bustrace::{Width, Word};

use crate::codebook::CodeBook;
use crate::codec::{Decoder, Encoder, RoundTripError};
use crate::energy::CostModel;

/// Largest window, stride bank, context table or shift register, and
/// FCM order. The scheme grammar rejects larger sizes, and the online
/// predictors size their fixed stores from it.
pub const MAX_ENTRIES: usize = 64;

/// Control-line state: the bus carries a prediction codeword
/// (transition-coded on the data lines).
const CTRL_PRED: u64 = 0b00;
/// Control-line state: the data lines carry the raw word.
const CTRL_RAW: u64 = 0b01;
/// Control-line state: the data lines carry the complemented word.
const CTRL_INV: u64 = 0b10;

/// A value predictor usable on both ends of a bus.
///
/// Implementations must be *deterministic functions of the observed
/// value stream*: the encoder and decoder each run their own instance,
/// and synchronization rests entirely on both instances seeing the same
/// `observe` calls.
///
/// Candidates are ranked by confidence (best first). Duplicate values in
/// the candidate list are permitted (the strided predictor produces them
/// naturally); first-match semantics keep the two ends consistent. The
/// engine separately maintains the LAST value as implicit rank 0, and
/// skips candidates equal to it.
///
/// Each word, the engine calls [`candidates`](Self::candidates) once,
/// scans the slice once, and then calls [`observe`](Self::observe) with
/// the slot it matched.
pub trait Predictor: std::fmt::Debug {
    /// The longest list [`candidates`](Self::candidates) can ever
    /// return; fixes the codebook size.
    fn max_candidates(&self) -> usize;

    /// The current ranked candidate list, best first, as one contiguous
    /// slice no longer than [`max_candidates`](Self::max_candidates).
    fn candidates(&mut self) -> &[Word];

    /// Feeds the confirmed bus word into the predictor's state. `slot`
    /// is the first index of `value` in the list
    /// [`candidates`](Self::candidates) returned for this word, or
    /// `None` if the list does not hold it, so the predictor never has
    /// to search its store again.
    fn observe(&mut self, value: Word, slot: Option<usize>);

    /// Restores the power-on state.
    fn reset(&mut self);
}

/// The engine's one match per word: the first slot of `candidates`
/// holding `value`, and the rank that `value` earns. LAST is rank 0
/// wherever it sits in the list; any other value ranks one past its
/// slot, less the LAST entries before the slot, which consume no rank.
fn match_word(
    candidates: &[Word],
    value: Word,
    last: Option<Word>,
) -> (Option<usize>, Option<usize>) {
    // Before the first word there is no LAST to skip; standing `value`
    // in for it skips nothing ahead of the first match.
    let skip = last.unwrap_or(value);
    let is_last = last == Some(value);
    let mut skipped = 0;
    for (slot, &c) in candidates.iter().enumerate() {
        if c == value {
            let rank = if is_last { 0 } else { slot + 1 - skipped };
            return (Some(rank), Some(slot));
        }
        skipped += usize::from(c == skip);
    }
    (is_last.then_some(0), None)
}

/// State shared verbatim between the encoder and decoder halves.
#[derive(Debug, Clone)]
struct EngineState<P> {
    width: Width,
    predictor: P,
    book: Arc<CodeBook>,
    data: u64,
    control: u64,
    last: Option<Word>,
}

/// The codebook an engine around `predictor` needs: rank 0 is the LAST
/// value, and the predictor's candidates get the following ranks.
///
/// The engine's design λ is fixed at 1 ([`CostModel::default`]): the
/// codeword order is a design-time choice, as in the paper's
/// transcoder, and the wire's own λ enters only when the coded bus is
/// priced.
fn engine_book(width: Width, predictor: &impl Predictor) -> Arc<CodeBook> {
    let lines = width.bits() + 2;
    assert!(
        lines <= 64,
        "{lines} bus lines exceed the 64-line state word"
    );
    // The codebook cannot exceed the number of distinct data-line
    // vectors.
    let entries = 1 + predictor.max_candidates();
    if let Some(max) = width.value_count() {
        assert!(
            entries as u64 <= max,
            "predictor offers more candidates than a {width} bus has codewords"
        );
    }
    Arc::new(CodeBook::new(width.bits(), entries, CostModel::default()))
}

impl<P: Predictor> EngineState<P> {
    fn new(width: Width, predictor: P, book: Arc<CodeBook>) -> Self {
        EngineState {
            width,
            predictor,
            book,
            data: 0,
            control: CTRL_PRED,
            last: None,
        }
    }

    fn lines(&self) -> u32 {
        self.width.bits() + 2
    }

    fn assemble(&self) -> u64 {
        self.data | (self.control << self.width.bits())
    }

    fn reset(&mut self) {
        self.predictor.reset();
        self.data = 0;
        self.control = CTRL_PRED;
        self.last = None;
    }

    /// The value at `rank` (the inverse of [`match_word`]), read from
    /// the same slice; `None` if the rank is not currently populated.
    fn value_at_rank(&mut self, rank: usize) -> Option<Word> {
        let last = self.last;
        if rank == 0 {
            return last;
        }
        self.predictor
            .candidates()
            .iter()
            .copied()
            .filter(|&c| Some(c) != last)
            .nth(rank - 1)
    }

    fn advance(&mut self, value: Word, slot: Option<usize>) {
        self.predictor.observe(value, slot);
        self.last = Some(value);
    }
}

/// Builds a matched encoder/decoder pair around two identically
/// configured power-on predictors, sharing one codebook between the
/// halves (the scheme helpers such as [`window_codec`] all go through
/// here).
///
/// # Panics
///
/// Panics under the same conditions as [`PredictiveEncoder::new`].
pub fn predictive_codec<P: Predictor>(
    width: Width,
    encoder_predictor: P,
    decoder_predictor: P,
) -> (PredictiveEncoder<P>, PredictiveDecoder<P>) {
    let book = engine_book(width, &encoder_predictor);
    let dec = PredictiveDecoder {
        state: EngineState::new(width, decoder_predictor, Arc::clone(&book)),
    };
    let enc = PredictiveEncoder::from_state(EngineState::new(width, encoder_predictor, book));
    (enc, dec)
}

/// The sending half of a prediction-based transcoder.
///
/// Construct pairs with the scheme helpers ([`window_codec`],
/// [`stride_codec`], [`context_value_codec`],
/// [`context_transition_codec`], [`fcm_codec`], [`trained_codec`]) or
/// with [`predictive_codec`] around any custom [`Predictor`]; an
/// encoder alone, for callers that only price a trace, comes from
/// [`PredictiveEncoder::new`].
#[derive(Debug, Clone)]
pub struct PredictiveEncoder<P> {
    state: EngineState<P>,
    miss_policy: MissPolicy,
    last_outcome: Option<EncodeOutcome>,
    stats: PredictStats,
}

impl<P: Predictor> PredictiveEncoder<P> {
    /// Creates an encoder around a predictor. Codewords are ordered,
    /// and raw-vs-inverted decisions on misses settled, at λ = 1.
    ///
    /// # Panics
    ///
    /// Panics if the bus (width + 2 control lines) exceeds 64 lines, or
    /// the predictor offers more candidates than the bus has codewords.
    pub fn new(width: Width, predictor: P) -> Self {
        let book = engine_book(width, &predictor);
        Self::from_state(EngineState::new(width, predictor, book))
    }

    fn from_state(state: EngineState<P>) -> Self {
        PredictiveEncoder {
            state,
            miss_policy: MissPolicy::default(),
            last_outcome: None,
            stats: PredictStats::default(),
        }
    }

    /// Replaces the miss policy (builder style).
    #[must_use]
    pub fn with_miss_policy(mut self, policy: MissPolicy) -> Self {
        self.miss_policy = policy;
        self
    }

    /// Whether the most recent word hit a prediction, and at which
    /// rank.
    pub fn last_outcome(&self) -> Option<EncodeOutcome> {
        self.last_outcome
    }
}

/// How the encoder drives the data lines when no prediction matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissPolicy {
    /// Send the raw word or its complement, whichever moves the bus more
    /// cheaply (the paper's design: Figure 2's "raw inverted" option).
    #[default]
    RawOrInverted,
    /// Always send the raw word — drops one control state and the
    /// inversion comparator; used by the inversion-fallback ablation.
    RawOnly,
}

/// What the encoder did with the most recent word, as
/// [`PredictiveEncoder::last_outcome`] reports it word by word;
/// [`PredictStats`] counts the same outcomes over a whole trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeOutcome {
    /// The word matched the prediction at this rank (0 = LAST value).
    Hit {
        /// Confidence rank whose codeword was transmitted.
        rank: usize,
    },
    /// No prediction matched; the raw word was driven.
    MissRaw,
    /// No prediction matched; the complemented word was driven.
    MissInverted,
}

/// How often each [`EncodeOutcome`] happened since the encoder's last
/// reset: the predictor's accuracy on the words it has encoded. The
/// four counts sum to the words encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictStats {
    /// Hits on the LAST value (rank 0, the free all-zero code).
    pub last: u64,
    /// Hits on a ranked prediction (rank 1 and up).
    pub ranked: u64,
    /// Misses driven as the raw word.
    pub raw: u64,
    /// Misses driven as the complemented word.
    pub inverted: u64,
}

impl<P: Predictor> Encoder for PredictiveEncoder<P> {
    fn lines(&self) -> u32 {
        self.state.lines()
    }

    /// One match against the predictor's candidate slice, then the
    /// codeword or miss drive, then the predictor update with the
    /// matched slot.
    fn encode(&mut self, value: Word) -> u64 {
        let value = self.state.width.truncate(value);
        let last = self.state.last;
        let (rank, slot) = match_word(self.state.predictor.candidates(), value, last);
        let outcome = match rank {
            Some(rank) => {
                self.state.data ^= self.state.book.code(rank);
                self.state.control = CTRL_PRED;
                if rank == 0 {
                    self.stats.last += 1;
                } else {
                    self.stats.ranked += 1;
                }
                EncodeOutcome::Hit { rank }
            }
            None => {
                let width = self.state.width;
                let lines = self.state.lines();
                let current = self.state.assemble();
                let raw = value | (CTRL_RAW << width.bits());
                let inv = (value ^ width.mask()) | (CTRL_INV << width.bits());
                let cost = CostModel::default();
                let raw_cost = cost.transition_cost(current, raw, lines);
                let inv_cost = match self.miss_policy {
                    MissPolicy::RawOrInverted => cost.transition_cost(current, inv, lines),
                    MissPolicy::RawOnly => f64::INFINITY,
                };
                if inv_cost < raw_cost {
                    self.state.data = value ^ width.mask();
                    self.state.control = CTRL_INV;
                    self.stats.inverted += 1;
                    EncodeOutcome::MissInverted
                } else {
                    self.state.data = value;
                    self.state.control = CTRL_RAW;
                    self.stats.raw += 1;
                    EncodeOutcome::MissRaw
                }
            }
        };
        self.last_outcome = Some(outcome);
        self.state.advance(value, slot);
        self.state.assemble()
    }

    fn reset(&mut self) {
        self.state.reset();
        self.last_outcome = None;
        self.stats = PredictStats::default();
    }

    fn predict_stats(&self) -> Option<PredictStats> {
        Some(self.stats)
    }
}

/// The receiving half of a prediction-based transcoder.
#[derive(Debug, Clone)]
pub struct PredictiveDecoder<P> {
    state: EngineState<P>,
}

impl<P: Predictor> Decoder for PredictiveDecoder<P> {
    fn lines(&self) -> u32 {
        self.state.lines()
    }

    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        let width = self.state.width;
        let data = bus_state & width.mask();
        let control = bus_state >> width.bits();
        let value = match control {
            CTRL_PRED => {
                let delta = data ^ self.state.data;
                let rank = self.state.book.rank_of(delta).ok_or_else(|| {
                    RoundTripError::new(format!("transition vector {delta:#x} is not a codeword"))
                })?;
                self.state.value_at_rank(rank).ok_or_else(|| {
                    RoundTripError::new(format!("rank {rank} has no candidate right now"))
                })?
            }
            CTRL_RAW => data,
            CTRL_INV => data ^ width.mask(),
            other => {
                return Err(RoundTripError::new(format!(
                    "control lines carry invalid state {other:#b}"
                )))
            }
        };
        // Corrupted input can decode a raw word the list holds, so the
        // slot is looked up whatever the control lines say.
        let slot = self
            .state
            .predictor
            .candidates()
            .iter()
            .position(|&c| c == value);
        self.state.data = data;
        self.state.control = control;
        self.state.advance(value, slot);
        Ok(value)
    }

    fn reset(&mut self) {
        self.state.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{evaluate, verify_roundtrip};
    use bustrace::Trace;

    /// Feeds `value` to a bare predictor the way the engine does: with
    /// its first slot in the current candidate list.
    pub(crate) fn feed<P: Predictor>(p: &mut P, value: Word) {
        let slot = p.candidates().iter().position(|&c| c == value);
        p.observe(value, slot);
    }

    /// A predictor that always predicts a fixed list — enough to unit
    /// test the engine in isolation.
    #[derive(Debug, Clone)]
    struct FixedPredictor {
        list: Vec<Word>,
    }

    impl Predictor for FixedPredictor {
        fn max_candidates(&self) -> usize {
            self.list.len()
        }

        fn candidates(&mut self) -> &[Word] {
            &self.list
        }

        fn observe(&mut self, _value: Word, _slot: Option<usize>) {}

        fn reset(&mut self) {}
    }

    fn pair(
        list: Vec<Word>,
    ) -> (
        PredictiveEncoder<FixedPredictor>,
        PredictiveDecoder<FixedPredictor>,
    ) {
        predictive_codec(
            Width::W32,
            FixedPredictor { list: list.clone() },
            FixedPredictor { list },
        )
    }

    #[test]
    fn repeated_value_is_free_after_first() {
        let (mut enc, _) = pair(vec![]);
        let trace = Trace::from_values(Width::W32, std::iter::repeat_n(0xCAFE, 100));
        let a = evaluate(&mut enc, &trace);
        let first_cost = a.tau();
        let trace2 = Trace::from_values(Width::W32, std::iter::repeat_n(0xCAFE, 1000));
        let a2 = evaluate(&mut enc, &trace2);
        assert_eq!(a2.tau(), first_cost);
        assert!(matches!(
            enc.last_outcome(),
            Some(EncodeOutcome::Hit { rank: 0 })
        ));
        // `evaluate` resets the encoder, counts and all.
        let stats = PredictStats {
            last: 999,
            raw: 1,
            ..PredictStats::default()
        };
        assert_eq!(enc.predict_stats(), Some(stats));
    }

    #[test]
    fn predicted_value_uses_low_weight_code() {
        let (mut enc, _) = pair(vec![0x1234_5678]);
        enc.reset();
        let s1 = enc.encode(0xFFFF); // miss, raw
        let s2 = enc.encode(0x1234_5678); // hit rank 1
                                          // Hit costs one data-line toggle plus the control change.
        let toggles = (s1 ^ s2).count_ones();
        assert!(toggles <= 3, "expected a cheap hit, got {toggles} toggles");
        assert!(matches!(
            enc.last_outcome(),
            Some(EncodeOutcome::Hit { rank: 1 })
        ));
    }

    #[test]
    fn miss_can_choose_inversion() {
        let (mut enc, mut dec) = pair(vec![]);
        enc.reset();
        dec.reset();
        // From an all-low bus, 0xFFFF_FFFE is cheaper inverted.
        let bus = enc.encode(0xFFFF_FFFE);
        assert!(matches!(
            enc.last_outcome(),
            Some(EncodeOutcome::MissInverted)
        ));
        assert_eq!(enc.predict_stats().map(|s| s.inverted), Some(1));
        assert_eq!(dec.decode(bus).unwrap(), 0xFFFF_FFFE);
    }

    #[test]
    fn engine_round_trips_with_fixed_predictor() {
        let list: Vec<Word> = (0..30).map(|i| 1000 + i * 3).collect();
        let (mut enc, mut dec) = pair(list);
        let mut x = 5u64;
        let mut trace = Trace::new(Width::W32);
        for i in 0..3000u64 {
            if i % 3 == 0 {
                trace.push(1000 + (i % 30) * 3); // hits
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                trace.push(x >> 20); // misses
            }
        }
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn duplicate_candidates_round_trip() {
        let (mut enc, mut dec) = pair(vec![7, 7, 9, 9, 7]);
        let trace = Trace::from_values(Width::W32, [7u64, 9, 7, 9, 11, 7]);
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn raw_only_policy_never_inverts_and_still_roundtrips() {
        let (enc, mut dec) = pair(vec![]);
        let mut enc = enc.with_miss_policy(MissPolicy::RawOnly);
        enc.reset();
        dec.reset();
        // A value that the default policy would invert.
        let bus = enc.encode(0xFFFF_FFFE);
        assert!(matches!(enc.last_outcome(), Some(EncodeOutcome::MissRaw)));
        assert_eq!(enc.predict_stats().map(|s| s.raw), Some(1));
        assert_eq!(dec.decode(bus).unwrap(), 0xFFFF_FFFE);
    }

    #[test]
    fn decoder_flags_desync() {
        let (_, mut dec) = pair(vec![]);
        dec.reset();
        // A PRED control state with a non-codeword delta must error.
        let bogus = 0b0000_0110u64; // two adjacent toggles: not in a 1-entry book
        assert!(dec.decode(bogus).is_err());
    }

    #[test]
    fn decoder_rejects_invalid_control() {
        let (_, mut dec) = pair(vec![]);
        dec.reset();
        let bad_ctrl = 0b11u64 << 32;
        let err = dec.decode(bad_ctrl).unwrap_err();
        assert!(err.to_string().contains("control"));
    }

    #[test]
    #[should_panic(expected = "more candidates")]
    fn engine_rejects_oversized_candidate_lists() {
        let list: Vec<Word> = (0..16).collect();
        let _ = PredictiveEncoder::new(Width::new(4).unwrap(), FixedPredictor { list });
    }
}
