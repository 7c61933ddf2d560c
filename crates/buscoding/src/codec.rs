//! Encoder/decoder traits and the trace evaluation framework.
//!
//! Every coding scheme is a pair of synchronous FSMs (Figure 1): the
//! encoder maps each input word to the next *absolute state* of the
//! physical bus lines, and the decoder maps observed bus states back to
//! words. Keeping the interface at the level of absolute line states
//! means the activity accounting ([`Activity`]) is identical for every
//! scheme — including the un-encoded baseline — and transition coding is
//! an internal choice of each scheme rather than a framework mode.

use std::error::Error;
use std::fmt;

use bustrace::{Trace, Word};

use crate::energy::Activity;
use crate::predict::PredictStats;

/// The sending end of a transcoder: consumes words, drives bus lines.
pub trait Encoder {
    /// Number of physical bus lines driven (data plus any control lines),
    /// at most 64.
    fn lines(&self) -> u32;

    /// Consumes the next word and returns the new absolute state of all
    /// bus lines.
    fn encode(&mut self, value: Word) -> u64;

    /// Encodes a block of words, appending one absolute bus state per
    /// word to `out`. Semantically identical to calling
    /// [`encode`](Self::encode) once per word, in order. This default
    /// is already instantiated per implementor, so through `dyn Encoder`
    /// the FSM loop runs monomorphically and pays virtual dispatch once
    /// per block; override it only to beat one `encode` per word.
    fn encode_block(&mut self, words: &[Word], out: &mut Vec<u64>) {
        out.reserve(words.len());
        for &value in words {
            out.push(self.encode(value));
        }
    }

    /// Restores the power-on state so a fresh trace can be evaluated.
    fn reset(&mut self);

    /// How accurate the encoder's predictor has been since the last
    /// [`reset`](Self::reset), or `None` for an encoder that does not
    /// predict.
    fn predict_stats(&self) -> Option<PredictStats> {
        None
    }
}

/// The receiving end of a transcoder: observes bus line states, recovers
/// words.
pub trait Decoder {
    /// Number of physical bus lines observed; must match the paired
    /// encoder.
    fn lines(&self) -> u32;

    /// Observes the next absolute bus state and recovers the word.
    ///
    /// # Errors
    ///
    /// Returns [`RoundTripError`] if the observed state is not one the
    /// paired encoder could have produced from the decoder's current
    /// state — the signature of encoder/decoder desynchronization.
    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError>;

    /// Restores the power-on state.
    fn reset(&mut self);
}

impl<E: Encoder + ?Sized> Encoder for Box<E> {
    fn lines(&self) -> u32 {
        (**self).lines()
    }

    fn encode(&mut self, value: Word) -> u64 {
        (**self).encode(value)
    }

    // Explicit forwarding is load-bearing: without it, `Box<dyn
    // Encoder>` would get the *default* per-word body and re-enter
    // virtual dispatch for every word, defeating the block path.
    fn encode_block(&mut self, words: &[Word], out: &mut Vec<u64>) {
        (**self).encode_block(words, out)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn predict_stats(&self) -> Option<PredictStats> {
        (**self).predict_stats()
    }
}

impl<D: Decoder + ?Sized> Decoder for Box<D> {
    fn lines(&self) -> u32 {
        (**self).lines()
    }

    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        (**self).decode(bus_state)
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

/// A named encoder/decoder pair owned as one unit.
///
/// Every scheme in this crate is constructed as two synchronous FSMs,
/// and harnesses that exercise both ends (fault channels, round-trip
/// sweeps) previously threaded `Box<dyn Encoder>` and `Box<dyn Decoder>`
/// side by side through every signature. A `Transcoder` bundles the pair
/// with its display name and keeps the two FSMs' lifecycles (reset,
/// line-count agreement) in one place.
pub struct Transcoder {
    name: String,
    encoder: Box<dyn Encoder>,
    decoder: Box<dyn Decoder>,
}

impl Transcoder {
    /// Bundles a boxed pair under a display name.
    ///
    /// # Panics
    ///
    /// Panics if the encoder and decoder disagree on the line count —
    /// such a pair could never have come from one scheme constructor.
    pub fn from_boxed(
        name: impl Into<String>,
        encoder: Box<dyn Encoder>,
        decoder: Box<dyn Decoder>,
    ) -> Self {
        let name = name.into();
        assert_eq!(
            encoder.lines(),
            decoder.lines(),
            "transcoder {name:?}: encoder drives {} lines but decoder expects {}",
            encoder.lines(),
            decoder.lines()
        );
        Transcoder {
            name,
            encoder,
            decoder,
        }
    }

    /// The display name, e.g. `window(8)`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical bus lines of the pair (identical at both ends).
    pub fn lines(&self) -> u32 {
        self.encoder.lines()
    }

    /// Resets both FSMs to their power-on state.
    pub fn reset(&mut self) {
        self.encoder.reset();
        self.decoder.reset();
    }

    /// Encodes the next word through the sending end.
    pub fn encode(&mut self, value: Word) -> u64 {
        self.encoder.encode(value)
    }

    /// Decodes the next bus state through the receiving end.
    ///
    /// # Errors
    ///
    /// As [`Decoder::decode`].
    pub fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        self.decoder.decode(bus_state)
    }

    /// The sending end alone.
    pub fn encoder_mut(&mut self) -> &mut dyn Encoder {
        self.encoder.as_mut()
    }

    /// The receiving end alone.
    pub fn decoder_mut(&mut self) -> &mut dyn Decoder {
        self.decoder.as_mut()
    }

    /// Both ends at once, mutably — for harnesses (such as a fault
    /// channel) that drive the encoder and decoder against each other.
    pub fn split_mut(&mut self) -> (&mut dyn Encoder, &mut dyn Decoder) {
        (self.encoder.as_mut(), self.decoder.as_mut())
    }

    /// Unbundles the pair, e.g. to re-wrap both ends in epoch-resync
    /// adapters.
    pub fn into_parts(self) -> (Box<dyn Encoder>, Box<dyn Decoder>) {
        (self.encoder, self.decoder)
    }
}

impl fmt::Debug for Transcoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transcoder")
            .field("name", &self.name)
            .field("lines", &self.lines())
            .finish_non_exhaustive()
    }
}

/// Error reported when a decoder observes a bus state inconsistent with
/// its synchronized model of the encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundTripError {
    step: Option<u64>,
    detail: String,
}

impl RoundTripError {
    /// Creates an error with a human-readable cause.
    pub fn new(detail: impl Into<String>) -> Self {
        RoundTripError {
            step: None,
            detail: detail.into(),
        }
    }

    /// Attaches the trace position at which the failure occurred.
    #[must_use]
    pub fn at_step(mut self, step: u64) -> Self {
        self.step = Some(step);
        self
    }

    /// The trace position of the failure, if known.
    pub fn step(&self) -> Option<u64> {
        self.step
    }
}

impl fmt::Display for RoundTripError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step {
            Some(step) => write!(f, "decode failed at step {step}: {}", self.detail),
            None => write!(f, "decode failed: {}", self.detail),
        }
    }
}

impl Error for RoundTripError {}

/// Runs an encoder over a trace and accumulates the bus switching
/// activity. The encoder is reset first, and the bus is assumed to start
/// all-low (the first driven state is counted as a transition from zero).
///
/// # Example
///
/// ```
/// use bustrace::{Trace, Width};
/// use buscoding::{evaluate, IdentityCodec};
///
/// let trace = Trace::from_values(Width::W32, [0u64, 1, 1, 3]);
/// let activity = evaluate(&mut IdentityCodec::new(Width::W32), &trace);
/// // 0 -> 1 (one flip), 1 -> 1 (none), 1 -> 3 (one flip)
/// assert_eq!(activity.tau(), 2);
/// ```
pub fn evaluate<E: Encoder + ?Sized>(encoder: &mut E, trace: &Trace) -> Activity {
    let _span = busprobe::span("buscoding.codec.evaluate");
    encoder.reset();
    let mut activity = Activity::new(encoder.lines());
    activity.step(0); // power-on state: all lines low
    for value in trace.iter() {
        activity.step(encoder.encode(value));
    }
    if busprobe::enabled() {
        busprobe::counter("buscoding.codec.evaluate_calls").inc();
        busprobe::counter("buscoding.codec.values_encoded").add(trace.len() as u64);
    }
    activity
}

/// Words per [`encode_block`](Encoder::encode_block) chunk used by
/// [`evaluate_blocks`]: large enough to amortize the per-block virtual
/// call and probe check, small enough that the state buffer stays in
/// cache (32 KiB at 4096 × 8 bytes).
pub const BLOCK_WORDS: usize = 4096;

/// Block-batched [`evaluate`]: streams the trace through
/// [`Encoder::encode_block`] in [`BLOCK_WORDS`]-sized chunks and folds
/// the τ/κ accumulation over each output buffer with
/// [`Activity::step_slice`]. One virtual call per block instead of two
/// per word when `encoder` is a trait object; the counts are exactly
/// those of the per-word path (the equivalence is proptested for every
/// registry scheme in `crates/buscoding/tests/block_equivalence.rs`).
pub fn evaluate_blocks<E: Encoder + ?Sized>(encoder: &mut E, trace: &Trace) -> Activity {
    static BLOCKS: busprobe::StaticCounter = busprobe::StaticCounter::new("buscoding.blocks");
    let _span = busprobe::span("buscoding.codec.evaluate_blocks");
    encoder.reset();
    let mut activity = Activity::new(encoder.lines());
    activity.step(0); // power-on state: all lines low
    let mut states = Vec::with_capacity(BLOCK_WORDS.min(trace.len()));
    for chunk in trace.values().chunks(BLOCK_WORDS) {
        states.clear();
        encoder.encode_block(chunk, &mut states);
        {
            // Separately spanned so profiles split encoder-FSM time
            // (this function's self time) from τ/κ accumulation.
            let _acc = busprobe::span("buscoding.codec.accumulate");
            activity.step_slice(&states);
        }
        BLOCKS.inc();
    }
    if busprobe::enabled() {
        busprobe::counter("buscoding.codec.evaluate_calls").inc();
        busprobe::counter("buscoding.codec.values_encoded").add(trace.len() as u64);
    }
    activity
}

/// Drives an encoder/decoder pair in lockstep over a trace, verifying
/// lossless recovery of every word. Both FSMs are reset first.
///
/// # Errors
///
/// Returns the first decoding failure or mismatch, tagged with the trace
/// position.
pub fn verify_roundtrip<E, D>(
    encoder: &mut E,
    decoder: &mut D,
    trace: &Trace,
) -> Result<(), RoundTripError>
where
    E: Encoder + ?Sized,
    D: Decoder + ?Sized,
{
    let _span = busprobe::span("buscoding.codec.verify_roundtrip");
    if encoder.lines() != decoder.lines() {
        return Err(RoundTripError::new(format!(
            "encoder drives {} lines but decoder expects {}",
            encoder.lines(),
            decoder.lines()
        )));
    }
    encoder.reset();
    decoder.reset();
    for (i, value) in trace.iter().enumerate() {
        let bus = encoder.encode(value);
        let recovered = decoder.decode(bus).map_err(|e| e.at_step(i as u64))?;
        if recovered != value {
            return Err(RoundTripError::new(format!(
                "recovered {recovered:#x}, expected {value:#x}"
            ))
            .at_step(i as u64));
        }
    }
    if busprobe::enabled() {
        busprobe::counter("buscoding.codec.roundtrip_calls").inc();
        busprobe::counter("buscoding.codec.values_decoded").add(trace.len() as u64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::IdentityCodec;
    use bustrace::Width;

    #[test]
    fn evaluate_counts_from_all_low() {
        let trace = Trace::from_values(Width::W32, [0b11u64]);
        let a = evaluate(&mut IdentityCodec::new(Width::W32), &trace);
        assert_eq!(a.tau(), 2);
        assert_eq!(a.steps(), 1);
    }

    #[test]
    fn verify_roundtrip_accepts_identity() {
        let trace = Trace::from_values(Width::W32, [5u64, 6, 7]);
        let mut enc = IdentityCodec::new(Width::W32);
        let mut dec = IdentityCodec::new(Width::W32);
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn verify_roundtrip_rejects_line_mismatch() {
        let trace = Trace::from_values(Width::W32, [1u64]);
        let mut enc = IdentityCodec::new(Width::W32);
        let mut dec = IdentityCodec::new(Width::new(16).unwrap());
        let err = verify_roundtrip(&mut enc, &mut dec, &trace).unwrap_err();
        assert!(err.to_string().contains("32 lines"));
        assert_eq!(err.step(), None);
    }

    #[test]
    fn transcoder_bundles_a_pair() {
        let trace = Trace::from_values(Width::W32, [5u64, 6, 7, 7]);
        let mut t = Transcoder::from_boxed(
            "identity",
            Box::new(IdentityCodec::new(Width::W32)),
            Box::new(IdentityCodec::new(Width::W32)),
        );
        assert_eq!(t.name(), "identity");
        assert_eq!(t.lines(), 32);
        t.reset();
        for v in trace.iter() {
            let bus = t.encode(v);
            assert_eq!(t.decode(bus).unwrap(), v);
        }
        let (enc, dec) = t.split_mut();
        assert_eq!(enc.lines(), dec.lines());
        let (enc, dec) = t.into_parts();
        assert_eq!(enc.lines(), 32);
        assert_eq!(dec.lines(), 32);
    }

    #[test]
    #[should_panic(expected = "32 lines")]
    fn transcoder_rejects_mismatched_pair() {
        let _ = Transcoder::from_boxed(
            "bad",
            Box::new(IdentityCodec::new(Width::W32)),
            Box::new(IdentityCodec::new(Width::new(16).unwrap())),
        );
    }

    #[test]
    fn error_display_with_step() {
        let e = RoundTripError::new("bad code").at_step(17);
        assert_eq!(e.to_string(), "decode failed at step 17: bad code");
        assert_eq!(e.step(), Some(17));
    }
}
