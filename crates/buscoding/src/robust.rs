//! Robustness wrappers: desync detection and bounded recovery for
//! stateful transcoder pairs.
//!
//! The paper's schemes assume an error-free bus; a single transient bit
//! flip silently desynchronizes the two FSMs forever. This module adds
//! two composable countermeasures, each of which wraps any existing
//! [`Encoder`]/[`Decoder`] pair:
//!
//! * **Epoch resynchronization** ([`epoch_wrap`]) — both ends flush
//!   their predictor state every `interval` words, bounding how long a
//!   desync can persist to one epoch. The flush is free on the wire
//!   (no extra lines) but costs energy: post-flush words miss the
//!   predictor, and the extra transitions land in the ordinary
//!   `wiremodel::Activity` accounting; `hwmodel` prices the per-flush tax via
//!   `CodingOutcome::with_resync_tax`.
//! * **Bounded-recovery decode** ([`RecoveringDecoder`]) — turns a
//!   fatal [`RoundTripError`] into a counted resync event: the inner
//!   decoder is reset, a best-effort word is emitted, and decoding
//!   continues. Combined with [`epoch_wrap`], the pair provably
//!   reconverges at the next epoch boundary.
//!
//! The adversary these are measured against lives in the `busfault`
//! crate; `repro fault-sweep` reports the resulting
//! corruption/detection/energy trade-offs.
//!
//! # Example
//!
//! ```
//! use buscoding::predict::window_codec;
//! use buscoding::robust::{epoch_wrap, RecoveringDecoder};
//! use buscoding::{verify_roundtrip, Decoder};
//! use bustrace::{Trace, Width};
//!
//! let (enc, dec) = window_codec(Width::W32, 8);
//! let dec = RecoveringDecoder::new(dec, Width::W32);
//! let (mut enc, mut dec) = epoch_wrap(enc, dec, 64);
//! let trace = Trace::from_values(Width::W32, (0..300u64).map(|i| i * 3 % 17));
//! verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
//! assert_eq!(dec.inner().resync_events(), 0); // clean channel: no recovery needed
//! ```

use bustrace::{Width, Word};

use crate::codec::{Decoder, Encoder, RoundTripError};

static PROBE_FLUSHES: busprobe::StaticCounter =
    busprobe::StaticCounter::new("buscoding.robust.epoch_flushes");
static PROBE_RESYNCS: busprobe::StaticCounter =
    busprobe::StaticCounter::new("buscoding.robust.resyncs");

/// Encoder half of epoch resynchronization.
#[derive(Debug, Clone)]
pub struct EpochEncoder<E> {
    inner: E,
    interval: u64,
    count: u64,
    flushes: u64,
}

/// Decoder half of epoch resynchronization.
#[derive(Debug, Clone)]
pub struct EpochDecoder<D> {
    inner: D,
    interval: u64,
    count: u64,
}

/// Wraps a transcoder pair with periodic predictor-state flushes.
///
/// Every `interval` words both ends reset their inner FSM to the
/// power-on state before encoding/decoding the next word. Because the
/// bus carries *absolute* line states, the two FSMs' post-flush
/// behaviour depends only on the words that follow the boundary — so a
/// desynchronized pair provably reconverges at the next boundary, at
/// most `interval - 1` words after the upset.
///
/// The decoder counts *observed words*, not successful decodes, so it
/// stays in lockstep with the encoder even while desynchronized.
///
/// # Panics
///
/// Panics if `interval` is zero or the pair is mismatched.
pub fn epoch_wrap<E: Encoder, D: Decoder>(
    encoder: E,
    decoder: D,
    interval: u64,
) -> (EpochEncoder<E>, EpochDecoder<D>) {
    assert!(interval > 0, "epoch interval must be at least 1");
    assert_eq!(
        encoder.lines(),
        decoder.lines(),
        "epoch_wrap requires a matched encoder/decoder pair"
    );
    (
        EpochEncoder {
            inner: encoder,
            interval,
            count: 0,
            flushes: 0,
        },
        EpochDecoder {
            inner: decoder,
            interval,
            count: 0,
        },
    )
}

impl<E> EpochEncoder<E> {
    /// Flushes performed since the last [`reset`](Encoder::reset) —
    /// multiply by the per-flush energy to price the resync tax.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// The configured epoch interval in words.
    pub fn interval(&self) -> u64 {
        self.interval
    }
}

impl<D> EpochDecoder<D> {
    /// The wrapped decoder, for post-run inspection.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<E: Encoder> Encoder for EpochEncoder<E> {
    fn lines(&self) -> u32 {
        self.inner.lines()
    }

    fn encode(&mut self, value: Word) -> u64 {
        if self.count > 0 && self.count.is_multiple_of(self.interval) {
            self.inner.reset();
            self.flushes += 1;
            PROBE_FLUSHES.inc();
        }
        self.count += 1;
        self.inner.encode(value)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.count = 0;
        self.flushes = 0;
    }
}

impl<D: Decoder> Decoder for EpochDecoder<D> {
    fn lines(&self) -> u32 {
        self.inner.lines()
    }

    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        if self.count > 0 && self.count.is_multiple_of(self.interval) {
            self.inner.reset();
        }
        self.count += 1;
        self.inner.decode(bus_state)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.count = 0;
    }
}

/// Bounded-recovery wrapper: converts fatal decode errors into counted
/// resync events.
///
/// On an inner [`RoundTripError`] the wrapper resets the inner decoder,
/// emits a best-effort word (the data lines masked to the word width —
/// correct whenever the observed state happens to be raw data), and
/// keeps decoding. The stream stays lossy until the encoder's state is
/// next reachable from power-on; under [`epoch_wrap`] that is the next
/// epoch boundary, making recovery latency bounded by the interval.
///
/// Compose it *inside* the epoch wrapper —
/// `epoch_wrap(enc, RecoveringDecoder::new(dec, w), n)` — so the local
/// reset it performs on an error clears only the predictor FSM. Wrapped
/// the other way around, a recovery would also zero the epoch
/// decoder's word counter, knocking its flush boundaries out of
/// lockstep with the encoder's and defeating the bounded-recovery
/// guarantee.
#[derive(Debug, Clone)]
pub struct RecoveringDecoder<D> {
    inner: D,
    width: Width,
    resyncs: u64,
}

impl<D: Decoder> RecoveringDecoder<D> {
    /// Wraps `inner`, recovering decoded words of the given width.
    pub fn new(inner: D, width: Width) -> Self {
        RecoveringDecoder {
            inner,
            width,
            resyncs: 0,
        }
    }

    /// Resync events (inner decode errors absorbed) since construction.
    ///
    /// Deliberately survives [`reset`](Decoder::reset): the epoch
    /// wrapper's periodic flush resets the whole decoder stack, and a
    /// monitoring statistic that vanished at every flush would be
    /// useless. The FSM state is cleared; the tally is not.
    pub fn resync_events(&self) -> u64 {
        self.resyncs
    }
}

impl<D: Decoder> Decoder for RecoveringDecoder<D> {
    fn lines(&self) -> u32 {
        self.inner.lines()
    }

    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        match self.inner.decode(bus_state) {
            Ok(word) => Ok(word),
            Err(_) => {
                self.resyncs += 1;
                PROBE_RESYNCS.inc();
                self.inner.reset();
                Ok(bus_state & self.width.mask())
            }
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{evaluate, verify_roundtrip};
    use crate::predict::{stride_codec, window_codec};
    use bustrace::Trace;

    fn trace(n: u64) -> Trace {
        Trace::from_values(Width::W32, (0..n).map(|i| (i * 7) % 23 + (i % 3) * 1000))
    }

    #[test]
    fn epoch_roundtrip_is_lossless() {
        for interval in [1, 7, 64] {
            let (enc, dec) = stride_codec(Width::W32, 4);
            let (mut enc, mut dec) = epoch_wrap(enc, dec, interval);
            verify_roundtrip(&mut enc, &mut dec, &trace(300)).unwrap();
        }
    }

    #[test]
    fn epoch_flush_count_matches_interval() {
        let (enc, dec) = window_codec(Width::W32, 8);
        let (mut enc, _dec) = epoch_wrap(enc, dec, 64);
        let _ = evaluate(&mut enc, &trace(1000));
        // evaluate() resets first; flushes before words 64, 128, ..., 960.
        assert_eq!(enc.flushes(), 15);
        assert_eq!(enc.interval(), 64);
        enc.reset();
        assert_eq!(enc.flushes(), 0);
    }

    #[test]
    fn epoch_bounds_desync_to_one_epoch() {
        let interval = 32u64;
        let (enc, dec) = window_codec(Width::W32, 8);
        let (mut enc, mut dec) = epoch_wrap(enc, dec, interval);
        let t = trace(200);
        let flip_at = 40usize;
        let mut wrong_after_boundary = 0u64;
        for (i, v) in t.iter().enumerate() {
            let mut state = enc.encode(v);
            if i == flip_at {
                state ^= 1 << 2;
            }
            let got = dec.decode(state);
            let next_boundary = (flip_at as u64 / interval + 1) * interval;
            if (i as u64) >= next_boundary && got != Ok(v) {
                wrong_after_boundary += 1;
            }
        }
        assert_eq!(
            wrong_after_boundary, 0,
            "pair failed to reconverge at the epoch boundary"
        );
    }

    #[test]
    fn epoch_decoder_counts_observed_words_even_on_error() {
        // Feed garbage mid-epoch; the decoder's word counter must still
        // advance so the next flush lands on the same boundary as the
        // encoder's.
        let interval = 16u64;
        let (enc, dec) = window_codec(Width::W32, 8);
        let (mut enc, mut dec) = epoch_wrap(enc, dec, interval);
        let t = trace(64);
        for (i, v) in t.iter().enumerate() {
            let state = enc.encode(v);
            // Corrupt a whole epoch's worth of states.
            let observed = if (4..12).contains(&i) {
                state ^ 0b101
            } else {
                state
            };
            let got = dec.decode(observed);
            if i as u64 >= interval {
                assert_eq!(got, Ok(v), "not reconverged at word {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn epoch_rejects_zero_interval() {
        let (enc, dec) = window_codec(Width::W32, 8);
        let _ = epoch_wrap(enc, dec, 0);
    }

    #[test]
    fn recovering_decoder_never_errors() {
        let (enc, dec) = window_codec(Width::W32, 8);
        let mut enc = enc;
        let mut dec = RecoveringDecoder::new(dec, Width::W32);
        for (i, v) in trace(100).iter().enumerate() {
            let mut state = enc.encode(v);
            if i % 9 == 3 {
                // Force the invalid control pattern 0b11: always an
                // inner decode error, hence a resync event.
                state |= 0b11 << 32;
            }
            assert!(dec.decode(state).is_ok());
        }
        let events = dec.resync_events();
        assert!(events > 0);
        // The tally is a monitoring statistic: reset() clears the FSM
        // but not the count.
        dec.reset();
        assert_eq!(dec.resync_events(), events);
    }

    #[test]
    fn recovering_epoch_pair_reconverges() {
        // Recovery inside, epoch outside: a mid-epoch local reset must
        // not disturb the flush boundaries.
        let interval = 32u64;
        for flip_line in [0u32, 5, 31, 32, 33] {
            let (enc, dec) = stride_codec(Width::W32, 4);
            let dec = RecoveringDecoder::new(dec, Width::W32);
            let (mut enc, mut dec) = epoch_wrap(enc, dec, interval);
            let t = trace(160);
            let flip_at = 10u64;
            for (i, v) in t.iter().enumerate() {
                let mut state = enc.encode(v);
                if i as u64 == flip_at {
                    state ^= 1 << flip_line;
                }
                let got = dec.decode(state).unwrap();
                if i as u64 >= (flip_at / interval + 1) * interval {
                    assert_eq!(got, v, "line {flip_line}: not reconverged at word {i}");
                }
            }
        }
    }

    #[test]
    fn recovery_outside_epoch_breaks_lockstep_documentation() {
        // The mis-ordering the docs warn about: RecoveringDecoder
        // around EpochDecoder zeroes the epoch counter on recovery.
        // This test pins the *correct* ordering's guarantee instead:
        // flushes still fire every `interval` encoder words.
        let interval = 16u64;
        let (enc, dec) = window_codec(Width::W32, 8);
        let dec = RecoveringDecoder::new(dec, Width::W32);
        let (mut enc, mut dec) = epoch_wrap(enc, dec, interval);
        for (i, v) in trace(64).iter().enumerate() {
            let mut state = enc.encode(v);
            if i == 3 {
                state |= 0b11 << 32; // force an inner error and local reset
            }
            let _ = dec.decode(state).unwrap();
        }
        assert_eq!(enc.flushes(), 3); // before words 16, 32, 48
        assert!(dec.inner().resync_events() >= 1);
    }
}
