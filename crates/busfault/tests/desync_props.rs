//! Property tests for the desync/recovery guarantees of the robust
//! wrappers, over every predictive codec family.
//!
//! The claim under test (docs/ROBUSTNESS.md): under epoch
//! resynchronization plus bounded-recovery decode, a single flip
//! anywhere leaves the pair provably reconverged from the next epoch
//! boundary on — it is either detected (and absorbed as a resync
//! event) or its corruption ends at the boundary.

use buscoding::predict::{
    context_value_codec, fcm_codec, stride_codec, window_codec, ContextConfig,
};
use buscoding::robust::{epoch_wrap, RecoveringDecoder};
use buscoding::{Decoder, Encoder};
use busfault::{ErrorPolicy, FaultChannel, SingleFlip};
use bustrace::{Trace, Width};
use proptest::prelude::*;

/// Every predictive codec family, freshly constructed.
fn codec(family: usize) -> (Box<dyn Encoder>, Box<dyn Decoder>) {
    let w = Width::W32;
    match family {
        0 => {
            let (e, d) = window_codec(w, 8);
            (Box::new(e), Box::new(d))
        }
        1 => {
            let (e, d) = stride_codec(w, 4);
            (Box::new(e), Box::new(d))
        }
        2 => {
            let (e, d) = context_value_codec(ContextConfig::new(w, 28, 8).with_divide_period(512));
            (Box::new(e), Box::new(d))
        }
        _ => {
            let (e, d) = fcm_codec(w, 2, 10);
            (Box::new(e), Box::new(d))
        }
    }
}

/// Word streams mixing hot repeats, strided runs and noise — the
/// regimes where the predictors carry real state worth desyncing.
fn word_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 0u64..6,
            3 => (0u64..50).prop_map(|k| 0x1000 + 4 * k),
            2 => any::<u32>().prop_map(u64::from),
        ],
        80..220,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Epoch resync + recovering decode bounds the damage of a
    /// single flip to the epoch it lands in — every word from the next
    /// boundary on decodes correctly, on every predictive family.
    #[test]
    fn single_flip_reconverges_within_epoch(
        words in word_stream(),
        family in 0usize..4,
        interval in prop_oneof![Just(16u64), Just(32), Just(64)],
        at_pct in 0u64..100,
        line_pick in any::<u32>(),
    ) {
        let trace = Trace::from_values(Width::W32, words.clone());
        let (enc, dec) = codec(family);
        let dec = RecoveringDecoder::new(dec, Width::W32);
        let (mut enc, mut dec) = epoch_wrap(enc, dec, interval);
        let at = (trace.len() - 1) as u64 * at_pct / 100;
        let line = line_pick % enc.lines();
        let boundary = (at / interval + 1) * interval;

        enc.reset();
        dec.reset();
        let mut wrong_after_boundary = Vec::new();
        for (i, v) in trace.iter().enumerate() {
            let mut state = enc.encode(v);
            if i as u64 == at {
                state ^= 1u64 << line;
            }
            // The recovering decoder never reports an error upward.
            let got = dec.decode(state).unwrap();
            if i as u64 >= boundary && got != v {
                wrong_after_boundary.push(i);
            }
        }
        prop_assert!(
            wrong_after_boundary.is_empty(),
            "family {} interval {} flip@{} line {}: wrong words after boundary {}: {:?}",
            family, interval, at, line, boundary, wrong_after_boundary
        );
    }

    /// The flip is never silently ignored when it matters: either it is
    /// detected/absorbed (resync event), or it corrupts at least one
    /// word, or it was genuinely harmless (the flipped state decoded to
    /// the right word and left equivalent decoder state) — in which
    /// case the whole stream must still be correct.
    #[test]
    fn single_flip_is_accounted_for(
        words in word_stream(),
        family in 0usize..4,
        line_pick in any::<u32>(),
    ) {
        let trace = Trace::from_values(Width::W32, words);
        let (enc, dec) = codec(family);
        let dec = RecoveringDecoder::new(dec, Width::W32);
        let (mut enc, mut dec) = epoch_wrap(enc, dec, 32);
        let at = (trace.len() / 2) as u64;
        let line = line_pick % enc.lines();
        let mut fault = SingleFlip::new(at, line);
        let report = FaultChannel::new(ErrorPolicy::Continue)
            .run(&mut enc, &mut dec, &mut fault, &trace);
        let resyncs = dec.inner().resync_events();
        prop_assert!(
            resyncs > 0 || report.corrupted_words > 0 || report.clean(),
            "flip neither detected, corrupting, nor harmless: {:?}",
            report
        );
        // And in every case the pair is back in sync by the end.
        prop_assert!(report.resynchronized(), "{:?}", report);
    }
}
