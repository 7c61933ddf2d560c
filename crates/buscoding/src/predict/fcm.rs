//! Finite-context-method value prediction (Sazeides & Smith, the
//! paper's reference [19]), plugged into the transcoding engine.
//!
//! Two predictors share one hashed history:
//!
//! * **FCM** — `table[hash(last k values)] = next value`: learns exact
//!   recurring sequences;
//! * **DFCM** (differential FCM) — the same, over value *deltas*:
//!   `next = last + delta_table[hash(last k deltas)]`: learns recurring
//!   *stride patterns* even when absolute values never repeat.
//!
//! The engine offers FCM's prediction at rank 1 and DFCM's at rank 2
//! (after the implicit LAST value at rank 0). This is the "complex
//! combination of multiple prediction strategies" Figure 2 of the paper
//! anticipates feeding the transcoder.

use std::collections::VecDeque;

use bustrace::fnv::fnv1a_words;
use bustrace::{Width, Word};

use crate::predict::{predictive_codec, PredictiveDecoder, PredictiveEncoder, Predictor};

/// The combined FCM + DFCM predictor.
#[derive(Debug, Clone)]
pub struct FcmPredictor {
    width: Width,
    order: usize,
    mask: usize,
    /// Last `order` values, newest at the back.
    history: VecDeque<Word>,
    /// Last `order` deltas, newest at the back.
    deltas: VecDeque<Word>,
    /// FCM table: hash of value history -> predicted next value.
    value_table: Vec<Option<Word>>,
    /// DFCM table: hash of delta history -> predicted next delta.
    delta_table: Vec<Option<Word>>,
    /// Table index of the current value context, once `order` values
    /// exist; hashed once per word, for the prediction and then for
    /// training on the word that follows.
    value_index: Option<usize>,
    /// Table index of the current delta context, likewise.
    delta_index: Option<usize>,
    /// The candidate list for the next word.
    candidates: [Word; 2],
    len: usize,
}

impl FcmPredictor {
    /// Creates an empty predictor whose contexts hold `order` values
    /// (or deltas) and whose two tables hold `2^table_bits` entries each.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero or `table_bits` is outside `1..=24`.
    pub fn new(width: Width, order: usize, table_bits: u32) -> Self {
        assert!(order >= 1, "context order must be at least 1");
        assert!(
            (1..=24).contains(&table_bits),
            "table_bits must be in 1..=24"
        );
        let size = 1usize << table_bits;
        FcmPredictor {
            width,
            order,
            mask: size - 1,
            history: VecDeque::with_capacity(order),
            deltas: VecDeque::with_capacity(order),
            value_table: vec![None; size],
            delta_table: vec![None; size],
            value_index: None,
            delta_index: None,
            candidates: [0; 2],
            len: 0,
        }
    }

    /// Order-preserving hash of a full context into the table index
    /// space (word-wise FNV-1a); `None` until the context holds `order`
    /// words.
    fn table_index(&self, context: &VecDeque<Word>) -> Option<usize> {
        (context.len() >= self.order)
            .then(|| ((fnv1a_words(context.iter().copied()) >> 24) as usize) & self.mask)
    }
}

impl Predictor for FcmPredictor {
    fn max_candidates(&self) -> usize {
        2
    }

    fn candidates(&mut self) -> &[Word] {
        &self.candidates[..self.len]
    }

    fn observe(&mut self, value: Word, _slot: Option<usize>) {
        // Train both tables on the context that *preceded* this value.
        if let Some(h) = self.value_index {
            self.value_table[h] = Some(value);
        }
        if let Some(&last) = self.history.back() {
            let delta = self.width.truncate(value.wrapping_sub(last));
            if let Some(h) = self.delta_index {
                self.delta_table[h] = Some(delta);
            }
            if self.deltas.len() == self.order {
                self.deltas.pop_front();
            }
            self.deltas.push_back(delta);
        }
        if self.history.len() == self.order {
            self.history.pop_front();
        }
        self.history.push_back(value);

        // FCM's prediction ranks first, DFCM's second; with no FCM
        // prediction, DFCM's fills both ranks.
        self.value_index = self.table_index(&self.history);
        self.delta_index = self.table_index(&self.deltas);
        let fcm = self.value_index.and_then(|h| self.value_table[h]);
        let dfcm = self
            .delta_index
            .and_then(|h| self.delta_table[h])
            .map(|delta| self.width.truncate(value.wrapping_add(delta)));
        self.len = 0;
        for c in [fcm.or(dfcm), dfcm].into_iter().map_while(|c| c) {
            self.candidates[self.len] = c;
            self.len += 1;
        }
    }

    fn reset(&mut self) {
        self.history.clear();
        self.deltas.clear();
        self.value_table.fill(None);
        self.delta_table.fill(None);
        self.value_index = None;
        self.delta_index = None;
        self.len = 0;
    }
}

/// Builds a matched encoder/decoder pair for the FCM/DFCM scheme.
///
/// # Panics
///
/// Panics under the same conditions as [`FcmPredictor::new`].
pub fn fcm_codec(
    width: Width,
    order: usize,
    table_bits: u32,
) -> (
    PredictiveEncoder<FcmPredictor>,
    PredictiveDecoder<FcmPredictor>,
) {
    predictive_codec(
        width,
        FcmPredictor::new(width, order, table_bits),
        FcmPredictor::new(width, order, table_bits),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{evaluate, verify_roundtrip};
    use crate::identity::IdentityCodec;
    use crate::metrics::percent_energy_removed;
    use crate::predict::tests::feed;
    use bustrace::Trace;

    fn predictor() -> FcmPredictor {
        FcmPredictor::new(Width::W32, 2, 12)
    }

    #[test]
    fn fcm_learns_repeating_sequences() {
        let mut p = predictor();
        // Teach the cycle A B C A B C ...
        let seq = [0xAAAA_0001u64, 0xBBBB_0002, 0xCCCC_0003];
        for _ in 0..10 {
            for &v in &seq {
                feed(&mut p, v);
            }
        }
        // After ...B C the next is A.
        assert_eq!(p.candidates()[0], seq[0]);
    }

    #[test]
    fn dfcm_learns_stride_patterns_on_fresh_values() {
        let mut p = predictor();
        // Strictly increasing by 12: absolute values never repeat, so
        // plain FCM can't learn, but DFCM nails the delta pattern.
        for i in 0..100u64 {
            feed(&mut p, 0x9000_0000 + 12 * i);
        }
        assert_eq!(p.candidates()[1], 0x9000_0000 + 12 * 100);
    }

    #[test]
    fn cold_predictor_offers_nothing() {
        let mut p = predictor();
        assert!(p.candidates().is_empty());
        // One value: still no full context, so still nothing to offer.
        feed(&mut p, 7);
        assert!(p.candidates().is_empty());
    }

    #[test]
    fn round_trips_on_mixed_traffic() {
        let (mut enc, mut dec) = fcm_codec(Width::W32, 2, 12);
        let mut trace = Trace::new(Width::W32);
        let mut x = 3u64;
        for i in 0..8_000u64 {
            match i % 3 {
                0 => trace.push(0x100 + (i / 3) % 7),
                1 => trace.push(0x8000_0000 + 4 * i),
                _ => {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(5);
                    trace.push(x >> 23);
                }
            }
        }
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn removes_energy_on_periodic_traffic() {
        // A period-7 sequence of wide values: LAST never hits, window
        // would need 7 entries, FCM learns it outright.
        let seq: Vec<u64> = (0..7).map(|i| 0x1357_9BDFu64.wrapping_mul(i + 1)).collect();
        let trace = Trace::from_values(Width::W32, (0..30_000).map(|i| seq[i % 7]));
        let (mut enc, _) = fcm_codec(Width::W32, 2, 12);
        let coded = evaluate(&mut enc, &trace);
        let baseline = evaluate(&mut IdentityCodec::new(Width::W32), &trace);
        let removed = percent_energy_removed(&coded, &baseline, 1.0);
        assert!(removed > 80.0, "removed only {removed:.1}%");
    }

    #[test]
    #[should_panic(expected = "table_bits")]
    fn rejects_huge_tables() {
        let _ = FcmPredictor::new(Width::W32, 2, 30);
    }
}
