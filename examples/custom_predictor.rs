//! Plug a custom value predictor into the transcoding engine.
//!
//! The engine (Figure 2 of the paper) is predictor-agnostic: anything
//! that offers a confidence-ranked candidate list and updates from the
//! confirmed value stream can drive the bus. Each word the engine asks
//! for the list once, as one slice, matches the word against it once,
//! and reports the matched slot back to `observe`. Here we build a simple
//! two-level predictor — a per-low-byte last-value table — and verify it
//! round-trips and saves energy on traffic it suits.
//!
//! ```sh
//! cargo run --release --example custom_predictor
//! ```

use buscoding::predict::{predictive_codec, Predictor};
use buscoding::{evaluate, percent_energy_removed, verify_roundtrip, IdentityCodec};
use bustrace::{Trace, Width, Word};

/// Predicts the last value seen *for the current stream class*, where
/// the class is the low byte of the previous word — useful when several
/// tagged streams interleave on one bus.
#[derive(Debug, Clone)]
struct TaggedLastValue {
    table: Vec<Option<Word>>,
    previous: Option<Word>,
    /// The candidate list handed to the engine: empty, or the one
    /// prediction for the current class.
    prediction: Option<Word>,
}

impl TaggedLastValue {
    fn new() -> Self {
        TaggedLastValue {
            table: vec![None; 256],
            previous: None,
            prediction: None,
        }
    }

    fn class_of(word: Word) -> usize {
        (word & 0xFF) as usize
    }
}

impl Predictor for TaggedLastValue {
    fn max_candidates(&self) -> usize {
        1
    }

    fn candidates(&mut self) -> &[Word] {
        self.prediction.as_slice()
    }

    fn observe(&mut self, value: Word, _slot: Option<usize>) {
        // A one-entry list needs no slot: a hit and a miss update the
        // table the same way.
        if let Some(p) = self.previous {
            self.table[Self::class_of(p)] = Some(value);
        }
        self.previous = Some(value);
        self.prediction = self.table[Self::class_of(value)];
    }

    fn reset(&mut self) {
        self.table.fill(None);
        self.previous = None;
        self.prediction = None;
    }
}

fn main() {
    // Traffic: four interleaved streams, each repeating its own value
    // with occasional drift; the stream id lives in the low byte.
    let mut values = Vec::new();
    let mut bases = [0x1111_1100u64, 0x2222_2200, 0x3333_3300, 0x4444_4400];
    for i in 0..80_000usize {
        let s = i % 4;
        if i % 97 == 0 {
            bases[s] = bases[s].wrapping_add(0x0101_0000);
        }
        values.push(bases[s] | s as u64);
    }
    let trace = Trace::from_values(Width::W32, values);

    // Both ends run their own predictor; the pair shares one codebook.
    let (mut enc, mut dec) =
        predictive_codec(Width::W32, TaggedLastValue::new(), TaggedLastValue::new());

    // Correctness first: the decoder must recover every word.
    verify_roundtrip(&mut enc, &mut dec, &trace).expect("custom predictor must round-trip");
    println!("round-trip: ok ({} values)", trace.len());

    // Then effectiveness.
    let coded = evaluate(&mut enc, &trace);
    let baseline = evaluate(&mut IdentityCodec::new(Width::W32), &trace);
    let removed = percent_energy_removed(&coded, &baseline, 1.0);
    println!("tagged-last-value removes {removed:.1}% of weighted transitions");

    // Compare with the paper's window scheme on the same traffic.
    use buscoding::predict::window_codec;
    let (mut wenc, _) = window_codec(Width::W32, 8);
    let wcoded = evaluate(&mut wenc, &trace);
    let wremoved = percent_energy_removed(&wcoded, &baseline, 1.0);
    println!("window(8) removes {wremoved:.1}% on the same traffic");
}
