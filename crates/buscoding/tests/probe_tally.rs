//! The predictive encoder's own outcome counts ([`Encoder::predict_stats`])
//! are the same whether words arrive one at a time ([`evaluate`]) or in
//! blocks ([`evaluate_blocks`]), on a trace spanning several blocks on
//! which every outcome occurs. The counts live on the encoder, so no
//! lock is needed.
//!
//! [`Encoder::predict_stats`]: buscoding::Encoder::predict_stats

use buscoding::{evaluate, evaluate_blocks, scheme_by_name, BLOCK_WORDS};
use bustrace::{Trace, Width};

#[test]
fn block_tallies_equal_per_word_probe_counts() {
    // Hot-set reuse, a ramp and noise, spanning several blocks, so all
    // four outcomes occur.
    let mut x = 17u64;
    let trace = Trace::from_values(
        Width::W32,
        (0..3 * BLOCK_WORDS as u64 + 123).map(|i| match i % 5 {
            0 | 1 => 0x100 + (i / 5) % 3,
            2 => 0x200 + (i / 5) % 2,
            3 => 0x8000 + 4 * i,
            _ => {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
                x >> 33
            }
        }),
    );
    for name in ["window(8)", "context-value(28+8 d4096)", "stride(8)"] {
        let mut per_word = scheme_by_name(name, Width::W32).expect("registry name");
        let mut blocked = scheme_by_name(name, Width::W32).expect("registry name");
        evaluate(per_word.encoder_mut(), &trace);
        evaluate_blocks(blocked.encoder_mut(), &trace);
        let words = per_word.encoder_mut().predict_stats().expect("predictive");
        let blocks = blocked.encoder_mut().predict_stats().expect("predictive");
        assert_eq!(words, blocks, "{name}: per-word vs block counts");
        let counts = [words.last, words.ranked, words.raw, words.inverted];
        assert_eq!(
            counts.iter().sum::<u64>(),
            trace.len() as u64,
            "{name}: every word is counted once"
        );
        assert!(counts.iter().all(|&n| n > 0), "{name}: {counts:?}");
    }
}
