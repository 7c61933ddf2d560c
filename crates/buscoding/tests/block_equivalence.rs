//! Property tests pinning the block-batched evaluation engine to the
//! per-word reference path, for every scheme the registry can build.
//!
//! Two claims:
//!
//! 1. [`Encoder::encode_block`] emits exactly the state sequence the
//!    per-word [`Encoder::encode`] loop emits, at any chunking, and
//!    leaves the same [`Encoder::predict_stats`] behind;
//! 2. [`evaluate_blocks`] produces an [`Activity`] identical (τ, κ,
//!    steps, final state) to the per-word [`evaluate`].
//!
//! Both must hold on every traffic regime the experiments exercise:
//! uniform noise, strided ramps, and looping hot-set (markov-flavored)
//! streams.

use buscoding::{evaluate, evaluate_blocks, scheme_by_name};
use bustrace::{Trace, Width};
use proptest::prelude::*;

/// One canonical name per registry family (and the inversion coder at
/// two design points, since λ changes its codebook ordering).
/// `trained:` needs an artifact on disk and is left out.
const SCHEMES: &[&str] = &[
    "identity",
    "inversion(1ch l1)",
    "inversion(2ch l0.5)",
    "stride(8)",
    "window(8)",
    "context-value(28+8 d4096)",
    "context-transition(28+8 d4096)",
    "workzone(4)",
    "fcm(2 2^12)",
];

/// The families in [`SCHEMES`] whose encoder predicts.
const PREDICTIVE: &[&str] = &[
    "stride",
    "window",
    "context-value",
    "context-transition",
    "fcm",
];

/// Word streams over the three regimes: random, stride, markov-ish
/// hot-set loops with noise.
fn word_stream() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        // Uniform noise.
        prop::collection::vec(any::<u32>().prop_map(u64::from), 0..500),
        // Strided ramps.
        (1u64..16, 0u64..0x10_0000, 0usize..500)
            .prop_map(|(stride, base, n)| { (0..n).map(|i| base + stride * i as u64).collect() }),
        // Hot-set loops with occasional noise (markov-flavored).
        prop::collection::vec(
            prop_oneof![
                4 => 0u64..8,
                2 => (0u64..50).prop_map(|k| 0x2000 + 4 * k),
                1 => any::<u32>().prop_map(u64::from),
            ],
            0..500,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Claim 1: `encode_block` is the per-word loop, at any chunking —
    /// including `identity`'s overridden fast path (it and `spatial`'s
    /// are the only overrides) — and counts the same predictor outcomes,
    /// one per word.
    #[test]
    fn encode_block_matches_per_word_encode(
        words in word_stream(),
        chunk in 1usize..97,
    ) {
        for name in SCHEMES {
            let mut reference = scheme_by_name(name, Width::W32).expect("registry name");
            let per_word: Vec<u64> = words
                .iter()
                .map(|&v| reference.encoder_mut().encode(v))
                .collect();

            let mut batched = scheme_by_name(name, Width::W32).expect("registry name");
            let mut states = Vec::new();
            for c in words.chunks(chunk) {
                batched.encoder_mut().encode_block(c, &mut states);
            }
            prop_assert_eq!(&per_word, &states, "scheme {} chunk {}", name, chunk);

            let stats = reference.encoder_mut().predict_stats();
            prop_assert_eq!(stats, batched.encoder_mut().predict_stats(), "scheme {}", name);
            let family = name.split('(').next().unwrap_or(name);
            match stats {
                Some(s) => {
                    prop_assert!(PREDICTIVE.contains(&family), "scheme {}", name);
                    let counted = s.last + s.ranked + s.raw + s.inverted;
                    prop_assert_eq!(counted, words.len() as u64, "scheme {}", name);
                }
                None => prop_assert!(!PREDICTIVE.contains(&family), "scheme {}", name),
            }
        }
    }

    /// Claim 2: the fused block evaluator reproduces the per-word
    /// Activity exactly — τ, κ, step count and final bus state.
    #[test]
    fn evaluate_blocks_matches_evaluate(words in word_stream()) {
        let trace = Trace::from_values(Width::W32, words);
        for name in SCHEMES {
            let mut reference = scheme_by_name(name, Width::W32).expect("registry name");
            let per_word = evaluate(reference.encoder_mut(), &trace);

            let mut batched = scheme_by_name(name, Width::W32).expect("registry name");
            let blocked = evaluate_blocks(batched.encoder_mut(), &trace);
            prop_assert_eq!(per_word, blocked, "scheme {}", name);
        }
    }
}
