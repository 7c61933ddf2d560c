//! Pins every [`Predictor::rank_of`] override to the trait's default
//! candidate walk.
//!
//! The overrides exist purely for speed (flat scans over the predictor
//! state instead of indexed `candidate` calls); the block-equivalence
//! tests cannot see a divergent override because both the per-word and
//! block paths route through `rank_of`. This harness replays the
//! default walk over `candidate()` verbatim and demands the override
//! agree on hits, misses, LAST-skips and every cap.

use buscoding::predict::{
    ContextConfig, Predictor, StridePredictor, TransitionContextPredictor, ValueContextPredictor,
    WindowPredictor,
};
use bustrace::{Width, Word};
use proptest::prelude::*;

/// The trait's default `rank_of` body, replayed over `candidate()`.
fn reference_rank_of(
    p: &dyn Predictor,
    value: Word,
    last: Option<Word>,
    cap: usize,
) -> Option<usize> {
    let mut rank = 1usize;
    let mut index = 0usize;
    while rank < cap {
        let c = p.candidate(index)?;
        index += 1;
        if Some(c) == last {
            continue;
        }
        if c == value {
            return Some(rank);
        }
        rank += 1;
    }
    None
}

/// Probes a predictor after an observation stream: every candidate
/// value, the engine's LAST, and a few values certain to miss, across
/// a spread of caps including 0, 1 and beyond the candidate count.
fn check(p: &dyn Predictor, words: &[Word]) {
    let last = words.last().copied();
    let mut probes: Vec<Word> = (0..p.max_candidates())
        .map_while(|i| p.candidate(i))
        .collect();
    probes.extend(last);
    probes.extend([0, 7, 0xdead_beef, u64::from(u32::MAX)]);
    for cap in [0usize, 1, 2, 3, 5, 9, 17, 33, 65] {
        for &v in &probes {
            assert_eq!(
                p.rank_of(v, last, cap),
                reference_rank_of(p, v, last, cap),
                "{p:?} diverged: value {v:#x} last {last:?} cap {cap}",
            );
        }
    }
}

/// Word streams mixing hot-set reuse, strided ramps and noise, so the
/// predictors' tables, shift registers and histories all populate.
fn word_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 0u64..12,
            2 => (0u64..40).prop_map(|k| 0x4000 + 8 * k),
            1 => any::<u32>().prop_map(u64::from),
        ],
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_rank_of_matches_default(words in word_stream(), entries in 1usize..20) {
        let mut p = WindowPredictor::new(entries);
        for &w in &words {
            p.observe(w);
        }
        check(&p, &words);
    }

    #[test]
    fn stride_rank_of_matches_default(words in word_stream(), strides in 1usize..12) {
        let mut p = StridePredictor::new(Width::W32, strides);
        for &w in &words {
            p.observe(w);
        }
        check(&p, &words);
    }

    #[test]
    fn value_context_rank_of_matches_default(
        words in word_stream(),
        table in 1usize..32,
        sr in 1usize..12,
    ) {
        let cfg = ContextConfig::new(Width::W32, table, sr);
        let mut p = ValueContextPredictor::new(&cfg);
        for &w in &words {
            p.observe(w);
        }
        check(&p, &words);
    }

    #[test]
    fn transition_context_rank_of_matches_default(
        words in word_stream(),
        table in 1usize..32,
        sr in 1usize..12,
    ) {
        let cfg = ContextConfig::new(Width::W32, table, sr);
        let mut p = TransitionContextPredictor::new(&cfg);
        for &w in &words {
            p.observe(w);
        }
        check(&p, &words);
    }
}
