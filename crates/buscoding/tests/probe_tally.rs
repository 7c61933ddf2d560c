//! The predictive encoder's accuracy probes count the same outcomes
//! whether words arrive one at a time ([`evaluate`]) or in blocks
//! ([`evaluate_blocks`], which tallies per block and flushes once).

use std::sync::{Mutex, MutexGuard, OnceLock};

use buscoding::{evaluate, evaluate_blocks, scheme_by_name, BLOCK_WORDS};
use bustrace::{Trace, Width};

/// The busprobe registry is process-global, so tests that assert
/// counter deltas must not overlap.
fn probe_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The probe readings, in registration-independent form: hit_last,
/// hit_ranked, miss, and the hit-rank histogram's count and sum.
fn readings() -> [u64; 5] {
    let counter = |name| busprobe::counter(name).value();
    let ranks = busprobe::histogram("buscoding.predict.hit_rank", &[0, 1, 2, 4, 8, 16, 32]);
    [
        counter("buscoding.predict.hit_last"),
        counter("buscoding.predict.hit_ranked"),
        counter("buscoding.predict.miss"),
        ranks.count(),
        ranks.sum(),
    ]
}

/// Runs `f` with probes enabled and returns how far each reading moved.
fn probe_delta(f: impl FnOnce()) -> [u64; 5] {
    let before = readings();
    busprobe::set_enabled(true);
    f();
    busprobe::set_enabled(false);
    let after = readings();
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn block_tallies_equal_per_word_probe_counts() {
    let _g = probe_lock();
    // Hot-set reuse, a ramp and noise, spanning several blocks, so all
    // three outcomes and a spread of ranks occur.
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
        let words = probe_delta(|| {
            evaluate(per_word.encoder_mut(), &trace);
        });
        let blocks = probe_delta(|| {
            evaluate_blocks(blocked.encoder_mut(), &trace);
        });
        assert_eq!(words, blocks, "{name}: per-word vs block probe deltas");
        assert_eq!(
            words[..3].iter().sum::<u64>(),
            trace.len() as u64,
            "{name}: every word is counted once"
        );
        assert!(words.iter().all(|&n| n > 0), "{name}: {words:?}");
    }
}
