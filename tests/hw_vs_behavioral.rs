//! Cross-crate consistency: the cycle-level hardware models in
//! `hwmodel` must agree with the behavioral codecs in `buscoding` on
//! every coding decision (window design), and preserve their documented
//! invariants under real traffic (context design).

use buscoding::predict::{window_codec, EncodeOutcome};
use buscoding::Encoder;
use hwmodel::{ContextHardware, ContextHwConfig, HwOutcome, WindowHardware};
use simcpu::{Benchmark, BusKind};

#[test]
fn window_hardware_matches_behavioral_decisions_exactly() {
    for b in [
        Benchmark::Gcc,
        Benchmark::Li,
        Benchmark::Swim,
        Benchmark::Mgrid,
    ] {
        let trace = b.trace(BusKind::Register, 30_000, 4);
        let (mut enc, _) = window_codec(trace.width(), 8);
        enc.reset();
        let mut hw = WindowHardware::new(8);
        for (i, v) in trace.iter().enumerate() {
            enc.encode(v);
            let behavioral = enc.last_outcome().expect("encoded at least one word");
            let hardware = hw.present(v);
            let agree = match (behavioral, hardware) {
                (EncodeOutcome::Hit { rank: a }, HwOutcome::Hit { rank: b }) => a == b,
                (EncodeOutcome::MissRaw | EncodeOutcome::MissInverted, HwOutcome::Miss) => true,
                _ => false,
            };
            assert!(
                agree,
                "{b} step {i}: behavioral {behavioral:?} vs hardware {hardware:?} for value {v:#x}"
            );
        }
    }
}

#[test]
fn window_hardware_op_counts_are_consistent() {
    let trace = Benchmark::Perl.trace(BusKind::Register, 20_000, 4);
    let mut hw = WindowHardware::new(8);
    let mut misses = 0u64;
    for v in trace.iter() {
        if hw.present(v) == HwOutcome::Miss {
            misses += 1;
        }
    }
    let ops = hw.ops();
    assert_eq!(ops.cycles, trace.len() as u64);
    assert_eq!(ops.shifts, misses, "one pointer-based shift per miss");
    // Precharge fires for every valid entry every cycle; the array fills
    // after 8 distinct values, so the count approaches 8/cycle.
    assert!(ops.precharge_matches <= 8 * ops.cycles);
    assert!(ops.precharge_matches > 7 * ops.cycles / 2);
    // Full matches are a strict subset of precharge matches.
    assert!(ops.full_matches <= ops.precharge_matches);
}

#[test]
fn context_hardware_invariants_on_real_traffic() {
    for b in [Benchmark::Compress, Benchmark::Apsi] {
        let trace = b.trace(BusKind::Register, 30_000, 4);
        let mut hw = ContextHardware::new(ContextHwConfig {
            table: 16,
            shift: 8,
            divide_period: 1024,
            promote_threshold: 2,
        });
        for v in trace.iter() {
            hw.present(v);
            debug_assert!(hw.is_sorted());
        }
        assert!(hw.is_sorted(), "{b}: table must stay sorted");
        assert!(hw.tags_unique(), "{b}: tags must stay unique");
        // The design must actually be exercising its machinery.
        let ops = hw.ops();
        assert!(ops.swaps > 0, "{b}: no swaps happened");
        assert!(ops.promotions > 0, "{b}: nothing was ever promoted");
        assert!(ops.divide_writes > 0, "{b}: divider never ran");
    }
}

#[test]
fn context_hardware_hit_rate_tracks_behavioral_closely() {
    use buscoding::predict::{context_value_codec, ContextConfig};
    // The pending-bit sort lags the ideal re-sort, so decisions are not
    // identical — but hit *rates* must be close, or the hardware model
    // would invalidate the behavioral energy numbers.
    for b in [Benchmark::Li, Benchmark::Go] {
        let trace = b.trace(BusKind::Register, 30_000, 4);
        let cfg = ContextConfig::new(trace.width(), 16, 8).with_divide_period(1024);
        let (mut enc, _) = context_value_codec(cfg);
        enc.reset();
        let mut behavioral_hits = 0u64;
        for v in trace.iter() {
            enc.encode(v);
            if matches!(enc.last_outcome(), Some(EncodeOutcome::Hit { .. })) {
                behavioral_hits += 1;
            }
        }
        let mut hw = ContextHardware::new(ContextHwConfig {
            table: 16,
            shift: 8,
            divide_period: 1024,
            promote_threshold: 2,
        });
        let mut hw_hits = 0u64;
        for v in trace.iter() {
            if matches!(hw.present(v), HwOutcome::Hit { .. }) {
                hw_hits += 1;
            }
        }
        let n = trace.len() as f64;
        let (bh, hh) = (behavioral_hits as f64 / n, hw_hits as f64 / n);
        assert!(
            (bh - hh).abs() < 0.15,
            "{b}: behavioral hit rate {bh:.3} vs hardware {hh:.3}"
        );
    }
}
