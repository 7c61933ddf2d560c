//! Property tests for the adaptive controller's reconvergence
//! guarantee under fault injection.
//!
//! The claim (docs/ADAPTIVE.md): because every decision boundary
//! flushes the live pair to power-on, a single injected line flip —
//! *including one landing in the very cycle a scheme switch takes
//! effect* — corrupts at most the remainder of its decision window.
//! From the next boundary on, every word decodes correctly.

use busadapt::{AdaptiveConfig, AdaptiveTranscoder, GreedyShadowPolicy, OraclePolicy};
use busfault::{FaultChannel, SingleFlip};
use bustrace::{Trace, Width};
use proptest::prelude::*;

const CANDIDATES: [&str; 2] = ["window(8)", "stride(4)"];

/// Word streams mixing hot repeats, strided runs and noise, long
/// enough to hold several decision windows at every tested period.
fn word_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 0u64..6,
            3 => (0u64..50).prop_map(|k| 0x1000 + 4 * k),
            2 => any::<u32>().prop_map(u64::from),
        ],
        100..240,
    )
}

/// An adaptive controller forced to switch schemes at *every* boundary
/// by an alternating oracle schedule — so a flip aimed at a boundary
/// step always coincides with a live scheme switch.
fn always_switching(period: u64, windows: usize) -> AdaptiveTranscoder {
    let schedule: Vec<usize> = (0..windows.max(2)).map(|w| w % 2).collect();
    let cfg = AdaptiveConfig::new(Width::W32, CANDIDATES, period).with_initial(0);
    AdaptiveTranscoder::new(cfg, Box::new(OraclePolicy::new(schedule))).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A flip injected in the same cycle as a scheme switch (the
    /// boundary word) reconverges within one epoch.
    #[test]
    fn flip_at_a_switch_cycle_reconverges_within_one_epoch(
        words in word_stream(),
        period_pick in 0usize..2,
        boundary_pick in 1u64..8,
        line_pick in any::<u32>(),
    ) {
        let period = [16u64, 32][period_pick];
        let trace = Trace::from_values(Width::W32, words);
        let len = trace.len() as u64;
        // Pick a boundary with at least one full window after it, so
        // "reconverged by the next boundary" is observable.
        let last_usable = (len - 1) / period - 1;
        prop_assume!(last_usable >= 1);
        let k = 1 + (boundary_pick - 1) % last_usable;
        let flip_at = k * period;

        let mut adaptive = always_switching(period, (len / period) as usize + 2);
        let lines = adaptive.transcoder_mut().lines();
        let mut fault = SingleFlip::new(flip_at, line_pick % lines);
        let report =
            FaultChannel::default().run_pair(adaptive.transcoder_mut(), &mut fault, &trace);
        let adapt = adaptive.report();

        // The alternating schedule really did switch at every boundary,
        // so the flip landed in a switch cycle.
        prop_assert_eq!(adapt.switches, adapt.flushes, "schedule must force a switch per boundary");
        prop_assert!(adapt.switch_log.iter().any(|s| s.at_word == flip_at));

        // Bounded recovery absorbs any detection; nothing halts.
        prop_assert_eq!(report.detected_errors, 0, "{:?}", report);
        prop_assert!(report.resynchronized(), "{:?} / {:?}", report, adapt);
        prop_assert!(
            report.reconverged_at.unwrap() <= flip_at + period,
            "corruption outlived the epoch: {:?}", report
        );
    }

    /// The same bound holds for a flip anywhere in a window, with the
    /// controller running a real online policy instead of a forced
    /// schedule.
    #[test]
    fn any_single_flip_reconverges_within_one_epoch(
        words in word_stream(),
        period_pick in 0usize..2,
        at_pct in 0u64..100,
        line_pick in any::<u32>(),
    ) {
        let period = [16u64, 32][period_pick];
        let trace = Trace::from_values(Width::W32, words);
        let len = trace.len() as u64;
        let flip_at = (len - 1) * at_pct / 100;
        let next_boundary = (flip_at / period + 1) * period;
        prop_assume!(next_boundary < len);

        let cfg = AdaptiveConfig::new(Width::W32, CANDIDATES, period);
        let mut adaptive =
            AdaptiveTranscoder::new(cfg, Box::new(GreedyShadowPolicy::new(0.05))).unwrap();
        let lines = adaptive.transcoder_mut().lines();
        let mut fault = SingleFlip::new(flip_at, line_pick % lines);
        let report =
            FaultChannel::default().run_pair(adaptive.transcoder_mut(), &mut fault, &trace);

        prop_assert!(report.resynchronized(), "{:?}", report);
        prop_assert!(
            report.reconverged_at.unwrap() <= next_boundary,
            "corruption outlived the epoch: {:?}", report
        );
    }
}

#[test]
fn clean_adaptive_channel_reports_clean() {
    let trace = Trace::from_values(Width::W32, (0..400u64).map(|i| i % 9));
    let mut adaptive = always_switching(32, 16);
    let report =
        FaultChannel::default().run_pair(adaptive.transcoder_mut(), &mut busfault::NoFault, &trace);
    let adapt = adaptive.report();
    assert!(report.clean(), "{report:?}");
    assert_eq!(adapt.words, 400);
    assert!(adapt.switches > 0);
}
