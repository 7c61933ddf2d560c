//! Scheme construction and evaluation: behavioral bus activity plus
//! circuit-level transcoder energy.

use buscoding::{evaluate_blocks, Activity, IdentityCodec, SchemeSpec};
use bustrace::Trace;
use hwmodel::crossover::CodingOutcome;
use hwmodel::{CircuitModel, ContextHardware, ContextHwConfig, OpCounts, WindowHardware};
use wiremodel::Technology;

/// Activity of the un-encoded bus over a trace.
pub fn baseline_activity(trace: &Trace) -> Activity {
    evaluate_blocks(&mut IdentityCodec::new(trace.width()), trace)
}

/// Runs the Window hardware model over a trace and returns its op
/// tally. The walk is technology-independent: sweeps over technologies
/// compute this once and price it per technology.
pub fn window_hw_ops(trace: &Trace, entries: usize) -> OpCounts {
    let mut hw = WindowHardware::new(entries);
    for v in trace.iter() {
        hw.present(v);
    }
    *hw.ops()
}

/// Prices a Window op tally for one technology: total transcoder energy
/// (both ends, dynamic + leakage) per bus value, in picojoules.
pub fn price_window_ops(ops: &OpCounts, entries: usize, tech: Technology, values: u64) -> f64 {
    price_both_ends(&CircuitModel::window(tech, entries), ops, values)
}

/// Runs the Window hardware model over a trace and prices it: total
/// transcoder energy (both ends, dynamic + leakage) per bus value, in
/// picojoules.
pub fn window_transcoder_pj_per_value(trace: &Trace, entries: usize, tech: Technology) -> f64 {
    price_window_ops(
        &window_hw_ops(trace, entries),
        entries,
        tech,
        trace.len() as u64,
    )
}

/// Runs the Context hardware model over a trace and prices it.
pub fn context_transcoder_pj_per_value(
    trace: &Trace,
    cfg: ContextHwConfig,
    tech: Technology,
) -> f64 {
    let mut hw = ContextHardware::new(cfg);
    for v in trace.iter() {
        hw.present(v);
    }
    price_both_ends(
        &CircuitModel::context(tech, cfg.table, cfg.shift),
        hw.ops(),
        trace.len() as u64,
    )
}

/// Prices an inversion coder per value (flat per-cycle cost).
pub fn inverter_transcoder_pj_per_value(tech: Technology) -> f64 {
    let circuit = CircuitModel::inverter(tech);
    let ops = OpCounts {
        cycles: 1,
        ..OpCounts::new()
    };
    2.0 * circuit.total_energy_pj(&ops)
}

fn price_both_ends(circuit: &CircuitModel, ops: &OpCounts, values: u64) -> f64 {
    // A zero-length trace performs no transcoder work; returning 0.0
    // (instead of dividing — a release-mode NaN/inf behind the old
    // debug_assert) keeps callers total-able.
    if values == 0 {
        return 0.0;
    }
    2.0 * circuit.total_energy_pj(ops) / values as f64
}

/// Full measurement of the Window design on a trace: behavioral wire
/// activity plus hardware energy, ready for crossover analysis.
pub fn window_outcome(trace: &Trace, entries: usize, tech: Technology) -> CodingOutcome {
    window_outcome_with_baseline(trace, baseline_activity(trace), entries, tech)
}

/// [`window_outcome`] with a precomputed baseline, so sweeps over entry
/// counts and technologies (the crossover experiments) can reuse a
/// memoized [`crate::Session::baseline`] instead of re-walking the
/// trace for every grid point.
pub fn window_outcome_with_baseline(
    trace: &Trace,
    baseline: Activity,
    entries: usize,
    tech: Technology,
) -> CodingOutcome {
    let mut pair = SchemeSpec::Window { entries }
        .build(trace.width())
        .expect("window fits");
    let coded = evaluate_blocks(pair.encoder_mut(), trace);
    let ops = window_hw_ops(trace, entries);
    window_outcome_from_parts(baseline, coded, trace.len() as u64, &ops, entries, tech)
}

/// [`window_outcome`] from fully precomputed parts: a memoized coded
/// activity (the session store) and a hoisted technology-independent op
/// tally ([`window_hw_ops`]). Technology grids pay only the pricing
/// arithmetic per point.
pub fn window_outcome_from_parts(
    baseline: Activity,
    coded: Activity,
    values: u64,
    ops: &OpCounts,
    entries: usize,
    tech: Technology,
) -> CodingOutcome {
    let transcoder = price_window_ops(ops, entries, tech, values);
    CodingOutcome::new(baseline, coded, values, transcoder)
}

/// Full measurement of the Context design on a trace.
pub fn context_outcome(trace: &Trace, cfg: ContextHwConfig, tech: Technology) -> CodingOutcome {
    let scheme = SchemeSpec::ContextValue {
        table: cfg.table,
        shift: cfg.shift,
        divide: cfg.divide_period,
    };
    let mut pair = scheme.build(trace.width()).expect("context fits");
    let coded = evaluate_blocks(pair.encoder_mut(), trace);
    let baseline = baseline_activity(trace);
    let transcoder = context_transcoder_pj_per_value(trace, cfg, tech);
    CodingOutcome::new(baseline, coded, trace.len() as u64, transcoder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bustrace::Width;

    fn looping_trace(n: usize) -> Trace {
        let set = [
            0xDEAD_BEEFu64,
            0x1234_5678,
            0xCAFE_F00D,
            0xABAD_CAFE,
            0x0BAD_F00D,
        ];
        Trace::from_values(Width::W32, (0..n).map(|i| set[i % 5]))
    }

    #[test]
    fn window_removes_energy_on_looping_traffic() {
        let t = looping_trace(20_000);
        let mut pair = SchemeSpec::Window { entries: 8 }.build(t.width()).unwrap();
        let coded = evaluate_blocks(pair.encoder_mut(), &t);
        let removed = buscoding::percent_energy_removed(&coded, &baseline_activity(&t), 1.0);
        assert!(removed > 60.0, "{removed}");
    }

    #[test]
    fn hardware_pricing_is_positive_and_sane() {
        let t = looping_trace(5_000);
        let pj = window_transcoder_pj_per_value(&t, 8, Technology::tech_013());
        // Table 2: ~1.39 pJ/cycle per end, so both ends land near 2.8.
        assert!(pj > 1.0 && pj < 6.0, "window pricing {pj} pJ/value");
        let ctx = context_transcoder_pj_per_value(
            &t,
            ContextHwConfig::paper_layout(),
            Technology::tech_013(),
        );
        assert!(
            ctx > pj,
            "context hardware must cost more than window: {ctx} vs {pj}"
        );
    }

    #[test]
    fn empty_trace_prices_to_zero() {
        // Regression: a zero-length trace must price to 0.0, not divide
        // by zero (NaN/inf in release builds).
        let empty = Trace::from_values(Width::W32, std::iter::empty::<u64>());
        let pj = window_transcoder_pj_per_value(&empty, 8, Technology::tech_013());
        assert_eq!(pj, 0.0);
        let ctx = context_transcoder_pj_per_value(
            &empty,
            ContextHwConfig::paper_layout(),
            Technology::tech_013(),
        );
        assert_eq!(ctx, 0.0);
    }

    #[test]
    fn inverter_pricing_matches_table2() {
        let pj = inverter_transcoder_pj_per_value(Technology::tech_013());
        assert!((pj - 2.0 * (1.76 + 0.00055)).abs() < 1e-6);
    }

    #[test]
    fn outcome_crosses_over_for_friendly_traffic() {
        use wiremodel::WireStyle;
        let t = looping_trace(20_000);
        let o = window_outcome(&t, 8, Technology::tech_013());
        let l = o.crossover_mm(Technology::tech_013(), WireStyle::Repeated);
        assert!(l.is_some(), "looping traffic must break even");
        assert!(l.unwrap() < 30.0, "crossover {l:?} too long");
    }
}
