//! `fault-sweep`: corruption, detection and recovery of predictive
//! transcoders under injected bus faults.
//!
//! The paper's pairs assume an error-free channel; this experiment
//! quantifies what that assumption costs and what the
//! `buscoding::robust` countermeasures buy back:
//!
//! * upset-rate sweep (scheme × rate × resync interval) — mean silently
//!   corrupted words per upset and detection counts;
//! * single-flip recovery — every predictive scheme under epoch
//!   resync + bounded-recovery decode must reconverge within one epoch;
//! * resync energy — the epoch-flush tax priced through the Window
//!   hardware model, shifted crossover included;
//! * timing-error mode — upset probabilities derived from the wire
//!   model's delay distribution, worsening with length.

use buscoding::predict::window_codec;
use buscoding::robust::{epoch_wrap, RecoveringDecoder};
use buscoding::{evaluate, scheme_by_name, Encoder};
use busfault::{ErrorPolicy, FaultChannel, RandomUpsets, SingleFlip, TimingFaults};
use bustrace::Trace;
use hwmodel::crossover::CodingOutcome;
use hwmodel::CircuitModel;
use simcpu::{Benchmark, BusKind};
use wiremodel::{Technology, Wire, WireStyle};

use crate::report::{f, opt_mm, Table};
use crate::schemes::{baseline_activity, window_transcoder_pj_per_value};
use crate::workloads::Workload;
use crate::Session;

/// The predictive schemes under test: the label the fault tables print,
/// and the scheme's name in the registry grammar.
const PREDICTIVE: [(&str, &str); 4] = [
    ("stride(8)", "stride(8)"),
    ("window(8)", "window(8)"),
    ("context-value(28+8)", "context-value(28+8 d4096)"),
    ("fcm(o2/2^12)", "fcm(2 2^12)"),
];

/// Splits a seed deterministically per (scheme, cell) without
/// correlating adjacent cells.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^ (x >> 33)
}

/// The fault-injection sweep: four tables covering random upsets,
/// single-flip recovery, the resync energy tax, and wire-derived
/// timing errors.
pub fn fault_sweep(session: &Session) -> Vec<Table> {
    let trace = session.trace_capped(Workload::Bench(Benchmark::Gcc, BusKind::Register), 20_000);
    let seed = session.seed();
    vec![
        upset_sweep(seed, &trace),
        single_flip_recovery(seed, &trace),
        resync_energy(&trace),
        timing_mode(seed, &trace),
    ]
}

/// Scheme × upset rate × resync interval: silent corruption and
/// detection under uniformly random single-line upsets.
fn upset_sweep(seed: u64, trace: &Trace) -> Table {
    let mut t = Table::new(
        "fault-sweep-upsets",
        "Random upsets: corruption and detection vs resync interval (gcc register bus)",
        &[
            "scheme",
            "upset_rate",
            "resync_interval",
            "faulted_steps",
            "detected",
            "corrupted_words",
            "corrupted_per_upset",
            "resynced_by_end",
        ],
    );
    const RATES: [f64; 2] = [1e-4, 1e-3];
    const INTERVALS: [u64; 2] = [0, 256]; // 0 = no resync
    let channel = FaultChannel::new(ErrorPolicy::Continue);
    for (si, (name, scheme)) in PREDICTIVE.iter().enumerate() {
        for (ri, &rate) in RATES.iter().enumerate() {
            for &interval in &INTERVALS {
                // Fresh FSMs per cell: the channel resets state, but a
                // fresh pair keeps cells fully independent.
                let pair = scheme_by_name(scheme, trace.width()).expect("fits the register bus");
                let mut fault =
                    RandomUpsets::new(rate, mix(seed, si as u64, ((ri as u64) << 16) | interval));
                let report = if interval == 0 {
                    let mut pair = pair;
                    channel.run_pair(&mut pair, &mut fault, trace)
                } else {
                    let (enc, dec) = pair.into_parts();
                    let (mut enc, mut dec) = epoch_wrap(enc, dec, interval);
                    channel.run(&mut enc, &mut dec, &mut fault, trace)
                };
                t.push(vec![
                    name.to_string(),
                    format!("{rate:e}"),
                    if interval == 0 {
                        "none".to_string()
                    } else {
                        interval.to_string()
                    },
                    report.faulted_steps.to_string(),
                    report.detected_errors.to_string(),
                    report.corrupted_words.to_string(),
                    f(report.corrupted_per_upset(), 2),
                    if report.resynchronized() { "yes" } else { "no" }.to_string(),
                ]);
            }
        }
    }
    t
}

/// One flipped bit per trial under epoch(128) resync plus
/// bounded-recovery decode: every trial must reconverge within one
/// epoch of the flip.
fn single_flip_recovery(seed: u64, trace: &Trace) -> Table {
    let mut t = Table::new(
        "fault-sweep-flip",
        "Single bit flip under epoch(128) + recovering decode (gcc register bus)",
        &[
            "scheme",
            "trials",
            "recovered_within_epoch_pct",
            "mean_corrupted_words",
            "max_recovery_latency",
        ],
    );
    const INTERVAL: u64 = 128;
    const TRIALS: u64 = 40;
    let words = trace.len() as u64;
    let channel = FaultChannel::new(ErrorPolicy::Continue);
    for (si, (name, scheme)) in PREDICTIVE.iter().enumerate() {
        let mut recovered = 0u64;
        let mut corrupted_sum = 0u64;
        let mut max_latency = 0u64;
        for trial in 0..TRIALS {
            let pair = scheme_by_name(scheme, trace.width()).expect("fits the register bus");
            let (enc, dec) = pair.into_parts();
            let dec = RecoveringDecoder::new(dec, trace.width());
            let (mut enc, mut dec) = epoch_wrap(enc, dec, INTERVAL);
            let x = mix(seed, si as u64, trial);
            // Leave at least one full epoch after the flip. (For very
            // short traces, fall back to flipping anywhere.)
            let at = if words > 2 * INTERVAL {
                x % (words - 2 * INTERVAL) + INTERVAL
            } else {
                x % words.max(1)
            };
            let line = ((x >> 32) % u64::from(enc.lines())) as u32;
            let mut fault = SingleFlip::new(at, line);
            let report = channel.run(&mut enc, &mut dec, &mut fault, trace);
            let boundary = (at / INTERVAL + 1) * INTERVAL;
            if let Some(rc) = report.reconverged_at {
                if rc <= boundary {
                    recovered += 1;
                    max_latency = max_latency.max(rc.saturating_sub(at));
                }
            }
            corrupted_sum += report.corrupted_words;
        }
        t.push(vec![
            name.to_string(),
            TRIALS.to_string(),
            f(recovered as f64 / TRIALS as f64 * 100.0, 1),
            f(corrupted_sum as f64 / TRIALS as f64, 2),
            max_latency.to_string(),
        ]);
    }
    t
}

/// The price of robustness: epoch flushes cost predictor-refill wire
/// energy (visible in the coded activity) plus transcoder state-clear
/// energy (priced via the Window hardware model), moving the crossover.
fn resync_energy(trace: &Trace) -> Table {
    let mut t = Table::new(
        "fault-sweep-energy",
        "Resync energy tax: window(8) percent removed and crossover vs epoch interval",
        &[
            "resync_interval",
            "percent_removed",
            "flushes",
            "transcoder_pj_per_value",
            "crossover_mm",
        ],
    );
    const ENTRIES: usize = 8;
    let tech = Technology::tech_013();
    let baseline = baseline_activity(trace);
    let base_tau = baseline.weighted(1.0);
    let transcoder = window_transcoder_pj_per_value(trace, ENTRIES, tech);
    // Clearing the CAM on a flush rewrites every entry at both ends.
    let pj_per_flush = 2.0 * ENTRIES as f64 * CircuitModel::window(tech, ENTRIES).energies().shift;
    for interval in [0u64, 64, 256, 1024, 4096] {
        let (enc, dec) = window_codec(trace.width(), ENTRIES);
        let (coded, flushes) = if interval == 0 {
            let mut enc = enc;
            (evaluate(&mut enc, trace), 0)
        } else {
            let (mut enc, _dec) = epoch_wrap(enc, dec, interval);
            let a = evaluate(&mut enc, trace);
            (a, enc.flushes())
        };
        let removed = (1.0 - coded.weighted(1.0) / base_tau) * 100.0;
        let outcome = CodingOutcome::new(baseline, coded, trace.len() as u64, transcoder)
            .with_resync_tax(flushes, pj_per_flush);
        t.push(vec![
            if interval == 0 {
                "none".to_string()
            } else {
                interval.to_string()
            },
            f(removed, 1),
            flushes.to_string(),
            f(outcome.transcoder_pj_per_value, 3),
            opt_mm(outcome.crossover_mm(tech, WireStyle::Repeated)),
        ]);
    }
    t
}

/// Wire-derived timing errors: per-line upset probability from the
/// delay model, with corruption measured end to end under epoch
/// resync + recovery.
fn timing_mode(seed: u64, trace: &Trace) -> Table {
    let mut t = Table::new(
        "fault-sweep-timing",
        "Timing-error mode: wire-length-derived upsets, window(8), epoch(256) + recovery",
        &[
            "length_mm",
            "base_upset_prob",
            "faulted_steps",
            "corrupted_words",
            "resynced_by_end",
        ],
    );
    const CYCLE_PS: f64 = 1000.0;
    const SIGMA_PS: f64 = 100.0;
    let tech = Technology::tech_013();
    let channel = FaultChannel::new(ErrorPolicy::Continue);
    for (i, &len) in [5.0f64, 15.0, 25.0, 35.0].iter().enumerate() {
        let wire = Wire::new(tech, WireStyle::Repeated, len).expect("valid length");
        let mut fault =
            TimingFaults::from_wire(&wire, CYCLE_PS, SIGMA_PS, mix(seed, 0xD1A6, i as u64));
        let (enc, dec) = window_codec(trace.width(), 8);
        let dec = RecoveringDecoder::new(dec, trace.width());
        let (mut enc, mut dec) = epoch_wrap(enc, dec, 256);
        let report = channel.run(&mut enc, &mut dec, &mut fault, trace);
        t.push(vec![
            f(len, 0),
            format!("{:.2e}", fault.base_probability()),
            report.faulted_steps.to_string(),
            report.corrupted_words.to_string(),
            if report.resynchronized() { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_session() -> Session {
        Session::builder().values(4000).seed(7).build()
    }

    #[test]
    fn fault_sweep_produces_four_tables() {
        let tables = fault_sweep(&small_session());
        assert_eq!(tables.len(), 4);
        let ids: Vec<&str> = tables.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "fault-sweep-upsets",
                "fault-sweep-flip",
                "fault-sweep-energy",
                "fault-sweep-timing"
            ]
        );
        for table in &tables {
            assert!(!table.rows.is_empty(), "{} is empty", table.id);
        }
    }

    #[test]
    fn fault_sweep_is_deterministic() {
        let a = fault_sweep(&small_session());
        let b = fault_sweep(&small_session());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rows, y.rows, "{} differs between runs", x.id);
        }
    }

    #[test]
    fn single_flip_always_recovers_within_epoch() {
        let session = small_session();
        let trace = session.trace(Workload::Bench(Benchmark::Gcc, BusKind::Register));
        let table = single_flip_recovery(session.seed(), &trace);
        for row in &table.rows {
            assert_eq!(
                row[2], "100.0",
                "scheme {} failed to recover: {row:?}",
                row[0]
            );
        }
    }

    #[test]
    fn resync_shrinks_savings_monotonically_in_flush_rate() {
        let session = small_session();
        let trace = session.trace(Workload::Bench(Benchmark::Gcc, BusKind::Register));
        let table = resync_energy(&trace);
        // Row 0 is "none"; tighter intervals (row 1) must not beat it.
        let removed: Vec<f64> = table.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(
            removed[1] <= removed[0] + 1e-9,
            "interval 64 saved more than no-resync: {removed:?}"
        );
        let flushes: Vec<u64> = table.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert_eq!(flushes[0], 0);
        assert!(flushes[1] > flushes[2], "{flushes:?}");
    }
}
