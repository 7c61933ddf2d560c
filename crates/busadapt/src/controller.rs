//! The adaptive controller: a `Transcoder`-shaped wrapper that watches
//! traffic and switches the live coding scheme at decision boundaries.
//!
//! # How the two ends stay synchronized
//!
//! The controller is split into an encoder half and a decoder half that
//! share one [`Core`] behind `Rc<RefCell<…>>` — modelling the control
//! sideband a real adaptive bus would run beside the data lines. All
//! harnesses in this workspace ([`buscoding::verify_roundtrip`], the
//! `busfault` channel, `evaluate`) drive the pair in lockstep (encode
//! word *n*, then decode word *n*), so the boundary work performed
//! while encoding word *n* — choosing the next scheme and flushing both
//! FSMs — is always visible to the decoder before it observes word *n*.
//!
//! # The flush discipline
//!
//! *Every* decision boundary flushes the live pair to its power-on
//! state, switch or not. That makes the decision period an epoch in the
//! [`buscoding::robust::epoch_wrap`] sense: any desynchronization —
//! including an upset injected in the very cycle of a scheme switch —
//! is repaired at the next boundary, because both FSMs restart from
//! power-on and the bus carries absolute states. It also makes every
//! window's cost independent of history, which is what lets the
//! controller (and the oracle) compare candidates from a common cold
//! start: at a boundary each candidate's own encoder replays the
//! buffered window from power-on. The flushes are not free: the
//! controller counts them (plus the switches) so experiments can charge
//! them through `hwmodel::CodingOutcome::with_resync_tax`.

use std::cell::RefCell;
use std::rc::Rc;

use buscoding::{
    scheme_by_name, Activity, Decoder, Encoder, RoundTripError, Transcoder, UnknownScheme,
};
use bustrace::stats::{
    repeat_fraction, stride_hit_fraction, transition_density, window_uniqueness,
};
use bustrace::{Trace, Width, Word};

use crate::policy::{Policy, WindowObservation, WindowStats};

static PROBE_SWITCHES: busprobe::StaticCounter = busprobe::StaticCounter::new("adapt.switches");
static PROBE_FLUSHES: busprobe::StaticCounter = busprobe::StaticCounter::new("adapt.flushes");
static PROBE_RESYNCS: busprobe::StaticCounter = busprobe::StaticCounter::new("adapt.resyncs");
static PROBE_WORDS: busprobe::StaticCounter = busprobe::StaticCounter::new("adapt.window_words");
const PCT_BOUNDS: &[u64] = &[5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
static HIST_DENSITY: busprobe::StaticHistogram =
    busprobe::StaticHistogram::new("adapt.window_density_pct", PCT_BOUNDS);
static HIST_UNIQUE: busprobe::StaticHistogram =
    busprobe::StaticHistogram::new("adapt.window_unique_pct", PCT_BOUNDS);
static HIST_STRIDE: busprobe::StaticHistogram =
    busprobe::StaticHistogram::new("adapt.window_stride_pct", PCT_BOUNDS);

/// The coupling weight λ the controller scores windows at.
const LAMBDA: f64 = 1.0;
/// Sub-window of the window-uniqueness statistic.
const UNIQUENESS_WINDOW: usize = 16;
/// History depth of the stride-hit statistic.
const STRIDE_DEPTH: usize = 2;

/// Configuration of an [`AdaptiveTranscoder`]: the candidate pool and
/// the controller's observation parameters.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    width: Width,
    candidates: Vec<String>,
    period: u64,
    initial: usize,
}

impl AdaptiveConfig {
    /// A configuration selecting among `candidates` (canonical registry
    /// names, see [`buscoding::SCHEME_PATTERNS`]) every `period` words.
    ///
    /// Windows are scored at λ = 1, the uniqueness sub-window is 16
    /// words, the stride depth 2, and candidate 0 carries the first
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `candidates` is empty.
    pub fn new<I, S>(width: Width, candidates: I, period: u64) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let candidates: Vec<String> = candidates.into_iter().map(Into::into).collect();
        assert!(!candidates.is_empty(), "need at least one candidate scheme");
        assert!(period > 0, "decision period must be at least 1 word");
        AdaptiveConfig {
            width,
            candidates,
            period,
            initial: 0,
        }
    }

    /// Sets which candidate carries the first window (no policy gets to
    /// choose it — there is no completed window to observe yet).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn with_initial(mut self, index: usize) -> Self {
        assert!(
            index < self.candidates.len(),
            "initial candidate out of range"
        );
        self.initial = index;
        self
    }
}

/// One scheme switch, as recorded in [`AdaptReport::switch_log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchEvent {
    /// Word position of the boundary at which the switch took effect.
    pub at_word: u64,
    /// Candidate index that carried the completed window.
    pub from: usize,
    /// Candidate index taking the bus.
    pub to: usize,
}

/// Everything the controller tallied since power-on.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptReport {
    /// Words encoded.
    pub words: u64,
    /// Decisions that changed the live scheme.
    pub switches: u64,
    /// Boundary flushes of the live pair: one per completed decision
    /// window (a trailing partial window is not in this count). This
    /// is the number experiments feed to
    /// `CodingOutcome::with_resync_tax`.
    pub flushes: u64,
    /// Decode errors absorbed by bounded recovery.
    pub resyncs: u64,
    /// Words carried by each candidate, parallel to the candidate pool.
    pub residency: Vec<(String, u64)>,
    /// Every switch, in order.
    pub switch_log: Vec<SwitchEvent>,
    /// Name of the scheme currently on the wire.
    pub live: String,
}

/// All-ones over the low `lines` bus lines.
fn line_mask(lines: u32) -> u64 {
    if lines >= 64 {
        u64::MAX
    } else {
        (1u64 << lines) - 1
    }
}

/// The λ-weighted wire cost of `words` encoded by `encoder` from
/// power-on, with the bus starting all-low exactly as in
/// [`buscoding::evaluate`]. The one scorer of a decision window: the
/// controller's boundary and [`oracle_schedule`](crate::oracle_schedule)
/// both call it.
pub(crate) fn window_cost(encoder: &mut dyn Encoder, words: &[Word], lambda: f64) -> f64 {
    encoder.reset();
    let mut states = Vec::with_capacity(words.len());
    encoder.encode_block(words, &mut states);
    let mut activity = Activity::new(encoder.lines());
    activity.step(0);
    activity.step_slice(&states);
    activity.weighted(lambda)
}

struct Core {
    cfg: AdaptiveConfig,
    lines: u32,
    /// One FSM pair per candidate, parallel to `names`. Only the live
    /// pair is on the wire; every pair's encoder scores each window.
    candidates: Vec<Transcoder>,
    names: Vec<String>,
    policy: Box<dyn Policy>,
    live: usize,
    pos: u64,
    /// Words of the in-flight window, buffered so the candidates can
    /// score it and its statistics can be computed at the boundary.
    window: Trace,
    residency: Vec<u64>,
    flushes: u64,
    switches: u64,
    resyncs: u64,
    switch_log: Vec<SwitchEvent>,
}

impl Core {
    /// Full power-on reset: FSMs, window buffer, policy state and
    /// tallies.
    fn power_on(&mut self) {
        self.live = self.cfg.initial;
        self.pos = 0;
        self.flushes = 0;
        self.switches = 0;
        self.resyncs = 0;
        self.switch_log.clear();
        self.residency.iter_mut().for_each(|r| *r = 0);
        self.policy.reset();
        self.window.clear();
        for pair in &mut self.candidates {
            pair.reset();
        }
    }

    /// Decision boundary: score the completed window, consult the
    /// policy, and flush into the next window.
    fn boundary(&mut self) {
        let _span = busprobe::span("busadapt.controller.boundary");
        // Each candidate's encoder replays the window from power-on.
        // The live encoder started this window at power-on too, so its
        // replay is the state sequence it just drove; the replays never
        // touch a decoder.
        let words = self.window.values();
        let costs: Vec<f64> = self
            .candidates
            .iter_mut()
            .map(|pair| window_cost(pair.encoder_mut(), words, LAMBDA))
            .collect();
        let stats = WindowStats {
            transition_density: transition_density(&self.window),
            repeat_fraction: repeat_fraction(&self.window),
            window_uniqueness: window_uniqueness(&self.window, UNIQUENESS_WINDOW),
            stride_fraction: stride_hit_fraction(&self.window, STRIDE_DEPTH),
        };
        let completed = self.pos / self.cfg.period - 1;
        let obs = WindowObservation {
            index: completed,
            live: self.live,
            names: &self.names,
            costs: &costs,
            stats,
        };
        let next = self.policy.decide(&obs).min(self.candidates.len() - 1);

        self.flushes += 1;
        PROBE_FLUSHES.inc();
        if busprobe::enabled() {
            PROBE_WORDS.add(self.cfg.period);
            HIST_DENSITY.observe(to_pct(stats.transition_density));
            HIST_STRIDE.observe(to_pct(stats.stride_fraction));
            if let Some(u) = stats.window_uniqueness {
                HIST_UNIQUE.observe(to_pct(u));
            }
            busprobe::counter(&format!("adapt.residency.{}", self.names[self.live]))
                .add(self.cfg.period);
        }
        if next != self.live {
            self.switches += 1;
            PROBE_SWITCHES.inc();
            self.switch_log.push(SwitchEvent {
                at_word: self.pos,
                from: self.live,
                to: next,
            });
            self.live = next;
        }

        // The epoch flush: the live pair back to power-on (the scheme
        // that just left the bus keeps a stale decoder — it is
        // re-flushed whenever it next becomes live).
        self.candidates[self.live].reset();
        self.window.clear();
    }

    fn encode(&mut self, value: Word) -> u64 {
        if self.pos > 0 && self.pos.is_multiple_of(self.cfg.period) {
            self.boundary();
        }
        self.pos += 1;
        self.residency[self.live] += 1;
        // A trailing partial window is never scored (no boundary fires
        // for it), so buffering is free until the next boundary.
        self.window.push(value);
        self.candidates[self.live].encode(value)
    }

    /// Decodes through the live scheme. A decode error is absorbed
    /// as a counted resync: the live decoder is flushed and the raw
    /// state passed through, so the next boundary re-converges.
    fn decode(&mut self, bus_state: u64) -> Word {
        let width = self.cfg.width;
        let pair = &mut self.candidates[self.live];
        match pair.decode(bus_state & line_mask(pair.lines())) {
            Ok(word) => word,
            Err(_) => {
                self.resyncs += 1;
                PROBE_RESYNCS.inc();
                pair.decoder_mut().reset();
                bus_state & width.mask()
            }
        }
    }

    fn report(&self) -> AdaptReport {
        AdaptReport {
            words: self.pos,
            switches: self.switches,
            flushes: self.flushes,
            resyncs: self.resyncs,
            residency: self
                .names
                .iter()
                .cloned()
                .zip(self.residency.iter().copied())
                .collect(),
            switch_log: self.switch_log.clone(),
            live: self.names[self.live].clone(),
        }
    }
}

fn to_pct(fraction: f64) -> u64 {
    (fraction * 100.0).round().clamp(0.0, 100.0) as u64
}

/// Encoder half: runs the whole controller (window buffer, boundary
/// scoring and decisions) and drives the live scheme's lines.
struct EncoderHalf {
    core: Rc<RefCell<Core>>,
}

impl Encoder for EncoderHalf {
    fn lines(&self) -> u32 {
        self.core.borrow().lines
    }

    fn encode(&mut self, value: Word) -> u64 {
        self.core.borrow_mut().encode(value)
    }

    /// Full power-on reset of the shared controller (both ends).
    fn reset(&mut self) {
        self.core.borrow_mut().power_on();
    }
}

/// Decoder half: observes bus states through the live scheme's decoder.
struct DecoderHalf {
    core: Rc<RefCell<Core>>,
}

impl Decoder for DecoderHalf {
    fn lines(&self) -> u32 {
        self.core.borrow().lines
    }

    /// Never an error: a state the live decoder rejects is absorbed as
    /// a counted resync (see [`AdaptReport::resyncs`]).
    fn decode(&mut self, bus_state: u64) -> Result<Word, RoundTripError> {
        Ok(self.core.borrow_mut().decode(bus_state))
    }

    /// A receiver-local resync pulse: flushes only the live decoder
    /// FSM, as a receiver-side recovery does on a decode error. The full
    /// power-on reset is driven from the encoder side, which every
    /// harness resets first.
    fn reset(&mut self) {
        let mut core = self.core.borrow_mut();
        let live = core.live;
        core.candidates[live].decoder_mut().reset();
    }
}

/// A drop-in adaptive transcoder: looks like one
/// [`buscoding::Transcoder`], but re-decides which candidate scheme
/// drives the wire at every decision boundary.
///
/// Drive it through [`transcoder_mut`](Self::transcoder_mut), like any
/// other pair; its display name reads e.g.
/// `adaptive(greedy(h0.05) p512)`. The physical line count is the
/// maximum over the candidate pool; schemes with fewer lines leave the
/// upper lines low, and the decoder masks observed states down to the
/// live scheme's lines.
///
/// # Example
///
/// ```
/// use busadapt::{AdaptiveConfig, AdaptiveTranscoder, GreedyShadowPolicy};
/// use buscoding::verify_roundtrip;
/// use bustrace::{Trace, Width};
///
/// let cfg = AdaptiveConfig::new(Width::W32, ["window(8)", "stride(4)"], 64);
/// let mut adaptive =
///     AdaptiveTranscoder::new(cfg, Box::new(GreedyShadowPolicy::new(0.0))).unwrap();
///
/// // A looping phase, then a striding phase.
/// let loop_vals = (0..512).map(|i| [7u64, 1000, 42, 9][i % 4]);
/// let ramp = (0..512).map(|i| 0x1000 + 4 * i as u64);
/// let trace = Trace::from_values(Width::W32, loop_vals.chain(ramp));
///
/// let (enc, dec) = adaptive.transcoder_mut().split_mut();
/// verify_roundtrip(enc, dec, &trace).unwrap();
/// let report = adaptive.report();
/// assert!(report.switches >= 1, "controller should chase the phase change");
/// ```
pub struct AdaptiveTranscoder {
    pair: Transcoder,
    core: Rc<RefCell<Core>>,
}

impl AdaptiveTranscoder {
    /// Builds the controller: every candidate gets one FSM pair from
    /// the [`buscoding`] registry.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownScheme`] if any candidate name fails to parse.
    pub fn new(cfg: AdaptiveConfig, policy: Box<dyn Policy>) -> Result<Self, UnknownScheme> {
        let candidates = cfg
            .candidates
            .iter()
            .map(|name| scheme_by_name(name, cfg.width))
            .collect::<Result<Vec<_>, _>>()?;
        let lines = candidates
            .iter()
            .map(Transcoder::lines)
            .max()
            .expect("non-empty");
        let display = format!("adaptive({} p{})", policy.name(), cfg.period);
        let names = cfg.candidates.clone();
        let residency = vec![0; candidates.len()];
        let mut core = Core {
            live: cfg.initial,
            window: Trace::new(cfg.width),
            cfg,
            lines,
            candidates,
            names,
            policy,
            pos: 0,
            residency,
            flushes: 0,
            switches: 0,
            resyncs: 0,
            switch_log: Vec::new(),
        };
        core.power_on();
        let core = Rc::new(RefCell::new(core));
        let pair = Transcoder::from_boxed(
            display,
            Box::new(EncoderHalf { core: core.clone() }),
            Box::new(DecoderHalf { core: core.clone() }),
        );
        Ok(AdaptiveTranscoder { pair, core })
    }

    /// The `Transcoder`-shaped view, for any harness that drives pairs
    /// ([`buscoding::verify_roundtrip`], `busfault::FaultChannel`, …).
    pub fn transcoder_mut(&mut self) -> &mut Transcoder {
        &mut self.pair
    }

    /// Everything tallied since the last power-on reset.
    pub fn report(&self) -> AdaptReport {
        self.core.borrow().report()
    }
}

impl std::fmt::Debug for AdaptiveTranscoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveTranscoder")
            .field("name", &self.pair.name())
            .field("lines", &self.pair.lines())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GreedyShadowPolicy, StaticPolicy};
    use buscoding::{evaluate, verify_roundtrip};
    use bustrace::Trace;

    /// `phases` half-windows of looping traffic alternating with
    /// unit-stride ramps, `len` words each.
    fn phase_change_trace(phases: usize, len: usize) -> Trace {
        let mut values = Vec::new();
        for p in 0..phases {
            if p % 2 == 0 {
                let set = [7u64, 1000, 42, 0xDEAD_BEEF];
                values.extend((0..len).map(|i| set[i % set.len()]));
            } else {
                let base = 0x4000_0000 + ((p as u64) << 8);
                values.extend((0..len).map(|i| base + 4 * i as u64));
            }
        }
        Trace::from_values(Width::W32, values)
    }

    fn greedy(period: u64) -> AdaptiveTranscoder {
        let cfg = AdaptiveConfig::new(Width::W32, ["window(8)", "stride(4)"], period);
        AdaptiveTranscoder::new(cfg, Box::new(GreedyShadowPolicy::new(0.0))).unwrap()
    }

    /// Each boundary's `(costs, stats)`, in window order.
    type Seen = Rc<RefCell<Vec<(Vec<f64>, WindowStats)>>>;

    /// A policy that records every observation it is handed and then
    /// follows the cheapest candidate.
    struct Recorder(Seen);

    impl Policy for Recorder {
        fn name(&self) -> String {
            "recorder".into()
        }

        fn decide(&mut self, obs: &WindowObservation<'_>) -> usize {
            self.0.borrow_mut().push((obs.costs.to_vec(), obs.stats));
            obs.cheapest()
        }
    }

    #[test]
    fn boundary_observations_match_the_reference_paths() {
        use bustrace::stats::{
            repeat_fraction, stride_hit_fraction, transition_density, window_uniqueness,
        };
        const POOL: [&str; 6] = [
            "identity",
            "inversion(1ch l1)",
            "window(8)",
            "stride(8)",
            "fcm(2 2^12)",
            "workzone(4)",
        ];
        let trace = phase_change_trace(4, 256);
        // Period 10 is below the 16-word uniqueness window, so every
        // window reports `window_uniqueness: None`.
        for period in [64u64, 10] {
            let seen = Seen::default();
            let cfg = AdaptiveConfig::new(Width::W32, POOL, period);
            let mut adaptive =
                AdaptiveTranscoder::new(cfg, Box::new(Recorder(seen.clone()))).unwrap();
            let (enc, dec) = adaptive.transcoder_mut().split_mut();
            verify_roundtrip(enc, dec, &trace).unwrap();

            let seen = seen.borrow();
            // A boundary fires on the word after a full window, so the
            // window ending with the trace is never scored.
            assert_eq!(seen.len(), (trace.len() - 1) / period as usize);
            for (w, (costs, stats)) in seen.iter().enumerate() {
                let start = w * period as usize;
                let window = trace.slice(start, start + period as usize);
                let want: Vec<f64> = POOL
                    .iter()
                    .map(|name| {
                        let mut pair = buscoding::scheme_by_name(name, Width::W32).unwrap();
                        evaluate(pair.encoder_mut(), &window).weighted(1.0)
                    })
                    .collect();
                assert_eq!(costs, &want, "period {period}, window {w}");
                let want = WindowStats {
                    transition_density: transition_density(&window),
                    repeat_fraction: repeat_fraction(&window),
                    window_uniqueness: window_uniqueness(&window, 16),
                    stride_fraction: stride_hit_fraction(&window, 2),
                };
                assert_eq!(stats, &want, "period {period}, window {w}");
                assert_eq!(stats.window_uniqueness.is_none(), period < 16);
            }
        }
    }

    #[test]
    fn roundtrip_is_lossless_across_switches() {
        let trace = phase_change_trace(4, 256);
        let mut adaptive = greedy(64);
        let (enc, dec) = adaptive.transcoder_mut().split_mut();
        verify_roundtrip(enc, dec, &trace).unwrap();
        let report = adaptive.report();
        assert!(report.switches >= 3, "{report:?}");
        assert_eq!(report.words, trace.len() as u64);
        assert_eq!(report.flushes, trace.len() as u64 / 64 - 1);
    }

    #[test]
    fn residency_words_sum_to_trace_length() {
        let trace = phase_change_trace(4, 256);
        let mut adaptive = greedy(64);
        let _ = evaluate(adaptive.transcoder_mut().encoder_mut(), &trace);
        let report = adaptive.report();
        let total: u64 = report.residency.iter().map(|(_, w)| w).sum();
        assert_eq!(total, trace.len() as u64);
        // Both phases are long enough that both schemes get the bus.
        assert!(report.residency.iter().all(|&(_, w)| w > 0), "{report:?}");
    }

    #[test]
    fn static_policy_never_switches_but_still_flushes() {
        let trace = phase_change_trace(4, 256);
        let cfg = AdaptiveConfig::new(Width::W32, ["window(8)", "stride(4)"], 64);
        let mut adaptive = AdaptiveTranscoder::new(cfg, Box::new(StaticPolicy::new(0))).unwrap();
        let (enc, dec) = adaptive.transcoder_mut().split_mut();
        verify_roundtrip(enc, dec, &trace).unwrap();
        let report = adaptive.report();
        assert_eq!(report.switches, 0);
        assert!(report.flushes > 0);
        assert_eq!(report.live, "window(8)");
    }

    #[test]
    fn adapting_beats_the_wrong_static_choice_on_the_wire() {
        // Pinning window(8) across a stride phase wastes energy that the
        // greedy controller recovers (identical flush schedules, so the
        // wire activity comparison is apples to apples).
        let trace = phase_change_trace(6, 512);
        let mut adaptive = greedy(128);
        let adaptive_cost = evaluate(adaptive.transcoder_mut().encoder_mut(), &trace).weighted(1.0);
        let cfg = AdaptiveConfig::new(Width::W32, ["window(8)", "stride(4)"], 128);
        let mut pinned = AdaptiveTranscoder::new(cfg, Box::new(StaticPolicy::new(0))).unwrap();
        let pinned_cost = evaluate(pinned.transcoder_mut().encoder_mut(), &trace).weighted(1.0);
        assert!(
            adaptive_cost < pinned_cost,
            "adaptive {adaptive_cost} vs pinned {pinned_cost}"
        );
    }

    #[test]
    fn power_on_reset_makes_runs_identical() {
        let trace = phase_change_trace(3, 128);
        let mut adaptive = greedy(32);
        let run = |a: &mut AdaptiveTranscoder| -> (Vec<u64>, AdaptReport) {
            let pair = a.transcoder_mut();
            pair.reset();
            let states = trace.iter().map(|v| pair.encode(v)).collect();
            (states, a.report())
        };
        let (states1, report1) = run(&mut adaptive);
        let (states2, report2) = run(&mut adaptive);
        assert_eq!(states1, states2);
        assert_eq!(report1, report2);
        assert!(report1.switches > 0);
    }

    #[test]
    fn upset_reconverges_at_the_next_boundary() {
        let period = 64u64;
        let trace = phase_change_trace(4, 128);
        let mut adaptive = greedy(period);
        let pair = adaptive.transcoder_mut();
        pair.reset();
        // Flip a low line (present in every candidate) mid-window.
        let flip_at = 40u64;
        let mut wrong_after_boundary = 0;
        for (i, v) in trace.iter().enumerate() {
            let mut state = pair.encode(v);
            if i as u64 == flip_at {
                state ^= 1;
            }
            let got = pair.decode(state).unwrap();
            let next_boundary = (flip_at / period + 1) * period;
            if (i as u64) >= next_boundary && got != v {
                wrong_after_boundary += 1;
            }
        }
        assert_eq!(wrong_after_boundary, 0);
    }

    #[test]
    fn recovery_counts_resyncs_and_never_errors() {
        let trace = phase_change_trace(2, 128);
        let mut adaptive = greedy(32);
        let pair = adaptive.transcoder_mut();
        pair.reset();
        for (i, v) in trace.iter().enumerate() {
            let mut state = pair.encode(v);
            if i % 17 == 5 {
                // Force the window codec's invalid control pattern.
                state ^= 0b11 << 32;
            }
            assert!(pair.decode(state).is_ok());
        }
        assert!(adaptive.report().resyncs > 0);
    }

    #[test]
    fn lines_are_the_candidate_maximum() {
        let cfg = AdaptiveConfig::new(Width::W32, ["identity", "window(8)"], 64);
        let mut adaptive = AdaptiveTranscoder::new(cfg, Box::new(StaticPolicy::new(0))).unwrap();
        let pair = adaptive.transcoder_mut();
        assert_eq!(pair.lines(), 34); // window(8): 32 data + 2 control
        assert_eq!(pair.name(), "adaptive(static(0) p64)");
    }

    #[test]
    fn unknown_candidate_is_rejected() {
        let cfg = AdaptiveConfig::new(Width::W32, ["wat(9)"], 64);
        assert!(AdaptiveTranscoder::new(cfg, Box::new(StaticPolicy::new(0))).is_err());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_period_is_rejected() {
        let _ = AdaptiveConfig::new(Width::W32, ["identity"], 0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_pool_is_rejected() {
        let empty: [&str; 0] = [];
        let _ = AdaptiveConfig::new(Width::W32, empty, 64);
    }
}
