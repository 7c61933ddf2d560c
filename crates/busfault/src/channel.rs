//! The fault channel: drives an encoder/decoder pair through a faulted
//! trace and measures what the fault did.

use buscoding::{Decoder, Encoder};
use bustrace::Trace;

use crate::model::FaultModel;

/// What the channel does when the decoder reports a `RoundTripError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Stop at the first decode error — the seed behaviour, where a
    /// desync is fatal.
    Halt,
    /// Record the error and keep feeding bus states; the decoder's
    /// state is left as the failed decode left it. This is the policy
    /// to use with `buscoding::robust` epoch wrappers, whose periodic
    /// flush restores synchronization.
    #[default]
    Continue,
    /// Record the error, reset the decoder FSM, and continue — blind
    /// local recovery. Without a matching encoder-side flush this
    /// usually stays desynchronized; it exists to quantify exactly
    /// that.
    ResetAndContinue,
}

/// Everything measured from one faulted run. Counts are over trace
/// steps (one word per step).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Words in the trace.
    pub words: u64,
    /// Steps at which the fault model actually changed the bus state.
    pub faulted_steps: u64,
    /// First step whose observed state differed from the driven state.
    pub first_fault_step: Option<u64>,
    /// Decode errors reported (desync detections).
    pub detected_errors: u64,
    /// First step at which the decoder reported an error.
    pub first_detection_step: Option<u64>,
    /// Words decoded *successfully but wrongly* — silent corruption.
    pub corrupted_words: u64,
    /// First step after which every remaining word decoded correctly;
    /// `Some(0)` means the whole trace was clean. `None` means the run
    /// never reconverged (it ended wrong, or halted early).
    pub reconverged_at: Option<u64>,
    /// Step at which the run halted early under [`ErrorPolicy::Halt`].
    pub halted_at: Option<u64>,
}

impl FaultReport {
    /// Steps between the first injected fault and its detection, if
    /// both happened.
    pub fn detection_latency(&self) -> Option<u64> {
        match (self.first_fault_step, self.first_detection_step) {
            (Some(f), Some(d)) => Some(d.saturating_sub(f)),
            _ => None,
        }
    }

    /// Silently corrupted words per fault-affected step; 0 when nothing
    /// was injected.
    pub fn corrupted_per_upset(&self) -> f64 {
        if self.faulted_steps == 0 {
            0.0
        } else {
            self.corrupted_words as f64 / self.faulted_steps as f64
        }
    }

    /// Whether the pair was back in sync by the end of the trace: the
    /// run completed and every word after [`reconverged_at`] decoded
    /// correctly.
    ///
    /// [`reconverged_at`]: FaultReport::reconverged_at
    pub fn resynchronized(&self) -> bool {
        self.halted_at.is_none() && self.reconverged_at.is_some()
    }

    /// Whether the fault had no observable effect at all: no detection
    /// and no wrong word.
    pub fn clean(&self) -> bool {
        self.detected_errors == 0 && self.corrupted_words == 0 && self.halted_at.is_none()
    }
}

/// Runs an encoder/decoder pair over a trace with a [`FaultModel`]
/// corrupting the bus between them, and scores the damage.
///
/// All three FSMs (encoder, decoder, fault model) are reset before the
/// run, so a channel invocation is a pure function of its inputs —
/// fixed seeds give byte-identical [`FaultReport`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultChannel {
    policy: ErrorPolicy,
}

static PROBE_RUNS: busprobe::StaticCounter = busprobe::StaticCounter::new("busfault.channel.runs");
static PROBE_FAULTED: busprobe::StaticCounter =
    busprobe::StaticCounter::new("busfault.channel.faulted_steps");
static PROBE_DETECTED: busprobe::StaticCounter =
    busprobe::StaticCounter::new("busfault.channel.detected_errors");
static PROBE_CORRUPTED: busprobe::StaticCounter =
    busprobe::StaticCounter::new("busfault.channel.corrupted_words");

impl FaultChannel {
    /// A channel with the given error policy.
    pub fn new(policy: ErrorPolicy) -> Self {
        FaultChannel { policy }
    }

    /// A channel that stops at the first decode error.
    pub fn halt_on_error() -> Self {
        Self::new(ErrorPolicy::Halt)
    }

    /// The configured error policy.
    pub fn policy(&self) -> ErrorPolicy {
        self.policy
    }

    /// Drives `trace` through `encoder` → fault → `decoder` and scores
    /// the outcome.
    ///
    /// # Panics
    ///
    /// Panics if the encoder and decoder disagree on the line count —
    /// that is a harness bug, not a measurable fault.
    pub fn run<E, D, F>(
        &self,
        encoder: &mut E,
        decoder: &mut D,
        fault: &mut F,
        trace: &Trace,
    ) -> FaultReport
    where
        E: Encoder + ?Sized,
        D: Decoder + ?Sized,
        F: FaultModel + ?Sized,
    {
        let _span = busprobe::span("busfault.channel.run");
        assert_eq!(
            encoder.lines(),
            decoder.lines(),
            "fault channel requires a matched encoder/decoder pair"
        );
        encoder.reset();
        decoder.reset();
        fault.reset();
        let lines = encoder.lines();

        let mut report = FaultReport {
            words: trace.len() as u64,
            faulted_steps: 0,
            first_fault_step: None,
            detected_errors: 0,
            first_detection_step: None,
            corrupted_words: 0,
            reconverged_at: None,
            halted_at: None,
        };
        // One past the last step that was wrong (error or corrupt word).
        let mut converged_after = 0u64;

        for (i, value) in trace.iter().enumerate() {
            let step = i as u64;
            let driven = encoder.encode(value);
            let observed = fault.corrupt(step, driven, lines);
            if observed != driven {
                report.faulted_steps += 1;
                report.first_fault_step.get_or_insert(step);
            }
            match decoder.decode(observed) {
                Ok(decoded) => {
                    if decoded != value {
                        report.corrupted_words += 1;
                        converged_after = step + 1;
                    }
                }
                Err(_) => {
                    report.detected_errors += 1;
                    report.first_detection_step.get_or_insert(step);
                    converged_after = step + 1;
                    match self.policy {
                        ErrorPolicy::Halt => {
                            report.halted_at = Some(step);
                            break;
                        }
                        ErrorPolicy::Continue => {}
                        ErrorPolicy::ResetAndContinue => decoder.reset(),
                    }
                }
            }
        }

        if report.halted_at.is_none() && converged_after < report.words {
            report.reconverged_at = Some(converged_after);
        } else if report.halted_at.is_none() && report.words == 0 {
            report.reconverged_at = Some(0);
        }

        PROBE_RUNS.inc();
        if busprobe::enabled() {
            PROBE_FAULTED.add(report.faulted_steps);
            PROBE_DETECTED.add(report.detected_errors);
            PROBE_CORRUPTED.add(report.corrupted_words);
        }
        report
    }

    /// [`FaultChannel::run`] over a bundled [`buscoding::Transcoder`]
    /// pair — the
    /// common case where both ends travel together.
    pub fn run_pair<F>(
        &self,
        pair: &mut buscoding::Transcoder,
        fault: &mut F,
        trace: &Trace,
    ) -> FaultReport
    where
        F: FaultModel + ?Sized,
    {
        let (encoder, decoder) = pair.split_mut();
        self.run(encoder, decoder, fault, trace)
    }

    /// [`FaultChannel::run`] over an adaptive controller: the fault
    /// model corrupts the shared bus while the controller keeps
    /// re-deciding schemes, so upsets can land in the same cycle as a
    /// scheme switch. Returns the channel's damage report alongside
    /// the controller's own tally (switches, flushes, absorbed
    /// resyncs) for the same run — the run starts from power-on, so
    /// the two reports cover exactly the same words.
    pub fn run_adaptive<F>(
        &self,
        adaptive: &mut busadapt::AdaptiveTranscoder,
        fault: &mut F,
        trace: &Trace,
    ) -> (FaultReport, busadapt::AdaptReport)
    where
        F: FaultModel + ?Sized,
    {
        let _span = busprobe::span("busfault.channel.run_adaptive");
        let report = self.run_pair(adaptive.transcoder_mut(), fault, trace);
        (report, adaptive.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NoFault, RandomUpsets, SingleFlip, StuckAt};
    use buscoding::predict::window_codec;
    use buscoding::IdentityCodec;
    use bustrace::{Width, Word};

    fn looping_trace(n: usize) -> Trace {
        let set = [7u64, 1000, 42, 0xDEAD_BEEF, 7, 7, 1000];
        Trace::from_values(Width::W32, (0..n).map(|i| set[i % set.len()]))
    }

    #[test]
    fn clean_channel_reports_clean() {
        let trace = looping_trace(500);
        let (mut enc, mut dec) = window_codec(Width::W32, 8);
        let r = FaultChannel::default().run(&mut enc, &mut dec, &mut NoFault, &trace);
        assert!(r.clean());
        assert!(r.resynchronized());
        assert_eq!(r.reconverged_at, Some(0));
        assert_eq!(r.faulted_steps, 0);
        assert_eq!(r.detection_latency(), None);
        assert_eq!(r.corrupted_per_upset(), 0.0);
    }

    #[test]
    fn identity_codec_corrupts_exactly_one_word() {
        // A memoryless codec: one flip corrupts one word, then recovers.
        let trace = looping_trace(300);
        let mut enc = IdentityCodec::new(Width::W32);
        let mut dec = IdentityCodec::new(Width::W32);
        let mut fault = SingleFlip::new(50, 3);
        let r = FaultChannel::default().run(&mut enc, &mut dec, &mut fault, &trace);
        assert_eq!(r.faulted_steps, 1);
        assert_eq!(r.corrupted_words, 1);
        assert_eq!(r.detected_errors, 0);
        assert_eq!(r.reconverged_at, Some(51));
        assert!(r.resynchronized());
    }

    #[test]
    fn halt_policy_stops_at_detection() {
        let trace = looping_trace(2000);
        let (mut enc, mut dec) = window_codec(Width::W32, 8);
        // Saturate the bus with errors; detection is certain.
        let mut fault = RandomUpsets::new(0.2, 9);
        let r = FaultChannel::halt_on_error().run(&mut enc, &mut dec, &mut fault, &trace);
        assert!(r.detected_errors <= 1);
        if r.detected_errors == 1 {
            assert_eq!(r.halted_at, r.first_detection_step);
            assert!(!r.resynchronized());
        }
    }

    #[test]
    fn detection_latency_measures_from_first_fault() {
        let trace = looping_trace(400);
        let (mut enc, mut dec) = window_codec(Width::W32, 8);
        let mut fault = SingleFlip::new(100, 2);
        let r = FaultChannel::default().run(&mut enc, &mut dec, &mut fault, &trace);
        assert_eq!(r.first_fault_step, Some(100));
        if let Some(lat) = r.detection_latency() {
            assert!(lat < 400);
        }
    }

    #[test]
    fn stuck_line_on_predictive_codec_is_detected() {
        let trace = looping_trace(1000);
        let (mut enc, mut dec) = window_codec(Width::W32, 8);
        // A stuck data line corrupts predicted-hit deltas into
        // non-codewords, which the decoder rejects.
        let mut fault = StuckAt::new(0, true, 200);
        let r = FaultChannel::default().run(&mut enc, &mut dec, &mut fault, &trace);
        assert!(r.detected_errors > 0, "{r:?}");
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = looping_trace(800);
        let run = || {
            let (mut enc, mut dec) = window_codec(Width::W32, 8);
            let mut fault = RandomUpsets::new(0.002, 123);
            FaultChannel::default().run(&mut enc, &mut dec, &mut fault, &trace)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_and_continue_resets_decoder() {
        // With a plain (non-epoch) pair, a blind decoder reset after an
        // error rarely restores sync — the report records the damage.
        let trace = looping_trace(600);
        let (mut enc, mut dec) = window_codec(Width::W32, 8);
        let mut fault = SingleFlip::new(10, 0);
        let r = FaultChannel::new(ErrorPolicy::ResetAndContinue)
            .run(&mut enc, &mut dec, &mut fault, &trace);
        assert!(r.halted_at.is_none());
        assert_eq!(r.words, 600);
    }

    #[test]
    #[should_panic(expected = "matched encoder/decoder")]
    fn mismatched_pair_panics() {
        let trace = Trace::from_values(Width::W32, [1u64]);
        let mut enc = IdentityCodec::new(Width::W32);
        let mut dec = IdentityCodec::new(Width::new(16).unwrap());
        let _ = FaultChannel::default().run(&mut enc, &mut dec, &mut NoFault, &trace);
    }

    #[test]
    fn empty_trace_is_trivially_clean() {
        let trace = Trace::new(Width::W32);
        let mut enc = IdentityCodec::new(Width::W32);
        let mut dec = IdentityCodec::new(Width::W32);
        let r = FaultChannel::default().run(&mut enc, &mut dec, &mut NoFault, &trace);
        assert!(r.clean());
        assert_eq!(r.reconverged_at, Some(0));
    }

    #[test]
    fn dyn_trait_objects_work() {
        let trace = looping_trace(100);
        let (enc, dec) = window_codec(Width::W32, 8);
        let mut enc: Box<dyn Encoder> = Box::new(enc);
        let mut dec: Box<dyn Decoder> = Box::new(dec);
        let mut fault: Box<dyn FaultModel> = Box::new(SingleFlip::new(5, 1));
        let r = FaultChannel::default().run(enc.as_mut(), dec.as_mut(), fault.as_mut(), &trace);
        assert_eq!(r.words, 100);
        let _ = r;
        let _unused: Word = 0;
    }

    #[test]
    fn run_pair_matches_run_on_split_ends() {
        let trace = looping_trace(400);
        let (enc, dec) = window_codec(Width::W32, 8);
        let mut pair = buscoding::Transcoder::new("window(8)", enc, dec);
        let mut fault = SingleFlip::new(37, 4);
        let bundled = FaultChannel::default().run_pair(&mut pair, &mut fault, &trace);
        let (mut enc, mut dec) = window_codec(Width::W32, 8);
        let mut fault = SingleFlip::new(37, 4);
        let split = FaultChannel::default().run(&mut enc, &mut dec, &mut fault, &trace);
        assert_eq!(bundled, split);
    }
}
