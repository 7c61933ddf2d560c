//! Synthetic bus-traffic generators.
//!
//! These generators serve two purposes. First, they provide the
//! *controlled* traffic classes used directly by the paper: uniformly
//! random words (the "random" line in Figures 15–23) and simple
//! arithmetic streams. Second, they are the building blocks from which
//! the `simcpu` crate composes SPEC-like kernels: working-set reuse,
//! phase changes, interleaved streams, and floating-point bit patterns.
//!
//! All generators are deterministic given their seed, so every experiment
//! in the repository is exactly reproducible.

use crate::rng::SmallRng;
use crate::{Trace, Width, Word};

/// A source of synthetic bus words.
///
/// Implementors are infinite streams: [`next_word`](Self::next_word)
/// never runs out. [`generate`](Self::generate) adapts the stream into a
/// fixed-length [`Trace`].
///
/// The `Debug` supertrait keeps composite generators (interleaves,
/// phases) debuggable, which matters when diagnosing a kernel whose
/// statistics drift from their target ranges.
pub trait TraceGenerator: std::fmt::Debug {
    /// The width of words this generator produces.
    fn width(&self) -> Width;

    /// Produces the next word of the stream.
    fn next_word(&mut self) -> Word;

    /// Collects `n` words into a trace.
    fn generate(&mut self, n: usize) -> Trace {
        let mut trace = Trace::new(self.width());
        for _ in 0..n {
            trace.push(self.next_word());
        }
        trace
    }
}

impl<G: TraceGenerator + ?Sized> TraceGenerator for Box<G> {
    fn width(&self) -> Width {
        (**self).width()
    }

    fn next_word(&mut self) -> Word {
        (**self).next_word()
    }
}

/// Emits a single constant word forever.
///
/// The degenerate best case for every predictor: after the first word the
/// LAST-value code ("0") matches every cycle.
#[derive(Debug, Clone)]
pub struct ConstantGen {
    width: Width,
    value: Word,
}

impl ConstantGen {
    /// Creates a constant generator (the value is truncated to `width`).
    pub fn new(width: Width, value: Word) -> Self {
        ConstantGen {
            width,
            value: width.truncate(value),
        }
    }
}

impl TraceGenerator for ConstantGen {
    fn width(&self) -> Width {
        self.width
    }

    fn next_word(&mut self) -> Word {
        self.value
    }
}

/// Uniformly random words — the adversarial traffic previous studies used
/// and the paper argues *underestimates* real-traffic compressibility for
/// λ below ~0.5 while overestimating it above.
#[derive(Debug, Clone)]
pub struct UniformRandomGen {
    width: Width,
    rng: SmallRng,
}

impl UniformRandomGen {
    /// Creates a seeded uniform generator.
    pub fn new(width: Width, seed: u64) -> Self {
        UniformRandomGen {
            width,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TraceGenerator for UniformRandomGen {
    fn width(&self) -> Width {
        self.width
    }

    fn next_word(&mut self) -> Word {
        self.width.truncate(self.rng.next_u64())
    }
}

/// An arithmetic sequence `start, start+stride, start+2*stride, ...` in
/// wrapping arithmetic — the pattern of array walks and address streams
/// that strided predictors capture perfectly.
#[derive(Debug, Clone)]
pub struct StrideGen {
    width: Width,
    next: Word,
    stride: Word,
}

impl StrideGen {
    /// Creates a stride generator starting at `start` stepping by `stride`.
    pub fn new(width: Width, start: Word, stride: Word) -> Self {
        StrideGen {
            width,
            next: width.truncate(start),
            stride,
        }
    }
}

impl TraceGenerator for StrideGen {
    fn width(&self) -> Width {
        self.width
    }

    fn next_word(&mut self) -> Word {
        let out = self.next;
        self.next = self.width.truncate(self.next.wrapping_add(self.stride));
        out
    }
}

/// A stride stream disturbed by occasional random jumps, modeling array
/// walks interrupted by pointer dereferences or loop restarts.
#[derive(Debug, Clone)]
pub struct NoisyStrideGen {
    inner: StrideGen,
    jump_probability: f64,
    rng: SmallRng,
}

impl NoisyStrideGen {
    /// Creates a noisy stride generator; on each word, with probability
    /// `jump_probability` the stream restarts at a random point.
    ///
    /// # Panics
    ///
    /// Panics if `jump_probability` is not in `0.0..=1.0`.
    pub fn new(width: Width, stride: Word, jump_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&jump_probability),
            "jump_probability must be a probability, got {jump_probability}"
        );
        NoisyStrideGen {
            inner: StrideGen::new(width, 0, stride),
            jump_probability,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TraceGenerator for NoisyStrideGen {
    fn width(&self) -> Width {
        self.inner.width()
    }

    fn next_word(&mut self) -> Word {
        if self.rng.gen_bool(self.jump_probability) {
            let start = self.width().truncate(self.rng.next_u64());
            self.inner = StrideGen::new(self.width(), start, self.inner.stride);
        }
        self.inner.next_word()
    }
}

/// Round-robin interleaving of several child streams, modeling a bus
/// shared by independent producers (e.g. two register read ports, or a
/// data stream interleaved with loop-counter values).
///
/// An interleave of `k` arithmetic streams is exactly the traffic a
/// stride-`k` predictor captures, which the strided-predictor experiments
/// rely on.
#[derive(Debug)]
pub struct InterleaveGen {
    width: Width,
    children: Vec<Box<dyn TraceGenerator>>,
    cursor: usize,
}

impl InterleaveGen {
    /// Creates an interleave of the given children.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or the children disagree on width —
    /// a bus has exactly one width.
    pub fn new(children: Vec<Box<dyn TraceGenerator>>) -> Self {
        assert!(
            !children.is_empty(),
            "interleave requires at least one child"
        );
        let width = children[0].width();
        assert!(
            children.iter().all(|c| c.width() == width),
            "all interleaved children must share one bus width"
        );
        InterleaveGen {
            width,
            children,
            cursor: 0,
        }
    }
}

impl TraceGenerator for InterleaveGen {
    fn width(&self) -> Width {
        self.width
    }

    fn next_word(&mut self) -> Word {
        let word = self.children[self.cursor].next_word();
        self.cursor = (self.cursor + 1) % self.children.len();
        word
    }
}

/// Working-set traffic: draws from a slowly churning set of live values
/// with a Zipf-like popularity skew.
///
/// This is the traffic class that makes window- and context-based
/// dictionaries effective (Figure 8): within any short window, only a
/// handful of distinct values appear, even though the total unique-value
/// population over the whole trace is large.
#[derive(Debug, Clone)]
pub struct WorkingSetGen {
    width: Width,
    live: Vec<Word>,
    /// Precomputed Zipf CDF over ranks of `live`.
    cdf: Vec<f64>,
    /// Probability per word that one set member is replaced by a fresh value.
    churn: f64,
    rng: SmallRng,
}

impl WorkingSetGen {
    /// Creates working-set traffic.
    ///
    /// * `set_size` — number of simultaneously live values.
    /// * `skew` — Zipf exponent; 0.0 is uniform over the set, ~1.0 is a
    ///   strong head.
    /// * `churn` — per-word probability that a random set member is
    ///   replaced with a fresh random value (drives the long-tail unique
    ///   count of Figure 7).
    ///
    /// # Panics
    ///
    /// Panics if `set_size` is zero or `churn` is not in `0.0..=1.0`.
    pub fn new(width: Width, set_size: usize, skew: f64, churn: f64, seed: u64) -> Self {
        assert!(set_size > 0, "working set must have at least one value");
        assert!(
            (0.0..=1.0).contains(&churn),
            "churn must be a probability, got {churn}"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let live: Vec<Word> = (0..set_size)
            .map(|_| width.truncate(rng.next_u64()))
            .collect();
        let weights: Vec<f64> = (1..=set_size)
            .map(|r| 1.0 / (r as f64).powf(skew))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        WorkingSetGen {
            width,
            live,
            cdf,
            churn,
            rng,
        }
    }

    fn sample_rank(&mut self) -> usize {
        let u = self.rng.next_f64();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

impl TraceGenerator for WorkingSetGen {
    fn width(&self) -> Width {
        self.width
    }

    fn next_word(&mut self) -> Word {
        if self.rng.gen_bool(self.churn) {
            let victim = self.rng.below(self.live.len() as u64) as usize;
            self.live[victim] = self.width.truncate(self.rng.next_u64());
        }
        let rank = self.sample_rank();
        self.live[rank]
    }
}

/// Switches between child generators every `phase_length` words,
/// modeling program phases — the behaviour the context-based coder's
/// counter-division mechanism exists to track (Figure 25).
#[derive(Debug)]
pub struct PhasedGen {
    width: Width,
    children: Vec<Box<dyn TraceGenerator>>,
    phase_length: usize,
    emitted: usize,
    current: usize,
}

impl PhasedGen {
    /// Creates a phased generator cycling through `children`.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty, widths disagree, or `phase_length`
    /// is zero.
    pub fn new(children: Vec<Box<dyn TraceGenerator>>, phase_length: usize) -> Self {
        assert!(
            !children.is_empty(),
            "phased generator requires at least one child"
        );
        assert!(phase_length > 0, "phase length must be positive");
        let width = children[0].width();
        assert!(
            children.iter().all(|c| c.width() == width),
            "all phases must share one bus width"
        );
        PhasedGen {
            width,
            children,
            phase_length,
            emitted: 0,
            current: 0,
        }
    }
}

impl TraceGenerator for PhasedGen {
    fn width(&self) -> Width {
        self.width
    }

    fn next_word(&mut self) -> Word {
        if self.emitted == self.phase_length {
            self.emitted = 0;
            self.current = (self.current + 1) % self.children.len();
        }
        self.emitted += 1;
        self.children[self.current].next_word()
    }
}

/// Repeats each word of an inner stream a geometrically distributed
/// number of times, modeling the back-to-back repeated values that make
/// LAST-value prediction profitable.
#[derive(Debug, Clone)]
pub struct RepeatGen<G> {
    inner: G,
    continue_probability: f64,
    current: Option<Word>,
    rng: SmallRng,
}

impl<G: TraceGenerator> RepeatGen<G> {
    /// Wraps `inner`; after emitting a word, with probability
    /// `continue_probability` the same word is emitted again.
    ///
    /// # Panics
    ///
    /// Panics if `continue_probability` is not in `0.0..1.0` (1.0 would
    /// never advance).
    pub fn new(inner: G, continue_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&continue_probability),
            "continue_probability must be in [0, 1), got {continue_probability}"
        );
        RepeatGen {
            inner,
            continue_probability,
            current: None,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl<G: TraceGenerator> TraceGenerator for RepeatGen<G> {
    fn width(&self) -> Width {
        self.inner.width()
    }

    fn next_word(&mut self) -> Word {
        match self.current {
            Some(word) if self.rng.gen_bool(self.continue_probability) => word,
            _ => {
                let word = self.inner.next_word();
                self.current = Some(word);
                word
            }
        }
    }
}

/// First-order Markov traffic: each value has a fixed successor
/// distribution over a small state set.
///
/// This is the traffic class where *transition* context (who follows
/// whom) carries more information than *value* frequency (who is
/// common) — the regime that separates the paper's two context-coder
/// flavors. With `fidelity = 1.0` the chain is a deterministic cycle;
/// lower fidelities mix in uniform jumps.
#[derive(Debug, Clone)]
pub struct MarkovGen {
    width: Width,
    states: Vec<Word>,
    /// `next[i]` is state `i`'s preferred successor index.
    next: Vec<usize>,
    /// Probability of following the preferred successor.
    fidelity: f64,
    current: usize,
    rng: SmallRng,
}

impl MarkovGen {
    /// Creates a chain over `n_states` distinct random values whose
    /// preferred-successor graph is a random permutation (a union of
    /// cycles).
    ///
    /// # Panics
    ///
    /// Panics if `n_states` is zero or `fidelity` is not in `0.0..=1.0`.
    pub fn new(width: Width, n_states: usize, fidelity: f64, seed: u64) -> Self {
        assert!(n_states > 0, "the chain needs at least one state");
        assert!(
            (0.0..=1.0).contains(&fidelity),
            "fidelity must be a probability"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let states: Vec<Word> = (0..n_states)
            .map(|_| width.truncate(rng.next_u64()))
            .collect();
        // Random permutation as the successor map.
        let mut next: Vec<usize> = (0..n_states).collect();
        rng.shuffle(&mut next);
        MarkovGen {
            width,
            states,
            next,
            fidelity,
            current: 0,
            rng,
        }
    }

    /// Creates a chain whose successor graph is one big ring over all
    /// `n_states` states — every state is visited, and every state has
    /// exactly one likely successor.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`new`](Self::new).
    pub fn ring(width: Width, n_states: usize, fidelity: f64, seed: u64) -> Self {
        let mut g = MarkovGen::new(width, n_states, fidelity, seed);
        g.next = (0..n_states).map(|i| (i + 1) % n_states).collect();
        g
    }

    /// The distinct state values of the chain.
    pub fn states(&self) -> &[Word] {
        &self.states
    }
}

impl TraceGenerator for MarkovGen {
    fn width(&self) -> Width {
        self.width
    }

    fn next_word(&mut self) -> Word {
        let out = self.states[self.current];
        self.current = if self.rng.gen_bool(self.fidelity) {
            self.next[self.current]
        } else {
            self.rng.below(self.states.len() as u64) as usize
        };
        out
    }
}

/// Floating-point bit patterns from a smooth random walk.
///
/// Scientific-code buses (the SPECfp kernels) carry IEEE-754 words whose
/// sign/exponent bits are nearly constant while mantissa bits churn; this
/// generator walks a value multiplicatively and emits its bit pattern
/// (`f64` bits for 64-bit buses, `f32` bits for widths ≤ 32).
#[derive(Debug, Clone)]
pub struct FloatWalkGen {
    width: Width,
    value: f64,
    step: f64,
    rng: SmallRng,
}

impl FloatWalkGen {
    /// Creates a float-walk generator starting near `start` with relative
    /// step size `step` (e.g. `0.01` for 1% steps).
    ///
    /// # Panics
    ///
    /// Panics if `start` is not finite and positive, or `step` is not in
    /// `(0.0, 1.0)`.
    pub fn new(width: Width, start: f64, step: f64, seed: u64) -> Self {
        assert!(
            start.is_finite() && start > 0.0,
            "start must be finite and positive"
        );
        assert!(
            step > 0.0 && step < 1.0,
            "step must be in (0, 1), got {step}"
        );
        FloatWalkGen {
            width,
            value: start,
            step,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TraceGenerator for FloatWalkGen {
    fn width(&self) -> Width {
        self.width
    }

    fn next_word(&mut self) -> Word {
        let factor = 1.0 + self.step * (self.rng.next_f64() * 2.0 - 1.0);
        self.value *= factor;
        if !self.value.is_finite() || self.value <= f64::MIN_POSITIVE {
            self.value = 1.0;
        }
        let bits = if self.width.bits() > 32 {
            self.value.to_bits()
        } else {
            u64::from((self.value as f32).to_bits())
        };
        self.width.truncate(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    const W: Width = Width::W32;

    #[test]
    fn constant_repeats() {
        let t = ConstantGen::new(W, 42).generate(10);
        assert!(t.iter().all(|v| v == 42));
    }

    #[test]
    fn constant_truncates() {
        let g = ConstantGen::new(Width::new(8).unwrap(), 0x1FF);
        assert_eq!(ConstantGen::next_word(&mut g.clone()), 0xFF);
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = UniformRandomGen::new(W, 7).generate(100);
        let b = UniformRandomGen::new(W, 7).generate(100);
        let c = UniformRandomGen::new(W, 8).generate(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_width() {
        let w = Width::new(12).unwrap();
        let t = UniformRandomGen::new(w, 1).generate(1000);
        assert!(t.iter().all(|v| w.contains(v)));
    }

    #[test]
    fn stride_wraps_at_width() {
        let w = Width::new(8).unwrap();
        let t = StrideGen::new(w, 250, 4).generate(4);
        assert_eq!(t.values(), &[250, 254, 2, 6]);
    }

    #[test]
    fn noisy_stride_mostly_strides() {
        let t = NoisyStrideGen::new(W, 8, 0.01, 3).generate(10_000);
        assert!(stats::stride_hit_fraction(&t, 1) > 0.9);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn noisy_stride_rejects_bad_probability() {
        let _ = NoisyStrideGen::new(W, 8, 1.5, 0);
    }

    #[test]
    fn interleave_round_robins() {
        let g = InterleaveGen::new(vec![
            Box::new(ConstantGen::new(W, 1)),
            Box::new(ConstantGen::new(W, 2)),
        ]);
        let t = { g }.generate(5);
        assert_eq!(t.values(), &[1, 2, 1, 2, 1]);
    }

    #[test]
    fn interleaved_strides_hit_stride_k() {
        // Starts/strides chosen non-affine in the stream index so that a
        // stride-1 predictor cannot accidentally fit the interleave.
        let params = [(0u64, 4u64), (100_000, 12), (3_000, 7), (77_777, 9)];
        let children: Vec<Box<dyn TraceGenerator>> = params
            .iter()
            .map(|&(start, stride)| {
                Box::new(StrideGen::new(W, start, stride)) as Box<dyn TraceGenerator>
            })
            .collect();
        let t = InterleaveGen::new(children).generate(4000);
        assert!(stats::stride_hit_fraction(&t, 1) < 0.05);
        assert!(stats::stride_hit_fraction(&t, 4) > 0.95);
    }

    #[test]
    #[should_panic(expected = "at least one child")]
    fn interleave_rejects_empty() {
        let _ = InterleaveGen::new(Vec::new());
    }

    #[test]
    fn working_set_has_small_windows_but_growing_population() {
        let t = WorkingSetGen::new(W, 32, 0.8, 0.01, 5).generate(50_000);
        let census = stats::ValueCensus::of(&t);
        // Churn keeps introducing new values...
        assert!(census.unique_count() > 100);
        // ...but short windows see few distinct values.
        let frac = stats::window_uniqueness(&t, 64).unwrap();
        assert!(frac < 0.5, "window uniqueness {frac} should be small");
    }

    #[test]
    fn working_set_zero_churn_has_bounded_population() {
        let t = WorkingSetGen::new(W, 16, 0.5, 0.0, 5).generate(10_000);
        assert!(stats::ValueCensus::of(&t).unique_count() <= 16);
    }

    #[test]
    fn phased_switches_children() {
        let g = PhasedGen::new(
            vec![
                Box::new(ConstantGen::new(W, 1)),
                Box::new(ConstantGen::new(W, 2)),
            ],
            3,
        );
        let t = { g }.generate(9);
        assert_eq!(t.values(), &[1, 1, 1, 2, 2, 2, 1, 1, 1]);
    }

    #[test]
    fn repeat_creates_runs() {
        let inner = UniformRandomGen::new(W, 2);
        let t = RepeatGen::new(inner, 0.75, 9).generate(20_000);
        let stats = stats::run_lengths(&t).unwrap();
        // Geometric with p=0.75 continue => mean run length ~4.
        assert!(
            stats.mean > 3.0 && stats.mean < 5.0,
            "mean run {}",
            stats.mean
        );
    }

    #[test]
    fn markov_deterministic_chain_cycles() {
        let mut g = MarkovGen::new(W, 6, 1.0, 9);
        let t = g.generate(60);
        // A permutation with fidelity 1 repeats with period <= n_states.
        let first_12: Vec<u64> = t.values()[..12].to_vec();
        for start in (12..48).step_by(12) {
            // Find the period by checking the cycle containing state 0.
            let _ = start;
        }
        // Values are drawn only from the state set.
        let states = g.states().to_vec();
        assert!(t.iter().all(|v| states.contains(&v)));
        // Deterministic: the same prefix recurs.
        let t2 = MarkovGen::new(W, 6, 1.0, 9).generate(60);
        assert_eq!(t, t2);
        assert!(!first_12.is_empty());
    }

    #[test]
    fn markov_successors_are_predictable_at_high_fidelity() {
        let mut g = MarkovGen::new(W, 16, 0.95, 4);
        let t = g.generate(20_000);
        // Empirically: the most common successor of each value carries
        // ~95% of its transitions.
        use std::collections::HashMap;
        let mut succ: HashMap<(u64, u64), u64> = HashMap::new();
        let mut totals: HashMap<u64, u64> = HashMap::new();
        for w in t.values().windows(2) {
            *succ.entry((w[0], w[1])).or_insert(0) += 1;
            *totals.entry(w[0]).or_insert(0) += 1;
        }
        let mut best: HashMap<u64, u64> = HashMap::new();
        for (&(a, _), &c) in &succ {
            let e = best.entry(a).or_insert(0);
            *e = (*e).max(c);
        }
        let predictable: u64 = best.values().sum();
        let total: u64 = totals.values().sum();
        let frac = predictable as f64 / total as f64;
        assert!(frac > 0.9, "best-successor fraction {frac}");
    }

    #[test]
    fn float_walk_keeps_exponent_stable() {
        let t = FloatWalkGen::new(W, 1.0, 0.001, 4).generate(1000);
        // With 0.1% steps the f32 exponent byte rarely changes: the top
        // 9 bits (sign+exponent) should take very few distinct values.
        let mut exponents: Vec<u64> = t.iter().map(|v| v >> 23).collect();
        exponents.sort_unstable();
        exponents.dedup();
        assert!(exponents.len() <= 3, "saw {} exponents", exponents.len());
    }

    #[test]
    fn boxed_generator_is_usable() {
        let mut g: Box<dyn TraceGenerator> = Box::new(ConstantGen::new(W, 3));
        assert_eq!(g.next_word(), 3);
        assert_eq!(g.generate(2).len(), 2);
    }
}
