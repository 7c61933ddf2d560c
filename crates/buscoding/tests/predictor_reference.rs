//! Pins the online predictors' contiguous candidate stores to naive
//! reference models.
//!
//! The references below are the straightforward `VecDeque`
//! formulations of the window, stride and both context predictors: one
//! indexed `candidate(i)` lookup at a time, and an `observe` that
//! searches its own store. Two claims, on word streams mixing hot-set
//! reuse, strided ramps and noise, at the capacity edges (1 and
//! [`MAX_ENTRIES`]) as well as in between:
//!
//! 1. after every observation, each predictor's
//!    [`candidates`](Predictor::candidates) slice is exactly the list the
//!    reference offers;
//! 2. [`PredictiveEncoder`] emits the same bus-state sequence as an
//!    encoder that ranks each word by walking the reference's
//!    `candidate(i)` list one index at a time, skipping LAST.

use std::collections::VecDeque;

use buscoding::predict::{
    ContextConfig, PredictiveEncoder, Predictor, StridePredictor, TransitionContextPredictor,
    ValueContextPredictor, WindowPredictor, MAX_ENTRIES,
};
use buscoding::{CodeBook, CostModel, Encoder};
use bustrace::{Width, Word};
use proptest::prelude::*;

/// A naive predictor model: an indexed candidate list and an
/// unassisted update.
trait Reference {
    fn max_candidates(&self) -> usize;
    fn candidate(&self, index: usize) -> Option<Word>;
    fn observe(&mut self, value: Word);

    fn list(&self) -> Vec<Word> {
        assert_eq!(
            self.candidate(self.max_candidates()),
            None,
            "the list never outgrows max_candidates"
        );
        (0..self.max_candidates())
            .map_while(|i| self.candidate(i))
            .collect()
    }
}

/// The unique-value shift register, newest at the back.
struct RefWindow {
    entries: usize,
    window: VecDeque<Word>,
}

impl Reference for RefWindow {
    fn max_candidates(&self) -> usize {
        self.entries
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        let n = self.window.len();
        (index < n).then(|| self.window[n - 1 - index])
    }

    fn observe(&mut self, value: Word) {
        if self.window.contains(&value) {
            return;
        }
        if self.window.len() == self.entries {
            self.window.pop_front();
        }
        self.window.push_back(value);
    }
}

/// The stride bank over a `2 * strides` history, newest at the back.
struct RefStride {
    width: Width,
    strides: usize,
    history: VecDeque<Word>,
}

impl Reference for RefStride {
    fn max_candidates(&self) -> usize {
        self.strides
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        let k = index + 1;
        if k > self.strides {
            return None;
        }
        let n = self.history.len();
        if n < 2 * k {
            return self.history.back().copied();
        }
        let recent = self.history[n - k];
        let older = self.history[n - 2 * k];
        Some(
            self.width
                .truncate(recent.wrapping_add(recent.wrapping_sub(older))),
        )
    }

    fn observe(&mut self, value: Word) {
        if self.history.len() == 2 * self.strides {
            self.history.pop_front();
        }
        self.history.push_back(value);
    }
}

/// The frequency table (sorted by descending count) with its staging
/// shift register (newest at the back).
struct RefCore<K> {
    cfg: ContextConfig,
    table: Vec<(K, u64)>,
    sr: VecDeque<(K, u64)>,
    seen: u64,
}

impl<K: PartialEq + Copy> RefCore<K> {
    fn new(cfg: ContextConfig) -> Self {
        RefCore {
            cfg,
            table: Vec::new(),
            sr: VecDeque::new(),
            seen: 0,
        }
    }

    /// Table keys hottest first, then staged keys newest first.
    fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.table
            .iter()
            .chain(self.sr.iter().rev())
            .map(|&(k, _)| k)
    }

    fn record(&mut self, key: K) {
        self.seen += 1;
        if self.cfg.divide_period > 0 && self.seen.is_multiple_of(self.cfg.divide_period) {
            for e in self.table.iter_mut().chain(self.sr.iter_mut()) {
                e.1 /= 2;
            }
        }
        if let Some(pos) = self.table.iter().position(|e| e.0 == key) {
            self.table[pos].1 += 1;
            let mut p = pos;
            while p > 0 && self.table[p].1 > self.table[p - 1].1 {
                self.table.swap(p, p - 1);
                p -= 1;
            }
            return;
        }
        if let Some(e) = self.sr.iter_mut().find(|e| e.0 == key) {
            e.1 += 1;
            return;
        }
        if self.sr.len() == self.cfg.shift_entries {
            let (exit_key, exit_count) = self.sr.pop_front().expect("non-empty");
            self.maybe_promote(exit_key, exit_count);
        }
        self.sr.push_back((key, 1));
    }

    fn maybe_promote(&mut self, key: K, count: u64) {
        // The engine's fixed promotion threshold.
        if count < 2 {
            return;
        }
        if self.table.len() < self.cfg.table_entries {
            self.insert_sorted(key, count);
        } else if let Some(last) = self.table.last() {
            if count > last.1 {
                self.table.pop();
                self.insert_sorted(key, count);
            }
        }
    }

    fn insert_sorted(&mut self, key: K, count: u64) {
        let pos = self.table.partition_point(|e| e.1 >= count);
        self.table.insert(pos, (key, count));
    }
}

struct RefValueContext(RefCore<Word>);

impl Reference for RefValueContext {
    fn max_candidates(&self) -> usize {
        self.0.cfg.table_entries + self.0.cfg.shift_entries
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        self.0.keys().nth(index)
    }

    fn observe(&mut self, value: Word) {
        self.0.record(value);
    }
}

struct RefTransitionContext {
    core: RefCore<(Word, Word)>,
    last: Option<Word>,
}

impl Reference for RefTransitionContext {
    fn max_candidates(&self) -> usize {
        self.core.cfg.table_entries + self.core.cfg.shift_entries
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        let last = self.last?;
        self.core
            .keys()
            .filter(|&(prev, _)| prev == last)
            .map(|(_, next)| next)
            .nth(index)
    }

    fn observe(&mut self, value: Word) {
        if let Some(last) = self.last {
            self.core.record((last, value));
        }
        self.last = Some(value);
    }
}

/// Claim 1: drives the predictor as the engine does (reporting the
/// first slot of each word) next to its reference, comparing the lists
/// before the first word and after every one.
fn assert_same_lists(mut p: impl Predictor, mut r: impl Reference, words: &[Word]) {
    assert_eq!(p.max_candidates(), r.max_candidates());
    assert_eq!(p.candidates(), r.list().as_slice(), "power-on list");
    for (i, &w) in words.iter().enumerate() {
        let slot = p.candidates().iter().position(|&c| c == w);
        p.observe(w, slot);
        r.observe(w);
        let expected = r.list();
        assert_eq!(
            p.candidates(),
            expected.as_slice(),
            "after word {i} ({w:#x})"
        );
    }
}

/// The predictive encoder as a walk over the reference's
/// `candidate(i)`: LAST is rank 0, candidates equal to LAST are skipped
/// without consuming a rank, and ranks past the codebook miss.
struct RefEncoder<R> {
    width: Width,
    reference: R,
    book: CodeBook,
    cost: CostModel,
    data: u64,
    control: u64,
    last: Option<Word>,
}

impl<R: Reference> RefEncoder<R> {
    fn new(width: Width, reference: R, cost: CostModel) -> Self {
        let book = CodeBook::new(width.bits(), 1 + reference.max_candidates(), cost);
        RefEncoder {
            width,
            reference,
            book,
            cost,
            data: 0,
            control: 0,
            last: None,
        }
    }

    fn rank_of(&self, value: Word) -> Option<usize> {
        if self.last == Some(value) {
            return Some(0);
        }
        let mut rank = 1;
        let mut index = 0;
        while rank < self.book.len() {
            let c = self.reference.candidate(index)?;
            index += 1;
            if Some(c) == self.last {
                continue;
            }
            if c == value {
                return Some(rank);
            }
            rank += 1;
        }
        None
    }

    fn encode(&mut self, value: Word) -> u64 {
        let bits = self.width.bits();
        let mask = self.width.mask();
        if let Some(rank) = self.rank_of(value) {
            self.data ^= self.book.code(rank);
            self.control = 0b00;
        } else {
            let lines = bits + 2;
            let current = self.data | (self.control << bits);
            let raw = value | (0b01 << bits);
            let inv = (value ^ mask) | (0b10 << bits);
            if self.cost.transition_cost(current, inv, lines)
                < self.cost.transition_cost(current, raw, lines)
            {
                self.data = value ^ mask;
                self.control = 0b10;
            } else {
                self.data = value;
                self.control = 0b01;
            }
        }
        self.reference.observe(value);
        self.last = Some(value);
        self.data | (self.control << bits)
    }
}

/// Claim 2: the engine over `p` and the reference walk over `r` drive
/// the bus identically.
fn assert_same_states<P: Predictor>(p: P, r: impl Reference, words: &[Word]) {
    let cost = CostModel::default();
    let mut engine = PredictiveEncoder::new(Width::W32, p);
    let mut reference = RefEncoder::new(Width::W32, r, cost);
    for (i, &w) in words.iter().enumerate() {
        assert_eq!(engine.encode(w), reference.encode(w), "word {i} ({w:#x})");
    }
}

fn window(entries: usize) -> (WindowPredictor, RefWindow) {
    let reference = RefWindow {
        entries,
        window: VecDeque::new(),
    };
    (WindowPredictor::new(entries), reference)
}

fn stride(strides: usize) -> (StridePredictor, RefStride) {
    let reference = RefStride {
        width: Width::W32,
        strides,
        history: VecDeque::new(),
    };
    (StridePredictor::new(Width::W32, strides), reference)
}

fn value_context(cfg: ContextConfig) -> (ValueContextPredictor, RefValueContext) {
    (
        ValueContextPredictor::new(&cfg),
        RefValueContext(RefCore::new(cfg)),
    )
}

fn transition_context(cfg: ContextConfig) -> (TransitionContextPredictor, RefTransitionContext) {
    let reference = RefTransitionContext {
        core: RefCore::new(cfg),
        last: None,
    };
    (TransitionContextPredictor::new(&cfg), reference)
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
        0..600,
    )
}

/// A register size: the capacity edges 1 and [`MAX_ENTRIES`], or a
/// small size the traffic can overflow.
fn capacity() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1), Just(MAX_ENTRIES), 1usize..20]
}

/// Context structure sizes, including 1+1 and the 64+64 maximum, with
/// counter division off, frequent, or at the paper's period.
fn context_config() -> impl Strategy<Value = ContextConfig> {
    let sizes = prop_oneof![
        Just((1, 1)),
        Just((MAX_ENTRIES, MAX_ENTRIES)),
        (1usize..32, 1usize..12),
    ];
    let divide = prop_oneof![Just(0u64), Just(16), Just(4096)];
    (sizes, divide).prop_map(|((table, shift), divide)| {
        ContextConfig::new(Width::W32, table, shift).with_divide_period(divide)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_matches_reference(words in word_stream(), entries in capacity()) {
        let (p, r) = window(entries);
        assert_same_lists(p, r, &words);
        let (p, r) = window(entries);
        assert_same_states(p, r, &words);
    }

    #[test]
    fn stride_matches_reference(words in word_stream(), strides in capacity()) {
        let (p, r) = stride(strides);
        assert_same_lists(p, r, &words);
        let (p, r) = stride(strides);
        assert_same_states(p, r, &words);
    }

    #[test]
    fn value_context_matches_reference(words in word_stream(), cfg in context_config()) {
        let (p, r) = value_context(cfg);
        assert_same_lists(p, r, &words);
        let (p, r) = value_context(cfg);
        assert_same_states(p, r, &words);
    }

    #[test]
    fn transition_context_matches_reference(words in word_stream(), cfg in context_config()) {
        let (p, r) = transition_context(cfg);
        assert_same_lists(p, r, &words);
        let (p, r) = transition_context(cfg);
        assert_same_states(p, r, &words);
    }
}
