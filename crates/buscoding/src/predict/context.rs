//! The context-based transcoder (Section 4.3, Figures 12–14, 20–25).
//!
//! Two cooperating structures track value statistics:
//!
//! * a **frequency table** of the hottest entries, kept sorted by
//!   frequency so that an entry's *position* is its code (hotter entries
//!   earn lower-weight codes); and
//! * a **staging shift register**: new values accumulate frequency
//!   counts there and are promoted into the table only if, when shifted
//!   out, their count clears a threshold and beats the table's
//!   least-frequent entry — this avoids thrashing the table's coldest
//!   slot.
//!
//! A periodic **counter division** (every `divide_period` inputs, all
//! counters halve) ages out statistics from earlier program phases
//! (Figure 25).
//!
//! The **value-based** flavor (Figure 13) keys entries on bus values;
//! the **transition-based** flavor (Figure 14) keys on (previous value →
//! value) pairs. The paper finds value-based superior at equal hardware
//! because a 32-bit bus has 2³² states but nearly 2⁶⁴ arcs, so arc
//! frequencies are more dilute.

use bustrace::{Width, Word};

use crate::predict::{
    predictive_codec, PredictiveDecoder, PredictiveEncoder, Predictor, MAX_ENTRIES,
};

/// Minimum staged count for a shift-register entry to be considered for
/// promotion when it exits (the value the hardware layout uses).
const PROMOTE_THRESHOLD: u64 = 2;

/// Configuration shared by both context-transcoder flavors: the
/// parameters the `context-value`/`context-transition` scheme names set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextConfig {
    /// Bus width.
    pub width: Width,
    /// Frequency-table entries (the paper's optimum: 20–32).
    pub table_entries: usize,
    /// Staging shift-register entries (the paper's trade-off point: 8).
    pub shift_entries: usize,
    /// Inputs between counter divisions (the paper levels off at 4096).
    /// Zero disables division.
    pub divide_period: u64,
}

impl ContextConfig {
    /// Creates a configuration with explicit structure sizes, dividing
    /// the counters every 4096 inputs. The paper's default is a 28-entry
    /// table and an 8-entry shift register. The predictor constructors
    /// check the sizes.
    pub fn new(width: Width, table_entries: usize, shift_entries: usize) -> Self {
        ContextConfig {
            width,
            table_entries,
            shift_entries,
            divide_period: 4096,
        }
    }

    /// Replaces the counter-division period (0 disables).
    #[must_use]
    pub fn with_divide_period(mut self, period: u64) -> Self {
        self.divide_period = period;
        self
    }
}

/// A sorted frequency table with staged promotion — the behavioral model
/// shared by both flavors (the key type differs).
///
/// Keys and counts live in parallel fixed arrays: the table (hottest
/// first) occupies `0..table_len` and the staging register (newest
/// first) follows it, so the value flavor's candidate list is the key
/// array itself. Membership stays a linear scan on purpose — the engine
/// does the one scan and hands back the slot (see the `HashMap` note in
/// `docs/PERFORMANCE.md`).
#[derive(Debug, Clone)]
struct FrequencyCore<K: PartialEq + Copy> {
    table_entries: usize,
    shift_entries: usize,
    divide_period: u64,
    /// Table entries in `0..table_len`, sorted by descending count (the
    /// position is the code rank); staged entries after them, newest
    /// first.
    keys: [K; 2 * MAX_ENTRIES],
    counts: [u64; 2 * MAX_ENTRIES],
    table_len: usize,
    staged: usize,
    seen: u64,
}

fn check_sizes(table_entries: usize, shift_entries: usize) {
    assert!(
        table_entries >= 1,
        "frequency table needs at least one entry"
    );
    assert!(
        shift_entries >= 1,
        "shift register needs at least one entry"
    );
    assert!(
        table_entries <= MAX_ENTRIES && shift_entries <= MAX_ENTRIES,
        "the frequency table and shift register hold at most {MAX_ENTRIES} entries each, \
         got {table_entries}+{shift_entries}"
    );
}

impl<K: PartialEq + Copy + Default> FrequencyCore<K> {
    fn new(cfg: &ContextConfig) -> Self {
        check_sizes(cfg.table_entries, cfg.shift_entries);
        FrequencyCore {
            table_entries: cfg.table_entries,
            shift_entries: cfg.shift_entries,
            divide_period: cfg.divide_period,
            keys: [K::default(); 2 * MAX_ENTRIES],
            counts: [0; 2 * MAX_ENTRIES],
            table_len: 0,
            staged: 0,
            seen: 0,
        }
    }

    fn reset(&mut self) {
        self.table_len = 0;
        self.staged = 0;
        self.seen = 0;
    }

    /// Live entries: the table, then the staging register.
    fn len(&self) -> usize {
        self.table_len + self.staged
    }

    fn live_keys(&self) -> &[K] {
        &self.keys[..self.len()]
    }

    /// Records one observation of `key`, which sits at `slot` of the
    /// live entries (or nowhere), maintaining sortedness and staging.
    fn record(&mut self, key: K, slot: Option<usize>) {
        self.seen += 1;
        let len = self.len();
        if self.divide_period > 0 && self.seen.is_multiple_of(self.divide_period) {
            for c in &mut self.counts[..len] {
                *c /= 2;
            }
        }
        match slot {
            Some(mut p) if p < self.table_len => {
                self.counts[p] += 1;
                // Bubble up past entries with strictly lower counts; ties
                // keep their order (the hardware's pending-bit sort makes
                // the same guarantee, Section 5.3.1).
                while p > 0 && self.counts[p] > self.counts[p - 1] {
                    self.keys.swap(p, p - 1);
                    self.counts.swap(p, p - 1);
                    p -= 1;
                }
            }
            Some(p) => self.counts[p] += 1,
            None => {
                // New key: stage it; a full shift register evicts its
                // oldest entry, which gets one shot at promotion into
                // the table.
                if self.staged == self.shift_entries {
                    self.staged -= 1;
                    let exit = self.len();
                    self.maybe_promote(self.keys[exit], self.counts[exit]);
                }
                self.insert_at(self.table_len, key, 1);
                self.staged += 1;
            }
        }
    }

    /// Shifts the live entries from `pos` on one place back and writes
    /// `(key, count)` at `pos`.
    fn insert_at(&mut self, pos: usize, key: K, count: u64) {
        let len = self.len();
        self.keys.copy_within(pos..len, pos + 1);
        self.counts.copy_within(pos..len, pos + 1);
        self.keys[pos] = key;
        self.counts[pos] = count;
    }

    fn maybe_promote(&mut self, key: K, count: u64) {
        if count < PROMOTE_THRESHOLD {
            return;
        }
        if self.table_len == self.table_entries {
            if count <= self.counts[self.table_len - 1] {
                return;
            }
            // Drop the coldest table entry.
            let len = self.len();
            self.keys
                .copy_within(self.table_len..len, self.table_len - 1);
            self.counts
                .copy_within(self.table_len..len, self.table_len - 1);
            self.table_len -= 1;
        }
        let pos = self.counts[..self.table_len].partition_point(|&c| c >= count);
        self.insert_at(pos, key, count);
        self.table_len += 1;
    }

    /// Invariant check used by tests: descending counts.
    #[cfg(test)]
    fn is_sorted(&self) -> bool {
        self.counts[..self.table_len]
            .windows(2)
            .all(|w| w[0] >= w[1])
    }
}

/// The value-based context predictor (Figure 13): candidates are the
/// frequency-table values (hottest first), then the staged values
/// (newest first).
#[derive(Debug, Clone)]
pub struct ValueContextPredictor {
    core: FrequencyCore<Word>,
}

impl ValueContextPredictor {
    /// Creates a predictor from the configuration's structure sizes.
    ///
    /// # Panics
    ///
    /// Panics if either structure is empty or above [`MAX_ENTRIES`].
    pub fn new(cfg: &ContextConfig) -> Self {
        ValueContextPredictor {
            core: FrequencyCore::new(cfg),
        }
    }

    /// Current frequency-table contents (value, count), hottest first.
    pub fn table(&self) -> impl Iterator<Item = (Word, u64)> + '_ {
        let n = self.core.table_len;
        self.core.keys[..n]
            .iter()
            .copied()
            .zip(self.core.counts[..n].iter().copied())
    }
}

impl Predictor for ValueContextPredictor {
    fn max_candidates(&self) -> usize {
        self.core.table_entries + self.core.shift_entries
    }

    fn candidates(&mut self) -> &[Word] {
        self.core.live_keys()
    }

    /// Keys are unique across the table and staging register, so the
    /// engine's slot is the entry to bump.
    fn observe(&mut self, value: Word, slot: Option<usize>) {
        self.core.record(value, slot);
    }

    fn reset(&mut self) {
        self.core.reset();
    }
}

/// The transition-based context predictor (Figure 14): entries are
/// (previous value → value) arcs; candidates are the successors of the
/// current value, hottest first.
#[derive(Debug, Clone)]
pub struct TransitionContextPredictor {
    core: FrequencyCore<(Word, Word)>,
    last: Option<Word>,
    /// Successors of `last` in candidate order (table, then staging),
    /// rebuilt after every observation.
    successors: [Word; 2 * MAX_ENTRIES],
    /// Where each successor's arc sits among the core's live entries.
    arcs: [usize; 2 * MAX_ENTRIES],
    len: usize,
}

impl TransitionContextPredictor {
    /// Creates a predictor from the configuration's structure sizes.
    ///
    /// # Panics
    ///
    /// Panics if either structure is empty or above [`MAX_ENTRIES`].
    pub fn new(cfg: &ContextConfig) -> Self {
        TransitionContextPredictor {
            core: FrequencyCore::new(cfg),
            last: None,
            successors: [0; 2 * MAX_ENTRIES],
            arcs: [0; 2 * MAX_ENTRIES],
            len: 0,
        }
    }
}

impl Predictor for TransitionContextPredictor {
    fn max_candidates(&self) -> usize {
        self.core.table_entries + self.core.shift_entries
    }

    fn candidates(&mut self) -> &[Word] {
        &self.successors[..self.len]
    }

    /// Arcs are unique, so the successor at `slot` names the one arc
    /// `(last, value)` to bump; no slot means the arc is new.
    fn observe(&mut self, value: Word, slot: Option<usize>) {
        if let Some(last) = self.last {
            self.core.record((last, value), slot.map(|s| self.arcs[s]));
        }
        self.last = Some(value);
        self.len = 0;
        for (at, &(prev, next)) in self.core.live_keys().iter().enumerate() {
            if prev == value {
                self.successors[self.len] = next;
                self.arcs[self.len] = at;
                self.len += 1;
            }
        }
    }

    fn reset(&mut self) {
        self.core.reset();
        self.last = None;
        self.len = 0;
    }
}

/// Builds a matched encoder/decoder pair for the value-based context
/// scheme.
pub fn context_value_codec(
    config: ContextConfig,
) -> (
    PredictiveEncoder<ValueContextPredictor>,
    PredictiveDecoder<ValueContextPredictor>,
) {
    predictive_codec(
        config.width,
        ValueContextPredictor::new(&config),
        ValueContextPredictor::new(&config),
    )
}

/// Builds a matched encoder/decoder pair for the transition-based
/// context scheme.
pub fn context_transition_codec(
    config: ContextConfig,
) -> (
    PredictiveEncoder<TransitionContextPredictor>,
    PredictiveDecoder<TransitionContextPredictor>,
) {
    predictive_codec(
        config.width,
        TransitionContextPredictor::new(&config),
        TransitionContextPredictor::new(&config),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{evaluate, verify_roundtrip};
    use crate::identity::IdentityCodec;
    use crate::metrics::percent_energy_removed;
    use crate::predict::tests::feed;
    use bustrace::Trace;

    fn cfg(table: usize, sr: usize) -> ContextConfig {
        ContextConfig::new(Width::W32, table, sr)
    }

    #[test]
    fn hot_values_reach_the_table_top() {
        let mut p = ValueContextPredictor::new(&cfg(4, 2));
        // 0xAA appears constantly, with enough other traffic to push it
        // through the staging register into the table.
        for i in 0..200u64 {
            feed(&mut p, 0xAA);
            feed(&mut p, i); // churn
        }
        assert_eq!(
            p.candidates().first().copied(),
            Some(0xAA),
            "table: {:?}",
            p.table().collect::<Vec<_>>()
        );
    }

    #[test]
    fn table_stays_sorted_under_arbitrary_traffic() {
        let mut p = ValueContextPredictor::new(&cfg(8, 4));
        let mut x = 3u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            feed(&mut p, (x >> 55) * 3); // ~512 distinct values, skewed reuse
            assert!(p.core.is_sorted());
        }
    }

    #[test]
    fn staging_prevents_cold_values_from_entering_table() {
        let mut p = ValueContextPredictor::new(&cfg(2, 2));
        // Two hot values...
        for _ in 0..50 {
            feed(&mut p, 1);
            feed(&mut p, 2);
        }
        // ...then a stream of once-only values must not evict them.
        for i in 100..200u64 {
            feed(&mut p, i);
        }
        let table: Vec<Word> = p.table().map(|(v, _)| v).collect();
        assert!(table.contains(&1) && table.contains(&2), "table: {table:?}");
    }

    #[test]
    fn counter_division_ages_old_phases() {
        let mut aging = ValueContextPredictor::new(&cfg(2, 2));
        let mut frozen = ValueContextPredictor::new(&cfg(2, 2).with_divide_period(0));
        // Phase 1: value 7 dominates.
        for _ in 0..3000 {
            feed(&mut aging, 7);
            feed(&mut frozen, 7);
        }
        // Phase 2: value 9 dominates; interleave churn so staging flows.
        for i in 0..3000u64 {
            for p in [&mut aging, &mut frozen] {
                feed(p, 9);
                feed(p, 1_000_000 + (i % 64));
            }
        }
        let top_aging = aging.candidates().first().copied();
        // With division, the new phase's hot value overtakes the stale
        // one; without, 7's huge stale count keeps the top slot.
        assert_eq!(top_aging, Some(9));
        assert_eq!(frozen.candidates().first().copied(), Some(7));
    }

    #[test]
    fn value_codec_round_trips() {
        let (mut enc, mut dec) = context_value_codec(cfg(28, 8));
        let mut trace = Trace::new(Width::W32);
        let mut x = 5u64;
        for i in 0..10_000u64 {
            if i % 3 != 0 {
                trace.push(0x5000 + (i % 20));
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
                trace.push(x >> 9);
            }
        }
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn transition_codec_round_trips() {
        let (mut enc, mut dec) = context_transition_codec(ContextConfig::new(Width::W32, 16, 8));
        let mut trace = Trace::new(Width::W32);
        let mut x = 55u64;
        for i in 0..10_000u64 {
            match i % 4 {
                0 => trace.push(1),
                1 => trace.push(2),
                2 => trace.push(3),
                _ => {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                    trace.push(x >> 33);
                }
            }
        }
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn transition_flavor_learns_cycles() {
        let mut p = TransitionContextPredictor::new(&cfg(8, 4));
        for _ in 0..300 {
            for v in [10u64, 20, 30] {
                feed(&mut p, v);
            }
        }
        // After seeing 10 -> 20 hundreds of times, the successor of 10
        // must be the top candidate once 10 is observed.
        feed(&mut p, 10);
        assert_eq!(p.candidates().first().copied(), Some(20));
    }

    #[test]
    fn value_flavor_beats_transition_flavor_at_equal_hardware() {
        // The paper's Figures 20-23 conclusion: more arcs than states
        // dilutes the transition table. Working-set traffic where values
        // recur but in varying orders shows the gap.
        let mut x = 9u64;
        let set: Vec<u64> = (0..40).map(|i| 0xA000 + i * 17).collect();
        let mut trace = Trace::new(Width::W32);
        for _ in 0..40_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
            trace.push(set[((x >> 50) % 40) as usize]);
        }
        let baseline = evaluate(&mut IdentityCodec::new(Width::W32), &trace);
        let (mut venc, _) = context_value_codec(cfg(24, 8));
        let (mut tenc, _) = context_transition_codec(cfg(24, 8));
        let v = percent_energy_removed(&evaluate(&mut venc, &trace), &baseline, 1.0);
        let t = percent_energy_removed(&evaluate(&mut tenc, &trace), &baseline, 1.0);
        assert!(v > t, "value {v:.1}% should beat transition {t:.1}%");
    }

    #[test]
    fn transition_flavor_wins_on_markov_traffic() {
        // The converse of the paper's Figures 20-23 finding: when each
        // value has a *unique likely successor* (first-order Markov ring)
        // and all values are equally common, transition context carries
        // the information and value context does not.
        use bustrace::generators::{MarkovGen, TraceGenerator};
        let mut g = MarkovGen::ring(Width::W32, 20, 0.97, 11);
        let trace = g.generate(40_000);
        let baseline = evaluate(&mut IdentityCodec::new(Width::W32), &trace);
        let (mut tenc, _) = context_transition_codec(cfg(24, 8));
        let (mut venc, _) = context_value_codec(cfg(24, 8));
        let t = percent_energy_removed(&evaluate(&mut tenc, &trace), &baseline, 1.0);
        let v = percent_energy_removed(&evaluate(&mut venc, &trace), &baseline, 1.0);
        assert!(
            t > v,
            "transition {t:.1}% should beat value {v:.1}% on Markov traffic"
        );
        assert!(t > 60.0, "transition flavor should excel here: {t:.1}%");
    }

    #[test]
    fn removes_energy_on_skewed_traffic() {
        let mut x = 77u64;
        let set: Vec<u64> = (0..64)
            .map(|i| 0x1234_5678u64.wrapping_mul(i + 1))
            .collect();
        let mut trace = Trace::new(Width::W32);
        for _ in 0..40_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(23);
            // Zipf-ish: low ranks much more likely.
            let r = ((x >> 48) as f64 / 65536.0).powi(3);
            trace.push(set[(r * 63.0) as usize]);
        }
        let baseline = evaluate(&mut IdentityCodec::new(Width::W32), &trace);
        let (mut enc, _) = context_value_codec(cfg(28, 8));
        let removed = percent_energy_removed(&evaluate(&mut enc, &trace), &baseline, 1.0);
        assert!(removed > 30.0, "removed only {removed:.1}%");
    }

    #[test]
    fn config_builders() {
        let c = ContextConfig::new(Width::W32, 28, 8).with_divide_period(64);
        assert_eq!(c.divide_period, 64);
        assert_eq!(c.table_entries, 28);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn rejects_empty_table() {
        let _ = ValueContextPredictor::new(&cfg(0, 4));
    }

    #[test]
    #[should_panic(expected = "at most 64 entries each")]
    fn rejects_structures_above_the_capacity_limit() {
        let _ = ValueContextPredictor::new(&cfg(28, MAX_ENTRIES + 1));
    }
}
