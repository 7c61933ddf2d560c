//! Cycle-level model of the Context-based transcoder hardware,
//! including the pending-bit sorting algorithm (Section 5.3.1,
//! Figure 27).
//!
//! The frequency table stores no codewords: an entry's *position* is its
//! code, so the table must stay sorted by frequency. General hardware
//! sorting is ruinously expensive (`O(n log n)` comparators or `O(n²)`
//! wiring), so the design restricts itself to **neighbor swaps** driven
//! by XOR equality comparators and a **pending bit** per entry:
//!
//! 1. a hit sets the entry's pending bit instead of incrementing its
//!    counter immediately (a hit on an already-pending entry is lost —
//!    the documented caveat);
//! 2. every cycle, the top entry increments-and-clears if pending;
//! 3. every cycle, each adjacent pair compares counters: *different* →
//!    the lower entry increments-and-clears if pending (it can never
//!    pass its neighbor); *equal with the lower pending* → the entries
//!    swap, bubbling the pending entry up one position per cycle.
//!
//! This keeps Invariant 2 — counters non-increasing down the table —
//! true at every cycle boundary, which the property tests assert.

use std::collections::VecDeque;

use bustrace::Word;

use crate::ops::OpCounts;
use crate::window_hw::HwOutcome;

/// Saturation limit of the four chained 4-bit Johnson counters
/// (Section 5.3.3: maximum count 4096).
const COUNTER_MAX: u64 = 4096;

const PRECHARGE_BITS: u32 = 16;
const PRECHARGE_MASK: u64 = (1 << PRECHARGE_BITS) - 1;

/// Geometry and aging parameters of the Context-based hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextHwConfig {
    /// Frequency-table entries (the layout of Figure 32 has 28).
    pub table: usize,
    /// Staging shift-register entries (the layout has 4).
    pub shift: usize,
    /// Cycles between counter-division sweeps (0 disables).
    pub divide_period: u64,
    /// Minimum staged count for promotion on shift-register exit.
    pub promote_threshold: u64,
}

impl ContextHwConfig {
    /// The Figure 32 layout: 28 table entries, 4 staging entries,
    /// divide every 4096 cycles.
    pub fn paper_layout() -> Self {
        ContextHwConfig {
            table: 28,
            shift: 4,
            divide_period: 4096,
            promote_threshold: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableEntry {
    tag: Word,
    counter: u64,
    pending: bool,
}

/// The Context-based transcoder datapath at one end of the bus.
#[derive(Debug, Clone)]
pub struct ContextHardware {
    config: ContextHwConfig,
    /// Sorted non-increasing by counter (Invariant 2); unique tags
    /// (Invariant 1).
    table: Vec<TableEntry>,
    /// Staged (tag, count); newest at the back; tags unique and disjoint
    /// from the table.
    sr: VecDeque<(Word, u64)>,
    last: Option<Word>,
    cycle: u64,
    ops: OpCounts,
}

impl ContextHardware {
    /// Creates the datapath.
    ///
    /// # Panics
    ///
    /// Panics if either structure has zero entries.
    pub fn new(config: ContextHwConfig) -> Self {
        assert!(
            config.table >= 1,
            "frequency table needs at least one entry"
        );
        assert!(config.shift >= 1, "shift register needs at least one entry");
        ContextHardware {
            config,
            table: Vec::with_capacity(config.table),
            sr: VecDeque::with_capacity(config.shift),
            last: None,
            cycle: 0,
            ops: OpCounts::new(),
        }
    }

    /// The operation tally so far.
    pub fn ops(&self) -> &OpCounts {
        &self.ops
    }

    /// Current table contents (tag, counter), top first.
    pub fn table_contents(&self) -> impl Iterator<Item = (Word, u64)> + '_ {
        self.table.iter().map(|e| (e.tag, e.counter))
    }

    /// Invariant 2: counters non-increasing down the table.
    pub fn is_sorted(&self) -> bool {
        self.table.windows(2).all(|w| w[0].counter >= w[1].counter)
    }

    /// Invariant 1: tags unique across table and shift register.
    pub fn tags_unique(&self) -> bool {
        let mut tags: Vec<Word> = self
            .table
            .iter()
            .map(|e| e.tag)
            .chain(self.sr.iter().map(|&(t, _)| t))
            .collect();
        let before = tags.len();
        tags.sort_unstable();
        tags.dedup();
        tags.len() == before
    }

    /// Presents one bus word; returns the coding decision and updates
    /// the tally, then runs one cycle of the sorting hardware.
    pub fn present(&mut self, value: Word) -> HwOutcome {
        self.ops.cycles += 1;
        self.cycle += 1;

        if self.config.divide_period > 0 && self.cycle.is_multiple_of(self.config.divide_period) {
            for e in &mut self.table {
                e.counter /= 2;
            }
            for e in &mut self.sr {
                e.1 /= 2;
            }
            self.ops.divide_writes += (self.table.len() + self.sr.len()) as u64;
        }

        // Match phase over table then staging register.
        let mut table_pos: Option<usize> = None;
        for (i, e) in self.table.iter().enumerate() {
            self.ops.precharge_matches += 1;
            if e.tag & PRECHARGE_MASK == value & PRECHARGE_MASK {
                self.ops.full_matches += 1;
                if e.tag == value {
                    table_pos = Some(i);
                }
            }
        }
        let mut sr_pos: Option<usize> = None;
        for (i, &(tag, _)) in self.sr.iter().enumerate() {
            self.ops.precharge_matches += 1;
            if tag & PRECHARGE_MASK == value & PRECHARGE_MASK {
                self.ops.full_matches += 1;
                if tag == value {
                    sr_pos = Some(i);
                }
            }
        }

        let outcome = self.decide(value, table_pos, sr_pos);

        // Statistics update.
        match (table_pos, sr_pos) {
            (Some(p), _) => {
                if !self.table[p].pending {
                    self.table[p].pending = true;
                    self.ops.pending_updates += 1;
                }
                // else: the hit is lost (documented caveat).
            }
            (None, Some(p)) => {
                if self.sr[p].1 < COUNTER_MAX {
                    self.sr[p].1 += 1;
                    self.ops.counter_increments += 1;
                }
            }
            (None, None) => {
                if self.sr.len() == self.config.shift {
                    let (tag, count) = self.sr.pop_front().expect("non-empty");
                    self.maybe_promote(tag, count);
                }
                self.sr.push_back((value, 1));
                self.ops.shifts += 1;
            }
        }

        self.sort_cycle();

        if self.last != Some(value) {
            self.ops.last_updates += 1;
            self.last = Some(value);
        }
        debug_assert!(self.is_sorted(), "Invariant 2 violated");
        debug_assert!(self.tags_unique(), "Invariant 1 violated");
        outcome
    }

    /// Decision mirroring the behavioral engine: LAST first, then table
    /// positions, then staging entries newest-first, skipping LAST.
    fn decide(&self, value: Word, table_pos: Option<usize>, sr_pos: Option<usize>) -> HwOutcome {
        if self.last == Some(value) {
            return HwOutcome::Hit { rank: 0 };
        }
        let skipped_before = |candidate_index: usize| -> usize {
            // How many candidates before this index equal LAST (0 or 1).
            let Some(last) = self.last else { return 0 };
            let mut skipped = 0;
            for (i, e) in self.table.iter().enumerate() {
                if i >= candidate_index {
                    return skipped;
                }
                if e.tag == last {
                    skipped += 1;
                }
            }
            let into_sr = candidate_index - self.table.len();
            for (j, &(tag, _)) in self.sr.iter().rev().enumerate() {
                if j >= into_sr {
                    break;
                }
                if tag == last {
                    skipped += 1;
                }
            }
            skipped
        };
        if let Some(p) = table_pos {
            return HwOutcome::Hit {
                rank: 1 + p - skipped_before(p),
            };
        }
        if let Some(p) = sr_pos {
            let newest_first = self.sr.len() - 1 - p;
            let index = self.table.len() + newest_first;
            return HwOutcome::Hit {
                rank: 1 + index - skipped_before(index),
            };
        }
        HwOutcome::Miss
    }

    /// Promotion on staging exit: the exiting value replaces the
    /// bottom table entry if its count clears the threshold and beats
    /// that entry. The incoming counter is clamped to the neighbor above
    /// so Invariant 2 holds by construction (a hardware write port can
    /// load any value, but an unsorted load would break position-coding).
    fn maybe_promote(&mut self, tag: Word, count: u64) {
        if count < self.config.promote_threshold {
            return;
        }
        if self.table.len() < self.config.table {
            let clamp = self.table.last().map_or(count, |e| e.counter.min(count));
            self.table.push(TableEntry {
                tag,
                counter: clamp,
                pending: false,
            });
            self.ops.promotions += 1;
        } else if let Some(bottom) = self.table.last() {
            if count > bottom.counter {
                let clamp = if self.table.len() >= 2 {
                    self.table[self.table.len() - 2].counter.min(count)
                } else {
                    count
                };
                let n = self.table.len();
                self.table[n - 1] = TableEntry {
                    tag,
                    counter: clamp,
                    pending: false,
                };
                self.ops.promotions += 1;
            }
        }
    }

    /// One cycle of the pending-bit sorting hardware.
    fn sort_cycle(&mut self) {
        if self.table.is_empty() {
            return;
        }
        // Rule 2: the top entry increments if pending.
        if self.table[0].pending {
            if self.table[0].counter < COUNTER_MAX {
                self.table[0].counter += 1;
                self.ops.counter_increments += 1;
            }
            self.table[0].pending = false;
            self.ops.pending_updates += 1;
        }
        // Rule 3: pairwise neighbor processing, top to bottom.
        for i in 0..self.table.len().saturating_sub(1) {
            self.ops.counter_compares += 1;
            let (upper, lower) = (self.table[i], self.table[i + 1]);
            if lower.counter == upper.counter {
                if lower.pending {
                    self.table.swap(i, i + 1);
                    self.ops.swaps += 1;
                }
            } else if lower.pending {
                // Strictly lower: incrementing cannot pass the neighbor.
                if self.table[i + 1].counter < COUNTER_MAX {
                    self.table[i + 1].counter += 1;
                    self.ops.counter_increments += 1;
                }
                self.table[i + 1].pending = false;
                self.ops.pending_updates += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw(table: usize, shift: usize) -> ContextHardware {
        ContextHardware::new(ContextHwConfig {
            table,
            shift,
            divide_period: 0,
            promote_threshold: 2,
        })
    }

    /// Feed a value stream and return the hardware.
    fn feed(hw: &mut ContextHardware, values: &[Word]) {
        for &v in values {
            hw.present(v);
        }
    }

    #[test]
    fn values_promote_through_staging() {
        let mut h = hw(4, 2);
        // 0xAA repeats with churn so it accumulates staged counts and is
        // eventually promoted when shifted out.
        for i in 0..40u64 {
            h.present(0xAA);
            h.present(1_000 + i);
        }
        assert!(
            h.table_contents().any(|(tag, _)| tag == 0xAA),
            "hot value must reach the table: {:?}",
            h.table_contents().collect::<Vec<_>>()
        );
    }

    #[test]
    fn figure27_walkthrough() {
        // Reproduce the paper's example: a run of equal counters; a hit
        // on the bottom entry bubbles it up one position per cycle and
        // only then increments.
        let mut h = hw(5, 1);
        // Hand-build the table state of Figure 27(a).
        h.table = vec![
            TableEntry {
                tag: 0xFFEE,
                counter: 9,
                pending: false,
            },
            TableEntry {
                tag: 0x1122,
                counter: 8,
                pending: false,
            },
            TableEntry {
                tag: 0x5438,
                counter: 7,
                pending: false,
            },
            TableEntry {
                tag: 0x9988,
                counter: 6,
                pending: false,
            },
            TableEntry {
                tag: 0x3344,
                counter: 6,
                pending: false,
            },
        ];
        // One more equal entry below, as in the figure.
        h.table.push(TableEntry {
            tag: 0x7788,
            counter: 6,
            pending: false,
        });
        h.config.table = 6;

        // Hit "0x7788" (bottom of an equal-counter run of three).
        h.present(0x7788);
        // Sweep 1 both happened inside present(); the entry swapped up
        // one position past an equal neighbor.
        let tags: Vec<Word> = h.table.iter().map(|e| e.tag).collect();
        assert_eq!(tags[4], 0x7788, "one swap per cycle: {tags:?}");
        assert!(h.is_sorted());

        // Idle cycles (present values that miss everything, small enough
        // not to disturb): use fresh values that land in the SR.
        h.present(0x1);
        let tags: Vec<Word> = h.table.iter().map(|e| e.tag).collect();
        assert_eq!(tags[3], 0x7788, "second swap: {tags:?}");
        h.present(0x2);
        // Now above is 0x5438 with counter 7 > 6: increment, not swap.
        let e = h.table.iter().find(|e| e.tag == 0x7788).unwrap();
        assert_eq!(e.counter, 7);
        assert!(!e.pending);
        assert!(h.is_sorted());
    }

    #[test]
    fn hit_on_pending_entry_is_lost() {
        let mut h = hw(3, 1);
        h.table = vec![
            TableEntry {
                tag: 10,
                counter: 5,
                pending: false,
            },
            TableEntry {
                tag: 20,
                counter: 5,
                pending: false,
            },
            TableEntry {
                tag: 30,
                counter: 5,
                pending: false,
            },
        ];
        // Two hits in consecutive cycles on the bottom entry: the second
        // arrives while the swap is still in flight and pending is set.
        h.present(30);
        h.present(30);
        h.present(0x999); // flush
        h.present(0x998);
        let total: u64 = h.table.iter().map(|e| e.counter).sum();
        // Only one increment landed (15 + 1), not two.
        assert_eq!(total, 16, "{:?}", h.table);
    }

    #[test]
    fn invariants_hold_under_pseudorandom_traffic() {
        let mut h = ContextHardware::new(ContextHwConfig {
            table: 8,
            shift: 4,
            divide_period: 64,
            promote_threshold: 2,
        });
        let mut x = 0xABCDu64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.present((x >> 55) * 3); // skewed small population
            assert!(h.is_sorted());
            assert!(h.tags_unique());
        }
        assert!(h.ops().swaps > 0, "sorting hardware should have worked");
        assert!(h.ops().counter_compares > 0);
    }

    #[test]
    fn counters_saturate() {
        let mut h = hw(1, 1);
        h.table = vec![TableEntry {
            tag: 5,
            counter: COUNTER_MAX,
            pending: false,
        }];
        for _ in 0..10 {
            h.present(5);
        }
        assert_eq!(h.table[0].counter, COUNTER_MAX);
    }

    #[test]
    fn division_halves_counters() {
        let mut h = ContextHardware::new(ContextHwConfig {
            table: 2,
            shift: 1,
            divide_period: 4,
            promote_threshold: 1,
        });
        h.table = vec![TableEntry {
            tag: 9,
            counter: 100,
            pending: false,
        }];
        feed(&mut h, &[1, 2, 3, 4]);
        assert!(h.table[0].counter <= 51, "{:?}", h.table);
        assert!(h.ops().divide_writes > 0);
    }

    #[test]
    fn last_value_hits_rank_zero() {
        let mut h = hw(4, 2);
        h.present(42);
        assert_eq!(h.present(42), HwOutcome::Hit { rank: 0 });
    }
}
