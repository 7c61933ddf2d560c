//! Cycle-level model of the Window-based transcoder hardware
//! (Section 5.3.3, Figures 29–30, 33).
//!
//! Structures modeled:
//!
//! * **ShiftTag array** — `N` CAM entries holding the last `N` unique
//!   values, with *pointer-based shifting*: a shift-in rewrites only the
//!   head entry and bumps a tail pointer, so one entry write per miss;
//! * **selective-precharge matching** — every entry compares the low 16
//!   bits first; only low-bits matchers complete the full 32-bit
//!   compare;
//! * **pointer-based LAST-value tracking** — a one-hot vector marks the
//!   entry holding the last bus value, reusing the match circuitry.

use std::collections::VecDeque;

use bustrace::Word;

use crate::ops::OpCounts;

/// What the hardware decided for one presented word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwOutcome {
    /// Matched the prediction at this rank (0 = LAST value).
    Hit {
        /// Confidence rank (code index) transmitted.
        rank: usize,
    },
    /// No match: the raw word goes out.
    Miss,
}

/// Number of low-order bits compared in the precharge stage (the layout
/// uses two 16-bit NAND trees; the low tree gates the high one).
const PRECHARGE_BITS: u32 = 16;
const PRECHARGE_MASK: u64 = (1 << PRECHARGE_BITS) - 1;

/// The Window-based transcoder datapath at one end of the bus.
///
/// Semantics (hit/miss decisions and ranks) are identical to the
/// behavioral `buscoding` window codec — a property the integration
/// tests assert — while additionally tallying every hardware operation.
#[derive(Debug, Clone)]
pub struct WindowHardware {
    entries: usize,
    /// Newest at the back; all values distinct (CAM property).
    window: VecDeque<Word>,
    last: Option<Word>,
    ops: OpCounts,
}

impl WindowHardware {
    /// Creates the datapath with `entries` shift-tag entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries >= 1, "the shift-tag array needs at least one entry");
        WindowHardware {
            entries,
            window: VecDeque::with_capacity(entries),
            last: None,
            ops: OpCounts::new(),
        }
    }

    /// The operation tally so far.
    pub fn ops(&self) -> &OpCounts {
        &self.ops
    }

    /// Presents one bus word; returns the coding decision and updates
    /// the operation tally.
    pub fn present(&mut self, value: Word) -> HwOutcome {
        self.ops.cycles += 1;

        // Match phase: selective precharge over every valid entry.
        let mut full_matched_at: Option<usize> = None;
        for (i, &tag) in self.window.iter().enumerate() {
            self.ops.precharge_matches += 1;
            if tag & PRECHARGE_MASK == value & PRECHARGE_MASK {
                self.ops.full_matches += 1;
                if tag == value {
                    full_matched_at = Some(i);
                }
            }
        }

        // Decision: LAST first (pointer vector), then window position
        // (newest first, skipping the LAST entry, mirroring the
        // engine's rank assignment).
        let outcome = if self.last == Some(value) {
            HwOutcome::Hit { rank: 0 }
        } else if let Some(pos) = full_matched_at {
            let newest_first = self.window.len() - 1 - pos;
            // Ranks skip the entry holding LAST if it is newer.
            let mut rank = 1 + newest_first;
            if let Some(last) = self.last {
                if let Some(last_pos) = self.window.iter().position(|&t| t == last) {
                    let last_newest_first = self.window.len() - 1 - last_pos;
                    if last_newest_first < newest_first {
                        rank -= 1;
                    }
                }
            }
            HwOutcome::Hit { rank }
        } else {
            HwOutcome::Miss
        };

        // Update phase.
        if full_matched_at.is_none() {
            // Pointer-based shift: one entry write.
            if self.window.len() == self.entries {
                self.window.pop_front();
            }
            self.window.push_back(value);
            self.ops.shifts += 1;
        }
        if self.last != Some(value) {
            self.ops.last_updates += 1;
            self.last = Some(value);
        }
        outcome
    }

    /// Restores the power-on state, keeping the tally.
    pub fn reset(&mut self) {
        self.window.clear();
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_hits_rank_zero_without_shifting() {
        let mut hw = WindowHardware::new(4);
        assert_eq!(hw.present(7), HwOutcome::Miss);
        assert_eq!(hw.present(7), HwOutcome::Hit { rank: 0 });
        assert_eq!(hw.present(7), HwOutcome::Hit { rank: 0 });
        assert_eq!(hw.ops().shifts, 1, "only the first appearance shifts");
        assert_eq!(hw.ops().last_updates, 1);
    }

    #[test]
    fn window_hit_ranks_skip_last() {
        let mut hw = WindowHardware::new(4);
        hw.present(1);
        hw.present(2);
        hw.present(3); // window oldest->newest: 1,2,3; last = 3
                       // 2 is the newest non-LAST entry: rank 1.
        assert_eq!(hw.present(2), HwOutcome::Hit { rank: 1 });
        // Now last = 2; 3 is newest non-LAST: rank 1; 1 is rank 2.
        assert_eq!(hw.present(1), HwOutcome::Hit { rank: 2 });
    }

    #[test]
    fn precharge_filters_full_compares() {
        let mut hw = WindowHardware::new(4);
        hw.present(0x0001_0005);
        hw.present(0x0002_0006);
        // Low 16 bits (0x0005) match only the first entry.
        hw.present(0x0003_0005);
        // Cycle 3 performed 2 precharges but only 1 full compare.
        assert_eq!(hw.ops().precharge_matches, 1 + 2);
        assert_eq!(hw.ops().full_matches, 1);
    }

    #[test]
    fn misses_evict_oldest() {
        let mut hw = WindowHardware::new(2);
        hw.present(1);
        hw.present(2);
        hw.present(3); // evicts 1
        assert_eq!(hw.present(1), HwOutcome::Miss, "1 was evicted");
    }

    #[test]
    fn ops_accumulate_across_reset() {
        let mut hw = WindowHardware::new(2);
        hw.present(1);
        let before = hw.ops().cycles;
        hw.reset();
        hw.present(2);
        assert_eq!(hw.ops().cycles, before + 1);
        assert_eq!(hw.present(1), HwOutcome::Miss, "window cleared by reset");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn rejects_zero_entries() {
        let _ = WindowHardware::new(0);
    }
}
