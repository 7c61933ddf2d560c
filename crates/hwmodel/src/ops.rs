//! The hardware operation tally (paper Section 5.3.2, Figure 28).

use std::fmt;
use std::ops::{Add, AddAssign};

/// Counts of every energy-consuming operation class a transcoder
/// performs. One tally covers one end of the bus; encoder and decoder
/// perform (nearly) identical work, so the full cost is twice the
/// priced tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Cycles processed (for per-cycle overheads: clocking, input latch,
    /// output mux/XOR).
    pub cycles: u64,
    /// Low-order-bits precharge comparisons: every valid entry performs
    /// one per cycle (selective precharge, first stage).
    pub precharge_matches: u64,
    /// Full-width comparisons: entries whose low bits matched and had to
    /// complete the compare.
    pub full_matches: u64,
    /// Entry writes from shifting a new value in (pointer-based, so one
    /// per miss, not one per entry).
    pub shifts: u64,
    /// Johnson-counter increments (one bit transition each).
    pub counter_increments: u64,
    /// Adjacent-entry counter equality comparisons.
    pub counter_compares: u64,
    /// Neighbor entry swaps in the sorted frequency table.
    pub swaps: u64,
    /// Pending-bit sets/clears.
    pub pending_updates: u64,
    /// LAST-value pointer-vector updates.
    pub last_updates: u64,
    /// Counter-division sweeps (every counter rewritten once per sweep,
    /// counted per entry).
    pub divide_writes: u64,
    /// Promotions of staged entries into the frequency table.
    pub promotions: u64,
}

impl OpCounts {
    /// An empty tally.
    pub fn new() -> Self {
        OpCounts::default()
    }

    /// Total of all discrete operations (excluding `cycles`).
    pub fn total_ops(&self) -> u64 {
        self.precharge_matches
            + self.full_matches
            + self.shifts
            + self.counter_increments
            + self.counter_compares
            + self.swaps
            + self.pending_updates
            + self.last_updates
            + self.divide_writes
            + self.promotions
    }
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(mut self, rhs: OpCounts) -> OpCounts {
        self += rhs;
        self
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        self.cycles += rhs.cycles;
        self.precharge_matches += rhs.precharge_matches;
        self.full_matches += rhs.full_matches;
        self.shifts += rhs.shifts;
        self.counter_increments += rhs.counter_increments;
        self.counter_compares += rhs.counter_compares;
        self.swaps += rhs.swaps;
        self.pending_updates += rhs.pending_updates;
        self.last_updates += rhs.last_updates;
        self.divide_writes += rhs.divide_writes;
        self.promotions += rhs.promotions;
    }
}

impl fmt::Display for OpCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles: {} precharge, {} full-match, {} shift, {} count, {} cmp, {} swap",
            self.cycles,
            self.precharge_matches,
            self.full_matches,
            self.shifts,
            self.counter_increments,
            self.counter_compares,
            self.swaps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_fieldwise() {
        let a = OpCounts {
            cycles: 1,
            shifts: 2,
            swaps: 3,
            ..OpCounts::new()
        };
        let b = OpCounts {
            cycles: 10,
            shifts: 20,
            full_matches: 5,
            ..OpCounts::new()
        };
        let c = a + b;
        assert_eq!(c.cycles, 11);
        assert_eq!(c.shifts, 22);
        assert_eq!(c.swaps, 3);
        assert_eq!(c.full_matches, 5);
        assert_eq!(c.total_ops(), 30);
    }

    #[test]
    fn display_mentions_cycles() {
        let a = OpCounts {
            cycles: 7,
            ..OpCounts::new()
        };
        assert!(a.to_string().starts_with("7 cycles"));
    }
}
