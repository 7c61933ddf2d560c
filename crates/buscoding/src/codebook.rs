//! Cost-ordered codeword enumeration (Figure 2).
//!
//! On a transition-coded bus a codeword *is* the set of wires that
//! toggle, so its energy cost is a static function of the word itself:
//! `popcount + λ · coupling`. The transcoder assigns the cheapest
//! codewords to the highest-confidence predictions — all-zero (free) to
//! the top prediction, then the weight-one vectors, preferring edge wires
//! whose toggles couple to only one neighbor, then weight-two vectors
//! with the toggling wires spread apart, and so on.

use std::collections::HashMap;
use std::fmt;

use crate::energy::CostModel;

/// An ordered codebook over an `n`-line transition-coded bus.
///
/// Entry `r` is the bus transition vector assigned to prediction rank
/// `r`; entry 0 is always the all-zero vector. The ordering is
/// non-decreasing in λ-weighted cost and deterministic (ties broken by
/// numeric value), so encoder and decoder independently construct
/// identical books.
///
/// # Example
///
/// ```
/// use buscoding::{CodeBook, CostModel};
///
/// let book = CodeBook::new(8, 10, CostModel::new(1.0));
/// assert_eq!(book.code(0), 0);               // top prediction is free
/// assert_eq!(book.code(1).count_ones(), 1);  // next ranks cost one toggle
/// assert_eq!(book.rank_of(book.code(7)), Some(7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CodeBook {
    lines: u32,
    codes: Vec<u64>,
    ranks: HashMap<u64, usize>,
}

impl CodeBook {
    /// Builds the `count` cheapest codewords on an `n`-line bus under the
    /// given cost model.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not in `1..=64`, or if `count` exceeds the
    /// number of distinct codewords (`2^lines`), or if `count` is zero.
    pub fn new(lines: u32, count: usize, cost: CostModel) -> Self {
        static BUILDS: busprobe::StaticCounter =
            busprobe::StaticCounter::new("buscoding.codebook.builds");
        let _span = busprobe::span("buscoding.codebook.build");
        BUILDS.inc();
        assert!(
            (1..=64).contains(&lines),
            "line count must be in 1..=64, got {lines}"
        );
        assert!(count > 0, "a codebook needs at least the all-zero codeword");
        if lines < 64 {
            assert!(
                (count as u128) <= (1u128 << lines),
                "cannot pick {count} distinct codewords from a {lines}-line bus"
            );
        }

        // Enumerate and score codewords weight class by weight class. Cost
        // is not monotone in weight once λ > 0 (a run of adjacent toggling
        // wires couples less than an isolated interior toggle), so classes
        // are gathered until the cheapest *possible* cost of the next
        // class — its weight, since κ ≥ 0 — exceeds the count-th smallest
        // cost so far; selecting that one puts the winners first.
        let by_cost = |a: &(f64, u64), b: &(f64, u64)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let mut scored: Vec<(f64, u64)> = Vec::with_capacity(count * 2);
        let mut weight = 0u32;
        loop {
            Self::push_weight_class(lines, weight, &mut scored, count, cost);
            if scored.len() >= count {
                scored.select_nth_unstable_by(count - 1, by_cost);
                if weight == lines || f64::from(weight + 1) > scored[count - 1].0 {
                    break;
                }
            }
            assert!(
                weight < lines,
                "internal enumeration produced {} < {count} codewords",
                scored.len()
            );
            weight += 1;
        }
        scored.truncate(count);
        scored.sort_unstable_by(by_cost);
        let codes: Vec<u64> = scored.into_iter().map(|(_, c)| c).collect();
        let ranks = codes.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        CodeBook {
            lines,
            codes,
            ranks,
        }
    }

    /// Pushes all codewords of the given weight with their costs,
    /// stopping early once the pool is comfortably larger than needed
    /// (the class is generated in ascending numeric order so the prefix
    /// is deterministic).
    fn push_weight_class(
        lines: u32,
        weight: u32,
        pool: &mut Vec<(f64, u64)>,
        count: usize,
        cost: CostModel,
    ) {
        let budget = count.saturating_mul(4).max(1024);
        if weight == 0 {
            pool.push((cost.vector_cost(0, lines), 0));
            return;
        }
        if weight > lines {
            return;
        }
        // Gosper's hack: iterate all n-bit words with `weight` bits set.
        let mut v: u64 = if weight == 64 {
            u64::MAX
        } else {
            (1u64 << weight) - 1
        };
        let limit: u64 = if lines == 64 {
            u64::MAX
        } else {
            (1u64 << lines) - 1
        };
        loop {
            pool.push((cost.vector_cost(v, lines), v));
            if pool.len() >= budget {
                return;
            }
            if v == 0 || weight == lines {
                return; // single word in class
            }
            // Next word with same popcount.
            let c = v & v.wrapping_neg();
            let Some(r) = v.checked_add(c) else {
                return; // the class is exhausted at the top of the range
            };
            let next = (((r ^ v) >> 2) / c) | r;
            if next > limit {
                return;
            }
            v = next;
        }
    }

    /// Number of codewords.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the book is empty (never true: rank 0 always exists).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The codeword for prediction rank `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn code(&self, rank: usize) -> u64 {
        self.codes[rank]
    }

    /// The rank whose codeword is `code`, if `code` is in the book —
    /// the decoder-side inverse of [`code`](Self::code).
    pub fn rank_of(&self, code: u64) -> Option<usize> {
        static LOOKUPS: busprobe::StaticCounter =
            busprobe::StaticCounter::new("buscoding.codebook.lookups");
        static UNKNOWN: busprobe::StaticCounter =
            busprobe::StaticCounter::new("buscoding.codebook.unknown");
        LOOKUPS.inc();
        let rank = self.ranks.get(&code).copied();
        if rank.is_none() {
            UNKNOWN.inc();
        }
        rank
    }

    /// All codewords in rank order.
    pub fn codes(&self) -> &[u64] {
        &self.codes
    }
}

impl fmt::Display for CodeBook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-entry codebook on {} lines",
            self.codes.len(),
            self.lines
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_zero_is_free() {
        let book = CodeBook::new(32, 40, CostModel::default());
        assert_eq!(book.code(0), 0);
    }

    #[test]
    fn costs_are_nondecreasing() {
        for lambda in [0.0, 0.5, 1.0, 14.0] {
            let cost = CostModel::new(lambda);
            let book = CodeBook::new(16, 200, cost);
            let costs: Vec<f64> = book
                .codes()
                .iter()
                .map(|&c| cost.vector_cost(c, 16))
                .collect();
            assert!(
                costs.windows(2).all(|w| w[0] <= w[1] + 1e-12),
                "codebook not cost-sorted for lambda {lambda}: {costs:?}"
            );
        }
    }

    #[test]
    fn weight_one_codes_prefer_edges_under_coupling() {
        // With λ > 0 the cheapest single-bit codes are the edge wires.
        let book = CodeBook::new(8, 3, CostModel::new(1.0));
        let first_two: Vec<u64> = vec![book.code(1), book.code(2)];
        assert!(first_two.contains(&0b0000_0001));
        assert!(first_two.contains(&0b1000_0000));
    }

    #[test]
    fn codes_are_unique_and_rank_of_inverts() {
        let book = CodeBook::new(34, 66, CostModel::default());
        let mut seen = std::collections::HashSet::new();
        for (rank, &c) in book.codes().iter().enumerate() {
            assert!(seen.insert(c), "duplicate codeword {c:#x}");
            assert_eq!(book.rank_of(c), Some(rank));
        }
        assert_eq!(book.rank_of(u64::MAX), None);
        assert_eq!(book.len(), 66);
        assert!(!book.is_empty());
    }

    #[test]
    fn covers_more_ranks_than_lines() {
        // 4-line bus, 16 possible codewords: ask for all of them.
        let book = CodeBook::new(4, 16, CostModel::default());
        assert_eq!(book.len(), 16);
        let mut all: Vec<u64> = book.codes().to_vec();
        all.sort_unstable();
        assert_eq!(all, (0..16u64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "distinct codewords")]
    fn rejects_impossible_count() {
        let _ = CodeBook::new(3, 9, CostModel::default());
    }

    #[test]
    fn full_width_book() {
        let book = CodeBook::new(64, 65, CostModel::default());
        assert_eq!(book.code(0), 0);
        // The two edge wires are the cheapest non-zero codes (cost 2);
        // after that, weight-1 interior words (cost 3) tie with edge runs
        // like 0b11 (also cost 3), so only weights 1-2 may appear.
        let next_two = [book.code(1), book.code(2)];
        assert!(next_two.contains(&1));
        assert!(next_two.contains(&(1u64 << 63)));
        assert!(book.codes()[1..]
            .iter()
            .all(|c| (1..=2).contains(&c.count_ones())));
    }

    #[test]
    fn edge_runs_beat_spread_pairs_under_coupling() {
        // Physics check: two *adjacent* wires toggling together keep
        // their mutual XOR constant, so an edge-anchored run couples
        // less than two isolated toggles.
        let cost = CostModel::new(1.0);
        assert!(cost.vector_cost(0b0000_0011, 8) < cost.vector_cost(0b1000_0001, 8));
        let book = CodeBook::new(8, 150, cost);
        let rank_run = book.rank_of(0b0000_0011).expect("run present");
        let rank_spread = book.rank_of(0b1000_0001).expect("spread present");
        assert!(
            rank_run < rank_spread,
            "run {rank_run} should rank before {rank_spread}"
        );
    }

    #[test]
    fn display_formats() {
        let book = CodeBook::new(8, 5, CostModel::default());
        assert_eq!(book.to_string(), "5-entry codebook on 8 lines");
    }

    /// The construction before selection: re-costs and re-sorts the
    /// whole pool after every weight class, then sorts the whole pool by
    /// (cost, code) and keeps the first `count`.
    fn sort_everything(lines: u32, count: usize, cost: CostModel) -> Vec<u64> {
        let mut pool = Vec::new();
        let mut weight = 0u32;
        while weight <= lines {
            CodeBook::push_weight_class(lines, weight, &mut pool, count, cost);
            if pool.len() >= count {
                let mut costs: Vec<f64> = pool
                    .iter()
                    .map(|&(_, c)| cost.vector_cost(c, lines))
                    .collect();
                costs.sort_by(|a, b| a.partial_cmp(b).unwrap());
                if f64::from(weight + 1) > costs[count - 1] {
                    break;
                }
            }
            weight += 1;
        }
        let mut scored: Vec<(f64, u64)> = pool
            .into_iter()
            .map(|(_, c)| (cost.vector_cost(c, lines), c))
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        scored.into_iter().take(count).map(|(_, c)| c).collect()
    }

    #[test]
    fn selection_matches_sorting_everything() {
        // Every width and count; λ rotates over the grid so that each
        // value meets every width.
        for lines in 1..=64u32 {
            for count in 1..=129usize {
                if lines < 64 && count as u128 > 1u128 << lines {
                    break;
                }
                let lambda = [0.0, 1.0, 2.8][(lines as usize + count) % 3];
                let cost = CostModel::new(lambda);
                assert_eq!(
                    CodeBook::new(lines, count, cost).codes(),
                    sort_everything(lines, count, cost),
                    "lines={lines} count={count} lambda={lambda}"
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_on_small_buses() {
        // Exhaustive ground truth: enumerate all 2^n codewords, sort by
        // (cost, value), and compare the prefix against the fast path.
        for lines in 3..=10u32 {
            for lambda in [0.0, 0.5, 1.0, 2.0] {
                let cost = CostModel::new(lambda);
                let mut all: Vec<(f64, u64)> = (0..1u64 << lines)
                    .map(|c| (cost.vector_cost(c, lines), c))
                    .collect();
                all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
                let count = (1usize << lines).min(70);
                let book = CodeBook::new(lines, count, cost);
                for (rank, &(_, expected)) in all.iter().take(count).enumerate() {
                    assert_eq!(
                        book.code(rank),
                        expected,
                        "lines={lines} lambda={lambda} rank={rank}"
                    );
                }
            }
        }
    }
}
