//! The window-based transcoder (Section 4.3, Figures 18–19).
//!
//! A shift register holds the last `N` *unique* bus values; a hit sends
//! the entry's low-weight code, a miss shifts the new value in and sends
//! it raw. This is the scheme the paper ultimately builds in silicon
//! (the 8-entry, 0.13 µm layout of Figure 33), because it needs no
//! counters, no sorting, and no swapping — just matching and shifting.

use std::collections::VecDeque;

use bustrace::{Width, Word};

use crate::energy::CostModel;
use crate::predict::{PredictiveDecoder, PredictiveEncoder, Predictor};

/// Configuration of a window-based transcoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Bus width.
    pub width: Width,
    /// Shift-register entries (the paper's sweet spot is 8).
    pub entries: usize,
    /// Cost model for codebook ordering and miss decisions.
    pub cost: CostModel,
}

impl WindowConfig {
    /// Creates a configuration with the default λ = 1 cost model.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(width: Width, entries: usize) -> Self {
        assert!(entries >= 1, "the window needs at least one entry");
        WindowConfig {
            width,
            entries,
            cost: CostModel::default(),
        }
    }

    /// Replaces the cost model.
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

/// The unique-value shift register.
#[derive(Debug, Clone)]
pub struct WindowPredictor {
    entries: usize,
    /// Newest value at the back. All values distinct.
    window: VecDeque<Word>,
}

impl WindowPredictor {
    /// Creates an empty window of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries >= 1, "the window needs at least one entry");
        WindowPredictor {
            entries,
            window: VecDeque::with_capacity(entries),
        }
    }

    /// Capacity of the shift register.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Current contents, newest first.
    pub fn contents(&self) -> impl Iterator<Item = Word> + '_ {
        self.window.iter().rev().copied()
    }
}

impl Predictor for WindowPredictor {
    fn max_candidates(&self) -> usize {
        self.entries
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        // Newest entries are likeliest to recur: rank them first.
        let n = self.window.len();
        if index < n {
            Some(self.window[n - 1 - index])
        } else {
            None
        }
    }

    /// Flat newest-first scan of the shift register — same order as
    /// [`candidate`](Predictor::candidate) without a length check per
    /// candidate.
    fn rank_of(&self, value: Word, last: Option<Word>, cap: usize) -> Option<usize> {
        let mut rank = 1usize;
        for &k in self.window.iter().rev() {
            if rank >= cap {
                return None;
            }
            if Some(k) == last {
                continue;
            }
            if k == value {
                return Some(rank);
            }
            rank += 1;
        }
        None
    }

    fn observe(&mut self, value: Word) {
        if self.window.contains(&value) {
            // A plain shift register of unique values: hits do not
            // reorder entries (the hardware is pointer-based, Figure 30).
            return;
        }
        if self.window.len() == self.entries {
            self.window.pop_front();
        }
        self.window.push_back(value);
    }

    fn reset(&mut self) {
        self.window.clear();
    }
}

/// Builds a matched encoder/decoder pair for the window-based scheme.
pub fn window_codec(
    config: WindowConfig,
) -> (
    PredictiveEncoder<WindowPredictor>,
    PredictiveDecoder<WindowPredictor>,
) {
    let enc = PredictiveEncoder::new(
        config.width,
        WindowPredictor::new(config.entries),
        config.cost,
    );
    let dec = PredictiveDecoder::new(
        config.width,
        WindowPredictor::new(config.entries),
        config.cost,
    );
    (enc, dec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{evaluate, verify_roundtrip};
    use crate::identity::IdentityCodec;
    use crate::metrics::percent_energy_removed;
    use bustrace::Trace;

    #[test]
    fn window_keeps_unique_values_in_order() {
        let mut p = WindowPredictor::new(3);
        for v in [1u64, 2, 1, 3, 4] {
            p.observe(v);
        }
        // A hit does not re-shift: 1 keeps its original (oldest) slot and
        // ages out when 4 arrives, even though it was seen again.
        let contents: Vec<Word> = p.contents().collect();
        assert_eq!(contents, vec![4, 3, 2]);
        assert_eq!(p.candidate(0), Some(4));
        assert_eq!(p.candidate(2), Some(2));
        assert_eq!(p.candidate(3), None);
    }

    #[test]
    fn round_trips_on_working_set_traffic() {
        let (mut enc, mut dec) = window_codec(WindowConfig::new(Width::W32, 8));
        let mut trace = Trace::new(Width::W32);
        let mut x = 11u64;
        for i in 0..5000u64 {
            if i % 5 == 4 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(17);
                trace.push(x >> 13);
            } else {
                trace.push(100 + (i % 6));
            }
        }
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn removes_energy_on_small_working_sets() {
        // A loop over 6 values fits an 8-entry window completely.
        let trace = Trace::from_values(
            Width::W32,
            (0..30_000u64)
                .map(|i| [0xDEAD, 0xBEEF, 0xCAFE, 0xF00D, 0x1234, 0xFFFF][(i % 6) as usize]),
        );
        let baseline = evaluate(&mut IdentityCodec::new(Width::W32), &trace);
        let (mut enc, _) = window_codec(WindowConfig::new(Width::W32, 8));
        let coded = evaluate(&mut enc, &trace);
        // Hits still pay their codeword toggles, so "everything fits"
        // means ~80%, not 100%.
        let removed = percent_energy_removed(&coded, &baseline, 1.0);
        assert!(removed > 70.0, "removed only {removed:.1}%");
    }

    #[test]
    fn bigger_windows_help_until_working_set_fits() {
        let set: Vec<u64> = (0..24).map(|i| 0x8000_0000u64 + i * 0x0101_0101).collect();
        let trace = Trace::from_values(Width::W32, (0..40_000u64).map(|i| set[(i % 24) as usize]));
        let baseline = evaluate(&mut IdentityCodec::new(Width::W32), &trace);
        let removed: Vec<f64> = [4usize, 8, 16, 32, 48]
            .iter()
            .map(|&n| {
                let (mut enc, _) = window_codec(WindowConfig::new(Width::W32, n));
                percent_energy_removed(&evaluate(&mut enc, &trace), &baseline, 1.0)
            })
            .collect();
        // Below the working-set size the cyclic trace always misses (a
        // FIFO can't hold a loop bigger than itself); at 32 entries it
        // captures everything — the knee of Figures 18/19.
        assert!(removed[4] > 70.0, "{removed:?}");
        assert!(removed[2] < removed[4], "{removed:?}");
        assert!(removed[0] < 10.0, "{removed:?}");
    }

    #[test]
    fn window_one_adds_no_penalty_on_runs() {
        // With one entry the window adds nothing beyond LAST-value — and
        // repeats are *already free* on an un-encoded bus, so the scheme
        // must at least not hurt (the very reason the paper assigns
        // code 0 to repeats).
        let trace = Trace::from_values(
            Width::W32,
            (0..10_000u64).flat_map(|i| std::iter::repeat_n(i * 0x9E3779B9, 4)),
        );
        let baseline = evaluate(&mut IdentityCodec::new(Width::W32), &trace);
        let (mut enc, _) = window_codec(WindowConfig::new(Width::W32, 1));
        let coded = evaluate(&mut enc, &trace);
        let removed = percent_energy_removed(&coded, &baseline, 1.0);
        assert!(removed > -10.0 && removed < 25.0, "removed {removed:.1}%");
    }

    #[test]
    fn reset_clears_window() {
        let mut p = WindowPredictor::new(4);
        p.observe(9);
        p.reset();
        assert_eq!(p.candidate(0), None);
        assert_eq!(p.contents().count(), 0);
    }
}
