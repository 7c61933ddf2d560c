//! The window-based transcoder (Section 4.3, Figures 18–19).
//!
//! A shift register holds the last `N` *unique* bus values; a hit sends
//! the entry's low-weight code, a miss shifts the new value in and sends
//! it raw. This is the scheme the paper ultimately builds in silicon
//! (the 8-entry, 0.13 µm layout of Figure 33), because it needs no
//! counters, no sorting, and no swapping — just matching and shifting.

use bustrace::{Width, Word};

use crate::predict::{
    predictive_codec, PredictiveDecoder, PredictiveEncoder, Predictor, MAX_ENTRIES,
};

/// The unique-value shift register.
#[derive(Debug, Clone)]
pub struct WindowPredictor {
    entries: usize,
    len: usize,
    /// Slot of the newest entry. The register is a mirrored ring: every
    /// write lands at `i` and `i + entries`, so `ring[head..head + len]`
    /// is the window, newest first, without a wrap or a memmove.
    head: usize,
    ring: [Word; 2 * MAX_ENTRIES],
}

impl WindowPredictor {
    /// Creates an empty window of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or above [`MAX_ENTRIES`].
    pub fn new(entries: usize) -> Self {
        assert!(entries >= 1, "the window needs at least one entry");
        assert!(
            entries <= MAX_ENTRIES,
            "the window holds at most {MAX_ENTRIES} entries, got {entries}"
        );
        WindowPredictor {
            entries,
            len: 0,
            head: 0,
            ring: [0; 2 * MAX_ENTRIES],
        }
    }

    /// Current contents, newest first.
    pub fn contents(&self) -> impl Iterator<Item = Word> + '_ {
        self.ring[self.head..self.head + self.len].iter().copied()
    }
}

impl Predictor for WindowPredictor {
    fn max_candidates(&self) -> usize {
        self.entries
    }

    /// Newest entries are likeliest to recur: they rank first.
    fn candidates(&mut self) -> &[Word] {
        &self.ring[self.head..self.head + self.len]
    }

    fn observe(&mut self, value: Word, slot: Option<usize>) {
        if slot.is_some() {
            // A plain shift register of unique values: hits do not
            // reorder entries (the hardware is pointer-based, Figure 30).
            return;
        }
        // Shift in at the front; at capacity the oldest entry falls off
        // the end of the view.
        self.head = self.head.checked_sub(1).unwrap_or(self.entries - 1);
        self.ring[self.head] = value;
        self.ring[self.head + self.entries] = value;
        self.len = (self.len + 1).min(self.entries);
    }

    fn reset(&mut self) {
        self.len = 0;
        self.head = 0;
    }
}

/// Builds a matched encoder/decoder pair for the window-based scheme
/// with an `entries`-deep shift register (the paper's sweet spot is 8).
///
/// # Panics
///
/// Panics under the same conditions as [`WindowPredictor::new`].
pub fn window_codec(
    width: Width,
    entries: usize,
) -> (
    PredictiveEncoder<WindowPredictor>,
    PredictiveDecoder<WindowPredictor>,
) {
    predictive_codec(
        width,
        WindowPredictor::new(entries),
        WindowPredictor::new(entries),
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

    #[test]
    fn window_keeps_unique_values_in_order() {
        let mut p = WindowPredictor::new(3);
        for v in [1u64, 2, 1, 3, 4] {
            feed(&mut p, v);
        }
        // A hit does not re-shift: 1 keeps its original (oldest) slot and
        // ages out when 4 arrives, even though it was seen again.
        let contents: Vec<Word> = p.contents().collect();
        assert_eq!(contents, vec![4, 3, 2]);
        assert_eq!(p.candidates(), &[4, 3, 2]);
    }

    #[test]
    fn round_trips_on_working_set_traffic() {
        let (mut enc, mut dec) = window_codec(Width::W32, 8);
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
        let (mut enc, _) = window_codec(Width::W32, 8);
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
                let (mut enc, _) = window_codec(Width::W32, n);
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
        let (mut enc, _) = window_codec(Width::W32, 1);
        let coded = evaluate(&mut enc, &trace);
        let removed = percent_energy_removed(&coded, &baseline, 1.0);
        assert!(removed > -10.0 && removed < 25.0, "removed {removed:.1}%");
    }

    #[test]
    fn reset_clears_window() {
        let mut p = WindowPredictor::new(4);
        feed(&mut p, 9);
        p.reset();
        assert!(p.candidates().is_empty());
        assert_eq!(p.contents().count(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 entries")]
    fn rejects_windows_above_the_capacity_limit() {
        let _ = WindowPredictor::new(MAX_ENTRIES + 1);
    }
}
