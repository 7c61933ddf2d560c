//! Scheme-selection policies: the pluggable brain of the adaptive
//! controller.
//!
//! A [`Policy`] is consulted once per decision window. It sees the
//! window that just completed — per-candidate window costs plus the
//! window's traffic statistics — and names the candidate that should
//! carry the *next* window. The controller handles everything physical
//! (flushing the live pair, charging the switch, keeping the decoder in
//! lockstep); policies are pure decision logic, so adding one is a
//! small, isolated exercise (see `docs/ADAPTIVE.md`).

use buscoding::{scheme_by_name, UnknownScheme};
use bustrace::Trace;

use crate::controller::window_cost;

/// Traffic statistics of one completed decision window, computed at the
/// boundary by the `bustrace::stats` functions over the window's words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Mean fraction of word bits flipping between consecutive words.
    pub transition_density: f64,
    /// Fraction of words equal to their predecessor.
    pub repeat_fraction: f64,
    /// Mean unique-value fraction over tiled sub-windows, when at least
    /// one sub-window completed.
    pub window_uniqueness: Option<f64>,
    /// Fraction of words hit by a stride-2 predictor.
    pub stride_fraction: f64,
}

/// Everything a [`Policy`] sees at a decision boundary.
#[derive(Debug)]
pub struct WindowObservation<'a> {
    /// Index of the window that just completed (`0` is the first).
    pub index: u64,
    /// Candidate that carried the completed window.
    pub live: usize,
    /// Candidate scheme names, parallel to `costs`.
    pub names: &'a [String],
    /// λ-weighted wire cost of each candidate's encoder over the
    /// completed window, all from the flushed (cold) state — directly
    /// comparable across candidates.
    pub costs: &'a [f64],
    /// Traffic statistics of the completed window.
    pub stats: WindowStats,
}

impl WindowObservation<'_> {
    /// Index of the cheapest candidate over the completed window (ties
    /// break to the lowest index, so decisions are deterministic).
    pub fn cheapest(&self) -> usize {
        argmin(self.costs)
    }
}

/// First index of the strictly smallest value; `0` for an empty slice.
pub(crate) fn argmin(costs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &c) in costs.iter().enumerate().skip(1) {
        if c < costs[best] {
            best = i;
        }
    }
    best
}

/// A scheme-selection policy, consulted once per decision window.
pub trait Policy {
    /// Display name, e.g. `greedy(h0.05)` — embedded in the adaptive
    /// transcoder's name and in experiment tables.
    fn name(&self) -> String;

    /// Chooses the candidate index for the *next* window. Out-of-range
    /// returns are clamped by the controller.
    fn decide(&mut self, obs: &WindowObservation<'_>) -> usize;

    /// Restores power-on state; stateful policies (streaks, schedules
    /// already consumed) must forget everything here.
    fn reset(&mut self) {}
}

/// Never switches: pins one candidate forever. The adaptive controller
/// running a static policy is the honest baseline for switch-cost
/// comparisons — it pays the same per-boundary flushes as the adaptive
/// policies, just never the switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticPolicy {
    index: usize,
}

impl StaticPolicy {
    /// Pins the candidate at `index`.
    pub fn new(index: usize) -> Self {
        StaticPolicy { index }
    }
}

impl Policy for StaticPolicy {
    fn name(&self) -> String {
        format!("static({})", self.index)
    }

    fn decide(&mut self, _obs: &WindowObservation<'_>) -> usize {
        self.index
    }
}

/// Follows the window costs greedily: switch to the cheapest candidate
/// of the last window whenever it undercuts the live scheme by more
/// than the hysteresis margin.
///
/// `hysteresis` is a relative margin in `[0, 1)`: a challenger must
/// cost less than `(1 - hysteresis) ×` the live scheme's window cost to
/// displace it. `0.0` is pure greedy; a few percent suppresses
/// borderline ping-ponging on noisy traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyShadowPolicy {
    hysteresis: f64,
}

impl GreedyShadowPolicy {
    /// A greedy policy with the given relative hysteresis margin.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ hysteresis < 1`.
    pub fn new(hysteresis: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&hysteresis),
            "hysteresis must be in [0, 1), got {hysteresis}"
        );
        GreedyShadowPolicy { hysteresis }
    }
}

impl Policy for GreedyShadowPolicy {
    fn name(&self) -> String {
        format!("greedy(h{})", self.hysteresis)
    }

    fn decide(&mut self, obs: &WindowObservation<'_>) -> usize {
        let best = obs.cheapest();
        let live_cost = obs.costs.get(obs.live).copied().unwrap_or(f64::INFINITY);
        if obs.costs[best] < live_cost * (1.0 - self.hysteresis) {
            best
        } else {
            obs.live
        }
    }
}

/// Greedy with patience: a challenger must stay below the band for
/// `patience` *consecutive* windows before it takes the bus.
///
/// This is the classic banded-hysteresis controller: `band` sets how
/// decisive the win must be, `patience` how persistent. Challenger
/// streaks reset whenever a different candidate becomes cheapest or the
/// band stops being cleared, so one-window noise spikes never cause a
/// switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandedHysteresisPolicy {
    band: f64,
    patience: u32,
    challenger: Option<usize>,
    streak: u32,
}

impl BandedHysteresisPolicy {
    /// A banded policy; `patience` windows of a sub-band challenger are
    /// required before switching.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ band < 1` and `patience ≥ 1`.
    pub fn new(band: f64, patience: u32) -> Self {
        assert!(
            (0.0..1.0).contains(&band),
            "band must be in [0, 1), got {band}"
        );
        assert!(patience >= 1, "patience must be at least 1 window");
        BandedHysteresisPolicy {
            band,
            patience,
            challenger: None,
            streak: 0,
        }
    }
}

impl Policy for BandedHysteresisPolicy {
    fn name(&self) -> String {
        format!("banded(b{} p{})", self.band, self.patience)
    }

    fn decide(&mut self, obs: &WindowObservation<'_>) -> usize {
        let best = obs.cheapest();
        let live_cost = obs.costs.get(obs.live).copied().unwrap_or(f64::INFINITY);
        let clears_band = best != obs.live && obs.costs[best] < live_cost * (1.0 - self.band);
        if !clears_band {
            self.challenger = None;
            self.streak = 0;
            return obs.live;
        }
        if self.challenger == Some(best) {
            self.streak += 1;
        } else {
            self.challenger = Some(best);
            self.streak = 1;
        }
        if self.streak >= self.patience {
            self.challenger = None;
            self.streak = 0;
            best
        } else {
            obs.live
        }
    }

    fn reset(&mut self) {
        self.challenger = None;
        self.streak = 0;
    }
}

/// Replays a precomputed per-window schedule — the clairvoyant upper
/// bound the online policies are measured against.
///
/// Build the schedule with [`oracle_schedule`], which scores every
/// candidate over every window of the actual trace, then start the
/// controller with `AdaptiveConfig::with_initial(schedule[0])` so
/// window 0 (which no policy gets to choose) is also the oracle's pick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OraclePolicy {
    schedule: Vec<usize>,
}

impl OraclePolicy {
    /// A policy replaying `schedule[w]` for window `w`. Windows beyond
    /// the schedule keep its last entry.
    ///
    /// # Panics
    ///
    /// Panics on an empty schedule.
    pub fn new(schedule: Vec<usize>) -> Self {
        assert!(!schedule.is_empty(), "oracle schedule must not be empty");
        OraclePolicy { schedule }
    }

    /// The candidate the schedule assigns to window 0 — pass it to
    /// `AdaptiveConfig::with_initial`.
    pub fn first(&self) -> usize {
        self.schedule[0]
    }
}

impl Policy for OraclePolicy {
    fn name(&self) -> String {
        "oracle".to_string()
    }

    fn decide(&mut self, obs: &WindowObservation<'_>) -> usize {
        let next = (obs.index + 1) as usize;
        self.schedule
            .get(next)
            .or(self.schedule.last())
            .copied()
            .unwrap_or(obs.live)
    }
}

/// Scores every candidate over every decision window of `trace` (each
/// window from the flushed cold state, exactly as the controller
/// scores it) and returns the per-window argmin — the oracle's
/// schedule. A partial final window is scored like any other; an empty
/// trace yields an empty schedule.
///
/// # Errors
///
/// Returns [`UnknownScheme`] if any candidate name fails to parse.
///
/// # Panics
///
/// Panics if `period` is zero or `candidates` is empty.
pub fn oracle_schedule(
    trace: &Trace,
    candidates: &[String],
    period: u64,
    lambda: f64,
) -> Result<Vec<usize>, UnknownScheme> {
    assert!(period > 0, "decision period must be at least 1 word");
    assert!(!candidates.is_empty(), "need at least one candidate");
    let _span = busprobe::span("busadapt.oracle_schedule");
    let mut encoders: Vec<_> = candidates
        .iter()
        .map(|name| scheme_by_name(name, trace.width()).map(|pair| pair.into_parts().0))
        .collect::<Result<_, _>>()?;
    let mut schedule = Vec::new();
    for chunk in trace.values().chunks(period as usize) {
        let costs: Vec<f64> = encoders
            .iter_mut()
            .map(|enc| window_cost(enc.as_mut(), chunk, lambda))
            .collect();
        schedule.push(argmin(&costs));
    }
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bustrace::Width;

    fn obs<'a>(
        names: &'a [String],
        costs: &'a [f64],
        live: usize,
        index: u64,
    ) -> WindowObservation<'a> {
        WindowObservation {
            index,
            live,
            names,
            costs,
            stats: WindowStats {
                transition_density: 0.5,
                repeat_fraction: 0.0,
                window_uniqueness: None,
                stride_fraction: 0.0,
            },
        }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("scheme-{i}")).collect()
    }

    #[test]
    fn static_policy_never_moves() {
        let ns = names(3);
        let mut p = StaticPolicy::new(2);
        assert_eq!(p.decide(&obs(&ns, &[0.0, 1.0, 9.0], 2, 0)), 2);
        assert_eq!(p.name(), "static(2)");
    }

    #[test]
    fn greedy_switches_only_past_the_margin() {
        let ns = names(2);
        let mut p = GreedyShadowPolicy::new(0.10);
        // 5% cheaper: inside the margin, stay.
        assert_eq!(p.decide(&obs(&ns, &[100.0, 95.0], 0, 0)), 0);
        // 20% cheaper: switch.
        assert_eq!(p.decide(&obs(&ns, &[100.0, 80.0], 0, 1)), 1);
        // Already on the cheapest: stay.
        assert_eq!(p.decide(&obs(&ns, &[100.0, 80.0], 1, 2)), 1);
    }

    #[test]
    fn greedy_stays_put_when_live_cost_is_zero() {
        let ns = names(2);
        let mut p = GreedyShadowPolicy::new(0.0);
        assert_eq!(p.decide(&obs(&ns, &[0.0, 0.0], 0, 0)), 0);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn greedy_rejects_silly_margin() {
        let _ = GreedyShadowPolicy::new(1.5);
    }

    #[test]
    fn banded_policy_waits_out_its_patience() {
        let ns = names(2);
        let mut p = BandedHysteresisPolicy::new(0.05, 3);
        let costs = [100.0, 50.0];
        assert_eq!(p.decide(&obs(&ns, &costs, 0, 0)), 0); // streak 1
        assert_eq!(p.decide(&obs(&ns, &costs, 0, 1)), 0); // streak 2
        assert_eq!(p.decide(&obs(&ns, &costs, 0, 2)), 1); // streak 3: go
    }

    #[test]
    fn banded_streak_breaks_on_a_noisy_window() {
        let ns = names(2);
        let mut p = BandedHysteresisPolicy::new(0.05, 2);
        assert_eq!(p.decide(&obs(&ns, &[100.0, 50.0], 0, 0)), 0);
        // Challenger loses its edge for one window: streak resets.
        assert_eq!(p.decide(&obs(&ns, &[100.0, 100.0], 0, 1)), 0);
        assert_eq!(p.decide(&obs(&ns, &[100.0, 50.0], 0, 2)), 0);
        assert_eq!(p.decide(&obs(&ns, &[100.0, 50.0], 0, 3)), 1);
    }

    #[test]
    fn banded_reset_forgets_the_streak() {
        let ns = names(2);
        let mut p = BandedHysteresisPolicy::new(0.05, 2);
        assert_eq!(p.decide(&obs(&ns, &[100.0, 50.0], 0, 0)), 0);
        p.reset();
        assert_eq!(p.decide(&obs(&ns, &[100.0, 50.0], 0, 1)), 0);
        assert_eq!(p.decide(&obs(&ns, &[100.0, 50.0], 0, 2)), 1);
    }

    #[test]
    fn oracle_replays_its_schedule_one_window_ahead() {
        let ns = names(2);
        let mut p = OraclePolicy::new(vec![0, 1, 0, 1]);
        assert_eq!(p.first(), 0);
        // After window 0 completes, the oracle names window 1's scheme.
        assert_eq!(p.decide(&obs(&ns, &[1.0, 1.0], 0, 0)), 1);
        assert_eq!(p.decide(&obs(&ns, &[1.0, 1.0], 1, 1)), 0);
        assert_eq!(p.decide(&obs(&ns, &[1.0, 1.0], 0, 2)), 1);
        // Past the end of the schedule: hold the last entry.
        assert_eq!(p.decide(&obs(&ns, &[1.0, 1.0], 1, 7)), 1);
    }

    #[test]
    fn oracle_schedule_tracks_phases() {
        // 2 windows of a tight 4-value loop (window-codec heaven), then
        // 2 windows of a unit-stride ramp (stride-codec heaven).
        let period = 128u64;
        let loop_vals = (0..256).map(|i| [7u64, 1000, 42, 0xDEAD_BEEF][i % 4]);
        let ramp = (0..256).map(|i| 0x4000_0000 + 4 * i as u64);
        let trace = Trace::from_values(Width::W32, loop_vals.chain(ramp));
        let candidates = vec!["window(8)".to_string(), "stride(4)".to_string()];
        let schedule = oracle_schedule(&trace, &candidates, period, 1.0).unwrap();
        assert_eq!(schedule, vec![0, 0, 1, 1]);
    }

    #[test]
    fn oracle_schedule_is_empty_for_an_empty_trace() {
        let candidates = vec!["identity".to_string()];
        let schedule = oracle_schedule(&Trace::new(Width::W32), &candidates, 64, 1.0).unwrap();
        assert!(schedule.is_empty());
    }

    #[test]
    fn oracle_schedule_rejects_unknown_candidates() {
        let candidates = vec!["wat(9)".to_string()];
        let trace = Trace::from_values(Width::W32, [1u64, 2, 3]);
        assert!(oracle_schedule(&trace, &candidates, 64, 1.0).is_err());
    }

    #[test]
    fn argmin_breaks_ties_low() {
        assert_eq!(argmin(&[3.0, 1.0, 1.0, 2.0]), 1);
        assert_eq!(argmin(&[]), 0);
    }
}
