//! Wire-order optimization to reduce cross-coupling — the related-work
//! direction of Henkel & Lekatsas's A²BC (the paper's reference \[9\]),
//! which re-maps wires so that frequently co-switching signals shield
//! each other.
//!
//! Coupling energy (the κ term of Equation 1) is charged only between
//! *physically adjacent* wires, but which wires are adjacent is a layout
//! choice. Given a trace, this module measures the pairwise coupling
//! cost of **every** wire pair, then searches for a permutation that
//! minimizes the summed cost over adjacent pairs — a minimum-weight
//! Hamiltonian path problem, attacked with a greedy nearest-neighbor
//! construction plus 2-opt refinement.
//!
//! The pass is *free at runtime* (it is a routing decision, not a
//! circuit), composable with every transcoder in this crate, and most
//! valuable on traffic with structured per-wire behaviour (e.g.
//! floating-point exponent bands).

use bustrace::{Trace, Width};

/// Pairwise coupling costs: `cost(i, j)` is the number of cycles in
/// which wires `i` and `j` would charge their mutual capacitance *if
/// they were adjacent* (their XOR changes — Equation 3 applied to the
/// pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingMatrix {
    width: u32,
    /// Upper-triangular costs, row-major: entry for (i, j), i < j.
    costs: Vec<u64>,
}

impl CouplingMatrix {
    /// Measures the matrix over a trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn of(trace: &Trace) -> Self {
        assert!(
            !trace.is_empty(),
            "cannot measure coupling of an empty trace"
        );
        let w = trace.width().bits();
        let n = w as usize;
        let mut costs = vec![0u64; n * (n - 1) / 2];
        let values = trace.values();
        for t in 1..values.len() {
            let x = values[t - 1] ^ values[t];
            if x == 0 {
                continue;
            }
            // Pair (i, j) couples when exactly one of the two toggles.
            let mut idx = 0usize;
            for i in 0..n {
                let xi = x >> i & 1;
                for j in i + 1..n {
                    let xj = x >> j & 1;
                    costs[idx] += xi ^ xj;
                    idx += 1;
                }
            }
        }
        CouplingMatrix { width: w, costs }
    }

    /// Coupling cost between wires `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn cost(&self, i: usize, j: usize) -> u64 {
        assert!(i != j, "a wire does not couple with itself");
        let n = self.width as usize;
        assert!(i < n && j < n, "wire index out of range");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        // Row offset for a: sum of (n-1) + (n-2) + ... + (n-a).
        let offset = a * (2 * n - a - 1) / 2;
        self.costs[offset + (b - a - 1)]
    }

    /// Total adjacent-pair coupling under a wire ordering: the κ the bus
    /// would accumulate if wire `order[k]` were routed at position `k`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..width`.
    pub fn adjacent_cost(&self, order: &[usize]) -> u64 {
        self.validate(order);
        order.windows(2).map(|w| self.cost(w[0], w[1])).sum()
    }

    fn validate(&self, order: &[usize]) {
        let n = self.width as usize;
        assert_eq!(order.len(), n, "order must cover every wire");
        let mut seen = vec![false; n];
        for &w in order {
            assert!(w < n && !seen[w], "order must be a permutation of 0..{n}");
            seen[w] = true;
        }
    }

    /// Searches for a low-coupling ordering: greedy nearest-neighbor
    /// paths from every start wire, the best refined by 2-opt until no
    /// segment reversal improves. Deterministic.
    pub fn optimize(&self) -> Vec<usize> {
        let n = self.width as usize;
        if n == 1 {
            return vec![0];
        }
        // Greedy from each start; keep the cheapest path.
        let mut best: Option<(u64, Vec<usize>)> = None;
        for start in 0..n {
            let mut used = vec![false; n];
            let mut path = Vec::with_capacity(n);
            used[start] = true;
            path.push(start);
            while path.len() < n {
                let last = *path.last().expect("non-empty");
                let next = (0..n)
                    .filter(|&c| !used[c])
                    .min_by_key(|&c| (self.cost(last, c), c))
                    .expect("unused wire remains");
                used[next] = true;
                path.push(next);
            }
            let cost = self.adjacent_cost(&path);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, path));
            }
        }
        let (mut best_cost, mut path) = best.expect("width >= 1");

        // 2-opt: reverse segments while it helps.
        let mut improved = true;
        while improved {
            improved = false;
            for i in 0..n - 1 {
                for j in i + 1..n {
                    // Reversing path[i..=j] changes only the boundary
                    // edges (i-1, i) and (j, j+1).
                    let edge = |a: usize, b: usize| self.cost(path[a], path[b]);
                    let left_before = if i > 0 { edge(i - 1, i) } else { 0 };
                    let right_before = if j + 1 < n { edge(j, j + 1) } else { 0 };
                    let left_after = if i > 0 { edge(i - 1, j) } else { 0 };
                    let right_after = if j + 1 < n { edge(i, j + 1) } else { 0 };
                    let before = left_before + right_before;
                    let after = left_after + right_after;
                    if after < before {
                        path[i..=j].reverse();
                        best_cost = best_cost - before + after;
                        improved = true;
                    }
                }
            }
        }
        debug_assert_eq!(best_cost, self.adjacent_cost(&path));
        path
    }
}

/// Applies a wire ordering to a trace: bit `order[k]` of each input word
/// moves to position `k` of the output word. Use with
/// [`Activity`](crate::Activity) to measure the re-routed bus.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the trace's wire indices.
pub fn permute_trace(trace: &Trace, order: &[usize]) -> Trace {
    let n = trace.width().bits() as usize;
    assert_eq!(order.len(), n, "order must cover every wire");
    let mut seen = vec![false; n];
    for &w in order {
        assert!(w < n && !seen[w], "order must be a permutation");
        seen[w] = true;
    }
    let width = Width::new(n as u32).expect("trace width is valid");
    let values = trace.iter().map(|v| {
        let mut out = 0u64;
        for (k, &src) in order.iter().enumerate() {
            out |= (v >> src & 1) << k;
        }
        out
    });
    Trace::from_values(width, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::Activity;

    fn activity_kappa(trace: &Trace) -> u64 {
        let mut a = Activity::new(trace.width().bits());
        for v in trace.iter() {
            a.step(v);
        }
        a.kappa()
    }

    fn structured_trace() -> Trace {
        // Wires 0 and 4 always toggle together; wires 1 and 5 likewise;
        // wires 2, 3, 6, 7 are noisy. Pairing correlated wires adjacent
        // should kill their coupling.
        let w = Width::new(8).unwrap();
        let mut x = 7u64;
        let mut values = Vec::new();
        let mut state = 0u64;
        for _ in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            if x >> 60 & 1 == 1 {
                state ^= 0b0001_0001; // 0 and 4 together
            }
            if x >> 61 & 1 == 1 {
                state ^= 0b0010_0010; // 1 and 5 together
            }
            state ^= (x >> 30 & 1) << 2;
            state ^= (x >> 31 & 1) << 3;
            state ^= (x >> 32 & 1) << 6;
            state ^= (x >> 33 & 1) << 7;
            values.push(state);
        }
        Trace::from_values(w, values)
    }

    #[test]
    fn matrix_matches_direct_count() {
        let t = structured_trace();
        let m = CouplingMatrix::of(&t);
        // Direct check for one pair.
        let (i, j) = (2, 6);
        let mut direct = 0u64;
        let v = t.values();
        for k in 1..v.len() {
            let x = v[k - 1] ^ v[k];
            direct += (x >> i & 1) ^ (x >> j & 1);
        }
        assert_eq!(m.cost(i, j), direct);
        assert_eq!(m.cost(j, i), direct, "symmetric access");
    }

    #[test]
    fn identity_order_matches_activity_kappa() {
        let t = structured_trace();
        let m = CouplingMatrix::of(&t);
        let identity: Vec<usize> = (0..8).collect();
        assert_eq!(m.adjacent_cost(&identity), activity_kappa(&t));
    }

    #[test]
    fn permuted_trace_kappa_matches_matrix_prediction() {
        let t = structured_trace();
        let m = CouplingMatrix::of(&t);
        let order = vec![3usize, 0, 4, 1, 5, 2, 6, 7];
        let predicted = m.adjacent_cost(&order);
        let permuted = permute_trace(&t, &order);
        assert_eq!(activity_kappa(&permuted), predicted);
    }

    #[test]
    fn optimizer_beats_identity_on_structured_traffic() {
        let t = structured_trace();
        let m = CouplingMatrix::of(&t);
        let identity: Vec<usize> = (0..8).collect();
        let optimized = m.optimize();
        let before = m.adjacent_cost(&identity);
        let after = m.adjacent_cost(&optimized);
        assert!(
            after < before,
            "optimizer should exploit the correlated pairs: {before} -> {after}"
        );
        // Correlated wires end up adjacent.
        let pos = |w: usize| optimized.iter().position(|&x| x == w).unwrap();
        assert_eq!(pos(0).abs_diff(pos(4)), 1, "{optimized:?}");
        assert_eq!(pos(1).abs_diff(pos(5)), 1, "{optimized:?}");
    }

    #[test]
    fn optimizer_returns_valid_permutation() {
        let t = structured_trace();
        let m = CouplingMatrix::of(&t);
        let order = m.optimize();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_preserves_tau() {
        // Reordering wires cannot change self-transition counts.
        let t = structured_trace();
        let order = vec![7usize, 6, 5, 4, 3, 2, 1, 0];
        let p = permute_trace(&t, &order);
        let tau = |tr: &Trace| {
            let mut a = Activity::new(8);
            for v in tr.iter() {
                a.step(v);
            }
            a.tau()
        };
        assert_eq!(tau(&t), tau(&p));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn permute_rejects_duplicates() {
        let t = structured_trace();
        let _ = permute_trace(&t, &[0, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn single_wire_bus_is_trivial() {
        let t = Trace::from_values(Width::new(1).unwrap(), [0u64, 1, 0, 1]);
        let m = CouplingMatrix::of(&t);
        assert_eq!(m.optimize(), vec![0]);
        assert_eq!(m.adjacent_cost(&[0]), 0);
    }
}
