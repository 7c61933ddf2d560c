//! Phase attribution: folding a busprobe span tree into the pipeline
//! phases every experiment passes through.
//!
//! The span paths in the busprobe registry are exact but
//! open-ended — new instrumentation points appear as the code grows.
//! `repro profile` and the benchmark's per-layer split (see
//! `perfbench/README.md`) want a *stable* coarse vocabulary instead, so
//! this module maps each span (by its leaf segment, the name the probe
//! site declared) onto one of five phases:
//!
//! | phase | what it covers | typical leaves |
//! |---|---|---|
//! | `trace_gen` | synthesizing workload traces | `bench.workload.trace`, `simcpu.*`, `bench.session.acquire`, `bustrain.corpus.*` |
//! | `encode` | running encoder FSMs over traces | `buscoding.codec.evaluate*`, `busadapt.*`, `busfault.*` |
//! | `accumulate` | folding states into τ/κ activity | `buscoding.codec.accumulate`, `bustrain.train*` |
//! | `pricing` | wire/crossover energy models | `wiremodel.*`, `hwmodel.*` |
//! | `emit` | rendering tables, CSVs and plots | `bench.report.*` |
//!
//! Attribution uses the registry's **self time** (a span's duration
//! minus its same-thread children), so a phase's seconds never
//! double-count its callees: `buscoding.codec.evaluate_blocks` time goes
//! to `encode` *except* the slice spent inside its
//! `buscoding.codec.accumulate` child, which goes to `accumulate`. Unclassified self time (runner
//! bookkeeping, unspanned code) is reported as `other` by
//! [`phase_breakdown`].

use busprobe::{MetricKind, MetricSnapshot};

/// The fixed phase vocabulary, in pipeline order. `other` is appended
/// by [`phase_breakdown`] and is not a classification target.
pub const PHASES: &[&str] = &["trace_gen", "encode", "accumulate", "pricing", "emit"];

/// Classifies one span path into a phase by its leaf segment, or `None`
/// for spans outside the vocabulary (their self time lands in `other`).
pub fn phase_of(path: &str) -> Option<&'static str> {
    let leaf = path.rsplit('/').next().unwrap_or(path);
    if leaf.starts_with("bench.workload.")
        || leaf.starts_with("simcpu.")
        || leaf.starts_with("bustrace.")
        || leaf.starts_with("bustrain.corpus")
        || leaf == "bench.session.acquire"
    {
        Some("trace_gen")
    } else if leaf == "buscoding.codec.accumulate" || leaf.starts_with("bustrain.train") {
        Some("accumulate")
    } else if leaf.starts_with("buscoding.")
        || leaf.starts_with("busadapt.")
        || leaf.starts_with("busfault.")
    {
        Some("encode")
    } else if leaf.starts_with("wiremodel.") || leaf.starts_with("hwmodel.") {
        Some("pricing")
    } else if leaf.starts_with("bench.report.") {
        Some("emit")
    } else {
        None
    }
}

/// Sums the classified self time of the span snapshots per phase and
/// closes the books against `wall_s`: returns `(phase, seconds)` pairs
/// in [`PHASES`] order with a final `("other", wall − classified)` entry
/// (clamped at zero — timer granularity can put the sum a hair over the
/// wall).
pub fn phase_breakdown(snaps: &[MetricSnapshot], wall_s: f64) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = PHASES.iter().map(|&p| (p, 0.0)).collect();
    for s in snaps {
        let (Some(phase), MetricKind::Span { self_ns, .. }) = (phase_of(&s.name), &s.kind) else {
            continue;
        };
        let slot = out
            .iter_mut()
            .find(|(p, _)| *p == phase)
            .expect("phase_of returns only PHASES entries");
        slot.1 += *self_ns as f64 / 1e9;
    }
    let classified: f64 = out.iter().map(|(_, s)| s).sum();
    out.push(("other", (wall_s - classified).max(0.0)));
    out
}

/// Restricts a registry snapshot to one experiment's subtree: the
/// metrics under the root span named `id`, with the `id/` prefix
/// stripped (the root itself is dropped). Order is preserved.
pub fn subtree(snaps: &[MetricSnapshot], id: &str) -> Vec<MetricSnapshot> {
    let prefix = format!("{id}/");
    snaps
        .iter()
        .filter_map(|s| {
            let name = s.name.strip_prefix(&prefix)?;
            Some(MetricSnapshot {
                name: name.to_string(),
                kind: s.kind.clone(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(path: &str, total_ns: u64, self_ns: u64) -> MetricSnapshot {
        MetricSnapshot {
            name: path.into(),
            kind: MetricKind::Span {
                count: 1,
                total_ns,
                self_ns,
                max_ns: total_ns,
            },
        }
    }

    #[test]
    fn leaves_classify_into_the_documented_phases() {
        assert_eq!(phase_of("bench.workload.trace"), Some("trace_gen"));
        assert_eq!(
            phase_of("fig16/bench.session.acquire/bench.workload.trace/simcpu.bench.trace"),
            Some("trace_gen")
        );
        assert_eq!(phase_of("fig16/bench.session.acquire"), Some("trace_gen"));
        assert_eq!(
            phase_of("fig16/buscoding.codec.evaluate_blocks"),
            Some("encode")
        );
        assert_eq!(
            phase_of("fig16/buscoding.codec.evaluate_blocks/buscoding.codec.accumulate"),
            Some("accumulate")
        );
        assert_eq!(
            phase_of("generalize/bustrain.train/bustrain.corpus.trace"),
            Some("trace_gen")
        );
        assert_eq!(phase_of("generalize/bustrain.train"), Some("accumulate"));
        assert_eq!(
            phase_of("generalize/bustrain.train/bustrain.train.accumulate"),
            Some("accumulate")
        );
        assert_eq!(
            phase_of("generalize/bustrain.train/bustrain.train.fit"),
            Some("accumulate")
        );
        assert_eq!(phase_of("x/busadapt.controller.boundary"), Some("encode"));
        assert_eq!(phase_of("x/busfault.channel.run"), Some("encode"));
        assert_eq!(phase_of("fig5/wiremodel.repeater.plan"), Some("pricing"));
        assert_eq!(phase_of("fig26/hwmodel.crossover.solve"), Some("pricing"));
        assert_eq!(phase_of("fig16/bench.report.emit"), Some("emit"));
        assert_eq!(phase_of("fig16"), None);
        assert_eq!(phase_of("bench.experiments.adaptive"), None);
    }

    #[test]
    fn breakdown_uses_self_time_and_closes_with_other() {
        let nodes = vec![
            node(
                "fig16/buscoding.codec.evaluate_blocks",
                800_000_000,
                600_000_000,
            ),
            node(
                "fig16/buscoding.codec.evaluate_blocks/buscoding.codec.accumulate",
                200_000_000,
                200_000_000,
            ),
            node("fig16/bench.session.acquire", 100_000_000, 100_000_000),
            MetricSnapshot {
                name: "buscoding.codec.values_encoded".into(),
                kind: MetricKind::Counter { value: 7 },
            },
        ];
        let phases = phase_breakdown(&nodes, 1.0);
        let get = |p: &str| phases.iter().find(|(k, _)| *k == p).unwrap().1;
        assert!((get("encode") - 0.6).abs() < 1e-9);
        assert!((get("accumulate") - 0.2).abs() < 1e-9);
        assert!((get("trace_gen") - 0.1).abs() < 1e-9);
        assert!((get("other") - 0.1).abs() < 1e-9);
        assert_eq!(phases.len(), PHASES.len() + 1);
        // Over-attribution clamps instead of going negative.
        let tight = phase_breakdown(&nodes, 0.5);
        assert_eq!(tight.last().unwrap().1, 0.0);
    }

    #[test]
    fn subtree_strips_the_root_prefix() {
        let snaps = vec![
            node("fig16", 10, 3),
            node("fig16/buscoding.codec.evaluate_blocks", 7, 7),
            node("fig17/buscoding.codec.evaluate_blocks", 5, 5),
            node("fig16x/bench.report.emit", 3, 3),
        ];
        let sub = subtree(&snaps, "fig16");
        assert_eq!(sub, [node("buscoding.codec.evaluate_blocks", 7, 7)]);
    }
}
