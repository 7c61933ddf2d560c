//! Section 4 reproductions: coding-effectiveness figures 15–25.
//!
//! All percentages are λ-weighted energy removed relative to the
//! un-encoded bus with λ = 1, the paper's default (Section 4.4).

use buscoding::{normalized_energy_remaining, SchemeSpec};
use simcpu::{Benchmark, BusKind};

use crate::api::{EvalRequest, Evaluator};
use crate::experiments::par_map;
use crate::report::{f, Table};
use crate::session::ActivityQuery;
use crate::workloads::Workload;
use crate::Session;

const LAMBDA: f64 = 1.0;

/// Generic sweep: for every workload line and every x-axis
/// configuration, the percent of energy removed. Each workload line is
/// one [`EvalRequest`] through the shared [`Evaluator`] surface — the
/// same computation a `repro serve` daemon runs for the same request —
/// so the batch binary and the service cannot drift. Traces and
/// baseline activities come from the session caches, so sweeps sharing
/// a workload grid (figures 16/20/22, 17/21/23, ...) pay for each
/// trace and baseline once per run.
fn percent_sweep(
    id: &str,
    title: &str,
    session: &Session,
    workloads: Vec<Workload>,
    configs: Vec<(String, SchemeSpec)>,
) -> Table {
    let mut t = Table::new(id, title, &["workload", "x", "scheme", "percent_removed"]);
    let schemes: Vec<String> = configs.iter().map(|(_, s)| s.to_string()).collect();
    let results = par_map(workloads, |w| {
        let request = EvalRequest::stored(w, schemes.clone()).lambda(LAMBDA);
        let response = session
            .evaluate(&request)
            .expect("every swept scheme is a registry name");
        let rows: Vec<(String, String, f64)> = configs
            .iter()
            .zip(response.results)
            .map(|((x, _), r)| (x.clone(), r.scheme, r.percent_removed))
            .collect();
        (w.name(), rows)
    });
    for (name, rows) in results {
        for (x, scheme, pct) in rows {
            t.push(vec![name.clone(), x, scheme, f(pct, 2)]);
        }
    }
    t
}

/// Figure 15: inversion-coder normalized energy vs the wire's actual λ,
/// for minimizers designed against λ=0 (classic bus-invert), λ=1, and
/// the true λ.
pub fn fig15(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "fig15",
        "Inversion coder: % energy remaining vs actual lambda (lower is better)",
        &["traffic", "design", "actual_lambda", "percent_remaining"],
    );
    let lambdas = [0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0];
    let benches = [
        Benchmark::Gcc,
        Benchmark::Su2cor,
        Benchmark::Swim,
        Benchmark::Turb3d,
    ];

    // Traffic groups: register average, memory average, random.
    let mut groups: Vec<(String, Vec<Workload>)> = vec![
        (
            "register".into(),
            benches
                .iter()
                .map(|&b| Workload::Bench(b, BusKind::Register))
                .collect(),
        ),
        (
            "memory".into(),
            benches
                .iter()
                .map(|&b| Workload::Bench(b, BusKind::Memory))
                .collect(),
        ),
        ("random".into(), vec![Workload::Random]),
    ];

    const CAP: usize = 100_000;
    let results = par_map(std::mem::take(&mut groups), |(group, members)| {
        let baselines: Vec<_> = members
            .iter()
            .map(|w| session.baseline_capped(*w, CAP))
            .collect();
        // All coded activities go through the session store; the λN
        // design at actual λ = 1 shares its entry with the fixed λ1
        // design (identical scheme name).
        let inversion = |w: Workload, design: f64| {
            let scheme = SchemeSpec::Inversion {
                chunks: 6,
                design_lambda: design,
            };
            session.activity(&ActivityQuery::new(scheme.to_string(), w).cap(CAP))
        };
        // λ0 and λ1 designs are independent of the actual λ.
        let fixed: Vec<(String, Vec<buscoding::Activity>)> = [("l0", 0.0), ("l1", 1.0)]
            .iter()
            .map(|&(name, design)| {
                let acts = members.iter().map(|&w| inversion(w, design)).collect();
                (name.to_string(), acts)
            })
            .collect();
        let mut rows = Vec::new();
        for &actual in &lambdas {
            for (design, acts) in &fixed {
                let avg: f64 = acts
                    .iter()
                    .zip(&baselines)
                    .map(|(a, b)| normalized_energy_remaining(a, b, actual))
                    .sum::<f64>()
                    / acts.len() as f64;
                rows.push((design.clone(), actual, 100.0 * avg));
            }
            // λN: redesigned per actual λ.
            let avg: f64 = members
                .iter()
                .zip(&baselines)
                .map(|(&w, b)| {
                    let a = inversion(w, actual);
                    normalized_energy_remaining(&a, b, actual)
                })
                .sum::<f64>()
                / members.len() as f64;
            rows.push(("lN".into(), actual, 100.0 * avg));
        }
        (group, rows)
    });
    for (group, rows) in results {
        for (design, actual, pct) in rows {
            t.push(vec![group.clone(), design, f(actual, 1), f(pct, 2)]);
        }
    }
    vec![t]
}

fn stride_configs() -> Vec<(String, SchemeSpec)> {
    [1usize, 2, 4, 8, 12, 16, 20, 24, 28, 32]
        .iter()
        .map(|&s| (s.to_string(), SchemeSpec::Stride { strides: s }))
        .collect()
}

/// Figure 16: strided predictor on the memory bus.
pub fn fig16(session: &Session) -> Vec<Table> {
    vec![percent_sweep(
        "fig16",
        "% energy removed vs number of stride predictors (memory bus)",
        session,
        Workload::figure_lines(BusKind::Memory),
        stride_configs(),
    )]
}

/// Figure 17: strided predictor on the register bus.
pub fn fig17(session: &Session) -> Vec<Table> {
    vec![percent_sweep(
        "fig17",
        "% energy removed vs number of stride predictors (register bus)",
        session,
        Workload::figure_lines(BusKind::Register),
        stride_configs(),
    )]
}

fn window_configs() -> Vec<(String, SchemeSpec)> {
    [2usize, 4, 8, 12, 16, 24, 32, 48, 64]
        .iter()
        .map(|&n| (n.to_string(), SchemeSpec::Window { entries: n }))
        .collect()
}

/// Figure 18: window-based transcoder on the memory bus.
pub fn fig18(session: &Session) -> Vec<Table> {
    vec![percent_sweep(
        "fig18",
        "% energy removed vs shift register size (memory bus)",
        session,
        Workload::all_benchmarks(BusKind::Memory),
        window_configs(),
    )]
}

/// Figure 19: window-based transcoder on the register bus.
pub fn fig19(session: &Session) -> Vec<Table> {
    vec![percent_sweep(
        "fig19",
        "% energy removed vs shift register size (register bus)",
        session,
        Workload::all_benchmarks(BusKind::Register),
        window_configs(),
    )]
}

fn table_sizes() -> Vec<usize> {
    vec![4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64]
}

fn context_configs(transition: bool) -> Vec<(String, SchemeSpec)> {
    table_sizes()
        .into_iter()
        .map(|n| {
            let scheme = if transition {
                SchemeSpec::ContextTransition {
                    table: n,
                    shift: 8,
                    divide: 4096,
                }
            } else {
                SchemeSpec::ContextValue {
                    table: n,
                    shift: 8,
                    divide: 4096,
                }
            };
            (n.to_string(), scheme)
        })
        .collect()
}

/// Figure 20: transition-flavor context transcoder, memory bus.
pub fn fig20(session: &Session) -> Vec<Table> {
    vec![percent_sweep(
        "fig20",
        "% energy removed vs table size, transition-based (memory bus, SR=8)",
        session,
        Workload::figure_lines(BusKind::Memory),
        context_configs(true),
    )]
}

/// Figure 21: transition-flavor context transcoder, register bus.
pub fn fig21(session: &Session) -> Vec<Table> {
    vec![percent_sweep(
        "fig21",
        "% energy removed vs table size, transition-based (register bus, SR=8)",
        session,
        Workload::figure_lines(BusKind::Register),
        context_configs(true),
    )]
}

/// Figure 22: value-flavor context transcoder, memory bus.
pub fn fig22(session: &Session) -> Vec<Table> {
    vec![percent_sweep(
        "fig22",
        "% energy removed vs table size, value-based (memory bus, SR=8)",
        session,
        Workload::figure_lines(BusKind::Memory),
        context_configs(false),
    )]
}

/// Figure 23: value-flavor context transcoder, register bus.
pub fn fig23(session: &Session) -> Vec<Table> {
    vec![percent_sweep(
        "fig23",
        "% energy removed vs table size, value-based (register bus, SR=8)",
        session,
        Workload::figure_lines(BusKind::Register),
        context_configs(false),
    )]
}

/// The benchmark subset of Figures 24–25.
fn fig24_benchmarks() -> Vec<Workload> {
    [
        Benchmark::Li,
        Benchmark::Compress,
        Benchmark::Gcc,
        Benchmark::Perl,
        Benchmark::Fpppp,
        Benchmark::Apsi,
        Benchmark::Swim,
    ]
    .iter()
    .map(|&b| Workload::Bench(b, BusKind::Register))
    .collect()
}

/// Figure 24: value-based context vs shift-register size (tables 16, 64).
pub fn fig24(session: &Session) -> Vec<Table> {
    let mut configs = Vec::new();
    for &table in &[16usize, 64] {
        for &sr in &[2usize, 4, 8, 12, 16, 24, 32] {
            configs.push((
                format!("{sr}@{table}"),
                SchemeSpec::ContextValue {
                    table,
                    shift: sr,
                    divide: 4096,
                },
            ));
        }
    }
    vec![percent_sweep(
        "fig24",
        "% energy removed vs shift register size (register bus, tables 16 & 64)",
        session,
        fig24_benchmarks(),
        configs,
    )]
}

/// Figure 25: value-based context vs counter divide period.
pub fn fig25(session: &Session) -> Vec<Table> {
    let mut configs = Vec::new();
    for &table in &[16usize, 64] {
        for &period in &[4u64, 16, 64, 256, 1024, 4096, 16384] {
            configs.push((
                format!("{period}@{table}"),
                SchemeSpec::ContextValue {
                    table,
                    shift: 8,
                    divide: period,
                },
            ));
        }
    }
    vec![percent_sweep(
        "fig25",
        "% energy removed vs counter divide period (register bus, tables 16 & 64)",
        session,
        fig24_benchmarks(),
        configs,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Session {
        Session::builder().values(20_000).build()
    }

    #[test]
    fn window_sweep_has_expected_shape() {
        let t = &fig19(&tiny())[0];
        // Every benchmark × every window size.
        assert_eq!(t.rows.len(), 17 * 9);
        // Energy removed grows (or holds) with window size on li, the
        // most locality-friendly integer kernel.
        let li: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0] == "li/register")
            .map(|r| r[3].parse().unwrap())
            .collect();
        assert!(li.last().unwrap() >= &li[0], "{li:?}");
        assert!(li.iter().any(|&p| p > 10.0), "li should benefit: {li:?}");
    }

    #[test]
    fn fig15_random_designs_agree_at_their_lambda() {
        let session = Session::builder().values(10_000).build();
        let t = &fig15(&session)[0];
        // At actual λ = 1, the λ1 and λN designs coincide by definition.
        let get = |design: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == "random" && r[1] == design && r[2] == "1.0")
                .map(|r| r[3].parse().unwrap())
                .expect("row present")
        };
        assert!((get("l1") - get("lN")).abs() < 1e-9);
    }
}
