//! Section 5 circuit reproductions: Table 2 and Figure 26.

use buscoding::SchemeSpec;
use hwmodel::budget::energy_budget_pj_per_cycle;
use hwmodel::{CircuitModel, ContextHwConfig, WindowHardware};
use simcpu::BusKind;
use wiremodel::{Technology, Wire, WireStyle};

use crate::experiments::par_map;
use crate::report::{f, Table};
use crate::session::ActivityQuery;
use crate::workloads::Workload;
use crate::Session;

/// The circuit experiments cap their reference workload at 100k values;
/// the hardware-model tallies stabilize well before that.
const CAP: usize = 100_000;

/// Table 2: transcoder characteristics per technology.
///
/// Area, delay, cycle time and leakage come from the circuit model's
/// calibrated constants; the per-cycle op energy is *measured* by
/// running the hardware model over a reference register-bus workload and
/// pricing the tally — the paper's own methodology (Figure 34).
pub fn table2(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "table2",
        "Transcoder characteristics (paper op energies: 1.39/1.07/0.55, inverter 1.76 pJ)",
        &[
            "design",
            "voltage_v",
            "area_um2",
            "op_energy_pj",
            "leakage_pj",
            "delay_ns",
            "cycle_ns",
        ],
    );
    // Reference workload: average the measured per-cycle energy over
    // every register-bus benchmark.
    let traces = par_map(Workload::all_benchmarks(BusKind::Register), |w| {
        session.trace_capped(w, CAP)
    });
    for tech in Technology::all() {
        let circuit = CircuitModel::window(tech, 8);
        let mut per_cycle = 0.0;
        for trace in &traces {
            let mut hw = WindowHardware::new(8);
            for v in trace.iter() {
                hw.present(v);
            }
            per_cycle += circuit.dynamic_energy_pj(hw.ops()) / hw.ops().cycles as f64;
        }
        per_cycle /= traces.len() as f64;
        t.push(vec![
            format!("window-8 {}", tech.kind),
            f(tech.vdd, 1),
            f(circuit.area_um2(), 0),
            f(per_cycle, 2),
            format!("{:.5}", circuit.leakage_pj_per_cycle()),
            f(circuit.delay_ns(), 1),
            f(circuit.cycle_time_ns(), 1),
        ]);
    }
    let inv = CircuitModel::inverter(Technology::tech_013());
    let one_cycle = hwmodel::OpCounts {
        cycles: 1,
        ..hwmodel::OpCounts::new()
    };
    t.push(vec![
        "invert-coder 0.13um".into(),
        f(1.2, 1),
        f(inv.area_um2(), 0),
        f(inv.dynamic_energy_pj(&one_cycle), 2),
        format!("{:.5}", inv.leakage_pj_per_cycle()),
        f(inv.delay_ns(), 1),
        f(inv.cycle_time_ns(), 1),
    ]);
    vec![t]
}

/// Figure 26: energy budget vs total dictionary entries, for 5/10/15 mm
/// wires, Window and Context designs, averaged over the register-bus
/// benchmarks.
pub fn fig26(session: &Session) -> Vec<Table> {
    let mut t = Table::new(
        "fig26",
        "Energy budget (pJ/cycle of wire energy saved) vs total entries",
        &["design", "length_mm", "entries", "budget_pj"],
    );
    let entry_counts = [4usize, 8, 16, 24, 32, 48, 64];
    let values = session.values().min(CAP);
    let tech = Technology::tech_013();

    let workloads = Workload::all_benchmarks(BusKind::Register);
    let baselines: Vec<_> = workloads
        .iter()
        .map(|w| session.baseline_capped(*w, CAP))
        .collect();

    let jobs: Vec<(&'static str, usize)> = entry_counts
        .iter()
        .flat_map(|&n| [("window", n), ("context", n)])
        .collect();
    let results = par_map(jobs, |(design, entries)| {
        let acts: Vec<_> = workloads
            .iter()
            .map(|&w| {
                let scheme = match design {
                    "window" => SchemeSpec::Window { entries },
                    _ => {
                        let cfg = ContextHwConfig::paper_layout();
                        let table = entries.saturating_sub(cfg.shift).max(1);
                        SchemeSpec::ContextValue {
                            table,
                            shift: cfg.shift,
                            divide: 4096,
                        }
                    }
                };
                session.activity(&ActivityQuery::new(scheme.to_string(), w).cap(CAP))
            })
            .collect();
        (design, entries, acts)
    });

    for &len in &[5.0f64, 10.0, 15.0] {
        let wire = Wire::new(tech, WireStyle::Repeated, len).expect("valid length");
        for (design, entries, acts) in &results {
            let budget: f64 = acts
                .iter()
                .zip(&baselines)
                .map(|(a, b)| energy_budget_pj_per_cycle(b, a, &wire, values as u64))
                .sum::<f64>()
                / acts.len() as f64;
            t.push(vec![
                design.to_string(),
                f(len, 0),
                entries.to_string(),
                f(budget, 3),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Session {
        Session::builder().values(10_000).build()
    }

    #[test]
    fn table2_op_energy_near_paper() {
        let t = &table2(&tiny())[0];
        let row13 = t
            .rows
            .iter()
            .find(|r| r[0].contains("0.13um") && r[0].contains("window"))
            .unwrap();
        let e: f64 = row13[3].parse().unwrap();
        assert!(
            (e - 1.39).abs() / 1.39 < 0.35,
            "0.13um op energy {e} vs paper 1.39"
        );
        let inv = t.rows.iter().find(|r| r[0].contains("invert")).unwrap();
        assert_eq!(inv[3], "1.76");
    }

    #[test]
    fn fig26_budget_grows_with_length() {
        let t = &fig26(&tiny())[0];
        let pick = |len: &str, entries: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == "window" && r[1] == len && r[2] == entries)
                .map(|r| r[3].parse().unwrap())
                .expect("row")
        };
        assert!(pick("15", "8") > pick("5", "8"));
    }
}
