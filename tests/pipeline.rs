//! End-to-end pipeline: kernel → trace → statistics → coding → circuit
//! energy → crossover, exercising every crate in one flow.

use bench::schemes::{baseline_activity, window_outcome};
use buscoding::{evaluate_blocks, percent_energy_removed, SchemeSpec};
use bustrace::stats::{window_uniqueness, ValueCensus};
use simcpu::{Benchmark, BusKind};
use wiremodel::{Technology, Wire, WireStyle};

#[test]
fn full_pipeline_on_li_register_bus() {
    // 1. Trace extraction.
    let trace = Benchmark::Li.trace(BusKind::Register, 60_000, 9);
    assert_eq!(trace.len(), 60_000);

    // 2. The statistics that motivate the design: small windows see few
    //    distinct values even though the population is large.
    let census = ValueCensus::of(&trace);
    assert!(census.unique_count() > 100);
    let wu = window_uniqueness(&trace, 32).expect("long enough");
    assert!(wu < 0.8, "window uniqueness {wu}");

    // 3. Coding: the window transcoder removes energy.
    let mut pair = SchemeSpec::Window { entries: 8 }
        .build(trace.width())
        .unwrap();
    let coded = evaluate_blocks(pair.encoder_mut(), &trace);
    let baseline = baseline_activity(&trace);
    let removed = percent_energy_removed(&coded, &baseline, 1.0);
    assert!(removed > 10.0, "window(8) removed only {removed:.1}%");

    // 4. Circuit energy + crossover: net savings at some plausible
    //    length, and the normalized curve behaves.
    let tech = Technology::tech_013();
    let outcome = window_outcome(&trace, 8, tech);
    let near = outcome.normalized_total_energy(&Wire::new(tech, WireStyle::Repeated, 1.0).unwrap());
    let far = outcome.normalized_total_energy(&Wire::new(tech, WireStyle::Repeated, 30.0).unwrap());
    assert!(
        near > 1.0,
        "at 1 mm the transcoder can't pay for itself: {near}"
    );
    assert!(far < near, "normalized energy must fall with length");
}

#[test]
fn memory_bus_crossovers_are_longer_than_register_bus() {
    // The paper's observation: "the result is less encouraging for the
    // memory bus" — on suite medians, break-even comes later there.
    // (Individual kernels can invert this; a couple of stencil codes
    // have unusually friendly memory traffic, here as in the paper.)
    let tech = Technology::tech_013();
    let median_crossover = |bus: BusKind| -> f64 {
        let mut xs: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|b| {
                let o = window_outcome(&b.trace(bus, 40_000, 5), 8, tech);
                o.crossover_mm(tech, WireStyle::Repeated).unwrap_or(1000.0)
            })
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[xs.len() / 2]
    };
    let reg = median_crossover(BusKind::Register);
    let mem = median_crossover(BusKind::Memory);
    assert!(
        mem >= reg,
        "median memory-bus break-even ({mem} mm) should not beat register bus ({reg} mm)"
    );
}

#[test]
fn crossover_shrinks_with_technology_on_real_traffic() {
    let trace = Benchmark::Swim.trace(BusKind::Register, 40_000, 5);
    let mut lengths = Vec::new();
    for tech in Technology::all() {
        let o = window_outcome(&trace, 8, tech);
        lengths.push(
            o.crossover_mm(tech, WireStyle::Repeated)
                .expect("swim breaks even"),
        );
    }
    assert!(
        lengths[0] > lengths[2],
        "crossover should shrink from 0.13um to 0.07um: {lengths:?}"
    );
}
