//! Tour of the address-bus extension: spatial-locality coding
//! (working zones) versus the paper's value-locality schemes, on real
//! address traffic from the kernel simulator.
//!
//! ```sh
//! cargo run --release --example address_bus_tour
//! ```

use bench::schemes::baseline_activity;
use buscoding::{evaluate_blocks, percent_energy_removed, SchemeSpec};
use bustrace::stats::stride_hit_fraction;
use bustrace::Trace;
use simcpu::{Benchmark, BusKind};

/// Percent of λ = 1 energy `scheme` removes from `trace`.
fn removed(scheme: &SchemeSpec, trace: &Trace) -> f64 {
    let mut pair = scheme
        .build(trace.width())
        .expect("a 32-bit bus fits every scheme");
    let coded = evaluate_blocks(pair.encoder_mut(), trace);
    percent_energy_removed(&coded, &baseline_activity(trace), 1.0)
}

fn main() {
    let schemes = [
        SchemeSpec::WorkZone { zones: 4 },
        SchemeSpec::Stride { strides: 8 },
        SchemeSpec::Window { entries: 8 },
        SchemeSpec::ContextValue {
            table: 28,
            shift: 8,
            divide: 4096,
        },
    ];
    let benchmarks = [
        Benchmark::Swim,
        Benchmark::Compress,
        Benchmark::Gcc,
        Benchmark::Wave5,
    ];

    println!("Address buses carry *spatial* locality: sequential walks and a few");
    println!("live regions. Watch the coder classes trade places relative to the");
    println!("register-bus results.\n");

    print!("{:<28}", "scheme \\ benchmark");
    for b in benchmarks {
        print!("{:>10}", b.name());
    }
    println!();
    for scheme in schemes {
        print!("{:<28}", scheme.to_string());
        for b in benchmarks {
            let trace = b.trace(BusKind::Address, 80_000, 5);
            print!("{:>9.1}%", removed(&scheme, &trace));
        }
        println!();
    }

    println!();
    println!("why: best stride predictability of each address stream (an inner");
    println!("loop issuing k memory accesses per iteration is stride-k periodic):");
    for b in benchmarks {
        let trace = b.trace(BusKind::Address, 80_000, 5);
        let baseline = baseline_activity(&trace);
        let (best_k, best) = (1..=8)
            .map(|k| (k, stride_hit_fraction(&trace, k)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty range");
        println!(
            "  {:<10} best stride-{best_k} hits {:>5.1}%  baseline {:>5.2} weighted events/value",
            b.name(),
            100.0 * best,
            baseline.weighted(1.0) / trace.len() as f64,
        );
    }

    // The punchline in one number: how much a workzone coder saves on the
    // most strided trace vs the most pointer-heavy one.
    let strided = Benchmark::Swim.trace(BusKind::Address, 80_000, 5);
    let pointered = Benchmark::Gcc.trace(BusKind::Address, 80_000, 5);
    let wz = SchemeSpec::WorkZone { zones: 4 };
    let (a, b) = (removed(&wz, &strided), removed(&wz, &pointered));
    println!();
    println!("workzone on swim (strided): {a:+.1}%   on gcc (pointer-chasing): {b:+.1}%");
    println!("a coder must match the locality class of its traffic.");
}
