//! Compare every coding scheme of the paper on register-bus traffic
//! from three very different kernels: pointer-chasing (gcc), tiny-value
//! scanning (go), and floating-point stencil (swim).
//!
//! ```sh
//! cargo run --release --example register_bus_study
//! ```

use bench::schemes::baseline_activity;
use buscoding::{evaluate_blocks, percent_energy_removed, SchemeSpec};
use simcpu::{Benchmark, BusKind};

fn main() {
    let schemes = [
        SchemeSpec::Inversion {
            chunks: 1,
            design_lambda: 0.0,
        },
        SchemeSpec::Inversion {
            chunks: 6,
            design_lambda: 1.0,
        },
        SchemeSpec::Stride { strides: 8 },
        SchemeSpec::Window { entries: 8 },
        SchemeSpec::Window { entries: 16 },
        SchemeSpec::ContextValue {
            table: 28,
            shift: 8,
            divide: 4096,
        },
        SchemeSpec::ContextTransition {
            table: 28,
            shift: 8,
            divide: 4096,
        },
    ];
    let benchmarks = [Benchmark::Gcc, Benchmark::Go, Benchmark::Swim];

    print!("{:<32}", "scheme \\ benchmark");
    for b in benchmarks {
        print!("{:>10}", b.name());
    }
    println!();
    for scheme in schemes {
        print!("{:<32}", scheme.to_string());
        for b in benchmarks {
            let trace = b.trace(BusKind::Register, 100_000, 7);
            let mut pair = scheme
                .build(trace.width())
                .expect("a 32-bit bus fits every scheme");
            let coded = evaluate_blocks(pair.encoder_mut(), &trace);
            let removed = percent_energy_removed(&coded, &baseline_activity(&trace), 1.0);
            print!("{removed:>9.1}%");
        }
        println!();
    }
    println!();
    println!("positive = energy removed relative to the un-encoded bus (lambda = 1)");
}
