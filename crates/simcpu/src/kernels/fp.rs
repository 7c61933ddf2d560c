//! The SPECfp-like kernels: stencils, butterflies, gathers, and dense
//! register-resident arithmetic on IEEE-754 single-precision data.
//!
//! Floating-point bus traffic has a characteristic shape: sign and
//! exponent bits are nearly constant within an array while mantissa bits
//! churn, and different arrays live at different magnitudes. Each kernel
//! perturbs its fields every outer pass (XOR-ing fresh low mantissa
//! bits) so relaxation never converges to constant traffic.

use crate::isa::{AluOp, Cond, FpuOp};
use crate::program::ProgramBuilder;

use super::{blank_memory, build, fill_f32, fill_with, kernel_rng, va, KernelSpec};

/// Emits the shared outer-pass perturbation: pick a pseudo-random cell
/// in `[base, base+len)` and XOR noise into its low mantissa bits.
/// Clobbers r28–r29 and advances the LCG in r30.
fn perturb(b: &mut ProgramBuilder, tag: u32, base: usize, len: usize) {
    assert!(
        len.is_power_of_two(),
        "perturbation region must be a power of two"
    );
    b.alui(AluOp::Mul, 30, 30, 1664525);
    b.alui(AluOp::Add, 30, 30, 1013904223);
    b.alui(AluOp::Srl, 28, 30, 16);
    b.alui(AluOp::And, 28, 28, (len - 1) as u32);
    b.alui(AluOp::Add, 28, 28, va(tag, base));
    b.load(29, 28, 0);
    b.alui(AluOp::Srl, 27, 30, 24);
    b.alui(AluOp::And, 27, 27, 0xFF); // low mantissa noise
    b.alu(AluOp::Xor, 29, 29, 27);
    b.store(29, 28, 0);
}

/// `swim`-like: shallow-water 2D stencil, row-major.
///
/// Smooth fields relaxed with neighbor differences: unit-stride loads,
/// stable exponents, churning mantissas — the trace the paper singles
/// out as coding-friendly ("for SWIM, the transcoder begins to save
/// energy as short as 3mm").
pub fn swim(seed: u64) -> KernelSpec {
    const U: usize = 0x1000; // 4096-word grid (64 x 64)
    const P: usize = 0x3000;
    const N: usize = 4096;
    let mut rng = kernel_rng("swim", seed);
    let mut memory = blank_memory();
    fill_f32(&mut memory, U, N, &mut rng, 0.9, 1.1);
    // Pressure over a nearly-flat ocean: a handful of distinct levels,
    // so the load stream has the strong value locality that made swim
    // the paper's friendliest trace.
    let levels: Vec<u32> = (0..16)
        .map(|i| (1.0 + 0.004 * i as f32).to_bits())
        .collect();
    fill_with(&mut memory, P, N, &mut rng, |r| {
        levels[r.below(levels.len() as u64) as usize]
    });

    let mut b = ProgramBuilder::new();
    b.li(30, 0x5157_0001);
    b.li(20, 0.25f32.to_bits()); // c1
    b.li(21, 0.1f32.to_bits()); // c2
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 64); // skip first row
    let inner = b.label();
    b.place(inner).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x5100, U));
    b.alui(AluOp::Add, 3, 1, va(0x52EE, P));
    b.load(4, 3, 1); // P east
    b.load(5, 3, -1); // P west
    b.load(6, 2, 64); // U south
    b.load(7, 2, -64); // U north
    b.load(8, 2, 0); // U center
    b.fpu(FpuOp::Fsub, 9, 4, 5); // dP
    b.fpu(FpuOp::Fmul, 9, 9, 20);
    b.fpu(FpuOp::Fadd, 10, 6, 7); // U neighbor sum
    b.fpu(FpuOp::Fmul, 10, 10, 21);
    b.fpu(FpuOp::Fadd, 11, 9, 10);
    b.fpu(FpuOp::Fmul, 11, 11, 21); // damp
    b.fpu(FpuOp::Fadd, 12, 8, 11);
    b.store(12, 2, 0);
    b.alui(AluOp::Add, 1, 1, 1);
    b.li(13, (N - 64) as u32);
    b.branch(Cond::Lt, 1, 13, inner);
    perturb(&mut b, 0x5100, U, N);
    perturb(&mut b, 0x52EE, P, N);
    b.jump(outer);
    KernelSpec {
        name: "swim",
        program: build(b),
        memory,
    }
}

/// `tomcatv`-like: mesh relaxation over two coordinate grids.
pub fn tomcatv(seed: u64) -> KernelSpec {
    const X: usize = 0x1000;
    const Y: usize = 0x2000;
    const N: usize = 4096;
    let mut rng = kernel_rng("tomcatv", seed);
    let mut memory = blank_memory();
    fill_f32(&mut memory, X, N, &mut rng, 1.0, 2.0);
    fill_f32(&mut memory, Y, N, &mut rng, 10.0, 20.0);

    let mut b = ProgramBuilder::new();
    b.li(30, 0x70C4_0001);
    b.li(20, 0.05f32.to_bits());
    b.li(21, 2.0f32.to_bits());
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 1);
    let inner = b.label();
    b.place(inner).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x70C4, X));
    b.alui(AluOp::Add, 3, 1, va(0x71AA, Y));
    b.load(4, 2, -1);
    b.load(5, 2, 0);
    b.load(6, 2, 1);
    b.load(7, 3, 0);
    b.fpu(FpuOp::Fadd, 8, 4, 6);
    b.fpu(FpuOp::Fmul, 9, 5, 21);
    b.fpu(FpuOp::Fsub, 8, 8, 9); // residual rx
    b.fpu(FpuOp::Fmul, 8, 8, 20);
    b.fpu(FpuOp::Fadd, 10, 5, 8);
    b.store(10, 2, 0);
    // y relaxation pulls toward the x field: y' = y/2 + x, which keeps
    // the y grid bounded away from zero (no denormal collapse).
    b.fpu(FpuOp::Fdiv, 11, 7, 21);
    b.fpu(FpuOp::Fadd, 11, 11, 5);
    b.store(11, 3, 0);
    b.alui(AluOp::Add, 1, 1, 1);
    b.li(12, (N - 1) as u32);
    b.branch(Cond::Lt, 1, 12, inner);
    perturb(&mut b, 0x70C4, X, N);
    perturb(&mut b, 0x71AA, Y, N);
    b.jump(outer);
    KernelSpec {
        name: "tomcatv",
        program: build(b),
        memory,
    }
}

/// `su2cor`-like: complex multiply-accumulate over "gauge link" pairs.
pub fn su2cor(seed: u64) -> KernelSpec {
    const LINKS: usize = 0x1000; // pairs (re, im)
    const OUT: usize = 0x3000; // correlator outputs
    const N: usize = 4096;
    let mut rng = kernel_rng("su2cor", seed);
    let mut memory = blank_memory();
    fill_f32(&mut memory, LINKS, N, &mut rng, -1.0, 1.0);

    let mut b = ProgramBuilder::new();
    b.li(30, 0x5u32);
    b.li(20, 0.5f32.to_bits());
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 0);
    b.li(10, 0); // acc re
    b.li(11, 0); // acc im
    let inner = b.label();
    b.place(inner).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x5570, LINKS));
    b.load(3, 2, 0); // a re
    b.load(4, 2, 1); // a im
    b.load(5, 2, 2); // b re
    b.load(6, 2, 3); // b im
    b.fpu(FpuOp::Fmul, 7, 3, 5);
    b.fpu(FpuOp::Fmul, 8, 4, 6);
    b.fpu(FpuOp::Fsub, 7, 7, 8); // re = ac - bd
    b.fpu(FpuOp::Fmul, 8, 3, 6);
    b.fpu(FpuOp::Fmul, 9, 4, 5);
    b.fpu(FpuOp::Fadd, 8, 8, 9); // im = ad + bc
    b.fpu(FpuOp::Fmul, 10, 10, 20); // decay the accumulators
    b.fpu(FpuOp::Fadd, 10, 10, 7);
    b.fpu(FpuOp::Fmul, 11, 11, 20);
    b.fpu(FpuOp::Fadd, 11, 11, 8);
    // Correlator products go to a separate output region; the links
    // themselves stay put, so the products remain bounded by |a||b| <= 1.
    b.alui(AluOp::Add, 13, 1, va(0x560B, OUT));
    b.store(7, 13, 0);
    b.store(8, 13, 1);
    b.alui(AluOp::Add, 1, 1, 4);
    b.li(12, (N - 4) as u32);
    b.branch(Cond::Lt, 1, 12, inner);
    perturb(&mut b, 0x5570, LINKS, N);
    b.jump(outer);
    KernelSpec {
        name: "su2cor",
        program: build(b),
        memory,
    }
}

/// `hydro2d`-like: hydrodynamics stencil walked column-major
/// (stride-64 inner loop), so the memory bus sees large-stride traffic.
pub fn hydro2d(seed: u64) -> KernelSpec {
    const RHO: usize = 0x1000;
    const VEL: usize = 0x3000;
    const N: usize = 4096;
    const DIM: usize = 64;
    let mut rng = kernel_rng("hydro2d", seed);
    let mut memory = blank_memory();
    // Density in a few quantized bands (stratified flow) for value
    // locality; velocity field free-form.
    let bands: Vec<u32> = (0..12).map(|i| (0.6 + 0.08 * i as f32).to_bits()).collect();
    fill_with(&mut memory, RHO, N, &mut rng, |r| {
        bands[r.below(bands.len() as u64) as usize]
    });
    fill_f32(&mut memory, VEL, N, &mut rng, -0.1, 0.1);

    let mut b = ProgramBuilder::new();
    b.li(30, 0x42);
    b.li(20, 0.2f32.to_bits());
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, DIM as u32); // column-major index, skip first column
    let inner = b.label();
    b.place(inner).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x4849, RHO));
    b.alui(AluOp::Add, 3, 1, va(0x4950, VEL));
    b.load(4, 2, -(DIM as i32));
    b.load(5, 2, 0);
    b.load(6, 2, DIM as i32);
    b.load(7, 3, 0);
    b.fpu(FpuOp::Fadd, 8, 4, 6);
    b.fpu(FpuOp::Fsub, 8, 8, 5);
    b.fpu(FpuOp::Fmul, 8, 8, 20);
    b.fpu(FpuOp::Fadd, 9, 7, 8);
    b.store(9, 3, 0);
    b.alui(AluOp::Add, 1, 1, DIM as u32);
    b.li(10, (N - DIM) as u32);
    let no_wrap = b.label();
    b.branch(Cond::Lt, 1, 10, no_wrap);
    // Next column.
    b.alui(AluOp::And, 1, 1, (DIM - 1) as u32);
    b.alui(AluOp::Add, 1, 1, 1);
    b.li(11, DIM as u32);
    let done_pass = b.label();
    b.branch(Cond::Ge, 1, 11, done_pass);
    b.place(no_wrap).unwrap();
    b.branch(Cond::Ltu, 0, 1, inner); // always taken (r1 > 0)
    b.place(done_pass).unwrap();
    perturb(&mut b, 0x4849, RHO, N);
    b.li(1, DIM as u32);
    b.jump(outer);
    KernelSpec {
        name: "hydro2d",
        program: build(b),
        memory,
    }
}

/// `mgrid`-like: multigrid smoothing at power-of-two strides.
///
/// The inner stride cycles 1, 2, 4, …, 32 across passes — a feast for
/// the strided predictors.
pub fn mgrid(seed: u64) -> KernelSpec {
    const V: usize = 0x1000;
    const N: usize = 8192;
    let mut rng = kernel_rng("mgrid", seed);
    let mut memory = blank_memory();
    fill_f32(&mut memory, V, N, &mut rng, 0.9, 1.1);

    let mut b = ProgramBuilder::new();
    b.li(30, 0x9d);
    // Coefficients sum to 1.02: diffusion with a whisper of growth, so
    // the grid neither flattens to a constant nor overflows on any
    // reachable horizon.
    b.li(20, 0.26f32.to_bits());
    b.li(21, 0.5f32.to_bits());
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(15, 1); // stride for this level
    let level = b.label();
    b.place(level).unwrap();
    b.alu(AluOp::Add, 1, 15, 0); // i = stride
    let inner = b.label();
    b.place(inner).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x3A61, V));
    b.alu(AluOp::Sub, 3, 2, 15);
    b.alu(AluOp::Add, 4, 2, 15);
    b.load(5, 3, 0);
    b.load(6, 2, 0);
    b.load(7, 4, 0);
    b.fpu(FpuOp::Fadd, 8, 5, 7);
    b.fpu(FpuOp::Fmul, 8, 8, 20);
    b.fpu(FpuOp::Fmul, 9, 6, 21);
    b.fpu(FpuOp::Fadd, 9, 9, 8);
    b.store(9, 2, 0);
    b.alu(AluOp::Add, 1, 1, 15);
    b.li(10, (N - 32) as u32);
    b.branch(Cond::Ltu, 1, 10, inner);
    b.alui(AluOp::Sll, 15, 15, 1); // next level: double the stride
    b.li(11, 64);
    b.branch(Cond::Ltu, 15, 11, level);
    perturb(&mut b, 0x3A61, V, N);
    b.jump(outer);
    KernelSpec {
        name: "mgrid",
        program: build(b),
        memory,
    }
}

/// `applu`-like: banded 5-point block solves.
pub fn applu(seed: u64) -> KernelSpec {
    const A: usize = 0x1000;
    const N: usize = 8192; // blocks of 5 plus slack
    let mut rng = kernel_rng("applu", seed);
    let mut memory = blank_memory();
    fill_f32(&mut memory, A, N, &mut rng, 0.1, 1.0);

    let mut b = ProgramBuilder::new();
    b.li(30, 0xAA);
    for (i, c) in [0.2f32, -0.4, 0.9, -0.4, 0.2].iter().enumerate() {
        b.li(20 + i as u8, c.to_bits());
    }
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 0);
    let inner = b.label();
    b.place(inner).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x2C11, A));
    b.li(10, 0);
    for k in 0..5i32 {
        b.load(3, 2, k);
        b.fpu(FpuOp::Fmul, 4, 3, 20 + k as u8);
        b.fpu(FpuOp::Fadd, 10, 10, 4);
    }
    b.store(10, 2, 2); // write the pivot element
    b.alui(AluOp::Add, 1, 1, 5);
    b.li(5, (N - 5) as u32);
    b.branch(Cond::Ltu, 1, 5, inner);
    perturb(&mut b, 0x2C11, A, N);
    b.jump(outer);
    KernelSpec {
        name: "applu",
        program: build(b),
        memory,
    }
}

/// `turb3d`-like: FFT butterflies at cycling spans.
pub fn turb3d(seed: u64) -> KernelSpec {
    const X: usize = 0x1000;
    const N: usize = 4096;
    let mut rng = kernel_rng("turb3d", seed);
    let mut memory = blank_memory();
    fill_f32(&mut memory, X, N, &mut rng, -1.0, 1.0);

    let mut b = ProgramBuilder::new();
    b.li(30, 0x7b);
    b.li(20, std::f32::consts::FRAC_1_SQRT_2.to_bits()); // twiddle scale
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(15, 1); // span
    let stage = b.label();
    b.place(stage).unwrap();
    b.li(1, 0);
    let pairs = b.label();
    b.place(pairs).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x7B30, X));
    b.alu(AluOp::Add, 3, 2, 15);
    b.load(4, 2, 0); // a
    b.load(5, 3, 0); // b
    b.fpu(FpuOp::Fadd, 6, 4, 5);
    b.fpu(FpuOp::Fsub, 7, 4, 5);
    b.fpu(FpuOp::Fmul, 6, 6, 20);
    b.fpu(FpuOp::Fmul, 7, 7, 20);
    b.store(6, 2, 0);
    b.store(7, 3, 0);
    b.alui(AluOp::Add, 1, 1, 1);
    b.li(8, (N / 2) as u32);
    b.branch(Cond::Ltu, 1, 8, pairs);
    b.alui(AluOp::Sll, 15, 15, 1);
    b.li(9, 64);
    b.branch(Cond::Ltu, 15, 9, stage);
    perturb(&mut b, 0x7B30, X, N);
    b.jump(outer);
    KernelSpec {
        name: "turb3d",
        program: build(b),
        memory,
    }
}

/// `apsi`-like: weather fields at very different magnitudes combined
/// into a diagnostic array — the bus sees several distinct exponent
/// bands interleaved.
pub fn apsi(seed: u64) -> KernelSpec {
    // Bases are staggered by a quarter-line multiple (as real allocators
    // pad arrays) so the four unit-stride streams do not all collide in
    // the same cache sets.
    const T: usize = 0x1000; // temperature ~ 300
    const P: usize = 0x2040; // pressure ~ 1e5
    const Q: usize = 0x3080; // moisture ~ 1e-3
    const OUT: usize = 0x40C0;
    const N: usize = 4096;
    let mut rng = kernel_rng("apsi", seed);
    let mut memory = blank_memory();
    fill_f32(&mut memory, T, N, &mut rng, 250.0, 310.0);
    fill_f32(&mut memory, P, N, &mut rng, 9.0e4, 1.1e5);
    fill_f32(&mut memory, Q, N, &mut rng, 1.0e-4, 2.0e-3);

    let mut b = ProgramBuilder::new();
    b.li(30, 0xA1);
    b.li(20, 0.001f32.to_bits());
    b.li(21, 1000.0f32.to_bits());
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 0);
    let inner = b.label();
    b.place(inner).unwrap();
    b.alui(AluOp::Add, 2, 1, T as u32);
    b.alui(AluOp::Add, 3, 1, va(0x52EE, P));
    b.alui(AluOp::Add, 4, 1, Q as u32);
    b.load(5, 2, 0);
    b.load(6, 3, 0);
    b.load(7, 4, 0);
    b.fpu(FpuOp::Fmul, 8, 6, 20); // pressure scaled down
    b.fpu(FpuOp::Fmul, 9, 7, 21); // moisture scaled up
    b.fpu(FpuOp::Fadd, 10, 5, 8);
    b.fpu(FpuOp::Fadd, 10, 10, 9);
    b.alui(AluOp::Add, 11, 1, va(0x2077, OUT));
    b.store(10, 11, 0);
    b.alui(AluOp::Add, 1, 1, 1);
    b.li(12, N as u32);
    b.branch(Cond::Ltu, 1, 12, inner);
    perturb(&mut b, 0x1D40, T, N);
    perturb(&mut b, 0x1F66, Q, N);
    b.jump(outer);
    KernelSpec {
        name: "apsi",
        program: build(b),
        memory,
    }
}

/// `fpppp`-like: huge basic blocks of register-resident arithmetic with
/// sparse memory traffic (quantum chemistry two-electron integrals).
pub fn fpppp(seed: u64) -> KernelSpec {
    const G: usize = 0x1000;
    const N: usize = 2048;
    let mut rng = kernel_rng("fpppp", seed);
    let mut memory = blank_memory();
    fill_f32(&mut memory, G, N, &mut rng, 0.5, 1.5);

    let mut b = ProgramBuilder::new();
    b.li(30, 0xF4);
    // Exponential-moving-average coefficients: every stage is a convex
    // combination, so the whole register chain is bounded by the input
    // range no matter how long it runs.
    b.li(20, 0.875f32.to_bits());
    b.li(21, 0.125f32.to_bits());
    b.li(22, 0.5f32.to_bits());
    // Seed the working registers.
    for r in 10..18u8 {
        b.li(r, (1.0f32 + f32::from(r) * 0.125).to_bits());
    }
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 0);
    let inner = b.label();
    b.place(inner).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x6F22, G));
    b.load(3, 2, 0); // one load feeds a long register chain
                     // A cascade of EMA stages: r10 follows the input, r11 follows r10...
    b.fpu(FpuOp::Fmul, 10, 10, 20);
    b.fpu(FpuOp::Fmul, 9, 3, 21);
    b.fpu(FpuOp::Fadd, 10, 10, 9);
    for stage in 11..=15u8 {
        b.fpu(FpuOp::Fmul, stage, stage, 20);
        b.fpu(FpuOp::Fmul, 9, stage - 1, 21);
        b.fpu(FpuOp::Fadd, stage, stage, 9);
    }
    b.fpu(FpuOp::Fsub, 16, 10, 15); // band-pass: fast minus slow
    b.fpu(FpuOp::Fmul, 16, 16, 21); // (kept small; feeds the bus only)
                                    // Writeback is a convex mix of the input and its fast EMA, so the
                                    // memory feedback loop has unit gain: no blow-up, no collapse.
    b.fpu(FpuOp::Fadd, 17, 3, 10);
    b.fpu(FpuOp::Fmul, 17, 17, 22);
    b.store(17, 2, 0); // one store per block
    b.alui(AluOp::Add, 1, 1, 1);
    b.li(4, N as u32);
    b.branch(Cond::Ltu, 1, 4, inner);
    perturb(&mut b, 0x6F22, G, N);
    b.jump(outer);
    KernelSpec {
        name: "fpppp",
        program: build(b),
        memory,
    }
}

/// `wave5`-like: particle-in-cell gather/update/scatter with indexed
/// (pseudo-random) field accesses.
pub fn wave5(seed: u64) -> KernelSpec {
    const IDX: usize = 0x1000; // particle -> grid cell index
    const VELS: usize = 0x2000;
    const FIELD: usize = 0x4000;
    const CURRENT: usize = 0x6000; // deposited current (separate from E)
    const NPART: usize = 4096;
    const NGRID: usize = 8192;
    let mut rng = kernel_rng("wave5", seed);
    let mut memory = blank_memory();
    fill_with(&mut memory, IDX, NPART, &mut rng, |r| {
        r.below(NGRID as u64) as u32
    });
    fill_f32(&mut memory, VELS, NPART, &mut rng, -0.5, 0.5);
    fill_f32(&mut memory, FIELD, NGRID, &mut rng, -1.0, 1.0);

    let mut b = ProgramBuilder::new();
    b.li(30, 0x3A);
    b.li(20, 0.01f32.to_bits());
    b.li(21, 0.995f32.to_bits());
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 0);
    let per_particle = b.label();
    b.place(per_particle).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x3210, IDX));
    b.load(3, 2, 0); // cell index
    b.alui(AluOp::Add, 4, 3, va(0x4AFE, FIELD));
    b.load(5, 4, 0); // field at the particle (gather)
    b.alui(AluOp::Add, 6, 1, va(0x3B44, VELS));
    b.load(7, 6, 0); // velocity
    b.fpu(FpuOp::Fmul, 8, 5, 20); // dv = E * dt
    b.fpu(FpuOp::Fmul, 7, 7, 21); // drag
    b.fpu(FpuOp::Fadd, 7, 7, 8);
    b.store(7, 6, 0);
    // Deposit into a separate current grid; overwriting E itself would
    // collapse the field to ~1% of the velocities within a few passes.
    b.fpu(FpuOp::Fmul, 9, 7, 20);
    b.alui(AluOp::Add, 12, 3, va(0x4C00, CURRENT));
    b.store(9, 12, 0); // scatter
                       // Move the particle: a small pseudo-random walk of its cell index.
    b.alui(AluOp::Mul, 10, 3, 5);
    b.alui(AluOp::Add, 10, 10, 1);
    b.alui(AluOp::And, 10, 10, (NGRID - 1) as u32);
    b.store(10, 2, 0);
    b.alui(AluOp::Add, 1, 1, 1);
    b.li(11, NPART as u32);
    b.branch(Cond::Ltu, 1, 11, per_particle);
    perturb(&mut b, 0x4AFE, FIELD, NGRID);
    b.jump(outer);
    KernelSpec {
        name: "wave5",
        program: build(b),
        memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};

    fn machine_for(spec: &KernelSpec) -> Machine {
        let mut m = Machine::new(spec.program.clone(), MachineConfig::default());
        m.load_memory(0, &spec.memory);
        m
    }

    fn smoke(spec: KernelSpec) {
        let mut m = machine_for(&spec);
        let summary = m.run(300_000, 5_000, 1_000);
        assert!(
            m.take_register_trace().len() >= 5_000,
            "{}: too few register values ({:?})",
            spec.name,
            summary.stop
        );
        assert!(
            m.take_memory_trace().len() >= 1_000,
            "{}: too few memory values ({:?})",
            spec.name,
            summary.stop
        );
        assert!(!m.is_halted(), "{}: kernels must loop forever", spec.name);
    }

    #[test]
    fn swim_smoke() {
        smoke(swim(1));
    }

    #[test]
    fn tomcatv_smoke() {
        smoke(tomcatv(1));
    }

    #[test]
    fn su2cor_smoke() {
        smoke(su2cor(1));
    }

    #[test]
    fn hydro2d_smoke() {
        smoke(hydro2d(1));
    }

    #[test]
    fn mgrid_smoke() {
        smoke(mgrid(1));
    }

    #[test]
    fn applu_smoke() {
        smoke(applu(1));
    }

    #[test]
    fn turb3d_smoke() {
        smoke(turb3d(1));
    }

    #[test]
    fn apsi_smoke() {
        smoke(apsi(1));
    }

    #[test]
    fn fpppp_smoke() {
        smoke(fpppp(1));
    }

    #[test]
    fn wave5_smoke() {
        smoke(wave5(1));
    }

    #[test]
    fn fp_fields_stay_finite_over_long_runs() {
        for spec in [swim(2), tomcatv(2), su2cor(2), mgrid(2), fpppp(2)] {
            let name = spec.name;
            let mut m = machine_for(&spec);
            m.run(2_000_000, usize::MAX, usize::MAX);
            let t = m.take_memory_trace();
            let finite = t
                .iter()
                .filter(|&v| {
                    let x = f32::from_bits(v as u32);
                    x.is_finite()
                })
                .count();
            let frac = finite as f64 / t.len().max(1) as f64;
            assert!(
                frac > 0.95,
                "{name}: only {frac:.2} of memory traffic finite"
            );
        }
    }

    #[test]
    fn swim_exponents_are_stable() {
        let spec = swim(3);
        let mut m = machine_for(&spec);
        m.run(500_000, usize::MAX, 20_000);
        let t = m.take_memory_trace();
        let mut exps: Vec<u32> = t.iter().map(|v| (v as u32) >> 23 & 0xFF).collect();
        exps.sort_unstable();
        exps.dedup();
        assert!(exps.len() <= 24, "saw {} exponent values", exps.len());
    }

    #[test]
    fn apsi_interleaves_exponent_bands() {
        let spec = apsi(3);
        let mut m = machine_for(&spec);
        m.run(500_000, usize::MAX, 20_000);
        let t = m.take_memory_trace();
        // Temperature (~2^8), pressure (~2^16), moisture (~2^-10) bands:
        // expect a wide exponent spread, unlike swim.
        let mut exps: Vec<u32> = t.iter().map(|v| (v as u32) >> 23 & 0xFF).collect();
        exps.sort_unstable();
        exps.dedup();
        assert!(exps.len() >= 6, "saw only {} exponent values", exps.len());
        let spread = exps.last().unwrap() - exps.first().unwrap();
        assert!(spread >= 20, "exponent bands too close: spread {spread}");
    }
}
