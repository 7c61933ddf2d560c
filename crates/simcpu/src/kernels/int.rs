//! The SPECint-like kernels: pointer chasing, hashing, table dispatch,
//! and small-integer array scans.

use crate::isa::{AluOp, Cond};
use crate::program::ProgramBuilder;

use super::{blank_memory, build, fill_pointer_cycle, fill_with, kernel_rng, va, KernelSpec};

/// `gcc`-like: pointer chasing over heap records with branchy hashing.
///
/// Compilers walk linked IR structures: loads dominated by pointers and
/// mixed-magnitude payloads, with data-dependent branches and occasional
/// writebacks. Unique-value population is large (pointers), but tags are
/// heavily reused.
pub fn gcc(seed: u64) -> KernelSpec {
    const NODES: usize = 0x1000; // 1024 records of 4 words
    const COUNT: usize = 1024;
    let mut rng = kernel_rng("gcc", seed);
    let mut memory = blank_memory();
    fill_pointer_cycle(&mut memory, 0x2F81, NODES, COUNT, 4, &mut rng);
    for i in 0..COUNT {
        let base = NODES + i * 4;
        // Payload: half small constants (tags/opcodes), half wide values.
        memory[base + 1] = if rng.gen_bool(0.5) {
            rng.below(64) as u32
        } else {
            rng.next_u32()
        };
        memory[base + 2] = rng.below(8) as u32; // flags
    }

    let mut b = ProgramBuilder::new();
    // r1: node ptr, r2: inner counter, r6: hash, r30: LCG state.
    b.li(1, va(0x2F81, NODES));
    b.li(30, 0x1234_5678);
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(2, 0);
    let inner = b.label();
    b.place(inner).unwrap();
    b.load(3, 1, 0); // next pointer
    b.load(4, 1, 1); // payload
    b.load(5, 1, 2); // flags
    b.alui(AluOp::Mul, 6, 6, 31);
    b.alu(AluOp::Add, 6, 6, 4); // hash = hash*31 + payload
    b.alui(AluOp::And, 7, 5, 1);
    let no_store = b.label();
    b.branch(Cond::Eq, 7, 0, no_store);
    b.store(6, 1, 3); // flagged nodes record the running hash
    b.place(no_store).unwrap();
    b.alu(AluOp::Add, 1, 3, 0); // follow pointer
    b.alui(AluOp::Add, 2, 2, 1);
    b.li(8, 512);
    b.branch(Cond::Lt, 2, 8, inner);
    // Outer pass: perturb one payload so the hash stream keeps moving.
    b.alui(AluOp::Mul, 30, 30, 1664525);
    b.alui(AluOp::Add, 30, 30, 1013904223);
    b.alui(AluOp::Srl, 9, 30, 22); // 10-bit node index
    b.alui(AluOp::Sll, 9, 9, 2);
    b.alui(AluOp::Add, 9, 9, va(0x2F81, NODES));
    b.store(30, 9, 1);
    b.jump(outer);
    KernelSpec {
        name: "gcc",
        program: build(b),
        memory,
    }
}

/// `compress`-like: byte-stream hashing against a code table.
///
/// LZW-style compressors stream bytes (values 0–255) and hit a hash
/// table: memory traffic is small values plus table entries with strong
/// short-term reuse.
pub fn compress(seed: u64) -> KernelSpec {
    const TEXT: usize = 0x1000; // 8 Ki "bytes" (one per word)
    const TEXT_LEN: usize = 0x2000;
    const TABLE: usize = 0x4000; // 4 Ki entries
    let mut rng = kernel_rng("compress", seed);
    let mut memory = blank_memory();
    // English-ish byte skew: a few characters dominate.
    fill_with(&mut memory, TEXT, TEXT_LEN, &mut rng, |r| {
        if r.gen_bool(0.6) {
            101 + r.below(16) as u32 // "common letters"
        } else {
            r.below(256) as u32
        }
    });

    let mut b = ProgramBuilder::new();
    // r1: text index, r4: hash, r10: hit counter.
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 0);
    let inner = b.label();
    b.place(inner).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x11A0, TEXT));
    b.load(3, 2, 0); // byte
    b.alui(AluOp::Mul, 4, 4, 13);
    b.alu(AluOp::Add, 4, 4, 3);
    b.alui(AluOp::And, 5, 4, 0xFFF);
    b.alui(AluOp::Add, 5, 5, va(0x6B3D, TABLE));
    b.load(6, 5, 0); // table probe
    let miss = b.label();
    b.branch(Cond::Ne, 6, 3, miss);
    b.alui(AluOp::Add, 10, 10, 1); // hit
    let done = b.label();
    b.jump(done);
    b.place(miss).unwrap();
    b.store(3, 5, 0); // install
    b.place(done).unwrap();
    b.alui(AluOp::Add, 1, 1, 1);
    b.li(7, TEXT_LEN as u32);
    b.branch(Cond::Lt, 1, 7, inner);
    b.jump(outer);
    KernelSpec {
        name: "compress",
        program: build(b),
        memory,
    }
}

/// `go`-like: board scanning with tiny stone values.
///
/// Game engines scan small-valued position arrays; the bus sees long
/// streams drawn from {0, 1, 2} and small neighbor sums — extreme value
/// locality.
pub fn go(seed: u64) -> KernelSpec {
    const BOARD: usize = 0x1000;
    const SIZE: usize = 1024;
    const INFLUENCE: usize = 0x2000;
    let mut rng = kernel_rng("go", seed);
    let mut memory = blank_memory();
    fill_with(&mut memory, BOARD, SIZE, &mut rng, |r| r.below(3) as u32);

    let mut b = ProgramBuilder::new();
    // r1: position, r30: LCG.
    b.li(30, 0xBEEF);
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 1);
    let inner = b.label();
    b.place(inner).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x10AB, BOARD));
    b.load(3, 2, -1);
    b.load(4, 2, 0);
    b.load(5, 2, 1);
    b.alu(AluOp::Add, 6, 3, 5); // neighbor sum
    b.alu(AluOp::Add, 6, 6, 4);
    b.alui(AluOp::Add, 7, 1, va(0x7F3C, INFLUENCE));
    b.store(6, 7, 0);
    b.alui(AluOp::Add, 1, 1, 1);
    b.li(8, (SIZE - 1) as u32);
    b.branch(Cond::Lt, 1, 8, inner);
    // Play a "move": flip one random point between empty/black/white.
    b.alui(AluOp::Mul, 30, 30, 1664525);
    b.alui(AluOp::Add, 30, 30, 1013904223);
    b.alui(AluOp::Srl, 9, 30, 20);
    b.alui(AluOp::And, 9, 9, (SIZE - 1) as u32);
    b.alui(AluOp::Add, 9, 9, va(0x10AB, BOARD));
    b.alui(AluOp::Srl, 10, 30, 30); // 0..3
    b.store(10, 9, 0);
    b.jump(outer);
    KernelSpec {
        name: "go",
        program: build(b),
        memory,
    }
}

/// `ijpeg`-like: 8-wide block transforms of pixel data.
///
/// Image codecs stream 8-pixel groups through coefficient
/// multiply-accumulate: strided loads of byte-range values, products of
/// moderate magnitude, strided stores.
pub fn ijpeg(seed: u64) -> KernelSpec {
    const PIXELS: usize = 0x1000;
    const NPIX: usize = 0x2000;
    const COEFF: usize = 0x800;
    const OUT: usize = 0x4000;
    let mut rng = kernel_rng("ijpeg", seed);
    let mut memory = blank_memory();
    // Smooth image: neighboring pixels correlate.
    let mut level = 128i32;
    fill_with(&mut memory, PIXELS, NPIX, &mut rng, |r| {
        level += -9 + r.below(19) as i32;
        level = level.clamp(0, 255);
        level as u32
    });
    for (i, c) in [3u32, 5, 7, 9, 11, 13, 15, 17].iter().enumerate() {
        memory[COEFF + i] = *c;
    }

    let mut b = ProgramBuilder::new();
    // r1: block base.
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 0);
    let blocks = b.label();
    b.place(blocks).unwrap();
    b.li(10, 0); // acc
    b.alui(AluOp::Add, 2, 1, va(0x402A, PIXELS));
    b.li(3, va(0x0D50, COEFF));
    for k in 0..8 {
        b.load(4, 2, k); // pixel
        b.load(5, 3, k); // coefficient
        b.alu(AluOp::Mul, 6, 4, 5);
        b.alu(AluOp::Add, 10, 10, 6);
    }
    b.alui(AluOp::Srl, 10, 10, 3);
    b.alui(AluOp::Srl, 7, 1, 3);
    b.alui(AluOp::Add, 7, 7, va(0x5E11, OUT));
    b.store(10, 7, 0);
    b.alui(AluOp::Add, 1, 1, 8);
    b.li(8, NPIX as u32);
    b.branch(Cond::Lt, 1, 8, blocks);
    b.jump(outer);
    KernelSpec {
        name: "ijpeg",
        program: build(b),
        memory,
    }
}

/// `li`-like: tagged cons-cell interpretation.
///
/// A Lisp heap is records of (tag, car, cdr): the tag stream reuses a
/// handful of tiny values, cdr pointers chase through the heap, and the
/// accumulator sees small integers — the strongest value locality of the
/// integer suite.
pub fn li(seed: u64) -> KernelSpec {
    const CELLS: usize = 0x1000; // 1024 cells of 4 words (tag, car, cdr, pad)
    const COUNT: usize = 1024;
    let mut rng = kernel_rng("li", seed);
    let mut memory = blank_memory();
    fill_pointer_cycle(&mut memory, 0x2BAD, CELLS, COUNT, 4, &mut rng);
    // fill_pointer_cycle put the next pointer at word 0; move the cycle
    // to the cdr slot (word 2) and set tags/cars.
    for i in 0..COUNT {
        let base = CELLS + i * 4;
        memory[base + 2] = memory[base];
        memory[base] = rng.below(5) as u32; // tag
        memory[base + 1] = rng.below(100) as u32; // small fixnum car
    }

    let mut b = ProgramBuilder::new();
    // r1: cell ptr, r10: accumulator.
    b.li(1, va(0x2BAD, CELLS));
    let eval = b.label();
    b.place(eval).unwrap();
    b.load(2, 1, 0); // tag
    b.load(3, 1, 2); // cdr
    b.li(4, 0);
    let not_fixnum = b.label();
    b.branch(Cond::Ne, 2, 4, not_fixnum);
    b.load(5, 1, 1); // car
    b.alu(AluOp::Add, 10, 10, 5);
    b.place(not_fixnum).unwrap();
    b.li(4, 3);
    let not_builtin = b.label();
    b.branch(Cond::Ne, 2, 4, not_builtin);
    b.alui(AluOp::And, 10, 10, 0xFFFF); // builtin "truncate"
    b.store(10, 1, 1);
    b.place(not_builtin).unwrap();
    b.alu(AluOp::Add, 1, 3, 0); // follow cdr
    b.jump(eval);
    KernelSpec {
        name: "li",
        program: build(b),
        memory,
    }
}

/// `m88ksim`-like: instruction fetch/decode/dispatch simulation.
///
/// A CPU simulator's own traffic: wide random "instruction" words get
/// sliced into small fields (opcodes, register numbers) and a simulated
/// register file sees register-sized values with heavy reuse.
pub fn m88ksim(seed: u64) -> KernelSpec {
    const IMEM: usize = 0x1000;
    const ILEN: usize = 0x2000;
    const SIMREGS: usize = 0x100; // 32 simulated registers
    let mut rng = kernel_rng("m88ksim", seed);
    let mut memory = blank_memory();
    fill_with(&mut memory, IMEM, ILEN, &mut rng, |r| r.next_u32());
    fill_with(&mut memory, SIMREGS, 32, &mut rng, |r| {
        r.below(0x1_0000) as u32
    });

    let mut b = ProgramBuilder::new();
    // r1: simulated pc.
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 0);
    let fetch = b.label();
    b.place(fetch).unwrap();
    b.alui(AluOp::Add, 2, 1, va(0x44F0, IMEM));
    b.load(3, 2, 0); // instruction word
    b.alui(AluOp::Srl, 4, 3, 26); // opcode
    b.alui(AluOp::Srl, 5, 3, 21);
    b.alui(AluOp::And, 5, 5, 31); // rs
    b.alui(AluOp::Srl, 6, 3, 16);
    b.alui(AluOp::And, 6, 6, 31); // rt
    b.alui(AluOp::And, 7, 3, 0xFFFF); // imm16
    b.alui(AluOp::Add, 8, 5, va(0x7FFF, SIMREGS));
    b.load(9, 8, 0); // simregs[rs]
    b.alui(AluOp::And, 11, 4, 1);
    let alt = b.label();
    b.branch(Cond::Ne, 11, 0, alt);
    b.alu(AluOp::Add, 12, 9, 7);
    let writeback = b.label();
    b.jump(writeback);
    b.place(alt).unwrap();
    b.alu(AluOp::Xor, 12, 9, 7);
    b.place(writeback).unwrap();
    b.alui(AluOp::Add, 13, 6, va(0x7FFF, SIMREGS));
    b.store(12, 13, 0);
    b.alui(AluOp::Add, 1, 1, 1);
    b.li(14, ILEN as u32);
    b.branch(Cond::Lt, 1, 14, fetch);
    b.jump(outer);
    KernelSpec {
        name: "m88ksim",
        program: build(b),
        memory,
    }
}

/// `perl`-like: string hashing and bucket probing.
///
/// Interpreters hash short strings into bucket tables: character-range
/// loads, multiplicative hash values, and bucket-pointer reuse.
pub fn perl(seed: u64) -> KernelSpec {
    const STRINGS: usize = 0x1000; // 512 strings x 16 chars
    const NSTR: usize = 512;
    const BUCKETS: usize = 0x4000; // 1024 buckets x 2 words (hash, count)
    let mut rng = kernel_rng("perl", seed);
    let mut memory = blank_memory();
    fill_with(&mut memory, STRINGS, NSTR * 16, &mut rng, |r| {
        97 + r.below(26) as u32
    });

    let mut b = ProgramBuilder::new();
    // r1: string index, r2: char cursor, r4: hash.
    let outer = b.label();
    b.place(outer).unwrap();
    b.li(1, 0);
    let per_string = b.label();
    b.place(per_string).unwrap();
    b.alui(AluOp::Sll, 2, 1, 4);
    b.alui(AluOp::Add, 2, 2, va(0x31C0, STRINGS));
    b.li(4, 5381);
    for k in 0..16 {
        b.load(5, 2, k);
        b.alui(AluOp::Mul, 4, 4, 33);
        b.alu(AluOp::Xor, 4, 4, 5);
    }
    b.alui(AluOp::Srl, 6, 4, 6);
    b.alui(AluOp::And, 6, 6, 0x3FF);
    b.alui(AluOp::Sll, 6, 6, 1);
    b.alui(AluOp::Add, 6, 6, va(0x6DB6, BUCKETS));
    b.load(7, 6, 0); // stored hash
    let insert = b.label();
    b.branch(Cond::Ne, 7, 4, insert);
    b.load(8, 6, 1); // bump count on match
    b.alui(AluOp::Add, 8, 8, 1);
    b.store(8, 6, 1);
    let next = b.label();
    b.jump(next);
    b.place(insert).unwrap();
    b.store(4, 6, 0);
    b.place(next).unwrap();
    b.alui(AluOp::Add, 1, 1, 1);
    b.li(9, NSTR as u32);
    b.branch(Cond::Lt, 1, 9, per_string);
    b.jump(outer);
    KernelSpec {
        name: "perl",
        program: build(b),
        memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};

    fn smoke(spec: KernelSpec) {
        let mut m = Machine::new(spec.program, MachineConfig::default());
        m.load_memory(0, &spec.memory);
        let summary = m.run(200_000, 5_000, 500);
        assert!(
            m.take_register_trace().len() >= 5_000,
            "{}: too few register values ({:?})",
            spec.name,
            summary.stop
        );
        assert!(
            m.take_memory_trace().len() >= 500,
            "{}: too few memory values ({:?})",
            spec.name,
            summary.stop
        );
        assert!(!m.is_halted(), "{}: kernels must loop forever", spec.name);
    }

    #[test]
    fn gcc_smoke() {
        smoke(gcc(1));
    }

    #[test]
    fn compress_smoke() {
        smoke(compress(1));
    }

    #[test]
    fn go_smoke() {
        smoke(go(1));
    }

    #[test]
    fn ijpeg_smoke() {
        smoke(ijpeg(1));
    }

    #[test]
    fn li_smoke() {
        smoke(li(1));
    }

    #[test]
    fn m88ksim_smoke() {
        smoke(m88ksim(1));
    }

    #[test]
    fn perl_smoke() {
        smoke(perl(1));
    }

    #[test]
    fn go_board_values_stay_small_on_the_memory_bus() {
        let spec = go(3);
        let mut m = Machine::new(spec.program, MachineConfig::default());
        m.load_memory(0, &spec.memory);
        m.run(100_000, 0, 2_000);
        let t = m.take_memory_trace();
        assert!(t.iter().all(|v| v < 16), "go traffic must be tiny values");
    }

    #[test]
    fn li_tags_dominate_register_bus() {
        use bustrace::stats::ValueCensus;
        let spec = li(3);
        let mut m = Machine::new(spec.program, MachineConfig::default());
        m.load_memory(0, &spec.memory);
        m.run(400_000, 20_000, 0);
        let census = ValueCensus::of(&m.take_register_trace());
        // Hot tags and small fixnums take a solid share of the port
        // traffic even though cell pointers make up the long tail.
        assert!(
            census.coverage(16) > 0.25,
            "coverage {}",
            census.coverage(16)
        );
        assert!(census.unique_count() > 500, "pointer tail missing");
    }
}
