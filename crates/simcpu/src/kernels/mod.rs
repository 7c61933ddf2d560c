//! SPEC95-like synthetic kernels (the paper's workload suite).
//!
//! Each kernel is a real program for the simulated machine, written to
//! reproduce the *bus-value statistics* of its namesake's class rather
//! than its computation: pointer-chasing and branchy small-integer
//! traffic for the SPECint programs, stencil/stride/butterfly
//! floating-point traffic for the SPECfp programs. All kernels run
//! forever (the machine stops them when enough bus values are
//! collected) and perturb their data each outer pass so the traffic
//! never degenerates into a fixed point.
//!
//! Memory layout conventions: data regions live between word address
//! `0x0100` and the top of the 64 Ki-word memory; region constants are
//! private to each kernel.

mod fp;
mod int;

pub use fp::*;
pub use int::*;

use bustrace::rng::SmallRng;

use crate::program::Program;

/// Size of the machine memory the kernels are laid out for, in words.
pub const MEMORY_WORDS: usize = 1 << 16;

/// A kernel: a program plus its initial memory image.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// The benchmark name this kernel stands in for.
    pub name: &'static str,
    /// The program (an infinite loop).
    pub program: Program,
    /// Initial memory image of [`MEMORY_WORDS`] words.
    pub memory: Vec<u32>,
}

/// Creates the deterministic RNG for a kernel's data, mixing the kernel
/// name into the seed so sibling kernels see uncorrelated data.
pub(crate) fn kernel_rng(name: &str, seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ bustrace::fnv::fnv1a(name.as_bytes()))
}

/// A zeroed memory image.
pub(crate) fn blank_memory() -> Vec<u32> {
    vec![0; MEMORY_WORDS]
}

/// Fills `mem[start..start+len]` from a generator.
pub(crate) fn fill_with(
    mem: &mut [u32],
    start: usize,
    len: usize,
    rng: &mut SmallRng,
    mut f: impl FnMut(&mut SmallRng) -> u32,
) {
    for w in &mut mem[start..start + len] {
        *w = f(rng);
    }
}

/// Fills a region with f32 bit patterns drawn uniformly from
/// `lo..hi`.
pub(crate) fn fill_f32(
    mem: &mut [u32],
    start: usize,
    len: usize,
    rng: &mut SmallRng,
    lo: f32,
    hi: f32,
) {
    fill_with(mem, start, len, rng, |r| {
        (lo + (hi - lo) * r.next_f32()).to_bits()
    });
}

/// Forms a virtual word address: a region-distinct high half over a
/// low-half offset.
///
/// Kernel data structures live in the low 64 Ki words of machine memory
/// (effective addresses wrap), but the *pointer values* circulating
/// through registers and buses carry realistic high bits — different
/// regions get different high halves, as a real process's heap, stack
/// and globals do. This is what makes interleaved address traffic
/// expensive on an un-encoded bus, matching the paper's traces.
pub(crate) const fn va(tag: u32, offset: usize) -> u32 {
    (tag << 16) | offset as u32
}

/// Fills a region with a random cyclic permutation of pointers to
/// `entry_words`-sized records within the region itself — the classic
/// pointer-chasing working set. Entry `i`'s first word holds the
/// *virtual* address (high half `tag`) of the next record; the cycle
/// visits every record.
pub(crate) fn fill_pointer_cycle(
    mem: &mut [u32],
    tag: u32,
    start: usize,
    entries: usize,
    entry_words: usize,
    rng: &mut SmallRng,
) {
    let mut order: Vec<usize> = (0..entries).collect();
    rng.shuffle(&mut order);
    for k in 0..entries {
        let from = start + order[k] * entry_words;
        let to = start + order[(k + 1) % entries] * entry_words;
        mem[from] = va(tag, to);
    }
}

/// Convenience: builds a program, panicking on kernel-authoring errors
/// (kernels are static code; errors here are bugs, not user input).
pub(crate) fn build(b: crate::program::ProgramBuilder) -> Program {
    b.build().expect("kernel program must assemble")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_rngs_differ_by_name() {
        let mut a = kernel_rng("gcc", 1);
        let mut b = kernel_rng("perl", 1);
        let xs: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn pointer_cycle_visits_every_entry() {
        let mut mem = vec![0u32; 4096];
        let mut rng = kernel_rng("t", 7);
        fill_pointer_cycle(&mut mem, 0x2BAD, 1024, 64, 4, &mut rng);
        let mut at = 1024usize;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            assert!(seen.insert(at), "cycle revisited {at} early");
            let ptr = mem[at];
            assert_eq!(ptr >> 16, 0x2BAD, "pointers carry the virtual tag");
            at = (ptr & 0xFFFF) as usize;
            assert!((1024..1024 + 64 * 4).contains(&at));
            assert_eq!((at - 1024) % 4, 0, "pointers are record-aligned");
        }
        assert_eq!(at, 1024, "cycle closes");
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn va_combines_tag_and_offset() {
        assert_eq!(va(0x10AB, 0x1234), 0x10AB_1234);
    }

    #[test]
    fn fill_f32_stays_in_range() {
        let mut mem = vec![0u32; 128];
        let mut rng = kernel_rng("f", 3);
        fill_f32(&mut mem, 0, 128, &mut rng, 0.5, 2.0);
        for &w in &mem[..128] {
            let x = f32::from_bits(w);
            assert!((0.5..2.0).contains(&x));
        }
    }
}
