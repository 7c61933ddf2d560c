//! The benchmark registry: one entry per SPEC95-like kernel, with
//! one-call trace extraction.

use std::fmt;

use bustrace::Trace;

use crate::kernels::{self, KernelSpec};
use crate::machine::{Machine, MachineConfig};
use crate::ooo::{OooConfig, OooMachine};

/// Which bus tap to collect (paper Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusKind {
    /// The register-file output port.
    Register,
    /// The data bus to caches/memory.
    Memory,
    /// The address bus to caches/memory (effective virtual addresses,
    /// issue order) — the bus class most of the related work targets.
    Address,
}

impl fmt::Display for BusKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusKind::Register => f.write_str("register"),
            BusKind::Memory => f.write_str("memory"),
            BusKind::Address => f.write_str("address"),
        }
    }
}

/// The SPEC95-like benchmark suite evaluated throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are benchmark names
pub enum Benchmark {
    Gcc,
    Compress,
    Go,
    Ijpeg,
    Li,
    M88ksim,
    Perl,
    Swim,
    Tomcatv,
    Su2cor,
    Hydro2d,
    Mgrid,
    Applu,
    Turb3d,
    Apsi,
    Fpppp,
    Wave5,
}

impl Benchmark {
    /// Every benchmark, integer suite first.
    pub const ALL: [Benchmark; 17] = [
        Benchmark::Gcc,
        Benchmark::Compress,
        Benchmark::Go,
        Benchmark::Ijpeg,
        Benchmark::Li,
        Benchmark::M88ksim,
        Benchmark::Perl,
        Benchmark::Swim,
        Benchmark::Tomcatv,
        Benchmark::Su2cor,
        Benchmark::Hydro2d,
        Benchmark::Mgrid,
        Benchmark::Applu,
        Benchmark::Turb3d,
        Benchmark::Apsi,
        Benchmark::Fpppp,
        Benchmark::Wave5,
    ];

    /// The SPECint-like kernels.
    pub fn spec_int() -> Vec<Benchmark> {
        Benchmark::ALL
            .iter()
            .copied()
            .filter(|b| !b.is_fp())
            .collect()
    }

    /// Whether this is a floating-point benchmark.
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            Benchmark::Swim
                | Benchmark::Tomcatv
                | Benchmark::Su2cor
                | Benchmark::Hydro2d
                | Benchmark::Mgrid
                | Benchmark::Applu
                | Benchmark::Turb3d
                | Benchmark::Apsi
                | Benchmark::Fpppp
                | Benchmark::Wave5
        )
    }

    /// The benchmark's display name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Gcc => "gcc",
            Benchmark::Compress => "compress",
            Benchmark::Go => "go",
            Benchmark::Ijpeg => "ijpeg",
            Benchmark::Li => "li",
            Benchmark::M88ksim => "m88ksim",
            Benchmark::Perl => "perl",
            Benchmark::Swim => "swim",
            Benchmark::Tomcatv => "tomcatv",
            Benchmark::Su2cor => "su2cor",
            Benchmark::Hydro2d => "hydro2d",
            Benchmark::Mgrid => "mgrid",
            Benchmark::Applu => "applu",
            Benchmark::Turb3d => "turb3d",
            Benchmark::Apsi => "apsi",
            Benchmark::Fpppp => "fpppp",
            Benchmark::Wave5 => "wave5",
        }
    }

    /// Looks a benchmark up by name.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// Builds the kernel (program + memory image) for a data seed.
    pub fn kernel(self, seed: u64) -> KernelSpec {
        match self {
            Benchmark::Gcc => kernels::gcc(seed),
            Benchmark::Compress => kernels::compress(seed),
            Benchmark::Go => kernels::go(seed),
            Benchmark::Ijpeg => kernels::ijpeg(seed),
            Benchmark::Li => kernels::li(seed),
            Benchmark::M88ksim => kernels::m88ksim(seed),
            Benchmark::Perl => kernels::perl(seed),
            Benchmark::Swim => kernels::swim(seed),
            Benchmark::Tomcatv => kernels::tomcatv(seed),
            Benchmark::Su2cor => kernels::su2cor(seed),
            Benchmark::Hydro2d => kernels::hydro2d(seed),
            Benchmark::Mgrid => kernels::mgrid(seed),
            Benchmark::Applu => kernels::applu(seed),
            Benchmark::Turb3d => kernels::turb3d(seed),
            Benchmark::Apsi => kernels::apsi(seed),
            Benchmark::Fpppp => kernels::fpppp(seed),
            Benchmark::Wave5 => kernels::wave5(seed),
        }
    }

    /// Runs the kernel until `values` words have been observed on the
    /// requested bus, returning exactly that many (deterministic per
    /// seed). Uses the default single-level machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails to produce enough traffic within a
    /// generous instruction budget — which would be a kernel bug.
    pub fn trace(self, bus: BusKind, values: usize, seed: u64) -> Trace {
        self.trace_with(bus, values, seed, MachineConfig::default())
    }

    /// Like [`trace`](Self::trace), but timed by the out-of-order
    /// engine: register-port traffic in issue order, memory traffic in
    /// completion order, with dispatch-width clustering and
    /// branch-bubble gaps.
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails to produce enough traffic within a
    /// generous instruction budget — which would be a kernel bug.
    pub fn trace_ooo(self, bus: BusKind, values: usize, seed: u64, config: OooConfig) -> Trace {
        let _span = busprobe::span("simcpu.bench.trace_ooo");
        let spec = self.kernel(seed);
        let mut machine = OooMachine::new(spec.program, config);
        machine.load_memory(0, &spec.memory);
        let (reg_target, mem_target) = match bus {
            BusKind::Register => (values, 0),
            BusKind::Memory | BusKind::Address => (0, values),
        };
        let budget = (values as u64).saturating_mul(200).max(100_000);
        machine.run(budget, reg_target, mem_target);
        let trace = match bus {
            BusKind::Register => machine.take_register_trace(),
            BusKind::Memory => machine.take_memory_trace(),
            BusKind::Address => machine.take_address_trace(),
        };
        assert!(
            trace.len() >= values,
            "{} produced only {} of {values} {bus} values (ooo)",
            self.name(),
            trace.len()
        );
        trace.slice(0, values)
    }

    /// Like [`trace`](Self::trace), with an explicit machine
    /// configuration (e.g. [`MachineConfig::with_l2`] for a two-level
    /// memory re-timing).
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails to produce enough traffic within a
    /// generous instruction budget — which would be a kernel bug.
    pub fn trace_with(
        self,
        bus: BusKind,
        values: usize,
        seed: u64,
        config: MachineConfig,
    ) -> Trace {
        let _span = busprobe::span("simcpu.bench.trace");
        let spec = self.kernel(seed);
        let mut machine = Machine::new(spec.program, config);
        machine.load_memory(0, &spec.memory);
        // The address bus emits exactly one value per memory event, so
        // it shares the memory-bus collection target.
        let (reg_target, mem_target) = match bus {
            BusKind::Register => (values, 0),
            BusKind::Memory | BusKind::Address => (0, values),
        };
        // Every kernel touches memory at least once per ~40 instructions,
        // and reads registers nearly every instruction.
        let budget = (values as u64).saturating_mul(200).max(100_000);
        machine.run(budget, reg_target, mem_target);
        let trace = match bus {
            BusKind::Register => machine.take_register_trace(),
            BusKind::Memory => machine.take_memory_trace(),
            BusKind::Address => machine.take_address_trace(),
        };
        assert!(
            trace.len() >= values,
            "{} produced only {} of {values} {bus} values",
            self.name(),
            trace.len()
        );
        trace.slice(0, values)
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_partition_the_benchmarks() {
        let int = Benchmark::spec_int();
        assert_eq!(int.len(), 7);
        assert!(int.iter().all(|b| !b.is_fp()));
        let fp = Benchmark::ALL.iter().filter(|b| b.is_fp()).count();
        assert_eq!(fp, 10);
        assert_eq!(int.len() + fp, Benchmark::ALL.len());
    }

    #[test]
    fn names_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("nonesuch"), None);
    }

    #[test]
    fn traces_are_deterministic_and_exact_length() {
        let a = Benchmark::Compress.trace(BusKind::Register, 5_000, 42);
        let b = Benchmark::Compress.trace(BusKind::Register, 5_000, 42);
        let c = Benchmark::Compress.trace(BusKind::Register, 5_000, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn every_benchmark_produces_all_buses() {
        for b in Benchmark::ALL {
            let reg = b.trace(BusKind::Register, 2_000, 7);
            let mem = b.trace(BusKind::Memory, 500, 7);
            let addr = b.trace(BusKind::Address, 500, 7);
            assert_eq!(reg.len(), 2_000, "{b}");
            assert_eq!(mem.len(), 500, "{b}");
            assert_eq!(addr.len(), 500, "{b}");
        }
    }

    #[test]
    fn address_traces_carry_region_tags() {
        // The kernels' virtual layout puts region tags in the high
        // halves; the address bus must see them.
        let t = Benchmark::Swim.trace(BusKind::Address, 2_000, 7);
        let tagged = t.iter().filter(|&v| v >> 16 != 0).count();
        assert!(tagged > 1_000, "only {tagged} of 2000 addresses tagged");
    }

    #[test]
    fn l2_config_changes_timing_but_not_values() {
        use bustrace::stats::ValueCensus;
        let flat = Benchmark::Gcc.trace(BusKind::Memory, 2_000, 7);
        let deep =
            Benchmark::Gcc.trace_with(BusKind::Memory, 2_000, 7, crate::MachineConfig::with_l2());
        // Same multiset of values (timing only reorders them)...
        let a = ValueCensus::of(&flat);
        let b = ValueCensus::of(&deep);
        assert_eq!(a.counts(), b.counts());
        // ...but the deeper hierarchy produces a different interleaving.
        assert_ne!(flat, deep);
    }

    #[test]
    fn traces_are_not_degenerate() {
        use bustrace::stats::{repeat_fraction, ValueCensus};
        for b in Benchmark::ALL {
            let t = b.trace(BusKind::Register, 20_000, 11);
            let census = ValueCensus::of(&t);
            assert!(
                census.unique_count() > 8,
                "{b}: only {} unique values",
                census.unique_count()
            );
            let rf = repeat_fraction(&t);
            assert!(rf < 0.98, "{b}: register bus is {rf:.2} repeats");
        }
    }
}
