//! The functional simulator with bus timing taps.
//!
//! Execution is functional (one instruction per cycle, values computed
//! immediately) with SimpleScalar-style *bus timing generators* layered
//! on top (paper Section 4.1):
//!
//! * every instruction that reads a register drives the read value onto
//!   the **register bus** tap;
//! * every load and store produces a datum on the **memory bus** tap at
//!   `issue_cycle + cache_latency`, so misses overtake and interleave
//!   with later hits exactly as the paper's scheduler queue re-timing
//!   does.
//!
//! Idle bus cycles (the bus holding its previous value) contribute no
//! transitions, so the taps record *driven values only* — the τ/κ counts
//! downstream are identical to a cycle-by-cycle recording with holds.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bustrace::{Trace, Width};

use crate::cache::{Cache, CacheConfig, CacheHierarchy};
use crate::exec::{self, InstrClass};
use crate::isa::NUM_REGS;
use crate::program::Program;

/// Machine construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Data memory size in 32-bit words (power of two; addresses wrap).
    pub memory_words: usize,
    /// L1 data cache geometry.
    pub cache: CacheConfig,
    /// Optional L2 cache behind the L1. With `None`, L1 misses cost the
    /// L1 config's `miss_latency` directly (the default, matching the
    /// paper's single-level re-timing).
    pub l2: Option<CacheConfig>,
    /// Latency of a miss in every cache level, in cycles (only used
    /// when an L2 is configured).
    pub memory_latency: u64,
}

impl MachineConfig {
    /// A two-level hierarchy: the default L1 backed by a 256 KiB-ish L2
    /// and a 120-cycle memory, for wider re-timing spread on the memory
    /// bus.
    pub fn with_l2() -> Self {
        MachineConfig {
            l2: Some(CacheConfig {
                sets: 1024,
                ways: 4,
                line_words: 16,
                hit_latency: 12,
                miss_latency: 120,
            }),
            memory_latency: 120,
            ..MachineConfig::default()
        }
    }
}

impl Default for MachineConfig {
    /// 64 Ki words (256 KiB) of memory and the default single-level
    /// cache.
    fn default() -> Self {
        MachineConfig {
            memory_words: 1 << 16,
            cache: CacheConfig::default(),
            l2: None,
            memory_latency: CacheConfig::default().miss_latency,
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `halt`.
    Halted,
    /// Both bus-value collection targets were met.
    TargetsMet,
    /// The instruction budget ran out first.
    InstructionLimit,
}

/// Executed-instruction class counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstrMix {
    /// Integer ALU operations (register and immediate forms, `li`).
    pub alu: u64,
    /// Floating-point operations.
    pub fpu: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Conditional branches (taken or not) and jumps.
    pub branches: u64,
    /// Conditional branches that were taken.
    pub taken: u64,
}

impl InstrMix {
    /// Total classified instructions.
    pub fn total(&self) -> u64 {
        self.alu + self.fpu + self.loads + self.stores + self.branches
    }

    /// Fraction of instructions touching memory.
    pub fn memory_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / t as f64
        }
    }
}

/// Statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles elapsed (equal to instructions in this functional model).
    pub cycles: u64,
    /// Why execution stopped.
    pub stop: StopReason,
    /// Data-cache hit rate over the run.
    pub cache_hit_rate: f64,
    /// Instruction-class counts over the whole machine lifetime.
    pub mix: InstrMix,
}

/// The miniature machine.
///
/// # Example
///
/// ```
/// use simcpu::{AluOp, Machine, MachineConfig, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// b.li(1, 21);
/// b.alu(AluOp::Add, 2, 1, 1);
/// b.store(2, 0, 100);
/// b.halt();
/// let mut m = Machine::new(b.build()?, MachineConfig::default());
/// m.run(1_000, usize::MAX, usize::MAX);
/// assert_eq!(m.memory()[100], 42);
/// # Ok::<(), simcpu::ProgramError>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    program: Program,
    config: MachineConfig,
    regs: [u32; NUM_REGS],
    pc: usize,
    cycle: u64,
    memory: Vec<u32>,
    cache: CacheHierarchy,
    reg_bus: Vec<u32>,
    /// In-flight memory data, ordered by (ready cycle, issue sequence).
    pending: BinaryHeap<Reverse<(u64, u64, u32)>>,
    mem_seq: u64,
    mem_bus: Vec<u32>,
    /// Effective (virtual) addresses of loads and stores, at issue order
    /// — the memory *address* bus.
    addr_bus: Vec<u32>,
    mix: InstrMix,
    halted: bool,
}

impl Machine {
    /// Creates a machine with zeroed registers and memory.
    ///
    /// # Panics
    ///
    /// Panics if `memory_words` is not a power of two.
    pub fn new(program: Program, config: MachineConfig) -> Self {
        assert!(
            config.memory_words.is_power_of_two(),
            "memory size must be a power of two"
        );
        Machine {
            program,
            config,
            regs: [0; NUM_REGS],
            pc: 0,
            cycle: 0,
            memory: vec![0; config.memory_words],
            cache: CacheHierarchy::new(config.cache, config.l2, config.memory_latency),
            reg_bus: Vec::new(),
            pending: BinaryHeap::new(),
            mem_seq: 0,
            mem_bus: Vec::new(),
            addr_bus: Vec::new(),
            mix: InstrMix::default(),
            halted: false,
        }
    }

    /// Data memory contents.
    pub fn memory(&self) -> &[u32] {
        &self.memory
    }

    /// Overwrites memory starting at `addr` (word address, wrapping).
    pub fn load_memory(&mut self, addr: usize, data: &[u32]) {
        let mask = self.config.memory_words - 1;
        for (i, &w) in data.iter().enumerate() {
            self.memory[(addr + i) & mask] = w;
        }
    }

    /// Current register values.
    pub fn registers(&self) -> &[u32; NUM_REGS] {
        &self.regs
    }

    /// Whether the machine has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// L1 data-cache statistics.
    pub fn cache(&self) -> &Cache {
        self.cache.l1()
    }

    /// Retires every pending memory event whose ready time is in the
    /// past relative to `horizon` (all future events are ready strictly
    /// later, so ordering is final).
    fn drain_ready(&mut self, horizon: u64) {
        while let Some(&Reverse((ready, _, value))) = self.pending.peek() {
            if ready <= horizon {
                self.mem_bus.push(value);
                self.pending.pop();
            } else {
                break;
            }
        }
    }

    /// Executes one instruction. Returns `false` once halted.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some(&instr) = self.program.instrs().get(self.pc) else {
            self.halted = true;
            return false;
        };
        let mask = self.config.memory_words - 1;
        let out = exec::execute(instr, self.pc, &mut self.regs, &mut self.memory, mask);
        if out.class == InstrClass::Halt {
            self.halted = true;
            return false;
        }
        // Register-bus tap: every operand read drives one value through
        // the register file's output ports.
        for read in out.reads.into_iter().flatten() {
            self.reg_bus.push(read.1);
        }
        self.cycle += 1;
        match out.class {
            InstrClass::Alu => self.mix.alu += 1,
            InstrClass::Fpu => self.mix.fpu += 1,
            InstrClass::Load => self.mix.loads += 1,
            InstrClass::Store => self.mix.stores += 1,
            InstrClass::Branch => {
                self.mix.branches += 1;
                if out.taken {
                    self.mix.taken += 1;
                }
            }
            InstrClass::Halt => unreachable!("handled above"),
        }
        if let Some(m) = out.mem {
            self.addr_bus.push(m.vaddr);
            let addr = (m.vaddr as usize) & mask;
            let latency = if m.is_store {
                self.cache
                    .access(addr as u64)
                    .min(self.config.cache.hit_latency)
            } else {
                self.cache.access(addr as u64)
            };
            self.pending
                .push(Reverse((self.cycle + latency, self.mem_seq, m.value)));
            self.mem_seq += 1;
        }
        self.drain_ready(self.cycle);
        self.pc = out.next_pc;
        true
    }

    /// Runs until `halt`, the instruction budget is exhausted, or both
    /// bus taps have collected at least the requested number of values.
    pub fn run(
        &mut self,
        max_instructions: u64,
        reg_values: usize,
        mem_values: usize,
    ) -> RunSummary {
        let _span = busprobe::span("simcpu.machine.run");
        // Probe bookkeeping happens as before/after deltas so the
        // per-instruction loop carries zero instrumentation cost.
        let probe_base = busprobe::enabled().then(|| self.probe_state());
        let start = self.cycle;
        let mut executed = 0u64;
        let stop = loop {
            if self.reg_bus.len() >= reg_values
                && self.mem_bus.len() + self.pending.len() >= mem_values
            {
                break StopReason::TargetsMet;
            }
            if executed >= max_instructions {
                break StopReason::InstructionLimit;
            }
            if !self.step() {
                break StopReason::Halted;
            }
            executed += 1;
        };
        if let Some(base) = probe_base {
            self.record_probe_deltas(base);
        }
        RunSummary {
            instructions: executed,
            cycles: self.cycle - start,
            stop,
            cache_hit_rate: self.cache.l1().hit_rate(),
            mix: self.mix,
        }
    }

    /// Counter values captured before a run, for delta accounting.
    fn probe_state(&self) -> [u64; 8] {
        let (l2h, l2m) = self
            .cache
            .l2()
            .map_or((0, 0), |l2| (l2.hits(), l2.misses()));
        [
            self.mix.total(),
            self.cache.l1().hits(),
            self.cache.l1().misses(),
            l2h,
            l2m,
            self.reg_bus.len() as u64,
            self.mem_seq,
            self.addr_bus.len() as u64,
        ]
    }

    /// Publishes the difference between now and `base` to the registry.
    fn record_probe_deltas(&self, base: [u64; 8]) {
        let now = self.probe_state();
        let d = |i: usize| now[i] - base[i];
        busprobe::counter("simcpu.machine.instructions").add(d(0));
        busprobe::counter("simcpu.cache.l1.hits").add(d(1));
        busprobe::counter("simcpu.cache.l1.misses").add(d(2));
        if self.cache.l2().is_some() {
            busprobe::counter("simcpu.cache.l2.hits").add(d(3));
            busprobe::counter("simcpu.cache.l2.misses").add(d(4));
        }
        busprobe::counter("simcpu.bus.register.words").add(d(5));
        busprobe::counter("simcpu.bus.memory.words").add(d(6));
        busprobe::counter("simcpu.bus.address.words").add(d(7));
    }

    /// Takes the register-bus trace collected so far.
    pub fn take_register_trace(&mut self) -> Trace {
        let values = std::mem::take(&mut self.reg_bus);
        Trace::from_values(Width::W32, values.into_iter().map(u64::from))
    }

    /// Takes the memory-bus trace collected so far, flushing any
    /// still-pending events in their final order.
    pub fn take_memory_trace(&mut self) -> Trace {
        self.drain_ready(u64::MAX);
        let values = std::mem::take(&mut self.mem_bus);
        Trace::from_values(Width::W32, values.into_iter().map(u64::from))
    }

    /// Takes the memory *address* bus trace: the effective virtual
    /// addresses of loads and stores in issue order. One value per
    /// memory instruction, so it paces with the memory data bus.
    pub fn take_address_trace(&mut self) -> Trace {
        let values = std::mem::take(&mut self.addr_bus);
        Trace::from_values(Width::W32, values.into_iter().map(u64::from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, Cond};
    use crate::program::ProgramBuilder;

    fn run_program(b: ProgramBuilder) -> Machine {
        let mut m = Machine::new(b.build().unwrap(), MachineConfig::default());
        m.run(100_000, usize::MAX, usize::MAX);
        m
    }

    #[test]
    fn register_zero_is_hardwired() {
        let mut b = ProgramBuilder::new();
        b.li(0, 77);
        b.alu(AluOp::Add, 1, 0, 0);
        b.store(1, 0, 5);
        b.halt();
        let m = run_program(b);
        assert_eq!(m.memory()[5], 0);
    }

    #[test]
    fn loop_executes_expected_count() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.li(1, 0);
        b.li(2, 100);
        b.place(top).unwrap();
        b.alui(AluOp::Add, 1, 1, 1);
        b.branch(Cond::Lt, 1, 2, top);
        b.store(1, 0, 0);
        b.halt();
        let m = run_program(b);
        assert_eq!(m.memory()[0], 100);
        assert!(m.is_halted());
    }

    #[test]
    fn register_bus_records_operand_values_in_port_order() {
        let mut b = ProgramBuilder::new();
        b.li(1, 0xAAAA);
        b.li(2, 0xBBBB);
        b.alu(AluOp::Add, 3, 1, 2); // reads r1 then r2
        b.alui(AluOp::Add, 4, 2, 7); // reads r2 only
        b.halt();
        let mut m = run_program(b);
        let t = m.take_register_trace();
        assert_eq!(t.values(), &[0xAAAA, 0xBBBB, 0xBBBB]);
    }

    #[test]
    fn memory_bus_records_load_and_store_data() {
        let mut b = ProgramBuilder::new();
        b.li(1, 0x1234);
        b.store(1, 0, 10); // store datum 0x1234
        b.load(2, 0, 10); // load returns 0x1234
        b.halt();
        let mut m = run_program(b);
        let t = m.take_memory_trace();
        assert_eq!(t.values(), &[0x1234, 0x1234]);
    }

    #[test]
    fn cache_misses_reorder_memory_bus() {
        // A load that misses (first touch, 24-cycle latency) is overtaken
        // by a store issued right after it (hit latency 2).
        let mut b = ProgramBuilder::new();
        b.li(1, 0xAAAA_0001);
        b.li(2, 4096); // a cold line
        b.load(3, 2, 0); // miss: data 0 arrives late
        b.store(1, 0, 0); // store: arrives early
        b.halt();
        let mut m = run_program(b);
        let t = m.take_memory_trace();
        assert_eq!(t.values(), &[0xAAAA_0001, 0]);
    }

    #[test]
    fn same_latency_events_keep_issue_order() {
        let mut b = ProgramBuilder::new();
        b.li(1, 1);
        b.li(2, 2);
        b.store(1, 0, 0);
        b.store(2, 0, 1);
        b.halt();
        let mut m = run_program(b);
        assert_eq!(m.take_memory_trace().values(), &[1, 2]);
    }

    #[test]
    fn address_bus_carries_virtual_addresses() {
        let mut b = ProgramBuilder::new();
        b.li(1, 0xAABB_0010);
        b.li(2, 7);
        b.store(2, 1, 2); // virtual 0xAABB_0012, physical wraps
        b.load(3, 1, 2);
        b.halt();
        let mut m = run_program(b);
        let t = m.take_address_trace();
        assert_eq!(t.values(), &[0xAABB_0012, 0xAABB_0012]);
        assert_eq!(
            m.memory()[0x12],
            7,
            "physical index is the wrapped low bits"
        );
    }

    #[test]
    fn memory_addresses_wrap() {
        let mut b = ProgramBuilder::new();
        b.li(1, u32::MAX);
        b.li(2, 7);
        b.store(2, 1, 1); // address -1 + 1 = 0 after wrap
        b.halt();
        let m = run_program(b);
        assert_eq!(m.memory()[0], 7);
    }

    #[test]
    fn run_stops_at_instruction_limit() {
        let mut b = ProgramBuilder::new();
        let forever = b.label();
        b.place(forever).unwrap();
        b.alui(AluOp::Add, 1, 1, 1);
        b.jump(forever);
        let mut m = Machine::new(b.build().unwrap(), MachineConfig::default());
        let s = m.run(500, usize::MAX, usize::MAX);
        assert_eq!(s.stop, StopReason::InstructionLimit);
        assert_eq!(s.instructions, 500);
    }

    #[test]
    fn run_stops_when_targets_met() {
        let mut b = ProgramBuilder::new();
        let forever = b.label();
        b.li(2, 0xF0);
        b.place(forever).unwrap();
        b.alui(AluOp::Add, 1, 1, 1);
        b.store(1, 0, 0);
        b.jump(forever);
        let mut m = Machine::new(b.build().unwrap(), MachineConfig::default());
        let s = m.run(1_000_000, 50, 50);
        assert_eq!(s.stop, StopReason::TargetsMet);
        assert!(m.take_register_trace().len() >= 50);
        assert!(m.take_memory_trace().len() >= 50);
    }

    #[test]
    fn instruction_mix_is_counted() {
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.li(1, 5); // alu
        b.alu(AluOp::Add, 2, 1, 1); // alu
        b.fpu(crate::FpuOp::Fadd, 3, 1, 1); // fpu
        b.load(4, 0, 100); // load
        b.store(4, 0, 101); // store
        b.branch(Cond::Eq, 0, 0, skip); // branch, taken
        b.li(5, 9); // skipped
        b.place(skip).unwrap();
        b.branch(Cond::Ne, 0, 0, skip); // branch, not taken
        b.halt();
        let mut m = Machine::new(b.build().unwrap(), MachineConfig::default());
        let s = m.run(100, usize::MAX, usize::MAX);
        assert_eq!(s.mix.alu, 2);
        assert_eq!(s.mix.fpu, 1);
        assert_eq!(s.mix.loads, 1);
        assert_eq!(s.mix.stores, 1);
        assert_eq!(s.mix.branches, 2);
        assert_eq!(s.mix.taken, 1);
        assert_eq!(s.mix.total(), 7);
        assert!((s.mix.memory_fraction() - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn falling_off_the_end_halts() {
        let mut b = ProgramBuilder::new();
        b.li(1, 1);
        let mut m = Machine::new(b.build().unwrap(), MachineConfig::default());
        let s = m.run(100, usize::MAX, usize::MAX);
        assert_eq!(s.stop, StopReason::Halted);
        assert!(m.is_halted());
    }

    #[test]
    fn load_memory_places_data() {
        let b = {
            let mut b = ProgramBuilder::new();
            b.load(1, 0, 1000);
            b.store(1, 0, 2000);
            b.halt();
            b
        };
        let mut m = Machine::new(b.build().unwrap(), MachineConfig::default());
        m.load_memory(1000, &[0xDEAD_BEEF]);
        m.run(100, usize::MAX, usize::MAX);
        assert_eq!(m.memory()[2000], 0xDEAD_BEEF);
    }
}
