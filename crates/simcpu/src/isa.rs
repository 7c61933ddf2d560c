//! The instruction set of the miniature machine.
//!
//! A small load/store RISC with 32 general registers of 32 bits.
//! Register 0 is hardwired to zero. Floating-point operations interpret
//! register bits as IEEE-754 single precision, so FP data flows over the
//! same 32-bit buses the coding study observes — matching how the paper's
//! SPECfp traffic reaches the register and memory buses.

use std::fmt;

/// A register index in `0..32`. Register 0 always reads as zero and
/// ignores writes.
pub type Reg = u8;

/// Number of general registers.
pub const NUM_REGS: usize = 32;

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 32 bits).
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by `rhs & 31`).
    Sll,
    /// Logical shift right (by `rhs & 31`).
    Srl,
}

impl AluOp {
    /// Applies the operation.
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
        }
    }
}

/// Single-precision floating-point operations on register bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// Addition.
    Fadd,
    /// Subtraction.
    Fsub,
    /// Multiplication.
    Fmul,
    /// Division (IEEE semantics; no traps).
    Fdiv,
}

impl FpuOp {
    /// Applies the operation to the raw bit patterns.
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        let (x, y) = (f32::from_bits(a), f32::from_bits(b));
        let r = match self {
            FpuOp::Fadd => x + y,
            FpuOp::Fsub => x - y,
            FpuOp::Fmul => x * y,
            FpuOp::Fdiv => x / y,
        };
        r.to_bits()
    }
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
}

impl Cond {
    /// Evaluates the condition.
    #[inline]
    pub fn holds(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i32) < (b as i32),
            Cond::Ge => (a as i32) >= (b as i32),
            Cond::Ltu => a < b,
        }
    }
}

/// One machine instruction. Branch and jump targets are absolute
/// instruction indices, resolved from labels by
/// [`ProgramBuilder`](crate::ProgramBuilder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `rd <- imm`.
    Li {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: u32,
    },
    /// `rd <- op(rs1, rs2)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source (drives the register bus).
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// `rd <- op(rs1, imm)`.
    AluI {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register (drives the register bus).
        rs1: Reg,
        /// Immediate operand.
        imm: u32,
    },
    /// `rd <- fop(rs1, rs2)` on f32 bit patterns.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination register.
        rd: Reg,
        /// First source (drives the register bus).
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// `rd <- mem[rs1 + offset]` (word addressed).
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register (drives the register bus).
        base: Reg,
        /// Word offset.
        offset: i32,
    },
    /// `mem[rs1 + offset] <- rs2` (word addressed).
    Store {
        /// Base address register.
        base: Reg,
        /// Word offset.
        offset: i32,
        /// Data register (drives the register bus — the datum is what the
        /// memory bus will carry).
        src: Reg,
    },
    /// Conditional branch to an absolute instruction index.
    Branch {
        /// Condition to test.
        cond: Cond,
        /// Left operand (drives the register bus).
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Absolute target instruction index.
        target: u32,
    },
    /// Unconditional jump to an absolute instruction index.
    Jump {
        /// Absolute target instruction index.
        target: u32,
    },
    /// Stops the machine.
    Halt,
}

impl Instr {
    /// The registers this instruction reads, in port order (up to two).
    ///
    /// The paper samples the register file's output-port traffic; every
    /// operand read appears as one value on the register bus, first
    /// source first.
    pub fn register_reads(&self) -> [Option<Reg>; 2] {
        match *self {
            Instr::Li { .. } | Instr::Jump { .. } | Instr::Halt => [None, None],
            Instr::AluI { rs1, .. } => [Some(rs1), None],
            Instr::Alu { rs1, rs2, .. }
            | Instr::Fpu { rs1, rs2, .. }
            | Instr::Branch { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Instr::Load { base, .. } => [Some(base), None],
            // Stores read the datum and the address base.
            Instr::Store { base, src, .. } => [Some(src), Some(base)],
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Li { rd, imm } => write!(f, "li r{rd}, {imm:#x}"),
            Instr::Alu { op, rd, rs1, rs2 } => write!(f, "{op:?} r{rd}, r{rs1}, r{rs2}"),
            Instr::AluI { op, rd, rs1, imm } => write!(f, "{op:?}i r{rd}, r{rs1}, {imm:#x}"),
            Instr::Fpu { op, rd, rs1, rs2 } => write!(f, "{op:?} r{rd}, r{rs1}, r{rs2}"),
            Instr::Load { rd, base, offset } => write!(f, "lw r{rd}, {offset}(r{base})"),
            Instr::Store { base, offset, src } => write!(f, "sw r{src}, {offset}(r{base})"),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                write!(f, "b{cond:?} r{rs1}, r{rs2}, @{target}")
            }
            Instr::Jump { target } => write!(f, "j @{target}"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_wrap() {
        assert_eq!(AluOp::Add.apply(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u32::MAX);
        assert_eq!(AluOp::Mul.apply(0x1_0000, 0x1_0000), 0);
        assert_eq!(AluOp::Sll.apply(1, 33), 2, "shift amount masked to 5 bits");
        assert_eq!(AluOp::Srl.apply(0x8000_0000, 31), 1);
    }

    #[test]
    fn fpu_ops_operate_on_bits() {
        let a = 1.5f32.to_bits();
        let b = 2.0f32.to_bits();
        assert_eq!(f32::from_bits(FpuOp::Fadd.apply(a, b)), 3.5);
        assert_eq!(f32::from_bits(FpuOp::Fmul.apply(a, b)), 3.0);
        assert_eq!(f32::from_bits(FpuOp::Fdiv.apply(b, a)), 2.0 / 1.5);
        // Division by zero follows IEEE, no panic.
        assert!(f32::from_bits(FpuOp::Fdiv.apply(b, 0)).is_infinite());
    }

    #[test]
    fn conditions() {
        assert!(Cond::Eq.holds(3, 3));
        assert!(Cond::Ne.holds(3, 4));
        assert!(Cond::Lt.holds(u32::MAX, 0), "-1 < 0 signed");
        assert!(!Cond::Ltu.holds(u32::MAX, 0), "max > 0 unsigned");
        assert!(Cond::Ge.holds(0, u32::MAX), "0 >= -1 signed");
    }

    #[test]
    fn register_reads_in_port_order() {
        assert_eq!(Instr::Li { rd: 1, imm: 0 }.register_reads(), [None, None]);
        assert_eq!(
            Instr::Alu {
                op: AluOp::Add,
                rd: 1,
                rs1: 2,
                rs2: 3
            }
            .register_reads(),
            [Some(2), Some(3)]
        );
        assert_eq!(
            Instr::Store {
                base: 4,
                offset: 0,
                src: 9
            }
            .register_reads(),
            [Some(9), Some(4)]
        );
        assert_eq!(
            Instr::Load {
                rd: 1,
                base: 6,
                offset: 0
            }
            .register_reads(),
            [Some(6), None]
        );
        assert_eq!(Instr::Halt.register_reads(), [None, None]);
    }

    #[test]
    fn display_is_readable() {
        let i = Instr::Load {
            rd: 3,
            base: 7,
            offset: -2,
        };
        assert_eq!(i.to_string(), "lw r3, -2(r7)");
    }
}
