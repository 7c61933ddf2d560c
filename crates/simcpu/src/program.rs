//! Program construction with label resolution — a tiny assembler.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::isa::{AluOp, Cond, FpuOp, Instr, Reg, NUM_REGS};

/// A validated program: every branch target resolved and in range, every
/// register index valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// The instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }
}

impl std::fmt::Display for Program {
    /// A numbered disassembly listing, one instruction per line.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "{i:4}: {instr}")?;
        }
        Ok(())
    }
}

/// Errors found when finalizing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A label was referenced but never placed.
    UnresolvedLabel {
        /// The label id.
        label: usize,
    },
    /// A label was placed twice.
    DuplicateLabel {
        /// The label id.
        label: usize,
    },
    /// A register index is out of range.
    BadRegister {
        /// The offending index.
        reg: Reg,
    },
    /// The program has no instructions.
    Empty,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnresolvedLabel { label } => {
                write!(f, "label {label} referenced but never placed")
            }
            ProgramError::DuplicateLabel { label } => write!(f, "label {label} placed twice"),
            ProgramError::BadRegister { reg } => {
                write!(f, "register r{reg} is out of range (0..{NUM_REGS})")
            }
            ProgramError::Empty => write!(f, "program has no instructions"),
        }
    }
}

impl Error for ProgramError {}

/// A label handle issued by [`ProgramBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Builder assembling a [`Program`] with forward references.
///
/// # Example
///
/// ```
/// use simcpu::{AluOp, Cond, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// let loop_top = b.label();
/// b.li(1, 0);
/// b.li(2, 10);
/// b.place(loop_top)?;
/// b.alui(AluOp::Add, 1, 1, 1);
/// b.branch(Cond::Lt, 1, 2, loop_top);
/// b.halt();
/// let program = b.build()?;
/// assert_eq!(program.instrs().len(), 5);
/// # Ok::<(), simcpu::ProgramError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    /// Placed label positions by id.
    placed: HashMap<usize, u32>,
    /// (instruction index) -> label id, for targets to patch.
    patches: Vec<(usize, usize)>,
    next_label: usize,
    duplicate: Option<usize>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Issues a new, unplaced label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Places a label at the current position.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::DuplicateLabel`] if already placed. (The
    /// error is also re-reported by [`build`](Self::build), so kernel
    /// code may ignore the result and rely on the final check.)
    pub fn place(&mut self, label: Label) -> Result<(), ProgramError> {
        if self
            .placed
            .insert(label.0, self.instrs.len() as u32)
            .is_some()
        {
            self.duplicate = Some(label.0);
            return Err(ProgramError::DuplicateLabel { label: label.0 });
        }
        Ok(())
    }

    /// Emits `li rd, imm`.
    pub fn li(&mut self, rd: Reg, imm: u32) -> &mut Self {
        self.instrs.push(Instr::Li { rd, imm });
        self
    }

    /// Emits a register-register ALU operation.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.instrs.push(Instr::Alu { op, rd, rs1, rs2 });
        self
    }

    /// Emits a register-immediate ALU operation.
    pub fn alui(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: u32) -> &mut Self {
        self.instrs.push(Instr::AluI { op, rd, rs1, imm });
        self
    }

    /// Emits a floating-point operation.
    pub fn fpu(&mut self, op: FpuOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.instrs.push(Instr::Fpu { op, rd, rs1, rs2 });
        self
    }

    /// Emits `lw rd, offset(base)`.
    pub fn load(&mut self, rd: Reg, base: Reg, offset: i32) -> &mut Self {
        self.instrs.push(Instr::Load { rd, base, offset });
        self
    }

    /// Emits `sw src, offset(base)`.
    pub fn store(&mut self, src: Reg, base: Reg, offset: i32) -> &mut Self {
        self.instrs.push(Instr::Store { base, offset, src });
        self
    }

    /// Emits a conditional branch to a label.
    pub fn branch(&mut self, cond: Cond, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.patches.push((self.instrs.len(), target.0));
        self.instrs.push(Instr::Branch {
            cond,
            rs1,
            rs2,
            target: u32::MAX,
        });
        self
    }

    /// Emits an unconditional jump to a label.
    pub fn jump(&mut self, target: Label) -> &mut Self {
        self.patches.push((self.instrs.len(), target.0));
        self.instrs.push(Instr::Jump { target: u32::MAX });
        self
    }

    /// Emits `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.instrs.push(Instr::Halt);
        self
    }

    /// Resolves labels and validates the program.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn build(mut self) -> Result<Program, ProgramError> {
        if let Some(label) = self.duplicate {
            return Err(ProgramError::DuplicateLabel { label });
        }
        if self.instrs.is_empty() {
            return Err(ProgramError::Empty);
        }
        for &(at, label) in &self.patches {
            let Some(&pos) = self.placed.get(&label) else {
                return Err(ProgramError::UnresolvedLabel { label });
            };
            match &mut self.instrs[at] {
                Instr::Branch { target, .. } | Instr::Jump { target } => *target = pos,
                other => unreachable!("patch points at non-branch {other}"),
            }
        }
        for instr in &self.instrs {
            for reg in registers_of(instr) {
                if usize::from(reg) >= NUM_REGS {
                    return Err(ProgramError::BadRegister { reg });
                }
            }
        }
        Ok(Program {
            instrs: self.instrs,
        })
    }
}

/// All register indices an instruction names.
fn registers_of(instr: &Instr) -> Vec<Reg> {
    match *instr {
        Instr::Li { rd, .. } => vec![rd],
        Instr::Alu { rd, rs1, rs2, .. } | Instr::Fpu { rd, rs1, rs2, .. } => vec![rd, rs1, rs2],
        Instr::AluI { rd, rs1, .. } => vec![rd, rs1],
        Instr::Load { rd, base, .. } => vec![rd, base],
        Instr::Store { base, src, .. } => vec![base, src],
        Instr::Branch { rs1, rs2, .. } => vec![rs1, rs2],
        Instr::Jump { .. } | Instr::Halt => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_references_resolve() {
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.jump(skip);
        b.li(1, 99); // skipped
        b.place(skip).unwrap();
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.instrs()[0], Instr::Jump { target: 2 });
    }

    #[test]
    fn unresolved_label_rejected() {
        let mut b = ProgramBuilder::new();
        let nowhere = b.label();
        b.jump(nowhere);
        assert!(matches!(
            b.build(),
            Err(ProgramError::UnresolvedLabel { label: 0 })
        ));
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.place(l).unwrap();
        b.li(1, 0);
        assert!(b.place(l).is_err());
        b.halt();
        assert!(matches!(
            b.build(),
            Err(ProgramError::DuplicateLabel { label: 0 })
        ));
    }

    #[test]
    fn bad_register_rejected() {
        let mut b = ProgramBuilder::new();
        b.li(32, 0);
        assert!(matches!(
            b.build(),
            Err(ProgramError::BadRegister { reg: 32 })
        ));
    }

    #[test]
    fn empty_program_rejected() {
        assert!(matches!(
            ProgramBuilder::new().build(),
            Err(ProgramError::Empty)
        ));
    }

    #[test]
    fn display_disassembles() {
        let mut b = ProgramBuilder::new();
        b.li(1, 0x10);
        b.load(2, 1, 4);
        b.halt();
        let p = b.build().unwrap();
        let listing = p.to_string();
        assert!(listing.contains("   0: li r1, 0x10"));
        assert!(listing.contains("   1: lw r2, 4(r1)"));
        assert!(listing.contains("   2: halt"));
        assert_eq!(listing.lines().count(), 3);
    }

    #[test]
    fn error_messages() {
        assert_eq!(
            ProgramError::UnresolvedLabel { label: 3 }.to_string(),
            "label 3 referenced but never placed"
        );
        assert!(ProgramError::BadRegister { reg: 40 }
            .to_string()
            .contains("r40"));
    }
}
