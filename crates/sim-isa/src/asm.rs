//! A tiny assembler with forward-referencing labels.

use std::error::Error;
use std::fmt;

use crate::instr::{
    validate_regions, validate_secrets, AluOp, BranchCond, Instr, MemAddr, MemWidth, Program,
    RegionError, SecretRangeError,
};
use crate::reg::Reg;

/// A code label handle produced by [`Asm::label`] / consumed by branch
/// emitters, resolved at [`Asm::finish`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(usize);

/// Error produced when assembling an ill-formed program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AsmError {
    /// A label was referenced by a branch but never bound with
    /// [`Asm::bind`].
    UnboundLabel {
        /// The offending label.
        label: Label,
        /// PC of the instruction referencing it.
        at_pc: usize,
    },
    /// A label was bound twice.
    Rebound {
        /// The offending label.
        label: Label,
    },
    /// A secret range declared with [`Asm::secret`] is invalid.
    BadSecret(SecretRangeError),
    /// A footprint region declared with [`Asm::region`] is invalid.
    BadRegion(RegionError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel { label, at_pc } => {
                write!(f, "label {:?} referenced at pc {} was never bound", label, at_pc)
            }
            AsmError::Rebound { label } => write!(f, "label {:?} bound more than once", label),
            AsmError::BadSecret(e) => write!(f, "{e}"),
            AsmError::BadRegion(e) => write!(f, "{e}"),
        }
    }
}

impl Error for AsmError {}

/// Builder for [`Program`]s.
///
/// Emits one instruction per method call; control flow uses [`Label`]s that
/// may be bound before or after their uses. Convenience emitters cover the
/// idioms the workloads need (indexed loads, compare-and-branch loops).
///
/// # Example
///
/// ```
/// use sim_isa::{Asm, Reg};
///
/// let mut asm = Asm::new();
/// let done = asm.label();
/// asm.li(Reg::R1, 10);
/// asm.bez(Reg::R1, done); // not taken
/// asm.addi(Reg::R1, Reg::R1, 1);
/// asm.bind(done);
/// asm.halt();
/// let prog = asm.finish()?;
/// assert_eq!(prog.len(), 4);
/// # Ok::<(), sim_isa::AsmError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Asm {
    instrs: Vec<Instr>,
    /// Bound PC per label id (usize::MAX = unbound).
    bindings: Vec<usize>,
    /// (instr index, label) pairs needing patching.
    fixups: Vec<(usize, Label)>,
    label_names: Vec<(usize, String)>,
    /// Declared secret ranges, validated at [`Asm::finish`].
    secret_ranges: Vec<(u64, u64)>,
    /// Declared footprint regions, validated at [`Asm::finish`].
    region_decls: Vec<(String, u64, u64)>,
}

const UNBOUND: usize = usize::MAX;

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Asm::default()
    }

    /// Current program counter (index of the next emitted instruction).
    pub fn pc(&self) -> usize {
        self.instrs.len()
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.bindings.push(UNBOUND);
        Label(self.bindings.len() - 1)
    }

    /// Creates a label already bound to the current PC — handy for loop tops.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bindings[l.0] = self.pc();
        l
    }

    /// Binds `label` to the current PC.
    ///
    /// # Panics
    ///
    /// Does not panic; rebinding is reported by [`Asm::finish`].
    pub fn bind(&mut self, label: Label) {
        if self.bindings[label.0] != UNBOUND {
            // Mark as rebound with a sentinel: record a second binding by
            // pushing a fixup that can never resolve. Simpler: remember via
            // names list and detect in finish. We instead record the error
            // eagerly by setting a poisoned value.
            self.bindings[label.0] = UNBOUND - 1; // poisoned
        } else {
            self.bindings[label.0] = self.pc();
        }
    }

    /// Attaches a human-readable name to the current PC (for disassembly).
    pub fn name(&mut self, name: impl Into<String>) {
        self.label_names.push((self.pc(), name.into()));
    }

    /// Declares `[addr, addr + len)` as secret memory — the programmatic
    /// equivalent of the textual `.secret <addr> <len>` directive.
    ///
    /// Ranges are validated together at [`Asm::finish`]: each must be
    /// non-empty, fit in the address space, and not overlap another.
    pub fn secret(&mut self, addr: u64, len: u64) {
        self.secret_ranges.push((addr, len));
    }

    /// Declares `[addr, addr + len)` as the named legal-footprint region —
    /// the programmatic equivalent of the textual
    /// `.region <name> <addr> <len>` directive.
    ///
    /// Regions are validated together at [`Asm::finish`]: names must be
    /// unique identifiers, each region must be non-empty and fit in the
    /// address space, and no two regions may overlap.
    pub fn region(&mut self, name: impl Into<String>, addr: u64, len: u64) {
        self.region_decls.push((name.into(), addr, len));
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, instr: Instr) {
        self.instrs.push(instr);
    }

    // --- immediates and moves -------------------------------------------

    /// `rd = value`
    pub fn li(&mut self, rd: Reg, value: i64) {
        self.emit(Instr::Imm { rd, value });
    }

    /// `rd = ra` (encoded as `rd = ra + 0`)
    pub fn mv(&mut self, rd: Reg, ra: Reg) {
        self.emit(Instr::AluImm { op: AluOp::Add, rd, ra, imm: 0 });
    }

    // --- ALU -------------------------------------------------------------

    /// `rd = ra op rb`
    pub fn alu(&mut self, op: AluOp, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::Alu { op, rd, ra, rb });
    }

    /// `rd = ra op imm`
    pub fn alui(&mut self, op: AluOp, rd: Reg, ra: Reg, imm: i64) {
        self.emit(Instr::AluImm { op, rd, ra, imm });
    }

    /// `rd = ra + rb`
    pub fn add(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluOp::Add, rd, ra, rb);
    }

    /// `rd = ra - rb`
    pub fn sub(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluOp::Sub, rd, ra, rb);
    }

    /// `rd = ra + imm`
    pub fn addi(&mut self, rd: Reg, ra: Reg, imm: i64) {
        self.alui(AluOp::Add, rd, ra, imm);
    }

    /// `rd = ra * rb`
    pub fn mul(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluOp::Mul, rd, ra, rb);
    }

    /// `rd = ra & imm`
    pub fn andi(&mut self, rd: Reg, ra: Reg, imm: i64) {
        self.alui(AluOp::And, rd, ra, imm);
    }

    /// `rd = ra ^ rb`
    pub fn xor(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluOp::Xor, rd, ra, rb);
    }

    /// `rd = ra >> imm` (logical)
    pub fn shri(&mut self, rd: Reg, ra: Reg, imm: i64) {
        self.alui(AluOp::Shr, rd, ra, imm);
    }

    /// `rd = (ra < rb)` signed
    pub fn slt(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluOp::Slt, rd, ra, rb);
    }

    /// `rd = (ra < rb)` unsigned
    pub fn sltu(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluOp::Sltu, rd, ra, rb);
    }

    /// `rd = (ra == rb)`
    pub fn seq(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluOp::Seq, rd, ra, rb);
    }

    /// `rd = (ra != rb)`
    pub fn sne(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.alu(AluOp::Sne, rd, ra, rb);
    }

    // --- memory ------------------------------------------------------------

    /// 8-byte load: `rd = mem[base + offset]`
    pub fn ld8(&mut self, rd: Reg, base: Reg, offset: i64) {
        self.emit(Instr::Load { rd, addr: MemAddr::base(base, offset), width: MemWidth::B8 });
    }

    /// 8-byte indexed load: `rd = mem[base + (index << scale)]`
    pub fn ld8_idx(&mut self, rd: Reg, base: Reg, index: Reg, scale: u8) {
        self.emit(Instr::Load {
            rd,
            addr: MemAddr::indexed(base, index, scale),
            width: MemWidth::B8,
        });
    }

    /// Load with an explicit address expression and width.
    pub fn load(&mut self, rd: Reg, addr: MemAddr, width: MemWidth) {
        self.emit(Instr::Load { rd, addr, width });
    }

    /// 8-byte store: `mem[base + offset] = rs`
    pub fn st8(&mut self, rs: Reg, base: Reg, offset: i64) {
        self.emit(Instr::Store { rs, addr: MemAddr::base(base, offset), width: MemWidth::B8 });
    }

    /// 8-byte indexed store: `mem[base + (index << scale)] = rs`
    pub fn st8_idx(&mut self, rs: Reg, base: Reg, index: Reg, scale: u8) {
        self.emit(Instr::Store {
            rs,
            addr: MemAddr::indexed(base, index, scale),
            width: MemWidth::B8,
        });
    }

    /// Store with an explicit address expression and width.
    pub fn store(&mut self, rs: Reg, addr: MemAddr, width: MemWidth) {
        self.emit(Instr::Store { rs, addr, width });
    }

    // --- control flow -------------------------------------------------------

    /// Branch to `label` if `rs == 0`.
    pub fn bez(&mut self, rs: Reg, label: Label) {
        self.fixups.push((self.pc(), label));
        self.emit(Instr::Branch { cond: BranchCond::Eqz, rs, target: 0 });
    }

    /// Branch to `label` if `rs != 0`.
    pub fn bnz(&mut self, rs: Reg, label: Label) {
        self.fixups.push((self.pc(), label));
        self.emit(Instr::Branch { cond: BranchCond::Nez, rs, target: 0 });
    }

    /// Unconditional jump to `label`.
    pub fn jmp(&mut self, label: Label) {
        self.fixups.push((self.pc(), label));
        self.emit(Instr::Jump { target: 0 });
    }

    /// No-op.
    pub fn nop(&mut self) {
        self.emit(Instr::Nop);
    }

    /// Halt.
    pub fn halt(&mut self) {
        self.emit(Instr::Halt);
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if a referenced label was never
    /// bound, [`AsmError::Rebound`] if a label was bound twice,
    /// [`AsmError::BadSecret`] if a declared secret range is empty,
    /// overflowing, or overlapping, or [`AsmError::BadRegion`] for the same
    /// defects (or a bad/duplicate name) in a declared footprint region.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        for (idx, bound) in self.bindings.iter().enumerate() {
            if *bound == UNBOUND - 1 {
                return Err(AsmError::Rebound { label: Label(idx) });
            }
        }
        for (at, label) in &self.fixups {
            let pc = self.bindings[label.0];
            if pc == UNBOUND {
                return Err(AsmError::UnboundLabel { label: *label, at_pc: *at });
            }
            match &mut self.instrs[*at] {
                Instr::Branch { target, .. } | Instr::Jump { target } => *target = pc,
                other => unreachable!("fixup on non-control instruction {other}"),
            }
        }
        let secrets = validate_secrets(self.secret_ranges).map_err(AsmError::BadSecret)?;
        let regions = validate_regions(self.region_decls).map_err(AsmError::BadRegion)?;
        let mut prog = Program::new(self.instrs, self.label_names);
        prog.set_secrets(secrets);
        prog.set_regions(regions);
        Ok(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels() {
        let mut asm = Asm::new();
        let fwd = asm.label();
        asm.li(Reg::R1, 1);
        let back = asm.here();
        asm.addi(Reg::R1, Reg::R1, 1);
        asm.bez(Reg::R1, back);
        asm.jmp(fwd);
        asm.bind(fwd);
        asm.halt();
        let prog = asm.finish().unwrap();
        assert_eq!(prog.fetch(2).unwrap().target(), Some(1));
        assert_eq!(prog.fetch(3).unwrap().target(), Some(4));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut asm = Asm::new();
        let l = asm.label();
        asm.jmp(l);
        match asm.finish() {
            Err(AsmError::UnboundLabel { at_pc, .. }) => assert_eq!(at_pc, 0),
            other => panic!("expected UnboundLabel, got {other:?}"),
        }
    }

    #[test]
    fn rebound_label_is_an_error() {
        let mut asm = Asm::new();
        let l = asm.label();
        asm.bind(l);
        asm.nop();
        asm.bind(l);
        assert!(matches!(asm.finish(), Err(AsmError::Rebound { .. })));
    }

    #[test]
    fn secret_ranges_validated_at_finish() {
        let mut asm = Asm::new();
        asm.secret(0x1000, 64);
        asm.secret(0x1020, 8); // overlaps the first range
        asm.halt();
        assert!(matches!(
            asm.finish(),
            Err(AsmError::BadSecret(SecretRangeError::Overlap { first: 0x1000, second: 0x1020 }))
        ));

        let mut asm = Asm::new();
        asm.secret(0x2000, 64);
        asm.secret(0x1000, 64);
        asm.halt();
        let prog = asm.finish().unwrap();
        assert_eq!(prog.secrets(), &[(0x1000, 64), (0x2000, 64)]);
    }

    #[test]
    fn region_decls_validated_at_finish() {
        let mut asm = Asm::new();
        asm.region("a", 0x1000, 64);
        asm.region("b", 0x1020, 8); // overlaps
        asm.halt();
        assert!(matches!(asm.finish(), Err(AsmError::BadRegion(RegionError::Overlap { .. }))));

        let mut asm = Asm::new();
        asm.region("hi", 0x2000, 64);
        asm.region("lo", 0x1000, 64);
        asm.halt();
        let prog = asm.finish().unwrap();
        assert_eq!(
            prog.regions(),
            &[("lo".to_string(), 0x1000, 64), ("hi".to_string(), 0x2000, 64)]
        );
        assert!(prog.to_string().contains(".region lo 0x1000 0x40"));
    }

    #[test]
    fn named_labels_survive() {
        let mut asm = Asm::new();
        asm.name("entry");
        asm.halt();
        let prog = asm.finish().unwrap();
        assert_eq!(prog.labels(), &[(0, "entry".to_string())]);
        assert!(prog.to_string().contains("entry:"));
    }
}
