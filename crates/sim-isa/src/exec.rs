//! Functional execution: the architectural CPU state and a per-lane
//! interpreter used by the runahead engines.

use std::error::Error;
use std::fmt;

use crate::bytes::{DecodeError, Reader};
use crate::fxhash::FxHashMap;
use crate::instr::{Instr, Program};
use crate::mem::SparseMemory;
use crate::reg::{Reg, NUM_REGS};

/// A memory access performed by one executed instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub width: u64,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
    /// The value loaded or stored.
    pub value: u64,
}

/// The outcome of executing one dynamic instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Step {
    /// PC of the executed instruction.
    pub pc: usize,
    /// The executed instruction.
    pub instr: Instr,
    /// PC of the next instruction on the (architecturally correct) path.
    pub next_pc: usize,
    /// Memory access performed, if any.
    pub mem: Option<MemAccess>,
    /// For conditional branches, whether the branch was taken.
    pub branch_taken: Option<bool>,
    /// Value written to the destination register, if any.
    pub dst_value: Option<u64>,
}

/// Result of [`Cpu::step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepEvent {
    /// An instruction executed.
    Executed(Step),
    /// The program halted (via [`Instr::Halt`] or running off the end).
    Halted,
}

/// Error produced by the functional executor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// The PC points outside the program and the program did not halt.
    PcOutOfRange {
        /// The offending PC.
        pc: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => write!(f, "pc {pc} out of program range"),
        }
    }
}

impl Error for ExecError {}

/// Architectural secret-taint shadow state for the functional executor.
///
/// Tracks, per architectural register, whether the current value was
/// (transitively) derived from memory declared secret via `.secret`
/// directives, flowing taint through ALU ops, loads, and stores (store→load
/// flow at exact-address granularity). Purely an **observer**, fed every
/// step of a [`Cpu::step`] replay through [`SecretTaint::observe`]: it
/// changes no architectural value and no timing — it exists so the leak
/// audit can confirm which static taint findings a program actually
/// exercises.
#[derive(Clone, Debug, Default)]
pub struct SecretTaint {
    regs: u16,
    tainted_words: FxHashMap<u64, ()>,
    /// Loads whose *data* came from a secret region (taint sources).
    pub secret_reads: u64,
    /// Loads and stores whose *address* was secret-derived (architectural
    /// transmitters — under speculation these are the gather gadgets).
    pub tainted_addr_accesses: u64,
    /// Conditional branches steered by a secret-derived register.
    pub tainted_branches: u64,
    transmit_pcs: FxHashMap<usize, u64>,
}

impl SecretTaint {
    fn get(&self, r: Reg) -> bool {
        self.regs & r.bit() != 0
    }

    fn set(&mut self, r: Reg, tainted: bool) {
        if tainted {
            self.regs |= r.bit();
        } else {
            self.regs &= !r.bit();
        }
    }

    /// Transmitting PCs with their access counts, pc-sorted.
    pub fn transmit_pcs(&self) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self.transmit_pcs.iter().map(|(&p, &n)| (p, n)).collect();
        v.sort_unstable();
        v
    }

    /// Folds one executed step into the shadow. `Halt` steps change nothing.
    pub fn observe(&mut self, prog: &Program, step: &Step) {
        match step.instr {
            Instr::Imm { rd, .. } => self.set(rd, false),
            Instr::Alu { rd, ra, rb, .. } => {
                let t = self.get(ra) || self.get(rb);
                self.set(rd, t);
            }
            Instr::AluImm { rd, ra, .. } => {
                let t = self.get(ra);
                self.set(rd, t);
            }
            Instr::Load { rd, addr, .. } => {
                let addr_tainted = self.get(addr.base) || addr.index.is_some_and(|ix| self.get(ix));
                let a = step.mem.expect("executed loads report their access").addr;
                if addr_tainted {
                    self.tainted_addr_accesses += 1;
                    *self.transmit_pcs.entry(step.pc).or_insert(0) += 1;
                }
                let mut t = addr_tainted;
                if prog.is_secret_addr(a) {
                    self.secret_reads += 1;
                    t = true;
                }
                if self.tainted_words.contains_key(&a) {
                    t = true;
                }
                self.set(rd, t);
            }
            Instr::Store { rs, addr, .. } => {
                let addr_tainted = self.get(addr.base) || addr.index.is_some_and(|ix| self.get(ix));
                let a = step.mem.expect("executed stores report their access").addr;
                if addr_tainted {
                    self.tainted_addr_accesses += 1;
                    *self.transmit_pcs.entry(step.pc).or_insert(0) += 1;
                }
                if self.get(rs) {
                    self.tainted_words.insert(a, ());
                } else {
                    self.tainted_words.remove(&a);
                }
            }
            Instr::Branch { rs, .. } => {
                if self.get(rs) {
                    self.tainted_branches += 1;
                }
            }
            Instr::Jump { .. } | Instr::Nop | Instr::Halt => {}
        }
    }
}

/// Architectural bounds-observation shadow for the functional executor.
///
/// Records, per *static* memory instruction (pc), the minimum start address
/// and maximum end address (inclusive) of every access it has issued.
/// Purely an **observer**, fed either every step of a [`Cpu::step`] replay
/// ([`BoundsTracker::observe`]) or raw speculative lane accesses
/// ([`BoundsTracker::note_access`]): it changes no architectural value and
/// no timing — it exists so the bounds audit (`dvrsim bounds-audit`) can
/// diff the static interval claims of the bounds verifier against the
/// addresses a real execution actually touched.
#[derive(Clone, Debug, Default)]
pub struct BoundsTracker {
    /// pc → (min start address, max inclusive end address).
    extents: FxHashMap<usize, (u64, u64)>,
    /// Total memory accesses observed.
    pub accesses: u64,
}

impl BoundsTracker {
    /// Folds one executed step's memory access, if any, into its pc's
    /// extent. Steps without an access (including `Halt`) change nothing.
    pub fn observe(&mut self, step: &Step) {
        if let Some(m) = step.mem {
            self.note_access(step.pc, m.addr, m.width);
        }
    }

    /// Observed extents as `(pc, min_start, max_end)`, pc-sorted.
    pub fn extents(&self) -> Vec<(usize, u64, u64)> {
        let mut v: Vec<(usize, u64, u64)> =
            self.extents.iter().map(|(&pc, &(lo, hi))| (pc, lo, hi)).collect();
        v.sort_unstable();
        v
    }

    /// Records one raw access (used by the memory hierarchy's lane observer
    /// for speculative lane loads that never retire architecturally).
    pub fn note_access(&mut self, pc: usize, addr: u64, width: u64) {
        self.accesses += 1;
        let end = addr.saturating_add(width.max(1) - 1);
        let e = self.extents.entry(pc).or_insert((addr, end));
        e.0 = e.0.min(addr);
        e.1 = e.1.max(end);
    }
}

/// One step of the speculative per-lane secret-taint shadow used by the
/// runahead walkers: updates a 16-bit register taint mask for an executed
/// instruction and returns `true` when the instruction issued a load whose
/// *address* was secret-derived (a speculative transmitter — the line fill
/// it triggers encodes secret data in microarchitectural state).
///
/// `load_addr` is the effective address when the instruction loaded
/// (`None` otherwise; runahead lanes suppress stores, so stores never
/// reach the hierarchy and never transmit here).
pub fn lane_taint_step(
    prog: &Program,
    instr: &Instr,
    mask: &mut u16,
    load_addr: Option<u64>,
) -> bool {
    let src_tainted = instr.srcs().any(|r| *mask & r.bit() != 0);
    let transmitted = src_tainted && load_addr.is_some();
    let mut tainted = src_tainted;
    if let Some(a) = load_addr {
        if prog.is_secret_addr(a) {
            tainted = true;
        }
    }
    if let Some(dst) = instr.dst() {
        if tainted {
            *mask |= dst.bit();
        } else {
            *mask &= !dst.bit();
        }
    }
    transmitted
}

/// The architectural CPU state: 16 integer registers and a program counter.
///
/// `Cpu` executes instructions *functionally* and in order; the cycle-level
/// timing is layered on top by `sim-ooo` (execute-at-fetch). See the crate
/// docs for a full example.
#[derive(Clone, Debug)]
pub struct Cpu {
    regs: [u64; NUM_REGS],
    pc: usize,
    halted: bool,
    retired: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// Creates a CPU with all registers zero and `pc = 0`.
    pub fn new() -> Self {
        Cpu { regs: [0; NUM_REGS], pc: 0, halted: false, retired: 0 }
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether the CPU has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes an architectural register.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
    }

    /// A snapshot of the whole register file — used for Discovery Mode's
    /// loop-bound checkpoints and to seed runahead lane contexts.
    pub fn regs(&self) -> [u64; NUM_REGS] {
        self.regs
    }

    /// Executes one instruction, updating registers, memory, and the PC.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::PcOutOfRange`] only if the machine is driven
    /// past a malformed program; well-formed programs end with
    /// [`Instr::Halt`], reported as [`StepEvent::Halted`].
    pub fn step(&mut self, prog: &Program, mem: &mut SparseMemory) -> Result<StepEvent, ExecError> {
        if self.halted {
            return Ok(StepEvent::Halted);
        }
        let pc = self.pc;
        let instr = match prog.fetch(pc) {
            Some(i) => *i,
            None => {
                return if pc == prog.len() {
                    self.halted = true;
                    Ok(StepEvent::Halted)
                } else {
                    Err(ExecError::PcOutOfRange { pc })
                };
            }
        };

        let mut next_pc = pc + 1;
        let mut memacc = None;
        let mut branch_taken = None;
        let mut dst_value = None;

        match instr {
            Instr::Imm { rd, value } => {
                self.regs[rd.index()] = value as u64;
                dst_value = Some(value as u64);
            }
            Instr::Alu { op, rd, ra, rb } => {
                let v = op.eval(self.regs[ra.index()], self.regs[rb.index()]);
                self.regs[rd.index()] = v;
                dst_value = Some(v);
            }
            Instr::AluImm { op, rd, ra, imm } => {
                let v = op.eval(self.regs[ra.index()], imm as u64);
                self.regs[rd.index()] = v;
                dst_value = Some(v);
            }
            Instr::Load { rd, addr, width } => {
                let a = addr.effective(|r| self.regs[r.index()]);
                let v = mem.read(a, width.bytes());
                self.regs[rd.index()] = v;
                dst_value = Some(v);
                memacc =
                    Some(MemAccess { addr: a, width: width.bytes(), is_store: false, value: v });
            }
            Instr::Store { rs, addr, width } => {
                let a = addr.effective(|r| self.regs[r.index()]);
                let v = self.regs[rs.index()];
                mem.write(a, width.bytes(), v);
                memacc =
                    Some(MemAccess { addr: a, width: width.bytes(), is_store: true, value: v });
            }
            Instr::Branch { cond, rs, target } => {
                let taken = cond.taken(self.regs[rs.index()]);
                branch_taken = Some(taken);
                if taken {
                    next_pc = target;
                }
            }
            Instr::Jump { target } => {
                next_pc = target;
            }
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
                self.retired += 1;
                return Ok(StepEvent::Executed(Step {
                    pc,
                    instr,
                    next_pc: pc,
                    mem: None,
                    branch_taken: None,
                    dst_value: None,
                }));
            }
        }

        self.pc = next_pc;
        self.retired += 1;
        Ok(StepEvent::Executed(Step { pc, instr, next_pc, mem: memacc, branch_taken, dst_value }))
    }

    /// Runs until halt or `max_steps`, returning the number of instructions
    /// executed. Convenience for tests and functional validation.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from [`Cpu::step`].
    pub fn run(
        &mut self,
        prog: &Program,
        mem: &mut SparseMemory,
        max_steps: u64,
    ) -> Result<u64, ExecError> {
        let mut n = 0;
        while n < max_steps {
            match self.step(prog, mem)? {
                StepEvent::Executed(_) => n += 1,
                StepEvent::Halted => break,
            }
        }
        Ok(n)
    }

    /// Functional fast-forward: runs like [`Cpu::run`] but streams every
    /// memory access and conditional-branch outcome through a [`WarmSink`].
    ///
    /// This is the sampling subsystem's warming mode — instructions retire
    /// architecturally without the OoO engine while the sink trains cache
    /// tags/LRU and branch-predictor tables, so a later detailed interval
    /// starts from warm microarchitectural state.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from [`Cpu::step`].
    pub fn run_warming<S: WarmSink>(
        &mut self,
        prog: &Program,
        mem: &mut SparseMemory,
        max_steps: u64,
        sink: &mut S,
    ) -> Result<u64, ExecError> {
        let mut n = 0;
        while n < max_steps {
            match self.step(prog, mem)? {
                StepEvent::Executed(s) => {
                    n += 1;
                    if let Some(m) = s.mem {
                        if m.is_store {
                            sink.store(s.pc, m.addr, m.width);
                        } else {
                            sink.load(s.pc, m.addr, m.width);
                        }
                    }
                    if let Some(taken) = s.branch_taken {
                        sink.branch(s.pc, taken);
                    }
                }
                StepEvent::Halted => break,
            }
        }
        Ok(n)
    }

    /// Saves the complete architectural CPU state.
    pub fn checkpoint(&self) -> CpuCheckpoint {
        CpuCheckpoint { regs: self.regs, pc: self.pc, halted: self.halted, retired: self.retired }
    }

    /// Reconstructs a CPU from a checkpoint. Resuming from the restored CPU
    /// (against restored memory) is byte-identical to never having stopped.
    pub fn from_checkpoint(ck: &CpuCheckpoint) -> Self {
        Cpu { regs: ck.regs, pc: ck.pc, halted: ck.halted, retired: ck.retired }
    }
}

/// Observer for the functional fast-forward mode ([`Cpu::run_warming`]):
/// receives every architectural memory access and conditional-branch outcome
/// so microarchitectural state (cache tags, predictor tables) can be warmed
/// without cycle-level simulation. All methods default to no-ops.
pub trait WarmSink {
    /// A demand load of `width` bytes at `addr`, issued by the instruction
    /// at `pc`.
    fn load(&mut self, pc: usize, addr: u64, width: u64) {
        let _ = (pc, addr, width);
    }
    /// A demand store of `width` bytes at `addr`, issued by the instruction
    /// at `pc`.
    fn store(&mut self, pc: usize, addr: u64, width: u64) {
        let _ = (pc, addr, width);
    }
    /// A conditional branch at `pc` resolved `taken`.
    fn branch(&mut self, pc: usize, taken: bool) {
        let _ = (pc, taken);
    }
}

/// A [`WarmSink`] that discards everything — pure fast-forward.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullWarmSink;

impl WarmSink for NullWarmSink {}

/// A serializable snapshot of the architectural CPU state (register file,
/// PC, halt flag, retirement count).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuCheckpoint {
    /// The architectural register file.
    pub regs: [u64; NUM_REGS],
    /// The program counter.
    pub pc: usize,
    /// Whether the CPU had halted.
    pub halted: bool,
    /// Instructions retired when the checkpoint was taken.
    pub retired: u64,
}

/// Version/magic tag prefixed to serialized checkpoints.
const CPU_CKPT_MAGIC: u32 = 0x4456_5243; // "DVRC"

impl CpuCheckpoint {
    /// Serializes the checkpoint to a deterministic little-endian byte image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + NUM_REGS * 8 + 8 + 1 + 8);
        out.extend_from_slice(&CPU_CKPT_MAGIC.to_le_bytes());
        for r in &self.regs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&(self.pc as u64).to_le_bytes());
        out.push(self.halted as u8);
        out.extend_from_slice(&self.retired.to_le_bytes());
        out
    }

    /// Deserializes a checkpoint produced by [`CpuCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        r.magic(CPU_CKPT_MAGIC)?;
        let mut regs = [0u64; NUM_REGS];
        for reg in &mut regs {
            *reg = r.u64("regs")?;
        }
        let pc = r.u64("pc")? as usize;
        let ck = CpuCheckpoint { regs, pc, halted: r.bool("halted")?, retired: r.u64("retired")? };
        r.finish()?;
        Ok(ck)
    }
}

/// The effect of executing one instruction in a *speculative runahead lane*:
/// stores are suppressed (runahead is transient and must not perturb
/// architectural memory), loads read the live memory image.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LaneEffect {
    /// PC the lane proceeds to.
    pub next_pc: usize,
    /// The lane reached a `Halt` (or ran off the program).
    pub halted: bool,
    /// Load performed: `(address, width_bytes)`.
    pub load: Option<(u64, u64)>,
    /// Store suppressed, address still reported: `(address, width_bytes)`.
    pub store: Option<(u64, u64)>,
    /// For conditional branches, the lane-local outcome.
    pub branch_taken: Option<bool>,
}

/// Executes the instruction at `pc` on a lane-private register file against
/// the shared memory image, without writing memory.
///
/// This is the per-lane semantics of the vector-runahead subthread: each of
/// the up-to-128 scalar-equivalent lanes interprets the same instruction on
/// its own register context (Section 4.2 of the paper). Timing (gather
/// splitting, MSHR allocation, masking) is handled by the engine in
/// `dvr-core`; this function only provides values and control flow.
pub fn exec_lane(
    prog: &Program,
    pc: usize,
    regs: &mut [u64; NUM_REGS],
    mem: &SparseMemory,
) -> LaneEffect {
    let instr = match prog.fetch(pc) {
        Some(i) => *i,
        None => {
            return LaneEffect {
                next_pc: pc,
                halted: true,
                load: None,
                store: None,
                branch_taken: None,
            };
        }
    };
    let mut eff =
        LaneEffect { next_pc: pc + 1, halted: false, load: None, store: None, branch_taken: None };
    match instr {
        Instr::Imm { rd, value } => regs[rd.index()] = value as u64,
        Instr::Alu { op, rd, ra, rb } => {
            regs[rd.index()] = op.eval(regs[ra.index()], regs[rb.index()]);
        }
        Instr::AluImm { op, rd, ra, imm } => {
            regs[rd.index()] = op.eval(regs[ra.index()], imm as u64);
        }
        Instr::Load { rd, addr, width } => {
            let a = addr.effective(|r| regs[r.index()]);
            regs[rd.index()] = mem.read(a, width.bytes());
            eff.load = Some((a, width.bytes()));
        }
        Instr::Store { addr, width, .. } => {
            let a = addr.effective(|r| regs[r.index()]);
            eff.store = Some((a, width.bytes()));
        }
        Instr::Branch { cond, rs, target } => {
            let taken = cond.taken(regs[rs.index()]);
            eff.branch_taken = Some(taken);
            if taken {
                eff.next_pc = target;
            }
        }
        Instr::Jump { target } => eff.next_pc = target,
        Instr::Nop => {}
        Instr::Halt => {
            eff.halted = true;
            eff.next_pc = pc;
        }
    }
    eff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    fn fib_program() -> Program {
        // r1 = fib(10) iteratively
        let mut asm = Asm::new();
        let (a, b, t, i, n, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6);
        asm.li(a, 0);
        asm.li(b, 1);
        asm.li(i, 0);
        asm.li(n, 10);
        let top = asm.here();
        asm.add(t, a, b);
        asm.mv(a, b);
        asm.mv(b, t);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.halt();
        asm.finish().unwrap()
    }

    #[test]
    fn fib_executes_correctly() {
        let prog = fib_program();
        let mut cpu = Cpu::new();
        let mut mem = SparseMemory::new();
        let n = cpu.run(&prog, &mut mem, 10_000).unwrap();
        assert!(cpu.is_halted());
        assert_eq!(cpu.reg(Reg::R1), 55); // fib(10)
        assert_eq!(n, cpu.retired());
    }

    #[test]
    fn memory_steps_report_accesses() {
        let mut asm = Asm::new();
        asm.li(Reg::R1, 0x1000);
        asm.li(Reg::R2, 99);
        asm.st8(Reg::R2, Reg::R1, 8);
        asm.ld8(Reg::R3, Reg::R1, 8);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut cpu = Cpu::new();
        let mut mem = SparseMemory::new();

        let mut accesses = vec![];
        while let StepEvent::Executed(s) = cpu.step(&prog, &mut mem).unwrap() {
            if let Some(m) = s.mem {
                accesses.push(m);
            }
            if matches!(s.instr, Instr::Halt) {
                break;
            }
        }
        assert_eq!(accesses.len(), 2);
        assert!(accesses[0].is_store);
        assert_eq!(accesses[0].addr, 0x1008);
        assert!(!accesses[1].is_store);
        assert_eq!(accesses[1].value, 99);
        assert_eq!(cpu.reg(Reg::R3), 99);
    }

    #[test]
    fn running_off_the_end_halts() {
        let mut asm = Asm::new();
        asm.nop();
        let prog = asm.finish().unwrap();
        let mut cpu = Cpu::new();
        let mut mem = SparseMemory::new();
        assert!(matches!(cpu.step(&prog, &mut mem).unwrap(), StepEvent::Executed(_)));
        assert!(matches!(cpu.step(&prog, &mut mem).unwrap(), StepEvent::Halted));
        assert!(cpu.is_halted());
    }

    #[test]
    fn pc_out_of_range_is_an_error() {
        let mut asm = Asm::new();
        asm.nop();
        let prog = asm.finish().unwrap();
        let mut cpu = Cpu::new();
        cpu.pc = 17;
        let mut mem = SparseMemory::new();
        assert_eq!(cpu.step(&prog, &mut mem), Err(ExecError::PcOutOfRange { pc: 17 }));
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let prog = fib_program();
        // Uninterrupted reference run.
        let mut ref_cpu = Cpu::new();
        let mut ref_mem = SparseMemory::new();
        ref_cpu.run(&prog, &mut ref_mem, 10_000).unwrap();

        // Checkpoint mid-run, round-trip through bytes, resume.
        let mut cpu = Cpu::new();
        let mut mem = SparseMemory::new();
        cpu.run(&prog, &mut mem, 17).unwrap();
        let ck = cpu.checkpoint();
        let bytes = ck.to_bytes();
        let back = CpuCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
        let mut resumed = Cpu::from_checkpoint(&back);
        resumed.run(&prog, &mut mem, 10_000).unwrap();
        assert_eq!(resumed.regs(), ref_cpu.regs());
        assert_eq!(resumed.pc(), ref_cpu.pc());
        assert_eq!(resumed.retired(), ref_cpu.retired());
        assert_eq!(resumed.is_halted(), ref_cpu.is_halted());
    }

    #[test]
    fn checkpoint_bytes_reject_corruption() {
        let ck = Cpu::new().checkpoint();
        let mut bytes = ck.to_bytes();
        assert!(CpuCheckpoint::from_bytes(&bytes[1..]).is_err());
        // The halted flag is 0 or 1; any other byte is not an encoder's.
        let halted = 4 + NUM_REGS * 8 + 8;
        bytes[halted] = 2;
        assert_eq!(
            CpuCheckpoint::from_bytes(&bytes),
            Err(DecodeError::Invalid { field: "halted" })
        );
        bytes[halted] = 0;
        bytes[0] ^= 0xff;
        assert!(CpuCheckpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn warming_run_streams_accesses_and_branches() {
        #[derive(Default)]
        struct Tally {
            loads: u64,
            stores: u64,
            branches: u64,
            taken: u64,
        }
        impl WarmSink for Tally {
            fn load(&mut self, _pc: usize, _addr: u64, _width: u64) {
                self.loads += 1;
            }
            fn store(&mut self, _pc: usize, _addr: u64, _width: u64) {
                self.stores += 1;
            }
            fn branch(&mut self, _pc: usize, taken: bool) {
                self.branches += 1;
                self.taken += taken as u64;
            }
        }

        let mut asm = Asm::new();
        let (base, i, n, t, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        asm.li(base, 0x1000);
        asm.li(i, 0);
        asm.li(n, 4);
        let top = asm.here();
        asm.st8_idx(t, base, i, 3);
        asm.ld8_idx(t, base, i, 3);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.halt();
        let prog = asm.finish().unwrap();

        let mut cpu = Cpu::new();
        let mut mem = SparseMemory::new();
        let mut sink = Tally::default();
        cpu.run_warming(&prog, &mut mem, 10_000, &mut sink).unwrap();
        assert!(cpu.is_halted());
        assert_eq!(sink.loads, 4);
        assert_eq!(sink.stores, 4);
        assert_eq!(sink.branches, 4);
        assert_eq!(sink.taken, 3);

        // The warming run is architecturally identical to a plain run.
        let mut plain = Cpu::new();
        let mut plain_mem = SparseMemory::new();
        plain.run(&prog, &mut plain_mem, 10_000).unwrap();
        assert_eq!(plain.regs(), cpu.regs());
        assert_eq!(plain_mem.checksum(), mem.checksum());
    }

    #[test]
    fn lane_exec_suppresses_stores() {
        let mut asm = Asm::new();
        asm.st8(Reg::R2, Reg::R1, 0);
        asm.ld8(Reg::R3, Reg::R1, 0);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mem = SparseMemory::new();
        let mut regs = [0u64; NUM_REGS];
        regs[Reg::R1.index()] = 0x1000;
        regs[Reg::R2.index()] = 55;

        let e0 = exec_lane(&prog, 0, &mut regs, &mem);
        assert_eq!(e0.store, Some((0x1000, 8)));
        assert_eq!(e0.load, None);
        // The store did not land: the load reads 0.
        let e1 = exec_lane(&prog, e0.next_pc, &mut regs, &mem);
        assert_eq!(e1.load, Some((0x1000, 8)));
        assert_eq!(regs[Reg::R3.index()], 0);
        let e2 = exec_lane(&prog, e1.next_pc, &mut regs, &mem);
        assert!(e2.halted);
    }

    /// `for i { v = S[i]; x = B[v<<3]; acc ^= x }` with S declared secret.
    fn secret_gather_program() -> Program {
        let mut asm = Asm::new();
        let (s, b, i, n, v, x, acc, c) =
            (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R8);
        asm.secret(0x1000, 8 * 8);
        asm.li(s, 0x1000);
        asm.li(b, 0x8000);
        asm.li(i, 0);
        asm.li(n, 8);
        let top = asm.here();
        asm.ld8_idx(v, s, i, 3); // secret source
        asm.ld8_idx(x, b, v, 3); // transmitter: address derived from secret
        asm.xor(acc, acc, x);
        asm.addi(i, i, 1);
        asm.slt(c, i, n);
        asm.bnz(c, top);
        asm.halt();
        asm.finish().unwrap()
    }

    /// Replays `prog` with [`Cpu::step`], feeding every step to a fresh
    /// [`SecretTaint`] shadow.
    fn taint_replay(cpu: &mut Cpu, prog: &Program, mem: &mut SparseMemory) -> SecretTaint {
        let mut t = SecretTaint::default();
        while let StepEvent::Executed(step) = cpu.step(prog, mem).unwrap() {
            t.observe(prog, &step);
        }
        t
    }

    #[test]
    fn secret_taint_tracks_sources_and_transmitters() {
        let prog = secret_gather_program();
        let mut mem = SparseMemory::new();
        for k in 0..8u64 {
            mem.write_u64(0x1000 + 8 * k, k % 4);
        }
        let mut cpu = Cpu::new();
        let t = taint_replay(&mut cpu, &prog, &mut mem);
        assert_eq!(t.secret_reads, 8, "every S[i] read is a source");
        assert_eq!(t.tainted_addr_accesses, 8, "every B[v] is a transmitter");
        assert_eq!(t.transmit_pcs(), vec![(5, 8)]);
        assert_eq!(t.tainted_branches, 0, "the loop branch depends only on i");

        // The tracker is an observer: architectural state matches a plain run.
        let mut plain = Cpu::new();
        let mut plain_mem = SparseMemory::new();
        for k in 0..8u64 {
            plain_mem.write_u64(0x1000 + 8 * k, k % 4);
        }
        plain.run(&prog, &mut plain_mem, 10_000).unwrap();
        assert_eq!(plain.regs(), cpu.regs());
        assert_eq!(plain.retired(), cpu.retired());
    }

    #[test]
    fn secret_taint_flows_through_memory_and_clears() {
        // Store a secret-derived value to scratch, reload it, branch on it;
        // then overwrite the scratch word with a clean value and re-check.
        let mut asm = Asm::new();
        asm.secret(0x1000, 8);
        asm.li(Reg::R1, 0x1000);
        asm.li(Reg::R2, 0x2000);
        asm.ld8(Reg::R3, Reg::R1, 0); // secret
        asm.st8(Reg::R3, Reg::R2, 0); // taints word 0x2000
        asm.ld8(Reg::R4, Reg::R2, 0); // reload: tainted
        let skip = asm.label();
        asm.bez(Reg::R4, skip); // secret-dependent branch
        asm.bind(skip);
        asm.li(Reg::R5, 7);
        asm.st8(Reg::R5, Reg::R2, 0); // clean store clears the word
        asm.ld8(Reg::R6, Reg::R2, 0); // reload: clean
        asm.bez(Reg::R6, skip); // clean branch
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = SparseMemory::new();
        mem.write_u64(0x1000, 1);
        let t = taint_replay(&mut Cpu::new(), &prog, &mut mem);
        assert_eq!(t.secret_reads, 1);
        assert_eq!(t.tainted_branches, 1, "only the first branch sees taint");
        assert_eq!(t.tainted_addr_accesses, 0, "all addresses are constants");
    }

    #[test]
    fn lane_taint_step_tracks_a_gather_chain() {
        let prog = secret_gather_program();
        let mut mask: u16 = Reg::R5.bit(); // v loaded from a secret line
                                           // x = B[v<<3]: tainted address, transmits, taints x.
        let dep = *prog.fetch(5).unwrap();
        assert!(lane_taint_step(&prog, &dep, &mut mask, Some(0x8000)));
        assert_ne!(mask & Reg::R6.bit(), 0);
        // acc ^= x propagates through the ALU without transmitting.
        let alu = *prog.fetch(6).unwrap();
        assert!(!lane_taint_step(&prog, &alu, &mut mask, None));
        assert_ne!(mask & Reg::R7.bit(), 0);
        // slt c, i, n has clean sources: it clears a stale taint bit on c.
        mask |= Reg::R8.bit();
        let slt = *prog.fetch(8).unwrap();
        assert!(!lane_taint_step(&prog, &slt, &mut mask, None));
        assert_eq!(mask & Reg::R8.bit(), 0);
        // An untainted load from a secret address becomes a taint source.
        let mut clean: u16 = 0;
        let src = *prog.fetch(4).unwrap();
        assert!(!lane_taint_step(&prog, &src, &mut clean, Some(0x1008)));
        assert_ne!(clean & Reg::R5.bit(), 0);
    }

    #[test]
    fn lane_exec_branches_per_lane() {
        let mut asm = Asm::new();
        let skip = asm.label();
        asm.bnz(Reg::R1, skip);
        asm.li(Reg::R2, 7);
        asm.bind(skip);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mem = SparseMemory::new();

        let mut taken_lane = [0u64; NUM_REGS];
        taken_lane[Reg::R1.index()] = 1;
        let e = exec_lane(&prog, 0, &mut taken_lane, &mem);
        assert_eq!(e.branch_taken, Some(true));
        assert_eq!(e.next_pc, 2);

        let mut fall_lane = [0u64; NUM_REGS];
        let e = exec_lane(&prog, 0, &mut fall_lane, &mem);
        assert_eq!(e.branch_taken, Some(false));
        assert_eq!(e.next_pc, 1);
    }
}
