//! # sim-isa — the instruction set of the DVR simulator
//!
//! A minimal, deterministic RISC-like instruction set used as the substrate
//! for the Decoupled Vector Runahead (MICRO 2023) reproduction. The paper
//! evaluates x86 binaries under the Sniper simulator; we substitute this ISA
//! so the whole stack can be built from scratch:
//!
//! * **16 integer architectural registers** — so DVR's Vector Taint Tracker
//!   is literally the paper's 16-bit register (Section 4.1.2) and the VRAT a
//!   16-entry table (Section 4.2.1).
//! * **Indexed addressing** (`base + (index << scale) + offset`) — the idiom
//!   behind striding and indirect loads in graph/database/HPC kernels.
//! * **Compare + branch-on-register** — the `cmp`/`branch` pair Discovery
//!   Mode's Loop-Bound Detector keys on (Section 4.1.3).
//!
//! The crate provides the instruction definition ([`Instr`]), an assembler
//! with labels ([`Asm`]), a byte-addressed sparse memory ([`SparseMemory`]),
//! and a functional executor ([`Cpu`]) that drives the execution-driven
//! timing model in `sim-ooo`.
//!
//! ## Example
//!
//! ```
//! use sim_isa::{Asm, Cpu, Reg, SparseMemory, StepEvent};
//!
//! // sum = a[0] + a[1] + ... + a[7]
//! let mut asm = Asm::new();
//! let (base, i, n, sum, tmp) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
//! asm.li(base, 0x1000);
//! asm.li(i, 0);
//! asm.li(n, 8);
//! asm.li(sum, 0);
//! let loop_top = asm.here();
//! asm.ld8_idx(tmp, base, i, 3); // tmp = mem[base + i*8]
//! asm.add(sum, sum, tmp);
//! asm.addi(i, i, 1);
//! let cond = Reg::R6;
//! asm.slt(cond, i, n);
//! asm.bnz(cond, loop_top);
//! asm.halt();
//! let prog = asm.finish()?;
//!
//! let mut mem = SparseMemory::new();
//! for k in 0..8u64 {
//!     mem.write_u64(0x1000 + 8 * k, k + 1);
//! }
//! let mut cpu = Cpu::new();
//! while let StepEvent::Executed(_) = cpu.step(&prog, &mut mem)? {}
//! assert_eq!(cpu.reg(sum), 36);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
pub mod bytes;
mod exec;
pub mod fxhash;
mod instr;
mod mem;
mod parse;
mod reg;

pub use asm::{Asm, AsmError, Label};
pub use exec::{
    exec_lane, lane_taint_step, BoundsTracker, Cpu, CpuCheckpoint, ExecError, LaneEffect,
    MemAccess, NullWarmSink, SecretTaint, Step, StepEvent, WarmSink,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use instr::{
    validate_regions, validate_secrets, AluOp, BranchCond, Instr, MemAddr, MemWidth, Program,
    RegionError, SecretRangeError,
};
pub use mem::{FrozenPages, MemoryCheckpoint, RunningDelta, SparseMemory};
pub use parse::{parse_program, ParseError};
pub use reg::{Reg, NUM_REGS};
