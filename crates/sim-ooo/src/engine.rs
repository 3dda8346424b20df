//! The runahead-engine interface: how prefetching techniques plug into the
//! core.
//!
//! The timing core calls the active [`RunaheadEngine`] at three
//! architecturally meaningful points:
//!
//! * **every dispatched instruction** — DVR's stride detector and Discovery
//!   Mode observe the main thread's dynamic stream here (paper Section 4.1);
//! * **a full-ROB stall with a pending load at the head** — the classic
//!   runahead trigger used by PRE and VR (Sections 2.1, 2.3);
//! * **every demand load issue** — the Oracle overrides observed latency
//!   here.
//!
//! Engines receive an [`EngineCtx`] giving them the static program, the
//! frontier architectural state (at a full-ROB stall, the one hook that
//! reads it), the functional memory image (read-only:
//! runahead is transient), and mutable access to the shared memory
//! hierarchy — the same L1-D, MSHRs, and DRAM the main thread uses, which is
//! what makes interference and contention structural rather than modelled.

use sim_isa::{Cpu, Program, SparseMemory, NUM_REGS};
use sim_mem::MemoryHierarchy;

use crate::core::DynInst;

/// A copy of the architectural register file and PC at the fetch frontier.
#[derive(Clone, Copy, Debug)]
pub struct ArchSnapshot {
    /// Register values.
    pub regs: [u64; NUM_REGS],
    /// Program counter.
    pub pc: usize,
}

impl ArchSnapshot {
    /// Captures the state of a functional CPU.
    pub fn of(cpu: &Cpu) -> Self {
        ArchSnapshot { regs: cpu.regs(), pc: cpu.pc() }
    }
}

/// Everything an engine may touch when invoked by the core.
pub struct EngineCtx<'a> {
    /// Current cycle.
    pub cycle: u64,
    /// The static program (engines walk instruction slices through it).
    pub prog: &'a Program,
    /// Architectural state at the fetch frontier: `Some` for
    /// [`RunaheadEngine::on_full_rob_stall`], `None` for the per-instruction
    /// hooks, which would otherwise copy the register file on every call.
    pub frontier: Option<ArchSnapshot>,
    /// The live functional memory image (read-only: runahead must not
    /// perturb architectural state).
    pub mem: &'a SparseMemory,
    /// The shared memory hierarchy (runahead loads contend for the same
    /// MSHRs and DRAM bandwidth as the main thread).
    pub hier: &'a mut MemoryHierarchy,
}

/// A prefetching/runahead technique attached to the core.
///
/// All hooks have no-op defaults so a technique only implements the trigger
/// points it uses. The baseline core uses [`NullEngine`].
pub trait RunaheadEngine {
    /// Short technique name (for reports).
    fn name(&self) -> &'static str;

    /// Called for every instruction the main thread dispatches, in program
    /// order.
    fn on_dispatch(&mut self, ctx: &mut EngineCtx<'_>, di: &DynInst) {
        let _ = (ctx, di);
    }

    /// Called when dispatch is blocked by a full ROB whose head is a load
    /// still waiting on memory (`head_complete_at` is its fill time). Fired
    /// once per stall episode, with `ctx.frontier` set.
    ///
    /// Returns the cycle until which *commit* must additionally stay
    /// blocked. Returning `ctx.cycle` means "no extra blocking"; VR's
    /// delayed termination returns the end of its vectorized chain.
    fn on_full_rob_stall(&mut self, ctx: &mut EngineCtx<'_>, head_complete_at: u64) -> u64 {
        let _ = head_complete_at;
        ctx.cycle
    }

    /// Called as each demand load issues. Returning `Some(latency)` makes
    /// the core use `cycle + latency` as the load's completion instead of
    /// querying the hierarchy (the engine is then responsible for hierarchy
    /// accounting). Used by the Oracle.
    fn override_load(&mut self, ctx: &mut EngineCtx<'_>, addr: u64) -> Option<u64> {
        let _ = (ctx, addr);
        None
    }
}

/// The do-nothing engine: the plain out-of-order baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullEngine;

impl RunaheadEngine for NullEngine {
    fn name(&self) -> &'static str {
        "ooo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_captures_cpu() {
        let mut cpu = Cpu::new();
        cpu.set_reg(sim_isa::Reg::R3, 99);
        let s = ArchSnapshot::of(&cpu);
        assert_eq!(s.regs[3], 99);
        assert_eq!(s.pc, 0);
    }

    #[test]
    fn null_engine_defaults() {
        let mut e = NullEngine;
        assert_eq!(e.name(), "ooo");
        let prog = sim_isa::Asm::new().finish().unwrap();
        let mem = SparseMemory::new();
        let mut hier = MemoryHierarchy::new(sim_mem::HierarchyConfig::default());
        let cpu = Cpu::new();
        let mut ctx = EngineCtx {
            cycle: 7,
            prog: &prog,
            frontier: Some(ArchSnapshot::of(&cpu)),
            mem: &mem,
            hier: &mut hier,
        };
        assert_eq!(e.on_full_rob_stall(&mut ctx, 100), 7);
        assert_eq!(e.override_load(&mut ctx, 0x1000), None);
    }
}
