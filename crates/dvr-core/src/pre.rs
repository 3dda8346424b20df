//! Precise Runahead Execution (Naithani et al., HPCA 2020) — baseline.
//!
//! On a full-ROB stall, PRE pre-executes the future instruction stream at
//! front-end width for the duration of the runahead interval (until the
//! blocking load returns), without flushing the pipeline afterwards.
//! Crucially, runahead values are *invalid* until their loads return: a
//! load whose data does not come back within the interval poisons its
//! destination, so PRE cannot prefetch past the first level of indirection
//! (paper Section 2.2) — modelled here with per-register validity bits.

use sim_isa::{Instr, NUM_REGS};
use sim_mem::{AccessClass, PrefetchSource};
use sim_ooo::{EngineCtx, RunaheadEngine};

/// Instructions pre-executed per runahead cycle (the front-end width).
const WIDTH: u64 = 5;

/// Hard cap on instructions per runahead interval. PRE pre-executes using
/// *recycled* back-end resources (free physical registers and issue-queue
/// entries), which bounds how far one interval can reach — roughly the
/// free-register count of the paper's 256-integer-register file.
const MAX_INSTRUCTIONS: u64 = 320;

/// Counters exposed for the harness and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct PreStats {
    /// Runahead intervals entered.
    pub episodes: u64,
    /// Instructions pre-executed in runahead mode.
    pub instructions: u64,
    /// Prefetches issued from runahead.
    pub prefetches: u64,
    /// Loads skipped because their address was poisoned (INV) — the
    /// indirect accesses PRE cannot reach.
    pub poisoned_loads: u64,
}

/// The PRE engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct PreEngine {
    stats: PreStats,
}

impl PreEngine {
    /// Counters accumulated so far.
    pub fn stats(&self) -> &PreStats {
        &self.stats
    }
}

impl RunaheadEngine for PreEngine {
    fn name(&self) -> &'static str {
        "pre"
    }

    fn on_full_rob_stall(&mut self, ctx: &mut EngineCtx<'_>, head_complete_at: u64) -> u64 {
        self.stats.episodes += 1;
        let interval_end = head_complete_at;
        let frontier = ctx.frontier.expect("a full-ROB stall carries the frontier");
        let mut regs = frontier.regs;
        let mut valid = [true; NUM_REGS];
        let mut pc = frontier.pc;
        let mut count: u64 = 0;

        loop {
            let t = ctx.cycle + count / WIDTH;
            if t >= interval_end || count >= MAX_INSTRUCTIONS {
                break;
            }
            let Some(instr) = ctx.prog.fetch(pc).copied() else { break };
            count += 1;
            let mut next_pc = pc + 1;
            match instr {
                Instr::Imm { rd, value } => {
                    regs[rd.index()] = value as u64;
                    valid[rd.index()] = true;
                }
                Instr::Alu { op, rd, ra, rb } => {
                    valid[rd.index()] = valid[ra.index()] && valid[rb.index()];
                    if valid[rd.index()] {
                        regs[rd.index()] = op.eval(regs[ra.index()], regs[rb.index()]);
                    }
                }
                Instr::AluImm { op, rd, ra, imm } => {
                    valid[rd.index()] = valid[ra.index()];
                    if valid[rd.index()] {
                        regs[rd.index()] = op.eval(regs[ra.index()], imm as u64);
                    }
                }
                Instr::Load { rd, addr, width } => {
                    let addr_valid = addr.regs().all(|r| valid[r.index()]);
                    if addr_valid {
                        let a = addr.effective(|r| regs[r.index()]);
                        let acc = ctx.hier.load(t, a, AccessClass::Prefetch(PrefetchSource::Pre));
                        self.stats.prefetches += 1;
                        if acc.complete_at <= interval_end {
                            // The data returns within the interval: the
                            // value is usable by dependents.
                            regs[rd.index()] = ctx.mem.read(a, width.bytes());
                            valid[rd.index()] = true;
                        } else {
                            valid[rd.index()] = false; // INV
                        }
                    } else {
                        self.stats.poisoned_loads += 1;
                        valid[rd.index()] = false;
                    }
                }
                Instr::Store { .. } => {
                    // Stores are dropped in runahead mode.
                }
                Instr::Branch { cond, rs, target } => {
                    // Poisoned predicate: predict fall-through.
                    if valid[rs.index()] && cond.taken(regs[rs.index()]) {
                        next_pc = target;
                    }
                }
                Instr::Jump { target } => next_pc = target,
                Instr::Nop => {}
                Instr::Halt => break,
            }
            pc = next_pc;
        }
        self.stats.instructions += count;
        // PRE does not block commit (no pipeline flush on exit either).
        ctx.cycle
    }
}
