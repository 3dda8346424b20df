//! Vector Runahead (Naithani et al., ISCA 2021) — the paper's main
//! baseline (Section 2.3).
//!
//! VR triggers only on a full-ROB stall with a load miss at the head. It
//! scans the future instruction stream for a striding load, vectorizes 128
//! scalar-equivalent lanes of the dependent chain, and follows lane 0's
//! control flow (diverging lanes are invalidated). It has no loop-bound
//! analysis, so it over-fetches past short loops, and its *delayed
//! termination* keeps commit blocked until the whole chain has issued —
//! the two behaviours DVR's Discovery Mode and decoupling remove.

use sim_isa::Instr;
use sim_ooo::{DynInst, EngineCtx, RunaheadEngine};

use crate::detector::StrideDetector;
use crate::walker::{stride_seeds, walk_vectorized, Termination, WalkPolicy, MAX_LANES};

/// Instructions VR scans ahead of the stall for a striding load.
const SCAN_BUDGET: usize = 200;

/// Counters exposed for the harness and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct VrStats {
    /// Runahead episodes entered.
    pub episodes: u64,
    /// Stalls where no striding load was found (no runahead).
    pub no_stride_found: u64,
    /// Scalar-equivalent lane loads issued.
    pub lane_loads: u64,
    /// Lanes invalidated by control-flow divergence.
    pub lanes_lost: u64,
    /// Total cycles commit stayed blocked past the stalling load's return
    /// (delayed termination).
    pub delayed_termination_cycles: u64,
}

/// The Vector Runahead engine: it vectorizes [`MAX_LANES`] lanes per
/// episode, bounds unknown, under [`WalkPolicy::vr`].
#[derive(Clone, Debug)]
pub struct VrEngine {
    detector: StrideDetector,
    stats: VrStats,
}

impl Default for VrEngine {
    fn default() -> Self {
        VrEngine { detector: StrideDetector::new(32), stats: VrStats::default() }
    }
}

impl VrEngine {
    /// Counters accumulated so far.
    pub fn stats(&self) -> &VrStats {
        &self.stats
    }
}

impl RunaheadEngine for VrEngine {
    fn name(&self) -> &'static str {
        "vr"
    }

    fn on_dispatch(&mut self, _ctx: &mut EngineCtx<'_>, di: &DynInst) {
        if let (true, Some(m)) = (di.is_load(), di.mem) {
            self.detector.observe(di.pc, m.addr);
        }
    }

    fn on_full_rob_stall(&mut self, ctx: &mut EngineCtx<'_>, head_complete_at: u64) -> u64 {
        // Scan the future stream (from the fetch frontier) for a confident
        // striding load to vectorize from.
        let frontier = ctx.frontier.expect("a full-ROB stall carries the frontier");
        let mut regs = frontier.regs;
        let detector = &self.detector;
        let found = crate::walker::walk_scalar_until(
            ctx.prog,
            ctx.mem,
            &mut regs,
            frontier.pc,
            SCAN_BUDGET,
            None,
            |pc, instr, _| instr.is_load() && detector.lookup(pc).is_some_and(|e| e.is_confident()),
        );
        let Some(stride_pc) = found else {
            self.stats.no_stride_found += 1;
            return ctx.cycle;
        };
        let entry = *self.detector.lookup(stride_pc).expect("matched in scan");
        let Some(Instr::Load { addr, .. }) = ctx.prog.fetch(stride_pc) else {
            return ctx.cycle;
        };
        let trigger_addr = addr.effective(|r| regs[r.index()]);

        // Vectorize 128 lanes blindly — VR has no loop-bound inference.
        let seeds = stride_seeds(regs, trigger_addr, entry.stride, MAX_LANES);
        let out = walk_vectorized(
            ctx.prog,
            ctx.mem,
            ctx.hier,
            ctx.cycle,
            &seeds,
            Termination { flr_pc: None, stride_pc },
            &WalkPolicy::vr(),
        );
        self.stats.episodes += 1;
        self.stats.lane_loads += out.lane_loads;
        self.stats.lanes_lost += out.lanes_lost as u64;
        if out.issue_done > head_complete_at {
            self.stats.delayed_termination_cycles += out.issue_done - head_complete_at;
        }
        // Delayed termination: commit stays blocked until the prefetches
        // for the entire chain have been *generated* (not filled).
        out.issue_done
    }
}
