//! The static model: every analysis the lint passes and audits read,
//! built once per program.

use sim_isa::{Program, SparseMemory};

use crate::absint::{intervals_over, AbsInt};
use crate::addr::{addresses_over, AddrAnalysis};
use crate::cfg::Cfg;
use crate::deps::{analyze_deps, LoopDeps};
use crate::dfg::{known_constants, DefUseGraph};
use crate::loops::{find_loops, LoopInfo};
use crate::predict::{predict_coverage, CoveragePrediction};

/// One program's static model. [`analyze_taint`](crate::analyze_taint),
/// [`check_bounds`](crate::check_bounds) and the Discovery audit all read
/// it, so every pass escalates from one coverage prediction.
pub struct StaticModel {
    /// The control-flow graph.
    pub cfg: Cfg,
    /// The reaching-definitions def-use graph over `cfg`.
    pub dfg: DefUseGraph,
    /// Natural loops with their Discovery-Mode classification.
    pub loops: Vec<LoopInfo>,
    /// The interval analysis, with content bounds when a memory image was
    /// given.
    pub intervals: AbsInt,
    /// Address classes and trip counts; owns the propagated constants
    /// ([`AddrAnalysis::known`]).
    pub addr: AddrAnalysis,
    /// Per-loop memory dependences.
    pub deps: Vec<LoopDeps>,
    /// The Discovery coverage prediction.
    pub coverage: CoveragePrediction,
}

impl StaticModel {
    /// Runs CFG → def-use graph → constants → loops → intervals →
    /// addresses → dependences → coverage prediction over `prog`, building
    /// each once. `mem` (the workload's initial memory image) gives the
    /// interval analysis read-only-region content bounds, and through them
    /// trip bounds for loops whose bound is loaded from memory; `None`
    /// weakens precision but stays sound.
    pub fn build(prog: &Program, mem: Option<&SparseMemory>) -> StaticModel {
        let instrs = prog.instrs();
        let cfg = Cfg::build(instrs);
        let dfg = DefUseGraph::build(&cfg, instrs);
        let known = known_constants(instrs, &dfg);
        let loops = find_loops(&cfg, instrs);
        let intervals = intervals_over(prog, &cfg, &dfg, &known, mem);
        let addr = addresses_over(&cfg, instrs, &dfg, known, &loops, Some(&intervals));
        let deps = analyze_deps(&addr, &loops);
        let coverage = predict_coverage(&cfg, instrs, &loops, &addr, &deps);
        StaticModel { cfg, dfg, loops, intervals, addr, deps, coverage }
    }
}
