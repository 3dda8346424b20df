//! # sim-lint — static analysis of `sim-isa` programs
//!
//! Lifts an assembled [`Program`] into a control-flow graph, runs dominator
//! and reaching-definitions dataflow over it, and reports typed
//! [`Diagnostic`]s:
//!
//! * **uninit-read** (warning) — a register read before any write on some
//!   path; well-defined (registers are architecturally zero) but usually a
//!   workload bug.
//! * **unreachable-block** (warning) — dead code no entry path reaches.
//! * **bad-branch-target** (error) — a branch/jump past the end of the
//!   program (`target == len` is the ISA's legal fall-off halt).
//! * **infinite-loop** (error) — a loop with no exit edge; the message
//!   notes whether the loop at least makes memory progress.
//!
//! On top of the CFG, a **Discovery-Mode conformance pass**
//! ([`find_loops`]) classifies every natural loop the way DVR's Discovery
//! Mode would see it — striding induction vs. none, cmp+branch loop-bound
//! idiom vs. irregular control, striding and dependent load chains — to
//! statically predict which loops vector runahead can cover
//! ([`LoopClass`]).
//!
//! The deeper passes share one [`StaticModel`]: the CFG, def-use graph,
//! constants, loops, intervals, address classes, dependences and the
//! Discovery coverage prediction, built once per program. The secret-taint
//! pass ([`analyze_taint`]) and the bounds verifier ([`check_bounds`]) read
//! it and report through the same [`Diagnostic`] type.
//!
//! ## Example
//!
//! ```
//! let prog = sim_isa::parse_program(
//!     "li r1, 4096
//!      li r2, 0
//!      li r3, 8
//!      li r4, 0
//!  top:
//!      ld8 r5, [r1 + r2<<3 + 0]
//!      add r4, r4, r5
//!      addi r2, r2, 1
//!      slt r6, r2, r3
//!      bnz r6, top
//!      halt",
//! )?;
//! let report = sim_lint::analyze(&prog);
//! assert!(report.is_clean());
//! assert_eq!(report.loops.len(), 1);
//! assert_eq!(report.loops[0].class, sim_lint::LoopClass::VectorizableStride);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absint;
mod addr;
mod bounds;
mod cfg;
mod dataflow;
mod deps;
mod dfg;
mod diag;
mod loops;
mod model;
mod predict;
mod taint;

use sim_isa::{Instr, Program, Reg};

pub use absint::{
    addr_interval_in, alu_interval, analyze_intervals, AbsInt, Interval, RegIntervals,
};
pub use addr::{
    analyze_addresses, analyze_addresses_with, AddrAnalysis, AddrClass, LoopAddr, MemOp,
    MAX_CHASE_DEPTH,
};
pub use bounds::{check_bounds, BoundsReport, BoundsVerdict, MemOpBounds};
pub use cfg::{Block, Cfg};
pub use dataflow::{dominators, may_uninit, reachable, BlockSet, UninitAnalysis};
pub use deps::{analyze_deps, dependents_of, refine_rmw, AliasEdge, AliasReason, LoopDeps};
pub use dfg::{const_of_defs, const_use, known_constants, DefSet, DefUseGraph, UseSite};
pub use diag::{Diagnostic, LintKind, LintReport, Severity};
pub use loops::{find_loops, LoopClass, LoopInfo};
pub use model::StaticModel;
pub use predict::{
    predict_coverage, CoveragePrediction, PredictedChain, SkipReason, DETECTOR_SLOTS,
    MIN_TRIPS_TO_SPAWN,
};
pub use taint::{analyze_taint, TaintReport};

/// Analyzes a program and returns every diagnostic plus the loop
/// classification. Equivalent to [`analyze_instrs`] on `prog.instrs()`.
pub fn analyze(prog: &Program) -> LintReport {
    analyze_instrs(prog.instrs())
}

/// Analyzes a raw instruction sequence (useful for testing programs that
/// the assembler and parser would reject, e.g. out-of-range targets).
pub fn analyze_instrs(instrs: &[Instr]) -> LintReport {
    let cfg = Cfg::build(instrs);
    let mut diags = Vec::new();

    // Malformed control targets: `target > len` can never execute (the
    // parser rejects these too; this covers programs built in memory).
    for (pc, instr) in instrs.iter().enumerate() {
        if let Some(t) = instr.target() {
            if t > instrs.len() {
                diags.push(Diagnostic::new(
                    LintKind::BadBranchTarget,
                    pc,
                    format!("branch target {t} is past the end of the program ({})", instrs.len()),
                ));
            }
        }
    }

    // Unreachable blocks, reported once at the block's first pc.
    let reach = reachable(&cfg);
    for (bi, block) in cfg.blocks.iter().enumerate() {
        if !reach.contains(bi) {
            diags.push(Diagnostic::new(
                LintKind::UnreachableBlock,
                block.start,
                format!("block at pc {}..{} is unreachable from the entry", block.start, block.end),
            ));
        }
    }

    // May-uninitialized register reads.
    let uninit = may_uninit(&cfg, instrs);
    for &(pc, reg) in &uninit.reads {
        let r = Reg::from_index(reg).expect("analysis yields valid register indices");
        diags.push(Diagnostic::new(
            LintKind::UninitRead,
            pc,
            format!("{r} may be read before its first write (registers reset to 0)"),
        ));
    }

    // Loop extraction + inescapable-loop detection.
    let loops = find_loops(&cfg, instrs);
    for l in &loops {
        if !l.has_exit {
            let progress = if l.stores == 0 {
                " and makes no memory progress"
            } else {
                " (it stores, but can still never halt)"
            };
            diags.push(Diagnostic::new(
                LintKind::InfiniteLoop,
                l.head_pc,
                format!("loop at pc {} has no exit path{progress}", l.head_pc),
            ));
        }
    }

    diags.sort_by_key(|d| (d.pc, d.kind));
    LintReport { diags, loops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::parse_program;

    #[test]
    fn clean_program_is_clean() {
        let p = parse_program(
            "li r1, 4096\nli r2, 0\nli r3, 8\nli r4, 0\ntop:\n\
             ld8 r5, [r1 + r2<<3 + 0]\nadd r4, r4, r5\naddi r2, r2, 1\n\
             slt r6, r2, r3\nbnz r6, top\nhalt",
        )
        .unwrap();
        let r = analyze(&p);
        assert!(r.is_clean());
        assert_eq!(r.warnings(), 0);
        assert_eq!(r.loops.len(), 1);
    }

    #[test]
    fn uninit_read_is_a_warning_with_source_line() {
        let p = parse_program("add r3, r1, r2\nhalt").unwrap();
        let r = analyze(&p);
        assert!(r.is_clean()); // warnings don't fail the lint
        assert_eq!(r.warnings(), 2);
        assert_eq!(r.diags[0].kind, LintKind::UninitRead);
        let rendered = r.diags[0].render(Some(&p));
        assert!(rendered.contains("warning[uninit-read]"), "{rendered}");
        assert!(rendered.contains("line 1"), "{rendered}");
    }

    #[test]
    fn dead_loop_is_an_error() {
        let p = parse_program("top:\njmp top\nhalt").unwrap();
        let r = analyze(&p);
        assert_eq!(r.errors(), 1);
        let d = r.diags.iter().find(|d| d.kind == LintKind::InfiniteLoop).unwrap();
        assert!(d.message.contains("no memory progress"));
        // The halt after the loop is dead code.
        assert!(r.diags.iter().any(|d| d.kind == LintKind::UnreachableBlock));
    }

    #[test]
    fn bad_target_is_an_error() {
        // The parser rejects targets > len, so build the program in memory.
        let instrs = vec![Instr::Jump { target: 99 }, Instr::Halt];
        let r = analyze_instrs(&instrs);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.diags[0].kind, LintKind::BadBranchTarget);
        assert_eq!(r.diags[0].pc, 0);
    }

    #[test]
    fn empty_program_is_clean() {
        let r = analyze_instrs(&[]);
        assert!(r.is_clean());
        assert!(r.loops.is_empty());
    }
}
