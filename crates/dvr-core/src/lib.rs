//! # dvr-core — Decoupled Vector Runahead and its baselines
//!
//! The primary contribution of *"Decoupled Vector Runahead"* (MICRO 2023)
//! plus every runahead technique the paper evaluates against, implemented
//! as [`sim_ooo::RunaheadEngine`]s that plug into the cycle-level core:
//!
//! | Engine | Paper role |
//! |---|---|
//! | [`DvrEngine`] | the contribution: decoupled, in-order, SIMT vector-runahead subthread with Discovery Mode and Nested Vector Runahead |
//! | [`VrEngine`] | Vector Runahead (ISCA '21) baseline: full-ROB-trigger, lane-0 control flow, delayed termination |
//! | [`PreEngine`] | Precise Runahead Execution (HPCA '20) baseline: INV-poisoned future-stream pre-execution |
//! | [`OracleEngine`] | the perfect-knowledge upper bound |
//!
//! The shared machinery — the 32-entry [`StrideDetector`], Discovery Mode
//! ([`Discovery`], taint tracker, FLR/LCR/SBB, loop-bound inference), and
//! the vectorized lane [`walker`](walk_vectorized) with its reconvergence
//! stack — maps one-to-one onto the paper's Section 4 hardware structures.
//!
//! ## Example
//!
//! ```
//! use dvr_core::{DvrConfig, DvrEngine};
//! use sim_isa::{Asm, Reg, SparseMemory};
//! use sim_mem::{HierarchyConfig, MemoryHierarchy};
//! use sim_ooo::{CoreConfig, OooCore};
//!
//! // B[A[i]] over a large array: DVR should spawn subthreads.
//! let mut asm = Asm::new();
//! let (a, b, i, n, v, w, c) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7);
//! asm.li(a, 0x100000); asm.li(b, 0x200000); asm.li(i, 0); asm.li(n, 5000);
//! let top = asm.here();
//! asm.ld8_idx(v, a, i, 3);
//! asm.ld8_idx(w, b, v, 3);
//! asm.addi(i, i, 1);
//! asm.slt(c, i, n);
//! asm.bnz(c, top);
//! asm.halt();
//! let prog = asm.finish()?;
//!
//! let mut mem = SparseMemory::new();
//! for k in 0..5000u64 { mem.write_u64(0x100000 + 8 * k, (k * 7919) % 65536); }
//!
//! let mut engine = DvrEngine::new(DvrConfig::default());
//! let mut core = OooCore::new(CoreConfig::default());
//! let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
//! core.run(&prog, &mut mem, &mut hier, &mut engine, 200_000)?;
//! assert!(engine.stats().episodes > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod discovery;
mod dvr;
mod hardware;
mod oracle;
mod pre;
mod trace;
mod vr;
mod walker;

pub use detector::{DetectorEntry, StrideDetector};
pub use discovery::{BoundSrc, CmpInfo, DiscoveredChain, Discovery, DiscoveryEvent, ShadowRegs};
pub use dvr::{DvrConfig, DvrEngine, DvrStats};
pub use hardware::{BudgetEntry, HardwareBudget};
pub use oracle::{OracleEngine, OracleStats};
pub use pre::{PreEngine, PreStats};
pub use trace::{DvrTrace, PcSummary, TraceEvent};
pub use vr::{VrEngine, VrStats};
pub use walker::{
    fixup_address_regs, stride_seeds, stride_seeds_from, walk_scalar_until, walk_vectorized,
    DivergenceMode, LaneSeed, Termination, WalkOutcome, WalkPolicy, ABSOLUTE_MAX_LANES, MAX_LANES,
    VECTOR_WIDTH,
};
