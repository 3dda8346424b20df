//! # sim-sample — checkpointed sampled simulation for the DVR reproduction
//!
//! Every figure of the reproduction pays full cycle-level cost for every
//! instruction. This crate implements SMARTS-style *sampled* simulation so
//! medium/large sweeps become tractable: the program fast-forwards through
//! the functional executor (warming cache tags and branch-predictor tables
//! as it goes), runs a short detailed *warmup* to refill pipeline-coupled
//! state, then measures a detailed *interval* on the full OoO model. The
//! per-interval IPC samples aggregate into a [`SampledReport`] with mean,
//! variance, and a 95% confidence interval, which callers compare against
//! the exact run to report measured error.
//!
//! Sampling is *checkpoint-parallel*: one functional pass
//! ([`stream_checkpoints`]) takes a versioned [`PeriodCheckpoint`] at
//! every period's warmup start and hands it on at once
//! ([`emit_checkpoints`] collects them all), then each period is measured
//! independently from its checkpoint ([`measure_period`]) — in this
//! thread, a worker thread, or a worker process answering with the
//! integer image of [`PeriodResult::to_bytes`] — and
//! [`merge_periods`] recombines the results into a [`SampledRun`] that
//! is byte-identical regardless of where the periods ran. One driver,
//! [`drive_sampled`], composes the phases for every entry point, and
//! images share memory pages with one copy of the workload image
//! ([`sim_isa::SparseMemory::shared_clone`]).
//!
//! The subsystem is built from cross-layer hooks added alongside it:
//!
//! * `sim-isa` — architectural checkpoints ([`sim_isa::CpuCheckpoint`],
//!   [`sim_isa::MemoryCheckpoint`]) and the functional fast-forward mode
//!   ([`sim_isa::Cpu::run_warming`] streaming through a
//!   [`sim_isa::WarmSink`]);
//! * `sim-mem` — tag/LRU-only warming fills
//!   ([`sim_mem::MemoryHierarchy::warm_touch`]) and the typed warm tag
//!   arrays each period's hierarchy is built around
//!   ([`sim_mem::WarmCaches`]);
//! * `sim-ooo` — cores seeded from carried architectural state
//!   ([`sim_ooo::OooCore::with_state`]).
//!
//! ## Example
//!
//! ```
//! use sim_isa::{Asm, Reg, SparseMemory};
//! use sim_mem::HierarchyConfig;
//! use sim_ooo::{CoreConfig, NullEngine};
//! use sim_sample::{run_sampled, SampleConfig};
//!
//! // A long pointer-free loop: 4 instructions per iteration.
//! let mut asm = Asm::new();
//! asm.li(Reg::R1, 100_000);
//! let top = asm.here();
//! asm.addi(Reg::R2, Reg::R2, 3);
//! asm.addi(Reg::R1, Reg::R1, -1);
//! asm.bnz(Reg::R1, top);
//! asm.halt();
//! let prog = asm.finish()?;
//!
//! let scfg = SampleConfig::default()
//!     .with_interval(2_000)
//!     .with_warmup(500)
//!     .with_period(10_000)
//!     .with_max_instructions(100_000);
//! let run = run_sampled(
//!     &prog,
//!     &SparseMemory::new(),
//!     CoreConfig::default(),
//!     HierarchyConfig::default(),
//!     &scfg,
//!     || Box::new(NullEngine),
//! )?;
//! assert!(run.report.intervals.len() > 1);
//! assert!(run.report.ipc_mean > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod config;
mod driver;
mod rng;
mod stats;
mod warm;

pub use checkpoint::{PeriodCheckpoint, PERIOD_CKPT_MAGIC, PERIOD_CKPT_VERSION};
pub use config::{Placement, SampleConfig};
pub use driver::{
    drive_sampled, emit_checkpoints, measure_period, merge_periods, run_sampled,
    stream_checkpoints, EmitResult, PeriodResult, SampleError, SampledRun,
};
pub use rng::SplitMix64;
pub use stats::{student_t_975, IntervalStat, SampledReport};
pub use warm::WarmingSink;
