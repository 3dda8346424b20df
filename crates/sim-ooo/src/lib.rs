//! # sim-ooo — the cycle-level out-of-order core of the DVR simulator
//!
//! A 5-wide, 350-entry-ROB out-of-order core modelled after the paper's
//! Table 1 baseline (Ice-Lake-inspired), driven execution-first: the
//! functional [`sim_isa::Cpu`] executes the correct path at the fetch
//! frontier while this crate layers timing on top — register-dependency
//! wakeup, ROB/IQ/LSQ capacity, functional-unit contention, L1-D ports,
//! TAGE branch prediction with front-end redirect penalties, and memory
//! latencies through [`sim_mem::MemoryHierarchy`].
//!
//! Runahead techniques attach through the [`RunaheadEngine`] trait (see
//! `dvr-core`), which is invoked at the paper's architecturally meaningful
//! points: every dispatch (DVR's stride trigger and Discovery Mode), every
//! full-ROB stall with a pending load at the head (PRE/VR trigger), and
//! every demand-load issue (the Oracle).
//!
//! See [`OooCore`] for a runnable example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod config;
mod core;
mod engine;
mod error;
mod loop_pred;
mod sanitize;
mod stats;

pub use branch::{TageConfig, TagePredictor, TAGE_STATE_MAGIC};
pub use config::CoreConfig;
pub use core::{DynInst, OooCore, Step, StepSession};
pub use engine::{ArchSnapshot, EngineCtx, NullEngine, RunaheadEngine};
pub use error::{DeadlockSnapshot, SimError};
pub use loop_pred::LoopPredictor;
pub use sanitize::SanitizeReport;
pub use stats::{CoreStats, WorkCounters};
