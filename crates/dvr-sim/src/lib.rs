//! # dvr-sim — top-level simulator facade for the DVR reproduction
//!
//! Wires the substrates together — ISA ([`sim_isa`]), memory hierarchy
//! ([`sim_mem`]), out-of-order core ([`sim_ooo`]), runahead engines
//! ([`dvr_core`]), and benchmarks ([`workloads`]) — behind one call:
//! [`simulate`]. This is the API the examples, integration tests, and the
//! figure-regeneration harness consume.
//!
//! ## Example
//!
//! ```
//! use dvr_sim::{simulate, SimConfig, Technique};
//! use workloads::{Benchmark, GraphInput, SizeClass};
//!
//! let wl = Benchmark::Bfs.build(Some(GraphInput::Ur), SizeClass::Test, 42);
//! let base = simulate(&wl, &SimConfig::new(Technique::Baseline).with_max_instructions(50_000));
//! let dvr = simulate(&wl, &SimConfig::new(Technique::Dvr).with_max_instructions(50_000));
//! assert!(base.ipc > 0.0);
//! assert!(dvr.ipc > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod audit_core;
mod bounds_audit;
mod config;
mod leak_audit;
mod multi;
mod report;
mod runner;
mod sample;
pub mod sweep;

pub use audit::{audit_benchmark, AuditReport, DivergenceKind, Justification};
pub use audit_core::{Divergence, Divergences};
pub use bounds_audit::{
    bounds_audit_attack, bounds_audit_benchmark, bounds_audit_oob, bounds_audit_workload,
    BoundsAuditReport, BoundsDivergenceKind, BoundsJustification, PcExtents,
};
pub use config::{SimConfig, Technique};
pub use leak_audit::{
    leak_audit_attack, leak_audit_benchmark, leak_audit_workload, FillSummary, LeakAuditReport,
    LeakDivergenceKind, LeakJustification,
};
pub use multi::{
    evaluate_mix, simulate_mix, ConfigError, MixCore, MixEvaluation, MixReport, MixSpec,
};
pub use report::{EngineSummary, RunOutcome, SamplingSummary, SimReport};
pub use runner::{simulate, simulate_observed, Observed};
pub use sample::{
    engine_factory, measure_emitted, measure_periods_via_workers, sample_emit, sample_worker_args,
    sampled_report_from, simulate_sampled, simulate_sampled_cells, simulate_sampled_configs,
    simulate_sampled_threads, Measure,
};
pub use sweep::{
    cache_key, decode_report, encode_report, lookup_report, report_key, store_report,
    DvrSweepRunner, SweepCell,
};

// The crash-safe sweep substrate (journal, result cache, supervisor) and
// the one fan-out every grid runner uses.
pub use sim_sweep;
pub use sim_sweep::{parallel_map, resolve_threads, try_parallel_map, CellError};

// Re-export the pieces users need to assemble custom setups.
pub use dvr_core::{DvrConfig, DvrEngine, DvrTrace, OracleEngine, PreEngine, TraceEvent, VrEngine};
pub use sim_lint;
pub use sim_mem::{
    FaultConfig, FaultEvent, FaultKind, HierarchyConfig, LaneObservations, MemStats,
    MemoryHierarchy, PrefetchSource, TaintFill, TimelinessBucket,
};
pub use sim_multi::{Component, ComponentId, Scheduler, SchedulerStats, Tick};
pub use sim_ooo::SanitizeReport;
pub use sim_ooo::{CoreConfig, CoreStats, DeadlockSnapshot, NullEngine, OooCore, SimError};
pub use sim_sample::{
    merge_periods, EmitResult, PeriodCheckpoint, PeriodResult, Placement, SampleConfig,
    SampleError, SampledReport, SampledRun,
};
pub use workloads::{Benchmark, GraphInput, SizeClass, Workload};
