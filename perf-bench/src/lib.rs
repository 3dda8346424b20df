//! # perf-bench — host-performance benchmark of the DVR simulator
//!
//! Four workloads ([`plan::Kind`]) each stress different simulator layers.
//! A plain run ([`run::run_plain`]) times closed-loop passes over a
//! workload's cells — one caller, one thread, each call waiting for the
//! last — and reports the end-to-end metrics of `BENCHMARK.json`. A traced
//! run ([`traced::run_traced`]) times each layer from outside through its
//! public calls and reports the per-layer metrics plus a Chrome trace.
//! Every cell's simulated statistics are checked: they must complete,
//! cover their ROI and repeat exactly. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod plan;
pub mod report;
pub mod run;
pub mod traced;
