//! # sim-mem — cycle-level memory hierarchy for the DVR simulator
//!
//! Models the memory system of the paper's Table 1 baseline:
//!
//! * 32 KB / 8-way L1-D (4-cycle), 256 KB / 8-way private L2 (8-cycle),
//!   8 MB / 16-way shared L3 (30-cycle), all LRU;
//! * **24 MSHRs** tracking outstanding L1-D misses — the structure whose
//!   occupancy *is* memory-level parallelism (paper Figure 9);
//! * DRAM with 50 ns minimum latency and a request-based bandwidth
//!   contention model (51.2 GB/s ⇒ one 64 B line per 5 cycles at 4 GHz);
//! * an always-on L1-D **stride prefetcher** (Reference Prediction Table,
//!   16 streams) and the **IMP** indirect-memory-prefetcher baseline.
//!
//! Every cache line carries *prefetch provenance* so the harness can
//! regenerate the paper's accuracy/coverage (Figure 10) and timeliness
//! (Figure 11) plots: which engine brought a line in, and at which level the
//! main thread eventually found it.
//!
//! ## Example
//!
//! ```
//! use sim_mem::{AccessClass, HierarchyConfig, HitLevel, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
//! // Cold miss goes to DRAM...
//! let a = mem.load(0, 0x4000, AccessClass::Demand);
//! assert_eq!(a.level, HitLevel::Mem);
//! // ...and the line then hits in L1.
//! let b = mem.load(a.complete_at, 0x4000, AccessClass::Demand);
//! assert_eq!(b.level, HitLevel::L1);
//! assert_eq!(b.complete_at, a.complete_at + 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dram;
mod fault;
mod hierarchy;
mod imp;
mod mshr;
mod shared;
mod stats;
mod stride;

pub use cache::{Cache, CacheConfig};
pub use dram::{Dram, DramConfig};
pub use fault::{FaultConfig, FaultEvent, FaultKind, NEVER_COMPLETES};
pub use hierarchy::{
    Access, AccessClass, GeometryMismatch, HierarchyConfig, HitLevel, LaneObservations,
    MemoryHierarchy, PrefetchResult, PrefetchSource, TaintFill, WarmCaches, WARM_STATE_MAGIC,
};
pub use imp::{ImpConfig, ImpPrefetcher};
pub use mshr::MshrFile;
pub use shared::{SharedCoreCounters, SharedLlc, SharedLlcHandle};
pub use stats::{MemStats, TimelinessBucket};
pub use stride::{StrideEntry, StridePrefetcher, StrideUpdate, MAX_DEGREE};

/// Cache-line size in bytes (64 B throughout the hierarchy).
pub const LINE_BYTES: u64 = 64;

/// The cache-line address (byte address divided by the line size).
pub fn line_of(addr: u64) -> u64 {
    addr / LINE_BYTES
}
