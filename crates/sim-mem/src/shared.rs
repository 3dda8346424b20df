//! The shared last-level cache and DRAM: the resources N cores contend for.
//!
//! A [`SharedLlc`] bundles the L3 tag array, the DRAM bandwidth calendar,
//! and the shared-state half of prefetch provenance behind one
//! [`SharedLlcHandle`]. Every [`crate::MemoryHierarchy`] fronts one — a
//! solo hierarchy owns a private handle, while a multi-core group attaches
//! N hierarchies to the same one so their misses contend for the same L3
//! ways and DRAM slots. All timing decisions stay in the caches and the
//! calendar; the per-core counters here are pure accounting, which is what
//! keeps a single core attached to a private handle cycle-identical to the
//! pre-shared hierarchy.
//!
//! Handles are [`Rc`]-based and deliberately not `Send`: one simulated
//! machine lives on one host thread. Cross-thread parallelism in this
//! codebase is always across *independent* simulations (see
//! `dvr_sim::parallel_map`), each of which builds its own shared LLC.

use std::cell::RefCell;
use std::rc::Rc;

use sim_isa::FxHashMap;

use crate::cache::{Cache, CacheConfig, Probe};
use crate::dram::{Dram, DramConfig};
use crate::PrefetchSource;

/// Shared handle to a [`SharedLlc`]; clone it to attach more cores.
pub type SharedLlcHandle = Rc<RefCell<SharedLlc>>;

/// Per-core accounting of shared-LLC activity. Observation only — nothing
/// here feeds back into timing.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SharedCoreCounters {
    /// L3 probe hits (including in-flight merges) by this core.
    pub l3_hits: u64,
    /// L3 fills installed on behalf of this core's DRAM requests.
    pub l3_fills: u64,
    /// DRAM line reads this core issued through the shared calendar.
    pub dram_reads: u64,
    /// DRAM writebacks caused by this core's fills evicting dirty L3 lines.
    pub dram_writebacks: u64,
    /// Provenance entries this core installed (prefetch-class DRAM fills).
    pub prov_installed: u64,
    /// Provenance entries owned by this core that were cleared because the
    /// line left the L3 — the "no provenance bit survives eviction" rule.
    pub prov_evicted: u64,
    /// Demand hits by this core on lines another core prefetched: the one
    /// *justified* way provenance migrates between cores (the speculation
    /// paid off for a neighbor, and the entry is retired on the spot).
    pub cross_core_hits: u64,
}

/// The shared L3 + DRAM component.
///
/// Prefetch provenance at this level mirrors the per-core
/// `pending_prefetch` map one level down: a prefetch-class DRAM fill tags
/// the L3 line with `(installing core, source)`, a demand hit retires the
/// tag (counting a cross-core hit when the demander differs from the
/// installer), and *any* path that removes the line from the L3 must clear
/// the tag. [`SharedLlc::check_invariants`] enforces that last rule.
#[derive(Clone, Debug)]
pub struct SharedLlc {
    l3: Cache,
    dram: Dram,
    /// line → (installing core, source) for prefetch-filled resident lines.
    provenance: FxHashMap<u64, (u32, PrefetchSource)>,
    per_core: Vec<SharedCoreCounters>,
}

impl SharedLlc {
    /// Creates an empty shared LLC.
    pub fn new(l3: CacheConfig, dram: DramConfig) -> Self {
        SharedLlc::with_l3(Cache::new(l3), dram)
    }

    /// Creates a shared LLC around the tag array `l3`, with no core
    /// attached and no provenance.
    pub(crate) fn with_l3(l3: Cache, dram: DramConfig) -> Self {
        SharedLlc {
            l3,
            dram: Dram::new(dram),
            provenance: FxHashMap::default(),
            per_core: Vec::new(),
        }
    }

    /// Creates an empty shared LLC behind a fresh handle.
    pub fn new_handle(l3: CacheConfig, dram: DramConfig) -> SharedLlcHandle {
        Rc::new(RefCell::new(SharedLlc::new(l3, dram)))
    }

    /// Registers a core, returning its index in the per-core accounting.
    pub(crate) fn register_core(&mut self) -> u32 {
        self.per_core.push(SharedCoreCounters::default());
        (self.per_core.len() - 1) as u32
    }

    /// Number of cores attached so far.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// Accounting snapshot for one core.
    pub fn counters(&self, core: u32) -> SharedCoreCounters {
        self.per_core[core as usize]
    }

    /// L3 hit latency.
    pub(crate) fn l3_latency(&self) -> u64 {
        self.l3.latency()
    }

    /// Probes the L3 on behalf of `core`. A demand hit retires the line's
    /// provenance entry (the prefetch was used — justified, even across
    /// cores).
    pub(crate) fn probe_l3(&mut self, core: u32, line: u64, demand: bool) -> Option<Probe> {
        let p = self.l3.probe(line)?;
        self.per_core[core as usize].l3_hits += 1;
        if demand {
            if let Some((owner, _src)) = self.provenance.remove(&line) {
                if owner != core {
                    self.per_core[core as usize].cross_core_hits += 1;
                }
            }
        }
        Some(p)
    }

    /// LRU-refreshing residency probe for functional warming.
    pub(crate) fn warm_probe_l3(&mut self, line: u64) -> bool {
        self.l3.probe(line).is_some()
    }

    /// Installs a DRAM fill into the L3 on behalf of `core`, tagging it
    /// with prefetch provenance when `prov` names a source. Returns whether
    /// a dirty victim consumed DRAM writeback bandwidth, so the caller can
    /// attribute it in its own [`crate::MemStats`].
    pub(crate) fn fill_l3(
        &mut self,
        core: u32,
        line: u64,
        ready_at: u64,
        prov: Option<PrefetchSource>,
    ) -> bool {
        let evicted = self.l3.insert(line, false, ready_at);
        self.per_core[core as usize].l3_fills += 1;
        if let Some(src) = prov {
            // First installer wins, mirroring the per-core pending-prefetch
            // rule: a re-fetch of a still-tracked line keeps its original
            // provenance.
            if let std::collections::hash_map::Entry::Vacant(e) = self.provenance.entry(line) {
                e.insert((core, src));
                self.per_core[core as usize].prov_installed += 1;
            }
        }
        let mut wrote_back = false;
        if let Some((victim, dirty)) = evicted {
            self.evict_provenance(victim);
            if dirty {
                self.dram.writeback(ready_at);
                self.per_core[core as usize].dram_writebacks += 1;
                wrote_back = true;
            }
        }
        wrote_back
    }

    /// Receives a dirty L2 victim: mark the resident copy dirty, or install
    /// one. A victim this install displaces vanishes without DRAM bandwidth
    /// (matching the private-hierarchy behavior), but its provenance is
    /// still cleared — no tag may outlive residency.
    pub(crate) fn writeback_into_l3(&mut self, victim: u64, ready_at: u64) {
        if !self.l3.mark_dirty(victim) {
            if let Some((displaced, _dirty)) = self.l3.insert(victim, true, ready_at) {
                self.evict_provenance(displaced);
            }
        }
    }

    /// Functional-warming fill: no bandwidth, no provenance, silent
    /// evictions (which still clear any stale provenance).
    pub(crate) fn warm_fill_l3(&mut self, line: u64) {
        if let Some((victim, _dirty)) = self.l3.insert(line, false, 0) {
            self.evict_provenance(victim);
        }
    }

    fn evict_provenance(&mut self, line: u64) {
        if let Some((owner, _src)) = self.provenance.remove(&line) {
            self.per_core[owner as usize].prov_evicted += 1;
        }
    }

    /// Schedules a line read on the shared DRAM calendar for `core`.
    pub(crate) fn request_line(&mut self, core: u32, cycle: u64, line: u64) -> u64 {
        self.per_core[core as usize].dram_reads += 1;
        self.dram.request_line(cycle, line)
    }

    /// Read access to the L3 tag array.
    pub fn l3(&self) -> &Cache {
        &self.l3
    }

    /// Write access to the L3 tag array.
    pub(crate) fn l3_mut(&mut self) -> &mut Cache {
        &mut self.l3
    }

    /// Number of busy intervals in the shared DRAM slot calendar.
    pub fn dram_calendar_depth(&self) -> usize {
        self.dram.calendar_intervals()
    }

    /// Drains in-flight timing state (sampling interval boundaries).
    pub(crate) fn quiesce(&mut self) {
        self.l3.quiesce();
        self.dram.quiesce();
    }

    /// Read-only structural sweep: the L3's per-set invariants, plus the
    /// shared-LLC provenance rule — every provenance entry must name a line
    /// still resident in the L3. Violations are reported in sorted line
    /// order so sanitizer output is host-independent.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut out = self.l3.check_invariants();
        let mut stray: Vec<u64> =
            self.provenance.keys().copied().filter(|&l| !self.l3.contains(l)).collect();
        stray.sort_unstable();
        for line in stray {
            out.push(format!("provenance entry for line {line:#x} survived L3 eviction"));
        }
        out
    }
}
