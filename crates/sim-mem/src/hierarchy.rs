//! The three-level cache hierarchy with MSHRs and DRAM.

use std::cell::Ref;
use std::cell::RefCell;
use std::rc::Rc;

use sim_isa::bytes::{DecodeError, Reader};
use sim_isa::{lane_taint_step, BoundsTracker, FxHashMap, Instr, Program};

use crate::cache::{Cache, CacheConfig};
use crate::dram::DramConfig;
use crate::fault::{FaultConfig, FaultEvent, FaultState, NEVER_COMPLETES};
use crate::line_of;
use crate::mshr::MshrFile;
use crate::shared::{SharedLlc, SharedLlcHandle};
use crate::stats::{MemStats, TimelinessBucket};

/// Which engine generated a prefetch — drives provenance accounting for
/// Figures 10 and 11.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PrefetchSource {
    /// The always-on L1-D stride prefetcher.
    Stride,
    /// The Indirect Memory Prefetcher baseline.
    Imp,
    /// Precise Runahead Execution.
    Pre,
    /// Vector Runahead.
    Vr,
    /// Decoupled Vector Runahead (this paper).
    Dvr,
    /// The hypothetical Oracle.
    Oracle,
}

impl PrefetchSource {
    /// Number of sources.
    pub const COUNT: usize = 6;

    /// All sources in index order.
    pub const ALL: [PrefetchSource; Self::COUNT] = [
        PrefetchSource::Stride,
        PrefetchSource::Imp,
        PrefetchSource::Pre,
        PrefetchSource::Vr,
        PrefetchSource::Dvr,
        PrefetchSource::Oracle,
    ];

    /// Stable index for stats arrays.
    pub fn index(self) -> usize {
        match self {
            PrefetchSource::Stride => 0,
            PrefetchSource::Imp => 1,
            PrefetchSource::Pre => 2,
            PrefetchSource::Vr => 3,
            PrefetchSource::Dvr => 4,
            PrefetchSource::Oracle => 5,
        }
    }

    /// Whether this source is a runahead engine (counted as "runahead mode"
    /// DRAM traffic in Figure 10), as opposed to a hardware prefetcher.
    pub fn is_runahead(self) -> bool {
        matches!(self, PrefetchSource::Pre | PrefetchSource::Vr | PrefetchSource::Dvr)
    }
}

/// One secret-tainted line fill: a runahead lane load whose address was
/// derived from declared-secret data brought `line` into the hierarchy.
/// Recorded in [`LaneObservations::taint_fills`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaintFill {
    /// Static pc of the load whose address carried the taint.
    pub pc: usize,
    /// The cache line (line address, not byte address) it filled.
    pub line: u64,
    /// Which engine issued the fill.
    pub source: PrefetchSource,
}

/// What runahead lanes touched while the hierarchy was observing
/// ([`MemoryHierarchy::observe`]). Observer-only state: it never feeds
/// back into timing or [`MemStats`], so an observed run stays
/// cycle-identical to a plain one. Only runahead code reports lane steps,
/// so a baseline run structurally records nothing.
#[derive(Clone, Debug, Default)]
pub struct LaneObservations {
    /// Lines filled through a secret-derived address, in issue order.
    pub taint_fills: Vec<TaintFill>,
    /// Per-pc [min, max] address extents of every lane-issued load,
    /// aggregated rather than logged so long runs stay O(program size).
    pub extents: BoundsTracker,
}

/// Who is asking for a line and why.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessClass {
    /// The main thread's architectural loads and stores.
    Demand,
    /// A speculative fetch on behalf of a prefetch engine. Runahead-engine
    /// loads use this too: their fills carry the engine's provenance.
    Prefetch(PrefetchSource),
}

/// The level that satisfied an access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HitLevel {
    /// Ready in the L1-D.
    L1,
    /// Ready in the L2.
    L2,
    /// Ready in the L3.
    L3,
    /// Fetched from DRAM.
    Mem,
    /// Present but still in flight (merged into an outstanding MSHR).
    InFlight,
}

impl HitLevel {
    fn stats_index(self) -> usize {
        match self {
            HitLevel::L1 => 0,
            HitLevel::L2 => 1,
            HitLevel::L3 => 2,
            HitLevel::Mem => 3,
            // In-flight merges are counted separately.
            HitLevel::InFlight => 3,
        }
    }
}

/// Outcome of a load or store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// Cycle at which the data is available to the requester.
    pub complete_at: u64,
    /// Which level satisfied the request.
    pub level: HitLevel,
}

/// Outcome of a (droppable) prefetch request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrefetchResult {
    /// The line was already in the L1 (or in flight) — nothing to do.
    Present,
    /// No free MSHR: the prefetch was dropped.
    Dropped,
    /// The prefetch was issued and will complete at the given cycle.
    Issued {
        /// Fill completion cycle.
        complete_at: u64,
    },
}

/// Configuration of the whole hierarchy (defaults = paper Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HierarchyConfig {
    /// L1-D geometry/latency.
    pub l1: CacheConfig,
    /// Private L2 geometry/latency.
    pub l2: CacheConfig,
    /// Shared L3 geometry/latency.
    pub l3: CacheConfig,
    /// Number of L1-D MSHRs.
    pub mshrs: usize,
    /// Maximum MSHRs usable by prefetch-class requests at once (demand may
    /// always use all of them). Keeps speculative traffic from starving the
    /// main thread.
    pub mshr_prefetch_cap: usize,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Seeded fault injection, or `None` for a fault-free hierarchy.
    pub fault: Option<FaultConfig>,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 32 * 1024, assoc: 8, latency: 4 },
            l2: CacheConfig { size_bytes: 256 * 1024, assoc: 8, latency: 8 },
            l3: CacheConfig { size_bytes: 8 * 1024 * 1024, assoc: 16, latency: 30 },
            mshrs: 24,
            mshr_prefetch_cap: 20,
            dram: DramConfig::default(),
            fault: None,
        }
    }
}

/// The memory hierarchy: L1-D → L2 → L3 → DRAM with MSHR-limited misses.
///
/// Tag-only (data values live in the functional memory); mostly-inclusive
/// fills (a DRAM fill installs the line at every level); LRU everywhere.
/// Dirty lines write back one level down on eviction and consume DRAM
/// bandwidth when leaving the L3. See the crate docs for an example.
///
/// The L1, L2, and MSHRs are private to this hierarchy; the L3 and DRAM
/// live in a [`SharedLlc`] behind a handle. [`MemoryHierarchy::new`] gives
/// the hierarchy a private handle (the classic single-core setup);
/// [`MemoryHierarchy::attach_shared`] fronts an existing one, so N cores
/// contend for the same L3 ways and DRAM bandwidth calendar.
#[derive(Debug)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    mshr: MshrFile,
    /// The shared L3 + DRAM these private levels front.
    shared: SharedLlcHandle,
    /// This core's index in the shared LLC's per-core accounting.
    core_id: u32,
    /// Lines brought in by a prefetch and not yet demanded.
    pending_prefetch: FxHashMap<u64, PrefetchSource>,
    /// Fault-injection state (None when injection is disabled).
    fault: Option<FaultState>,
    /// Runahead-lane observer (None = not observing, the default). Boxed
    /// so the plain case costs one pointer.
    observer: Option<Box<LaneObservations>>,
    stats: MemStats,
}

impl Clone for MemoryHierarchy {
    /// Deep copy: the clone fronts a private copy of the shared LLC,
    /// detached from any multi-core group. This preserves the value
    /// semantics single-core callers have always had; cloning one member
    /// of a live mix would otherwise alias shared state ambiguously.
    fn clone(&self) -> Self {
        MemoryHierarchy {
            cfg: self.cfg,
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            mshr: self.mshr.clone(),
            shared: Rc::new(RefCell::new(self.shared.borrow().clone())),
            core_id: self.core_id,
            pending_prefetch: self.pending_prefetch.clone(),
            fault: self.fault.clone(),
            observer: self.observer.clone(),
            stats: self.stats.clone(),
        }
    }
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy fronting its own private L3 + DRAM.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self::attach_shared(cfg, &SharedLlc::new_handle(cfg.l3, cfg.dram))
    }

    /// Creates a hierarchy whose private L1/L2/MSHRs front an existing
    /// shared L3 + DRAM, registering this core with it. The handle's own
    /// geometry wins over `cfg.l3`/`cfg.dram` (the handle was built from
    /// some configuration already); everything else in `cfg` is private
    /// per-core state.
    pub fn attach_shared(cfg: HierarchyConfig, shared: &SharedLlcHandle) -> Self {
        let core_id = shared.borrow_mut().register_core();
        MemoryHierarchy {
            cfg,
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            mshr: MshrFile::with_prefetch_cap(cfg.mshrs, cfg.mshr_prefetch_cap.min(cfg.mshrs)),
            shared: Rc::clone(shared),
            core_id,
            pending_prefetch: FxHashMap::default(),
            fault: cfg.fault.map(FaultState::new),
            observer: None,
            stats: MemStats::default(),
        }
    }

    /// The handle to the shared L3 + DRAM this hierarchy fronts (pass to
    /// [`MemoryHierarchy::attach_shared`] to add contending cores, or
    /// borrow for shared-state diagnostics).
    pub fn shared_llc(&self) -> SharedLlcHandle {
        Rc::clone(&self.shared)
    }

    /// This core's index in the shared LLC's per-core accounting.
    pub fn core_id(&self) -> u32 {
        self.core_id
    }

    /// Starts observing what runahead lanes touch (see
    /// [`LaneObservations`]). Pure observation: nothing else changes.
    pub fn observe(&mut self) {
        self.observer = Some(Box::default());
    }

    /// Whether lane observation is armed. Engines test this once per walk
    /// so the plain path keeps no per-lane taint state at all.
    pub fn observing(&self) -> bool {
        self.observer.is_some()
    }

    /// Takes what the lanes touched, disarming the observer. `None` if
    /// observation was never armed.
    pub fn take_observations(&mut self) -> Option<LaneObservations> {
        self.observer.take().map(|o| *o)
    }

    /// Observes one runahead-lane step of `instr` at static `pc`: folds
    /// the lane's load (`(addr, width)`, if any) into the pc's extent,
    /// steps the lane's secret-taint mask (see [`lane_taint_step`]), and
    /// logs the fill when the load's address was secret-derived — the
    /// speculative leak. No-op while not observing.
    pub fn observe_lane_step(
        &mut self,
        prog: &Program,
        pc: usize,
        instr: &Instr,
        taint: &mut u16,
        load: Option<(u64, u64)>,
        source: PrefetchSource,
    ) {
        let Some(o) = self.observer.as_mut() else { return };
        if let Some((addr, width)) = load {
            o.extents.note_access(pc, addr, width);
        }
        let addr = load.map(|(a, _)| a);
        if lane_taint_step(prog, instr, taint, addr) {
            let addr = addr.expect("transmitters load");
            o.taint_fills.push(TaintFill { pc, line: line_of(addr), source });
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> HierarchyConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// MSHR occupancy integral up to cycle `until`, the cycle the run
    /// stopped at (for MLP = integral / cycles); see
    /// [`MshrFile::busy_integral`].
    pub fn mshr_busy_integral(&self, until: u64) -> u64 {
        self.mshr.busy_integral(until)
    }

    /// Number of MSHRs in use at `cycle`.
    pub fn mshrs_in_use(&self, cycle: u64) -> usize {
        self.mshr.in_use(cycle)
    }

    /// Whether a prefetch-class MSHR is free at `cycle` (prefetchers check
    /// before issuing).
    pub fn mshr_free(&self, cycle: u64) -> bool {
        self.mshr.has_free(cycle, true)
    }

    /// Number of busy intervals in the (shared) DRAM slot calendar (for
    /// deadlock diagnostics).
    pub fn dram_calendar_depth(&self) -> usize {
        self.shared.borrow().dram_calendar_depth()
    }

    /// Takes the pending fatal injected fault, if one has been armed by the
    /// fault-injection engine. The core polls this once per cycle and
    /// aborts the run with `SimError::InjectedFault` when it fires.
    pub fn take_fault(&mut self) -> Option<FaultEvent> {
        let ev = self.fault.as_mut().and_then(FaultState::take_fatal);
        if ev.is_some() {
            self.stats.injected_fatal += 1;
        }
        ev
    }

    /// Performs a load at `cycle`. Demand and runahead loads *wait* for an
    /// MSHR when the file is full.
    pub fn load(&mut self, cycle: u64, addr: u64, class: AccessClass) -> Access {
        let acc = self.access(cycle, addr, class, false);
        if matches!(class, AccessClass::Demand) {
            // Saturating: a wedged line (injected drop) reports a
            // NEVER_COMPLETES latency, and repeated merges on it would
            // overflow the accumulator.
            self.stats.demand_latency_sum =
                self.stats.demand_latency_sum.saturating_add(acc.complete_at.saturating_sub(cycle));
        }
        acc
    }

    /// Performs a store at `cycle` (write-allocate; marks the line dirty).
    pub fn store(&mut self, cycle: u64, addr: u64, class: AccessClass) -> Access {
        self.access(cycle, addr, class, true)
    }

    /// Issues a droppable prefetch of `addr`'s line into the L1-D.
    ///
    /// Unlike [`MemoryHierarchy::load`], this never waits: if the line is
    /// already present (or in flight) it returns [`PrefetchResult::Present`];
    /// if no MSHR is free it returns [`PrefetchResult::Dropped`].
    pub fn prefetch(&mut self, cycle: u64, addr: u64, src: PrefetchSource) -> PrefetchResult {
        let line = line_of(addr);
        if self.l1.contains(line) {
            return PrefetchResult::Present;
        }
        // Fault injection: a poisoned prefetch is discarded before it
        // touches the hierarchy — the line simply never arrives. This is
        // timing-only by construction: no fill, no MSHR, no state change.
        if let Some(f) = &mut self.fault {
            if f.poison_prefetch() {
                self.stats.injected_poisons += 1;
                self.stats.prefetch_dropped[src.index()] += 1;
                return PrefetchResult::Dropped;
            }
        }
        if self.mshr.try_alloc(cycle, true).is_none() {
            self.stats.prefetch_dropped[src.index()] += 1;
            return PrefetchResult::Dropped;
        }
        let access = self.access(cycle, addr, AccessClass::Prefetch(src), false);
        PrefetchResult::Issued { complete_at: access.complete_at }
    }

    fn access(&mut self, cycle: u64, addr: u64, class: AccessClass, is_store: bool) -> Access {
        let line = line_of(addr);
        let demand = matches!(class, AccessClass::Demand);
        if demand {
            if is_store {
                self.stats.demand_stores += 1;
            } else {
                self.stats.demand_loads += 1;
            }
            if let Some(f) = &mut self.fault {
                f.note_demand_access(cycle, line);
            }
        }

        // L1 probe.
        if let Some(p) = self.l1.probe(line) {
            if is_store {
                self.l1.mark_dirty(line);
            }
            return if p.ready_at <= cycle {
                if demand {
                    self.note_first_use(line, TimelinessBucket::L1);
                    self.stats.record_demand_level(HitLevel::L1.stats_index());
                }
                Access { complete_at: cycle + self.l1.latency(), level: HitLevel::L1 }
            } else {
                // In flight: merge into the outstanding miss.
                if demand {
                    self.note_first_use(line, TimelinessBucket::OffChip);
                    self.stats.demand_inflight += 1;
                }
                Access { complete_at: p.ready_at, level: HitLevel::InFlight }
            };
        }

        // L1 miss: allocate an MSHR (waiting if the class is saturated).
        let is_prefetch = matches!(class, AccessClass::Prefetch(_));
        let start = self.mshr.alloc_blocking(cycle, is_prefetch);
        let l1_lat = self.l1.latency();

        // L2 probe.
        let (mut complete_at, level) = if let Some(p) = self.l2.probe(line) {
            let ready = (start + l1_lat + self.l2.latency()).max(p.ready_at);
            let level = if p.ready_at > cycle { HitLevel::InFlight } else { HitLevel::L2 };
            (ready, level)
        } else {
            // Past the private levels: probe the shared L3 / DRAM. The
            // borrow is scoped tightly so the L2 backfill below (which may
            // write a dirty victim back *into* the shared L3) re-borrows
            // cleanly.
            let mut sh = self.shared.borrow_mut();
            let l3_lat = sh.l3_latency();
            if let Some(p) = sh.probe_l3(self.core_id, line, demand) {
                let ready = (start + l1_lat + self.l2.latency() + l3_lat).max(p.ready_at);
                drop(sh);
                // Fill L2 on the way up.
                self.fill(Tier::L2, line, ready);
                let level = if p.ready_at > cycle { HitLevel::InFlight } else { HitLevel::L3 };
                (ready, level)
            } else {
                // DRAM.
                let issue = start + l1_lat + self.l2.latency() + l3_lat;
                let mut ready = sh.request_line(self.core_id, issue, line);
                drop(sh);
                if let Some(f) = &mut self.fault {
                    if let Some(extra) = f.dram_delay() {
                        self.stats.injected_delays += 1;
                        ready += extra;
                    }
                }
                let prov = match class {
                    AccessClass::Demand => {
                        self.stats.dram_demand += 1;
                        None
                    }
                    AccessClass::Prefetch(src) => {
                        self.stats.dram_prefetch[src.index()] += 1;
                        Some(src)
                    }
                };
                if self.shared.borrow_mut().fill_l3(self.core_id, line, ready, prov) {
                    self.stats.dram_writebacks += 1;
                }
                self.fill(Tier::L2, line, ready);
                (ready, HitLevel::Mem)
            }
        };

        // Fault injection: a dropped demand response never completes. The
        // fill stays in flight forever, so the requester (and anything
        // merging into the miss) wedges — the core's watchdog reports it.
        if demand {
            if let Some(f) = &mut self.fault {
                if f.drop_demand_response() {
                    self.stats.injected_drops += 1;
                    complete_at = NEVER_COMPLETES;
                }
            }
        }

        // Install into L1 in all miss cases.
        self.fill(Tier::L1, line, complete_at);
        if is_store {
            self.l1.mark_dirty(line);
        }
        self.mshr.commit(start, complete_at, is_prefetch);

        match class {
            AccessClass::Demand => {
                let bucket = match level {
                    HitLevel::L2 => Some(TimelinessBucket::L2),
                    HitLevel::L3 => Some(TimelinessBucket::L3),
                    HitLevel::Mem | HitLevel::InFlight => Some(TimelinessBucket::OffChip),
                    HitLevel::L1 => None,
                };
                if let Some(b) = bucket {
                    self.note_first_use(line, b);
                }
                if level == HitLevel::InFlight {
                    self.stats.demand_inflight += 1;
                } else {
                    self.stats.record_demand_level(level.stats_index());
                }
            }
            AccessClass::Prefetch(src) => {
                // Record provenance for the newly fetched line. A re-fetch
                // of a line that is still pending (fetched before, evicted,
                // never demanded) keeps its original tracking entry so
                // issued = used + unused holds per source.
                if let std::collections::hash_map::Entry::Vacant(e) =
                    self.pending_prefetch.entry(line)
                {
                    e.insert(src);
                    self.stats.prefetch_issued[src.index()] += 1;
                }
            }
        }

        Access { complete_at, level }
    }

    /// Marks the first demand use of a prefetched line into its bucket.
    fn note_first_use(&mut self, line: u64, bucket: TimelinessBucket) {
        if let Some(src) = self.pending_prefetch.remove(&line) {
            self.stats.record_found(src, bucket);
        }
    }

    /// Fill into a *private* level; shared-L3 fills go through
    /// [`SharedLlc::fill_l3`] so provenance and per-core DRAM accounting
    /// stay with the shared state.
    fn fill(&mut self, tier: Tier, line: u64, ready_at: u64) {
        let evicted = match tier {
            Tier::L1 => self.l1.insert(line, false, ready_at),
            Tier::L2 => self.l2.insert(line, false, ready_at),
        };
        if let Some((victim, dirty)) = evicted {
            match tier {
                Tier::L1 => {
                    if dirty {
                        // Write back into L2 (install if absent).
                        if !self.l2.mark_dirty(victim) {
                            self.l2.insert(victim, true, ready_at);
                        }
                    }
                }
                Tier::L2 => {
                    if dirty {
                        self.shared.borrow_mut().writeback_into_l3(victim, ready_at);
                    }
                }
            }
        }
    }

    /// Finalizes end-of-run accounting: any prefetched-but-never-used lines
    /// become `OffChip`/wasted. Call once when simulation ends.
    pub fn finalize(&mut self) {
        for (_, src) in self.pending_prefetch.drain() {
            self.stats.prefetch_unused[src.index()] += 1;
        }
    }

    /// Functional-warming touch: installs `addr`'s line throughout the
    /// hierarchy as if a demand access had long completed, training tags
    /// and LRU without engaging MSHRs, DRAM bandwidth, or demand statistics.
    ///
    /// This is the cache half of SMARTS-style functional warming: the
    /// fast-forward executor streams every architectural access through
    /// here so detailed intervals start from warm cache state. Dirty
    /// evictions cascade down silently (warming models residency, not
    /// writeback bandwidth).
    pub fn warm_touch(&mut self, addr: u64, is_store: bool) {
        let line = line_of(addr);
        if self.l1.probe(line).is_none() {
            if self.l2.probe(line).is_none() {
                let mut sh = self.shared.borrow_mut();
                if !sh.warm_probe_l3(line) {
                    sh.warm_fill_l3(line);
                }
                drop(sh);
                self.warm_fill(Tier::L2, line);
            }
            self.warm_fill(Tier::L1, line);
        }
        if is_store {
            self.l1.mark_dirty(line);
        }
    }

    /// [`MemoryHierarchy::fill`] for warming: `ready_at` is always 0 and
    /// dirty L3 victims vanish without consuming DRAM bandwidth or
    /// writeback statistics.
    fn warm_fill(&mut self, tier: Tier, line: u64) {
        let evicted = match tier {
            Tier::L1 => self.l1.insert(line, false, 0),
            Tier::L2 => self.l2.insert(line, false, 0),
        };
        if let Some((victim, dirty)) = evicted {
            if dirty {
                match tier {
                    Tier::L1 => {
                        if !self.l2.mark_dirty(victim) {
                            self.l2.insert(victim, true, 0);
                        }
                    }
                    Tier::L2 => self.shared.borrow_mut().writeback_into_l3(victim, 0),
                }
            }
        }
    }

    /// Serializes the warm cache state — the three tag arrays, nothing
    /// else — as a magic-prefixed little-endian image for a sampling
    /// checkpoint ([`MemoryHierarchy::from_warm_state`] restores it).
    ///
    /// Only meaningful on a hierarchy whose state comes purely from
    /// functional warming ([`MemoryHierarchy::warm_touch`]): warming
    /// engages no MSHRs, DRAM calendar slots, pending-prefetch tracking,
    /// or statistics, so the tag arrays *are* the whole warm state.
    pub fn warm_state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&WARM_STATE_MAGIC.to_le_bytes());
        self.l1.save_state(&mut out);
        self.l2.save_state(&mut out);
        self.shared.borrow().save_l3(&mut out);
        out
    }

    /// Builds a fresh hierarchy under `cfg` with the warm cache state of a
    /// [`MemoryHierarchy::warm_state_bytes`] image installed: tags, LRU
    /// order, and dirty bits are restored; MSHRs, DRAM, prefetch tracking,
    /// and statistics start empty, exactly as after the functional pass
    /// that produced the image.
    ///
    /// Fails if the image is malformed, was produced under a different
    /// cache geometry, or carries trailing bytes.
    pub fn from_warm_state(cfg: HierarchyConfig, b: &[u8]) -> Result<Self, DecodeError> {
        let mut h = MemoryHierarchy::new(cfg);
        let mut r = Reader::new(b);
        r.magic(WARM_STATE_MAGIC)?;
        h.l1.load_state(&mut r)?;
        h.l2.load_state(&mut r)?;
        h.shared.borrow_mut().load_l3(&mut r)?;
        r.finish()?;
        Ok(h)
    }

    /// Drains all in-flight timing state at a sampling interval boundary:
    /// cache fills settle ([`Cache::quiesce`]), outstanding MSHRs release
    /// ([`MshrFile::quiesce`]), and the DRAM calendar empties
    /// ([`Dram::quiesce`]).
    ///
    /// Each detailed interval runs on a fresh core whose cycle counter
    /// restarts at 0, while the hierarchy's timestamps are absolute cycles
    /// of the previous interval's clock; without this drain, stale
    /// far-future completion times would wedge the next interval. Warm
    /// state (tags, LRU, dirty bits, prefetch provenance) and all
    /// cumulative statistics survive.
    pub fn quiesce(&mut self) {
        self.l1.quiesce();
        self.l2.quiesce();
        self.mshr.quiesce();
        // Sampling drives one core per simulated machine, so draining the
        // shared L3/DRAM here drains state only this core produced.
        self.shared.borrow_mut().quiesce();
    }

    /// Read-only invariant sweep for the `--sanitize` mode: MSHR
    /// allocate/release balance every call, plus the per-set cache scans
    /// ([`Cache::check_invariants`]) when `deep` is set — those walk every
    /// way, so the core amortizes them over thousands of cycles. Taking
    /// `&self` guarantees the check cannot perturb timing.
    pub fn check_invariants(&self, cycle: u64, deep: bool) -> Vec<String> {
        let mut out = self.mshr.check_invariants(cycle);
        if deep {
            for (name, cache) in [("L1", &self.l1), ("L2", &self.l2)] {
                out.extend(cache.check_invariants().into_iter().map(|m| format!("{name} {m}")));
            }
            // The shared sweep covers the L3 tag array plus the shared-LLC
            // provenance-residency rule.
            let sh = self.shared.borrow();
            out.extend(sh.check_invariants().into_iter().map(|m| format!("L3 {m}")));
        }
        out
    }

    /// Direct read access to the L1-D (tests, diagnostics).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// Direct read access to the L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Direct read access to the (shared) L3.
    pub fn l3(&self) -> Ref<'_, Cache> {
        Ref::map(self.shared.borrow(), SharedLlc::l3)
    }
}

/// Private cache levels; the L3 lives in [`SharedLlc`].
#[derive(Clone, Copy, Debug)]
enum Tier {
    L1,
    L2,
}

/// `"DVRH"`: magic prefix of a warm-hierarchy image
/// ([`MemoryHierarchy::warm_state_bytes`]).
pub const WARM_STATE_MAGIC: u32 = 0x4456_5248;

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits_l1() {
        let mut m = hier();
        let a = m.load(0, 0x1234, AccessClass::Demand);
        assert_eq!(a.level, HitLevel::Mem);
        // l1(4) + l2(8) + l3(30) = 42, aligned up to the 45-cycle DRAM
        // slot, + 200 DRAM latency.
        assert_eq!(a.complete_at, 245);
        let b = m.load(300, 0x1234, AccessClass::Demand);
        assert_eq!(b.level, HitLevel::L1);
        assert_eq!(b.complete_at, 304);
    }

    #[test]
    fn inflight_access_merges() {
        let mut m = hier();
        let a = m.load(0, 0x1234, AccessClass::Demand);
        let b = m.load(10, 0x1234, AccessClass::Demand);
        assert_eq!(b.level, HitLevel::InFlight);
        assert_eq!(b.complete_at, a.complete_at);
        assert_eq!(m.stats().demand_inflight, 1);
    }

    #[test]
    fn same_line_different_addr_hits() {
        let mut m = hier();
        let a = m.load(0, 0x1000, AccessClass::Demand);
        let b = m.load(a.complete_at, 0x1038, AccessClass::Demand); // same 64B line
        assert_eq!(b.level, HitLevel::L1);
    }

    #[test]
    fn prefetch_then_demand_hits_l1_and_buckets() {
        let mut m = hier();
        match m.prefetch(0, 0x2000, PrefetchSource::Dvr) {
            PrefetchResult::Issued { complete_at } => {
                let a = m.load(complete_at + 1, 0x2000, AccessClass::Demand);
                assert_eq!(a.level, HitLevel::L1);
            }
            other => panic!("expected Issued, got {other:?}"),
        }
        m.finalize();
        let t = m.stats().timeliness(PrefetchSource::Dvr).unwrap();
        assert_eq!(t[0], 1.0);
        assert_eq!(m.stats().accuracy(PrefetchSource::Dvr), Some(1.0));
    }

    #[test]
    fn early_demand_on_prefetched_line_counts_offchip() {
        let mut m = hier();
        let PrefetchResult::Issued { complete_at } = m.prefetch(0, 0x2000, PrefetchSource::Vr)
        else {
            panic!("expected Issued");
        };
        // Demand arrives while the prefetch is still in flight.
        let a = m.load(5, 0x2000, AccessClass::Demand);
        assert_eq!(a.level, HitLevel::InFlight);
        assert_eq!(a.complete_at, complete_at);
        m.finalize();
        let t = m.stats().timeliness(PrefetchSource::Vr).unwrap();
        assert_eq!(t[3], 1.0); // off-chip bucket
    }

    #[test]
    fn unused_prefetch_is_wasted() {
        let mut m = hier();
        m.prefetch(0, 0x2000, PrefetchSource::Vr);
        m.finalize();
        assert_eq!(m.stats().wasted(PrefetchSource::Vr), 1);
        assert_eq!(m.stats().accuracy(PrefetchSource::Vr), Some(0.0));
    }

    #[test]
    fn prefetch_to_present_line_is_a_noop() {
        let mut m = hier();
        let a = m.load(0, 0x2000, AccessClass::Demand);
        let r = m.prefetch(a.complete_at, 0x2000, PrefetchSource::Stride);
        assert_eq!(r, PrefetchResult::Present);
        assert_eq!(m.stats().prefetch_issued[PrefetchSource::Stride.index()], 0);
    }

    #[test]
    fn prefetch_drops_when_mshrs_full() {
        let cfg = HierarchyConfig { mshrs: 2, ..HierarchyConfig::default() };
        let mut m = MemoryHierarchy::new(cfg);
        m.load(0, 0x10_000, AccessClass::Demand);
        m.load(0, 0x20_000, AccessClass::Demand);
        let r = m.prefetch(0, 0x30_000, PrefetchSource::Stride);
        assert_eq!(r, PrefetchResult::Dropped);
        assert_eq!(m.stats().prefetch_dropped[PrefetchSource::Stride.index()], 1);
    }

    #[test]
    fn demand_waits_for_mshr_when_full() {
        let cfg = HierarchyConfig { mshrs: 1, ..HierarchyConfig::default() };
        let mut m = MemoryHierarchy::new(cfg);
        let a = m.load(0, 0x10_000, AccessClass::Demand);
        let b = m.load(0, 0x20_000, AccessClass::Demand);
        assert!(b.complete_at >= a.complete_at, "second miss serialized behind the MSHR");
    }

    #[test]
    fn dram_bandwidth_contends_across_misses() {
        let mut m = hier();
        let a = m.load(0, 0x10_000, AccessClass::Demand);
        let b = m.load(0, 0x20_000, AccessClass::Demand);
        assert_eq!(b.complete_at, a.complete_at + 5);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut m = hier();
        // Fill more than the L1 (32KB = 512 lines) with distinct lines.
        let mut t = 0;
        for i in 0..1024u64 {
            let a = m.load(t, i * 64 * 1024, AccessClass::Demand); // distinct sets? use big stride
            t = a.complete_at;
        }
        // Re-touch the first line: should be L2 or L3 (or Mem), not L1.
        let a = m.load(t, 0, AccessClass::Demand);
        assert_ne!(a.level, HitLevel::L1);
    }

    #[test]
    fn runahead_dram_traffic_is_attributed() {
        let mut m = hier();
        m.load(0, 0x90_000, AccessClass::Prefetch(PrefetchSource::Dvr));
        assert_eq!(m.stats().dram_runahead(), 1);
        assert_eq!(m.stats().dram_demand, 0);
    }

    #[test]
    fn injected_drop_never_completes() {
        let fault = Some(crate::FaultConfig::seeded(1).with_drop(1));
        let mut m = MemoryHierarchy::new(HierarchyConfig { fault, ..HierarchyConfig::default() });
        let a = m.load(0, 0x1234, AccessClass::Demand);
        assert_eq!(a.complete_at, super::NEVER_COMPLETES);
        assert_eq!(m.stats().injected_drops, 1);
        // A merge into the dropped miss inherits the never-completing fill.
        let b = m.load(10, 0x1234, AccessClass::Demand);
        assert_eq!(b.level, HitLevel::InFlight);
        assert_eq!(b.complete_at, super::NEVER_COMPLETES);
    }

    #[test]
    fn injected_delay_adds_exactly_the_configured_cycles() {
        let fault = Some(crate::FaultConfig::seeded(1).with_delay(1, 777));
        let mut m = MemoryHierarchy::new(HierarchyConfig { fault, ..HierarchyConfig::default() });
        let a = m.load(0, 0x1234, AccessClass::Demand);
        let clean = hier().load(0, 0x1234, AccessClass::Demand);
        assert_eq!(a.complete_at, clean.complete_at + 777);
        assert_eq!(m.stats().injected_delays, 1);
    }

    #[test]
    fn poisoned_prefetch_is_discarded_without_side_effects() {
        let fault = Some(crate::FaultConfig::seeded(1).with_poison(1));
        let mut m = MemoryHierarchy::new(HierarchyConfig { fault, ..HierarchyConfig::default() });
        let r = m.prefetch(0, 0x2000, PrefetchSource::Dvr);
        assert_eq!(r, PrefetchResult::Dropped);
        assert_eq!(m.stats().injected_poisons, 1);
        assert_eq!(m.stats().prefetch_issued[PrefetchSource::Dvr.index()], 0);
        assert_eq!(m.mshrs_in_use(0), 0, "poison must not hold an MSHR");
        // The demand path is untouched: the line misses to DRAM as if the
        // prefetch had never been issued.
        let a = m.load(0, 0x2000, AccessClass::Demand);
        let clean = hier().load(0, 0x2000, AccessClass::Demand);
        assert_eq!(a.complete_at, clean.complete_at);
        assert_eq!(a.level, HitLevel::Mem);
    }

    #[test]
    fn fatal_fault_arms_on_the_nth_demand_access_and_fires_once() {
        let fault = Some(crate::FaultConfig::seeded(1).with_fatal_at(2));
        let mut m = MemoryHierarchy::new(HierarchyConfig { fault, ..HierarchyConfig::default() });
        m.load(5, 0x1000, AccessClass::Demand);
        assert!(m.take_fault().is_none());
        m.load(9, 0x2000, AccessClass::Demand);
        let ev = m.take_fault().expect("2nd demand access arms the fault");
        assert_eq!(ev.cycle, 9);
        assert_eq!(ev.line, crate::line_of(0x2000));
        assert_eq!(m.stats().injected_fatal, 1);
        assert!(m.take_fault().is_none());
    }

    #[test]
    fn invariant_sweep_is_clean_after_traffic() {
        let mut m = hier();
        let mut t = 0;
        for i in 0..2048u64 {
            let a = m.load(t, i * 4096, AccessClass::Demand);
            m.prefetch(t, i * 4096 + 64, PrefetchSource::Stride);
            t = a.complete_at;
        }
        assert!(m.check_invariants(t, true).is_empty());
    }

    #[test]
    fn store_allocates_and_dirties() {
        let mut m = hier();
        let a = m.store(0, 0x5000, AccessClass::Demand);
        assert_eq!(a.level, HitLevel::Mem);
        assert_eq!(m.stats().demand_stores, 1);
        let b = m.store(a.complete_at, 0x5000, AccessClass::Demand);
        assert_eq!(b.level, HitLevel::L1);
    }

    #[test]
    fn warm_touch_installs_without_stats_or_mshrs() {
        let mut m = hier();
        m.warm_touch(0x7000, false);
        m.warm_touch(0x8000, true);
        assert!(m.l1().contains(crate::line_of(0x7000)));
        assert!(m.l3().contains(crate::line_of(0x8000)));
        assert_eq!(m.stats().demand_loads, 0);
        assert_eq!(m.stats().demand_stores, 0);
        assert_eq!(m.stats().dram_demand, 0);
        assert_eq!(m.mshrs_in_use(0), 0);
        assert_eq!(m.mshr_busy_integral(0), 0);
        assert_eq!(m.dram_calendar_depth(), 0);
        // A warmed line hits in the L1 at cycle 0 — no residual latency.
        let a = m.load(0, 0x7000, AccessClass::Demand);
        assert_eq!(a.level, HitLevel::L1);
    }

    #[test]
    fn warm_eviction_cascades_without_dram_writebacks() {
        let mut m = hier();
        // Dirty a line, then stream enough distinct lines through warming
        // to evict it from every level.
        m.warm_touch(0, true);
        for i in 1..200_000u64 {
            m.warm_touch(i * 64, false);
        }
        assert_eq!(m.stats().dram_writebacks, 0);
        assert!(m.check_invariants(0, true).is_empty());
    }

    #[test]
    fn warm_state_roundtrips_and_behaves_identically() {
        let mut m = hier();
        // A mix of loads and stores with enough distinct lines for evictions.
        for i in 0..40_000u64 {
            m.warm_touch(i * 192, i % 7 == 0);
        }
        let bytes = m.warm_state_bytes();
        let mut r = MemoryHierarchy::from_warm_state(HierarchyConfig::default(), &bytes)
            .expect("warm image restores");
        // Identical residency and a byte-identical re-serialization.
        assert_eq!(r.l1().resident_lines(), m.l1().resident_lines());
        assert_eq!(r.l3().resident_lines(), m.l3().resident_lines());
        assert_eq!(r.warm_state_bytes(), bytes);
        // Restored hierarchy starts with clean dynamic state...
        assert_eq!(r.stats().demand_loads, 0);
        assert_eq!(r.mshr_busy_integral(0), 0);
        assert_eq!(r.dram_calendar_depth(), 0);
        // ...and identical demand behavior from the warm tags.
        let a = m.load(0, 999 * 192, AccessClass::Demand);
        let b = r.load(0, 999 * 192, AccessClass::Demand);
        assert_eq!((a.level, a.complete_at), (b.level, b.complete_at));
        assert!(r.check_invariants(0, true).is_empty());
    }

    #[test]
    fn warm_state_rejects_corrupt_and_mismatched_images() {
        let mut m = hier();
        m.warm_touch(0x4000, true);
        let bytes = m.warm_state_bytes();
        assert!(MemoryHierarchy::from_warm_state(HierarchyConfig::default(), &bytes[1..]).is_err());
        let mut truncated = bytes.clone();
        truncated.pop();
        assert!(MemoryHierarchy::from_warm_state(HierarchyConfig::default(), &truncated).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(MemoryHierarchy::from_warm_state(HierarchyConfig::default(), &trailing).is_err());
        // Way indices are strictly ascending, and each line sits in its own
        // set: a repeated, reordered or misplaced L1 line is not an encoder's.
        // The L1 lines start after the magic, tick and count, 21 bytes each.
        m.warm_touch(0x4040, false);
        let bytes = m.warm_state_bytes();
        let (first, second) = (20..41, 41..62);
        let load = |b: &[u8]| MemoryHierarchy::from_warm_state(HierarchyConfig::default(), b);
        let mut repeated = bytes.clone();
        repeated.copy_within(first.clone(), second.start);
        assert_eq!(load(&repeated).err(), Some(DecodeError::Invalid { field: "way" }));
        let mut reordered = bytes.clone();
        reordered[first.start..second.end].rotate_left(21);
        assert_eq!(load(&reordered).err(), Some(DecodeError::Invalid { field: "way" }));
        let mut misplaced = bytes;
        misplaced[first.start + 4] ^= 1; // the tag's low bit picks the set
        assert_eq!(load(&misplaced).err(), Some(DecodeError::Invalid { field: "tag" }));
        // A smaller geometry makes the saved way indices out of range.
        let tiny = HierarchyConfig {
            l1: CacheConfig { size_bytes: 4 * crate::LINE_BYTES, assoc: 1, latency: 1 },
            l2: CacheConfig { size_bytes: 8 * crate::LINE_BYTES, assoc: 1, latency: 2 },
            l3: CacheConfig { size_bytes: 16 * crate::LINE_BYTES, assoc: 1, latency: 3 },
            ..HierarchyConfig::default()
        };
        let mut big = hier();
        for i in 0..100_000u64 {
            big.warm_touch(i * 64, false);
        }
        assert!(MemoryHierarchy::from_warm_state(tiny, &big.warm_state_bytes()).is_err());
    }

    #[test]
    fn quiesce_settles_inflight_state_but_keeps_residency() {
        let mut m = hier();
        let a = m.load(0, 0x9000, AccessClass::Demand);
        assert!(a.complete_at > 0);
        assert!(m.mshrs_in_use(1) > 0);
        assert!(m.dram_calendar_depth() > 0);
        m.quiesce();
        assert_eq!(m.mshrs_in_use(1), 0);
        assert_eq!(m.dram_calendar_depth(), 0);
        // The line is still resident and now instantly ready: a new clock
        // starting at cycle 0 sees an L1 hit, not an in-flight merge.
        let b = m.load(0, 0x9000, AccessClass::Demand);
        assert_eq!(b.level, HitLevel::L1);
        assert!(m.check_invariants(0, true).is_empty());
    }
}
