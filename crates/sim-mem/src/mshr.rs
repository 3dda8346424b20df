//! Miss-status holding registers (MSHRs) for the L1-D cache.

use crate::fault::NEVER_COMPLETES;

/// A file of MSHRs tracking outstanding L1-D misses.
///
/// Capacity-limits memory-level parallelism: a miss cannot leave the core
/// without an MSHR. Demand (and runahead-subthread) misses *wait* for a free
/// entry; hardware prefetchers *drop* their request instead. To keep
/// speculative traffic from starving the main thread, prefetch-class
/// entries are additionally capped below the full capacity (a standard
/// prefetch-throttling policy; demand may always use every entry).
///
/// The file integrates occupancy over time, which is the MLP metric of the
/// paper's Figure 9 (average MSHRs used per cycle).
///
/// # Example
///
/// ```
/// use sim_mem::MshrFile;
/// let mut m = MshrFile::new(2);
/// let start = m.alloc_blocking(0, false);  // free entry
/// m.commit(start, 100, false);             // miss outstanding until cycle 100
/// let start = m.alloc_blocking(0, false);
/// m.commit(start, 150, false);             // second entry
/// assert!(m.try_alloc(50, true).is_none());    // full: a prefetch drops
/// assert_eq!(m.alloc_blocking(50, false), 100); // a demand miss waits
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    capacity: usize,
    prefetch_cap: usize,
    /// Live entries: `(completion_cycle, is_prefetch)`. Entries with
    /// `end <= now` are free for reuse.
    ends: Vec<(u64, bool)>,
    /// Occupancy of entries with a known completion cycle.
    busy_integral: u64,
    /// Start cycles of entries whose response was dropped by fault
    /// injection: they never complete, so a reader charges them only up
    /// to the cycle it asks about.
    stuck_since: Vec<u64>,
    allocations: u64,
    peak: usize,
}

impl MshrFile {
    /// Creates a file with `capacity` entries and a prefetch cap of 2/3 of
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        MshrFile::with_prefetch_cap(capacity, (capacity * 2 / 3).max(1))
    }

    /// Creates a file with an explicit prefetch-class cap.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or the cap exceeds capacity.
    pub fn with_prefetch_cap(capacity: usize, prefetch_cap: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        assert!(prefetch_cap <= capacity, "prefetch cap cannot exceed capacity");
        MshrFile {
            capacity,
            prefetch_cap: prefetch_cap.max(1),
            ends: Vec::with_capacity(capacity),
            busy_integral: 0,
            stuck_since: Vec::new(),
            allocations: 0,
            peak: 0,
        }
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Maximum prefetch-class entries outstanding at once.
    pub fn prefetch_cap(&self) -> usize {
        self.prefetch_cap
    }

    /// Number of entries outstanding at `cycle`.
    pub fn in_use(&self, cycle: u64) -> usize {
        self.ends.iter().filter(|(e, _)| *e > cycle).count()
    }

    /// Number of prefetch-class entries outstanding at `cycle`.
    pub fn prefetch_in_use(&self, cycle: u64) -> usize {
        self.ends.iter().filter(|(e, p)| *e > cycle && *p).count()
    }

    /// Whether an entry is free at `cycle` for the given class.
    pub fn has_free(&self, cycle: u64, is_prefetch: bool) -> bool {
        let total_free = self.in_use(cycle) < self.capacity;
        if is_prefetch {
            total_free && self.prefetch_in_use(cycle) < self.prefetch_cap
        } else {
            total_free
        }
    }

    /// Allocates an entry at `cycle`, or returns `None` if the class has no
    /// free entry (non-blocking: used by hardware prefetchers, which drop).
    ///
    /// The entry's lifetime must then be fixed with [`MshrFile::commit`].
    pub fn try_alloc(&mut self, cycle: u64, is_prefetch: bool) -> Option<u64> {
        self.has_free(cycle, is_prefetch).then_some(cycle)
    }

    /// Allocates an entry, waiting for outstanding entries to complete if
    /// the class is saturated. Returns the cycle at which the allocation
    /// takes effect (the miss's effective start time).
    pub fn alloc_blocking(&mut self, cycle: u64, is_prefetch: bool) -> u64 {
        let mut start = cycle;
        // At most a few rounds: each round advances past one constraint.
        for _ in 0..4 {
            if self.has_free(start, is_prefetch) {
                return start;
            }
            let class_block = is_prefetch && self.prefetch_in_use(start) >= self.prefetch_cap;
            let next = self
                .ends
                .iter()
                .filter(|(e, p)| *e > start && (!class_block || *p))
                .map(|(e, _)| *e)
                .min();
            match next {
                Some(e) => start = e,
                None => return start,
            }
        }
        start
    }

    /// Records an allocated entry's `(start, end)` lifetime, updating the
    /// occupancy integral. An `end` at or past the never-completing cycle
    /// of a dropped response holds the entry for the rest of the run.
    pub fn commit(&mut self, start: u64, end: u64, is_prefetch: bool) {
        debug_assert!(end >= start);
        self.allocations += 1;
        if end >= NEVER_COMPLETES {
            self.stuck_since.push(start);
        } else {
            self.busy_integral += end - start;
        }
        // Reuse a completed slot if possible.
        if let Some(slot) = self.ends.iter_mut().find(|(e, _)| *e <= start) {
            *slot = (end, is_prefetch);
        } else if self.ends.len() < self.capacity {
            self.ends.push((end, is_prefetch));
        } else {
            // Blocking allocation replaced the earliest-completing entry.
            if let Some(slot) = self.ends.iter_mut().min_by_key(|(e, _)| *e) {
                *slot = (end, is_prefetch);
            }
        }
        let used = self.in_use(start);
        self.peak = self.peak.max(used);
    }

    /// Total MSHR-cycles of occupancy accumulated by cycle `until`, the
    /// cycle the run stopped at (for Figure 9's MSHRs-per-cycle average,
    /// divide by elapsed cycles). An entry whose response never arrives is
    /// charged from its start up to `until`, not to its never-completing
    /// end.
    pub fn busy_integral(&self, until: u64) -> u64 {
        let stuck: u64 = self.stuck_since.iter().map(|&s| until.saturating_sub(s)).sum();
        self.busy_integral + stuck
    }

    /// Total entries allocated over the run.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Releases every outstanding entry, as if all in-flight misses had
    /// completed. The cumulative counters (occupancy integral, allocation
    /// and peak statistics) are preserved.
    ///
    /// Used at sampling interval boundaries: entry completion times are
    /// absolute cycles of the previous interval's clock and would otherwise
    /// block the next interval's cycle-0 restart for its entire length.
    ///
    /// Entries whose response was dropped are released too, and stop
    /// accruing occupancy.
    pub fn quiesce(&mut self) {
        self.ends.clear();
        self.stuck_since.clear();
    }

    /// Read-only allocate/release balance check for the `--sanitize` mode:
    /// tracked entries and live occupancy can never exceed capacity (every
    /// allocation is paired with a completion time; the blocking allocator
    /// reuses or replaces slots rather than growing the file). The
    /// prefetch-class cap is deliberately *not* asserted here: the bounded
    /// wait in [`MshrFile::alloc_blocking`] may give up after a few rounds,
    /// transiently exceeding it by design.
    pub fn check_invariants(&self, cycle: u64) -> Vec<String> {
        let mut out = Vec::new();
        if self.ends.len() > self.capacity {
            out.push(format!(
                "mshr: {} tracked entries exceed capacity {}",
                self.ends.len(),
                self.capacity
            ));
        }
        let used = self.in_use(cycle);
        if used > self.capacity {
            out.push(format!("mshr: {used} live entries exceed capacity {}", self.capacity));
        }
        if self.peak > self.capacity {
            out.push(format!("mshr: peak {} exceeds capacity {}", self.peak, self.capacity));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_alloc_waits_for_earliest() {
        let mut m = MshrFile::new(2);
        m.commit(0, 100, false);
        m.commit(0, 50, false);
        // Full at cycle 10; earliest completion is 50.
        assert_eq!(m.alloc_blocking(10, false), 50);
        // Free again at 60.
        assert_eq!(m.alloc_blocking(60, false), 60);
    }

    #[test]
    fn try_alloc_drops_when_full() {
        let mut m = MshrFile::new(1);
        m.commit(0, 100, false);
        assert!(m.try_alloc(10, true).is_none());
        assert_eq!(m.try_alloc(100, true), Some(100));
    }

    #[test]
    fn occupancy_integral_accumulates() {
        let mut m = MshrFile::new(4);
        m.commit(0, 10, false);
        m.commit(5, 25, true);
        assert_eq!(m.busy_integral(25), 10 + 20);
        assert_eq!(m.allocations(), 2);
    }

    #[test]
    fn in_use_counts_live_entries() {
        let mut m = MshrFile::new(4);
        m.commit(0, 10, false);
        m.commit(0, 20, true);
        assert_eq!(m.in_use(5), 2);
        assert_eq!(m.prefetch_in_use(5), 1);
        assert_eq!(m.in_use(15), 1);
        assert_eq!(m.in_use(25), 0);
        assert_eq!(m.peak(), 2);
    }

    #[test]
    fn prefetch_cap_leaves_demand_headroom() {
        let mut m = MshrFile::with_prefetch_cap(4, 2);
        m.commit(0, 100, true);
        m.commit(0, 100, true);
        // Prefetch class saturated: the next prefetch waits...
        assert!(m.try_alloc(10, true).is_none());
        assert_eq!(m.alloc_blocking(10, true), 100);
        // ...but demand still allocates immediately.
        assert_eq!(m.alloc_blocking(10, false), 10);
        assert!(m.try_alloc(10, false).is_some());
    }

    #[test]
    fn demand_can_use_all_entries() {
        let mut m = MshrFile::with_prefetch_cap(2, 1);
        m.commit(0, 100, false);
        m.commit(0, 200, false);
        assert_eq!(m.alloc_blocking(0, false), 100);
    }

    #[test]
    fn prefetch_waits_for_prefetch_slot_not_just_any() {
        let mut m = MshrFile::with_prefetch_cap(4, 1);
        m.commit(0, 500, true); // the one prefetch slot, busy until 500
        m.commit(0, 50, false); // demand, done at 50
                                // A prefetch must wait for the *prefetch* entry to free, not the
                                // demand one.
        assert_eq!(m.alloc_blocking(10, true), 500);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn oversized_cap_panics() {
        let _ = MshrFile::with_prefetch_cap(2, 3);
    }
}
