//! A set-associative, LRU, write-back cache tag array.

use sim_isa::bytes::{ensure, DecodeError, Reader};

use crate::LINE_BYTES;

/// Geometry and access latency of one cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Lookup latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole power-of-two sets.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / LINE_BYTES;
        let sets = lines as usize / self.assoc;
        assert!(sets > 0 && sets.is_power_of_two(), "cache sets must be a power of two");
        sets
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
    /// Cycle at which the fill completes; before this, the line is
    /// "in flight" (its MSHR is outstanding).
    ready_at: u64,
}

/// The result of probing a cache for a line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Probe {
    /// Cycle the data is available (fills still in flight report the fill
    /// completion time).
    pub ready_at: u64,
}

/// A single cache level: a set-associative LRU tag array with per-line
/// dirty and in-flight (fill completion) state.
///
/// This is a *tag-only* model: data values live in the functional
/// [`sim_isa::SparseMemory`]; the cache decides latencies.
///
/// # Example
///
/// ```
/// use sim_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size_bytes: 32 * 1024, assoc: 8, latency: 4 });
/// assert!(!c.contains(42));
/// c.insert(42, false, 0);
/// assert!(c.contains(42));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    ways: Vec<Way>,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache { cfg, sets, ways: vec![Way::default(); sets * cfg.assoc], tick: 0 }
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Lookup latency in cycles.
    pub fn latency(&self) -> u64 {
        self.cfg.latency
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line as usize) & (self.sets - 1);
        let start = set * self.cfg.assoc;
        start..start + self.cfg.assoc
    }

    /// Whether the line is present (regardless of in-flight state).
    pub fn contains(&self, line: u64) -> bool {
        self.ways[self.set_range(line)].iter().any(|w| w.valid && w.tag == line)
    }

    /// Probes for `line`; on hit, refreshes LRU and returns its readiness.
    pub(crate) fn probe(&mut self, line: u64) -> Option<Probe> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        for w in &mut self.ways[range] {
            if w.valid && w.tag == line {
                w.lru = tick;
                return Some(Probe { ready_at: w.ready_at });
            }
        }
        None
    }

    /// Marks a present line dirty (no-op if absent). Returns whether the
    /// line was found.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let range = self.set_range(line);
        for w in &mut self.ways[range] {
            if w.valid && w.tag == line {
                w.dirty = true;
                return true;
            }
        }
        false
    }

    /// Inserts `line` (refreshing it if already present), evicting the LRU
    /// way if the set is full.
    ///
    /// Returns the evicted line as `(line, dirty)` if a valid line was
    /// displaced.
    pub fn insert(&mut self, line: u64, dirty: bool, ready_at: u64) -> Option<(u64, bool)> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        // Refresh if already present.
        for w in &mut self.ways[range.clone()] {
            if w.valid && w.tag == line {
                w.lru = tick;
                w.dirty |= dirty;
                w.ready_at = w.ready_at.min(ready_at);
                return None;
            }
        }
        // Choose an invalid way, else the LRU way.
        let ways = &mut self.ways[range];
        let victim = match ways.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => {
                let mut best = 0;
                for (i, w) in ways.iter().enumerate() {
                    if w.lru < ways[best].lru {
                        best = i;
                    }
                }
                best
            }
        };
        let evicted =
            if ways[victim].valid { Some((ways[victim].tag, ways[victim].dirty)) } else { None };
        ways[victim] = Way { tag: line, valid: true, dirty, lru: tick, ready_at };
        evicted
    }

    /// Invalidates `line` if present; returns `(was_present, was_dirty)`.
    pub fn invalidate(&mut self, line: u64) -> (bool, bool) {
        let range = self.set_range(line);
        for w in &mut self.ways[range] {
            if w.valid && w.tag == line {
                w.valid = false;
                return (true, w.dirty);
            }
        }
        (false, false)
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }

    /// Settles all in-flight fills: clamps every valid line's readiness to
    /// cycle 0, as if all outstanding fills had completed.
    ///
    /// Used at sampling interval boundaries, where the next detailed core
    /// restarts its cycle counter at 0 while resident lines still carry
    /// absolute `ready_at` stamps from the previous interval's clock.
    pub fn quiesce(&mut self) {
        for w in &mut self.ways {
            if w.valid {
                w.ready_at = 0;
            }
        }
    }

    /// Serializes the tag array into `out`: the probe tick followed by
    /// every valid way as `(way index, tag, LRU stamp, dirty flag)`, all
    /// little-endian. In-flight state (`ready_at`) is deliberately *not*
    /// captured — warm images are taken from functional warming, where all
    /// fills complete instantly, and restore targets a core whose cycle
    /// counter restarts at 0 (see [`Cache::quiesce`]).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.tick.to_le_bytes());
        let valid = self.ways.iter().filter(|w| w.valid).count() as u64;
        out.extend_from_slice(&valid.to_le_bytes());
        for (i, w) in self.ways.iter().enumerate() {
            if w.valid {
                out.extend_from_slice(&(i as u32).to_le_bytes());
                out.extend_from_slice(&w.tag.to_le_bytes());
                out.extend_from_slice(&w.lru.to_le_bytes());
                out.push(w.dirty as u8);
            }
        }
    }

    /// Restores a [`Cache::save_state`] image into this cache from `r`.
    ///
    /// Fails (leaving the cache in an unspecified state) if the image is
    /// truncated, or holds what [`Cache::save_state`] never writes for this
    /// geometry: way indices out of range or not strictly ascending, a line
    /// in the wrong set, an LRU stamp ahead of the tick, or a flag byte
    /// other than 0 or 1.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.tick = r.u64("tick")?;
        let valid = r.u64("valid lines")?;
        self.ways.fill(Way::default());
        let mut next = 0; // the lowest way index the next line may take
        for _ in 0..valid {
            // One bounds check per way record (index, tag, LRU stamp, dirty
            // flag); its fields then come from a local reader, which the
            // compiler keeps in registers across this per-line loop.
            let mut way = Reader::new(r.take(4 + 8 + 8 + 1, "way")?);
            let idx = way.u32("way")? as usize;
            ensure(idx >= next && idx < self.ways.len(), "way")?;
            let (tag, lru, dirty) = (way.u64("tag")?, way.u64("lru")?, way.bool("dirty")?);
            ensure(self.set_range(tag).contains(&idx), "tag")?;
            ensure(lru <= self.tick, "lru")?;
            self.ways[idx] = Way { tag, valid: true, dirty, lru, ready_at: 0 };
            next = idx + 1;
        }
        Ok(())
    }

    /// Read-only structural self-check for the `--sanitize` mode: every
    /// valid line must map to the set holding it, a set must not hold the
    /// same line twice, and LRU stamps can never run ahead of the probe
    /// tick. Returns one message per violated invariant.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut out = Vec::new();
        for set in 0..self.sets {
            let ways = &self.ways[set * self.cfg.assoc..(set + 1) * self.cfg.assoc];
            for (i, w) in ways.iter().enumerate() {
                if !w.valid {
                    continue;
                }
                if (w.tag as usize) & (self.sets - 1) != set {
                    out.push(format!("cache: line {} resident in wrong set {set}", w.tag));
                }
                if w.lru > self.tick {
                    out.push(format!(
                        "cache: line {} LRU stamp {} ahead of tick {}",
                        w.tag, w.lru, self.tick
                    ));
                }
                if ways[..i].iter().any(|o| o.valid && o.tag == w.tag) {
                    out.push(format!("cache: line {} duplicated in set {set}", w.tag));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways.
        Cache::new(CacheConfig { size_bytes: 8 * LINE_BYTES, assoc: 2, latency: 4 })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 4);
    }

    #[test]
    fn insert_then_hit() {
        let mut c = tiny();
        assert!(c.probe(5).is_none());
        c.insert(5, false, 10);
        let p = c.probe(5).unwrap();
        assert_eq!(p.ready_at, 10);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(0, false, 0);
        c.insert(4, false, 0);
        // Touch 0 so 4 becomes LRU.
        c.probe(0);
        let evicted = c.insert(8, false, 0);
        assert_eq!(evicted, Some((4, false)));
        assert!(c.contains(0));
        assert!(c.contains(8));
        assert!(!c.contains(4));
    }

    #[test]
    fn dirty_propagates_through_eviction() {
        let mut c = tiny();
        c.insert(0, false, 0);
        assert!(c.mark_dirty(0));
        c.insert(4, false, 0);
        let evicted = c.insert(8, false, 0);
        assert_eq!(evicted, Some((0, true)));
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let mut c = tiny();
        c.insert(3, false, 0);
        assert!(c.insert(3, true, 0).is_none());
        assert_eq!(c.resident_lines(), 1);
        // Now dirty because of the second insert.
        let (present, dirty) = c.invalidate(3);
        assert!(present && dirty);
    }

    #[test]
    fn invalidate_missing_line() {
        let mut c = tiny();
        assert_eq!(c.invalidate(99), (false, false));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig { size_bytes: 3 * LINE_BYTES, assoc: 1, latency: 1 });
    }
}
