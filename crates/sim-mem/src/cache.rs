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

/// The tag of an empty way. No line number reaches it: a line number is a
/// byte address over the 64-byte line size ([`crate::line_of`]), so it stays
/// below 2^58.
const EMPTY: u64 = u64::MAX;

/// The result of probing a cache for a line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Probe {
    /// Cycle the data is available (fills still in flight report the fill
    /// completion time).
    pub ready_at: u64,
}

/// A cache level's tag state apart from its in-flight fill times: the probe
/// tick and, per way in set-major order, a tag, an LRU stamp and a dirty
/// bit, each in an array of its own. An empty way holds the tag [`EMPTY`], a
/// zero stamp and a clear dirty bit.
///
/// Functional warming completes every fill at once, so this is the whole
/// warm state of a level ([`crate::WarmCaches`]). The default array has no
/// ways: it stands in for a level whose arrays are lent out
/// ([`Cache::take_tags`]).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub(crate) struct TagArray {
    assoc: usize,
    tick: u64,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
}

impl TagArray {
    /// An empty array of `cfg`'s geometry.
    fn empty(cfg: CacheConfig) -> Self {
        let ways = cfg.sets() * cfg.assoc;
        TagArray {
            assoc: cfg.assoc,
            tick: 0,
            tags: vec![EMPTY; ways],
            stamps: vec![0; ways],
            dirty: vec![false; ways],
        }
    }

    /// Serializes into `out`: the probe tick, the number of resident lines,
    /// then every resident way as `(way index, tag, LRU stamp, dirty flag)`,
    /// all little-endian.
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.tick.to_le_bytes());
        let resident = self.tags.iter().filter(|&&t| t != EMPTY).count();
        out.extend_from_slice(&(resident as u64).to_le_bytes());
        out.reserve(resident * (4 + 8 + 8 + 1));
        for (i, &tag) in self.tags.iter().enumerate() {
            if tag != EMPTY {
                out.extend_from_slice(&(i as u32).to_le_bytes());
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&self.stamps[i].to_le_bytes());
                out.push(u8::from(self.dirty[i]));
            }
        }
    }

    /// Reads a [`TagArray::save_state`] image of `cfg`'s geometry from `r`.
    ///
    /// Fails if the image is truncated, or holds what
    /// [`TagArray::save_state`] never writes for this geometry: way indices
    /// out of range or not strictly ascending, a line in the wrong set or
    /// holding the empty-way tag, an LRU stamp ahead of the tick, or a flag
    /// byte other than 0 or 1.
    pub(crate) fn load_state(cfg: CacheConfig, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut a = TagArray::empty(cfg);
        let set_mask = cfg.sets() - 1;
        a.tick = r.u64("tick")?;
        let resident = r.u64("valid lines")?;
        let mut next = 0; // the lowest way index the next line may take
        for _ in 0..resident {
            // One bounds check per way record (index, tag, LRU stamp, dirty
            // flag); its fields then come from a local reader, which the
            // compiler keeps in registers across this per-line loop.
            let mut way = Reader::new(r.take(4 + 8 + 8 + 1, "way")?);
            let idx = way.u32("way")? as usize;
            ensure(idx >= next && idx < a.tags.len(), "way")?;
            let (tag, stamp, dirty) = (way.u64("tag")?, way.u64("lru")?, way.bool("dirty")?);
            ensure(tag != EMPTY && (tag as usize & set_mask) == idx / cfg.assoc, "tag")?;
            ensure(stamp <= a.tick, "lru")?;
            (a.tags[idx], a.stamps[idx], a.dirty[idx]) = (tag, stamp, dirty);
            next = idx + 1;
        }
        Ok(a)
    }
}

/// Whether `tags` has `cfg`'s geometry.
fn fits(cfg: CacheConfig, tags: &TagArray) -> bool {
    tags.assoc == cfg.assoc && tags.tags.len() == cfg.sets() * cfg.assoc
}

/// A single cache level: a set-associative LRU tag array with per-line
/// dirty and in-flight (fill completion) state.
///
/// This is a *tag-only* model: data values live in the functional
/// [`sim_isa::SparseMemory`]; the cache decides latencies. Lines are
/// numbered as by [`crate::line_of`]. The ways are stored as arrays: the
/// tags contiguous, so one set of a 16-way level spans two host cache
/// lines, with the LRU stamps, dirty bits and fill times beside them.
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
    /// The number of sets less one: a line's set is its low bits.
    set_mask: usize,
    tags: TagArray,
    /// Per way, the cycle at which its fill completes; before this, the
    /// line is "in flight" (its MSHR is outstanding).
    ready_at: Vec<u64>,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache::from_tags(cfg, TagArray::empty(cfg)).expect("an empty array has its own geometry")
    }

    /// A cache of geometry `cfg` holding `tags`, every fill complete; `None`
    /// if `tags` has another geometry.
    pub(crate) fn from_tags(cfg: CacheConfig, tags: TagArray) -> Option<Self> {
        let ways = tags.tags.len();
        fits(cfg, &tags).then(|| Cache {
            cfg,
            set_mask: cfg.sets() - 1,
            tags,
            ready_at: vec![0; ways],
        })
    }

    /// The tag state, without in-flight fill times.
    pub(crate) fn tags(&self) -> &TagArray {
        &self.tags
    }

    /// Moves the tag state out, leaving a cache with no ways until
    /// [`Cache::put_tags`] returns it; fill times stay.
    pub(crate) fn take_tags(&mut self) -> TagArray {
        std::mem::take(&mut self.tags)
    }

    /// Puts back tag state taken by [`Cache::take_tags`]; `false`, leaving
    /// the cache as it is, if `tags` has another geometry.
    pub(crate) fn put_tags(&mut self, tags: TagArray) -> bool {
        let fit = fits(self.cfg, &tags);
        if fit {
            self.tags = tags;
        }
        fit
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Lookup latency in cycles.
    pub fn latency(&self) -> u64 {
        self.cfg.latency
    }

    /// The ways of `line`'s set.
    fn set_of(&self, line: u64) -> std::ops::Range<usize> {
        debug_assert_ne!(line, EMPTY, "line numbers stay below 2^58");
        let start = (line as usize & self.set_mask) * self.cfg.assoc;
        start..start + self.cfg.assoc
    }

    /// The way holding `line`, if any.
    fn find(&self, line: u64) -> Option<usize> {
        let set = self.set_of(line);
        let start = set.start;
        self.tags.tags[set].iter().position(|&t| t == line).map(|i| start + i)
    }

    /// Whether the line is present (regardless of in-flight state).
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Probes for `line`; on hit, refreshes LRU and returns its readiness.
    pub(crate) fn probe(&mut self, line: u64) -> Option<Probe> {
        self.tags.tick += 1;
        let way = self.find(line)?;
        self.tags.stamps[way] = self.tags.tick;
        Some(Probe { ready_at: self.ready_at[way] })
    }

    /// Marks a present line dirty (no-op if absent). Returns whether the
    /// line was found.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let Some(way) = self.find(line) else { return false };
        self.tags.dirty[way] = true;
        true
    }

    /// Inserts `line` (refreshing it if already present), evicting the LRU
    /// way if the set is full.
    ///
    /// Returns the evicted line as `(line, dirty)` if a valid line was
    /// displaced.
    pub fn insert(&mut self, line: u64, dirty: bool, ready_at: u64) -> Option<(u64, bool)> {
        self.tags.tick += 1;
        let tick = self.tags.tick;
        // Refresh if already present.
        if let Some(way) = self.find(line) {
            self.tags.stamps[way] = tick;
            self.tags.dirty[way] |= dirty;
            self.ready_at[way] = self.ready_at[way].min(ready_at);
            return None;
        }
        // Choose the first empty way, else the first least recently used.
        let set = self.set_of(line);
        let start = set.start;
        let victim = match self.tags.tags[set.clone()].iter().position(|&t| t == EMPTY) {
            Some(i) => i,
            None => {
                let stamps = &self.tags.stamps[set];
                let mut best = 0;
                for (i, &s) in stamps.iter().enumerate() {
                    if s < stamps[best] {
                        best = i;
                    }
                }
                best
            }
        };
        let way = start + victim;
        let old = self.tags.tags[way];
        let evicted = (old != EMPTY).then(|| (old, self.tags.dirty[way]));
        self.tags.tags[way] = line;
        self.tags.stamps[way] = tick;
        self.tags.dirty[way] = dirty;
        self.ready_at[way] = ready_at;
        evicted
    }

    /// Invalidates `line` if present; returns `(was_present, was_dirty)`.
    pub fn invalidate(&mut self, line: u64) -> (bool, bool) {
        let Some(way) = self.find(line) else { return (false, false) };
        let dirty = self.tags.dirty[way];
        (self.tags.tags[way], self.tags.stamps[way], self.tags.dirty[way]) = (EMPTY, 0, false);
        (true, dirty)
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Settles all in-flight fills: clamps every line's readiness to cycle
    /// 0, as if all outstanding fills had completed.
    ///
    /// Used at sampling interval boundaries, where the next detailed core
    /// restarts its cycle counter at 0 while resident lines still carry
    /// absolute `ready_at` stamps from the previous interval's clock.
    pub fn quiesce(&mut self) {
        self.ready_at.fill(0);
    }

    /// Read-only structural self-check for the `--sanitize` mode: every
    /// valid line must map to the set holding it, a set must not hold the
    /// same line twice, and LRU stamps can never run ahead of the probe
    /// tick. Returns one message per violated invariant.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut out = Vec::new();
        let TagArray { tick, ref tags, ref stamps, .. } = self.tags;
        for (set, ways) in tags.chunks(self.cfg.assoc).enumerate() {
            for (i, &tag) in ways.iter().enumerate() {
                if tag == EMPTY {
                    continue;
                }
                if (tag as usize) & self.set_mask != set {
                    out.push(format!("cache: line {tag} resident in wrong set {set}"));
                }
                let stamp = stamps[set * self.cfg.assoc + i];
                if stamp > tick {
                    out.push(format!("cache: line {tag} LRU stamp {stamp} ahead of tick {tick}"));
                }
                if ways[..i].contains(&tag) {
                    out.push(format!("cache: line {tag} duplicated in set {set}"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The array-of-ways cache this layout replaced, kept as the reference
    /// of [`differential`]: each way a struct with its own valid flag.
    #[derive(Clone, Copy, Debug, Default)]
    struct Way {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64,
        ready_at: u64,
    }

    struct WayCache {
        assoc: usize,
        sets: usize,
        ways: Vec<Way>,
        tick: u64,
    }

    impl WayCache {
        fn new(cfg: CacheConfig) -> Self {
            let sets = cfg.sets();
            WayCache {
                assoc: cfg.assoc,
                sets,
                ways: vec![Way::default(); sets * cfg.assoc],
                tick: 0,
            }
        }

        fn set_range(&self, line: u64) -> std::ops::Range<usize> {
            let start = ((line as usize) & (self.sets - 1)) * self.assoc;
            start..start + self.assoc
        }

        fn contains(&self, line: u64) -> bool {
            self.ways[self.set_range(line)].iter().any(|w| w.valid && w.tag == line)
        }

        fn probe(&mut self, line: u64) -> Option<u64> {
            self.tick += 1;
            let tick = self.tick;
            let range = self.set_range(line);
            let w = self.ways[range].iter_mut().find(|w| w.valid && w.tag == line)?;
            w.lru = tick;
            Some(w.ready_at)
        }

        fn mark_dirty(&mut self, line: u64) -> bool {
            let range = self.set_range(line);
            let Some(w) = self.ways[range].iter_mut().find(|w| w.valid && w.tag == line) else {
                return false;
            };
            w.dirty = true;
            true
        }

        fn insert(&mut self, line: u64, dirty: bool, ready_at: u64) -> Option<(u64, bool)> {
            self.tick += 1;
            let tick = self.tick;
            let range = self.set_range(line);
            if let Some(w) = self.ways[range.clone()].iter_mut().find(|w| w.valid && w.tag == line)
            {
                w.lru = tick;
                w.dirty |= dirty;
                w.ready_at = w.ready_at.min(ready_at);
                return None;
            }
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
            let evicted = if ways[victim].valid {
                Some((ways[victim].tag, ways[victim].dirty))
            } else {
                None
            };
            ways[victim] = Way { tag: line, valid: true, dirty, lru: tick, ready_at };
            evicted
        }

        fn invalidate(&mut self, line: u64) -> (bool, bool) {
            let range = self.set_range(line);
            match self.ways[range].iter_mut().find(|w| w.valid && w.tag == line) {
                Some(w) => {
                    w.valid = false;
                    (true, w.dirty)
                }
                None => (false, false),
            }
        }

        fn resident_lines(&self) -> usize {
            self.ways.iter().filter(|w| w.valid).count()
        }

        fn quiesce(&mut self) {
            for w in self.ways.iter_mut().filter(|w| w.valid) {
                w.ready_at = 0;
            }
        }

        fn save_state(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.tick.to_le_bytes());
            let valid = self.ways.iter().filter(|w| w.valid).count() as u64;
            out.extend_from_slice(&valid.to_le_bytes());
            for (i, w) in self.ways.iter().enumerate().filter(|(_, w)| w.valid) {
                out.extend_from_slice(&(i as u32).to_le_bytes());
                out.extend_from_slice(&w.tag.to_le_bytes());
                out.extend_from_slice(&w.lru.to_le_bytes());
                out.push(w.dirty as u8);
            }
        }
    }

    /// One call on a cache, for [`differential`].
    #[derive(Clone, Debug)]
    enum Op {
        Probe(u64),
        Insert(u64, bool, u64),
        MarkDirty(u64),
        Invalidate(u64),
        Contains(u64),
        Quiesce,
    }

    /// Calls on lines `0..lines` (line 0 included), insertions weighted up so
    /// sets fill and evict.
    fn ops(lines: u64) -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (0..lines).prop_map(Op::Probe),
            (0..lines, any::<bool>(), 0u64..1_000).prop_map(|(l, d, r)| Op::Insert(l, d, r)),
            (0..lines, any::<bool>(), 0u64..1_000).prop_map(|(l, d, r)| Op::Insert(l, d, r)),
            (0..lines).prop_map(Op::MarkDirty),
            (0..lines).prop_map(Op::Invalidate),
            (0..lines).prop_map(Op::Contains),
            Just(Op::Quiesce),
        ];
        prop::collection::vec(op, 0..300)
    }

    /// Drives the tag-array cache and the array-of-ways reference through
    /// `ops`: every call must return the same, and the two must end with
    /// the same resident lines and the same warm-image bytes.
    fn differential(cfg: CacheConfig, ops: &[Op]) -> Result<(), TestCaseError> {
        let (mut c, mut r) = (Cache::new(cfg), WayCache::new(cfg));
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Probe(l) => {
                    prop_assert_eq!(c.probe(l).map(|p| p.ready_at), r.probe(l), "step {}", step)
                }
                Op::Insert(l, d, at) => {
                    prop_assert_eq!(c.insert(l, d, at), r.insert(l, d, at), "step {}", step)
                }
                Op::MarkDirty(l) => {
                    prop_assert_eq!(c.mark_dirty(l), r.mark_dirty(l), "step {}", step)
                }
                Op::Invalidate(l) => {
                    prop_assert_eq!(c.invalidate(l), r.invalidate(l), "step {}", step)
                }
                Op::Contains(l) => prop_assert_eq!(c.contains(l), r.contains(l), "step {}", step),
                Op::Quiesce => {
                    c.quiesce();
                    r.quiesce();
                }
            }
        }
        prop_assert_eq!(c.resident_lines(), r.resident_lines());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        c.tags().save_state(&mut got);
        r.save_state(&mut want);
        prop_assert_eq!(got, want);
        prop_assert!(c.check_invariants().is_empty());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tag_arrays_match_the_way_array_on_4_sets_of_2(ops in ops(20)) {
            differential(CacheConfig { size_bytes: 8 * LINE_BYTES, assoc: 2, latency: 4 }, &ops)?;
        }

        #[test]
        fn tag_arrays_match_the_way_array_on_2_sets_of_16(ops in ops(48)) {
            differential(CacheConfig { size_bytes: 32 * LINE_BYTES, assoc: 16, latency: 4 }, &ops)?;
        }
    }

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
