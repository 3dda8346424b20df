//! Byte-addressed sparse memory.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bytes::{ensure, DecodeError, Reader};
use crate::fxhash::FxHashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE - 1) as u64;

/// Sentinel for "no page cached" in [`SparseMemory::last`]. Unreachable as
/// a real entry: it would need page number `u32::MAX` *and* slot
/// `u32::MAX`, and only pages below `u32::MAX` are ever cached.
const NO_CACHE: u64 = u64::MAX;

/// One 4 KiB page payload: owned by this image, or shared copy-on-write
/// with other images and checkpoints.
#[derive(Clone)]
enum Page {
    /// Written in place; `Clone` deep-copies it.
    Owned(Box<[u8; PAGE_SIZE]>),
    /// Immutable and reference-counted; `Clone` shares it, and the first
    /// write through [`Page::writable`] copies it into an owned page.
    Shared(Arc<[u8; PAGE_SIZE]>),
}

impl Page {
    #[inline]
    fn bytes(&self) -> &[u8; PAGE_SIZE] {
        match self {
            Page::Owned(b) => b,
            Page::Shared(a) => a,
        }
    }

    /// The page for writing. An owned page costs one match; a shared page
    /// is first copied, once, so the write path never touches a reference
    /// count.
    #[inline]
    fn writable(&mut self) -> &mut [u8; PAGE_SIZE] {
        if let Page::Shared(_) = self {
            self.unshare();
        }
        match self {
            Page::Owned(b) => b,
            Page::Shared(_) => unreachable!("shared page was just copied"),
        }
    }

    /// Replaces a shared page by an owned copy. Kept out of line so the
    /// write path's frame stays small: a page is unshared at most once per
    /// share.
    #[cold]
    #[inline(never)]
    fn unshare(&mut self) {
        if let Page::Shared(a) = self {
            *self = Page::Owned(Box::new(**a));
        }
    }

    /// The page as a shared payload: a reference-count increment if it is
    /// already shared, otherwise one copy.
    fn to_shared(&self) -> Arc<[u8; PAGE_SIZE]> {
        match self {
            Page::Owned(b) => Arc::new(**b),
            Page::Shared(a) => Arc::clone(a),
        }
    }
}

/// A flat 64-bit byte-addressed memory, allocated in 4 KiB pages on first
/// touch. Unwritten bytes read as zero.
///
/// This is the *functional* memory image shared by the main thread's
/// executor and the runahead engines; timing is modelled separately in
/// `sim-mem`.
///
/// Pages live in a flat slot vector; a hash map (FxHash — page-number keys
/// need no SipHash) translates page number → slot, and a one-entry cache
/// remembers the last translation so the common page-local access streams
/// skip the map entirely. The cache is an [`AtomicU64`] (packed
/// `page << 32 | slot`, relaxed ordering) so reads through `&self` can
/// refresh it while the type stays `Sync` for sharing built workloads
/// across simulation threads.
///
/// A slot holds an owned page or a shared one. Pages are owned until
/// [`SparseMemory::share`] freezes them; after that, `Clone` costs a
/// reference-count increment per page instead of a 4 KiB copy, and each
/// image copies a page back into an owned one on its first write to it.
/// An image that never calls `share` behaves and costs exactly as a plain
/// owned image: writes never touch an atomic.
///
/// # Example
///
/// ```
/// use sim_isa::SparseMemory;
/// let mut mem = SparseMemory::new();
/// mem.write_u64(0xdead_0000, 42);
/// assert_eq!(mem.read_u64(0xdead_0000), 42);
/// assert_eq!(mem.read_u64(0x1234), 0); // untouched => zero
/// ```
#[derive(Default)]
pub struct SparseMemory {
    /// Page payloads, indexed by slot.
    slots: Vec<Page>,
    /// Page number → slot index.
    map: FxHashMap<u64, u32>,
    /// Last successful translation, packed `page << 32 | slot`.
    last: AtomicU64,
}

impl Clone for SparseMemory {
    fn clone(&self) -> Self {
        // Slot indices are position-based, so the cached translation stays
        // valid in the clone; the atomic itself cannot be derived `Clone`.
        // Owned pages are deep-copied, shared ones shared.
        SparseMemory {
            slots: self.slots.clone(),
            map: self.map.clone(),
            last: AtomicU64::new(self.last.load(Ordering::Relaxed)),
        }
    }
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        SparseMemory {
            slots: Vec::new(),
            map: FxHashMap::default(),
            last: AtomicU64::new(NO_CACHE),
        }
    }

    /// Number of 4 KiB pages currently allocated.
    pub fn page_count(&self) -> usize {
        self.slots.len()
    }

    /// Resident footprint in bytes (allocated pages × page size).
    pub fn footprint_bytes(&self) -> usize {
        self.slots.len() * PAGE_SIZE
    }

    /// An order-independent digest of the architectural memory contents.
    ///
    /// Two memories with identical byte contents produce identical
    /// checksums regardless of page allocation order, so tests can assert
    /// that two runs ended in the same architectural state (e.g. that
    /// prefetch-path fault injection never perturbs it). All-zero pages
    /// hash like absent pages: untouched bytes read as zero either way.
    pub fn checksum(&self) -> u64 {
        let mut sum = 0u64;
        for (&page, &slot) in &self.map {
            let bytes = self.slots[slot as usize].bytes();
            if bytes.iter().all(|&b| b == 0) {
                continue;
            }
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ page.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for &b in bytes.iter() {
                h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
            // XOR-combine per-page digests so map iteration order cannot
            // matter.
            sum ^= h;
        }
        sum
    }

    /// Translates `page` to its slot, consulting the one-entry cache first.
    #[inline]
    fn slot_of(&self, page: u64) -> Option<usize> {
        let packed = self.last.load(Ordering::Relaxed);
        if packed >> 32 == page && packed != NO_CACHE {
            return Some((packed & 0xffff_ffff) as usize);
        }
        let slot = *self.map.get(&page)?;
        if page < u32::MAX as u64 {
            self.last.store(page << 32 | slot as u64, Ordering::Relaxed);
        }
        Some(slot as usize)
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.slot_of(addr >> PAGE_SHIFT).map(|s| self.slots[s].bytes())
    }

    /// The slot holding `page`, allocated (as an owned zero page) on first
    /// touch.
    #[inline(always)]
    fn slot_index(&mut self, page: u64) -> usize {
        match self.slot_of(page) {
            Some(s) => s,
            None => self.alloc_slot(page),
        }
    }

    #[cold]
    fn alloc_slot(&mut self, page: u64) -> usize {
        let s = self.slots.len() as u32;
        self.slots.push(Page::Owned(Box::new([0u8; PAGE_SIZE])));
        self.map.insert(page, s);
        if page < u32::MAX as u64 {
            *self.last.get_mut() = page << 32 | s as u64;
        }
        s as usize
    }

    /// The page holding `addr`, ready for writing. Out of line, with the
    /// translation inlined, so that `write` stays small enough to inline
    /// into `write_u64` and its siblings with a constant width: a store
    /// is then one call and one move, as for an all-owned image.
    #[inline(never)]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let slot = self.slot_index(addr >> PAGE_SHIFT);
        self.slots[slot].writable()
    }

    /// Turns every owned page into a shared one, so that clones of this
    /// image, and checkpoints taken from it, share its pages instead of
    /// copying them. Costs one copy per owned page; pages already shared
    /// are left as they are. Contents are unchanged.
    pub fn share(&mut self) {
        for slot in &mut self.slots {
            if let Page::Owned(b) = slot {
                *slot = Page::Shared(Arc::new(**b));
            }
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `width` bytes (1, 2, 4, or 8) little-endian, zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4, or 8.
    pub fn read(&self, addr: u64, width: u64) -> u64 {
        assert!(matches!(width, 1 | 2 | 4 | 8), "invalid access width {width}");
        let off = (addr & PAGE_MASK) as usize;
        if off + width as usize <= PAGE_SIZE {
            // Fast path: within one page.
            match self.page(addr) {
                Some(p) => {
                    let mut buf = [0u8; 8];
                    buf[..width as usize].copy_from_slice(&p[off..off + width as usize]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            }
        } else {
            let mut v: u64 = 0;
            for k in (0..width).rev() {
                v = (v << 8) | self.read_u8(addr.wrapping_add(k)) as u64;
            }
            v
        }
    }

    /// Writes the low `width` bytes (1, 2, 4, or 8) of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4, or 8.
    pub fn write(&mut self, addr: u64, width: u64, value: u64) {
        assert!(matches!(width, 1 | 2 | 4 | 8), "invalid access width {width}");
        let off = (addr & PAGE_MASK) as usize;
        if off + width as usize <= PAGE_SIZE {
            let p = self.page_mut(addr);
            let bytes = value.to_le_bytes();
            p[off..off + width as usize].copy_from_slice(&bytes[..width as usize]);
        } else {
            let mut v = value;
            for k in 0..width {
                self.write_u8(addr.wrapping_add(k), (v & 0xff) as u8);
                v >>= 8;
            }
        }
    }

    /// Reads a 64-bit word.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, 8)
    }

    /// Writes a 64-bit word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, 8, value);
    }

    /// Reads a 32-bit word (zero-extended).
    pub fn read_u32(&self, addr: u64) -> u64 {
        self.read(addr, 4)
    }

    /// Writes a 32-bit word.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write(addr, 4, value as u64);
    }

    /// Writes a slice of u64 words starting at `addr` (convenience for
    /// workload setup).
    pub fn write_u64_slice(&mut self, addr: u64, values: &[u64]) {
        for (k, v) in values.iter().enumerate() {
            self.write_u64(addr + 8 * k as u64, *v);
        }
    }

    /// Writes a slice of u32 words starting at `addr`.
    pub fn write_u32_slice(&mut self, addr: u64, values: &[u32]) {
        for (k, v) in values.iter().enumerate() {
            self.write_u32(addr + 4 * k as u64, *v);
        }
    }

    /// Captures the pages of `self` that differ from `base` as a sparse
    /// delta checkpoint.
    ///
    /// `base` is typically the pristine workload image this memory evolved
    /// from (writes only ever allocate pages, so every page of `base` is
    /// still present in `self`). Pages absent from `base` compare against
    /// zeros, so a checkpoint against `SparseMemory::new()` captures every
    /// non-zero page.
    ///
    /// A page that shares its payload with `base`'s page is skipped without
    /// a byte comparison; a changed page that is already shared is captured
    /// by reference, so after [`SparseMemory::share`] a checkpoint copies
    /// nothing.
    pub fn checkpoint_delta(&self, base: &SparseMemory) -> MemoryCheckpoint {
        let zero = [0u8; PAGE_SIZE];
        let mut pages: Vec<(u64, Arc<[u8; PAGE_SIZE]>)> = Vec::new();
        for (&page, &slot) in &self.map {
            let cur = &self.slots[slot as usize];
            let was = base.map.get(&page).map(|&s| &base.slots[s as usize]);
            if let (Page::Shared(a), Some(Page::Shared(b))) = (cur, was) {
                if Arc::ptr_eq(a, b) {
                    continue;
                }
            }
            if cur.bytes()[..] != was.map_or(&zero, Page::bytes)[..] {
                pages.push((page, cur.to_shared()));
            }
        }
        // Map iteration order is nondeterministic; sort so serialized
        // checkpoints are byte-identical across runs.
        pages.sort_unstable_by_key(|&(p, _)| p);
        MemoryCheckpoint { pages }
    }

    /// Reconstructs the checkpointed memory: a clone of `base` with the
    /// delta's pages applied. Inverse of [`SparseMemory::checkpoint_delta`]
    /// (for a delta taken against the same `base`).
    ///
    /// The delta's pages are installed shared, and the clone of a shared
    /// `base` shares its pages, so restoring copies no page until the
    /// restored image writes to it.
    pub fn restore_from(base: &SparseMemory, delta: &MemoryCheckpoint) -> SparseMemory {
        let mut mem = base.clone();
        for (page, bytes) in &delta.pages {
            let slot = mem.slot_index(*page);
            mem.slots[slot] = Page::Shared(Arc::clone(bytes));
        }
        mem
    }
}

/// A sparse dirty-page delta of a [`SparseMemory`] against a base image —
/// the memory half of an architectural checkpoint. Serializable and
/// deterministic (pages are stored in ascending page-number order).
///
/// Pages are immutable and shared: cloning a checkpoint, taking one from a
/// shared image, and restoring from one copy no page payload.
#[derive(Clone, PartialEq, Eq)]
pub struct MemoryCheckpoint {
    /// `(page_number, page_bytes)` pairs, sorted by page number.
    pages: Vec<(u64, Arc<[u8; PAGE_SIZE]>)>,
}

/// Version/magic tag prefixed to serialized memory checkpoints.
const MEM_CKPT_MAGIC: u32 = 0x4456_524d; // "DVRM"

impl MemoryCheckpoint {
    /// Number of pages captured in the delta.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Serializes the delta to a deterministic little-endian byte image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 8 + self.pages.len() * (8 + PAGE_SIZE));
        out.extend_from_slice(&MEM_CKPT_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.pages.len() as u64).to_le_bytes());
        for (page, bytes) in &self.pages {
            out.extend_from_slice(&page.to_le_bytes());
            out.extend_from_slice(&bytes[..]);
        }
        out
    }

    /// Deserializes a delta produced by [`MemoryCheckpoint::to_bytes`]. Pages
    /// must come in strictly ascending order, as the encoder writes them.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        r.magic(MEM_CKPT_MAGIC)?;
        // An untrusted count sizes no allocation: pages push as they parse.
        let n = r.u64("pages")?;
        let mut pages: Vec<(u64, Arc<[u8; PAGE_SIZE]>)> = Vec::new();
        for _ in 0..n {
            let page = r.u64("page")?;
            ensure(page <= u64::MAX >> PAGE_SHIFT, "page")?;
            ensure(pages.last().is_none_or(|&(last, _)| last < page), "page")?;
            let mut payload = [0u8; PAGE_SIZE];
            payload.copy_from_slice(r.take(PAGE_SIZE, "page bytes")?);
            pages.push((page, Arc::new(payload)));
        }
        r.finish()?;
        Ok(MemoryCheckpoint { pages })
    }
}

impl fmt::Debug for MemoryCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryCheckpoint").field("pages", &self.pages.len()).finish()
    }
}

impl fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SparseMemory")
            .field("pages", &self.slots.len())
            .field("footprint_bytes", &self.footprint_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default() {
        let mem = SparseMemory::new();
        assert_eq!(mem.read_u64(0), 0);
        assert_eq!(mem.read(u64::MAX - 8, 8), 0);
        assert_eq!(mem.page_count(), 0);
    }

    #[test]
    fn checksum_tracks_contents_not_allocation() {
        let mut a = SparseMemory::new();
        let mut b = SparseMemory::new();
        assert_eq!(a.checksum(), b.checksum());
        // Same contents written in a different page-allocation order.
        a.write_u64(0x10_0000, 7);
        a.write_u64(0x2000, 9);
        b.write_u64(0x2000, 9);
        b.write_u64(0x10_0000, 7);
        assert_eq!(a.checksum(), b.checksum());
        // A page that was touched but holds only zeros is equivalent to an
        // untouched one.
        a.write_u64(0x50_0000, 0);
        assert_eq!(a.checksum(), b.checksum());
        // Content changes show up.
        b.write_u8(0x2001, 1);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn write_read_roundtrip_widths() {
        let mut mem = SparseMemory::new();
        mem.write(0x100, 1, 0xABCD); // truncates to 0xCD
        assert_eq!(mem.read(0x100, 1), 0xCD);
        mem.write(0x200, 2, 0x1234_5678);
        assert_eq!(mem.read(0x200, 2), 0x5678);
        mem.write(0x300, 4, 0xDEAD_BEEF_CAFE);
        assert_eq!(mem.read(0x300, 4), 0xBEEF_CAFE);
        mem.write(0x400, 8, u64::MAX - 1);
        assert_eq!(mem.read(0x400, 8), u64::MAX - 1);
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = SparseMemory::new();
        mem.write_u64(0x1000, 0x0807_0605_0403_0201);
        for k in 0..8 {
            assert_eq!(mem.read_u8(0x1000 + k), (k + 1) as u8);
        }
    }

    #[test]
    fn cross_page_access() {
        let mut mem = SparseMemory::new();
        let addr = (1 << 12) - 3; // straddles the first page boundary
        mem.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(mem.page_count(), 2);
    }

    #[test]
    fn straddle_read_of_cached_page_sees_both_pages() {
        let mut mem = SparseMemory::new();
        // Populate two adjacent pages, then make page 0 the cached entry.
        mem.write_u8(0x0ffd, 0xAA);
        mem.write_u64(0x1000, 0x0807_0605_0403_0201);
        assert_eq!(mem.read_u8(0x10), 0); // caches page 0
                                          // An 8-byte read starting 3 bytes before the boundary must combine
                                          // the cached page with its (uncached) successor byte by byte.
        assert_eq!(mem.read_u64(0x0ffd), 0x0504_0302_0100_00AA);
        // And the same straddle via write: overwrite across the boundary
        // while the *second* page is the cached one.
        assert_eq!(mem.read_u8(0x1010), 0); // caches page 1
        mem.write_u64(0x0ffd, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u64(0x0ffd), 0x1122_3344_5566_7788);
    }

    #[test]
    fn clone_is_independent_after_caching() {
        let mut a = SparseMemory::new();
        a.write_u64(0x2000, 7);
        assert_eq!(a.read_u64(0x2000), 7); // warm the one-entry cache
        let mut b = a.clone();
        b.write_u64(0x2000, 99); // hits the cached translation in the clone
        b.write_u64(0x5000, 1); // grows the clone's slot vector
        assert_eq!(a.read_u64(0x2000), 7, "clone writes must not alias the original");
        assert_eq!(a.read_u64(0x5000), 0);
        assert_eq!(b.read_u64(0x2000), 99);
        a.write_u64(0x2000, 13);
        assert_eq!(b.read_u64(0x2000), 99, "original writes must not alias the clone");
    }

    #[test]
    fn huge_addresses_bypass_the_cache_correctly() {
        let mut mem = SparseMemory::new();
        let hi = (u32::MAX as u64) << PAGE_SHIFT; // page number == u32::MAX
        mem.write_u64(hi, 0xfeed);
        mem.write_u64(0x3000, 0xbeef);
        assert_eq!(mem.read_u64(hi), 0xfeed);
        assert_eq!(mem.read_u64(0x3000), 0xbeef);
        assert_eq!(mem.read_u64(hi), 0xfeed);
        assert_eq!(mem.page_count(), 2);
    }

    #[test]
    fn slice_helpers() {
        let mut mem = SparseMemory::new();
        mem.write_u64_slice(0x2000, &[1, 2, 3]);
        assert_eq!(mem.read_u64(0x2008), 2);
        mem.write_u32_slice(0x3000, &[7, 8]);
        assert_eq!(mem.read_u32(0x3004), 8);
    }

    #[test]
    #[should_panic(expected = "invalid access width")]
    fn invalid_width_panics() {
        let mem = SparseMemory::new();
        let _ = mem.read(0, 3);
    }

    #[test]
    fn checkpoint_delta_roundtrip() {
        let mut base = SparseMemory::new();
        base.write_u64(0x1000, 1);
        base.write_u64(0x20_0000, 2);

        let mut run = base.clone();
        run.write_u64(0x20_0000, 99); // modify an existing page
        run.write_u64(0x50_0000, 7); // allocate a new page
        run.write_u64(0x9000, 0); // touched but still all-zero

        let delta = run.checkpoint_delta(&base);
        // Only genuinely-changed pages are captured: the modified page and
        // the new non-zero page (the all-zero page matches the zero base).
        assert_eq!(delta.page_count(), 2);

        let bytes = delta.to_bytes();
        let back = MemoryCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, delta);
        assert_eq!(back.to_bytes(), bytes, "serialization must be deterministic");

        let restored = SparseMemory::restore_from(&base, &back);
        assert_eq!(restored.checksum(), run.checksum());
        assert_eq!(restored.read_u64(0x1000), 1);
        assert_eq!(restored.read_u64(0x20_0000), 99);
        assert_eq!(restored.read_u64(0x50_0000), 7);
    }

    #[test]
    fn shared_clones_never_see_each_others_writes() {
        let mut a = SparseMemory::new();
        a.write_u64(0x2000, 7);
        a.write_u64(0x2ff8, 8); // last word of the same page
        a.write_u64(0x3000, 9); // the page after it
        a.share();
        let mut b = a.clone();

        // The same page, written on each side.
        b.write_u64(0x2000, 70);
        a.write_u64(0x2008, 71);
        assert_eq!((a.read_u64(0x2000), a.read_u64(0x2008)), (7, 71));
        assert_eq!((b.read_u64(0x2000), b.read_u64(0x2008)), (70, 0));

        // A page first touched after the share.
        a.write_u64(0x9000, 5);
        b.write_u64(0xa000, 6);
        assert_eq!((a.read_u64(0x9000), a.read_u64(0xa000)), (5, 0));
        assert_eq!((b.read_u64(0x9000), b.read_u64(0xa000)), (0, 6));

        // A write that straddles the two shared pages.
        b.write_u64(0x2ffc, 0x1122_3344_5566_7788);
        assert_eq!(b.read_u64(0x2ffc), 0x1122_3344_5566_7788);
        assert_eq!(a.read_u64(0x2ff8), 8);
        assert_eq!(a.read_u64(0x3000), 9);
        a.write_u64(0x2ffc, 0x99);
        assert_eq!(b.read_u64(0x2ffc), 0x1122_3344_5566_7788);

        // A second share and clone keeps both lines of descent apart.
        b.share();
        let mut c = b.clone();
        c.write_u8(0x2000, 0xee);
        assert_eq!(b.read_u64(0x2000), 70);
        assert_eq!(a.read_u64(0x2000), 7);
        assert_eq!(c.read_u8(0x2000), 0xee);
    }

    /// A base image and a run derived from it, with every kind of page a
    /// delta distinguishes: unchanged, changed, rewritten with its original
    /// bytes, new and non-zero, and new but all zero.
    fn evolve(mut run: SparseMemory) -> SparseMemory {
        run.write_u64(0x20_0000, 99); // change a base page
        run.write_u64(0x30_0000, 3); // rewrite a base page with its own bytes
        run.write_u64(0x50_0000, 7); // a new non-zero page
        run.write_u64(0x9000, 0); // a new all-zero page
        run.write_u64(0x3ffc, 0xabcd_ef01_2345_6789); // straddle into page 4
        run
    }

    fn base_image() -> SparseMemory {
        let mut base = SparseMemory::new();
        base.write_u64(0x1000, 1);
        base.write_u64(0x20_0000, 2);
        base.write_u64(0x30_0000, 3);
        base.write_u64(0x3000, 4);
        base
    }

    #[test]
    fn shared_delta_matches_a_delta_of_deep_copies() {
        let base = base_image();
        let owned_run = evolve(base.clone());
        let owned = owned_run.checkpoint_delta(&base);
        // Changed page, new non-zero page, and both straddled pages (page 4
        // is new): the rewritten page and the all-zero page stay out.
        assert_eq!(owned.page_count(), 4);

        let mut shared_base = base.clone();
        shared_base.share();
        let mut shared_run = evolve(shared_base.clone());
        let before_share = shared_run.checkpoint_delta(&shared_base);
        shared_run.share();
        let after_share = shared_run.checkpoint_delta(&shared_base);
        assert_eq!(before_share.to_bytes(), owned.to_bytes());
        assert_eq!(after_share.to_bytes(), owned.to_bytes());

        // An untouched shared image has an empty delta against its base,
        // and a shared run against an owned base finds the same pages.
        assert_eq!(shared_base.clone().checkpoint_delta(&shared_base).page_count(), 0);
        assert_eq!(shared_run.checkpoint_delta(&base).to_bytes(), owned.to_bytes());
    }

    #[test]
    fn restore_from_a_shared_base_matches_an_owned_one() {
        let base = base_image();
        let run = evolve(base.clone());
        let delta = run.checkpoint_delta(&base);
        let mut shared_base = base.clone();
        shared_base.share();

        let owned = SparseMemory::restore_from(&base, &delta);
        let mut shared = SparseMemory::restore_from(&shared_base, &delta);
        assert_eq!(shared.checksum(), owned.checksum());
        assert_eq!(shared.checksum(), run.checksum());
        for addr in [0x1000, 0x20_0000, 0x30_0000, 0x3000, 0x3ffc, 0x50_0000, 0x9000, 0x7000] {
            assert_eq!(shared.read_u64(addr), owned.read_u64(addr), "{addr:#x}");
        }

        // Writing the restored image leaves the base and the delta intact.
        shared.write_u64(0x20_0000, 1234);
        shared.write_u64(0x1000, 5678);
        assert_eq!(shared_base.read_u64(0x1000), 1);
        assert_eq!(SparseMemory::restore_from(&shared_base, &delta).read_u64(0x20_0000), 99);
    }

    #[test]
    fn checkpoint_bytes_reject_corruption() {
        let mem = SparseMemory::new();
        let delta = mem.checkpoint_delta(&mem);
        let mut bytes = delta.to_bytes();
        assert!(MemoryCheckpoint::from_bytes(&bytes[..4]).is_err());
        bytes[0] ^= 0xff;
        assert!(MemoryCheckpoint::from_bytes(&bytes).is_err());
        // A page count whose byte length overflows: a typed error, never a
        // multiply overflow or a capacity-overflow panic.
        let mut huge = MEM_CKPT_MAGIC.to_le_bytes().to_vec();
        huge.extend_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(MemoryCheckpoint::from_bytes(&huge).is_err());
        // Pages come strictly ascending; a repeated page is not an encoder's.
        let mut twice = MEM_CKPT_MAGIC.to_le_bytes().to_vec();
        twice.extend_from_slice(&2u64.to_le_bytes());
        for _ in 0..2 {
            twice.extend_from_slice(&5u64.to_le_bytes());
            twice.extend_from_slice(&[0; PAGE_SIZE]);
        }
        assert_eq!(
            MemoryCheckpoint::from_bytes(&twice),
            Err(DecodeError::Invalid { field: "page" })
        );
    }
}
