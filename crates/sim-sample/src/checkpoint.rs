//! Versioned per-period checkpoints and results for checkpoint-parallel
//! sampling.
//!
//! Phase 1 of the sampling pipeline ([`stream_checkpoints`]) takes one
//! [`PeriodCheckpoint`] per period at the point where that period's
//! detailed warmup begins. A checkpoint is everything phase 2 needs to
//! measure the period in isolation — in another thread, or another
//! process entirely:
//!
//! * the architectural CPU state ([`sim_isa::CpuCheckpoint`]),
//! * the dirty-page memory delta against the workload's pristine image
//!   ([`sim_isa::MemoryCheckpoint`]),
//! * the warm cache tag arrays, typed and shared ([`sim_mem::WarmCaches`]
//!   behind an `Arc`), and
//! * the warm branch-predictor image
//!   ([`sim_ooo::TagePredictor::state_bytes`]).
//!
//! In-process, a period builds its hierarchy straight around a copy of
//! the warm tag arrays; they become bytes only in
//! [`PeriodCheckpoint::to_bytes`], the file a `dvrsim sample-worker`
//! process reads. [`PeriodCheckpoint::decode`] takes the hierarchy
//! geometry, so a warm cache image that does not fit it is refused when
//! the file is read. The worker measures one period and answers with its
//! [`PeriodResult`] image. The result carries integers only — every
//! derived float (IPC, MLP, the report aggregates) is recomputed at merge
//! time from the counters — so a result that crosses the process boundary
//! is bit-exactly the result that would have been produced in-process.
//!
//! Both byte formats follow the repository's checkpoint convention: a
//! magic-prefixed little-endian image read through
//! [`sim_isa::bytes::Reader`], plus a version word so future layout
//! changes fail loudly instead of misparsing.
//!
//! [`stream_checkpoints`]: crate::stream_checkpoints

use std::sync::Arc;

use sim_isa::bytes::{put_blob, DecodeError, Reader};
use sim_isa::{CpuCheckpoint, MemoryCheckpoint};
use sim_mem::{HierarchyConfig, MemStats, WarmCaches};
use sim_ooo::CoreStats;

use crate::driver::PeriodResult;

/// `"DVRP"`: magic prefix of a serialized [`PeriodCheckpoint`].
pub const PERIOD_CKPT_MAGIC: u32 = 0x4456_5250;

/// Current layout version of the [`PeriodCheckpoint`] byte format.
pub const PERIOD_CKPT_VERSION: u32 = 1;

/// `"DVRI"`: magic prefix of a serialized [`PeriodResult`].
const PERIOD_RESULT_MAGIC: u32 = 0x4456_5249;

/// Current layout version of the [`PeriodResult`] byte format.
const PERIOD_RESULT_VERSION: u32 = 1;

/// Everything needed to measure one sampling period in isolation.
#[derive(Clone, Debug)]
pub struct PeriodCheckpoint {
    /// Period number `k` (merge key: results are combined in `index`
    /// order regardless of completion order).
    pub index: u64,
    /// Absolute retirement count at which the measured interval starts;
    /// the checkpoint itself is taken `warmup` instructions earlier.
    pub measure_at: u64,
    /// Architectural CPU state at the warmup start.
    pub cpu: CpuCheckpoint,
    /// Dirty-page delta of the memory image against the workload's
    /// pristine base at the warmup start.
    pub mem: MemoryCheckpoint,
    /// Warm cache tag arrays ([`sim_mem::MemoryHierarchy::warm_caches`]),
    /// shared: the emitter lends its own arrays to a streamed checkpoint
    /// and takes them back once the checkpoint is dropped, copying them
    /// only if it is still held.
    pub warm_mem: Arc<WarmCaches>,
    /// Warm branch-predictor image ([`sim_ooo::TagePredictor::state_bytes`]).
    pub warm_bp: Vec<u8>,
}

impl PeriodCheckpoint {
    /// Serializes to the versioned little-endian image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&PERIOD_CKPT_MAGIC.to_le_bytes());
        out.extend_from_slice(&PERIOD_CKPT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.measure_at.to_le_bytes());
        put_blob(&mut out, &self.cpu.to_bytes());
        put_blob(&mut out, &self.mem.to_bytes());
        put_blob(&mut out, &self.warm_mem.to_bytes());
        put_blob(&mut out, &self.warm_bp);
        out
    }

    /// Parses a [`PeriodCheckpoint::to_bytes`] image whose warm caches
    /// were taken under `hier`'s cache geometry, naming the first
    /// structural violation on failure: bad magic, unknown version,
    /// truncation (which field ran dry), trailing bytes, or an embedded
    /// image that fails its own validation.
    pub fn decode(hier: HierarchyConfig, b: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(b);
        r.magic(PERIOD_CKPT_MAGIC)?;
        r.version(PERIOD_CKPT_VERSION)?;
        let index = r.u64("index")?;
        let measure_at = r.u64("measure_at")?;
        let cpu = CpuCheckpoint::from_bytes(r.blob("cpu")?)
            .map_err(|_| DecodeError::BadEmbedded { field: "cpu" })?;
        let mem = MemoryCheckpoint::from_bytes(r.blob("mem")?)
            .map_err(|_| DecodeError::BadEmbedded { field: "mem" })?;
        let warm_mem = WarmCaches::decode(hier, r.blob("warm_mem")?)
            .map(Arc::new)
            .map_err(|_| DecodeError::BadEmbedded { field: "warm_mem" })?;
        let warm_bp = r.blob("warm_bp")?.to_vec();
        r.finish()?;
        Ok(PeriodCheckpoint { index, measure_at, cpu, mem, warm_mem, warm_bp })
    }
}

impl PeriodResult {
    /// Serializes to the versioned little-endian image: the four header
    /// words, the `measured` flag byte, then the flat core and memory
    /// counters.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&PERIOD_RESULT_MAGIC.to_le_bytes());
        out.extend_from_slice(&PERIOD_RESULT_VERSION.to_le_bytes());
        for w in [self.index, self.start_retired, self.warmup_committed, self.mshr_integral] {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.push(u8::from(self.measured));
        for w in self.core.to_flat().iter().chain(&self.mem.to_flat()) {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parses a [`PeriodResult::to_bytes`] image, naming the first
    /// violation on failure: bad magic, unknown version, truncation, a
    /// `measured` flag other than 0 or 1, or trailing bytes.
    pub fn decode(b: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(b);
        r.magic(PERIOD_RESULT_MAGIC)?;
        r.version(PERIOD_RESULT_VERSION)?;
        let index = r.u64("index")?;
        let start_retired = r.u64("start_retired")?;
        let warmup_committed = r.u64("warmup_committed")?;
        let mshr_integral = r.u64("mshr_integral")?;
        let measured = r.bool("measured")?;
        let mut flat =
            |n: usize, field| (0..n).map(|_| r.u64(field)).collect::<Result<Vec<_>, _>>();
        let core = CoreStats::from_flat(&flat(CoreStats::FLAT_LEN, "core")?)
            .ok_or(DecodeError::Invalid { field: "core" })?;
        let mem = MemStats::from_flat(&flat(MemStats::FLAT_LEN, "mem")?)
            .ok_or(DecodeError::Invalid { field: "mem" })?;
        r.finish()?;
        Ok(PeriodResult {
            index,
            start_retired,
            warmup_committed,
            mshr_integral,
            measured,
            core,
            mem,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{Cpu, SparseMemory};
    use sim_mem::MemoryHierarchy;
    use sim_ooo::TagePredictor;

    /// Decodes under the default geometry, the one the images here use.
    fn decode(b: &[u8]) -> Result<PeriodCheckpoint, DecodeError> {
        PeriodCheckpoint::decode(HierarchyConfig::default(), b)
    }

    fn sample_checkpoint() -> PeriodCheckpoint {
        let mut cpu = Cpu::new();
        let mut mem = SparseMemory::new();
        mem.write_u64(0x1000, 0xDEAD_BEEF);
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        hier.warm_touch(0x1000, true);
        let mut bp = TagePredictor::default();
        let p = bp.predict(0x40);
        bp.update(0x40, true, p);
        cpu.run_warming(
            &sim_isa::parse_program("halt\n").unwrap(),
            &mut mem,
            1,
            &mut sim_isa::NullWarmSink,
        )
        .unwrap();
        PeriodCheckpoint {
            index: 3,
            measure_at: 12_345,
            cpu: cpu.checkpoint(),
            mem: mem.checkpoint_delta(&SparseMemory::new()),
            warm_mem: Arc::new(hier.warm_caches()),
            warm_bp: bp.state_bytes(),
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let ck = sample_checkpoint();
        let bytes = ck.to_bytes();
        let back = decode(&bytes).expect("image parses");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.index, 3);
        assert_eq!(back.measure_at, 12_345);
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let bytes = sample_checkpoint().to_bytes();
        assert!(decode(&bytes[1..]).is_err(), "bad magic");
        assert!(decode(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err(), "trailing bytes");
        let mut wrong_version = bytes;
        wrong_version[4] ^= 0xFF;
        assert!(decode(&wrong_version).is_err(), "unknown version");
    }

    #[test]
    fn decode_names_the_violation() {
        use DecodeError as E;
        let bytes = sample_checkpoint().to_bytes();
        let fail = |b: &[u8]| decode(b).expect_err("image must not parse");

        assert_eq!(fail(&bytes[..3]), E::BadMagic { found: None });
        assert!(matches!(
            fail(&bytes[1..]),
            E::BadMagic { found: Some(w) } if w != PERIOD_CKPT_MAGIC
        ));

        let mut wrong_version = bytes.clone();
        wrong_version[4] ^= 0xFF;
        assert_eq!(fail(&wrong_version), E::UnknownVersion { found: PERIOD_CKPT_VERSION ^ 0xFF });

        assert_eq!(fail(&bytes[..6]), E::Truncated { field: "version" });
        assert_eq!(fail(&bytes[..10]), E::Truncated { field: "index" });
        assert_eq!(fail(&bytes[..20]), E::Truncated { field: "measure_at" });
        assert_eq!(fail(&bytes[..bytes.len() - 1]), E::Truncated { field: "warm_bp" });

        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0, 0]);
        assert_eq!(fail(&trailing), E::TrailingBytes { extra: 2 });

        // A blob length near u64::MAX must not overflow the offset.
        let mut huge_blob = bytes[..24].to_vec();
        huge_blob.extend_from_slice(&(u64::MAX - 3).to_le_bytes());
        assert_eq!(fail(&huge_blob), E::Truncated { field: "cpu" });

        // An embedded memory image claiming 2^61 pages is rejected by its
        // own validation, not by an overflow panic.
        let ck = sample_checkpoint();
        let mut crafted = bytes[..24].to_vec();
        put_blob(&mut crafted, &ck.cpu.to_bytes());
        let mut mem = ck.mem.to_bytes()[..4].to_vec();
        mem.extend_from_slice(&(1u64 << 61).to_le_bytes());
        put_blob(&mut crafted, &mem);
        put_blob(&mut crafted, &ck.warm_mem.to_bytes());
        put_blob(&mut crafted, &ck.warm_bp);
        assert_eq!(fail(&crafted), E::BadEmbedded { field: "mem" });
    }

    #[test]
    fn a_warm_cache_image_is_checked_when_the_checkpoint_is_read() {
        let ck = sample_checkpoint();
        let bytes = ck.to_bytes();
        let back = decode(&bytes).expect("image parses");
        assert_eq!(back.warm_mem, ck.warm_mem, "the warm caches survive the file");
        // Another geometry: the saved L1 way index does not fit 4 ways.
        let cfg = HierarchyConfig::default();
        let narrow = HierarchyConfig { l1: sim_mem::CacheConfig { assoc: 4, ..cfg.l1 }, ..cfg };
        assert_eq!(
            PeriodCheckpoint::decode(narrow, &bytes).err(),
            Some(DecodeError::BadEmbedded { field: "warm_mem" })
        );
        // A warm image whose one L1 line sits in the wrong set.
        let mut warm = ck.warm_mem.to_bytes();
        warm[20 + 4] ^= 1;
        let mut crafted = bytes[..24].to_vec();
        put_blob(&mut crafted, &ck.cpu.to_bytes());
        put_blob(&mut crafted, &ck.mem.to_bytes());
        put_blob(&mut crafted, &warm);
        put_blob(&mut crafted, &ck.warm_bp);
        assert_eq!(decode(&crafted).err(), Some(DecodeError::BadEmbedded { field: "warm_mem" }));
    }

    #[test]
    fn truncation_at_every_length_yields_a_typed_error() {
        let bytes = sample_checkpoint().to_bytes();
        // Every proper prefix must fail with *some* typed reason — and
        // never panic — no matter where the cut lands.
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).expect_err("proper prefix must not parse");
            let _ = err.to_string(); // Display is total
        }
    }

    fn sample_result() -> PeriodResult {
        let core =
            CoreStats { cycles: 4_321, committed: 5_000, loads: 1_234, ..Default::default() };
        let mem = MemStats {
            demand_loads: 1_234,
            demand_hits: [900, 200, 100, 34],
            dram_writebacks: 7,
            ..Default::default()
        };
        PeriodResult {
            index: 5,
            start_retired: 127_455,
            warmup_committed: 2_000,
            mshr_integral: 9_876,
            measured: true,
            core,
            mem,
        }
    }

    #[test]
    fn result_roundtrip_is_exact() {
        let r = sample_result();
        let bytes = r.to_bytes();
        let back = PeriodResult::decode(&bytes).expect("image parses");
        assert_eq!(back, r);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn unmeasured_result_roundtrips() {
        let r = PeriodResult {
            index: 9,
            start_retired: 0,
            warmup_committed: 123,
            mshr_integral: 0,
            measured: false,
            core: CoreStats::default(),
            mem: MemStats::default(),
        };
        assert_eq!(PeriodResult::decode(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn malformed_results_are_rejected() {
        use DecodeError as E;
        let bytes = sample_result().to_bytes();
        let fail = |b: &[u8]| PeriodResult::decode(b).expect_err("image must not parse");
        assert!(matches!(fail(&bytes[1..]), E::BadMagic { .. }), "truncated front");
        assert_eq!(fail(&bytes[..bytes.len() - 1]), E::Truncated { field: "mem" });
        let mut trailing = bytes.clone();
        trailing.push(b'x');
        assert_eq!(fail(&trailing), E::TrailingBytes { extra: 1 }, "trailing garbage");
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 2;
        assert_eq!(fail(&wrong_version), E::UnknownVersion { found: 2 });
        // The flag byte follows the magic, version and four header words.
        let mut bad_flag = bytes;
        bad_flag[8 + 4 * 8] = 3;
        assert_eq!(fail(&bad_flag), E::Invalid { field: "measured" });
        assert_eq!(fail(&[]), E::BadMagic { found: None });
        // The checkpoint and result formats do not read each other.
        assert!(PeriodResult::decode(&sample_checkpoint().to_bytes()).is_err());
    }

    #[test]
    fn decode_error_display_is_actionable() {
        use DecodeError as E;
        assert!(E::BadMagic { found: Some(0x1234) }.to_string().contains("0x00001234"));
        assert!(E::UnknownVersion { found: 7 }.to_string().contains("version 7"));
        assert!(E::Truncated { field: "cpu" }.to_string().contains("`cpu`"));
        assert!(E::TrailingBytes { extra: 2 }.to_string().contains("2 trailing"));
        assert!(E::BadEmbedded { field: "mem" }.to_string().contains("`mem`"));
    }
}
