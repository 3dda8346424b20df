//! Versioned per-period checkpoints for checkpoint-parallel sampling.
//!
//! Phase 1 of the sampling pipeline ([`emit_checkpoints`]) serializes one
//! [`PeriodCheckpoint`] per period at the point where that period's
//! detailed warmup begins. A checkpoint is everything phase 2 needs to
//! measure the period in isolation — in another thread, or another
//! process entirely:
//!
//! * the architectural CPU state ([`sim_isa::CpuCheckpoint`]),
//! * the dirty-page memory delta against the workload's pristine image
//!   ([`sim_isa::MemoryCheckpoint`]),
//! * the warm cache tag arrays
//!   ([`sim_mem::MemoryHierarchy::warm_state_bytes`]), and
//! * the warm branch-predictor image
//!   ([`sim_ooo::TagePredictor::state_bytes`]).
//!
//! The byte format follows the repository's checkpoint convention: a
//! magic-prefixed little-endian image read through
//! [`sim_isa::bytes::Reader`], plus a version word so future layout
//! changes fail loudly instead of misparsing.
//!
//! [`emit_checkpoints`]: crate::emit_checkpoints

use sim_isa::bytes::{put_blob, DecodeError, Reader};
use sim_isa::{CpuCheckpoint, MemoryCheckpoint};

/// `"DVRP"`: magic prefix of a serialized [`PeriodCheckpoint`].
pub const PERIOD_CKPT_MAGIC: u32 = 0x4456_5250;

/// Current layout version of the [`PeriodCheckpoint`] byte format.
pub const PERIOD_CKPT_VERSION: u32 = 1;

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
    /// Warm cache tag arrays ([`sim_mem::MemoryHierarchy::warm_state_bytes`]).
    pub warm_mem: Vec<u8>,
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
        put_blob(&mut out, &self.warm_mem);
        put_blob(&mut out, &self.warm_bp);
        out
    }

    /// Parses a [`PeriodCheckpoint::to_bytes`] image, naming the first
    /// structural violation on failure: bad magic, unknown version,
    /// truncation (which field ran dry), trailing bytes, or an embedded
    /// image that fails its own validation.
    pub fn decode(b: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(b);
        r.magic(PERIOD_CKPT_MAGIC)?;
        r.version(PERIOD_CKPT_VERSION)?;
        let index = r.u64("index")?;
        let measure_at = r.u64("measure_at")?;
        let cpu = CpuCheckpoint::from_bytes(r.blob("cpu")?)
            .map_err(|_| DecodeError::BadEmbedded { field: "cpu" })?;
        let mem = MemoryCheckpoint::from_bytes(r.blob("mem")?)
            .map_err(|_| DecodeError::BadEmbedded { field: "mem" })?;
        let warm_mem = r.blob("warm_mem")?.to_vec();
        let warm_bp = r.blob("warm_bp")?.to_vec();
        r.finish()?;
        Ok(PeriodCheckpoint { index, measure_at, cpu, mem, warm_mem, warm_bp })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{Cpu, SparseMemory};
    use sim_mem::{HierarchyConfig, MemoryHierarchy};
    use sim_ooo::TagePredictor;

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
            warm_mem: hier.warm_state_bytes(),
            warm_bp: bp.state_bytes(),
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let ck = sample_checkpoint();
        let bytes = ck.to_bytes();
        let back = PeriodCheckpoint::decode(&bytes).expect("image parses");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.index, 3);
        assert_eq!(back.measure_at, 12_345);
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let bytes = sample_checkpoint().to_bytes();
        assert!(PeriodCheckpoint::decode(&bytes[1..]).is_err(), "bad magic");
        assert!(PeriodCheckpoint::decode(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(PeriodCheckpoint::decode(&trailing).is_err(), "trailing bytes");
        let mut wrong_version = bytes;
        wrong_version[4] ^= 0xFF;
        assert!(PeriodCheckpoint::decode(&wrong_version).is_err(), "unknown version");
    }

    #[test]
    fn decode_names_the_violation() {
        use DecodeError as E;
        let bytes = sample_checkpoint().to_bytes();
        let fail = |b: &[u8]| PeriodCheckpoint::decode(b).expect_err("image must not parse");

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
        put_blob(&mut crafted, &ck.warm_mem);
        put_blob(&mut crafted, &ck.warm_bp);
        assert_eq!(fail(&crafted), E::BadEmbedded { field: "mem" });
    }

    #[test]
    fn truncation_at_every_length_yields_a_typed_error() {
        let bytes = sample_checkpoint().to_bytes();
        // Every proper prefix must fail with *some* typed reason — and
        // never panic — no matter where the cut lands.
        for len in 0..bytes.len() {
            let err =
                PeriodCheckpoint::decode(&bytes[..len]).expect_err("proper prefix must not parse");
            let _ = err.to_string(); // Display is total
        }
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
