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
//! magic-prefixed little-endian image with exact-length validation, plus
//! a version word so future layout changes fail loudly instead of
//! misparsing.
//!
//! [`emit_checkpoints`]: crate::emit_checkpoints

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

/// Why a [`PeriodCheckpoint::decode`] rejected a byte image.
///
/// Each variant names the first structural violation encountered, so a
/// worker fed a torn or mismatched checkpoint file can report *what* is
/// wrong instead of a bare parse failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckpointDecodeError {
    /// The image does not start with [`PERIOD_CKPT_MAGIC`] (or is too
    /// short to hold it) — not a period checkpoint at all.
    BadMagic {
        /// The word actually found, when the image held four bytes.
        found: Option<u32>,
    },
    /// The layout version is not [`PERIOD_CKPT_VERSION`]; written by an
    /// incompatible build.
    UnknownVersion {
        /// The version word in the image.
        found: u32,
    },
    /// The image ended before the named field was complete — a torn
    /// write or truncated file.
    Truncated {
        /// Which field ran out of bytes.
        field: &'static str,
    },
    /// Bytes remain after the last field; the image is longer than one
    /// checkpoint.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// An embedded CPU or memory image failed its own validation.
    BadEmbedded {
        /// Which embedded image was rejected.
        field: &'static str,
    },
}

impl std::fmt::Display for CheckpointDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointDecodeError::BadMagic { found: Some(w) } => {
                write!(f, "bad checkpoint magic {w:#010x} (want {PERIOD_CKPT_MAGIC:#010x})")
            }
            CheckpointDecodeError::BadMagic { found: None } => {
                write!(f, "image too short to hold the checkpoint magic")
            }
            CheckpointDecodeError::UnknownVersion { found } => {
                write!(f, "unknown checkpoint version {found} (want {PERIOD_CKPT_VERSION})")
            }
            CheckpointDecodeError::Truncated { field } => {
                write!(f, "checkpoint truncated inside `{field}`")
            }
            CheckpointDecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the checkpoint image")
            }
            CheckpointDecodeError::BadEmbedded { field } => {
                write!(f, "embedded `{field}` image failed validation")
            }
        }
    }
}

impl std::error::Error for CheckpointDecodeError {}

fn put_blob(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u64).to_le_bytes());
    out.extend_from_slice(b);
}

fn take<'a>(b: &'a [u8], off: &mut usize, n: usize) -> Option<&'a [u8]> {
    let s = b.get(*off..off.checked_add(n)?)?;
    *off += n;
    Some(s)
}

fn take_u32(b: &[u8], off: &mut usize) -> Option<u32> {
    Some(u32::from_le_bytes(take(b, off, 4)?.try_into().ok()?))
}

fn take_u64(b: &[u8], off: &mut usize) -> Option<u64> {
    Some(u64::from_le_bytes(take(b, off, 8)?.try_into().ok()?))
}

fn take_blob<'a>(b: &'a [u8], off: &mut usize) -> Option<&'a [u8]> {
    let len = take_u64(b, off)?;
    take(b, off, usize::try_from(len).ok()?)
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
    pub fn decode(b: &[u8]) -> Result<Self, CheckpointDecodeError> {
        use CheckpointDecodeError as E;
        let mut off = 0usize;
        let magic = take_u32(b, &mut off).ok_or(E::BadMagic { found: None })?;
        if magic != PERIOD_CKPT_MAGIC {
            return Err(E::BadMagic { found: Some(magic) });
        }
        let version = take_u32(b, &mut off).ok_or(E::Truncated { field: "version" })?;
        if version != PERIOD_CKPT_VERSION {
            return Err(E::UnknownVersion { found: version });
        }
        let index = take_u64(b, &mut off).ok_or(E::Truncated { field: "index" })?;
        let measure_at = take_u64(b, &mut off).ok_or(E::Truncated { field: "measure_at" })?;
        let cpu =
            CpuCheckpoint::from_bytes(take_blob(b, &mut off).ok_or(E::Truncated { field: "cpu" })?)
                .ok_or(E::BadEmbedded { field: "cpu" })?;
        let mem = MemoryCheckpoint::from_bytes(
            take_blob(b, &mut off).ok_or(E::Truncated { field: "mem" })?,
        )
        .ok_or(E::BadEmbedded { field: "mem" })?;
        let warm_mem = take_blob(b, &mut off).ok_or(E::Truncated { field: "warm_mem" })?.to_vec();
        let warm_bp = take_blob(b, &mut off).ok_or(E::Truncated { field: "warm_bp" })?.to_vec();
        if off != b.len() {
            return Err(E::TrailingBytes { extra: b.len() - off });
        }
        Ok(PeriodCheckpoint { index, measure_at, cpu, mem, warm_mem, warm_bp })
    }

    /// [`PeriodCheckpoint::decode`] with the reason discarded — kept for
    /// callers that only branch on success.
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        Self::decode(b).ok()
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
        let back = PeriodCheckpoint::from_bytes(&bytes).expect("image parses");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.index, 3);
        assert_eq!(back.measure_at, 12_345);
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let bytes = sample_checkpoint().to_bytes();
        assert!(PeriodCheckpoint::from_bytes(&bytes[1..]).is_none(), "bad magic");
        assert!(PeriodCheckpoint::from_bytes(&bytes[..bytes.len() - 1]).is_none(), "truncated");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(PeriodCheckpoint::from_bytes(&trailing).is_none(), "trailing bytes");
        let mut wrong_version = bytes;
        wrong_version[4] ^= 0xFF;
        assert!(PeriodCheckpoint::from_bytes(&wrong_version).is_none(), "unknown version");
    }

    #[test]
    fn decode_names_the_violation() {
        use CheckpointDecodeError as E;
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
        use CheckpointDecodeError as E;
        assert!(E::BadMagic { found: Some(0x1234) }.to_string().contains("0x00001234"));
        assert!(E::UnknownVersion { found: 7 }.to_string().contains("version 7"));
        assert!(E::Truncated { field: "cpu" }.to_string().contains("`cpu`"));
        assert!(E::TrailingBytes { extra: 2 }.to_string().contains("2 trailing"));
        assert!(E::BadEmbedded { field: "mem" }.to_string().contains("`mem`"));
    }
}
