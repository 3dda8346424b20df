//! The checked byte reader under every binary decoder.
//!
//! Checkpoints, warm cache and predictor images, and encoded reports are
//! little-endian byte images. Encoders write them with
//! `out.extend_from_slice(&v.to_le_bytes())`, plus [`put_blob`] and
//! [`put_str`] for length-prefixed fields. Decoders read them through one
//! [`Reader`], whose every read is bounds-checked and names its field, so a
//! torn or crafted image fails with a typed [`DecodeError`], never a panic.
//!
//! Decoders keep one rule: they accept only the bytes their encoder writes
//! (flags are 0 or 1, headers match the structure being restored, nothing
//! trails the image). An accepted image re-encodes to exactly its bytes.

use std::fmt;

/// Why a decoder rejected a byte image: the first violation found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The image does not open with its format's magic word.
    BadMagic {
        /// The word found, if the image held four bytes.
        found: Option<u32>,
    },
    /// The layout version is not the one this build reads.
    UnknownVersion {
        /// The version word in the image.
        found: u32,
    },
    /// The image ended inside a field: a torn write or truncated file.
    Truncated {
        /// The field that ran out of bytes.
        field: &'static str,
    },
    /// Bytes remain after the last field.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// An embedded image failed its own validation.
    BadEmbedded {
        /// The embedded image that was rejected.
        field: &'static str,
    },
    /// A field holds a value its encoder never writes.
    Invalid {
        /// The field that is out of range.
        field: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic { found: Some(w) } => write!(f, "bad magic {w:#010x}"),
            Self::BadMagic { found: None } => write!(f, "image too short to hold its magic"),
            Self::UnknownVersion { found } => write!(f, "unknown format version {found}"),
            Self::Truncated { field } => write!(f, "image truncated inside `{field}`"),
            Self::TrailingBytes { extra } => write!(f, "{extra} trailing byte(s) after the image"),
            Self::BadEmbedded { field } => write!(f, "embedded `{field}` image failed validation"),
            Self::Invalid { field } => write!(f, "invalid `{field}`"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// `Ok` if `ok`, else [`DecodeError::Invalid`] naming `field`.
pub fn ensure(ok: bool, field: &'static str) -> Result<(), DecodeError> {
    ok.then_some(()).ok_or(DecodeError::Invalid { field })
}

/// Appends `b` behind a little-endian `u64` length ([`Reader::blob`]).
pub fn put_blob(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u64).to_le_bytes());
    out.extend_from_slice(b);
}

/// Appends `s` behind a little-endian `u32` length ([`Reader::str`]).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A little-endian cursor over a byte image; each read names its field.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    /// The bytes not read yet.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// The next `n` bytes, as the named field.
    pub fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], DecodeError> {
        let (s, rest) = self.rest.split_at_checked(n).ok_or(DecodeError::Truncated { field })?;
        self.rest = rest;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], DecodeError> {
        let (a, rest) = self.rest.split_first_chunk().ok_or(DecodeError::Truncated { field })?;
        self.rest = rest;
        Ok(*a)
    }

    /// One byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, DecodeError> {
        self.array(field).map(|[b]| b)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, field: &'static str) -> Result<u16, DecodeError> {
        self.array(field).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self, field: &'static str) -> Result<u128, DecodeError> {
        self.array(field).map(u128::from_le_bytes)
    }

    /// An `f64` stored as its IEEE bits.
    pub fn f64(&mut self, field: &'static str) -> Result<f64, DecodeError> {
        self.u64(field).map(f64::from_bits)
    }

    /// A flag byte, which must be 0 or 1.
    pub fn bool(&mut self, field: &'static str) -> Result<bool, DecodeError> {
        match self.u8(field)? {
            b @ (0 | 1) => Ok(b == 1),
            _ => Err(DecodeError::Invalid { field }),
        }
    }

    /// The `u32` magic word that opens an image.
    pub fn magic(&mut self, want: u32) -> Result<(), DecodeError> {
        let found = self.u32("magic").map_err(|_| DecodeError::BadMagic { found: None })?;
        (found == want).then_some(()).ok_or(DecodeError::BadMagic { found: Some(found) })
    }

    /// The `u32` layout version after the magic.
    pub fn version(&mut self, want: u32) -> Result<(), DecodeError> {
        let found = self.u32("version")?;
        (found == want).then_some(()).ok_or(DecodeError::UnknownVersion { found })
    }

    /// A [`put_blob`] field.
    pub fn blob(&mut self, field: &'static str) -> Result<&'a [u8], DecodeError> {
        let len =
            usize::try_from(self.u64(field)?).map_err(|_| DecodeError::Truncated { field })?;
        self.take(len, field)
    }

    /// A [`put_str`] field, which must be UTF-8.
    pub fn str(&mut self, field: &'static str) -> Result<&'a str, DecodeError> {
        let len = self.u32(field)? as usize;
        std::str::from_utf8(self.take(len, field)?).map_err(|_| DecodeError::Invalid { field })
    }

    /// Ends the image: every byte must have been read.
    pub fn finish(&self) -> Result<(), DecodeError> {
        let extra = self.rest.len();
        (extra == 0).then_some(()).ok_or(DecodeError::TrailingBytes { extra })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_name_the_field_that_ran_dry() {
        let mut out = Vec::new();
        out.extend_from_slice(&0xABCDu16.to_le_bytes());
        out.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        put_blob(&mut out, b"xyz");
        let mut r = Reader::new(&out);
        assert_eq!(r.u16("a"), Ok(0xABCD));
        assert_eq!(r.f64("b"), Ok(1.5));
        assert_eq!(r.clone().u128("c"), Err(DecodeError::Truncated { field: "c" }));
        assert_eq!(r.blob("d"), Ok(&b"xyz"[..]));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.take(1, "e"), Err(DecodeError::Truncated { field: "e" }));
    }

    #[test]
    fn framing_and_flags_reject_what_no_encoder_writes() {
        let mut r = Reader::new(&[0, 1, 2]);
        assert_eq!((r.bool("f"), r.bool("f")), (Ok(false), Ok(true)));
        assert_eq!(r.bool("f"), Err(DecodeError::Invalid { field: "f" }));

        let word = 0x4456_5243u32.to_le_bytes();
        assert_eq!(Reader::new(&word[..3]).magic(1), Err(DecodeError::BadMagic { found: None }));
        assert_eq!(
            Reader::new(&word).magic(1),
            Err(DecodeError::BadMagic { found: Some(0x4456_5243) })
        );
        assert_eq!(
            Reader::new(&word).version(1),
            Err(DecodeError::UnknownVersion { found: 0x4456_5243 })
        );

        // A length prefix past the end fails without allocating it.
        let huge = (u64::MAX - 3).to_le_bytes();
        assert_eq!(Reader::new(&huge).blob("b"), Err(DecodeError::Truncated { field: "b" }));
        let mut bad_utf8 = Vec::new();
        put_str(&mut bad_utf8, "ok");
        bad_utf8[4] = 0xFF;
        assert_eq!(Reader::new(&bad_utf8).str("s"), Err(DecodeError::Invalid { field: "s" }));

        let mut r = Reader::new(&[0, 0]);
        r.u8("x").unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes { extra: 1 }));
        assert_eq!(ensure(false, "g"), Err(DecodeError::Invalid { field: "g" }));
    }
}
