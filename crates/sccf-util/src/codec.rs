//! The one little-endian byte codec behind every `SCCF*` format and
//! the fleet wire protocol: a bounds-checked [`Reader`] cursor, the
//! `put_*` appenders that mirror it, and one [`DecodeError`].
//!
//! The discipline every decoder inherits: a length taken from the
//! stream is proven to fit in the bytes that remain **before** anything
//! is allocated for it ([`Reader::count`], [`Reader::u32s`],
//! [`Reader::f32s`] multiply with `checked_mul`), so a corrupt or
//! hostile header is a typed error — never an overflow panic, never a
//! multi-gigabyte allocation. Per-format error enums keep their own
//! names and convert with `From<DecodeError>`.
//!
//! Everything here is `#[inline]`: the workspace builds without LTO and
//! the wire decoders call these primitives once per field from another
//! crate.

use std::fmt;

/// Why a byte stream could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Stream does not start with the expected magic.
    BadMagic,
    /// Stream ended before a declared field, or a length overflowed.
    Truncated,
    /// A decoded field is structurally impossible (message says which).
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::Truncated => write!(f, "truncated stream"),
            DecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bounds-checked little-endian cursor over a byte slice. Holds only
/// the unread tail, so every read is one length comparison.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// Bytes left in the stream.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Consume `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
        self.rest = tail;
        Ok(*head)
    }

    /// Consume and verify a magic prefix: a stream too short to hold it
    /// is [`DecodeError::Truncated`], different bytes are
    /// [`DecodeError::BadMagic`].
    #[inline]
    pub fn magic(&mut self, expected: &[u8]) -> Result<(), DecodeError> {
        if self.bytes(expected.len())? == expected {
            Ok(())
        } else {
            Err(DecodeError::BadMagic)
        }
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// One byte, non-zero = `true`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.u8()? != 0)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f32` as its IEEE-754 bit pattern (NaN payloads survive).
    #[inline]
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A `u64` field destined to index memory; rejects values that do
    /// not fit `usize`. Not checked against the stream — for a count of
    /// items that follow, use [`Reader::count`].
    #[inline]
    pub fn len_u64(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Truncated)
    }

    /// `n` items of at least `min_size` bytes each must fit in what
    /// remains; returns `n`. Call before sizing an allocation by `n`.
    #[inline]
    fn fits(&self, n: usize, min_size: usize) -> Result<usize, DecodeError> {
        match n.checked_mul(min_size.max(1)) {
            Some(need) if need <= self.rest.len() => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }

    /// A `u64` count of items each at least `min_size` bytes, validated
    /// against the remaining stream *before* any allocation — a corrupt
    /// count can waste at most one stream's worth of memory.
    #[inline]
    pub fn count(&mut self, min_size: usize) -> Result<usize, DecodeError> {
        let n = self.len_u64()?;
        self.fits(n, min_size)
    }

    /// [`Reader::count`] for formats whose count field is a `u32`.
    #[inline]
    pub fn count_u32(&mut self, min_size: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        self.fits(n, min_size)
    }

    /// Consume `n` little-endian `u32`s.
    #[inline]
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, DecodeError> {
        let raw = self.bytes(n.checked_mul(4).ok_or(DecodeError::Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Consume `n` little-endian `f32` bit patterns.
    #[inline]
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, DecodeError> {
        let raw = self.bytes(n.checked_mul(4).ok_or(DecodeError::Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// A `u64`-length-prefixed byte section (the shape [`put_blob`]
    /// writes).
    #[inline]
    pub fn blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.count(1)?;
        self.bytes(n)
    }

    /// `n` bytes of UTF-8.
    #[inline]
    pub fn string(&mut self, n: usize) -> Result<String, DecodeError> {
        std::str::from_utf8(self.bytes(n)?)
            .map(str::to_string)
            .map_err(|_| DecodeError::Invalid("string is not UTF-8"))
    }

    /// Everything not yet read (a format whose tail is an opaque
    /// payload of unstated length).
    #[inline]
    pub fn rest(self) -> &'a [u8] {
        self.rest
    }

    /// The stream must be fully consumed: a format holds exactly one
    /// value, so leftover bytes are corruption, not slack.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Invalid("trailing bytes"))
        }
    }
}

// Append-side helpers mirroring [`Reader`].

#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    out.reserve(vs.len() * 4);
    for &v in vs {
        put_u32(out, v);
    }
}

#[inline]
pub fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    out.reserve(vs.len() * 4);
    for &v in vs {
        put_f32(out, v);
    }
}

/// A `u64` length followed by the bytes — what [`Reader::blob`] reads.
#[inline]
pub fn put_blob(out: &mut Vec<u8>, v: &[u8]) {
    put_u64(out, v.len() as u64);
    out.extend_from_slice(v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MAGICXYZ");
        put_u8(&mut buf, 7);
        put_bool(&mut buf, true);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, 1.5);
        put_f64(&mut buf, -1.0 / 3.0);
        put_f32s(&mut buf, &[1.5, -0.0, f32::NAN]);
        put_u32s(&mut buf, &[3, 2, 1]);
        put_blob(&mut buf, b"xy");
        put_blob(&mut buf, "né".as_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(r.remaining(), buf.len());
        r.magic(b"MAGICXYZ").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f64().unwrap().to_bits(), (-1.0f64 / 3.0).to_bits());
        let fs = r.f32s(3).unwrap();
        assert_eq!(fs[0].to_bits(), 1.5f32.to_bits());
        assert_eq!(fs[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(fs[2].to_bits(), f32::NAN.to_bits());
        assert_eq!(r.u32s(3).unwrap(), vec![3, 2, 1]);
        assert_eq!(r.blob().unwrap(), b"xy");
        let n = r.count(1).unwrap();
        assert_eq!(r.string(n).unwrap(), "né");
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn underflow_is_typed_and_consumes_nothing() {
        let mut r = Reader::new(&[1u8]);
        assert_eq!(r.u32(), Err(DecodeError::Truncated));
        assert_eq!(r.u64(), Err(DecodeError::Truncated));
        assert_eq!(r.f64(), Err(DecodeError::Truncated));
        assert_eq!(r.bytes(2), Err(DecodeError::Truncated));
        assert_eq!(r.u32s(1), Err(DecodeError::Truncated));
        // The failed reads left the one byte in place.
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u8(), Err(DecodeError::Truncated));
        assert_eq!(r.rest(), b"");
    }

    #[test]
    fn magic_distinguishes_short_from_wrong() {
        let mut buf = b"GOODMAGC".to_vec();
        put_u32(&mut buf, 5);
        assert_eq!(
            Reader::new(&buf).magic(b"BADMAGIC"),
            Err(DecodeError::BadMagic)
        );
        assert_eq!(
            Reader::new(&buf[..5]).magic(b"GOODMAGC"),
            Err(DecodeError::Truncated)
        );
        assert_eq!(Reader::new(&buf).magic(b"GOODMAGC"), Ok(()));
    }

    #[test]
    fn oversized_counts_fail_before_any_allocation() {
        // usize::MAX elements: the byte length overflows.
        assert_eq!(
            Reader::new(&[0u8; 16]).f32s(usize::MAX),
            Err(DecodeError::Truncated)
        );
        assert_eq!(
            Reader::new(&[0u8; 16]).u32s(1 << 62),
            Err(DecodeError::Truncated)
        );
        // A u64::MAX / u32::MAX count in front of a handful of bytes.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        buf.extend_from_slice(&[0u8; 9]);
        assert_eq!(Reader::new(&buf).count(8), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&buf).count(0), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&buf).blob(), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&buf).count_u32(1), Err(DecodeError::Truncated));
        // A count that exactly fits passes; one more does not.
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(Reader::new(&buf).count(8), Ok(2));
        assert_eq!(Reader::new(&buf).count(9), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_utf8_and_trailing_bytes_are_invalid() {
        let mut r = Reader::new(&[0xff, 0xfe, 0]);
        assert!(matches!(r.string(2), Err(DecodeError::Invalid(_))));
        assert!(matches!(r.finish(), Err(DecodeError::Invalid(_))));
    }
}
