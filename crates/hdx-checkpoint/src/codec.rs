//! A little-endian binary codec for checkpoint payloads.
//!
//! The workspace carries no serde; checkpoints are written with this
//! hand-rolled, length-prefixed format instead. Every read is bounds-checked
//! and returns a typed [`CheckpointError`] — a decoder must never panic on
//! attacker- or crash-shaped bytes.

use crate::error::CheckpointError;

/// Hard cap on any single length prefix (items, bytes, string length), a
/// sanity bound so a corrupt length cannot drive an allocation of terabytes.
const MAX_LEN: u64 = 1 << 32;

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes an optional `f64` (presence byte + value).
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_f64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Writes an optional `u32` (presence byte + value).
    pub fn put_opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u32(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Writes a `char` as its UTF-8 bytes: 1 to 4, self-delimiting by the
    /// lead byte, so an ASCII character is the one byte [`put_u8`](Self::put_u8)
    /// would write.
    pub fn put_char(&mut self, v: char) {
        let mut utf8 = [0u8; 4];
        self.buf
            .extend_from_slice(v.encode_utf8(&mut utf8).as_bytes());
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a length-prefixed list of `u32`s.
    pub fn put_u32_list(&mut self, v: &[u32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u32(x);
        }
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`CheckpointError::Corrupt`] when bytes remain unread —
    /// a decoder that stops early has misparsed the payload.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt {
                message: format!("{} trailing bytes after payload", self.remaining()),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated {
                expected: (self.pos + n) as u64,
                found: self.buf.len() as u64,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        let arr: [u8; 4] = b.try_into().map_err(|_| CheckpointError::Corrupt {
            message: "u32 slice length".to_string(),
        })?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| CheckpointError::Corrupt {
            message: "u64 slice length".to_string(),
        })?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CheckpointError::Corrupt {
                message: format!("bool byte {other}"),
            }),
        }
    }

    /// Reads an optional `f64` written by [`ByteWriter::put_opt_f64`].
    pub fn opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        if self.bool()? {
            Ok(Some(self.f64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads an optional `u32` written by [`ByteWriter::put_opt_u32`].
    pub fn opt_u32(&mut self) -> Result<Option<u32>, CheckpointError> {
        if self.bool()? {
            Ok(Some(self.u32()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a `char` written by [`ByteWriter::put_char`]; a sequence cut
    /// short or not valid UTF-8 is [`CheckpointError::Corrupt`].
    pub fn char(&mut self) -> Result<char, CheckpointError> {
        let rest = &self.buf[self.pos..];
        // The lead byte's leading ones count the sequence's bytes (none: ASCII).
        let width = rest
            .first()
            .map_or(1, |lead| lead.leading_ones().max(1) as usize);
        let decoded = rest
            .get(..width)
            .and_then(|seq| std::str::from_utf8(seq).ok())
            .and_then(|seq| seq.chars().next());
        let c = decoded.ok_or_else(|| CheckpointError::Corrupt {
            message: format!("invalid UTF-8 character at byte {}", self.pos),
        })?;
        self.pos += width;
        Ok(c)
    }

    /// Reads a length prefix, rejecting lengths past the sanity cap or the
    /// remaining buffer (so corrupt lengths fail fast, not at alloc time).
    pub fn len_prefix(&mut self) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        if n > MAX_LEN {
            return Err(CheckpointError::Corrupt {
                message: format!("length prefix {n} exceeds sanity cap"),
            });
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CheckpointError> {
        let n = self.len_prefix()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes).map_err(|e| CheckpointError::Corrupt {
            message: format!("invalid UTF-8 string: {e}"),
        })
    }

    /// Reads a length-prefixed list of `u32`s.
    pub fn u32_list(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let n = self.len_prefix()?;
        // Each element needs 4 bytes; check up front so a corrupt count
        // cannot reserve gigabytes.
        if self.remaining() < n.saturating_mul(4) {
            return Err(CheckpointError::Truncated {
                expected: (self.pos + n * 4) as u64,
                found: self.buf.len() as u64,
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_opt_f64(None);
        w.put_opt_f64(Some(f64::NAN));
        w.put_opt_u32(Some(42));
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        w.put_u32_list(&[10, 20, 30]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.125f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_f64().unwrap(), None);
        assert!(r.opt_f64().unwrap().is_some_and(f64::is_nan));
        assert_eq!(r.opt_u32().unwrap(), Some(42));
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u32_list().unwrap(), vec![10, 20, 30]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.put_u64(99);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(CheckpointError::Truncated { .. })));
    }

    #[test]
    fn corrupt_length_prefix_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(CheckpointError::Corrupt { .. })));
        let mut r2 = ByteReader::new(&bytes);
        assert!(r2.u32_list().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(matches!(r.finish(), Err(CheckpointError::Corrupt { .. })));
    }

    #[test]
    fn chars_round_trip_at_every_utf8_width() {
        for c in [';', '\t', '€', '𝄞'] {
            let mut w = ByteWriter::new();
            w.put_char(c);
            w.put_u8(7);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), c.len_utf8() + 1, "{c:?}");
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.char().unwrap(), c);
            assert_eq!(r.u8().unwrap(), 7);
            r.finish().unwrap();
            // Cut anywhere inside the sequence, it is corrupt, not a
            // shorter character.
            for cut in 0..c.len_utf8() {
                let mut r = ByteReader::new(&bytes[..cut]);
                assert!(
                    matches!(r.char(), Err(CheckpointError::Corrupt { .. })),
                    "{c:?} cut at {cut}"
                );
            }
        }
        // A stray continuation byte, an over-long encoding, a surrogate and
        // a lead byte no UTF-8 sequence starts with.
        let invalid: [&[u8]; 4] = [
            &[0x80],
            &[0xC0, 0xAC],
            &[0xED, 0xA0, 0x80],
            &[0xFF, 0, 0, 0],
        ];
        for bytes in invalid {
            let mut r = ByteReader::new(bytes);
            assert!(
                matches!(r.char(), Err(CheckpointError::Corrupt { .. })),
                "{bytes:x?}"
            );
        }
    }

    #[test]
    fn bad_bool_byte_rejected() {
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(r.bool(), Err(CheckpointError::Corrupt { .. })));
    }
}
