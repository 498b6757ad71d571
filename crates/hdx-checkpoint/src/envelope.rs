//! The versioned, checksummed on-disk envelope (`hdx-ckpt/v1`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       12    magic  b"hdx-ckpt/v1\n"
//! 12      8     payload length
//! 20      4     CRC-32 of the payload
//! 24      n     payload
//! ```
//!
//! [`open`] verifies magic, declared length, and checksum before returning a
//! single byte of payload; any mismatch is a typed corruption error the
//! store treats as "skip this file and fall back to an older one".
//!
//! [`open`]: crate::envelope::open

use crate::crc::crc32;
use crate::error::CheckpointError;

/// The format magic: name + version + newline (so `head -c12` identifies a
/// checkpoint file from a shell).
pub const MAGIC: &[u8; 12] = b"hdx-ckpt/v1\n";

/// Fixed header size in bytes (magic + length + CRC).
pub const HEADER_LEN: usize = MAGIC.len() + 8 + 4;

/// Seals `payload` into an envelope: magic, length, CRC-32, payload.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Opens an envelope, returning the verified payload.
///
/// # Errors
/// [`CheckpointError::BadMagic`] when the prefix is not `hdx-ckpt/v1`;
/// [`CheckpointError::Truncated`] when the file is shorter than the header
/// or its declared payload; [`CheckpointError::CrcMismatch`] when the
/// payload fails its checksum; [`CheckpointError::Corrupt`] when bytes trail
/// the declared payload.
pub fn open(bytes: &[u8]) -> Result<Vec<u8>, CheckpointError> {
    if bytes.len() < MAGIC.len() {
        return Err(CheckpointError::Truncated {
            expected: HEADER_LEN as u64,
            found: bytes.len() as u64,
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic {
            found: bytes[..MAGIC.len()].to_vec(),
        });
    }
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated {
            expected: HEADER_LEN as u64,
            found: bytes.len() as u64,
        });
    }
    let len_bytes: [u8; 8] = bytes[MAGIC.len()..MAGIC.len() + 8]
        .try_into()
        .map_err(|_| CheckpointError::Corrupt {
            message: "length field slice".to_string(),
        })?;
    let declared = u64::from_le_bytes(len_bytes);
    let crc_bytes: [u8; 4] =
        bytes[MAGIC.len() + 8..HEADER_LEN]
            .try_into()
            .map_err(|_| CheckpointError::Corrupt {
                message: "crc field slice".to_string(),
            })?;
    let sealed_crc = u32::from_le_bytes(crc_bytes);

    let body = &bytes[HEADER_LEN..];
    let Ok(declared_usize) = usize::try_from(declared) else {
        return Err(CheckpointError::Truncated {
            expected: u64::MAX,
            found: body.len() as u64,
        });
    };
    if body.len() < declared_usize {
        return Err(CheckpointError::Truncated {
            expected: HEADER_LEN as u64 + declared,
            found: bytes.len() as u64,
        });
    }
    if body.len() > declared_usize {
        return Err(CheckpointError::Corrupt {
            message: format!(
                "{} bytes trail the declared payload",
                body.len() - declared_usize
            ),
        });
    }
    let found_crc = crc32(body);
    if found_crc != sealed_crc {
        return Err(CheckpointError::CrcMismatch {
            expected: sealed_crc,
            found: found_crc,
        });
    }
    Ok(body.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_then_open_round_trips() {
        for payload in [&b""[..], &b"x"[..], &[0u8; 4096][..]] {
            let sealed = seal(payload);
            assert_eq!(open(&sealed).unwrap(), payload);
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let sealed = seal(b"mining state, level 3, 512 itemsets");
        for i in 0..sealed.len() {
            let mut copy = sealed.clone();
            copy[i] ^= 0x40;
            let err = open(&copy).expect_err("flip must be detected");
            assert!(err.is_corruption(), "byte {i}: {err}");
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let sealed = seal(b"some payload bytes");
        for cut in 0..sealed.len() {
            let err = open(&sealed[..cut]).expect_err("truncation must be detected");
            assert!(err.is_corruption(), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut sealed = seal(b"payload");
        sealed.extend_from_slice(b"junk");
        assert!(matches!(
            open(&sealed),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn foreign_file_is_bad_magic() {
        assert!(matches!(
            open(b"PK\x03\x04 definitely a zip file"),
            Err(CheckpointError::BadMagic { .. })
        ));
    }
}
