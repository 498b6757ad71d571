//! The 64-bit run fingerprint: a fast, stable content hash binding a
//! checkpoint to the exact dataset and configuration that produced it.
//!
//! FNV-1a over a canonical byte stream. Not cryptographic — the threat
//! model is *accidental* mismatch (resuming against an edited CSV or a
//! different support threshold), for which 64 bits of collision resistance
//! is ample. NaN payloads are canonicalised so the fingerprint is a function
//! of the data's *values*, not of which NaN bit pattern a parser produced.

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// Canonical quiet-NaN bit pattern used for all NaN inputs.
const CANON_NAN: u64 = 0x7ff8_0000_0000_0000;

/// An incremental FNV-1a fingerprint builder.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// A fresh fingerprint at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: OFFSET }
    }

    /// Mixes raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(PRIME);
        }
        self
    }

    /// Mixes one byte.
    pub fn write_u8(&mut self, v: u8) -> &mut Self {
        self.write_bytes(&[v])
    }

    /// Mixes a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Mixes an `f64` by bit pattern, with all NaNs canonicalised to one
    /// pattern (so a quarantined cell fingerprints identically however it
    /// was spelled in the source file).
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        let bits = if v.is_nan() { CANON_NAN } else { v.to_bits() };
        self.write_u64(bits)
    }

    /// Mixes an optional `f64`: a presence byte, then the value if any.
    pub fn write_opt_f64(&mut self, v: Option<f64>) -> &mut Self {
        match v {
            Some(x) => self.write_u8(1).write_f64(x),
            None => self.write_u8(0),
        }
    }

    /// Mixes a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// fingerprint differently.
    pub fn write_str(&mut self, v: &str) -> &mut Self {
        self.write_u64(v.len() as u64);
        self.write_bytes(v.as_bytes())
    }

    /// The finished 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = Fingerprint::new();
        a.write_str("adult.csv").write_u64(32561).write_f64(0.05);
        let mut b = Fingerprint::new();
        b.write_str("adult.csv").write_u64(32561).write_f64(0.05);
        assert_eq!(a.finish(), b.finish());

        let mut c = Fingerprint::new();
        c.write_u64(32561).write_str("adult.csv").write_f64(0.05);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn single_value_changes_move_the_fingerprint() {
        let base = {
            let mut f = Fingerprint::new();
            f.write_f64(1.0).write_f64(2.0).write_f64(3.0);
            f.finish()
        };
        let tweaked = {
            let mut f = Fingerprint::new();
            f.write_f64(1.0).write_f64(2.0 + 1e-12).write_f64(3.0);
            f.finish()
        };
        assert_ne!(base, tweaked);
    }

    #[test]
    fn all_nans_fingerprint_identically() {
        let payloads = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_dead_beef_0000)];
        let prints: Vec<u64> = payloads
            .iter()
            .map(|&v| {
                let mut f = Fingerprint::new();
                f.write_f64(v);
                f.finish()
            })
            .collect();
        assert!(prints.windows(2).all(|w| w[0] == w[1]));
        // But a NaN is still distinct from a finite value.
        let mut finite = Fingerprint::new();
        finite.write_f64(0.0);
        assert_ne!(prints[0], finite.finish());
    }

    #[test]
    fn string_framing_prevents_concatenation_collisions() {
        let mut a = Fingerprint::new();
        a.write_str("ab").write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published vector.
        assert_eq!(Fingerprint::new().finish(), OFFSET);
        let mut f = Fingerprint::new();
        f.write_bytes(b"a");
        assert_eq!(f.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
