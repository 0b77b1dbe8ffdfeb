//! The one 64-bit fingerprint fold of the workspace.
//!
//! Every golden — corpus fingerprints, chaos seeds, KV and chain
//! outcomes, trace streams — is a textbook FNV-1a accumulator over some
//! stable encoding of a run's observables: one xor-multiply per byte
//! ([`Fingerprint::bytes`]; [`Fingerprint::word`] feeds a value's eight
//! little-endian bytes). The offset basis and prime live here and
//! nowhere else.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64 accumulator.
///
/// # Examples
///
/// ```
/// use strom_telemetry::Fingerprint;
/// let mut fp = Fingerprint::new();
/// fp.bytes(b"a");
/// assert_eq!(fp.value(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// A fresh accumulator at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Self(OFFSET)
    }

    /// The accumulator's current value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Folds `data` in byte by byte (FNV-1a).
    #[inline]
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Folds `v` in as its eight little-endian bytes (FNV-1a).
    #[inline]
    pub fn word(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn bytes_matches_the_published_vectors() {
        assert_eq!(Fingerprint::new().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fingerprint::new().bytes(b"").value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Fingerprint::new().bytes(b"a").value(),
            0xaf63_dc4c_8601_ec8c
        );
        assert_eq!(
            Fingerprint::new().bytes(b"foobar").value(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn word_is_bytes_of_the_little_endian_encoding() {
        for v in [0u64, 1, 0x61, 0xdead_beef, u64::MAX, 0x0102_0304_0506_0708] {
            assert_eq!(
                Fingerprint::new().word(v).value(),
                Fingerprint::new().bytes(&v.to_le_bytes()).value()
            );
        }
        // The low byte of the word is the first byte folded: "a" then
        // seven zero bytes.
        assert_eq!(
            Fingerprint::new().word(0x61).value(),
            Fingerprint::new().bytes(b"a").bytes(&[0; 7]).value()
        );
    }
}
