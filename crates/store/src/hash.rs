//! A process-independent hasher for content addresses.
//!
//! [`std::collections::hash_map::DefaultHasher`] is deterministic within
//! one toolchain but documented as unstable across Rust releases, which
//! makes it unsuitable for keys that live on disk. [`StableHasher`] is
//! 64-bit FNV-1a with an explicit, fixed byte encoding for every input
//! kind — little-endian integers, IEEE-754 bit patterns for floats,
//! length-prefixed strings — so a content address depends only on the
//! hashed content, never on the process, machine or compiler that
//! computed it.
//!
//! Floats are hashed by bit pattern, so two keys are equal only when
//! every hashed float is equal exactly: there are no epsilon classes.

/// 64-bit FNV-1a over an explicitly encoded byte stream.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by IEEE-754 bit pattern (exact: `0.1 + 0.2`
    /// and `0.3` hash differently, `-0.0` and `0.0` too).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` and
    /// `("a","bc")` cannot collide by concatenation.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated 64-bit digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fnv1a_reference_vectors() {
        // Published FNV-1a 64 digests.
        let mut h = StableHasher::new();
        h.write_bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = StableHasher::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn string_length_prefix_prevents_concatenation_collisions() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn floats_hash_by_bit_pattern() {
        let mut a = StableHasher::new();
        a.write_f64(0.0);
        let mut b = StableHasher::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "signed zeros are distinct content");
    }
}
