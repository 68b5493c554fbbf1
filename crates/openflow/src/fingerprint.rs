//! Deterministic state fingerprinting.
//!
//! The NICE model checker stores only 64-bit fingerprints of explored system
//! states (Section 6: "State-matching is done by comparing and storing hashes
//! of the explored states"). This module provides the hasher those
//! fingerprints come from, [`Hasher64`], and a [`Fingerprint`] trait
//! implemented by every state-bearing component of the system model.
//!
//! [`Hasher64`] is a folded-multiply hasher, the construction foldhash,
//! wyhash and rapidhash use: every write absorbs one 64-bit word with one
//! 64 × 64 → 128-bit multiply whose halves are XORed together. Hash
//! compaction (Stern & Dill) needs a digest whose bits are uniform, because
//! the explored store probes on the low bits, locks on bits 48..=55 and the
//! distributed search routes on the top byte; `tests/fingerprint_walk.rs`
//! holds all three to a χ² bound over the states of every shipped scenario.
//!
//! The standard library `DefaultHasher` is deliberately not used: its output
//! is allowed to change between Rust releases, and the fingerprints must be
//! the same in every process of a distributed search and in the golden
//! tests that pin them. The `u128` arithmetic here gives the same digest on
//! every platform.

/// The state of a fresh hasher: the first 64 bits of the fraction of π.
const INITIAL: u64 = 0x243f_6a88_85a3_08d3;
/// The multiplier every word is folded with (wyhash's first secret): odd,
/// with as many one bits as zero bits.
const MULTIPLIER: u64 = 0xa076_1d64_78bd_642f;

/// A 64-bit folded-multiply hasher with a method for each primitive type
/// that appears in the system state.
///
/// Each `write_*` call absorbs exactly one word, so the digest is a function
/// of the sequence of writes, not of the bytes they carry: `write_u8(1)`
/// then `write_u8(2)` differs from `write_u16(0x0201)`.
#[derive(Debug, Clone)]
pub struct Hasher64 {
    state: u64,
}

impl Default for Hasher64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher64 {
    /// Creates a hasher in the fixed initial state.
    pub const fn new() -> Self {
        Hasher64 { state: INITIAL }
    }

    /// Creates a hasher with an explicit seed, useful for domain separation.
    pub const fn with_seed(seed: u64) -> Self {
        let mut h = Hasher64::new();
        h.write_u64(seed);
        h
    }

    /// Folds one word into the state: the low and high halves of
    /// `(state ^ word) * MULTIPLIER`, XORed.
    #[inline(always)]
    const fn absorb(&mut self, word: u64) {
        let product = (self.state ^ word) as u128 * MULTIPLIER as u128;
        self.state = product as u64 ^ (product >> 64) as u64;
    }

    /// Absorbs a byte slice one little-endian word per 8 bytes. The last
    /// word holds the 0–7 bytes left over and, in its top byte, how many
    /// there are, so strings that differ only in trailing zeros differ.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // chunks_exact guarantees the length, so try_into cannot fail.
            self.absorb(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let tail = chunks.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        last[7] = tail.len() as u8;
        self.absorb(u64::from_le_bytes(last));
    }

    /// Absorbs a single byte.
    pub const fn write_u8(&mut self, v: u8) {
        self.absorb(v as u64);
    }

    /// Absorbs a `u16`.
    pub fn write_u16(&mut self, v: u16) {
        self.absorb(v as u64);
    }

    /// Absorbs a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.absorb(v as u64);
    }

    /// Absorbs a `u64`.
    pub const fn write_u64(&mut self, v: u64) {
        self.absorb(v);
    }

    /// Absorbs a `usize` (widened to 64 bits so 32/64-bit platforms agree).
    pub const fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a boolean.
    pub const fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Absorbs a string, length-prefixed so that concatenations cannot
    /// collide with each other.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Returns the current digest.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

/// Types whose value participates in the model-checker state fingerprint.
///
/// Implementations must be *canonical*: two values that are semantically
/// equivalent (for instance two flow tables containing the same rules in a
/// different insertion order, when canonicalisation is enabled) must make
/// the same sequence of writes.
pub trait Fingerprint {
    /// Absorbs this value into `hasher`.
    fn fingerprint(&self, hasher: &mut Hasher64);
}

/// Convenience helper returning the digest of a single value.
pub fn fingerprint_of<T: Fingerprint + ?Sized>(value: &T) -> u64 {
    let mut h = Hasher64::new();
    value.fingerprint(&mut h);
    h.finish()
}

impl Fingerprint for u8 {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_u8(*self);
    }
}

impl Fingerprint for u16 {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_u16(*self);
    }
}

impl Fingerprint for u32 {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_u32(*self);
    }
}

impl Fingerprint for u64 {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_u64(*self);
    }
}

impl Fingerprint for usize {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_usize(*self);
    }
}

impl Fingerprint for bool {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_bool(*self);
    }
}

impl Fingerprint for str {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_str(self);
    }
}

impl Fingerprint for String {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_str(self);
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        match self {
            None => hasher.write_u8(0),
            Some(v) => {
                hasher.write_u8(1);
                v.fingerprint(hasher);
            }
        }
    }
}

impl<T: Fingerprint> Fingerprint for [T] {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_usize(self.len());
        for item in self {
            item.fingerprint(hasher);
        }
    }
}

impl<T: Fingerprint> Fingerprint for Vec<T> {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        self.as_slice().fingerprint(hasher);
    }
}

impl<A: Fingerprint, B: Fingerprint> Fingerprint for (A, B) {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        self.0.fingerprint(hasher);
        self.1.fingerprint(hasher);
    }
}

impl<K: Fingerprint, V: Fingerprint> Fingerprint for std::collections::BTreeMap<K, V> {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_usize(self.len());
        for (k, v) in self {
            k.fingerprint(hasher);
            v.fingerprint(hasher);
        }
    }
}

impl<T: Fingerprint> Fingerprint for std::collections::BTreeSet<T> {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_usize(self.len());
        for v in self {
            v.fingerprint(hasher);
        }
    }
}

impl<T: Fingerprint> Fingerprint for std::collections::VecDeque<T> {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_usize(self.len());
        for v in self {
            v.fingerprint(hasher);
        }
    }
}

impl<T: Fingerprint + ?Sized> Fingerprint for &T {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        (*self).fingerprint(hasher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The digest of what `write` feeds a fresh hasher.
    fn digest(write: impl FnOnce(&mut Hasher64)) -> u64 {
        let mut h = Hasher64::new();
        write(&mut h);
        h.finish()
    }

    /// True if no two of `digests` are equal.
    fn all_distinct(digests: &[u64]) -> bool {
        digests.iter().collect::<BTreeSet<_>>().len() == digests.len()
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Hasher64::new();
        let mut b = Hasher64::new();
        a.write_str("hello");
        a.write_u32(42);
        b.write_str("hello");
        b.write_u32(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn order_sensitivity() {
        let mut a = Hasher64::new();
        a.write_u8(1);
        a.write_u8(2);
        let mut b = Hasher64::new();
        b.write_u8(2);
        b.write_u8(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_prevents_string_concat_collisions() {
        let mut a = Hasher64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Hasher64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn option_and_vec_impls() {
        let some: Option<u32> = Some(7);
        let none: Option<u32> = None;
        assert_ne!(fingerprint_of(&some), fingerprint_of(&none));
        let v1 = vec![1u32, 2, 3];
        let v2 = vec![1u32, 2, 3];
        let v3 = vec![3u32, 2, 1];
        assert_eq!(fingerprint_of(&v1), fingerprint_of(&v2));
        assert_ne!(fingerprint_of(&v1), fingerprint_of(&v3));
    }

    #[test]
    fn seeded_hashers_differ() {
        assert_ne!(
            Hasher64::with_seed(1).finish(),
            Hasher64::with_seed(2).finish()
        );
    }

    /// Golden values: a change to any of these is a change to the hash
    /// function, and with it to every fingerprint, shard assignment and
    /// store placement. Nothing persists a fingerprint across builds, so
    /// re-pinning is allowed; `tests/fingerprint_walk.rs` then shows the
    /// new function still tells apart exactly the states the old one did.
    #[test]
    fn golden_fingerprint_values() {
        assert_eq!(Hasher64::new().finish(), INITIAL);
        assert_eq!(
            digest(|h| h.write_u64(0x0123_4567_89ab_cdef)),
            0x4831_bec2_1e55_d9df
        );

        // The system-state domain-separation seed used by nice-mc.
        assert_eq!(Hasher64::with_seed(0x51a7e).finish(), 0xc5d5_17cf_9de7_0462);

        assert_eq!(digest(|h| h.write_str("nice")), 0xccdc_596a_873b_8506);

        let mixed = digest(|h| {
            h.write_u8(7);
            h.write_u16(0x1234);
            h.write_u32(0xdead_beef);
            h.write_u64(u64::MAX);
            h.write_bytes(&(0u8..13).collect::<Vec<_>>());
        });
        assert_eq!(mixed, 0x46d2_29f3_c0c2_ee84);
    }

    /// No collisions over inputs that differ in the ways state components
    /// do: small integers, single bits (of seeds too: `with_seed` is one
    /// `write_u64`), and trailing zeros.
    #[test]
    fn structured_inputs_do_not_collide() {
        let shorts: Vec<u64> = (0..=u16::MAX).map(|v| digest(|h| h.write_u16(v))).collect();
        assert!(all_distinct(&shorts), "two u16 values collide");

        let bases = [0, 1, u64::MAX, 0x0123_4567_89ab_cdef, INITIAL];
        let words: BTreeSet<u64> = (bases.iter())
            .flat_map(|&base| {
                std::iter::once(base).chain((0..64).map(move |bit| base ^ (1 << bit)))
            })
            .collect();
        let flips: Vec<u64> = words.iter().map(|&w| digest(|h| h.write_u64(w))).collect();
        assert!(all_distinct(&flips), "two single-bit flips collide");

        let prefixes: [&[u8]; 4] = [b"", b"ab", b"nice", b"abcdefgh"];
        let padded: Vec<u64> = (prefixes.iter())
            .flat_map(|prefix| (prefix.len()..=16).map(move |len| (prefix, len)))
            .map(|(prefix, len)| {
                let mut bytes = prefix.to_vec();
                bytes.resize(len, 0);
                digest(|h| h.write_bytes(&bytes))
            })
            .collect();
        assert!(
            all_distinct(&padded),
            "strings differing in trailing zeros collide"
        );
        assert_ne!(
            digest(|h| h.write_bytes(b"ab")),
            digest(|h| h.write_bytes(b"ab\0"))
        );
    }
}
