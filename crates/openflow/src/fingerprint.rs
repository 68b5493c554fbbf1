//! Deterministic state fingerprinting.
//!
//! The NICE model checker stores only 64-bit fingerprints of explored system
//! states (Section 6: "State-matching is done by comparing and storing hashes
//! of the explored states"). To make those fingerprints reproducible across
//! runs and platforms, this module provides a small, stable FNV-1a based
//! hasher and a [`Fingerprint`] trait implemented by every state-bearing
//! component of the system model.
//!
//! The standard library `DefaultHasher` is deliberately not used: its output
//! is allowed to change between Rust releases, which would break replay files
//! and golden tests.

/// A 64-bit FNV-1a hasher with a few convenience methods for writing the
/// primitive types that appear in the system state.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Creates a hasher seeded with the standard FNV offset basis.
    pub const fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Creates a hasher with an explicit seed, useful for domain separation.
    pub const fn with_seed(seed: u64) -> Self {
        let mut h = Fnv64::new();
        h.write_u64(seed);
        h
    }

    /// Folds one byte into the state (the FNV-1a step).
    #[inline(always)]
    const fn step(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Folds a whole little-endian word into the state without bouncing
    /// through a byte array: eight unrolled FNV-1a steps. Produces exactly
    /// the same digest as feeding `v.to_le_bytes()` a byte at a time — the
    /// fast path changes the loop structure, never the function — so replay
    /// files and golden fingerprints stay stable.
    #[inline(always)]
    const fn step_word(&mut self, v: u64) {
        self.step(v as u8);
        self.step((v >> 8) as u8);
        self.step((v >> 16) as u8);
        self.step((v >> 24) as u8);
        self.step((v >> 32) as u8);
        self.step((v >> 40) as u8);
        self.step((v >> 48) as u8);
        self.step((v >> 56) as u8);
    }

    /// Absorbs a byte slice, processing aligned 8-byte chunks through the
    /// unrolled word path and the tail byte-by-byte.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // chunks_exact guarantees the length, so try_into cannot fail.
            self.step_word(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        for &b in chunks.remainder() {
            self.step(b);
        }
    }

    /// Absorbs a single byte.
    pub const fn write_u8(&mut self, v: u8) {
        self.step(v);
    }

    /// Absorbs a `u16` in little-endian order.
    pub fn write_u16(&mut self, v: u16) {
        self.step(v as u8);
        self.step((v >> 8) as u8);
    }

    /// Absorbs a `u32` in little-endian order.
    pub fn write_u32(&mut self, v: u32) {
        self.step(v as u8);
        self.step((v >> 8) as u8);
        self.step((v >> 16) as u8);
        self.step((v >> 24) as u8);
    }

    /// Absorbs a `u64` in little-endian order (word-at-a-time fast path).
    pub const fn write_u64(&mut self, v: u64) {
        self.step_word(v);
    }

    /// Absorbs a `usize` (widened to 64 bits so 32/64-bit platforms agree).
    pub const fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a boolean as a full byte.
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
/// different insertion order, when canonicalisation is enabled) must absorb
/// the same byte stream.
pub trait Fingerprint {
    /// Absorbs this value into `hasher`.
    fn fingerprint(&self, hasher: &mut Fnv64);
}

/// Convenience helper returning the digest of a single value.
pub fn fingerprint_of<T: Fingerprint + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    value.fingerprint(&mut h);
    h.finish()
}

impl Fingerprint for u8 {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_u8(*self);
    }
}

impl Fingerprint for u16 {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_u16(*self);
    }
}

impl Fingerprint for u32 {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_u32(*self);
    }
}

impl Fingerprint for u64 {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_u64(*self);
    }
}

impl Fingerprint for usize {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_usize(*self);
    }
}

impl Fingerprint for bool {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_bool(*self);
    }
}

impl Fingerprint for str {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_str(self);
    }
}

impl Fingerprint for String {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_str(self);
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn fingerprint(&self, hasher: &mut Fnv64) {
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
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_usize(self.len());
        for item in self {
            item.fingerprint(hasher);
        }
    }
}

impl<T: Fingerprint> Fingerprint for Vec<T> {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        self.as_slice().fingerprint(hasher);
    }
}

impl<A: Fingerprint, B: Fingerprint> Fingerprint for (A, B) {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        self.0.fingerprint(hasher);
        self.1.fingerprint(hasher);
    }
}

impl<K: Fingerprint, V: Fingerprint> Fingerprint for std::collections::BTreeMap<K, V> {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_usize(self.len());
        for (k, v) in self {
            k.fingerprint(hasher);
            v.fingerprint(hasher);
        }
    }
}

impl<T: Fingerprint> Fingerprint for std::collections::BTreeSet<T> {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_usize(self.len());
        for v in self {
            v.fingerprint(hasher);
        }
    }
}

impl<T: Fingerprint> Fingerprint for std::collections::VecDeque<T> {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_usize(self.len());
        for v in self {
            v.fingerprint(hasher);
        }
    }
}

impl<T: Fingerprint + ?Sized> Fingerprint for &T {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        (*self).fingerprint(hasher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hash_is_offset_basis() {
        assert_eq!(Fnv64::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Fnv64::new();
        let mut b = Fnv64::new();
        a.write_str("hello");
        a.write_u32(42);
        b.write_str("hello");
        b.write_u32(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn known_vector() {
        // FNV-1a of "a" is a published test vector.
        let mut h = Fnv64::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn order_sensitivity() {
        let mut a = Fnv64::new();
        a.write_u8(1);
        a.write_u8(2);
        let mut b = Fnv64::new();
        b.write_u8(2);
        b.write_u8(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_prevents_string_concat_collisions() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
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
        assert_ne!(Fnv64::with_seed(1).finish(), Fnv64::with_seed(2).finish());
    }

    /// Every write method agrees with the byte-at-a-time reference FNV-1a,
    /// including across chunk boundaries of the word-at-a-time fast path.
    #[test]
    fn fast_path_matches_reference_bytes() {
        fn reference(writes: &[&[u8]]) -> u64 {
            let mut state = FNV_OFFSET;
            for bytes in writes {
                for &b in *bytes {
                    state ^= b as u64;
                    state = state.wrapping_mul(FNV_PRIME);
                }
            }
            state
        }

        for len in 0..40usize {
            let data: Vec<u8> = (0..len as u8)
                .map(|b| b.wrapping_mul(37).wrapping_add(11))
                .collect();
            let mut h = Fnv64::new();
            h.write_bytes(&data);
            assert_eq!(h.finish(), reference(&[&data]), "write_bytes length {len}");
        }

        let mut h = Fnv64::new();
        h.write_u16(0x1234);
        h.write_u32(0xdead_beef);
        h.write_u64(0x0123_4567_89ab_cdef);
        assert_eq!(
            h.finish(),
            reference(&[
                &0x1234u16.to_le_bytes(),
                &0xdead_beefu32.to_le_bytes(),
                &0x0123_4567_89ab_cdefu64.to_le_bytes(),
            ])
        );
    }

    /// Golden values: pinned digests that replay files and stored state
    /// fingerprints depend on. If one of these changes, the hash function
    /// changed and every persisted fingerprint is invalidated — do not
    /// update the constants without bumping whatever stores fingerprints.
    #[test]
    fn golden_fingerprint_values() {
        let mut h = Fnv64::new();
        h.write_u64(0x0123_4567_89ab_cdef);
        assert_eq!(h.finish(), 0x37eb_3f33_4776_1c55);

        // The system-state domain-separation seed used by nice-mc.
        assert_eq!(Fnv64::with_seed(0x51a7e).finish(), 0xd1d1_acbf_8fec_99a4);

        let mut h = Fnv64::new();
        h.write_str("nice");
        assert_eq!(h.finish(), 0xdc32_a3c1_d895_5538);

        let mut h = Fnv64::new();
        h.write_u8(7);
        h.write_u16(0x1234);
        h.write_u32(0xdead_beef);
        h.write_u64(u64::MAX);
        let seq: Vec<u8> = (0u8..13).collect();
        h.write_bytes(&seq);
        assert_eq!(h.finish(), 0x4926_b6f1_b7f5_26da);
    }
}
