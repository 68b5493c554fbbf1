//! Explored-set storage: one exact, in-memory store of packed tables.
//!
//! The explored set keeps only 64-bit state fingerprints (Section 6 of the
//! paper). One exact store (`ExactStore`) holds it: 64 independently locked
//! open-addressed tables packing `fingerprint + sleep-digest ref` into 12
//! bytes per slot (vs ~48+ for a `HashMap<u64, Box<[u64]>>`), each table
//! keeping every distinct sleep-digest list once. It has no mode and no
//! memory limit: the largest registry search peaks at 48 MiB of a 1.2 GiB
//! process (48.5 of 585 MiB under POR), so it is never the term to bound.
//!
//! The store speaks the sleep-set-aware visit protocol ([`Visit`]) that
//! keeps partial-order reduction sound under state matching: a state
//! revisited with a sleep set that does not contain the one it was explored
//! with is re-expanded with the intersection of the two.
//!
//! # Shard-bit budget
//!
//! Two layers shard by fingerprint bits and they must never collide:
//! a [`ShardedSearch`](crate::shard::ShardedSearch) routes states to shards
//! by the top byte — bits 56..=63, via [`shard_of`](crate::shard::shard_of)
//! — while the store here picks its lock shard from bits 48..=55
//! (`store_shard`). A shard therefore sees fingerprints
//! with a fixed top byte, but they still spread uniformly over the store's
//! 64 lock shards.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------------
// The visit protocol
// ---------------------------------------------------------------------------

/// Identity hasher for values that are already 64-bit fingerprints (`Hasher64`
/// outputs): feeding them through SipHash again would be pure overhead.
#[derive(Debug, Default, Clone)]
pub(crate) struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback; the checker only ever hashes u64 fingerprints.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// The explored set: each 64-bit state fingerprint (no re-hashing) maps to
/// the sorted digests of the sleep set the state was last explored with.
///
/// Without partial-order reduction every sleep set is empty and this behaves
/// exactly like the plain fingerprint set it replaced. With POR, the stored
/// sleep set makes state matching sound (Godefroid): a state revisited with
/// a sleep set that is *not* a superset of the stored one was previously
/// explored with more pruning than the new path permits, so it must be
/// re-expanded — with the intersection of the two sleep sets, which only
/// ever shrinks, guaranteeing termination.
pub(crate) type FingerprintMap = HashMap<u64, Box<[u64]>, BuildHasherDefault<FingerprintHasher>>;

/// The verdict on one (fingerprint, sleep set) visit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Visit {
    /// First time this state is seen: explore it.
    New,
    /// Already explored with a sleep set no larger than this one: skip.
    Known,
    /// Previously explored with a sleep set this visit does not subsume:
    /// re-explore with the narrowed (intersected) sleep digests.
    Widen(Vec<u64>),
}

/// True if every element of sorted `sub` occurs in sorted `sup`.
pub(crate) fn sorted_subset(sub: &[u64], sup: &[u64]) -> bool {
    let mut j = 0;
    'outer: for &x in sub {
        while j < sup.len() {
            match sup[j].cmp(&x) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Intersection of two sorted slices.
pub(crate) fn sorted_intersection(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Records a visit of `fingerprint` under `sleep_digests` (sorted) and says
/// whether the state needs (re-)exploring. See [`FingerprintMap`]. This is
/// the reference implementation of the protocol; [`ExactStore`] must agree
/// with it verdict-for-verdict (the random walk still uses it directly —
/// its explored set is per-walk and tiny).
pub(crate) fn visit_explored(
    map: &mut FingerprintMap,
    fingerprint: u64,
    sleep_digests: &[u64],
) -> Visit {
    match map.entry(fingerprint) {
        Entry::Vacant(v) => {
            v.insert(sleep_digests.into());
            Visit::New
        }
        Entry::Occupied(mut o) => {
            if sorted_subset(o.get(), sleep_digests) {
                Visit::Known
            } else {
                let narrowed = sorted_intersection(o.get(), sleep_digests);
                o.insert(narrowed.clone().into_boxed_slice());
                Visit::Widen(narrowed)
            }
        }
    }
}

/// The store's byte counters; threaded into
/// [`SearchStats`](crate::checker::SearchStats) and the report JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploredStats {
    /// Bytes currently held by the store.
    pub bytes: u64,
    /// High-water mark of [`ExploredStats::bytes`] over the run.
    pub peak_bytes: u64,
}

/// Lock shards per in-process store.
const STORE_SHARDS: usize = 64;

/// Picks the store-internal lock shard from bits 48..=55 of the
/// fingerprint — deliberately disjoint from the bits 56..=63 the
/// distributed [`shard_of`](crate::shard::shard_of) routes on, so a dist
/// worker's (top-byte-constrained) fingerprints still spread over all
/// [`STORE_SHARDS`] locks.
pub(crate) fn store_shard(fingerprint: u64) -> usize {
    ((fingerprint >> 48) & 0xff) as usize % STORE_SHARDS
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Packed open-addressed table
// ---------------------------------------------------------------------------

/// Slot marker: vacant.
const SLOT_EMPTY: u32 = u32::MAX;
/// Slot marker: occupied with an empty sleep set (every state without POR).
const SLOT_NO_SLEEP: u32 = u32::MAX - 1;

/// Smallest table capacity after the first insert; always a power of two.
const MIN_TABLE_CAPACITY: usize = 16;

/// An open-addressed (linear probing) fingerprint table packing each entry
/// into 12 bytes of slot — `fps[i]: u64` plus `refs[i]: u32` — instead of
/// a `HashMap` entry's ~48. `refs[i]` is [`SLOT_EMPTY`], [`SLOT_NO_SLEEP`],
/// or the id of a non-empty sleep-digest list in the interned `lists`: a
/// POR search stores a list with most states but has a few dozen distinct
/// ones (BUG-V `--faults`: 56 142 and 56), so slots share them. Probing
/// uses the fingerprint's low bits directly — fingerprints are already
/// uniformly distributed. No deletions, so no tombstones.
#[derive(Default)]
struct PackedTable {
    fps: Vec<u64>,
    refs: Vec<u32>,
    /// Every distinct non-empty list stored, by id (never freed: shared).
    lists: Vec<Arc<[u64]>>,
    ids: HashMap<Arc<[u64]>, u32, BuildHasherDefault<nice_openflow::Hasher64>>,
    len: usize,
    /// Heap bytes of the lists themselves (for byte accounting).
    list_bytes: u64,
}

impl PackedTable {
    /// Approximate heap footprint in bytes: 12 per slot, 16 per `lists`
    /// entry, 28 per `ids` entry (24 and a control byte at 7/8 load), and
    /// each list with its `Arc` counts.
    fn bytes(&self) -> u64 {
        (self.fps.len() * 12 + self.lists.capacity() * 16 + self.ids.capacity() * 28) as u64
            + self.list_bytes
    }

    /// Index of `fp`'s slot if present, else of the first vacant slot in
    /// its probe chain. Requires at least one vacant slot.
    fn probe(&self, fp: u64) -> usize {
        let mask = self.fps.len() - 1;
        let mut i = fp as usize & mask;
        loop {
            if self.refs[i] == SLOT_EMPTY || self.fps[i] == fp {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Grows (or first-allocates) so at least one insert fits under 3/4
    /// load.
    fn ensure_slot(&mut self) {
        let cap = self.fps.len();
        if cap == 0 || (self.len + 1) * 4 > cap * 3 {
            let new_cap = (cap * 2).max(MIN_TABLE_CAPACITY);
            let old_fps = std::mem::replace(&mut self.fps, vec![0; new_cap]);
            let old_refs = std::mem::replace(&mut self.refs, vec![SLOT_EMPTY; new_cap]);
            for (fp, r) in old_fps.into_iter().zip(old_refs) {
                if r != SLOT_EMPTY {
                    let i = self.probe(fp);
                    self.fps[i] = fp;
                    self.refs[i] = r;
                }
            }
        }
    }

    /// Interns a digest list, returning the slot ref naming it.
    fn store_list(&mut self, digests: &[u64]) -> u32 {
        if digests.is_empty() {
            return SLOT_NO_SLEEP;
        }
        if let Some(&id) = self.ids.get(digests) {
            return id;
        }
        let (id, list) = (self.lists.len() as u32, Arc::<[u64]>::from(digests));
        self.lists.push(Arc::clone(&list));
        self.ids.insert(list, id);
        self.list_bytes += 16 + digests.len() as u64 * 8;
        id
    }

    /// The full visit protocol against this table: exactly
    /// [`visit_explored`]'s semantics. The table grows only on a miss.
    fn visit(&mut self, fp: u64, sleep_digests: &[u64]) -> Visit {
        if self.len > 0 {
            let i = self.probe(fp);
            if self.refs[i] != SLOT_EMPTY {
                let stored: &[u64] = match self.refs[i] {
                    SLOT_NO_SLEEP => &[],
                    r => &self.lists[r as usize],
                };
                if sorted_subset(stored, sleep_digests) {
                    return Visit::Known;
                }
                let narrowed = sorted_intersection(stored, sleep_digests);
                // Re-point the slot: the list it named may be shared.
                self.refs[i] = self.store_list(&narrowed);
                return Visit::Widen(narrowed);
            }
        }
        self.ensure_slot();
        let i = self.probe(fp);
        self.len += 1;
        self.fps[i] = fp;
        self.refs[i] = self.store_list(sleep_digests);
        Visit::New
    }
}

// ---------------------------------------------------------------------------
// The exact store
// ---------------------------------------------------------------------------

/// The explored set of one run: [`STORE_SHARDS`] packed tables, each behind
/// its own lock, with byte accounting. One store is shared by every worker
/// thread of a run, so it synchronises internally.
pub(crate) struct ExactStore {
    shards: Vec<Mutex<PackedTable>>,
    bytes: AtomicU64,
    peak: AtomicU64,
}

impl ExactStore {
    pub(crate) fn new() -> ExactStore {
        ExactStore {
            shards: (0..STORE_SHARDS).map(|_| Mutex::default()).collect(),
            bytes: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Records a visit of `fingerprint` under sorted `sleep_digests` and
    /// says whether the state needs (re-)exploring.
    pub(crate) fn visit(&self, fingerprint: u64, sleep_digests: &[u64]) -> Visit {
        let mut table = lock(&self.shards[store_shard(fingerprint)]);
        let before = table.bytes();
        let verdict = table.visit(fingerprint, sleep_digests);
        let after = table.bytes();
        if after >= before {
            let now = self.bytes.fetch_add(after - before, Ordering::Relaxed) + (after - before);
            self.peak.fetch_max(now, Ordering::Relaxed);
        } else {
            self.bytes.fetch_sub(before - after, Ordering::Relaxed);
        }
        verdict
    }

    /// Bytes currently held (cheap; polled for progress events).
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the store's counters.
    pub(crate) fn stats(&self) -> ExploredStats {
        ExploredStats {
            bytes: self.bytes(),
            peak_bytes: self.peak.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_hasher_is_identity_on_u64() {
        let mut h = FingerprintHasher::default();
        h.write_u64(0xdead_beef_cafe_f00d);
        assert_eq!(h.finish(), 0xdead_beef_cafe_f00d);
    }

    /// SplitMix64, to spread test fingerprints over every bit.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A tiny deterministic generator for fingerprints and sleep sets.
    struct TestRng(u64);
    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix64(self.0)
        }

        /// A sorted, deduplicated digest list of length 0..=3 (mostly 0,
        /// like real POR sleep sets).
        fn sleep(&mut self) -> Vec<u64> {
            let n = (self.next() % 5).saturating_sub(2) as usize;
            let mut v: Vec<u64> = (0..n).map(|_| self.next() % 16).collect();
            v.sort_unstable();
            v.dedup();
            v
        }
    }

    /// Drives a visit sequence against a store and the reference
    /// [`visit_explored`] map, asserting verdict-for-verdict agreement.
    fn agrees_with_reference(store: &ExactStore, visits: usize, seed: u64) {
        let mut rng = TestRng(seed);
        let mut reference = FingerprintMap::default();
        for i in 0..visits {
            // A small fingerprint space forces revisits and widenings.
            let fp = splitmix64(rng.next() % 500);
            let sleep = rng.sleep();
            let expected = visit_explored(&mut reference, fp, &sleep);
            let got = store.visit(fp, &sleep);
            assert_eq!(got, expected, "visit {i}: fp {fp:#x} sleep {sleep:?}");
        }
    }

    #[test]
    fn packed_table_agrees_with_reference_semantics() {
        let store = ExactStore::new();
        agrees_with_reference(&store, 5_000, 1);
        assert!(store.stats().peak_bytes > 0);
    }

    #[test]
    fn a_widening_re_points_one_slot_and_leaves_the_shared_list_alone() {
        let mut table = PackedTable::default();
        let (a, b) = (splitmix64(1), splitmix64(2));
        assert_eq!(table.visit(a, &[1, 2, 3]), Visit::New);
        assert_eq!(table.visit(b, &[1, 2, 3]), Visit::New);
        assert_eq!(table.lists.len(), 1, "one list, named by both slots");
        assert_eq!(table.visit(a, &[2, 3, 4]), Visit::Widen(vec![2, 3]));
        // `b` still holds [1, 2, 3]: an in-place overwrite would make the
        // strict subset below narrow against [2, 3] and return [2].
        assert_eq!(table.visit(b, &[1, 2, 3]), Visit::Known);
        assert_eq!(table.visit(b, &[1, 2]), Visit::Widen(vec![1, 2]));
        assert_eq!(table.visit(a, &[2, 3]), Visit::Known);
        assert_eq!(table.lists.len(), 3, "[1, 2, 3], [2, 3] and [1, 2]");
        // An interned list is stored again only by id.
        let bytes = table.bytes();
        assert_eq!(table.visit(splitmix64(3), &[2, 3]), Visit::New);
        assert_eq!(table.bytes(), bytes);
    }

    #[test]
    fn the_store_keeps_each_distinct_list_once() {
        // The non-empty subsets of 0..6 with at most four elements: 56
        // lists, closed under intersection, so no widening can leave the
        // pool.
        let pool: Vec<Vec<u64>> = (1u64..64)
            .filter(|m| m.count_ones() <= 4)
            .map(|m| (0..6).filter(|b| m >> b & 1 == 1).collect())
            .collect();
        assert_eq!(pool.len(), 56);
        let store = ExactStore::new();
        let mut reference = FingerprintMap::default();
        let mut rng = TestRng(11);
        for i in 0..20_000 {
            let fp = splitmix64(rng.next() % 4_000);
            // Mostly non-empty, as a POR search's sleep sets are.
            let sleep: &[u64] = match rng.next() % (pool.len() as u64 + 6) {
                k if (k as usize) < pool.len() => &pool[k as usize],
                _ => &[],
            };
            let expected = visit_explored(&mut reference, fp, sleep);
            assert_eq!(
                store.visit(fp, sleep),
                expected,
                "visit {i}: fp {fp:#x} sleep {sleep:?}"
            );
        }
        let mut distinct = std::collections::HashSet::new();
        for shard in &store.shards {
            let table = lock(shard);
            assert_eq!(table.ids.len(), table.lists.len());
            assert!(table.lists.len() <= pool.len());
            distinct.extend(table.lists.iter().cloned());
        }
        assert!(
            distinct.len() <= pool.len(),
            "{} distinct lists",
            distinct.len()
        );
    }

    #[test]
    fn store_shard_uses_bits_48_to_55_only() {
        let mut rng = TestRng(7);
        for _ in 0..1000 {
            let fp = rng.next();
            // Flipping the dist-routing byte (56..=63) never moves the
            // store shard...
            assert_eq!(store_shard(fp), store_shard(fp ^ (0xff << 56)));
            // ...and flipping the store byte never leaves it in place.
            assert_ne!(store_shard(fp), store_shard(fp ^ (0x3f << 48)));
        }
    }
}
