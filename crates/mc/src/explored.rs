//! Tiered explored-set storage: packed tables, disk spill behind a bloom
//! filter, and lossy bitstate hashing.
//!
//! The explored set is the memory ceiling of an exhaustive run: every other
//! structure (frontier, traces) is proportional to the *frontier*, but the
//! fingerprint set grows with every unique state ever seen. This module
//! puts that set behind the [`ExploredStore`] trait with three engines,
//! selected by [`ExploredMode`]:
//!
//! * **`mem`** — [`MemStore`]: 64 independently locked open-addressed
//!   tables packing `fingerprint + sleep-digest ref` into 12 bytes per
//!   slot (vs ~48+ for the `HashMap<u64, Box<[u64]>>` it replaces).
//!   Exact, unbounded.
//! * **`tiered`** — [`TieredStore`]: the same packed tables as a hot
//!   *delta* tier, plus cold shards spilled to sorted on-disk segments
//!   once the in-memory footprint passes `--mem-limit`. Every segment
//!   carries a bloom filter consulted before any disk probe, so absent
//!   fingerprints (the common case: most visits are *new* states) almost
//!   never touch disk. Exact: verdicts are identical to `mem`, which
//!   `tests/explored_store.rs` pins.
//! * **`bitstate`** — [`BitstateStore`]: SPIN-style bitstate hashing. Two
//!   hash positions in a fixed bit array; constant memory, **lossy**: a
//!   hash collision makes the search treat an unvisited state as known,
//!   so states may be *missed* — but a violation that is reported was
//!   still actually executed, so violations are never invented. Reports
//!   from this mode carry `lossy: true`.
//!
//! All three speak the sleep-set-aware visit protocol ([`Visit`]) that
//! keeps partial-order reduction sound under state matching; see
//! [`FingerprintMap`] for the invariant.
//!
//! # Shard-bit budget
//!
//! Two layers shard by fingerprint bits and they must never collide:
//! the *distributed* coordinator routes states to worker processes by the
//! top byte — bits 56..=63, via [`shard_of`](crate::shard::shard_of) —
//! while the in-process stores here pick their lock shard from bits
//! 48..=55 ([`store_shard`]). A dist worker therefore sees fingerprints
//! with a fixed top byte, but they still spread uniformly over the store's
//! 64 lock shards.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::File;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, Write as _};
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// The visit protocol (moved here from checker.rs)
// ---------------------------------------------------------------------------

/// Identity hasher for values that are already 64-bit fingerprints (FNV-1a
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
/// the reference implementation of the protocol; every exact
/// [`ExploredStore`] must agree with it verdict-for-verdict (the random
/// walk still uses it directly — its explored set is per-walk and tiny).
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

// ---------------------------------------------------------------------------
// Configuration and the store trait
// ---------------------------------------------------------------------------

/// Which engine backs the explored set. Selected on the CLI with
/// `nice run --explored mem|tiered|bitstate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExploredMode {
    /// Exact, in-memory packed tables (the default).
    #[default]
    Mem,
    /// Exact, with cold shards spilled to disk behind a bloom filter once
    /// the in-memory footprint exceeds the memory limit.
    Tiered,
    /// Lossy SPIN-style bitstate hashing in a fixed-size bit array: may
    /// *miss* states, never invents violations. Reports are flagged
    /// `lossy`.
    Bitstate,
}

impl ExploredMode {
    /// The stable (CLI and JSON schema) name of this mode.
    pub fn name(self) -> &'static str {
        match self {
            ExploredMode::Mem => "mem",
            ExploredMode::Tiered => "tiered",
            ExploredMode::Bitstate => "bitstate",
        }
    }

    /// Parses a stable name back; `None` for anything unknown.
    pub fn parse(name: &str) -> Option<ExploredMode> {
        match name {
            "mem" => Some(ExploredMode::Mem),
            "tiered" => Some(ExploredMode::Tiered),
            "bitstate" => Some(ExploredMode::Bitstate),
            _ => None,
        }
    }
}

/// How the explored set is stored, and under what memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploredConfig {
    /// The storage engine.
    pub mode: ExploredMode,
    /// Approximate in-memory budget, in bytes; `0` means the mode's
    /// default. `tiered` starts spilling cold shards past this; `bitstate`
    /// sizes its bit array from it; `mem` ignores it (exact and unbounded).
    pub mem_limit: u64,
}

/// In-memory budget `tiered` defaults to when `--mem-limit` is not given.
const DEFAULT_TIERED_LIMIT: u64 = 512 << 20; // 512 MiB
/// Bit-array size `bitstate` defaults to when `--mem-limit` is not given.
const DEFAULT_BITSTATE_BYTES: u64 = 64 << 20; // 64 MiB = 2^29 states

/// Counters every store exposes; threaded into
/// [`SearchStats`](crate::checker::SearchStats) and the report JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploredStats {
    /// Bytes currently held in memory by the store.
    pub bytes: u64,
    /// High-water mark of [`ExploredStats::bytes`] over the run.
    pub peak_bytes: u64,
    /// Cold-shard spill events (tables written to disk segments).
    pub spilled_shards: u64,
    /// Disk probes avoided because a segment's bloom filter proved the
    /// fingerprint absent.
    pub filter_hits: u64,
    /// Binary searches actually performed against on-disk segments.
    pub disk_probes: u64,
}

/// The explored set behind a trait: thread-safe visit-and-record of
/// `(fingerprint, sleep set)` pairs. One store instance is shared by every
/// worker thread of a run, so implementations synchronise internally.
pub trait ExploredStore: Send + Sync {
    /// Records a visit of `fingerprint` under sorted `sleep_digests` and
    /// says whether the state needs (re-)exploring.
    fn visit(&self, fingerprint: u64, sleep_digests: &[u64]) -> Visit;

    /// Bytes currently held in memory (cheap; polled for progress events).
    fn bytes(&self) -> u64;

    /// Snapshot of the store's counters.
    fn stats(&self) -> ExploredStats;

    /// True if this store may *miss* states (bitstate hashing). Lossy
    /// stores never cause spurious violations — any violation reported was
    /// actually executed — but a PASS only means "no violation found in
    /// the states that were covered".
    fn lossy(&self) -> bool {
        false
    }
}

/// Builds the store a [`CheckerConfig`](crate::scenario::CheckerConfig)
/// asks for.
pub(crate) fn build_store(config: &ExploredConfig) -> Box<dyn ExploredStore> {
    match config.mode {
        ExploredMode::Mem => Box::new(MemStore::new()),
        ExploredMode::Tiered => {
            let limit = if config.mem_limit == 0 {
                DEFAULT_TIERED_LIMIT
            } else {
                config.mem_limit
            };
            Box::new(TieredStore::new(limit))
        }
        ExploredMode::Bitstate => {
            let bytes = if config.mem_limit == 0 {
                DEFAULT_BITSTATE_BYTES
            } else {
                config.mem_limit
            };
            Box::new(BitstateStore::new(bytes))
        }
    }
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
/// Slot marker: occupied with an empty sleep set (the overwhelmingly common
/// case — every state without POR, and most states with it).
const SLOT_NO_SLEEP: u32 = u32::MAX - 1;

/// Smallest table capacity after the first insert; always a power of two.
const MIN_TABLE_CAPACITY: usize = 16;

/// An open-addressed (linear probing) fingerprint table packing each entry
/// into 12 bytes of slot — `fps[i]: u64` plus `refs[i]: u32` — instead of
/// a `HashMap` entry's ~48. `refs[i]` is [`SLOT_EMPTY`], [`SLOT_NO_SLEEP`],
/// or an index into the side table of non-empty sleep-digest lists (rare:
/// only POR states whose sleep set was non-empty at first visit). Probing
/// uses the fingerprint's low bits directly — fingerprints are already
/// uniformly distributed. No deletions, so no tombstones.
pub(crate) struct PackedTable {
    fps: Vec<u64>,
    refs: Vec<u32>,
    digests: Vec<Box<[u64]>>,
    len: usize,
    /// Sum of the lengths of all lists in `digests` (for byte accounting).
    digest_words: u64,
}

impl PackedTable {
    pub(crate) fn new() -> PackedTable {
        PackedTable {
            fps: Vec::new(),
            refs: Vec::new(),
            digests: Vec::new(),
            len: 0,
            digest_words: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Approximate heap footprint in bytes: 12 per slot plus the digest
    /// side table.
    pub(crate) fn bytes(&self) -> u64 {
        (self.fps.len() * 12 + self.digests.capacity() * 16) as u64 + self.digest_words * 8
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

    /// Stores a digest list, returning the slot ref encoding it.
    fn store_list(&mut self, digests: &[u64]) -> u32 {
        if digests.is_empty() {
            return SLOT_NO_SLEEP;
        }
        self.digests.push(digests.into());
        self.digest_words += digests.len() as u64;
        (self.digests.len() - 1) as u32
    }

    fn slot_digests(&self, slot: usize) -> &[u64] {
        match self.refs[slot] {
            SLOT_NO_SLEEP => &[],
            r => &self.digests[r as usize],
        }
    }

    /// Inserts `fp` with `digests`, replacing any existing entry.
    pub(crate) fn insert(&mut self, fp: u64, digests: &[u64]) {
        self.ensure_slot();
        let i = self.probe(fp);
        if self.refs[i] == SLOT_EMPTY {
            self.len += 1;
            self.fps[i] = fp;
            self.refs[i] = self.store_list(digests);
        } else {
            self.replace_list(i, digests);
        }
    }

    /// Replaces the digest list of an occupied slot.
    fn replace_list(&mut self, slot: usize, digests: &[u64]) {
        match self.refs[slot] {
            SLOT_NO_SLEEP => self.refs[slot] = self.store_list(digests),
            r => {
                let list = &mut self.digests[r as usize];
                self.digest_words -= list.len() as u64;
                self.digest_words += digests.len() as u64;
                *list = digests.into();
            }
        }
    }

    /// The full visit protocol against this table alone: exactly
    /// [`visit_explored`]'s semantics.
    pub(crate) fn visit(&mut self, fp: u64, sleep_digests: &[u64]) -> Visit {
        match self.visit_existing(fp, sleep_digests) {
            Some(verdict) => verdict,
            None => {
                self.ensure_slot();
                let i = self.probe(fp);
                self.len += 1;
                self.fps[i] = fp;
                self.refs[i] = self.store_list(sleep_digests);
                Visit::New
            }
        }
    }

    /// The visit protocol, but only if `fp` is already present — a miss
    /// records nothing and returns `None`, so a caller with colder tiers
    /// (the tiered store) can consult them before concluding `New`.
    pub(crate) fn visit_existing(&mut self, fp: u64, sleep_digests: &[u64]) -> Option<Visit> {
        if self.len == 0 {
            return None;
        }
        let i = self.probe(fp);
        if self.refs[i] == SLOT_EMPTY {
            return None;
        }
        let stored = self.slot_digests(i);
        if sorted_subset(stored, sleep_digests) {
            return Some(Visit::Known);
        }
        let narrowed = sorted_intersection(stored, sleep_digests);
        self.replace_list(i, &narrowed);
        Some(Visit::Widen(narrowed))
    }

    /// Every `(fingerprint, sleep digests)` entry, in table order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, &[u64])> {
        self.refs
            .iter()
            .enumerate()
            .filter(|(_, &r)| r != SLOT_EMPTY)
            .map(|(i, _)| (self.fps[i], self.slot_digests(i)))
    }
}

// ---------------------------------------------------------------------------
// mem: exact in-memory store
// ---------------------------------------------------------------------------

/// Byte-accounting shared by the in-memory stores.
#[derive(Default)]
struct MemGauge {
    bytes: AtomicU64,
    peak: AtomicU64,
}

impl MemGauge {
    /// Applies the byte delta of one table mutation and tracks the peak.
    fn adjust(&self, before: u64, after: u64) {
        if after >= before {
            let now = self.bytes.fetch_add(after - before, Ordering::Relaxed) + (after - before);
            self.peak.fetch_max(now, Ordering::Relaxed);
        } else {
            self.bytes.fetch_sub(before - after, Ordering::Relaxed);
        }
    }
}

/// The exact in-memory store: [`STORE_SHARDS`] independently locked
/// [`PackedTable`]s.
struct MemStore {
    shards: Vec<Mutex<PackedTable>>,
    gauge: MemGauge,
}

impl MemStore {
    fn new() -> MemStore {
        MemStore {
            shards: (0..STORE_SHARDS)
                .map(|_| Mutex::new(PackedTable::new()))
                .collect(),
            gauge: MemGauge::default(),
        }
    }
}

impl ExploredStore for MemStore {
    fn visit(&self, fingerprint: u64, sleep_digests: &[u64]) -> Visit {
        let mut table = lock(&self.shards[store_shard(fingerprint)]);
        let before = table.bytes();
        let verdict = table.visit(fingerprint, sleep_digests);
        let after = table.bytes();
        drop(table);
        self.gauge.adjust(before, after);
        verdict
    }

    fn bytes(&self) -> u64 {
        self.gauge.bytes.load(Ordering::Relaxed)
    }

    fn stats(&self) -> ExploredStats {
        ExploredStats {
            bytes: self.gauge.bytes.load(Ordering::Relaxed),
            peak_bytes: self.gauge.peak.load(Ordering::Relaxed),
            ..ExploredStats::default()
        }
    }
}

// ---------------------------------------------------------------------------
// tiered: spill cold shards to disk behind a bloom filter
// ---------------------------------------------------------------------------

/// A bloom filter over one segment's fingerprints: `k = 3` hash positions
/// in `~12` bits per key, for a ~1% false-positive rate. A *negative*
/// answer is definitive (no disk probe needed); a positive one falls
/// through to the segment's binary search, which may still miss.
struct Bloom {
    bits: Vec<u64>,
    mask: u64,
}

const BLOOM_HASHES: u64 = 3;
const BLOOM_BITS_PER_KEY: usize = 12;

impl Bloom {
    fn for_fingerprints<'a>(fps: impl Iterator<Item = &'a u64>, count: usize) -> Bloom {
        let bits = (count * BLOOM_BITS_PER_KEY).next_power_of_two().max(64);
        let mut bloom = Bloom {
            bits: vec![0; bits / 64],
            mask: bits as u64 - 1,
        };
        for &fp in fps {
            for k in 0..BLOOM_HASHES {
                let bit = splitmix64(fp ^ (k << 56).wrapping_add(k)) & bloom.mask;
                bloom.bits[(bit / 64) as usize] |= 1 << (bit % 64);
            }
        }
        bloom
    }

    /// False means definitely absent; true means "probe the segment".
    fn maybe(&self, fp: u64) -> bool {
        (0..BLOOM_HASHES).all(|k| {
            let bit = splitmix64(fp ^ (k << 56).wrapping_add(k)) & self.mask;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    fn bytes(&self) -> u64 {
        (self.bits.len() * 8) as u64
    }
}

/// SplitMix64: the finalizer used for bloom and bitstate hash positions.
/// Fingerprints are already uniform, but the *same* fingerprint must map to
/// independent positions per hash index, hence a real mixer over `fp ^ k`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One spilled shard generation: a sorted, immutable on-disk run of
/// `(fingerprint, sleep digests)` records plus its bloom filter. The file
/// is unlinked at creation (anonymous scratch space — the OS reclaims it
/// even on a crash); layout is `records × 16 bytes` (`fp: u64le`,
/// `digest_off: u32le` in words, `digest_count: u32le`) followed by the
/// digest heap (`u64le` words).
struct Segment {
    file: File,
    records: u64,
    bloom: Bloom,
}

/// Creates an anonymous scratch file in the OS temp directory.
fn scratch_file() -> io::Result<File> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "nice-explored-{}-{}.seg",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let file = File::options()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)?;
    // Unlink immediately: the handle keeps the data alive, the name never
    // outlives this process even if it aborts.
    let _ = std::fs::remove_file(&path);
    Ok(file)
}

impl Segment {
    /// Writes `entries` (sorted by fingerprint, unique) as a new segment.
    fn write(entries: &[(u64, &[u64])]) -> io::Result<Segment> {
        let mut file = scratch_file()?;
        let mut records = Vec::with_capacity(entries.len() * 16);
        let mut heap = Vec::new();
        let mut off: u32 = 0;
        for &(fp, digests) in entries {
            records.extend_from_slice(&fp.to_le_bytes());
            records.extend_from_slice(&off.to_le_bytes());
            records.extend_from_slice(&(digests.len() as u32).to_le_bytes());
            for &d in digests {
                heap.extend_from_slice(&d.to_le_bytes());
            }
            off += digests.len() as u32;
        }
        file.write_all(&records)?;
        file.write_all(&heap)?;
        Ok(Segment {
            file,
            records: entries.len() as u64,
            bloom: Bloom::for_fingerprints(entries.iter().map(|(fp, _)| fp), entries.len()),
        })
    }

    /// Binary-searches the segment for `fp`; `Ok(None)` if absent. An I/O
    /// error is reported so the caller can decide (the store treats it as
    /// absent: re-exploring a state is always sound, merely redundant).
    fn find(&self, fp: u64) -> io::Result<Option<Vec<u64>>> {
        let (mut lo, mut hi) = (0u64, self.records);
        let mut rec = [0u8; 16];
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.file.read_exact_at(&mut rec, mid * 16)?;
            let stored = u64::from_le_bytes(rec[0..8].try_into().unwrap());
            match stored.cmp(&fp) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let off = u64::from(u32::from_le_bytes(rec[8..12].try_into().unwrap()));
                    let count = u32::from_le_bytes(rec[12..16].try_into().unwrap()) as usize;
                    if count == 0 {
                        return Ok(Some(Vec::new()));
                    }
                    let mut words = vec![0u8; count * 8];
                    self.file
                        .read_exact_at(&mut words, self.records * 16 + off * 8)?;
                    return Ok(Some(
                        words
                            .chunks_exact(8)
                            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                            .collect(),
                    ));
                }
            }
        }
        Ok(None)
    }
}

/// One lock shard of the tiered store: the hot delta table plus the
/// spilled generations, oldest first.
struct TierShard {
    table: PackedTable,
    segments: Vec<Segment>,
}

/// Don't spill a shard below this many entries: with a pathologically
/// small `--mem-limit` the limit check is permanently "over", and
/// per-insert spills would produce one segment per state.
const SPILL_MIN_ENTRIES: usize = 8;

/// The exact spill-to-disk store. Visits consult the hot delta table
/// first (newest narrowing wins), then segment blooms newest-first; a
/// fingerprint found only on disk that needs widening is re-inserted into
/// the delta, shadowing the stale segment record. When the total
/// in-memory footprint passes `mem_limit`, the shard holding the current
/// visit is spilled — a deliberately local policy: it needs no cross-shard
/// lock order, and under a uniform fingerprint distribution every shard
/// is visited (and thus spilled) at the same rate.
struct TieredStore {
    shards: Vec<Mutex<TierShard>>,
    mem_limit: u64,
    gauge: MemGauge,
    spilled: AtomicU64,
    filter_hits: AtomicU64,
    disk_probes: AtomicU64,
}

impl TieredStore {
    fn new(mem_limit: u64) -> TieredStore {
        TieredStore {
            shards: (0..STORE_SHARDS)
                .map(|_| {
                    Mutex::new(TierShard {
                        table: PackedTable::new(),
                        segments: Vec::new(),
                    })
                })
                .collect(),
            mem_limit,
            gauge: MemGauge::default(),
            spilled: AtomicU64::new(0),
            filter_hits: AtomicU64::new(0),
            disk_probes: AtomicU64::new(0),
        }
    }

    /// Looks `fp` up in the spilled segments, newest generation first
    /// (later generations hold narrower sleep sets for re-spilled
    /// fingerprints). I/O errors degrade to "absent": re-exploration is
    /// sound, and the record re-enters the (healthy) delta table.
    fn find_on_disk(&self, shard: &TierShard, fp: u64) -> Option<Vec<u64>> {
        for segment in shard.segments.iter().rev() {
            if !segment.bloom.maybe(fp) {
                self.filter_hits.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.disk_probes.fetch_add(1, Ordering::Relaxed);
            if let Ok(Some(stored)) = segment.find(fp) {
                return Some(stored);
            }
        }
        None
    }

    /// Spills `shard`'s delta table to a new segment. On I/O failure the
    /// table simply stays in memory (the limit becomes advisory).
    fn spill(&self, shard: &mut TierShard) {
        let segment = {
            let mut entries: Vec<(u64, &[u64])> = shard.table.entries().collect();
            entries.sort_unstable_by_key(|&(fp, _)| fp);
            Segment::write(&entries)
        };
        let Ok(segment) = segment else { return };
        let freed = shard.table.bytes();
        let bloom_bytes = segment.bloom.bytes();
        shard.segments.push(segment);
        shard.table = PackedTable::new();
        // The bloom filter stays resident; net in-memory change:
        self.gauge.adjust(freed, bloom_bytes);
        self.spilled.fetch_add(1, Ordering::Relaxed);
    }
}

impl ExploredStore for TieredStore {
    fn visit(&self, fingerprint: u64, sleep_digests: &[u64]) -> Visit {
        let mut shard = lock(&self.shards[store_shard(fingerprint)]);
        let before = shard.table.bytes();
        let verdict = match shard.table.visit_existing(fingerprint, sleep_digests) {
            Some(verdict) => verdict,
            None => match self.find_on_disk(&shard, fingerprint) {
                None => {
                    shard.table.insert(fingerprint, sleep_digests);
                    Visit::New
                }
                Some(stored) => {
                    if sorted_subset(&stored, sleep_digests) {
                        Visit::Known
                    } else {
                        let narrowed = sorted_intersection(&stored, sleep_digests);
                        // Shadow the stale disk record with the narrowed set.
                        shard.table.insert(fingerprint, &narrowed);
                        Visit::Widen(narrowed)
                    }
                }
            },
        };
        let after = shard.table.bytes();
        self.gauge.adjust(before, after);
        if self.gauge.bytes.load(Ordering::Relaxed) > self.mem_limit
            && shard.table.len() >= SPILL_MIN_ENTRIES
        {
            self.spill(&mut shard);
        }
        verdict
    }

    fn bytes(&self) -> u64 {
        self.gauge.bytes.load(Ordering::Relaxed)
    }

    fn stats(&self) -> ExploredStats {
        ExploredStats {
            bytes: self.gauge.bytes.load(Ordering::Relaxed),
            peak_bytes: self.gauge.peak.load(Ordering::Relaxed),
            spilled_shards: self.spilled.load(Ordering::Relaxed),
            filter_hits: self.filter_hits.load(Ordering::Relaxed),
            disk_probes: self.disk_probes.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// bitstate: lossy hash compaction
// ---------------------------------------------------------------------------

/// SPIN-style bitstate hashing: a fixed bit array, two independent hash
/// positions per fingerprint, a state is "known" iff both bits are set.
/// Memory is bounded regardless of state count: the array is cut into
/// page-sized blocks allocated when a bit of theirs is first set, so a
/// search pays for the pages it touches (up to two per new state, the
/// positions being uniform) and not for zeroing 64 MiB up front. Lossy in
/// exactly one direction: a double collision marks an unvisited state as
/// known, so states (and violations inside the skipped subtree) may be
/// **missed** — but every state the search *does* execute is real, so a
/// reported violation is always genuine. Sleep digests are ignored (a hit is always
/// `Known`): under POR that may prune more than sleep-set soundness
/// permits, which is just another way this mode can miss states.
struct BitstateStore {
    blocks: Vec<OnceLock<Box<[AtomicU64]>>>,
    /// Words per block: [`BLOCK_WORDS`], or the whole array when it is
    /// smaller than one block.
    block_words: u64,
    mask: u64,
}

/// Words of the bit array allocated at a time: one 4 KiB page. Smaller
/// blocks make a short search cheaper still, but at 512 bytes a 300k-state
/// search ran a fifth slower (twelve alternating runs; ROADMAP has them).
const BLOCK_WORDS: u64 = 512;

impl BitstateStore {
    fn new(budget_bytes: u64) -> BitstateStore {
        // Largest power-of-two bit count that fits the byte budget (at
        // least one word).
        let bits = (budget_bytes.max(8) * 8 + 1).next_power_of_two() / 2;
        let block_words = BLOCK_WORDS.min(bits / 64);
        BitstateStore {
            blocks: (0..bits / 64 / block_words)
                .map(|_| OnceLock::new())
                .collect(),
            block_words,
            mask: bits - 1,
        }
    }

    /// The two bit positions for a fingerprint.
    fn positions(&self, fp: u64) -> [u64; 2] {
        [splitmix64(fp) & self.mask, splitmix64(!fp) & self.mask]
    }
}

impl ExploredStore for BitstateStore {
    fn visit(&self, fingerprint: u64, _sleep_digests: &[u64]) -> Visit {
        let mut any_clear = false;
        for bit in self.positions(fingerprint) {
            let word = bit / 64;
            let block = self.blocks[(word / self.block_words) as usize]
                .get_or_init(|| (0..self.block_words).map(|_| AtomicU64::new(0)).collect());
            let word = &block[(word % self.block_words) as usize];
            let mask = 1u64 << (bit % 64);
            if word.fetch_or(mask, Ordering::Relaxed) & mask == 0 {
                any_clear = true;
            }
        }
        if any_clear {
            Visit::New
        } else {
            Visit::Known
        }
    }

    /// The array's full size: what the store may grow to, whichever blocks
    /// exist so far.
    fn bytes(&self) -> u64 {
        self.blocks.len() as u64 * self.block_words * 8
    }

    fn stats(&self) -> ExploredStats {
        let bytes = self.bytes();
        ExploredStats {
            bytes,
            peak_bytes: bytes,
            ..ExploredStats::default()
        }
    }

    fn lossy(&self) -> bool {
        true
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
    fn agrees_with_reference(store: &dyn ExploredStore, visits: usize, seed: u64) {
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
        agrees_with_reference(&MemStore::new(), 5_000, 1);
    }

    #[test]
    fn tiered_store_agrees_with_reference_even_while_spilling_constantly() {
        // A 1-byte limit keeps the store permanently over budget, so every
        // shard spills as soon as it holds SPILL_MIN_ENTRIES — the verdicts
        // must not change.
        let store = TieredStore::new(1);
        agrees_with_reference(&store, 5_000, 2);
        let stats = store.stats();
        assert!(stats.spilled_shards > 0, "tiny limit must force spills");
        assert!(stats.disk_probes > 0, "revisits must have probed disk");
        assert!(stats.peak_bytes > 0);
    }

    #[test]
    fn tiered_store_with_room_never_touches_disk() {
        let store = TieredStore::new(u64::MAX);
        agrees_with_reference(&store, 2_000, 3);
        let stats = store.stats();
        assert_eq!(stats.spilled_shards, 0);
        assert_eq!(stats.disk_probes, 0);
        assert_eq!(stats.filter_hits, 0);
    }

    #[test]
    fn segment_round_trips_every_entry_and_misses_absent_keys() {
        let digests: Vec<Vec<u64>> = (0..100u64).map(|i| (0..i % 4).collect()).collect();
        let entries: Vec<(u64, &[u64])> = digests
            .iter()
            .enumerate()
            .map(|(i, d)| (i as u64 * 3, d.as_slice()))
            .collect();
        let segment = Segment::write(&entries).expect("write segment");
        for &(fp, digests) in &entries {
            assert_eq!(
                segment.find(fp).expect("probe"),
                Some(digests.to_vec()),
                "fp {fp}"
            );
        }
        for absent in [1u64, 2, 299, 301, u64::MAX] {
            assert_eq!(segment.find(absent).expect("probe"), None, "fp {absent}");
        }
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let fps: Vec<u64> = (0..1000u64).map(splitmix64).collect();
        let bloom = Bloom::for_fingerprints(fps.iter(), fps.len());
        for &fp in &fps {
            assert!(bloom.maybe(fp));
        }
    }

    #[test]
    fn filter_false_positives_fall_through_to_the_disk_probe() {
        // Fill a tiered store past its limit so fingerprints live on disk,
        // then visit a large batch of *absent* fingerprints: the bloom
        // filters reject most (filter_hits), a few collide (false
        // positives) and must fall through to a disk probe that correctly
        // concludes New.
        let store = TieredStore::new(1);
        for i in 0..2_000u64 {
            assert_eq!(store.visit(splitmix64(i), &[]), Visit::New);
        }
        assert!(store.stats().spilled_shards > 0);
        let probes_before = store.stats().disk_probes;
        for i in 0..50_000u64 {
            let fp = splitmix64(i + 1_000_000);
            assert_eq!(store.visit(fp, &[]), Visit::New, "absent fp {fp:#x}");
        }
        let stats = store.stats();
        assert!(
            stats.filter_hits > 0,
            "blooms should have rejected most absent fingerprints"
        );
        assert!(
            stats.disk_probes > probes_before,
            "with ~1% FP rate over 50k probes, some must have fallen through"
        );
    }

    #[test]
    fn bitstate_dedups_without_sleep_sets_and_is_flagged_lossy() {
        let store = BitstateStore::new(1 << 16);
        assert!(store.lossy());
        assert_eq!(store.visit(42, &[]), Visit::New);
        assert_eq!(store.visit(42, &[]), Visit::Known);
        assert_eq!(store.visit(42, &[1, 2]), Visit::Known); // sleep ignored
        let bytes = store.bytes();
        for i in 0..10_000u64 {
            store.visit(splitmix64(i), &[]);
        }
        assert_eq!(store.bytes(), bytes, "bitstate memory is constant");
    }

    #[test]
    fn bitstate_respects_its_byte_budget() {
        for budget in [0u64, 1, 100, 1 << 16, (1 << 16) + 1] {
            let store = BitstateStore::new(budget.max(8));
            assert!(store.bytes() <= budget.max(8).max(8));
            assert!(store.bytes().is_power_of_two() || store.bytes() == 8);
        }
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

    #[test]
    fn build_store_honours_mode_and_lossy_flag() {
        for (mode, lossy) in [
            (ExploredMode::Mem, false),
            (ExploredMode::Tiered, false),
            (ExploredMode::Bitstate, true),
        ] {
            let store = build_store(&ExploredConfig { mode, mem_limit: 0 });
            assert_eq!(store.lossy(), lossy, "{}", mode.name());
            assert_eq!(store.visit(99, &[]), Visit::New);
            assert_eq!(store.visit(99, &[]), Visit::Known);
        }
    }

    #[test]
    fn explored_mode_names_round_trip() {
        for mode in [
            ExploredMode::Mem,
            ExploredMode::Tiered,
            ExploredMode::Bitstate,
        ] {
            assert_eq!(ExploredMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(ExploredMode::parse("zram"), None);
    }
}
