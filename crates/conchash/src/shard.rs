//! The sharded epoch-stamped tables: the crate's one table family.
//!
//! A table is split into `shards` independent sub-tables selected by the
//! **high** bits of the key's hash (the sub-tables index their slots with
//! the *low* bits, so the two decisions never correlate). A sweep can then
//! partition its operations by destination shard — [`parutil`'s
//! `ShardScatter`] does this in the swap kernel — and hand each shard to
//! one worker: every cache line of a shard is touched by a single thread
//! for the whole phase. One shard is the flat table.
//!
//! **Epoch stamping.** The swap kernel re-registers the current edge set
//! every sweep; a table whose clear filled every slot would pay 2–4m stores
//! before any useful work. Instead every slot carries a *tag* recording the
//! epoch that wrote it; a slot is live only when its tag matches the
//! table's current epoch, so bumping the epoch empties the table in O(1).
//! Bhuiyan et al. (arXiv:1708.07290) use the same idea to keep their
//! edge-membership structure cheap across billions of swap steps.
//!
//! **Layouts.** Each facade dispatches over the physical layout selected
//! per run by [`resolve_key_width`](crate::resolve_key_width): the wide
//! per-shard tables below (separate tag/key(/value) words, any `u64` key),
//! or the packed single-word tables of `packed.rs` when the vertex count
//! fits. All layouts share the sizing rule and derive slot indices from the
//! hash of the *unpacked* `u64` key, so probe sequences — and therefore
//! [`TableFullError`] behavior — are identical across widths; only bytes
//! per slot differ. The enum dispatch is one predictable branch per
//! operation, constant for a whole run.
//!
//! Each sub-table lives in its own 128-byte-aligned allocation slot, so two
//! shards' hot metadata (epoch, occupancy counters) never share a cache
//! line even on processors that prefetch line pairs.
//!
//! Determinism: shard selection is a pure function of the key, and the
//! claim reduction is a commutative minimum — so table contents after a
//! round of operations are independent of the shard count, the thread
//! count, the key width, and all interleavings. A shard reporting
//! [`TableFullError`] is likewise a pure function of the key set (each
//! probe chain visits every slot of its shard), which keeps the
//! grow-and-retry recovery path byte-identical.
//!
//! Concurrency contract: `try_test_and_set` / `try_claim_min` / `contains`
//! / `get` may race freely with each other; `clear_shared` must not race
//! with any other operation (a racing clear could drop concurrent
//! insertions).
//!
//! [`parutil`'s `ShardScatter`]: https://docs.rs/parutil

use crate::packed::{PackedEpochMap, PackedEpochSet};
use crate::{hash64, probe_sampled, table_size_for, ResolvedWidth, TableFullError, EMPTY};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default shard count for the swap workspace tables: enough to keep a
/// 16-thread pool's workers on distinct shards with low collision
/// probability while keeping per-shard slack memory negligible.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// One sub-table in its own cache-line-pair-aligned slot.
#[repr(align(128))]
struct Padded<T>(T);

/// Map a hash to its shard (`fastrange`): consumes the hash's high bits —
/// the sub-tables mask with the low bits, so shard choice and in-shard
/// slot are uncorrelated.
#[inline]
fn shard_of_hash(h: u64, shards: usize) -> usize {
    (((h as u128) * (shards as u128)) >> 64) as usize
}

/// Map a key to its shard. Pure function of `(key, shards)`; any
/// `shards >= 1` is valid.
#[inline]
pub fn shard_of_key(key: u64, shards: usize) -> usize {
    shard_of_hash(hash64(key), shards)
}

/// Per-shard capacity for a whole-table capacity: an even split plus 25%
/// slack for hash-placement imbalance. Shard fill is not an error (the swap
/// workspace grows and retries deterministically); the slack just makes it
/// rare.
#[inline]
fn shard_capacity(capacity: usize, shards: usize) -> usize {
    (capacity.div_ceil(shards) * 5).div_ceil(4)
}

/// Dispatch a body over whichever layout a facade holds. Every layout
/// exposes the same method surface, so one body serves all arms.
macro_rules! dispatch {
    ($enum:ident, $inner:expr, $sh:ident => $body:expr) => {
        match $inner {
            $enum::Wide($sh) => $body,
            $enum::P64($sh) => $body,
            $enum::P32($sh) => $body,
        }
    };
}

/// How many probe slots ahead the claim-run loop prefetches: enough to
/// cover one memory latency at the loop's issue rate without washing the
/// prefetches out of L1 before use.
const CLAIM_RUN_LOOKAHEAD: usize = 8;

/// Wide per-shard layout: separate `AtomicU64` tag and key arrays (any
/// `u64` key but [`EMPTY`]), plus the minimum-claim value array when `MAP`
/// is set.
///
/// Tag encoding: `2 * epoch` = published slot of that epoch, `2 * epoch + 1`
/// = slot mid-insertion (claimed, key not yet visible). An inserter claims a
/// stale slot by CAS-ing its tag to the locked value, writes the key (and
/// value), then publishes with a release store; probers that observe the
/// locked tag spin until publication (a handful of instructions). All tags
/// from earlier epochs — published or locked — compare below the current
/// epoch's values and are claimable, so no slot is ever leaked across
/// generations.
struct WideEpochTable<const MAP: bool> {
    keys: Box<[AtomicU64]>,
    tags: Box<[AtomicU64]>,
    /// Claimed values, one per slot for the map, empty for the set.
    values: Box<[AtomicU64]>,
    /// Current generation; tags are compared against `2 * epoch`.
    epoch: AtomicU64,
    mask: usize,
    occupied: AtomicUsize,
    /// When attached, a deterministic 1-in-64 sample of successful
    /// insertions (selected by key hash) records its probe length — number
    /// of slots examined; recording is a relaxed atomic add and never
    /// changes table behavior.
    probe_hist: Option<Arc<obs::Histogram>>,
}

type WideEpochSet = WideEpochTable<false>;
type WideEpochMap = WideEpochTable<true>;

impl<const MAP: bool> WideEpochTable<MAP> {
    fn new(capacity: usize) -> Self {
        let size = table_size_for(capacity);
        let values = if MAP { size } else { 0 };
        Self {
            keys: (0..size).map(|_| AtomicU64::new(EMPTY)).collect(),
            // Tags start at 0 (= published in epoch 0); the table starts in
            // epoch 1, so every slot is initially stale, i.e. empty.
            tags: (0..size).map(|_| AtomicU64::new(0)).collect(),
            values: (0..values).map(|_| AtomicU64::new(u64::MAX)).collect(),
            epoch: AtomicU64::new(1),
            mask: size - 1,
            occupied: AtomicUsize::new(0),
            probe_hist: None,
        }
    }

    fn set_probe_histogram(&mut self, hist: Option<Arc<obs::Histogram>>) {
        self.probe_hist = hist;
    }

    fn table_size(&self) -> usize {
        self.keys.len()
    }

    fn len(&self) -> usize {
        self.occupied.load(Ordering::Relaxed)
    }

    /// Hint the cache to load the home slot (tag + key, + value) of the key
    /// hashing to `h`.
    #[inline(always)]
    fn prefetch_slot_h(&self, h: u64) {
        let idx = (h as usize) & self.mask;
        parutil::mem::prefetch_read(&self.tags[idx]);
        parutil::mem::prefetch_read(&self.keys[idx]);
        if MAP {
            parutil::mem::prefetch_read(&self.values[idx]);
        }
    }

    /// Find `key` (whose hash is `h`) in the current epoch, inserting it if
    /// absent: `Ok((slot, true))` if it was already present. A fresh slot
    /// is handed to `publish` while still locked, before the key becomes
    /// visible.
    #[inline(always)]
    fn find_or_insert_h(
        &self,
        key: u64,
        h: u64,
        publish: impl FnOnce(usize),
    ) -> Result<(usize, bool), TableFullError> {
        assert_ne!(key, EMPTY, "the sentinel key cannot be stored");
        let live = self.epoch.load(Ordering::Relaxed) * 2;
        let mut idx = (h as usize) & self.mask;
        for it in 1..=self.keys.len() {
            loop {
                let tag = self.tags[idx].load(Ordering::Acquire);
                if tag == live {
                    // Published this epoch: the key is valid.
                    if self.keys[idx].load(Ordering::Relaxed) == key {
                        return Ok((idx, true));
                    }
                    break; // occupied by another key — probe on
                }
                if tag == live + 1 {
                    // Another thread is inserting into this slot right now;
                    // its key may be ours, so wait for publication.
                    std::hint::spin_loop();
                    continue;
                }
                // Stale (any tag from an earlier epoch): claim it.
                match self.tags[idx].compare_exchange_weak(
                    tag,
                    live + 1,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.keys[idx].store(key, Ordering::Relaxed);
                        publish(idx);
                        self.tags[idx].store(live, Ordering::Release);
                        self.occupied.fetch_add(1, Ordering::Relaxed);
                        if let Some(hist) = &self.probe_hist {
                            if probe_sampled(h) {
                                hist.record(it as u64);
                            }
                        }
                        return Ok((idx, false));
                    }
                    Err(_) => continue, // lost the claim race — re-examine
                }
            }
            idx = (idx + 1) & self.mask;
        }
        Err(TableFullError {
            table: if MAP { "WideEpochMap" } else { "WideEpochSet" },
            occupancy: self.len(),
            capacity: self.table_size(),
        })
    }

    /// The slot holding `key` (whose hash is `h`) this epoch, if any.
    #[inline(always)]
    fn find_h(&self, key: u64, h: u64) -> Option<usize> {
        let live = self.epoch.load(Ordering::Relaxed) * 2;
        let mut idx = (h as usize) & self.mask;
        for _ in 0..self.keys.len() {
            loop {
                let tag = self.tags[idx].load(Ordering::Acquire);
                if tag == live {
                    if self.keys[idx].load(Ordering::Relaxed) == key {
                        return Some(idx);
                    }
                    break;
                }
                if tag == live + 1 {
                    std::hint::spin_loop();
                    continue;
                }
                return None; // stale slot ends the probe chain
            }
            idx = (idx + 1) & self.mask;
        }
        None
    }

    /// Empty the table: an O(1) epoch bump.
    fn clear_shared(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
        self.occupied.store(0, Ordering::Relaxed);
    }
}

impl WideEpochSet {
    /// Insert `key` (whose hash is `h`); `Ok(true)` if it was already
    /// present this epoch.
    #[inline]
    fn try_test_and_set_h(&self, key: u64, h: u64) -> Result<bool, TableFullError> {
        self.find_or_insert_h(key, h, |_| {})
            .map(|(_, present)| present)
    }

    #[inline]
    fn contains_h(&self, key: u64, h: u64) -> bool {
        self.find_h(key, h).is_some()
    }
}

impl WideEpochMap {
    /// Insert `key` (whose hash is `h`) if absent this epoch and lower its
    /// value to `value` if smaller.
    #[inline]
    fn try_claim_min_h(&self, key: u64, h: u64, value: u64) -> Result<(), TableFullError> {
        let (idx, present) = self.find_or_insert_h(key, h, |idx| {
            self.values[idx].store(value, Ordering::Relaxed);
        })?;
        if present {
            self.values[idx].fetch_min(value, Ordering::Relaxed);
        }
        Ok(())
    }

    #[inline]
    fn get_h(&self, key: u64, h: u64) -> Option<u64> {
        self.find_h(key, h)
            .map(|idx| self.values[idx].load(Ordering::Relaxed))
    }
}

/// Define a sharded facade: the layout enum over its wide and packed
/// per-shard tables, the struct, and everything that does not depend on
/// what the table stores (construction, geometry, prefetch, clear). Set and
/// map differ only in their operations, implemented below.
macro_rules! sharded_facade {
    ($(#[$doc:meta])* $facade:ident, $shards:ident, $wide:ty, $packed:ident) => {
        enum $shards {
            Wide(Box<[Padded<$wide>]>),
            P64(Box<[Padded<$packed<u64>>]>),
            P32(Box<[Padded<$packed<u32>>]>),
        }

        $(#[$doc])*
        pub struct $facade {
            inner: $shards,
            width: ResolvedWidth,
        }

        impl $facade {
            /// Create a table of [`DEFAULT_SHARD_COUNT`] wide shards holding
            /// at least `capacity` keys in total (a load factor of at most
            /// 0.5 per shard).
            pub fn new(capacity: usize) -> Self {
                Self::with_shards_width(capacity, DEFAULT_SHARD_COUNT, ResolvedWidth::Wide)
            }

            /// Fully explicit constructor; `width` comes from
            /// [`resolve_key_width`](crate::resolve_key_width).
            pub fn with_shards_width(capacity: usize, shards: usize, width: ResolvedWidth) -> Self {
                let shards = shards.max(1);
                let per_shard = shard_capacity(capacity, shards);
                let inner = match width {
                    ResolvedWidth::Wide => $shards::Wide(
                        (0..shards)
                            .map(|_| Padded(<$wide>::new(per_shard)))
                            .collect(),
                    ),
                    ResolvedWidth::Packed64 { key_bits } => $shards::P64(
                        (0..shards)
                            .map(|_| Padded($packed::new(per_shard, key_bits)))
                            .collect(),
                    ),
                    ResolvedWidth::Packed32 { key_bits } => $shards::P32(
                        (0..shards)
                            .map(|_| Padded($packed::new(per_shard, key_bits)))
                            .collect(),
                    ),
                };
                Self { inner, width }
            }

            /// The physical layout this table was built with.
            #[inline]
            pub fn resolved_width(&self) -> ResolvedWidth {
                self.width
            }

            /// Number of shards.
            #[inline]
            pub fn shard_count(&self) -> usize {
                dispatch!($shards, &self.inner, sh => sh.len())
            }

            /// The shard that owns `key`.
            #[inline]
            pub fn shard_of(&self, key: u64) -> usize {
                shard_of_key(key, self.shard_count())
            }

            /// Total slots across all shards.
            pub fn table_size(&self) -> usize {
                dispatch!($shards, &self.inner, sh => sh.iter().map(|s| s.0.table_size()).sum())
            }

            /// Total distinct keys stored in the current epoch across all
            /// shards.
            pub fn len(&self) -> usize {
                dispatch!($shards, &self.inner, sh => sh.iter().map(|s| s.0.len()).sum())
            }

            /// `true` if no keys are stored in the current epoch.
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            /// Attach (or detach) a probe-length histogram; all shards
            /// record into the same histogram, so the (1-in-64 sampled)
            /// distribution covers the whole key space.
            pub fn set_probe_histogram(&mut self, hist: Option<Arc<obs::Histogram>>) {
                dispatch!($shards, &mut self.inner, sh => {
                    for s in sh.iter_mut() {
                        s.0.set_probe_histogram(hist.clone());
                    }
                })
            }

            /// Hint the cache to load the home slot of `key` ahead of an
            /// operation on it. Purely a performance hint.
            #[inline]
            pub fn prefetch(&self, key: u64) {
                let h = hash64(key);
                let s = shard_of_hash(h, self.shard_count());
                dispatch!($shards, &self.inner, sh => sh[s].0.prefetch_slot_h(h));
            }

            /// Reset every shard to empty: O(shards) epoch bumps. Must not
            /// race other operations.
            pub fn clear_shared(&self) {
                dispatch!($shards, &self.inner, sh => {
                    for s in sh.iter() {
                        s.0.clear_shared();
                    }
                })
            }

            /// Relabel a full shard's error with this facade's name; the
            /// shard's occupancy and capacity are the numbers the grow
            /// policy needs.
            fn full(e: TableFullError) -> TableFullError {
                TableFullError {
                    table: stringify!($facade),
                    ..e
                }
            }
        }

        impl std::fmt::Debug for $facade {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($facade))
                    .field("shards", &self.shard_count())
                    .field("width", &self.width)
                    .field("table_size", &self.table_size())
                    .field("len", &self.len())
                    .finish()
            }
        }
    };
}

sharded_facade!(
    /// Concurrent `TestAndSet` hash set of `u64` keys, split into
    /// independent key-range shards, with the physical entry layout (wide or
    /// packed) chosen per run.
    ShardedEpochHashSet,
    SetShards,
    WideEpochSet,
    PackedEpochSet
);

sharded_facade!(
    /// Concurrent hash map from `u64` keys to `u64` values with a
    /// *minimum-claim* update rule, split into independent key-range shards:
    /// [`try_claim_min`](Self::try_claim_min) inserts the key if absent and
    /// lowers its stored value to the claimed one. The settled value per key
    /// is the minimum over all claims — a commutative, associative
    /// reduction, so the contents are independent of thread interleaving and
    /// sharding is unobservable. Packed widths require claim values below
    /// `2^32`.
    ///
    /// This is the conflict-resolution table of the deterministic parallel
    /// double-edge swap: every pair claims its two replacement edge keys
    /// with its own pair index, and after a barrier the pair that holds the
    /// minimum index for both keys commits. Unlike a bare `TestAndSet`
    /// (whose winner is decided by CAS timing), the claim winner is a pure
    /// function of the claimed values.
    ShardedEpochHashMap,
    MapShards,
    WideEpochMap,
    PackedEpochMap
);

impl ShardedEpochHashSet {
    /// Insert `key` into its shard; `Ok(true)` if already present this
    /// epoch. A full shard is a [`TableFullError`] with that shard's
    /// occupancy and capacity.
    #[inline]
    pub fn try_test_and_set(&self, key: u64) -> Result<bool, TableFullError> {
        let h = hash64(key);
        let s = shard_of_hash(h, self.shard_count());
        dispatch!(SetShards, &self.inner, sh => sh[s].0.try_test_and_set_h(key, h))
            .map_err(Self::full)
    }

    /// `true` if `key` is present in the current epoch.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        let h = hash64(key);
        let s = shard_of_hash(h, self.shard_count());
        dispatch!(SetShards, &self.inner, sh => sh[s].0.contains_h(key, h))
    }
}

impl ShardedEpochHashMap {
    /// Claim `key` with `value` in its shard; the settled value is the
    /// minimum over all claims this epoch, independent of interleaving,
    /// shard count, and thread count.
    #[inline]
    pub fn try_claim_min(&self, key: u64, value: u64) -> Result<(), TableFullError> {
        let h = hash64(key);
        let s = shard_of_hash(h, self.shard_count());
        dispatch!(MapShards, &self.inner, sh => sh[s].0.try_claim_min_h(key, h, value))
            .map_err(Self::full)
    }

    /// Apply a whole pre-scattered run of claims to shard `s`, software-
    /// pipelined: each claim's home slot is prefetched
    /// `CLAIM_RUN_LOOKAHEAD` iterations ahead, so the dependent probe
    /// loads overlap instead of serializing on memory latency.
    ///
    /// `keys[i]` is claimed with `value_of(idxs[i])`. Every key must
    /// belong to shard `s` (`shard_of(key) == s`, the invariant a
    /// `ShardScatter` partition provides) — this is what makes the
    /// one-worker-per-shard phase race-free. The claim reduction itself is
    /// the same commutative minimum as [`try_claim_min`](Self::try_claim_min),
    /// so results are independent of run order and batching.
    pub fn try_claim_min_run(
        &self,
        s: usize,
        keys: &[u64],
        idxs: &[u64],
        value_of: impl Fn(u64) -> u64,
    ) -> Result<(), TableFullError> {
        debug_assert_eq!(keys.len(), idxs.len());
        dispatch!(MapShards, &self.inner, sh => {
            let shard = &sh[s].0;
            for (i, (&key, &idx)) in keys.iter().zip(idxs).enumerate() {
                if let Some(&ahead) = keys.get(i + CLAIM_RUN_LOOKAHEAD) {
                    shard.prefetch_slot_h(hash64(ahead));
                }
                debug_assert_eq!(self.shard_of(key), s, "key routed to the wrong shard");
                shard.try_claim_min_h(key, hash64(key), value_of(idx))?;
            }
            Ok(())
        })
        .map_err(Self::full)
    }

    /// The minimum value claimed for `key` this epoch, or `None`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        let h = hash64(key);
        let s = shard_of_hash(h, self.shard_count());
        dispatch!(MapShards, &self.inner, sh => sh[s].0.get_h(key, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIDTHS: [ResolvedWidth; 3] = [
        ResolvedWidth::Wide,
        ResolvedWidth::Packed64 { key_bits: 26 },
        ResolvedWidth::Packed32 { key_bits: 26 },
    ];

    #[test]
    fn shard_of_key_is_in_range_and_stable() {
        for shards in [1usize, 2, 3, 8, 16, 64] {
            for k in 0..10_000u64 {
                let s = shard_of_key(k, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_key(k, shards), "pure function");
            }
        }
    }

    /// Distinct keys whose 32-bit halves both fit the 13-bit id range of a
    /// `key_bits = 26` packed layout.
    fn key(i: u64) -> u64 {
        ((i / 100) << 32) | ((i % 100) * 73 + 1)
    }

    #[test]
    fn sharded_set_matches_reference_semantics_across_widths() {
        for width in WIDTHS {
            let sharded = ShardedEpochHashSet::with_shards_width(1000, 8, width);
            assert_eq!(sharded.resolved_width(), width);
            let mut reference = std::collections::HashSet::new();
            for k in (0..1000u64).map(key) {
                assert_eq!(
                    sharded.try_test_and_set(k),
                    Ok(!reference.insert(k)),
                    "first insert of {k} at {width:?}"
                );
            }
            for k in (0..1000u64).map(key) {
                sharded.prefetch(k); // hint only — must not change answers
                assert!(sharded.contains(k));
                assert_eq!(sharded.try_test_and_set(k), Ok(true));
            }
            assert!(!sharded.contains(5));
            assert_eq!(sharded.len(), reference.len());
            sharded.clear_shared();
            assert!(sharded.is_empty());
            assert!(!sharded.contains(7));
        }
    }

    #[test]
    fn sharded_map_holds_minimum_across_shards_and_widths() {
        for width in WIDTHS {
            let map = ShardedEpochHashMap::with_shards_width(256, 16, width);
            for k in 0..256u64 {
                for v in [k + 50, k, k + 9] {
                    map.try_claim_min(k, v).unwrap();
                }
            }
            for k in 0..256u64 {
                assert_eq!(map.get(k), Some(k), "{width:?}");
            }
            map.clear_shared();
            for k in 0..256u64 {
                assert_eq!(map.get(k), None);
            }
        }
    }

    #[test]
    fn full_shard_reports_sharded_label_and_shard_capacity() {
        // One shard, tiny capacity: fill every slot of the single shard.
        // Fill behavior must be width-independent (same slot counts, same
        // probe sequences), so run all three layouts through the same
        // script.
        for width in WIDTHS {
            let set = ShardedEpochHashSet::with_shards_width(4, 1, width);
            let size = set.table_size();
            for k in 0..size as u64 {
                set.try_test_and_set(k).unwrap();
            }
            let err = set.try_test_and_set(size as u64 + 1).unwrap_err();
            assert_eq!(err.table, "ShardedEpochHashSet", "{width:?}");
            assert!(err.occupancy <= err.capacity);
            assert_eq!(err.capacity, size);
        }
    }

    #[test]
    fn claim_run_agrees_with_per_key_claims() {
        for width in WIDTHS {
            let shards = 4usize;
            let map = ShardedEpochHashMap::with_shards_width(64, shards, width);
            let reference = ShardedEpochHashMap::with_shards_width(64, shards, width);
            // Scatter keys 0..64 by shard, as the claim phase does.
            let mut by_shard: Vec<(Vec<u64>, Vec<u64>)> = vec![Default::default(); shards];
            for k in 0..64u64 {
                let s = map.shard_of(k);
                by_shard[s].0.push(k);
                by_shard[s].1.push(2 * k); // idx; value_of halves it back
                reference.try_claim_min(k, k + 1).unwrap();
            }
            for (s, (keys, idxs)) in by_shard.iter().enumerate() {
                map.try_claim_min_run(s, keys, idxs, |idx| idx / 2 + 1)
                    .unwrap();
            }
            for k in 0..64u64 {
                assert_eq!(map.get(k), reference.get(k), "key {k} at {width:?}");
                assert_eq!(map.get(k), Some(k + 1));
            }
            assert_eq!(map.len(), 64);
        }
    }
}
