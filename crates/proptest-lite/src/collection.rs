//! Collection strategies: `vec`, `btree_map`, `hash_set` with a size range,
//! mirroring `proptest::collection`.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::Hash;

use crate::{SizeRange, Strategy, TestRng};

/// How many extra draws a keyed collection may burn trying to reach its
/// target size before settling for fewer elements (duplicate keys shrink
/// keyed collections; with a key domain near the requested size the target
/// may be unreachable).
const DUP_ATTEMPT_FACTOR: usize = 32;

/// Strategy for `Vec<T>` with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.sample(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeMap<K, V>` with a size drawn from `size`. Duplicate
/// keys are re-drawn (bounded), so the final map may be smaller than the
/// sampled size when the key domain is narrow.
pub fn btree_map<K, V>(key: K, value: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    BTreeMapStrategy {
        key,
        value,
        size: size.into(),
    }
}

/// Strategy returned by [`btree_map`].
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord + fmt::Debug,
    V::Value: fmt::Debug,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let target = self.size.sample(rng);
        let mut map = BTreeMap::new();
        let mut attempts = 0usize;
        while map.len() < target && attempts < target * DUP_ATTEMPT_FACTOR + 1 {
            map.insert(self.key.generate(rng), self.value.generate(rng));
            attempts += 1;
        }
        map
    }
}

/// Strategy for `HashSet<T>` with a size drawn from `size`. Duplicates are
/// re-drawn (bounded), as in [`btree_map`].
pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Hash + Eq,
{
    HashSetStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`hash_set`].
pub struct HashSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Hash + Eq + fmt::Debug,
{
    type Value = HashSet<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
        let target = self.size.sample(rng);
        let mut set = HashSet::new();
        let mut attempts = 0usize;
        while set.len() < target && attempts < target * DUP_ATTEMPT_FACTOR + 1 {
            set.insert(self.element.generate(rng));
            attempts += 1;
        }
        set
    }
}
