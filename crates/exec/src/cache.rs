//! The sharded concurrent cache.
//!
//! A plain `Mutex<HashMap>` serializes every lookup; sharding by key hash
//! lets concurrent callers hit disjoint locks almost always. The shard
//! count is fixed at construction (rounded up to a power of two so shard
//! selection is a mask, not a division). A cache is dropped with the model
//! whose outputs it memoizes; until then it grows, or, when
//! [`bounded`](ShardedCache::bounded), empties a full shard before its next
//! insert. Lookups are counted where they are made, by
//! [`evaluate_cached`](crate::evaluate_cached) (`exec.cache_hits` /
//! `exec.cache_misses`), not by the cache.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// A concurrent map sharded by key hash.
///
/// Values are returned by clone, so lock hold times stay short; use cheap
/// value types (the pipeline memoizes small `Copy` predictions).
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    mask: usize,
    /// The most entries a shard holds.
    shard_cap: usize,
}

impl<K: Hash + Eq, V: Clone> ShardedCache<K, V> {
    /// A cache with at least `shards` shards (rounded up to a power of two).
    pub fn new(shards: usize) -> Self {
        Self::bounded(shards, usize::MAX)
    }

    /// A cache of at least `shards` shards that holds at most `max_entries`
    /// entries: each shard holds its share, and a full shard is emptied
    /// before the next insert into it, so a stream of distinct keys cannot
    /// grow it without bound while a working set of keys that fits keeps
    /// hitting.
    pub fn bounded(shards: usize, max_entries: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n - 1,
            shard_cap: (max_entries / n).max(1),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        // DefaultHasher with the default keys is deterministic per process,
        // which keeps shard assignment (and so lock contention) reproducible.
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().expect("cache shard lock").get(key).cloned()
    }

    /// Inserts `key -> value`; returns `false` when the key was already
    /// present (the existing value is kept — first write wins, so concurrent
    /// duplicate evaluations cannot make a later read disagree with an
    /// earlier one).
    pub fn insert(&self, key: K, value: V) -> bool {
        let mut shard = self.shard(&key).lock().expect("cache shard lock");
        if shard.len() >= self.shard_cap && !shard.contains_key(&key) {
            shard.clear();
        }
        match shard.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(value);
                true
            }
        }
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard lock").len()).sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard count (always a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedCache<K, V> {
    /// 16 shards: enough that a dozen workers rarely collide.
    fn default() -> Self {
        ShardedCache::new(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_cached;
    use gdse_obs as obs;

    /// The `exec.cache_hits` / `exec.cache_misses` counters of this thread.
    fn lookups() -> (u64, u64) {
        let count = obs::metrics::counter_value;
        (count("exec.cache_hits"), count("exec.cache_misses"))
    }

    #[test]
    fn get_insert_round_trip_and_stats() {
        let c: ShardedCache<(String, u32), u64> = ShardedCache::default();
        assert_eq!(c.get(&("gemm".into(), 1)), None);
        assert!(c.insert(("gemm".into(), 1), 42));
        assert_eq!(c.get(&("gemm".into(), 1)), Some(42));
        assert_eq!(c.len(), 1);
        // The lookups `evaluate_cached` makes through the cache are counted.
        obs::metrics::reset();
        let items = [("gemm".to_string(), 1), ("gemm".to_string(), 2)];
        let out = evaluate_cached(
            |xs: &[(String, u32)]| xs.iter().map(|(_, v)| u64::from(*v)).collect(),
            &c,
            |x| x.clone(),
            &items,
        );
        assert_eq!(out, vec![42, 2]);
        assert_eq!(lookups(), (1, 1));
        obs::metrics::reset();
    }

    #[test]
    fn first_write_wins() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(4);
        assert!(c.insert(7, 1));
        assert!(!c.insert(7, 2), "duplicate insert must be rejected");
        assert_eq!(c.get(&7), Some(1));
    }

    #[test]
    fn a_bounded_cache_never_holds_more_than_its_bound() {
        let c: ShardedCache<u64, u64> = ShardedCache::bounded(4, 64);
        for k in 0..10_000u64 {
            c.insert(k, k * 3);
            assert!(c.len() <= 64, "after {k}: {}", c.len());
            assert_eq!(c.get(&k), Some(k * 3), "the key just inserted is held");
        }
        // Keys that fit keep hitting: a full shard is emptied only by a new key.
        let hot: ShardedCache<u64, u64> = ShardedCache::bounded(4, 4096);
        for round in 0..3 {
            for k in 0..100u64 {
                let fresh = hot.insert(k, k);
                assert_eq!(fresh, round == 0, "round {round}, key {k}");
            }
        }
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        assert_eq!(ShardedCache::<u32, u32>::new(0).num_shards(), 1);
        assert_eq!(ShardedCache::<u32, u32>::new(5).num_shards(), 8);
        assert_eq!(ShardedCache::<u32, u32>::new(16).num_shards(), 16);
    }

    #[test]
    fn concurrent_inserts_land_once() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for k in 0..100u64 {
                        c.insert(k, t * 1000 + k);
                        assert!(c.get(&k).is_some());
                    }
                });
            }
        });
        assert_eq!(c.len(), 100);
        for k in 0..100u64 {
            // Whatever thread won, the value is consistent with the key.
            assert_eq!(c.get(&k).unwrap() % 1000, k);
        }
    }
}
