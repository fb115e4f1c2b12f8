//! Batched evaluation with transparent caching.

use crate::cache::ShardedCache;
use gdse_obs as obs;
use std::collections::HashMap;
use std::hash::Hash;

/// Evaluates `items` through `cache`, batching only the misses.
///
/// `eval` scores a whole batch at once, returning outputs in input order:
/// this is how the GNN surrogate amortizes graph encoding over many design
/// points, and how the oracle side fans a batch out over a
/// [`crate::WorkerPool`]. It must be **item-independent** —
/// `eval(&[a, b])` returns exactly `[eval(&[a])[0], eval(&[b])[0]]` — so
/// batches can be split, cached, and reassembled without changing results.
///
/// Cached keys are served without calling `eval`; misses are
/// **deduplicated by key** (a key appearing twice in one batch is evaluated
/// once — the explorers' duplicate-neighbor guard), evaluated in one `eval`
/// call in first-occurrence order, and spliced back so the returned vector
/// lines up with `items`. Fresh outputs that `keep` accepts are inserted
/// into the cache; the rest are returned but not cached, so their keys are
/// evaluated again the next time they are submitted.
///
/// Records `exec.cache_hits` / `exec.cache_misses` on the calling thread.
pub fn evaluate_cached<I, O, K>(
    eval: impl Fn(&[I]) -> Vec<O>,
    cache: &ShardedCache<K, O>,
    key_of: impl Fn(&I) -> K,
    keep: impl Fn(&O) -> bool,
    items: &[I],
) -> Vec<O>
where
    I: Clone,
    O: Clone,
    K: Hash + Eq + Clone,
{
    let mut out: Vec<Option<O>> = vec![None; items.len()];
    let mut miss_items: Vec<I> = Vec::new();
    let mut miss_keys: Vec<K> = Vec::new();
    // For each output slot that missed: index into the deduplicated batch.
    let mut miss_slot: Vec<(usize, usize)> = Vec::new();
    let mut first_seen: HashMap<K, usize> = HashMap::new();
    let mut hits = 0u64;

    for (i, item) in items.iter().enumerate() {
        let key = key_of(item);
        if let Some(v) = cache.get(&key) {
            out[i] = Some(v);
            hits += 1;
            continue;
        }
        let batch_idx = *first_seen.entry(key.clone()).or_insert_with(|| {
            miss_items.push(item.clone());
            miss_keys.push(key);
            miss_items.len() - 1
        });
        miss_slot.push((i, batch_idx));
    }
    obs::metrics::counter_add("exec.cache_hits", hits);
    obs::metrics::counter_add("exec.cache_misses", miss_items.len() as u64);

    if !miss_items.is_empty() {
        let fresh = eval(&miss_items);
        assert_eq!(fresh.len(), miss_items.len(), "eval must return one output per input");
        for (key, value) in miss_keys.into_iter().zip(&fresh) {
            if keep(value) {
                cache.insert(key, value.clone());
            }
        }
        for (slot, batch_idx) in miss_slot {
            out[slot] = Some(fresh[batch_idx].clone());
        }
    }
    out.into_iter().map(|v| v.expect("every slot is a hit or a miss")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn keep_all<O>(_: &O) -> bool {
        true
    }

    #[test]
    fn cache_hit_is_identical_to_fresh_evaluation() {
        obs::metrics::reset();
        let cache: ShardedCache<u32, u64> = ShardedCache::default();
        let square = |xs: &[u32]| xs.iter().map(|&x| u64::from(x) * u64::from(x)).collect();
        let fresh = evaluate_cached(square, &cache, |&x| x, keep_all, &[3, 4]);
        let cached = evaluate_cached(square, &cache, |&x| x, keep_all, &[3, 4]);
        assert_eq!(fresh, cached);
        assert_eq!(cached, vec![9, 16]);
        assert_eq!(obs::metrics::counter_value("exec.cache_hits"), 2);
    }

    #[test]
    fn misses_are_batched_and_results_spliced_in_order() {
        let cache: ShardedCache<u32, u64> = ShardedCache::default();
        cache.insert(2, 222);
        let calls = AtomicUsize::new(0);
        let eval = |xs: &[u32]| {
            calls.fetch_add(1, Ordering::Relaxed);
            xs.iter().map(|&x| u64::from(x) * 10).collect()
        };
        let out = evaluate_cached(eval, &cache, |&x| x, keep_all, &[1, 2, 3]);
        assert_eq!(out, vec![10, 222, 30], "hit spliced between the two misses");
        assert_eq!(calls.load(Ordering::Relaxed), 1, "one batch call for both misses");
    }

    #[test]
    fn duplicate_keys_in_one_batch_are_evaluated_once() {
        let cache: ShardedCache<u32, u64> = ShardedCache::default();
        let evaluated = AtomicUsize::new(0);
        let eval = |xs: &[u32]| {
            evaluated.fetch_add(xs.len(), Ordering::Relaxed);
            xs.iter().map(|&x| u64::from(x) + 100).collect()
        };
        let out = evaluate_cached(eval, &cache, |&x| x, keep_all, &[7, 7, 8, 7]);
        assert_eq!(out, vec![107, 107, 108, 107]);
        assert_eq!(evaluated.load(Ordering::Relaxed), 2, "7 and 8, each once");
    }

    #[test]
    fn empty_batch_touches_nothing() {
        let cache: ShardedCache<u32, u64> = ShardedCache::default();
        let eval = |_: &[u32]| -> Vec<u64> { panic!("must not be called") };
        assert!(evaluate_cached(eval, &cache, |&x| x, keep_all, &[]).is_empty());
    }

    #[test]
    fn outputs_that_keep_rejects_are_evaluated_again() {
        let cache: ShardedCache<u32, Result<u32, String>> = ShardedCache::default();
        let evaluated = AtomicUsize::new(0);
        let eval = |xs: &[u32]| {
            evaluated.fetch_add(xs.len(), Ordering::Relaxed);
            xs.iter().map(|&x| if x % 2 == 0 { Ok(x) } else { Err(format!("lost {x}")) }).collect()
        };
        let first = evaluate_cached(eval, &cache, |&x| x, Result::is_ok, &[1, 2]);
        assert_eq!(first, vec![Err("lost 1".to_string()), Ok(2)]);
        assert_eq!(cache.len(), 1, "only the accepted output is cached");
        let second = evaluate_cached(eval, &cache, |&x| x, Result::is_ok, &[1, 2]);
        assert_eq!(second, first);
        assert_eq!(evaluated.load(Ordering::Relaxed), 3, "1 twice, 2 once");
    }
}
