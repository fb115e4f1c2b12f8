//! Batched evaluation through a memo.

use crate::cache::ShardedCache;
use gdse_obs as obs;
use std::collections::HashMap;
use std::hash::Hash;

/// Evaluates `items` through the memo `cache`, batching only the misses.
///
/// `eval` scores a whole batch at once, returning outputs in input order:
/// this is how the GNN surrogate amortizes graph encoding over many design
/// points. It must be **item-independent** — `eval(&[a, b])` returns
/// exactly `[eval(&[a])[0], eval(&[b])[0]]` — so batches can be split,
/// memoized, and reassembled without changing results.
///
/// Memoized keys are served without calling `eval`; misses are
/// **deduplicated by key** (a key appearing twice in one batch is evaluated
/// once), evaluated in one `eval` call in first-occurrence order, inserted
/// into the cache, and spliced back so the returned vector lines up with
/// `items`. The cache must live no longer than the outputs stay valid: the
/// pipeline's memos live exactly as long as the model that fills them.
///
/// Records `exec.cache_hits` / `exec.cache_misses` on the calling thread.
pub fn evaluate_cached<I, O, K>(
    eval: impl Fn(&[I]) -> Vec<O>,
    cache: &ShardedCache<K, O>,
    key_of: impl Fn(&I) -> K,
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
            cache.insert(key, value.clone());
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

    #[test]
    fn cache_hit_is_identical_to_fresh_evaluation() {
        obs::metrics::reset();
        let cache: ShardedCache<u32, u64> = ShardedCache::default();
        let square = |xs: &[u32]| xs.iter().map(|&x| u64::from(x) * u64::from(x)).collect();
        let fresh = evaluate_cached(square, &cache, |&x| x, &[3, 4]);
        let cached = evaluate_cached(square, &cache, |&x| x, &[3, 4]);
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
        let out = evaluate_cached(eval, &cache, |&x| x, &[1, 2, 3]);
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
        let out = evaluate_cached(eval, &cache, |&x| x, &[7, 7, 8, 7]);
        assert_eq!(out, vec![107, 107, 108, 107]);
        assert_eq!(evaluated.load(Ordering::Relaxed), 2, "7 and 8, each once");
    }

    #[test]
    fn empty_batch_touches_nothing() {
        let cache: ShardedCache<u32, u64> = ShardedCache::default();
        let eval = |_: &[u32]| -> Vec<u64> { panic!("must not be called") };
        assert!(evaluate_cached(eval, &cache, |&x| x, &[]).is_empty());
    }
}
