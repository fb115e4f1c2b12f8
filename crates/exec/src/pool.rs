//! The work-stealing thread pool.
//!
//! ## Determinism contract
//!
//! [`WorkerPool::map`] returns results **in submission order** regardless of
//! the worker count or how tasks were stolen: every task carries its
//! submission index through the result channel and the pool reassembles the
//! output vector by index. For a task function that is a pure function of
//! `(index, item)` — which every evaluation in this workspace is, because
//! fault decisions are stateless per `(seed, kernel, point, attempt)` — any
//! `jobs` value reproduces the serial output bit-for-bit.
//!
//! Worker metric registries (thread-local in `gdse-obs`) are snapshotted at
//! worker exit and merged into the caller's registry in worker-id order, so
//! counter totals are also independent of the schedule. Gauges merge
//! additively and wall-clock histograms/busy-times are timing-dependent by
//! nature; everything integer-counted is exact.

use gdse_obs as obs;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Bucket edges for the `exec.batch_size` histogram (batch sizes, not µs).
const BATCH_EDGES: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// A fixed-width work-stealing pool. Creating one is free: threads are
/// scoped to each [`WorkerPool::map`] call (no persistent worker state, no
/// `unsafe`, no `'static` bounds on borrowed inputs).
#[derive(Debug, Clone)]
pub struct WorkerPool {
    jobs: usize,
}

impl WorkerPool {
    /// A pool running `jobs` tasks concurrently (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        WorkerPool { jobs: jobs.max(1) }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item and returns the results **in input order**.
    ///
    /// Items are dealt round-robin onto per-worker deques; an idle worker
    /// pops from its own deque front and steals from the back of others.
    /// With `jobs == 1` (or a single item) everything runs inline on the
    /// calling thread — same accounting, no thread spawn.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        obs::metrics::counter_add("exec.tasks", items.len() as u64);
        if !items.is_empty() {
            obs::metrics::observe_with_edges("exec.batch_size", &BATCH_EDGES, items.len() as u64);
            obs::metrics::gauge_set("exec.queue_depth", items.len() as f64);
        }
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            let started = Instant::now();
            let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
            obs::metrics::counter_add_labeled(
                "exec.worker_busy_us",
                "worker",
                "0",
                started.elapsed().as_micros() as u64,
            );
            return out;
        }

        // Round-robin deal so every worker starts with a fair share.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..items.len()).step_by(workers).collect()))
            .collect();
        let steals = AtomicU64::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let (mtx, mrx) = mpsc::channel::<(usize, u64, obs::MetricsSnapshot)>();

        std::thread::scope(|s| {
            for w in 0..workers {
                let tx = tx.clone();
                let mtx = mtx.clone();
                let queues = &queues;
                let steals = &steals;
                let f = &f;
                s.spawn(move || {
                    let mut busy_us = 0u64;
                    while let Some(idx) = next_task(queues, w, steals) {
                        let started = Instant::now();
                        let r = f(idx, &items[idx]);
                        busy_us += started.elapsed().as_micros() as u64;
                        if tx.send((idx, r)).is_err() {
                            break;
                        }
                    }
                    // New threads start with an empty thread-local registry,
                    // so this snapshot holds exactly this batch's records.
                    let _ = mtx.send((w, busy_us, obs::metrics::snapshot()));
                });
            }
            drop(tx);
            drop(mtx);

            let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
            for (idx, r) in rx {
                out[idx] = Some(r);
            }
            // Merge worker registries in worker-id order so the merged
            // registry is schedule-independent for integer metrics.
            let mut per_worker: Vec<(usize, u64, obs::MetricsSnapshot)> = mrx.iter().collect();
            per_worker.sort_by_key(|&(w, _, _)| w);
            for (w, busy_us, snap) in &per_worker {
                obs::metrics::counter_add_labeled(
                    "exec.worker_busy_us",
                    "worker",
                    &w.to_string(),
                    *busy_us,
                );
                obs::metrics::merge(snap);
            }
            obs::metrics::counter_add("exec.steals", steals.load(Ordering::Relaxed));
            out.into_iter()
                .map(|r| r.expect("every submitted task delivers exactly one result"))
                .collect()
        })
    }
}

/// Pops the next task for worker `w`: own deque first, then steal from the
/// back of the closest busy neighbour.
fn next_task(
    queues: &[Mutex<VecDeque<usize>>],
    w: usize,
    steals: &AtomicU64,
) -> Option<usize> {
    if let Some(i) = queues[w].lock().expect("queue lock").pop_front() {
        return Some(i);
    }
    for off in 1..queues.len() {
        let victim = (w + off) % queues.len();
        if let Some(i) = queues[victim].lock().expect("queue lock").pop_back() {
            steals.fetch_add(1, Ordering::Relaxed);
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_submission_order_at_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E3779B9) ^ 7).collect();
        for jobs in [1, 2, 4, 8] {
            let got = WorkerPool::new(jobs)
                .map(&items, |_, &x| x.wrapping_mul(0x9E3779B9) ^ 7);
            assert_eq!(got, expect, "jobs={jobs} must match serial bit-for-bit");
        }
    }

    #[test]
    fn map_passes_the_submission_index() {
        let items = vec!["a", "b", "c"];
        let got = WorkerPool::new(4).map(&items, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn map_handles_empty_and_single_item_batches() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.map(&[] as &[u32], |_, &x| x), Vec::<u32>::new());
        assert_eq!(pool.map(&[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn worker_metrics_are_merged_into_the_caller() {
        obs::metrics::reset();
        let items: Vec<u64> = (0..64).collect();
        let _ = WorkerPool::new(4).map(&items, |_, &x| {
            obs::metrics::counter_inc("test.pool_task");
            x
        });
        assert_eq!(
            obs::metrics::counter_value("test.pool_task"),
            64,
            "every worker-side increment must survive the merge"
        );
        assert_eq!(obs::metrics::counter_value("exec.tasks"), 64);
        obs::metrics::reset();
    }

    #[test]
    fn uneven_loads_trigger_steals() {
        obs::metrics::reset();
        // One very slow first task on worker 0's deque forces the other
        // workers to finish their shares and steal the remainder.
        let items: Vec<u64> = (0..64).collect();
        let _ = WorkerPool::new(4).map(&items, |i, &x| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x
        });
        assert!(
            obs::metrics::counter_value("exec.steals") > 0,
            "idle workers should have stolen from the blocked one"
        );
        obs::metrics::reset();
    }
}
