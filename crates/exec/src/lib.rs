//! # gdse-exec
//!
//! The parallel execution engine of the GNN-DSE reproduction: everything the
//! pipeline needs to saturate the machine without giving up reproducibility.
//!
//! Three pieces, all built on `std` only (no external dependencies, matching
//! the `gdse-obs` pattern):
//!
//! * [`WorkerPool`] — a work-stealing thread pool over [`std::thread`] +
//!   channels. Results carry their submission indices, so
//!   [`WorkerPool::map`] returns them in input order and **any worker count
//!   reproduces the serial output bit-for-bit** for deterministic task
//!   functions. Worker threads run with their own thread-local
//!   [`gdse_obs`] metric registry; the pool merges every worker's registry
//!   back into the caller's when the batch completes, so counters recorded
//!   inside tasks (oracle attempts, surrogate inferences, …) are never lost.
//! * [`evaluate_cached`] — runs a batched scorer (the GNN surrogate
//!   amortizes graph encoding and inference over a whole batch of design
//!   points instead of one-at-a-time calls) on the memo misses only, and
//!   splices memoized and fresh results back together in submission order.
//! * [`ShardedCache`] — a sharded concurrent map (per-shard [`std::sync::Mutex`],
//!   shard chosen by key hash), the memo of the two prediction callers whose
//!   points repeat: a prediction service's per-kernel memo, built anew with
//!   each model epoch, and the GFlow sampler's memo, which lasts one DSE run.
//!
//! ## Metric catalog (`exec.*`)
//!
//! | metric | type | meaning |
//! |---|---|---|
//! | `exec.tasks` | counter | tasks submitted through [`WorkerPool::map`] |
//! | `exec.steals` | counter | tasks a worker stole from another's deque |
//! | `exec.batch_size` | histogram | submitted batch sizes |
//! | `exec.queue_depth` | gauge | queue depth at the last submission |
//! | `exec.worker_busy_us{worker=N}` | counter | per-worker busy time |
//! | `exec.cache_hits` / `exec.cache_misses` | counter | [`evaluate_cached`] outcomes (the two prediction memos only) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
mod pool;

pub use batch::evaluate_cached;
pub use cache::ShardedCache;
pub use pool::WorkerPool;
