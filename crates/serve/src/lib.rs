//! # gdse-serve
//!
//! The fault-tolerant prediction service of the GNN-DSE reproduction: a
//! JSON-lines-over-TCP server that answers surrogate QoR queries from a
//! supervised pool of model replicas, built on `std` networking only (no
//! external dependencies, matching the `gdse-obs` / `gdse-exec` pattern).
//!
//! The crate is deliberately model-agnostic: it knows nothing about GNNs,
//! kernels, or design spaces. A backend implements [`BatchPredictor`]
//! (`(kernel, design-point indices) -> prediction rows`), a
//! [`ModelProvider`] versions backends by **epoch** (for hot swap), and
//! the server supplies everything around them:
//!
//! * a **supervised replica pool** — N replicas, each owning a private
//!   backend and a bounded queue, with per-kernel consistent shard routing
//!   so per-kernel caches stay hot; a panicking, killed, or wedged replica
//!   is isolated, its in-flight requests are re-routed to siblings, and it
//!   restarts under exponential backoff (see [`crate::pool`]'s module docs
//!   for the degradation ladder);
//! * **zero-downtime hot swap** — a `{"reload": true}` request (or a
//!   watched artifact changing on disk) makes every replica rebuild from
//!   the provider's new epoch at its next batch boundary; a version that
//!   fails validation is rolled back while the previous model keeps
//!   serving, and every `ok` response is tagged with the epoch that
//!   produced it;
//! * **bounded queues + load shedding** — a full queue rejects immediately
//!   with 429 + `retry_after_ms` instead of queueing unboundedly;
//!   overload is never spilled across replicas (backpressure must reach
//!   the client, not cascade);
//! * **hardened edges** — request lines are size-capped (413 on
//!   violation, connection stays in sync), connections can carry an idle
//!   timeout (408), handlers answer 504 past a request deadline, and the
//!   bundled [`Client`] adds connect/read timeouts with jittered bounded
//!   retries;
//! * **chaos tooling** — [`ChaosProxy`] injects deterministic TCP faults
//!   (drop/delay/truncate/kill) between client and server, and
//!   [`ServerHandle::kill_replica`] crashes replicas on purpose, so the
//!   failure story is tested, not asserted;
//! * **graceful shutdown** — a protocol-level `{"shutdown": true}`
//!   request, a [`ServerHandle::shutdown`] call, or a served-request limit
//!   all drain in-flight work before the server returns;
//! * **`serve.*` metrics** — the full catalog (epoch gauge, restart /
//!   reroute / reject / reload-failure counters, span and batch-size
//!   histograms) is documented in [`crate::server`]. Every server thread
//!   books into one live registry that `admin stats` reads mid-run; it is
//!   folded into the caller's [`gdse_obs`] registry when [`Server::run`]
//!   returns.
//!
//! ## Protocol
//!
//! One JSON object per line, newline-terminated, over TCP:
//!
//! ```text
//! -> {"id": 7, "kernel": "gemm-ncubed", "index": 123}
//! <- {"id": 7, "status": "ok", "code": 200, "epoch": 3, "valid_prob": 0.93,
//!     "cycles": 5113, "dsp": 0.21, "bram": 0.08, "lut": 0.17, "ff": 0.12}
//! -> {"id": 8, "kernel": "gemm-ncubed", "index": 124}     (queue full)
//! <- {"id": 8, "status": "rejected", "code": 429, "retry_after_ms": 50,
//!     "error": "prediction queue full"}
//! -> {"reload": true}
//! <- {"status": "reloaded", "code": 200, "epoch": 4}
//! -> {"kill_replica": 1}
//! <- {"status": "killed", "code": 200, "replica": 1}
//! -> {"shutdown": true}
//! <- {"status": "shutting_down", "code": 200}
//! ```
//!
//! Responses carry the request `id`, so a pipelining client can correlate
//! them; the bundled [`Client`] issues one request at a time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod client;
mod pool;
mod protocol;
mod queue;
mod server;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats};
pub use client::{Client, ClientConfig};
pub use pool::{
    BatchPredictor, LearnStatusSource, ModelProvider, StaticProvider, BATCH_EDGES, MAX_ATTEMPTS,
};
pub use protocol::{parse_request, PredictionRow, Request, Response};
pub use server::{ServeConfig, Server, ServerHandle};

use std::fmt;
use std::io;
use std::time::Duration;

/// Failures of the serve layer (bind, socket I/O, malformed protocol,
/// timeouts, retry exhaustion).
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not be bound.
    Bind {
        /// The requested address.
        addr: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A socket read/write failed.
    Io(io::Error),
    /// The peer sent something that is not valid protocol.
    Protocol(String),
    /// A connect or read gave no answer within its deadline.
    Timeout {
        /// The deadline that expired.
        after: Duration,
    },
    /// Every configured retry failed; `last` is the terminal failure.
    RetriesExhausted {
        /// Total attempts made (initial + retries).
        attempts: u32,
        /// The failure of the final attempt.
        last: Box<ServeError>,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Timeout { after } => write!(f, "no answer within {after:?}"),
            ServeError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } => Some(source),
            ServeError::Io(e) => Some(e),
            ServeError::Protocol(_) | ServeError::Timeout { .. } => None,
            ServeError::RetriesExhausted { last, .. } => Some(last.as_ref()),
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}
