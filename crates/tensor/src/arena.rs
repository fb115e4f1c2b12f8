//! Thread-local scratch-buffer arena for forward passes.
//!
//! Every forward pass allocates one buffer per tape node (plus GEMM packing
//! scratch). Those allocations are identical from batch to batch, so instead
//! of hitting the global allocator per layer we recycle the flat `Vec<f32>`
//! buffers through a thread-local pool: [`take`] hands out a zeroed buffer
//! (reusing a retired one when its capacity fits), and [`Graph`] returns every
//! adjoint with [`give`] once its backward has consumed it, and every node
//! buffer when the tape is dropped.
//!
//! # Lifetime rules
//!
//! - Buffers handed out by [`take`]/[`zeros`] are plain owned values; nothing
//!   ties them to the arena. Returning them via [`give`]/[`recycle`] is an
//!   optimization, never a requirement — dropping a buffer normally is always
//!   correct.
//! - The pool is per-thread. A buffer taken on one thread and given back on
//!   another simply lands in the other thread's pool; there is no
//!   cross-thread aliasing because ownership moves with the `Vec`.
//! - The pool is bounded ([`MAX_POOLED_BUFFERS`] buffers,
//!   [`MAX_POOLED_FLOATS`] floats total). Beyond that, `give` drops the
//!   buffer, so a pathological batch cannot pin memory forever.
//!
//! [`Graph`]: crate::Graph

use crate::matrix::Matrix;
use std::cell::RefCell;

/// Maximum number of retired buffers kept per thread.
pub const MAX_POOLED_BUFFERS: usize = 256;

/// Maximum total `f32` capacity kept per thread (16 Mi floats = 64 MiB).
pub const MAX_POOLED_FLOATS: usize = 1 << 24;

#[derive(Default)]
struct Pool {
    buffers: Vec<Vec<f32>>,
    pooled_floats: usize,
    takes: u64,
    hits: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Takes a zero-filled buffer of length `len` from the pool, reusing a
/// retired buffer when one with sufficient capacity exists.
pub fn take(len: usize) -> Vec<f32> {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.takes += 1;
        // Last-in-first-out with a linear capacity scan: the pool is small and
        // recently retired buffers are the most likely to be cache-warm.
        let found = pool
            .buffers
            .iter()
            .rposition(|b| b.capacity() >= len);
        if let Some(i) = found {
            let mut buf = pool.buffers.swap_remove(i);
            pool.pooled_floats = pool.pooled_floats.saturating_sub(buf.capacity());
            pool.hits += 1;
            buf.clear();
            buf.resize(len, 0.0);
            buf
        } else {
            vec![0.0; len]
        }
    })
}

/// Returns a buffer to the pool (dropped instead if the pool is full).
pub fn give(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.buffers.len() < MAX_POOLED_BUFFERS
            && pool.pooled_floats + buf.capacity() <= MAX_POOLED_FLOATS
        {
            pool.pooled_floats += buf.capacity();
            pool.buffers.push(buf);
        }
    });
}

/// Allocates a zeroed `rows x cols` [`Matrix`] backed by a pooled buffer.
pub fn zeros(rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, take(rows * cols))
}

/// Retires a matrix's backing buffer into the pool.
pub fn recycle(m: Matrix) {
    give(m.into_vec());
}

/// `(takes, hits)` counters for the current thread's pool — how many buffer
/// requests were served and how many reused a retired buffer.
pub fn stats() -> (u64, u64) {
    POOL.with(|p| {
        let pool = p.borrow();
        (pool.takes, pool.hits)
    })
}

/// Drops every pooled buffer on the current thread (used by tests and by
/// long-lived daemons that want to release idle scratch memory).
pub fn clear() {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.buffers.clear();
        pool.pooled_floats = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_reuse() {
        clear();
        let mut buf = take(16);
        buf.iter_mut().for_each(|v| *v = 7.0);
        give(buf);
        let again = take(16);
        assert!(again.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reuse_hits_are_counted() {
        clear();
        let (takes0, hits0) = stats();
        let buf = take(32);
        give(buf);
        let _again = take(8); // smaller request still reuses the 32-cap buffer
        let (takes1, hits1) = stats();
        assert_eq!(takes1 - takes0, 2);
        assert_eq!(hits1 - hits0, 1);
    }

    #[test]
    fn pool_is_bounded() {
        clear();
        for _ in 0..(MAX_POOLED_BUFFERS + 64) {
            give(vec![0.0; 4]);
        }
        POOL.with(|p| {
            let pool = p.borrow();
            assert!(pool.buffers.len() <= MAX_POOLED_BUFFERS);
            assert!(pool.pooled_floats <= MAX_POOLED_FLOATS);
        });
    }

    #[test]
    fn zeros_and_recycle_round_trip() {
        clear();
        let m = zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        recycle(m);
        let (_, hits_before) = stats();
        let m2 = zeros(3, 5);
        let (_, hits_after) = stats();
        assert_eq!(hits_after - hits_before, 1);
        assert!(m2.as_slice().iter().all(|&v| v == 0.0));
    }
}
