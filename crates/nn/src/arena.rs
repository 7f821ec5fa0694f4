//! Thread-local tensor arena: a freelist buffer pool behind every
//! [`Tensor`](crate::tensor::Tensor) and kernel scratch allocation.
//!
//! Training builds and drops one autograd tape per minibatch, so the same
//! buffer sizes recur every step. Instead of round-tripping each activation
//! and gradient through the global allocator, freed buffers park in a
//! per-thread freelist and are handed back out by best-fit capacity (at
//! most `MAX_SLACK`× the request, so small takes never strand large
//! buffers): after the first step warms the lists, steady-state
//! forward/backward performs zero heap allocation inside the graph (pinned
//! by the counting-allocator test in `crates/nn/tests/arena_alloc.rs`).
//!
//! ## Ownership rules
//!
//! * Buffers are *owned* by whoever took them; returning them via
//!   [`put_f32`] / [`put_usize`] is optional. A buffer that is never
//!   returned is simply freed by the allocator — the arena is a cache, not
//!   a lifetime system.
//! * [`Tensor`](crate::tensor::Tensor) returns its buffers automatically on
//!   drop, so graph code never calls the arena directly.
//! * Arenas are strictly thread-local: a buffer taken on thread A and
//!   returned on thread B parks in B's freelist. That migration is safe and
//!   only costs cache warmth, so cross-thread flows (the kernel pool's
//!   result cells, and the packed GEMM operand panels shared with workers
//!   behind `Arc`) deliberately route buffers back to the dispatching
//!   thread — over the result channel or via `Arc::try_unwrap` — before
//!   returning them.
//! * Returned buffers are cleared (`len == 0`); takers receive an empty
//!   `Vec` with at least the requested capacity and must fill it
//!   themselves. [`take_f32_zeroed`] packages the common resize-to-zero
//!   pattern.
//!
//! Per-thread growth is bounded (`MAX_BUFFERS` buffers, `MAX_HELD_BYTES`
//! bytes per element class); anything beyond the cap is dropped to the
//! allocator. Global hit/miss/held counters feed the trainer's telemetry
//! gauges (`nn_arena_*`).

use crate::sync::atomic::{AtomicU64, Ordering};
use std::cell::RefCell;

/// Per-thread, per-class cap on parked buffers.
#[cfg(not(loom))]
const MAX_BUFFERS: usize = 512;
/// Per-thread, per-class cap on parked bytes (256 MiB).
#[cfg(not(loom))]
const MAX_HELD_BYTES: usize = 256 << 20;

/// Model-checking caps, shrunk so `tests/loom_arena.rs` reaches the
/// over-cap drop path with a handful of small buffers.
#[cfg(loom)]
const MAX_BUFFERS: usize = 2;
#[cfg(loom)]
const MAX_HELD_BYTES: usize = 64;

/// A parked buffer serves a request only if its capacity is at most this
/// many times the requested capacity.
const MAX_SLACK: usize = 2;

// ordering: HITS/MISSES are monotonic telemetry counters; HELD_BYTES is a
// sum of per-thread deltas where each thread only ever undoes its own
// additions (freelists are thread-local), so no load of any of these gates
// other memory — Relaxed throughout.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static HELD_BYTES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide arena counters (summed over threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Takes served from a parked buffer.
    pub hits: u64,
    /// Takes that fell through to the global allocator.
    pub misses: u64,
    /// Bytes currently parked across all thread freelists.
    pub held_bytes: u64,
}

/// Reads the process-wide arena counters.
pub fn arena_stats() -> ArenaStats {
    ArenaStats {
        hits: HITS.load(Ordering::Relaxed), // ordering: telemetry (see statics)
        misses: MISSES.load(Ordering::Relaxed), // ordering: telemetry (see statics)
        held_bytes: HELD_BYTES.load(Ordering::Relaxed), // ordering: telemetry (see statics)
    }
}

/// Zeroes the hit/miss counters (held bytes track live state and are not
/// reset).
pub fn reset_arena_stats() {
    HITS.store(0, Ordering::Relaxed); // ordering: telemetry (see statics)
    MISSES.store(0, Ordering::Relaxed); // ordering: telemetry (see statics)
}

/// One element class of the freelist: buffers sorted ascending by capacity.
struct Shelf<T> {
    free: Vec<Vec<T>>,
    held_bytes: usize,
}

impl<T> Shelf<T> {
    const fn new() -> Self {
        Self { free: Vec::new(), held_bytes: 0 }
    }

    /// Best-fit take: the smallest parked buffer with capacity in
    /// `min_cap..=MAX_SLACK·min_cap`, or a fresh allocation on miss. The
    /// upper bound keeps small requests off large buffers: a 4-float take
    /// that walks off with an 800 KiB packed-panel buffer makes the next
    /// panel request miss and allocate another, and parked bytes grow
    /// without bound.
    fn take(&mut self, min_cap: usize) -> Vec<T> {
        if min_cap == 0 {
            // Don't burn a parked buffer (or a counter tick) on an empty
            // request; `Vec::new` doesn't allocate.
            return Vec::new();
        }
        let idx = self.free.partition_point(|v| v.capacity() < min_cap);
        if idx < self.free.len() && self.free[idx].capacity() <= min_cap.saturating_mul(MAX_SLACK) {
            let v = self.free.remove(idx);
            self.held_bytes -= v.capacity() * size_of::<T>();
            // ordering: telemetry counters (see statics); each thread only
            // subtracts bytes it previously added.
            HELD_BYTES.fetch_sub((v.capacity() * size_of::<T>()) as u64, Ordering::Relaxed);
            HITS.fetch_add(1, Ordering::Relaxed); // ordering: telemetry (see statics)
            v
        } else {
            MISSES.fetch_add(1, Ordering::Relaxed); // ordering: telemetry (see statics)
            Vec::with_capacity(min_cap)
        }
    }

    /// Parks a cleared buffer, dropping it instead when over the caps.
    fn put(&mut self, mut v: Vec<T>) {
        v.clear();
        let bytes = v.capacity() * size_of::<T>();
        if bytes == 0 || self.free.len() >= MAX_BUFFERS || self.held_bytes + bytes > MAX_HELD_BYTES
        {
            return; // dropped to the allocator
        }
        let idx = self.free.partition_point(|p| p.capacity() < v.capacity());
        self.free.insert(idx, v);
        self.held_bytes += bytes;
        HELD_BYTES.fetch_add(bytes as u64, Ordering::Relaxed); // ordering: telemetry (see statics)
    }
}

impl<T> Drop for Shelf<T> {
    fn drop(&mut self) {
        // ordering: telemetry (see statics); returns this thread's own
        // contribution on thread exit.
        HELD_BYTES.fetch_sub(self.held_bytes as u64, Ordering::Relaxed);
    }
}

struct ArenaInner {
    f32s: Shelf<f32>,
    usizes: Shelf<usize>,
}

thread_local! {
    static ARENA: RefCell<ArenaInner> =
        const { RefCell::new(ArenaInner { f32s: Shelf::new(), usizes: Shelf::new() }) };
}

/// An empty `Vec<f32>` with capacity ≥ `min_cap`, recycled when possible.
pub fn take_f32(min_cap: usize) -> Vec<f32> {
    ARENA
        .try_with(|a| a.borrow_mut().f32s.take(min_cap))
        .unwrap_or_else(|_| Vec::with_capacity(min_cap))
}

/// A zero-filled `Vec<f32>` of exactly `len` elements, recycled when
/// possible.
pub fn take_f32_zeroed(len: usize) -> Vec<f32> {
    let mut v = take_f32(len);
    v.resize(len, 0.0);
    v
}

/// Returns an `f32` buffer to the current thread's freelist. The buffer is
/// cleared; callers must not rely on its contents surviving.
pub fn put_f32(v: Vec<f32>) {
    let _ = ARENA.try_with(|a| a.borrow_mut().f32s.put(v));
}

/// An empty `Vec<usize>` with capacity ≥ `min_cap`, recycled when possible.
pub fn take_usize(min_cap: usize) -> Vec<usize> {
    ARENA
        .try_with(|a| a.borrow_mut().usizes.take(min_cap))
        .unwrap_or_else(|_| Vec::with_capacity(min_cap))
}

/// A recycled copy of `src` (the tensor-shape pattern).
pub fn take_usize_copy(src: &[usize]) -> Vec<usize> {
    let mut v = take_usize(src.len());
    v.extend_from_slice(src);
    v
}

/// Returns a `usize` buffer to the current thread's freelist.
pub fn put_usize(v: Vec<usize>) {
    let _ = ARENA.try_with(|a| a.borrow_mut().usizes.put(v));
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn take_put_roundtrip_reuses_capacity() {
        let mut v = take_f32(100);
        v.resize(100, 1.5);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        put_f32(v);
        let v2 = take_f32(64);
        // Best fit must hand back the same cleared buffer.
        assert_eq!(v2.len(), 0);
        assert!(v2.capacity() >= 64);
        if v2.capacity() == cap {
            assert_eq!(v2.as_ptr(), ptr, "expected the parked buffer back");
        }
    }

    #[test]
    fn best_fit_prefers_smallest_adequate() {
        // Park two buffers; a small request must not consume the big one.
        let mut small = take_f32(10);
        small.resize(10, 0.0);
        let mut big = take_f32(10_000);
        big.resize(10_000, 0.0);
        let big_cap = big.capacity();
        put_f32(big);
        put_f32(small);
        let got = take_f32(5);
        assert!(got.capacity() < big_cap, "best-fit must skip the large buffer");
        let got_big = take_f32(9_000);
        assert!(got_big.capacity() >= 9_000);
    }

    #[test]
    fn small_request_does_not_take_a_much_larger_buffer() {
        // Best fit is bounded: a buffer more than MAX_SLACK× the request
        // stays parked for a request it fits, and the small request misses.
        let mut big = take_f32(1 << 16);
        big.resize(1 << 16, 0.0);
        let big_ptr = big.as_ptr();
        put_f32(big);
        let small = take_f32(4);
        assert!(small.capacity() < 1 << 16, "a 4-float take consumed a 64 Ki-float buffer");
        // Within the slack the parked buffer is reused.
        let reused = take_f32((1 << 16) / MAX_SLACK);
        assert_eq!(reused.as_ptr(), big_ptr, "request within the slack must reuse the buffer");
    }

    #[test]
    fn zeroed_take_is_fully_zero_after_recycling_dirty_buffer() {
        let mut v = take_f32(32);
        v.resize(32, f32::NAN);
        put_f32(v);
        let z = take_f32_zeroed(32);
        assert_eq!(z.len(), 32);
        assert!(z.iter().all(|&x| x == 0.0), "recycled buffer leaked stale data");
    }

    #[test]
    fn stats_move_on_take_and_put() {
        let before = arena_stats();
        let mut v = take_f32(1 << 12);
        v.resize(1 << 12, 0.0);
        put_f32(v);
        let _hit = take_f32(1 << 12);
        let after = arena_stats();
        assert!(after.hits + after.misses > before.hits + before.misses);
    }

    #[test]
    fn usize_shelf_roundtrip() {
        let shape = take_usize_copy(&[3, 4, 5]);
        assert_eq!(shape, vec![3, 4, 5]);
        put_usize(shape);
        let v = take_usize(2);
        assert!(v.is_empty());
        assert!(v.capacity() >= 2);
    }
}
