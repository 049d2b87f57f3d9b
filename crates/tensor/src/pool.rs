//! The compute worker pool: deterministic row-range parallelism for the
//! dense and sparse kernels of the training hot path.
//!
//! The pool spawns scoped workers on the vendored `crossbeam` shim, so
//! borrowed inputs flow into workers without `Arc` plumbing and every
//! worker is joined before the kernel returns.
//!
//! # Determinism contract
//!
//! Work is split into *fixed-size row chunks* ([`CHUNK_ROWS`]) whose
//! boundaries depend only on the output shape — never on the thread
//! count — and every output row is written by exactly one chunk, in the
//! same inner loop order the sequential kernel uses. Each output element
//! therefore sees an identical sequence of floating-point operations at
//! every thread count, making kernel results *bitwise identical* for
//! `threads = 1, 2, 4, …` (property-tested in
//! `tests/compute_engine.rs`). Parallelism changes wall-clock only.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows per work chunk. Fixed so chunk boundaries are a function of the
/// output shape only (see the determinism contract above).
pub const CHUNK_ROWS: usize = 16;

/// `0` means "resolve from the machine" (see [`compute_threads`]).
static COMPUTE_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the global worker count used by the parallel kernels when no
/// explicit count is passed. `0` restores the default
/// (`available_parallelism`, clamped to 8 like the planner tier).
pub fn set_compute_threads(threads: usize) {
    COMPUTE_THREADS.store(threads, Ordering::SeqCst);
}

/// The global worker count the parallel kernels use by default.
pub fn compute_threads() -> usize {
    match COMPUTE_THREADS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8),
        n => n,
    }
}

/// Splits `out` (a row-major `rows x cols` buffer) into fixed
/// [`CHUNK_ROWS`]-row chunks and runs `body(first_row, chunk)` for every
/// chunk, distributing contiguous runs of chunks over at most `threads`
/// scoped workers. With one effective worker the chunks run inline on the
/// caller's thread — no spawning, no allocation.
///
/// `body` must compute each chunk independently of every other chunk (it
/// receives disjoint `&mut` windows, so the borrow checker enforces the
/// writes; reads of shared inputs are the caller's contract).
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `cols` (when `cols > 0`) or
/// if a worker panics.
pub fn par_row_chunks<F>(threads: usize, out: &mut [f32], cols: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() || cols == 0 {
        return;
    }
    assert_eq!(out.len() % cols, 0, "buffer is not a whole number of rows");
    let chunk_len = CHUNK_ROWS * cols;
    let num_chunks = out.len().div_ceil(chunk_len);
    let workers = threads.max(1).min(num_chunks);
    if workers <= 1 {
        for (c, chunk) in out.chunks_mut(chunk_len).enumerate() {
            body(c * CHUNK_ROWS, chunk);
        }
        return;
    }
    // Contiguous runs of chunks per worker: worker w takes chunks
    // [w * per, (w + 1) * per). Assignment affects scheduling only; the
    // chunk boundaries and per-chunk work are identical at every count.
    let per = num_chunks.div_ceil(workers);
    let body = &body;
    crossbeam::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(workers);
        let mut rest = out;
        let mut first_chunk = 0usize;
        while !rest.is_empty() {
            let take = (per * chunk_len).min(rest.len());
            let (run, tail) = rest.split_at_mut(take);
            rest = tail;
            let start = first_chunk;
            joins.push(scope.spawn(move |_| {
                for (c, chunk) in run.chunks_mut(chunk_len).enumerate() {
                    body((start + c) * CHUNK_ROWS, chunk);
                }
            }));
            first_chunk += take.div_ceil(chunk_len);
        }
        for join in joins {
            join.join().expect("compute pool worker panicked");
        }
    })
    .expect("compute pool scope");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_row_once() {
        for &threads in &[1usize, 2, 3, 8] {
            let rows = 67;
            let cols = 3;
            let mut out = vec![0.0f32; rows * cols];
            par_row_chunks(threads, &mut out, cols, |first_row, chunk| {
                for (i, row) in chunk.chunks_mut(cols).enumerate() {
                    for x in row.iter_mut() {
                        *x += (first_row + i) as f32 + 1.0;
                    }
                }
            });
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(out[r * cols + c], r as f32 + 1.0, "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn empty_buffer_is_a_no_op() {
        let mut out: Vec<f32> = Vec::new();
        par_row_chunks(4, &mut out, 5, |_, _| panic!("must not run"));
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn ragged_buffer_is_rejected() {
        let mut out = vec![0.0f32; 7];
        par_row_chunks(2, &mut out, 3, |_, _| {});
    }

    #[test]
    fn global_thread_setting_round_trips() {
        let before = compute_threads();
        set_compute_threads(3);
        assert_eq!(compute_threads(), 3);
        set_compute_threads(0);
        assert!(compute_threads() >= 1);
        set_compute_threads(before);
    }
}
