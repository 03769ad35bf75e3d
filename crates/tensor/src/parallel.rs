//! Data-parallel helpers built on `std::thread::scope`.
//!
//! The kernels in [`crate::ops`] all reduce to "fill N disjoint output
//! chunks". [`par_chunks_mut`] splits those chunks across worker threads;
//! each worker writes only its own chunk, so the parallelism is data-race
//! free by construction (disjoint `&mut` slices from `chunks_mut`).
//!
//! Two pragmatics from the HPC guides:
//! * a **serial fast path** when total work is below a threshold — thread
//!   spawn costs more than a small convolution;
//! * worker count capped by `available_parallelism` and overridable via
//!   [`set_threads`] so benchmarks can pin thread counts.

use std::sync::atomic::{AtomicUsize, Ordering};

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Work threshold (in f32 elements written) below which kernels run serially.
pub const SERIAL_THRESHOLD: usize = 16 * 1024;

/// Overrides the worker-thread count (0 restores the default of
/// `available_parallelism`). Intended for benchmarks and tests.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker-thread count currently in effect.
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `out` into `chunk_len`-sized pieces and calls
/// `f(chunk_index, chunk)` for each, in parallel when the total size
/// justifies it. The final chunk may be shorter if `out.len()` is not a
/// multiple of `chunk_len`.
pub fn par_chunks_mut<F>(out: &mut [f32], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let nthreads = threads();
    if out.len() <= SERIAL_THRESHOLD || nthreads <= 1 {
        for (i, chunk) in out.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let nchunks = out.len().div_ceil(chunk_len);
    let per_worker = nchunks.div_ceil(nthreads);
    // A panicking worker re-panics here once every worker has joined.
    std::thread::scope(|s| {
        for (w, worker_slab) in out.chunks_mut(per_worker * chunk_len).enumerate() {
            let f = &f;
            s.spawn(move || {
                let base = w * per_worker;
                for (i, chunk) in worker_slab.chunks_mut(chunk_len).enumerate() {
                    f(base + i, chunk);
                }
            });
        }
    });
}

/// Parallel iteration over an index range with a per-index closure that
/// produces no output slice (used for reductions into pre-split buffers).
pub fn par_for_each_index<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let nthreads = threads();
    if n < 2 || nthreads <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let per_worker = n.div_ceil(nthreads);
    std::thread::scope(|s| {
        for w in 0..nthreads {
            let f = &f;
            let start = w * per_worker;
            let end = ((w + 1) * per_worker).min(n);
            if start >= end {
                break;
            }
            s.spawn(move || {
                for i in start..end {
                    f(i);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_once() {
        let mut out = vec![0.0f32; 100_000];
        par_chunks_mut(&mut out, 13, |i, chunk| {
            for v in chunk.iter_mut() {
                *v += 1.0 + i as f32 * 0.0; // touch each element exactly once
            }
        });
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn chunk_indices_are_global() {
        let mut out = vec![0.0f32; 64 * 1024];
        par_chunks_mut(&mut out, 1024, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as f32;
            }
        });
        for (i, block) in out.chunks(1024).enumerate() {
            assert!(block.iter().all(|&v| v == i as f32), "chunk {i}");
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let fill = |i: usize, chunk: &mut [f32]| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 31 + j) as f32;
            }
        };
        let mut small = vec![0.0f32; 100]; // below threshold → serial
        par_chunks_mut(&mut small, 7, fill);
        let mut big = vec![0.0f32; 100];
        set_threads(4);
        // Force the parallel path by shrinking the threshold via a big buffer:
        let mut parallel = vec![0.0f32; SERIAL_THRESHOLD + 700];
        par_chunks_mut(&mut parallel, 7, fill);
        set_threads(0);
        // Compare overlapping prefix pattern.
        par_chunks_mut(&mut big, 7, fill);
        assert_eq!(small, big);
        for (i, chunk) in parallel.chunks(7).take(14).enumerate() {
            for (j, &v) in chunk.iter().enumerate() {
                assert_eq!(v, (i * 31 + j) as f32);
            }
        }
    }

    #[test]
    fn ragged_tail_chunk_handled() {
        let mut out = vec![0.0f32; 10];
        par_chunks_mut(&mut out, 4, |i, chunk| {
            assert!(chunk.len() == 4 || (i == 2 && chunk.len() == 2));
            chunk.fill(1.0);
        });
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn for_each_index_covers_range() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        par_for_each_index(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn thread_override_round_trips() {
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
