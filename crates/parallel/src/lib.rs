//! # incam-parallel — deterministic data-parallel kernel substrate
//!
//! A zero-dependency scoped worker pool (`std::thread::scope`) exposing
//! order-preserving primitives over **independent** work units: VR camera
//! pairs, NN batch rows and image rows. Every
//! primitive carries the same **determinism contract**:
//!
//! > The result is byte-identical regardless of the number of worker
//! > threads, including the sequential fallback at one thread.
//!
//! The contract holds by construction, not by luck: [`par_chunks`] /
//! [`par_map_rows`] / [`par_map`] only ever compute per-element (or
//! per-row) values that are pure functions of the element's index —
//! threads write disjoint output regions, so no ordering is observable.
//! A kernel whose units are not independent (a scatter into shared
//! vertices, a ring of filtered rows, a running prefix sum) runs as one
//! sequential pass instead, so there is one level of parallelism and no
//! kernel has to make N threads reproduce one thread's bits.
//!
//! ## Thread-count selection
//!
//! The pool size comes from, in priority order:
//!
//! 1. [`set_thread_override`] (scoped programmatic override, used by the
//!    bench harness and the determinism tests);
//! 2. the `INCAM_THREADS` environment variable (parsed once per process);
//! 3. [`std::thread::available_parallelism`].
//!
//! `INCAM_THREADS=1` (or a single-core host) selects the sequential
//! fallback: no threads are spawned at all. Nested parallel regions
//! (a parallel kernel calling another parallel kernel from inside a
//! worker) automatically run sequentially instead of oversubscribing.
//!
//! # Examples
//!
//! ```
//! // A 5x4 "image" where each row is filled in parallel.
//! let data = incam_parallel::par_map_rows(5, 4, |row, out| {
//!     for (x, slot) in out.iter_mut().enumerate() {
//!         *slot = (row * 4 + x) as u32;
//!     }
//! });
//! assert_eq!(data[..6], [0, 1, 2, 3, 4, 5]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Programmatic thread-count override (0 = none).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside pool workers so nested parallel regions degrade to the
    /// sequential fallback instead of oversubscribing the machine.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        match std::env::var("INCAM_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                // Malformed or zero: fall back to the hardware default
                // rather than crashing a long pipeline run on a typo.
                _ => default_threads(),
            },
            Err(_) => default_threads(),
        }
    })
}

/// The worker-pool size parallel regions will use: the programmatic
/// override if set, else `INCAM_THREADS`, else
/// [`std::thread::available_parallelism`].
fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        o
    } else {
        env_threads()
    }
}

/// Overrides the pool size for the whole process (`None` restores the
/// `INCAM_THREADS`/hardware default).
///
/// Intended for the bench harness (thread-scaling sweeps) and the
/// determinism tests; pipelines should prefer the environment knob.
/// Because every primitive is thread-count-deterministic, flipping the
/// override concurrently with a running kernel cannot change any result.
///
/// # Panics
///
/// Panics on `Some(0)`.
pub fn set_thread_override(threads: Option<usize>) {
    if let Some(n) = threads {
        assert!(n >= 1, "thread override must be at least 1");
    }
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// True while executing inside a pool worker (or inside the calling
/// thread's own band). Nested parallel regions check this to fall back
/// to sequential execution.
fn in_parallel_region() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Threads a region spanning `units` independent work units should use.
fn effective_threads(units: usize) -> usize {
    if units <= 1 || in_parallel_region() {
        1
    } else {
        num_threads().min(units).max(1)
    }
}

/// Near-equal contiguous partition of `0..n` into `parts` ranges (the
/// first `n % parts` ranges hold one extra element). `parts` must be
/// in `1..=n`.
fn bands(n: usize, parts: usize) -> Vec<Range<usize>> {
    debug_assert!(parts >= 1 && parts <= n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `f` with the worker flag set, restoring it afterwards (the
/// calling thread doubles as a worker for its own band).
fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    IN_WORKER.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

/// Applies `f(chunk_index, chunk)` to every `chunk_len`-sized chunk of
/// `data`, distributing contiguous runs of chunks across the pool.
///
/// Chunks are disjoint and each is computed by exactly one worker, so the
/// output is byte-identical at any thread count provided `f` writes a
/// pure function of the chunk index (the normal case: one image row per
/// chunk).
///
/// # Panics
///
/// Panics if `chunk_len` is zero or does not divide `data.len()`.
pub fn par_chunks<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be nonzero");
    assert_eq!(
        data.len() % chunk_len,
        0,
        "data length {} is not a multiple of chunk_len {}",
        data.len(),
        chunk_len
    );
    let chunks = data.len() / chunk_len;
    let threads = effective_threads(chunks);
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let plan = bands(chunks, threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = data;
        let mut tail_band: Option<(usize, &mut [T])> = None;
        for (b, band) in plan.iter().enumerate() {
            let len = (band.end - band.start) * chunk_len;
            let (mine, next) = rest.split_at_mut(len);
            rest = next;
            let start = band.start;
            if b + 1 == plan.len() {
                // The calling thread works the last band itself.
                tail_band = Some((start, mine));
            } else {
                scope.spawn(move || {
                    as_worker(|| {
                        for (i, chunk) in mine.chunks_mut(chunk_len).enumerate() {
                            f(start + i, chunk);
                        }
                    })
                });
            }
        }
        if let Some((start, mine)) = tail_band {
            as_worker(|| {
                for (i, chunk) in mine.chunks_mut(chunk_len).enumerate() {
                    f(start + i, chunk);
                }
            });
        }
    });
}

/// Allocates a `rows × row_len` buffer and fills each row in parallel
/// with `f(row_index, row)`. Rows are initialised to `T::default()`
/// before `f` runs.
///
/// The workhorse for image kernels: each output row is a pure function
/// of its index, so the result is byte-identical at any thread count.
pub fn par_map_rows<T, F>(rows: usize, row_len: usize, f: F) -> Vec<T>
where
    T: Send + Copy + Default,
    F: Fn(usize, &mut [T]) + Sync,
{
    let mut out = vec![T::default(); rows * row_len];
    if row_len > 0 {
        par_chunks(&mut out, row_len, f);
    }
    out
}

/// Computes `f(i)` for every `i in 0..n`, returning the results in index
/// order. Workers own contiguous index bands; band results are stitched
/// back in band order, so output order (and content) never depends on
/// the thread count.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = effective_threads(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let plan = bands(n, threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(plan.len() - 1);
        for band in &plan[..plan.len() - 1] {
            let band = band.clone();
            handles.push(scope.spawn(move || as_worker(|| band.map(f).collect::<Vec<R>>())));
        }
        let last = plan[plan.len() - 1].clone();
        let tail = as_worker(|| last.map(f).collect::<Vec<R>>());
        let mut out = Vec::with_capacity(n);
        for handle in handles {
            out.extend(handle.join().expect("parallel worker panicked")); // incam-lint: allow(fallible-unwrap) — a worker panic must propagate, not be silently dropped
        }
        out.extend(tail);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that flip the global override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(n));
        let out = f();
        set_thread_override(None);
        out
    }

    #[test]
    fn bands_cover_exactly() {
        for n in 1..40 {
            for parts in 1..=n {
                let plan = bands(n, parts);
                assert_eq!(plan.len(), parts);
                assert_eq!(plan[0].start, 0);
                assert_eq!(plan[parts - 1].end, n);
                for w in plan.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    // near-equal: sizes differ by at most one
                    let (a, b) = (w[0].end - w[0].start, w[1].end - w[1].start);
                    assert!(a >= b && a - b <= 1);
                }
            }
        }
    }

    #[test]
    fn par_chunks_matches_sequential_at_any_thread_count() {
        let rows = 13; // deliberately not divisible by pool sizes
        let width = 7;
        let fill = |i: usize, chunk: &mut [u64]| {
            for (x, slot) in chunk.iter_mut().enumerate() {
                *slot = (i * 1_000 + x) as u64;
            }
        };
        let reference = {
            let mut v = vec![0u64; rows * width];
            for (i, chunk) in v.chunks_mut(width).enumerate() {
                fill(i, chunk);
            }
            v
        };
        for threads in [1, 2, 3, 8] {
            let got = with_threads(threads, || {
                let mut v = vec![0u64; rows * width];
                par_chunks(&mut v, width, fill);
                v
            });
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 5] {
            let got = with_threads(threads, || par_map(11, |i| i * i));
            assert_eq!(got, (0..11).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_regions_fall_back_to_sequential() {
        with_threads(4, || {
            let out = par_map(4, |i| {
                assert!(in_parallel_region());
                // The nested call must not deadlock or explode the thread
                // count; it runs inline.
                par_map(3, move |j| i * 10 + j)
            });
            assert_eq!(out[2], vec![20, 21, 22]);
        });
        assert!(!in_parallel_region());
    }

    #[test]
    fn override_api_round_trips() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(3));
        assert_eq!(num_threads(), 3);
        set_thread_override(None);
        assert!(num_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_override_rejected() {
        set_thread_override(Some(0));
    }

    #[test]
    #[should_panic(expected = "multiple of chunk_len")]
    fn ragged_chunks_rejected() {
        let mut v = vec![0u8; 10];
        par_chunks(&mut v, 3, |_, _| {});
    }
}
