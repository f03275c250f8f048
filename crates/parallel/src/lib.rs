//! # incam-parallel — deterministic worker pool
//!
//! A zero-dependency scoped worker pool (`std::thread::scope`) with one
//! order-preserving primitive, [`par_map`], over **independent** work
//! units. In this workspace its one caller is the VR pipeline's
//! camera-pair fan-out (the paper's one-FPGA-per-pair split); the
//! kernels inside a pair, and every other kernel, are sequential loops.
//! The primitive carries a **determinism contract**:
//!
//! > The result is byte-identical regardless of the number of worker
//! > threads, including the sequential fallback at one thread.
//!
//! The contract holds by construction, not by luck: [`par_map`] only
//! ever computes values that are pure functions of the element's index,
//! and returns them in index order, so no scheduling is observable.
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
//! // Five independent units, results in index order at any pool size.
//! let squares = incam_parallel::par_map(5, |i| i * i);
//! assert_eq!(squares, [0, 1, 4, 9, 16]);
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

/// Reads an `INCAM_THREADS` value: a positive count, surrounding
/// whitespace allowed. Anything else (zero, negative, empty or
/// malformed) yields `fallback` rather than crashing a long pipeline run
/// on a typo.
fn parse_threads(value: &str, fallback: usize) -> usize {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => fallback,
    }
}

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("INCAM_THREADS") {
        Ok(v) => parse_threads(&v, default_threads()),
        Err(_) => default_threads(),
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
/// Because [`par_map`] is thread-count-deterministic, flipping the
/// override concurrently with a running region cannot change any result.
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
    fn thread_count_parse_accepts_positive_counts_only() {
        assert_eq!(parse_threads("4", 7), 4);
        assert_eq!(parse_threads(" 2 ", 7), 2);
        for bad in ["0", "", "-1", "four"] {
            assert_eq!(parse_threads(bad, 7), 7, "{bad:?} must fall back");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_override_rejected() {
        set_thread_override(Some(0));
    }
}
