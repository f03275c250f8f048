//! Determinism smoke tests: every rendered study must be a pure function
//! of its seed — and, since the parallel substrate landed, of the seed
//! *only*: never of the worker-thread count.
//!
//! The hermetic substrate (`incam-rng`) guarantees a pinned stream per
//! seed, but a study could still leak nondeterminism through clocks,
//! hash-map iteration order, uninitialised buffers, or thread-count
//! dependent floating-point reduction orders. These tests run the FA and
//! VR pipeline smoke paths twice with the same seed — and again across
//! `incam_parallel` pool sizes 1 vs 4 — and assert the reports are
//! byte-identical.
//!
//! Workload parameters mirror the repro binary's `--quick` (CI-sized)
//! mode, scaled down: determinism holds at any size, so the smallest
//! workload that exercises the full code path is the right one.

use incam_bench::experiments::{chaos, fa_pipeline, fleet, verify, vr_studies};
use incam_wispcam::workload::TrainEffort;
use std::sync::Mutex;

const SEED: u64 = 2017;

/// Serialises tests that flip the process-global thread override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the pool pinned to `threads`, restoring the default.
fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    incam_parallel::set_thread_override(Some(threads));
    let out = f();
    incam_parallel::set_thread_override(None);
    out
}

#[test]
fn fa_pipeline_report_is_byte_identical_and_seed_dependent() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let report = |seed| fa_pipeline::render(&fa_pipeline::run(seed, 16, TrainEffort::Quick));
    let first = report(SEED);
    assert_eq!(first, report(SEED), "same seed must give identical report");
    // Guards against the degenerate way to pass the check above: a
    // study that ignores its seed entirely.
    assert_ne!(first, report(SEED + 1), "different seed must change report");
}

#[test]
fn vr_fig6_report_is_byte_identical_across_runs() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    assert_eq!(vr_studies::fig6(SEED), vr_studies::fig6(SEED));
}

#[test]
fn vr_fig7_report_is_byte_identical_across_runs() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    // Divisor 16.0 is the repro binary's --quick setting.
    let report = || vr_studies::render_fig7(&vr_studies::fig7(SEED, 16.0));
    assert_eq!(report(), report());
}

#[test]
fn fa_pipeline_report_is_byte_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let report = || fa_pipeline::render(&fa_pipeline::run(SEED, 16, TrainEffort::Quick));
    let sequential = at_threads(1, report);
    let pooled = at_threads(4, report);
    assert_eq!(
        sequential, pooled,
        "FA report must not depend on the worker-thread count"
    );
}

#[test]
fn vr_reports_are_byte_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let fig6_seq = at_threads(1, || vr_studies::fig6(SEED));
    let fig6_par = at_threads(4, || vr_studies::fig6(SEED));
    assert_eq!(
        fig6_seq, fig6_par,
        "VR fig6 report must not depend on the worker-thread count"
    );
    let fig7 = || vr_studies::render_fig7(&vr_studies::fig7(SEED, 16.0));
    let fig7_seq = at_threads(1, fig7);
    let fig7_par = at_threads(4, fig7);
    assert_eq!(
        fig7_seq, fig7_par,
        "VR fig7 report must not depend on the worker-thread count"
    );
}

#[test]
fn chaos_study_is_byte_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let report = || chaos::run(SEED, true);
    let sequential = at_threads(1, report);
    let pooled = at_threads(4, report);
    assert_eq!(
        sequential, pooled,
        "chaos report must not depend on the worker-thread count"
    );
    // Guards against the degenerate way to pass: a study that ignores
    // its seed (and hence its fault traces) entirely.
    assert_ne!(chaos::run(SEED, true), chaos::run(SEED + 1, true));
}

#[test]
fn fault_sweep_is_byte_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let sweep = || chaos::fault_sweep(SEED);
    assert_eq!(at_threads(1, sweep), at_threads(4, sweep));
    // Each sweep's first line prints its seed, so compare what follows
    // it: a sweep that ignored its seed would pass every check above.
    for sweep in [chaos::fault_sweep, fleet::sweep, verify::storm] {
        let grid = |seed: u64| {
            sweep(seed)
                .split_once('\n')
                .map(|(_, rest)| rest.to_owned())
        };
        assert_ne!(grid(SEED), grid(SEED + 1));
    }
}
