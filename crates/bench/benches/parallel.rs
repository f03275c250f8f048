//! Thread-scaling bench for the `incam-parallel` pool's one caller: the
//! VR pipeline's camera-pair fan-out, swept at 1/2/4/8 worker threads
//! via the programmatic override. Because `par_map` is thread-count
//! deterministic, every sweep point computes the *same* bytes — only the
//! wall clock may change. Every other kernel is a sequential loop at any
//! pool size, so the sweep has nothing else to show.
//!
//! Results land in `BENCH_parallel.json` (see `INCAM_BENCH_DIR`). On a
//! host with fewer cores than the larger pool sizes the sweep is still
//! meaningful as a regression guard: it bounds the overhead of the pool
//! at thread counts above the available parallelism.

use incam_rng::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use incam_rng::rngs::StdRng;
use incam_rng::SeedableRng;
use incam_vr::blocks::run_functional_pipeline;
use incam_vr::frame::synthetic_capture;
use incam_vr::rig::CameraRig;
use std::hint::black_box;

/// Pool sizes swept.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs `f` with the pool pinned to `threads`, restoring the default.
fn with_threads(threads: usize, f: impl FnOnce()) {
    incam_parallel::set_thread_override(Some(threads));
    f();
    incam_parallel::set_thread_override(None);
}

/// Per-camera-pair fan-out of the VR functional pipeline (vr crate).
fn bench_vr(c: &mut Criterion) {
    let rig = CameraRig::scaled(4, 96, 64);
    let mut rng = StdRng::seed_from_u64(24);
    let capture = synthetic_capture(&rig, 6, &mut rng);

    let mut group = c.benchmark_group("scaling_vr");
    group.sample_size(10);
    for t in THREADS {
        group.bench_with_input(BenchmarkId::new("pipeline_4cam_96px", t), &t, |b, &t| {
            with_threads(t, || {
                b.iter(|| run_functional_pipeline(black_box(&capture)))
            });
        });
    }
    group.finish();
}

criterion_group!(parallel, bench_vr);
criterion_main!(parallel);
