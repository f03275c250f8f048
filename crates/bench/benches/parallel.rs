//! Thread-scaling benches for the `incam-parallel` substrate: every
//! kernel that still dispatches to the pool, swept at 1/2/4/8 worker
//! threads via the programmatic override. Because all primitives are
//! thread-count deterministic, every sweep point computes the *same*
//! bytes — only the wall clock may change. Kernels that run as one
//! sequential pass (separable convolution, integral image, grid blur,
//! block matching, the Viola-Jones scan) are not swept: the pool never
//! sees them.
//!
//! Results land in `BENCH_parallel.json` (see `INCAM_BENCH_DIR`). On a
//! host with fewer cores than the larger pool sizes the sweep is still
//! meaningful as a regression guard: it bounds the overhead of the pool
//! at thread counts above the available parallelism.

use incam_bilateral::grid::{BilateralGrid, GridParams};
use incam_imaging::image::GrayImage;
use incam_imaging::quality::{ms_ssim, MsSsimConfig};
use incam_imaging::scenes::stereo_scene;
use incam_nn::mlp::Mlp;
use incam_nn::sigmoid::Sigmoid;
use incam_nn::topology::Topology;
use incam_rng::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use incam_rng::rngs::StdRng;
use incam_rng::{Rng, SeedableRng};
use incam_vr::blocks::run_functional_pipeline;
use incam_vr::frame::synthetic_capture;
use incam_vr::rig::CameraRig;
use std::hint::black_box;

/// Pool sizes swept by every group.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs `f` with the pool pinned to `threads`, restoring the default.
fn with_threads(threads: usize, f: impl FnOnce()) {
    incam_parallel::set_thread_override(Some(threads));
    f();
    incam_parallel::set_thread_override(None);
}

/// MS-SSIM: sequential separable blurs around row-parallel products
/// (imaging crate).
fn bench_imaging(c: &mut Criterion) {
    let img = GrayImage::from_fn(512, 384, |x, y| ((x * 7 + y * 13) % 97) as f32 / 97.0);
    let noisy = GrayImage::from_fn(512, 384, |x, y| ((x * 11 + y * 5) % 89) as f32 / 89.0);
    let mut group = c.benchmark_group("scaling_imaging");
    group.sample_size(10);
    for t in THREADS {
        group.bench_with_input(BenchmarkId::new("ms_ssim_512x384", t), &t, |b, &t| {
            with_threads(t, || {
                b.iter(|| ms_ssim(black_box(&img), black_box(&noisy), &MsSsimConfig::default()))
            });
        });
    }
    group.finish();
}

/// Bilateral-grid splat + blur + slice: the slice gathers rows on the
/// pool (bilateral crate).
fn bench_bilateral(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(21);
    let scene = stereo_scene(256, 192, 8, 4, &mut rng);
    let params = GridParams::new(4.0, 0.1);

    let mut group = c.benchmark_group("scaling_bilateral");
    for t in THREADS {
        group.bench_with_input(BenchmarkId::new("splat_blur_slice_256", t), &t, |b, &t| {
            with_threads(t, || {
                b.iter(|| {
                    let mut grid = BilateralGrid::new(256, 192, params);
                    grid.splat(black_box(&scene.right), black_box(&scene.disparity), None);
                    grid.blur(2);
                    grid.slice(black_box(&scene.right))
                })
            });
        });
    }
    group.finish();
}

/// Batched MLP inference (nn crate).
fn bench_nn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let net = Mlp::random(Topology::new(vec![400, 8, 1]), &mut rng);
    let batch: Vec<Vec<f32>> = (0..256)
        .map(|_| (0..400).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();

    let mut group = c.benchmark_group("scaling_nn");
    for t in THREADS {
        group.bench_with_input(BenchmarkId::new("forward_batch_256x400", t), &t, |b, &t| {
            with_threads(t, || {
                b.iter(|| net.forward_batch(black_box(&batch), &Sigmoid::Exact))
            });
        });
    }
    group.finish();
}

/// Per-camera fan-out of the VR functional pipeline (vr crate).
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

criterion_group!(parallel, bench_imaging, bench_bilateral, bench_nn, bench_vr);
criterion_main!(parallel);
