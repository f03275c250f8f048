//! Before/after microbenchmarks for the hot-kernel speed pass: each of
//! the six reworked kernels (separable convolution, integral image,
//! bilateral grid pipeline, Viola-Jones scan, batched MLP forward, stereo
//! block matching) is measured against the original formulation it
//! replaced, which every crate keeps as a `*_reference` oracle. All pairs
//! compute bit-identical outputs — only the wall clock differs.
//!
//! Runs pinned to one worker thread: single-thread throughput is the
//! quantity the rework targets (pool scaling is the separate `parallel`
//! bench's job). Results land in `BENCH_kernels.json` (see
//! `INCAM_BENCH_DIR`); `results/kernel-speed.txt` records the methodology.

use incam_bilateral::grid::{BilateralGrid, GridParams};
use incam_bilateral::stereo::{block_match, block_match_reference, MatchParams};
use incam_imaging::convolve::{convolve_separable, convolve_separable_reference, gaussian_kernel};
use incam_imaging::image::GrayImage;
use incam_imaging::integral::IntegralImage;
use incam_imaging::scenes::stereo_scene;
use incam_nn::mlp::Mlp;
use incam_nn::sigmoid::Sigmoid;
use incam_nn::topology::Topology;
use incam_rng::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use incam_rng::rngs::StdRng;
use incam_rng::{Rng, SeedableRng};
use incam_viola::scan::{scan, scan_reference, ScanParams, StepSize};
use incam_viola::train::{train_cascade, CascadeTrainConfig};
use std::hint::black_box;

/// Runs `f` with the pool pinned to one worker, restoring the default.
fn single_thread(f: impl FnOnce()) {
    incam_parallel::set_thread_override(Some(1));
    f();
    incam_parallel::set_thread_override(None);
}

/// Separable convolution: fused ring-buffer fast path vs the original
/// per-pixel clamped two-pass formulation.
fn bench_convolve(c: &mut Criterion) {
    let img = GrayImage::from_fn(512, 384, |x, y| ((x * 7 + y * 13) % 97) as f32 / 97.0);
    let kernel = gaussian_kernel(2.0);
    let mut group = c.benchmark_group("convolve");
    group.bench_function(BenchmarkId::new("separable_512x384", "after"), |b| {
        single_thread(|| b.iter(|| convolve_separable(black_box(&img), black_box(&kernel))));
    });
    group.bench_function(BenchmarkId::new("separable_512x384", "before"), |b| {
        single_thread(|| {
            b.iter(|| convolve_separable_reference(black_box(&img), black_box(&kernel)))
        });
    });
    group.finish();
}

/// Integral image: fused single-pass row-carry vs the original
/// bounds-checked per-pixel two-pass construction.
fn bench_integral(c: &mut Criterion) {
    let img = GrayImage::from_fn(512, 384, |x, y| ((x * 11 + y * 5) % 89) as f32 / 89.0);
    let mut group = c.benchmark_group("integral");
    group.bench_function(BenchmarkId::new("build_512x384", "after"), |b| {
        single_thread(|| b.iter(|| IntegralImage::new(black_box(&img))));
    });
    group.bench_function(BenchmarkId::new("build_512x384", "before"), |b| {
        single_thread(|| b.iter(|| IntegralImage::new_reference(black_box(&img))));
    });
    group.finish();
}

/// Bilateral grid: tap-table splat + fused xyz blur + tap-table slice vs
/// the original per-tap splat/slice and per-axis blur passes.
fn bench_bilateral(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(21);
    let scene = stereo_scene(256, 192, 8, 4, &mut rng);
    let params = GridParams::new(4.0, 0.1);
    let mut group = c.benchmark_group("bilateral");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("pipeline_256x192", "after"), |b| {
        single_thread(|| {
            b.iter(|| {
                let mut grid = BilateralGrid::new(256, 192, params);
                grid.splat(black_box(&scene.right), black_box(&scene.disparity), None);
                grid.blur(2);
                grid.slice(black_box(&scene.right))
            })
        });
    });
    group.bench_function(BenchmarkId::new("pipeline_256x192", "before"), |b| {
        single_thread(|| {
            b.iter(|| {
                let mut grid = BilateralGrid::new(256, 192, params);
                grid.splat_reference(black_box(&scene.right), black_box(&scene.disparity), None);
                grid.blur_reference(2);
                grid.slice_reference(black_box(&scene.right))
            })
        });
    });
    group.finish();
}

/// Viola-Jones scan: per-scale compiled flat-offset cascade vs the
/// original per-feature coordinate-math evaluation.
fn bench_viola(c: &mut Criterion) {
    // Same workload as the committed thread-scaling sweep
    // (benches/parallel.rs), so the two baselines stay comparable.
    let mut rng = StdRng::seed_from_u64(22);
    let faces: Vec<GrayImage> = (0..80)
        .map(|_| {
            let id = incam_imaging::faces::Identity::sample(&mut rng);
            let nuisance = incam_imaging::faces::Nuisance::sample(&mut rng, 0.25);
            incam_imaging::faces::render_face(&id, &nuisance, 16, &mut rng)
        })
        .collect();
    let clutter: Vec<GrayImage> = (0..160)
        .map(|_| incam_imaging::faces::render_non_face(16, &mut rng))
        .collect();
    let cascade = train_cascade(&faces, &clutter, &CascadeTrainConfig::fast());
    let frame = GrayImage::from_fn(160, 120, |x, y| ((x * 7 + y * 13) % 97) as f32 / 97.0);
    let params = ScanParams {
        scale_factor: 1.25,
        step: StepSize::Static(2),
        min_scale: 1.0,
        min_neighbors: 1,
    };
    let mut group = c.benchmark_group("viola");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("scan_160x120", "after"), |b| {
        single_thread(|| b.iter(|| scan(black_box(&cascade.cascade), black_box(&frame), &params)));
    });
    group.bench_function(BenchmarkId::new("scan_160x120", "before"), |b| {
        single_thread(|| {
            b.iter(|| scan_reference(black_box(&cascade.cascade), black_box(&frame), &params))
        });
    });
    group.finish();
}

/// Batched MLP forward: flat tiled matmul vs independent per-example
/// forwards.
fn bench_nn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let net = Mlp::random(Topology::new(vec![400, 8, 1]), &mut rng);
    let batch: Vec<Vec<f32>> = (0..256)
        .map(|_| (0..400).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let mut group = c.benchmark_group("nn");
    group.bench_function(BenchmarkId::new("forward_batch_256x400", "after"), |b| {
        single_thread(|| b.iter(|| net.forward_batch(black_box(&batch), &Sigmoid::Exact)));
    });
    group.bench_function(BenchmarkId::new("forward_batch_256x400", "before"), |b| {
        single_thread(|| {
            b.iter(|| net.forward_batch_reference(black_box(&batch), &Sigmoid::Exact))
        });
    });
    group.finish();
}

/// Stereo block matching at the VR rig's per-camera size and B3 window
/// (r = 2, D = 8): row-slice tiled window sums vs the original per-pixel
/// clamped search.
fn bench_block_match(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(24);
    let scene = stereo_scene(128, 96, 8, 4, &mut rng);
    let params = MatchParams {
        max_disparity: 8,
        block_radius: 2,
    };
    let mut group = c.benchmark_group("stereo");
    group.bench_function(BenchmarkId::new("block_match_128x96", "after"), |b| {
        single_thread(|| {
            b.iter(|| block_match(black_box(&scene.left), black_box(&scene.right), &params))
        });
    });
    group.bench_function(BenchmarkId::new("block_match_128x96", "before"), |b| {
        single_thread(|| {
            b.iter(|| {
                block_match_reference(black_box(&scene.left), black_box(&scene.right), &params)
            })
        });
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_convolve,
    bench_integral,
    bench_bilateral,
    bench_viola,
    bench_nn,
    bench_block_match
);
criterion_main!(kernels);
