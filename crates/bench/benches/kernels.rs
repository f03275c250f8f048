//! Before/after microbenchmarks for the hot-kernel speed pass: each of
//! the reworked kernels (separable convolution, integral image,
//! bilateral grid pipeline, Viola-Jones scan, packed and quantized MLP
//! forward, stereo block matching, FA window scoring, verify alignment,
//! VR pre-processing and stitching) is measured against the original
//! formulation it replaced, which every crate keeps as a `*_reference`
//! oracle (B1's is the two-step `rgb_to_gray(&demosaic_bilinear(..))`).
//! All pairs compute bit-identical outputs — only the wall clock differs.
//!
//! Runs pinned to one worker thread: single-thread throughput is the
//! quantity the rework targets (pool scaling is the separate `parallel`
//! bench's job). Results land in `BENCH_kernels.json` (see
//! `INCAM_BENCH_DIR`); `results/kernel-speed.txt` records the methodology.

use incam_auth::align::{align_face_into, align_face_reference, AlignScratch};
use incam_auth::fleet::{build_service, request_trace, ProbePool};
use incam_auth::service::{Probe, ServiceConfig};
use incam_bench::experiments::verify::{canonical_load, canonical_plan};
use incam_bilateral::grid::{BilateralGrid, GridParams};
use incam_bilateral::stereo::{block_match, block_match_reference, MatchParams};
use incam_imaging::color::{demosaic_bilinear, rgb_to_gray};
use incam_imaging::convolve::{convolve_separable, convolve_separable_reference, gaussian_kernel};
use incam_imaging::image::GrayImage;
use incam_imaging::integral::IntegralImage;
use incam_imaging::resample::{resize_bilinear_reference, BilinearSampler};
use incam_imaging::scenes::{stereo_scene, SecurityScene, SecuritySceneConfig};
use incam_nn::mlp::{ActivationBuffers, Mlp};
use incam_nn::quant::{ForwardScratch, QuantizedMlp};
use incam_nn::sigmoid::Sigmoid;
use incam_nn::topology::Topology;
use incam_rng::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use incam_rng::rngs::StdRng;
use incam_rng::{Rng, SeedableRng};
use incam_snnap::{SnnapAccelerator, SnnapConfig};
use incam_viola::scan::{scan_reference, scan_with, ScanParams, ScanScratch, StepSize};
use incam_viola::train::{train_cascade, CascadeTrainConfig};
use incam_vr::blocks::preprocess::preprocess;
use incam_vr::blocks::stitch::{stitch, stitch_reference, PairDepth};
use incam_vr::frame::to_bayer_raw;
use incam_wispcam::pipeline::FaPipelineConfig;
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

/// Viola-Jones scan: the stumps the stages read, compiled per scale into
/// flat offsets and scanned in one reused scratch, vs the original
/// per-feature coordinate-math evaluation.
fn bench_viola(c: &mut Criterion) {
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
        let mut scratch = ScanScratch::default();
        single_thread(|| {
            b.iter(|| {
                scan_with(
                    black_box(&cascade.cascade),
                    black_box(&frame),
                    &params,
                    &mut scratch,
                )
            })
        });
    });
    group.bench_function(BenchmarkId::new("scan_160x120", "before"), |b| {
        single_thread(|| {
            b.iter(|| scan_reference(black_box(&cascade.cascade), black_box(&frame), &params))
        });
    });
    group.finish();
}

/// Packed forward at the verify head's shape (400 → 64 → 32): weights
/// packed once into 16-neuron groups and 256 inputs run through reused
/// buffers vs `Mlp::forward` per input. Quantized forward at the FA
/// authenticator's shape and 8-bit datapath (400 → 8 → 1): i16 codes and
/// i32 partial sums in reused scratch vs the allocating i64 loop, over
/// the same 256 inputs.
fn bench_nn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let net = Mlp::random(Topology::new(vec![400, 8, 1]), &mut rng);
    let batch: Vec<Vec<f32>> = (0..256)
        .map(|_| (0..400).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let head = Mlp::random(Topology::new(vec![400, 64, 32]), &mut rng);
    let mut group = c.benchmark_group("nn");
    group.bench_function(BenchmarkId::new("forward_400x64x32", "after"), |b| {
        let packed = head.pack();
        let mut buffers = ActivationBuffers::default();
        single_thread(|| {
            b.iter(|| {
                batch.iter().fold(0.0f32, |sum, x| {
                    sum + packed.forward_into(black_box(x), &Sigmoid::Exact, &mut buffers)[0]
                })
            })
        });
    });
    group.bench_function(BenchmarkId::new("forward_400x64x32", "before"), |b| {
        single_thread(|| {
            b.iter(|| {
                batch.iter().fold(0.0f32, |sum, x| {
                    sum + head.forward(black_box(x), &Sigmoid::Exact)[0]
                })
            })
        });
    });
    let quantized = QuantizedMlp::from_mlp(&net, 8, Sigmoid::lut256());
    let id = "quantized_forward_400x8x1";
    group.bench_function(BenchmarkId::new(id, "after"), |b| {
        let mut scratch = ForwardScratch::default();
        single_thread(|| {
            b.iter(|| {
                batch.iter().fold(0.0f32, |sum, x| {
                    sum + quantized.forward_into(black_box(x), &mut scratch)[0]
                })
            })
        });
    });
    group.bench_function(BenchmarkId::new(id, "before"), |b| {
        single_thread(|| {
            b.iter(|| {
                batch.iter().fold(0.0f32, |sum, x| {
                    sum + quantized.forward_reference(black_box(x))[0]
                })
            })
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

/// FA window scoring over one security-camera frame's dense NN grid
/// (160×120, sides 20–44 at stride 4: 3,170 windows): each window sampled
/// straight from the frame and scored in reused scratch vs crop → resize
/// → copy → allocating forward, the per-window work of an NN-only frame.
fn bench_fa_window(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(25);
    let net = Mlp::random(Topology::paper_default(), &mut rng);
    let accelerator = SnnapAccelerator::new(&net, SnnapConfig::paper_default());
    let q = accelerator.network();
    let frame = SecurityScene::new(SecuritySceneConfig::default(), rng)
        .frames(1)
        .remove(0)
        .image;
    let config = FaPipelineConfig::full_accelerated();
    let n = config.nn_input_side;
    let (w, h) = frame.dims();
    let mut windows = Vec::new();
    for &side in &config.grid_sides {
        for y in (0..=h - side).step_by(config.grid_stride) {
            for x in (0..=w - side).step_by(config.grid_stride) {
                windows.push((x, y, side, side));
            }
        }
    }
    assert_eq!(windows.len(), 3170, "the paper-default dense grid");
    let mut group = c.benchmark_group("fa");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("score_window", "after"), |b| {
        let mut sampler = BilinearSampler::default();
        let mut window = vec![0.0; n * n];
        let mut scratch = ForwardScratch::default();
        single_thread(|| {
            b.iter(|| {
                windows.iter().fold(0.0f32, |best, &rect| {
                    sampler.sample_into(black_box(&frame), rect, (n, n), &mut window);
                    best.max(q.forward_into(&window, &mut scratch)[0])
                })
            })
        });
    });
    group.bench_function(BenchmarkId::new("score_window", "before"), |b| {
        single_thread(|| {
            b.iter(|| {
                windows.iter().fold(0.0f32, |best, &(x, y, side, _)| {
                    let crop = black_box(&frame).crop(x, y, side, side);
                    let window = resize_bilinear_reference(&crop, n, n).to_vec_f32();
                    best.max(q.forward_reference(&window)[0])
                })
            })
        });
    });
    group.finish();
}

/// Verify alignment over the canonical 640-request trace's probes (48×48,
/// magnifications 1.44–3.30, so every probe is blurred): the Gaussian
/// taps, blur and warp in one reused scratch vs blur into a new image and
/// warp into another.
fn bench_verify_align(c: &mut Criterion) {
    let load = canonical_load(false);
    let config = ServiceConfig::experiment_default();
    let (service, identities) = build_service(load.users, canonical_plan(), config, 2017);
    let pool = ProbePool::render(&identities, load.probe_variants, load.nuisance, 2017);
    let probes: Vec<Probe> = request_trace(&load, &pool)
        .into_iter()
        .map(|(request, _)| request.probe)
        .collect();
    assert_eq!(probes.len(), 640, "the canonical trace");
    let side = service.head().side();
    let mut group = c.benchmark_group("verify");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("align_640", "after"), |b| {
        let mut scratch = AlignScratch::default();
        single_thread(|| {
            b.iter(|| {
                probes.iter().fold(0.0f32, |sum, p| {
                    let window =
                        align_face_into(black_box(&p.image), &p.landmarks, side, &mut scratch);
                    sum + window.map_or(0.0, |w| w[0])
                })
            })
        });
    });
    group.bench_function(BenchmarkId::new("align_640", "before"), |b| {
        single_thread(|| {
            b.iter(|| {
                probes.iter().fold(0.0f32, |sum, p| {
                    let window = align_face_reference(black_box(&p.image), &p.landmarks, side);
                    sum + window.map_or(0.0, |w| w.get(0, 0))
                })
            })
        });
    });
    group.finish();
}

/// VR blocks B1 and B4 at the rig's per-camera size: demosaic straight to
/// luma over three raw rows vs demosaic to RGB then convert, and the
/// 16-segment stitch over row slices (feather and blend weight once per
/// column) vs the per-pixel accumulate-and-sample stitch.
fn bench_vr(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(25);
    let raw = to_bayer_raw(&stereo_scene(128, 96, 8, 4, &mut rng).right);
    let pairs: Vec<PairDepth> = (0..16)
        .map(|_| {
            let scene = stereo_scene(128, 96, 8, 4, &mut rng);
            PairDepth {
                reference: scene.right,
                disparity: scene.disparity,
            }
        })
        .collect();
    let mut group = c.benchmark_group("vr");
    group.bench_function(BenchmarkId::new("preprocess_128x96", "after"), |b| {
        single_thread(|| b.iter(|| preprocess(black_box(&raw))));
    });
    group.bench_function(BenchmarkId::new("preprocess_128x96", "before"), |b| {
        single_thread(|| b.iter(|| rgb_to_gray(&demosaic_bilinear(black_box(&raw)))));
    });
    group.bench_function(BenchmarkId::new("stitch_16x128x96", "after"), |b| {
        single_thread(|| b.iter(|| stitch(black_box(&pairs), 16, 0.5)));
    });
    group.bench_function(BenchmarkId::new("stitch_16x128x96", "before"), |b| {
        single_thread(|| b.iter(|| stitch_reference(black_box(&pairs), 16, 0.5)));
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
    bench_block_match,
    bench_fa_window,
    bench_verify_align,
    bench_vr
);
criterion_main!(kernels);
