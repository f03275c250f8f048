//! Fig. 4c — impact of the Viola-Jones scan parameters (scale factor,
//! static step size, adaptive step size) on relative detection accuracy.

use incam_core::block::{Backend, BlockSpec, DataTransform};
use incam_core::explore::{first_best, Binding, BlockSpace, ConfigAnalysis, PipelineSpace};
use incam_core::link::Link;
use incam_core::pipeline::Source;
use incam_core::report::{sig3, Table};
use incam_core::units::{Bytes, BytesPerSec, Fps, Joules};
use incam_imaging::draw::blit;
use incam_imaging::faces::{render_face, Identity, Nuisance};
use incam_imaging::image::GrayImage;
use incam_imaging::noise::add_gaussian_noise;
use incam_rng::rngs::StdRng;
use incam_rng::{Rng, SeedableRng};
use incam_viola::eval::{relative_to_best, DetectionCounts, SweepPoint};
use incam_viola::scan::{scan, Detection, ScanParams, StepSize};
use incam_viola::train::{train_cascade, CascadeTrainConfig, TrainedCascade};

/// A labeled test frame: clutter plus zero or more planted faces.
pub struct TestFrame {
    /// The frame.
    pub image: GrayImage,
    /// Ground-truth face boxes.
    pub truth: Vec<Detection>,
}

/// Renders evaluation frames with faces planted at random positions and
/// sizes (faces span 1.2–3× the detector's base window so the multi-scale
/// scan is genuinely exercised).
pub fn test_frames(n: usize, base_window: usize, rng: &mut StdRng) -> Vec<TestFrame> {
    (0..n)
        .map(|_| {
            let mut image = GrayImage::new(128, 96, 0.45);
            // clutter rectangles
            for _ in 0..4 {
                incam_imaging::draw::fill_rect(
                    &mut image,
                    rng.gen_range(0..100) as isize,
                    rng.gen_range(0..70) as isize,
                    rng.gen_range(6..28),
                    rng.gen_range(6..28),
                    rng.gen_range(0.15..0.85),
                );
            }
            let mut truth = Vec::new();
            let faces = rng.gen_range(0..=2);
            for _ in 0..faces {
                let side = (base_window as f32 * rng.gen_range(1.2..3.0)).round() as usize;
                let x = rng.gen_range(0..(128 - side));
                let y = rng.gen_range(0..(96 - side));
                let id = Identity::sample(rng);
                let face = render_face(&id, &Nuisance::sample(rng, 0.2), side, rng);
                blit(&mut image, &face, x as isize, y as isize);
                truth.push(Detection { x, y, side });
            }
            TestFrame {
                image: add_gaussian_noise(&image, 0.01, rng),
                truth,
            }
        })
        .collect()
}

/// Trains the evaluation cascade.
///
/// Note (see `EXPERIMENTS.md`): a production Viola-Jones cascade is
/// trained on millions of negatives and reaches per-window false-positive
/// rates near 1e-6; this laptop-sized synthetic cascade cannot, so
/// absolute precision at the densest scan settings sits below the
/// paper's. The recall and F1 *trends* across the swept parameters are
/// what the experiment reproduces.
pub fn evaluation_cascade(rng: &mut StdRng) -> TrainedCascade {
    let cfg = CascadeTrainConfig {
        base_window: 16,
        position_stride: 3,
        size_stride: 3,
        stage_sizes: vec![2, 5, 10, 20, 40, 60],
        min_detection_rate: 0.99,
        min_negatives: 8,
    };
    let pos: Vec<GrayImage> = (0..300)
        .map(|_| {
            let id = Identity::sample(rng);
            render_face(&id, &Nuisance::sample(rng, 0.2), 16, rng)
        })
        .collect();
    let neg: Vec<GrayImage> = (0..800)
        .map(|_| incam_imaging::faces::render_non_face(16, rng))
        .collect();
    train_cascade(&pos, &neg, &cfg)
}

/// Evaluates one scan configuration over the frames.
pub fn evaluate_params(
    cascade: &TrainedCascade,
    frames: &[TestFrame],
    params: &ScanParams,
    parameter: f64,
) -> SweepPoint {
    let mut counts = DetectionCounts::default();
    let mut windows = 0u64;
    for frame in frames {
        let result = scan(&cascade.cascade, &frame.image, params);
        counts.accumulate(&result.detections, &frame.truth, 0.25);
        windows += result.stats.windows;
    }
    SweepPoint {
        parameter,
        counts,
        windows_per_frame: windows as f64 / frames.len() as f64,
    }
}

/// The three panel sweeps of Fig. 4c.
pub struct Fig4cResult {
    /// Scale-factor panel (step fixed at 2 px static).
    pub scale_factor: Vec<SweepPoint>,
    /// Static-step panel (scale factor fixed at 1.25).
    pub static_step: Vec<SweepPoint>,
    /// Adaptive-step panel (scale factor fixed at 1.25).
    pub adaptive_step: Vec<SweepPoint>,
}

/// Runs the full Fig. 4c experiment.
pub fn run(seed: u64) -> Fig4cResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let cascade = evaluation_cascade(&mut rng);
    let frames = test_frames(30, 16, &mut rng);

    let scale_factor = [1.25, 1.5, 1.75, 2.0]
        .iter()
        .map(|&sf| {
            evaluate_params(
                &cascade,
                &frames,
                &ScanParams {
                    scale_factor: sf,
                    step: StepSize::Static(2),
                    min_scale: 1.0,
                    min_neighbors: 2,
                },
                sf,
            )
        })
        .collect();
    let static_step = [4usize, 8, 12, 16]
        .iter()
        .map(|&step| {
            evaluate_params(
                &cascade,
                &frames,
                &ScanParams {
                    scale_factor: 1.25,
                    step: StepSize::Static(step),
                    min_scale: 1.0,
                    min_neighbors: 2,
                },
                step as f64,
            )
        })
        .collect();
    let adaptive_step = [0.0, 0.1, 0.2, 0.3, 0.4]
        .iter()
        .map(|&frac| {
            evaluate_params(
                &cascade,
                &frames,
                &ScanParams {
                    scale_factor: 1.25,
                    step: StepSize::Adaptive(frac),
                    min_scale: 1.0,
                    min_neighbors: 2,
                },
                frac,
            )
        })
        .collect();

    Fig4cResult {
        scale_factor,
        static_step,
        adaptive_step,
    }
}

/// Nominal in-camera scan throughput (windows/s) used to turn a panel's
/// measured windows/frame into a candidate-binding frame rate.
pub const SCAN_WINDOW_RATE: f64 = 100_000.0;

/// Nominal per-window scan energy (nJ) for the candidate bindings.
pub const SCAN_WINDOW_ENERGY_NJ: f64 = 120.0;

/// Minimum relative F1 (vs. the panel's best) a scan binding must keep
/// to stay in the explored space.
pub const ACCURACY_FLOOR: f64 = 0.9;

/// The scale-factor panel recast as a configuration space: each swept
/// scale factor is one candidate binding of a single FD block, with
/// throughput and energy following the measured windows/frame; the cut
/// decides raw-frame offload vs. shipping only the detections.
pub fn scan_binding_space(points: &[SweepPoint]) -> PipelineSpace {
    let bindings = points
        .iter()
        .map(|p| {
            Binding::new(
                Backend::Mcu,
                Fps::new(SCAN_WINDOW_RATE / p.windows_per_frame),
            )
            .with_energy_per_frame(Joules::from_nano(
                SCAN_WINDOW_ENERGY_NJ * p.windows_per_frame,
            ))
        })
        .collect();
    PipelineSpace::new(Source::new(
        "S",
        Bytes::new((128 * 96) as f64),
        Fps::new(30.0),
    ))
    .with_block(BlockSpace::new(
        BlockSpec::core("FD", DataTransform::Fixed(Bytes::new(64.0))),
        bindings,
    ))
}

/// Explores [`scan_binding_space`] over a Wi-Fi-class uplink, pruning
/// in-camera bindings below [`ACCURACY_FLOOR`] relative F1 — the scan
/// parameter sweep and the offload decision driven through one engine.
pub fn render_explore(result: &Fig4cResult) -> String {
    let points = &result.scale_factor;
    let f1: Vec<f64> = points.iter().map(|p| p.counts.f1()).collect();
    let rf1 = relative_to_best(&f1);
    let space = scan_binding_space(points);
    let link = Link::new("wifi-class", BytesPerSec::from_bits_per_sec(2.0e6), 0.7);
    let keep = |c: &incam_core::explore::Configuration| {
        c.cut() == 0 || rf1[c.bindings()[0]] >= ACCURACY_FLOOR
    };

    let mut table = Table::new(&[
        "configuration",
        "rel F1 %",
        "windows/frame",
        "compute FPS",
        "comm FPS",
        "total FPS",
        "admissible?",
    ]);
    for analysis in space.explore(&link) {
        let (desc, rel, windows) = if analysis.config.cut() == 0 {
            (
                "raw offload (cloud scan)".to_string(),
                "-".to_string(),
                "-".to_string(),
            )
        } else {
            let p = &points[analysis.config.bindings()[0]];
            (
                format!("in-camera scan, scale {}", sig3(p.parameter)),
                format!("{:.1}", 100.0 * rf1[analysis.config.bindings()[0]]),
                format!("{:.0}", p.windows_per_frame),
            )
        };
        table.row_owned(vec![
            desc,
            rel,
            windows,
            sig3(analysis.compute.fps()),
            sig3(analysis.communication.fps()),
            sig3(analysis.total().fps()),
            if keep(&analysis.config) { "yes" } else { "no" }.to_string(),
        ]);
    }
    let best = first_best(
        space.explore(&link).filter(|a| keep(&a.config)),
        ConfigAnalysis::total,
    )
    .expect("the raw-offload configuration is always admissible"); // incam-lint: allow(fallible-unwrap) — `keep` admits the raw-offload cut, so the space is never empty
    format!(
        "-- configuration space (scale-factor bindings x offload cut, {} uplink) --\n{}\
         best admissible configuration: {} at {} FPS\n",
        link.name(),
        table.render(),
        best.label,
        sig3(best.total().fps())
    )
}

/// Renders the result as the figure's three panels, with accuracy
/// normalized to each panel's best configuration.
pub fn render(result: &Fig4cResult) -> String {
    let mut out = String::new();
    for (title, points) in [
        ("Scale Factor", &result.scale_factor),
        ("Step Size (static)", &result.static_step),
        ("Step Size (adaptive)", &result.adaptive_step),
    ] {
        let f1: Vec<f64> = points.iter().map(|p| p.counts.f1()).collect();
        let precision: Vec<f64> = points.iter().map(|p| p.counts.precision()).collect();
        let recall: Vec<f64> = points.iter().map(|p| p.counts.recall()).collect();
        let (rf1, rp, rr) = (
            relative_to_best(&f1),
            relative_to_best(&precision),
            relative_to_best(&recall),
        );
        let mut table = Table::new(&[
            "param",
            "rel F1 %",
            "rel precision %",
            "rel recall %",
            "windows/frame",
        ]);
        for (i, p) in points.iter().enumerate() {
            table.row_owned(vec![
                sig3(p.parameter),
                format!("{:.1}", 100.0 * rf1[i]),
                format!("{:.1}", 100.0 * rp[i]),
                format!("{:.1}", 100.0 * rr[i]),
                format!("{:.0}", p.windows_per_frame),
            ]);
        }
        out.push_str(&format!("-- {title} --\n{}\n", table.render()));
    }
    out.push_str(&render_explore(result));
    out
}
