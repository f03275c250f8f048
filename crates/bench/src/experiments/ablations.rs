//! Ablation studies for the design choices `DESIGN.md` calls out:
//! detection grouping, bilateral-solver depth, accelerator scheduling
//! overheads, and the motion-gate threshold.

use crate::experiments::fig4c;
use incam_bilateral::grid::GridParams;
use incam_bilateral::stereo::{
    bssa_depth, normalize_disparity, BssaConfig, MatchParams, SolverParams,
};
use incam_core::explore::pareto_frontier;
use incam_core::report::{sig3, Table};
use incam_imaging::motion::MotionDetector;
use incam_imaging::noise::add_gaussian_noise;
use incam_imaging::quality::{ms_ssim, MsSsimConfig};
use incam_imaging::scenes::{stereo_scene_sloped, SecurityScene, SecuritySceneConfig};
use incam_nn::dataset::{FaceAuthConfig, FaceAuthDataset};
use incam_nn::eval::Confusion;
use incam_nn::mlp::Mlp;
use incam_nn::rprop::{train_rprop, RpropConfig};
use incam_nn::sigmoid::Sigmoid;
use incam_nn::topology::Topology;
use incam_nn::train::{train, TrainConfig};
use incam_rng::rngs::StdRng;
use incam_rng::SeedableRng;
use incam_snnap::config::SnnapConfig;
use incam_snnap::sweep::{geometry_sweep, optimal_geometry};
use incam_viola::eval::DetectionCounts;
use incam_viola::scan::{scan, ScanParams, StepSize};
use incam_vr::analysis::VrModel;
use incam_vr::configs::PipelineConfig;
use incam_vr::network::standard_links;

/// Detection-grouping ablation: the `min_neighbors` false-positive
/// suppressor trades recall for precision.
pub fn min_neighbors(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let cascade = fig4c::evaluation_cascade(&mut rng);
    let frames = fig4c::test_frames(30, 16, &mut rng);
    let mut table = Table::new(&["min_neighbors", "precision %", "recall %", "F1 %"]);
    for mn in [1usize, 2, 3, 4] {
        let params = ScanParams {
            scale_factor: 1.25,
            step: StepSize::Static(2),
            min_scale: 1.0,
            min_neighbors: mn,
        };
        let mut counts = DetectionCounts::default();
        for frame in &frames {
            let result = scan(&cascade.cascade, &frame.image, &params);
            counts.accumulate(&result.detections, &frame.truth, 0.25);
        }
        table.row_owned(vec![
            mn.to_string(),
            format!("{:.1}", 100.0 * counts.precision()),
            format!("{:.1}", 100.0 * counts.recall()),
            format!("{:.1}", 100.0 * counts.f1()),
        ]);
    }
    table.render()
}

/// Bilateral-solver ablation: refinement depth and smoothness weight
/// against the converged result.
pub fn solver(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let scene = stereo_scene_sloped(256, 192, 8, 6, 0.6, &mut rng);
    let left = add_gaussian_noise(&scene.left, 0.02, &mut rng);
    let right = add_gaussian_noise(&scene.right, 0.02, &mut rng);
    let run = |iterations: usize, lambda: f32| {
        let cfg = BssaConfig {
            matching: MatchParams {
                max_disparity: 8,
                block_radius: 1,
            },
            grid: GridParams::new(4.0, 0.15),
            solver: SolverParams {
                lambda,
                iterations,
                blur_per_iteration: 1,
            },
        };
        normalize_disparity(&bssa_depth(&left, &right, &cfg).disparity, 8)
    };
    let reference = run(40, 2.0);
    let mut table = Table::new(&["iterations", "lambda", "MS-SSIM vs converged"]);
    for iterations in [1usize, 5, 10, 20] {
        for lambda in [0.5f32, 2.0, 8.0] {
            let q = ms_ssim(
                &run(iterations, lambda),
                &reference,
                &MsSsimConfig::default(),
            );
            table.row_owned(vec![
                iterations.to_string(),
                sig3(lambda as f64),
                format!("{q:.3}"),
            ]);
        }
    }
    table.render()
}

/// Accelerator scheduling-overhead sensitivity: does the 8-PE optimum
/// survive different pipeline-fill and sequencer costs?
pub fn snnap_overheads() -> String {
    let mut table = Table::new(&["pass overhead", "layer setup", "energy-optimal PEs"]);
    for pass_overhead in [2u64, 8, 32] {
        for layer_setup in [2u64, 8, 32] {
            let cfg = SnnapConfig {
                pass_overhead,
                layer_setup,
                ..SnnapConfig::paper_default()
            };
            let rows = geometry_sweep(&Topology::paper_default(), &cfg, &[1, 2, 4, 8, 16, 32]);
            table.row_owned(vec![
                pass_overhead.to_string(),
                layer_setup.to_string(),
                optimal_geometry(&rows).to_string(),
            ]);
        }
    }
    table.render()
}

/// Motion-gate threshold ablation: gating rate on idle frames vs. the
/// risk of gating event frames.
pub fn motion_threshold(seed: u64) -> String {
    let mut table = Table::new(&[
        "pixel threshold",
        "idle frames gated %",
        "event frames gated %",
    ]);
    for threshold in [0.02f32, 0.05, 0.08, 0.16, 0.3] {
        let mut scene = SecurityScene::new(
            SecuritySceneConfig {
                event_rate: 0.06,
                ..Default::default()
            },
            StdRng::seed_from_u64(seed),
        );
        let frames = scene.frames(300);
        let mut md = MotionDetector::new(threshold, 0.01);
        let mut idle = (0usize, 0usize);
        let mut event = (0usize, 0usize);
        for frame in &frames {
            let motion = md.observe(&frame.image);
            let bucket = if frame.truth.person_present {
                &mut event
            } else {
                &mut idle
            };
            bucket.1 += 1;
            if !motion {
                bucket.0 += 1;
            }
        }
        let pct = |(gated, total): (usize, usize)| {
            if total == 0 {
                0.0
            } else {
                100.0 * gated as f64 / total as f64
            }
        };
        table.row_owned(vec![
            sig3(threshold as f64),
            format!("{:.1}", pct(idle)),
            format!("{:.1}", pct(event)),
        ]);
    }
    table.render()
}

/// Trainer comparison: FANN-style iRPROP⁻ batch training vs. the online
/// SGD+momentum trainer on the face-authentication task.
pub fn trainers(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = FaceAuthDataset::generate(
        &FaceAuthConfig {
            nuisance: 0.6,
            target_samples: 240,
            impostor_samples: 30,
            ..Default::default()
        },
        &mut rng,
    );
    let init = Mlp::random(Topology::paper_default(), &mut rng);
    let accuracy = |net: &Mlp| {
        Confusion::from_scores(
            dataset.test_scores(|x| net.forward(x, &Sigmoid::Exact)[0]),
            0.5,
        )
        .accuracy()
    };

    let mut table = Table::new(&["trainer", "epochs", "train MSE", "test accuracy %"]);
    {
        let mut net = init.clone();
        let report = train(
            &mut net,
            &dataset.train,
            &TrainConfig {
                learning_rate: 0.05,
                momentum: 0.9,
                max_epochs: 300,
                target_mse: 0.005,
            },
            &mut rng,
        );
        table.row_owned(vec![
            "SGD + momentum".into(),
            report.epochs.to_string(),
            format!("{:.4}", report.final_mse),
            format!("{:.1}", 100.0 * accuracy(&net)),
        ]);
    }
    {
        let mut net = init;
        let report = train_rprop(
            &mut net,
            &dataset.train,
            &RpropConfig {
                max_epochs: 300,
                target_mse: 0.005,
                ..Default::default()
            },
        );
        table.row_owned(vec![
            "iRPROP- (FANN default)".into(),
            report.epochs.to_string(),
            format!("{:.4}", report.final_mse),
            format!("{:.1}", 100.0 * accuracy(&net)),
        ]);
    }
    table.render()
}

/// Bandwidth sensitivity of the configuration space: how the VR Pareto
/// frontier (total FPS vs. upload bytes) shifts as the uplink scales
/// from Wi-Fi-class to 400 GbE.
pub fn frontier_vs_bandwidth() -> String {
    let model = VrModel::paper_default();
    let space = model.binding_space();
    let mut table = Table::new(&[
        "link",
        "frontier size",
        "frontier configs",
        "best total FPS",
    ]);
    for link in standard_links() {
        let analyses: Vec<_> = space
            .explore(&link)
            .filter(|a| PipelineConfig::paper_coupling(&a.config))
            .collect();
        let frontier = pareto_frontier(analyses);
        let labels: Vec<String> = frontier
            .iter()
            .map(|a| PipelineConfig::from_configuration(&a.config).label())
            .collect();
        let best = frontier
            .iter()
            .map(|a| a.total().fps())
            .fold(0.0f64, f64::max);
        table.row_owned(vec![
            link.name().to_string(),
            frontier.len().to_string(),
            labels.join(" "),
            sig3(best),
        ]);
    }
    table.render()
}

/// Runs all ablations.
pub fn run(seed: u64) -> String {
    format!(
        "-- detection grouping (min_neighbors) --\n{}\n\
         -- bilateral solver (iterations x lambda) --\n{}\n\
         -- accelerator scheduling overheads --\n{}\n\
         -- motion-gate threshold --\n{}\n\
         -- trainer comparison (SGD vs FANN-style iRPROP-) --\n{}\n\
         -- VR Pareto frontier vs uplink bandwidth --\n{}",
        min_neighbors(seed),
        solver(seed),
        snnap_overheads(),
        motion_threshold(seed),
        trainers(seed),
        frontier_vs_bandwidth(),
    )
}
