//! Ready-made workload assembly: scene, trained detector and trained
//! authenticator in one call, shared by examples, integration tests and
//! the reproduction harness.

use crate::pipeline::{FaPipeline, FaPipelineConfig};
use crate::radio::BackscatterRadio;
use crate::sensor::ImageSensor;
use incam_imaging::draw::{blit, fill_rect};
use incam_imaging::faces::{render_face, render_non_face, Identity, Nuisance};
use incam_imaging::image::GrayImage;
use incam_imaging::resample::resize_bilinear;
use incam_imaging::scenes::{LabeledFrame, SecurityScene, SecuritySceneConfig};
use incam_nn::mlp::Mlp;
use incam_nn::topology::Topology;
use incam_nn::train::{train, TrainConfig, TrainingSet};
use incam_rng::rngs::StdRng;
use incam_rng::{Rng, SeedableRng};
use incam_snnap::config::SnnapConfig;
use incam_snnap::sim::SnnapAccelerator;
use incam_viola::scan::ScanParams;
use incam_viola::train::{train_cascade, CascadeTrainConfig, TrainedCascade};

/// Training-effort presets for workload assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainEffort {
    /// Small sample counts / few epochs — unit tests and doc examples.
    Quick,
    /// The counts used for the paper-style evaluation numbers.
    Full,
}

/// Everything needed to run the face-authentication case study.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The labeled frame stream.
    pub frames: Vec<LabeledFrame>,
    /// The enrolled identity.
    pub enrolled: Identity,
    /// The float reference authenticator network.
    pub reference_net: Mlp,
    /// The trained face-detection cascade.
    pub detector: TrainedCascade,
    /// Scan parameters used by the detection block.
    pub scan_params: ScanParams,
}

impl Workload {
    /// Generates a scene, trains the detector and authenticator, and
    /// renders `n_frames` of labeled video.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use incam_wispcam::workload::{TrainEffort, Workload};
    ///
    /// let w = Workload::generate(7, 120, TrainEffort::Quick);
    /// assert_eq!(w.frames.len(), 120);
    /// ```
    pub fn generate(seed: u64, n_frames: usize, effort: TrainEffort) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scene_cfg = SecuritySceneConfig {
            event_rate: 0.06,
            ..Default::default()
        };
        let mut scene = SecurityScene::new(scene_cfg, StdRng::seed_from_u64(seed ^ 0x5eed));
        let frames = scene.frames(n_frames);
        let enrolled = scene.enrolled().clone();
        let impostors: Vec<Identity> = scene.cast()[1..].to_vec();

        let (pos_n, imp_n, epochs) = match effort {
            TrainEffort::Quick => (60, 20, 40),
            TrainEffort::Full => (200, 40, 150),
        };
        let reference_net =
            train_authenticator(&enrolled, &impostors, pos_n, imp_n, epochs, 20, &mut rng);

        let detector = train_detector(&mut rng, effort);
        Self {
            frames,
            enrolled,
            reference_net,
            detector,
            scan_params: ScanParams::default(),
        }
    }

    /// Assembles an [`FaPipeline`] for this workload under `config`.
    pub fn pipeline(&self, config: FaPipelineConfig) -> FaPipeline {
        let accelerator = SnnapAccelerator::new(&self.reference_net, SnnapConfig::paper_default());
        let detector = config.face_detection.then(|| self.detector.clone());
        FaPipeline::new(
            config,
            ImageSensor::wispcam_default(),
            BackscatterRadio::wispcam_default(),
            detector,
            self.scan_params,
            accelerator,
        )
    }
}

/// Trains a float authenticator for `enrolled` against `impostors`.
///
/// Renders `pos_n` enrolled captures and `imp_n` per impostor at 24×24,
/// downsampled to `input_side`, and trains a `input_side²-8-1` network.
pub fn train_authenticator(
    enrolled: &Identity,
    impostors: &[Identity],
    pos_n: usize,
    imp_n: usize,
    epochs: usize,
    input_side: usize,
    rng: &mut impl Rng,
) -> Mlp {
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    {
        let mut push = |id: &Identity, label: f32, mut rng: &mut dyn incam_rng::RngCore| {
            // deployment realism: half the samples are tight renders with
            // alignment jitter, half are detector-style crops of the face
            // embedded in scene context — the two window geometries the
            // authenticator actually sees
            let nz = Nuisance::sample(&mut rng, 0.35);
            let face = render_face(id, &nz, 24, &mut rng);
            let window = if incam_rng::Rng::gen_bool(&mut rng, 0.5) {
                scene_like_crop(&face, &mut rng)
            } else {
                face
            };
            inputs.push(resize_bilinear(&window, input_side, input_side).to_vec_f32());
            targets.push(vec![label]);
        };
        for _ in 0..pos_n {
            push(enrolled, 1.0, rng);
        }
        for id in impostors {
            for _ in 0..imp_n {
                push(id, 0.0, rng);
            }
        }
    }
    let data = TrainingSet::new(inputs, targets);
    let mut net = Mlp::random(Topology::new(vec![input_side * input_side, 8, 1]), rng);
    train(
        &mut net,
        &data,
        &TrainConfig {
            learning_rate: 0.05,
            momentum: 0.9,
            max_epochs: epochs,
            target_mse: 0.015,
        },
        rng,
    );
    net
}

/// Embeds a rendered face into scene-like context (background plus a body
/// under the head) and crops it with detector-style geometry jitter: a
/// window 1.0–1.4× the face side, offset by up to ±3 px.
fn scene_like_crop(face: &GrayImage, rng: &mut dyn incam_rng::RngCore) -> GrayImage {
    use incam_rng::Rng as _;
    let fs = face.width();
    let ctx = fs * 2;
    let mut patch = GrayImage::new(ctx, ctx, rng.gen_range(0.25..0.55));
    // body below the head, as in the walk-through scene
    fill_rect(
        &mut patch,
        (ctx / 2 - fs / 2) as isize,
        (ctx / 2 + fs / 2) as isize,
        fs,
        ctx / 2,
        0.45,
    );
    blit(
        &mut patch,
        face,
        (ctx / 2 - fs / 2) as isize,
        (ctx / 2 - fs / 2) as isize,
    );
    let side = ((fs as f32) * rng.gen_range(1.0..1.25)) as usize;
    let max_off = ctx - side;
    let cx = (ctx / 2).saturating_sub(side / 2);
    let jitter = |c: usize, rng: &mut dyn incam_rng::RngCore| -> usize {
        let j = rng.gen_range(-2i32..=2);
        (c as i32 + j).clamp(0, max_off as i32) as usize
    };
    let x = jitter(cx, rng);
    let y = jitter(cx, rng);
    patch.crop(x, y, side, side)
}

/// Trains a generic (identity-agnostic) face-detection cascade.
pub fn train_detector(rng: &mut StdRng, effort: TrainEffort) -> TrainedCascade {
    let (n_pos, n_neg, cfg) = match effort {
        TrainEffort::Quick => (60, 120, CascadeTrainConfig::fast()),
        TrainEffort::Full => (
            200,
            400,
            CascadeTrainConfig {
                base_window: 16,
                position_stride: 3,
                size_stride: 3,
                stage_sizes: vec![2, 5, 10, 20],
                min_detection_rate: 0.99,
                min_negatives: 8,
            },
        ),
    };
    let side = cfg.base_window;
    let pos: Vec<_> = (0..n_pos)
        .map(|_| {
            let id = Identity::sample(rng);
            render_face(&id, &Nuisance::sample(rng, 0.25), side, rng)
        })
        .collect();
    let neg: Vec<_> = (0..n_neg).map(|_| render_non_face(side, rng)).collect();
    train_cascade(&pos, &neg, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FaPipelineConfig;

    #[test]
    fn workload_assembles_and_runs() {
        let w = Workload::generate(99, 30, TrainEffort::Quick);
        assert_eq!(w.frames.len(), 30);
        let mut p = w.pipeline(FaPipelineConfig::full_accelerated());
        let summary = p.run(&w.frames);
        assert_eq!(summary.frames, 30);
        assert!(summary.total_energy.joules() > 0.0);
    }

    #[test]
    fn authenticator_separates_enrolled_from_impostor() {
        let mut rng = StdRng::seed_from_u64(101);
        let enrolled = Identity::sample(&mut rng);
        let impostors: Vec<Identity> = (0..4).map(|_| Identity::sample(&mut rng)).collect();
        let net = train_authenticator(&enrolled, &impostors, 120, 30, 120, 20, &mut rng);
        let sigmoid = incam_nn::sigmoid::Sigmoid::Exact;
        let score = |id: &Identity, rng: &mut StdRng| -> f32 {
            let mut total = 0.0;
            for _ in 0..10 {
                let nz = Nuisance::sample(rng, 0.35);
                let f = render_face(id, &nz, 24, rng);
                let x = resize_bilinear(&f, 20, 20).to_vec_f32();
                total += net.forward(&x, &sigmoid)[0];
            }
            total / 10.0
        };
        let s_pos = score(&enrolled, &mut rng);
        let s_neg = score(&impostors[0], &mut rng);
        assert!(s_pos > s_neg + 0.15, "enrolled {s_pos} vs impostor {s_neg}");
    }
}
